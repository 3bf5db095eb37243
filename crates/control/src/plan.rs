//! Way-target → mask-plan derivation.
//!
//! A [`MaskPlan`] is one complete CUID→mask mapping: three contiguous
//! [`WayMask`]s, one per class. [`derive_masks`] turns per-class way
//! *targets* into a plan with a fixed geometry that makes exclusivity
//! structural rather than checked:
//!
//! * **polluting** — anchored at way 0, like the paper's `0x3`;
//! * **sensitive** — anchored at the *top* of the cache;
//! * **mixed** — also top-anchored (it shares ways with sensitive, as in
//!   the paper's nested `0xfff` ⊂ `0xfffff`, but never with polluting).
//!
//! Clamping guarantees polluting and the top-anchored classes never
//! overlap: pollution confinement — the paper's core mechanism — is
//! preserved under every input.

use ccp_cachesim::WayMask;
use ccp_resctrl::{Class, PerClass};

/// Per-class way-count targets, the input to [`derive_masks`].
pub type ClassTargets = PerClass<u32>;

/// One complete CUID→mask mapping: a way mask per class (the mixed
/// entry is the mask of its cache-sensitive regime).
pub type MaskPlan = PerClass<WayMask>;

/// Total way-count movement between two plans — the change magnitude
/// the hysteresis threshold compares against.
pub(crate) fn delta_ways(a: &MaskPlan, b: &MaskPlan) -> u32 {
    a.iter()
        .map(|(class, mask)| mask.way_count().abs_diff(b.get(class).way_count()))
        .sum()
}

/// Whether the polluting class is isolated from both top-anchored
/// classes — the confinement property adaptive plans guarantee.
/// (The paper's *static* plan intentionally violates this: its
/// nested masks give sensitive operators the polluter's ways too.)
pub fn polluter_isolated(plan: &MaskPlan) -> bool {
    let polluting = plan.get(Class::Polluting).bits();
    polluting & plan.get(Class::Sensitive).bits() == 0
        && polluting & plan.get(Class::Mixed).bits() == 0
}

/// Derives a [`MaskPlan`] from per-class way targets on a `ways`-way
/// cache, guaranteeing every mask is non-empty, contiguous, within
/// capacity, at least `min_ways` wide, and — whenever the cache is big
/// enough to split (`ways >= 2 * min_ways`) — that the polluting mask
/// never overlaps the sensitive or mixed masks.
///
/// Degenerate caches (`ways < 2 * min_ways`) cannot host a disjoint
/// pair, so every class shares the full cache — partitioning there is a
/// no-op, exactly like the static policy on a tiny LLC.
pub fn derive_masks(targets: &ClassTargets, ways: u32, min_ways: u32) -> MaskPlan {
    let ways = ways.clamp(1, ccp_cachesim::MAX_WAYS);
    let min_ways = min_ways.clamp(1, ways);
    let full = WayMask::full(ways).expect("ways validated in range");
    if ways < min_ways * 2 {
        return MaskPlan::new(full, full, full);
    }
    // Bottom-anchored polluting region, clamped so at least `min_ways`
    // remain above it for the protected classes.
    let want = |class| *targets.get(class);
    let p = want(Class::Polluting).clamp(min_ways, ways - min_ways);
    // Top-anchored protected regions, clamped to the space above the
    // polluting region — structural exclusivity.
    let s = want(Class::Sensitive).clamp(min_ways, ways - p);
    let m = want(Class::Mixed).clamp(min_ways, ways - p);
    MaskPlan::new(
        WayMask::from_ways(p).expect("p in [1, ways]"),
        WayMask::range(ways - m, m).expect("m in [1, ways - p]"),
        WayMask::range(ways - s, s).expect("s in [1, ways - p]"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_anchors_polluter_low_and_sensitive_high() {
        let plan = derive_masks(&ClassTargets::new(2, 4, 6), 20, 2);
        assert_eq!(plan.get(Class::Polluting).bits(), 0x3);
        assert_eq!(plan.get(Class::Sensitive).bits(), 0xfc000); // top 6 ways
        assert_eq!(plan.get(Class::Mixed).bits(), 0xf0000); // top 4 ways
        assert!(polluter_isolated(&plan));
    }

    #[test]
    fn oversized_targets_are_clamped_to_capacity() {
        let plan = derive_masks(&ClassTargets::new(50, 50, 50), 20, 2);
        // Polluter capped so the protected classes keep min_ways...
        assert_eq!(plan.get(Class::Polluting).way_count(), 18);
        // ...and the protected classes fill whatever remains above it.
        assert_eq!(plan.get(Class::Sensitive).way_count(), 2);
        assert!(polluter_isolated(&plan));
    }

    #[test]
    fn degenerate_cache_shares_everything() {
        let plan = derive_masks(&ClassTargets::new(1, 1, 1), 3, 2);
        assert_eq!(plan.get(Class::Polluting).bits(), 0x7);
        assert_eq!(plan.get(Class::Sensitive).bits(), 0x7);
        assert!(!polluter_isolated(&plan));
    }

    #[test]
    fn delta_ways_sums_per_class_movement() {
        let a = derive_masks(&ClassTargets::new(2, 12, 18), 20, 2);
        let b = derive_masks(&ClassTargets::new(2, 12, 4), 20, 2);
        assert_eq!(delta_ways(&a, &b), 14);
        assert_eq!(delta_ways(&a, &a), 0);
    }
}
