//! The live mask table: the executor's view of the *current* CUID→mask
//! mapping.
//!
//! The paper's mapping is static — [`PartitionPolicy`] computes the same
//! mask for a class forever. Adaptive control (the `ccp-control` crate)
//! re-derives masks online and publishes them here; workers read the
//! table once per job at bind time, so a repartition is observed on the
//! **next bind**, never mid-query. The table always starts out equal to
//! the static policy mapping, which keeps every static-mode code path
//! byte-for-byte identical to the pre-adaptive behavior.
//!
//! Concurrency model: one writer (the control loop) and many readers
//! (workers). Each class's bits are an independent `AtomicU32`; a plan is
//! *not* applied atomically across classes, which is safe because a bind
//! consults exactly one class entry and every intermediate state is a set
//! of individually-valid masks.
//!
//! Every publish also bumps a **generation**: a repartition may retire a
//! mask's resctrl group and a later one create it again, and a worker
//! comparing masks alone would then skip the bind into the new group for
//! good. Workers remember `(mask, generation)` and go back to the
//! allocator when either moved; its task cache, purged with the group,
//! decides whether the kernel hears of it.

use crate::job::CacheUsageClass;
use crate::partition::PartitionPolicy;
use ccp_cachesim::WayMask;
use ccp_resctrl::{Class, PerClass};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Published per-class way masks, updated in place by the controller and
/// consulted by workers on every bind decision.
#[derive(Debug)]
pub struct LiveMasks {
    bits: PerClass<AtomicU32>,
    generation: AtomicU64,
}

impl LiveMasks {
    /// A table seeded with the policy's static plan.
    pub fn from_policy(policy: &PartitionPolicy) -> Self {
        LiveMasks {
            bits: policy.static_plan().map(|mask| AtomicU32::new(mask.bits())),
            generation: AtomicU64::new(0),
        }
    }

    /// Publishes so far. Read it *before* the entry it is remembered
    /// with: whoever sees a publish's generation also sees its masks.
    pub fn generation(&self) -> u64 {
        // ORDERING: acquire, pairing with the release bump in `publish`.
        self.generation.load(Ordering::Acquire)
    }

    /// The current mask for `cuid`: the live entry of the class the
    /// static policy resolves it to, so a mixed working set that is not
    /// LLC-comparable gets the *live* polluting entry.
    pub fn mask_for(&self, cuid: CacheUsageClass, policy: &PartitionPolicy) -> WayMask {
        self.entry(policy.regime(cuid), policy)
    }

    /// The live entry of `class`.
    ///
    /// Defensive: if a published entry ever fails mask validation the
    /// static policy mask is used instead, so a torn or buggy publish
    /// can never produce an illegal CBM at bind time.
    fn entry(&self, class: Class, policy: &PartitionPolicy) -> WayMask {
        // ORDERING: each class entry is independent and self-contained;
        // a stale read only delays a rebind by one job, matching the
        // documented next-bind semantics.
        let bits = self.bits.get(class).load(Ordering::Relaxed);
        WayMask::new(bits).unwrap_or_else(|_| *policy.static_plan().get(class))
    }

    /// Publishes a full plan and bumps the generation. Per-class stores
    /// are independent; readers may observe a mix of old and new entries,
    /// each individually valid.
    pub fn publish(&self, plan: &PerClass<WayMask>) {
        for (class, mask) in plan.iter() {
            // ORDERING: see `entry` — independent advisory entries.
            self.bits.get(class).store(mask.bits(), Ordering::Relaxed);
        }
        // ORDERING: release, after the entries — see `generation`.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Point-in-time copy of the table, entry by entry (a concurrent
    /// publish may be half visible, as to a binding worker).
    pub fn snapshot(&self, policy: &PartitionPolicy) -> PerClass<WayMask> {
        PerClass::from_fn(|class| self.entry(class, policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cachesim::HierarchyConfig;

    fn policy() -> PartitionPolicy {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes)
    }

    #[test]
    fn defaults_match_static_policy() {
        let p = policy();
        let live = LiveMasks::from_policy(&p);
        for cuid in [
            CacheUsageClass::Polluting,
            CacheUsageClass::Sensitive,
            CacheUsageClass::Mixed { hot_bytes: 125_000 },
            CacheUsageClass::Mixed {
                hot_bytes: 12_500_000,
            },
        ] {
            assert_eq!(live.mask_for(cuid, &p), p.mask_for(cuid));
        }
    }

    #[test]
    fn published_plan_is_observed_and_reset_reverts() {
        let p = policy();
        let live = LiveMasks::from_policy(&p);
        let pol = WayMask::new(0x3).unwrap();
        let mix = WayMask::range(18, 2).unwrap();
        let sen = WayMask::range(16, 4).unwrap();
        live.publish(&PerClass::new(pol, mix, sen));
        assert_eq!(
            live.mask_for(CacheUsageClass::Sensitive, &p).bits(),
            0xf0000
        );
        assert_eq!(
            live.mask_for(
                CacheUsageClass::Mixed {
                    hot_bytes: 12_500_000
                },
                &p
            )
            .bits(),
            0xc0000
        );
        // Non-LLC-comparable mixed working sets still pollute.
        assert_eq!(
            live.mask_for(CacheUsageClass::Mixed { hot_bytes: 125_000 }, &p)
                .bits(),
            0x3
        );
        assert_eq!(live.snapshot(&p), PerClass::new(pol, mix, sen));
        assert_eq!(live.generation(), 1);
        live.publish(&p.static_plan());
        assert_eq!(live.generation(), 2, "every publish counts, also a revert");
        assert_eq!(
            live.mask_for(CacheUsageClass::Sensitive, &p),
            p.mask_for(CacheUsageClass::Sensitive)
        );
    }

    #[test]
    fn invalid_published_bits_fall_back_to_policy() {
        let p = policy();
        let live = LiveMasks::from_policy(&p);
        // Bypass the typed setter to simulate a corrupt publish.
        live.bits.get(Class::Sensitive).store(0, Ordering::Relaxed);
        assert_eq!(
            live.mask_for(CacheUsageClass::Sensitive, &p),
            p.mask_for(CacheUsageClass::Sensitive)
        );
        assert_eq!(live.snapshot(&p), p.static_plan());
    }
}
