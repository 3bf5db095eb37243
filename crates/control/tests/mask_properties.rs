//! Property tests for mask derivation: whatever targets the classifier
//! produces, the derived plan must be legal CAT state.

use ccp_control::{derive_masks, polluter_isolated, Class, ClassTargets};
use proptest::prelude::*;

proptest! {
    /// Every derived mask is non-empty, contiguous (guaranteed by the
    /// WayMask type — spot-checked anyway) and within the cache's
    /// capacity, for any targets whatsoever.
    #[test]
    fn derived_masks_are_always_legal(
        ways in 2u32..=32,
        min_ways in 1u32..=3,
        polluting in 0u32..=40,
        mixed in 0u32..=40,
        sensitive in 0u32..=40,
    ) {
        let t = ClassTargets::new(polluting, mixed, sensitive);
        let plan = derive_masks(&t, ways, min_ways);
        for class in Class::ALL {
            let m = plan.get(class);
            prop_assert!(m.way_count() >= 1, "{class:?} mask empty");
            prop_assert!(m.check_fits(ways).is_ok(),
                "{class:?} mask {m} exceeds {ways} ways");
            let bits = m.bits();
            let shifted = bits >> bits.trailing_zeros();
            prop_assert_eq!(shifted & shifted.wrapping_add(1), 0);
        }
    }

    /// Whenever the cache is big enough to split, each class gets at
    /// least `min_ways` and the polluter is isolated from both
    /// protected classes.
    #[test]
    fn splittable_caches_confine_the_polluter(
        ways in 4u32..=32,
        min_ways in 1u32..=2,
        polluting in 0u32..=40,
        mixed in 0u32..=40,
        sensitive in 0u32..=40,
    ) {
        let t = ClassTargets::new(polluting, mixed, sensitive);
        let plan = derive_masks(&t, ways, min_ways);
        for class in Class::ALL {
            prop_assert!(plan.get(class).way_count() >= min_ways);
        }
        prop_assert!(polluter_isolated(&plan),
            "polluter overlaps a protected class: {plan:?}");
    }

    /// Derivation is idempotent: feeding a plan's own way counts back
    /// in reproduces the plan exactly (no drift from clamping).
    #[test]
    fn derivation_is_idempotent(
        ways in 4u32..=32,
        polluting in 0u32..=40,
        mixed in 0u32..=40,
        sensitive in 0u32..=40,
    ) {
        let first = derive_masks(
            &ClassTargets::new(polluting, mixed, sensitive), ways, 2);
        let again = derive_masks(&first.map(|mask| mask.way_count()), ways, 2);
        prop_assert_eq!(first, again);
    }
}
