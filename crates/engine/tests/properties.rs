//! Property-based tests for the engine's scheduling and partitioning
//! invariants.

use ccp_cachesim::HierarchyConfig;
use ccp_engine::job::CacheUsageClass;
use ccp_engine::partition::PartitionPolicy;
use ccp_engine::scheduler::{is_cache_sensitive, CacheAwareScheduler};
use ccp_resctrl::{Class, PerClass};
use proptest::prelude::*;

fn paper_policy() -> PartitionPolicy {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes)
}

fn arb_cuid() -> impl Strategy<Value = CacheUsageClass> {
    prop_oneof![
        Just(CacheUsageClass::Polluting),
        Just(CacheUsageClass::Sensitive),
        (1u64..1_000_000_000).prop_map(|hot_bytes| CacheUsageClass::Mixed { hot_bytes }),
    ]
}

proptest! {
    /// The class vocabulary is one coherent table: label, parse and index
    /// round-trip, a `PerClass` answers `get` with what `set`, `map` and
    /// `iter` say, every CUID has a class, and the static plan on the
    /// paper's machine is the paper's three masks.
    #[test]
    fn class_vocabulary_is_coherent(cuid in arb_cuid(), touched in 0usize..3, value in 0u32..1000) {
        for (i, class) in Class::ALL.into_iter().enumerate() {
            prop_assert_eq!(class.index(), i);
            prop_assert_eq!(Class::parse(class.label()), Some(class));
            prop_assert!(Class::PAPER_ORDER.contains(&class));
        }
        prop_assert_eq!(Class::parse("oltp"), None);

        let touched = Class::ALL[touched];
        let mut per = PerClass::from_fn(|class| class.index() as u32);
        prop_assert_eq!(per, PerClass::new(0, 1, 2));
        per.set(touched, value);
        let doubled = per.map(|v| v * 2);
        for (class, &v) in per.iter() {
            let want = if class == touched { value } else { class.index() as u32 };
            prop_assert_eq!(v, want);
            prop_assert_eq!(*per.get(class), want);
            prop_assert_eq!(*doubled.get(class), want * 2);
        }

        let p = paper_policy();
        prop_assert!(Class::ALL.contains(&cuid.class()));
        prop_assert_eq!(ccp_engine::class_label(cuid), cuid.class().label());
        prop_assert_eq!(p.mask_for(cuid), *p.static_plan().get(p.regime(cuid)));
        prop_assert_eq!(p.static_plan().map(|mask| mask.bits()), PerClass::new(0x3, 0xfff, 0xfffff));
    }

    /// The policy always yields a legal CAT mask with at least 2 ways
    /// (the paper's 0x1 prohibition), never exceeding the LLC.
    #[test]
    fn policy_masks_always_legal(cuid in arb_cuid()) {
        let p = paper_policy();
        let m = p.mask_for(cuid);
        prop_assert!(m.way_count() >= 2, "never a single way: {m}");
        prop_assert!(m.check_fits(20).is_ok());
        // Contiguity is guaranteed by the WayMask type; spot-check anyway.
        let bits = m.bits();
        let shifted = bits >> bits.trailing_zeros();
        prop_assert_eq!(shifted & shifted.wrapping_add(1), 0);
    }

    /// Sensitive operators always receive at least as much cache as
    /// polluting ones.
    #[test]
    fn sensitive_never_below_polluting(hot in 1u64..1_000_000_000) {
        let p = paper_policy();
        let polluter = p.mask_for(CacheUsageClass::Polluting).way_count();
        let sensitive = p.mask_for(CacheUsageClass::Sensitive).way_count();
        let mixed = p.mask_for(CacheUsageClass::Mixed { hot_bytes: hot }).way_count();
        prop_assert!(sensitive >= mixed);
        prop_assert!(mixed >= polluter);
    }

    /// Wave plans partition the queue: every query exactly once, order
    /// within a wave preserved, and never two cache-sensitive queries in
    /// one wave.
    #[test]
    fn wave_plan_invariants(
        queue in proptest::collection::vec(arb_cuid(), 0..40),
        slots in 1usize..6,
    ) {
        let p = paper_policy();
        let sched = CacheAwareScheduler::new(p, slots);
        let waves = sched.plan_waves(&queue);

        // Partition: each index exactly once.
        let mut seen: Vec<usize> = waves.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..queue.len()).collect::<Vec<_>>());

        for wave in &waves {
            // Capacity respected.
            prop_assert!(wave.len() <= slots);
            // At most one cache-sensitive member.
            let sensitive = wave
                .iter()
                .filter(|&&i| is_cache_sensitive(&p, queue[i]))
                .count();
            prop_assert!(sensitive <= 1, "wave {wave:?} has {sensitive} sensitive queries");
            // Stable order within the wave.
            prop_assert!(wave.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Greedy planning never produces more waves than one-query-per-wave.
    #[test]
    fn plan_is_no_worse_than_serial(queue in proptest::collection::vec(arb_cuid(), 1..40)) {
        let sched = CacheAwareScheduler::new(paper_policy(), 4);
        let waves = sched.plan_waves(&queue);
        prop_assert!(waves.len() <= queue.len());
        prop_assert!(!waves.is_empty());
    }

    /// Classification is a function of the policy's size bands: the mixed
    /// class flips from confined to 60% and back exactly at the
    /// documented boundaries.
    #[test]
    fn mixed_band_is_contiguous(hot in 1u64..2_000_000_000) {
        let p = paper_policy();
        let m = p.mask_for(CacheUsageClass::Mixed { hot_bytes: hot });
        let in_band = p.is_llc_comparable(hot);
        if in_band {
            prop_assert_eq!(m.bits(), 0xfff);
        } else {
            prop_assert_eq!(m.bits(), 0x3);
        }
    }
}
