//! Property-based tests for the reuse cache: key canonicalization is
//! insensitive to conjunct order, spacing, case and duplication; and
//! the byte budget plus pinning invariants survive arbitrary
//! insert/lookup/bump sequences.

use ccp_obs::{MetricSample, Registry};
use ccp_reuse::{canonicalize_predicate, Artifact, ReuseCache, ReuseConfig, ReuseKey, TryBegin};
use ccp_storage::BitVec;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// One simple conjunct (`colN < V`) plus presentation noise: a sort
/// rank for permuting, a left/right padding width, and a case flag.
fn arb_conjunct() -> impl Strategy<Value = (String, u64, u8, bool)> {
    (0u8..5, 0u16..100, 0u64..1_000_000, 0u8..4, 0u8..2)
        .prop_map(|(c, v, rank, pad, upper)| (format!("col{c} < {v}"), rank, pad, upper == 1))
}

/// Decorates one conjunct with the generated noise: padding, tabs and
/// upper-casing — all of which canonicalization must erase.
fn decorate(text: &str, pad: u8, upper: bool) -> String {
    let body = if upper {
        text.to_uppercase()
    } else {
        text.to_string()
    };
    let spaces = " ".repeat(pad as usize);
    format!("{spaces}\t{body}{spaces}")
}

/// The registered counter `name`'s value. A name the registry does not
/// hold panics rather than reading a freshly made 0.
fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .sample_all()
        .into_iter()
        .find(|f| f.name == name)
        .and_then(|f| match f.samples.as_slice() {
            [(_, MetricSample::Counter(v))] => Some(*v),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{name} is not a registered counter"))
}

proptest! {
    /// Permuting conjuncts, injecting whitespace/tabs, changing case and
    /// duplicating a conjunct all canonicalize to the same predicate —
    /// so equivalent spellings share one cache entry.
    #[test]
    fn canonicalization_erases_order_spacing_case_and_duplicates(
        conjuncts in proptest::collection::vec(arb_conjunct(), 1..5),
    ) {
        let plain = conjuncts
            .iter()
            .map(|(text, ..)| text.as_str())
            .collect::<Vec<_>>()
            .join(" and ");

        // A permutation (sort by the generated ranks) with per-conjunct
        // decoration, joined with a differently-cased connective.
        let mut shuffled = conjuncts.clone();
        shuffled.sort_by_key(|&(_, rank, ..)| rank);
        let noisy = shuffled
            .iter()
            .map(|(text, _, pad, upper)| decorate(text, *pad, *upper))
            .collect::<Vec<_>>()
            .join(" AND ");

        let canon = canonicalize_predicate(&plain);
        prop_assert_eq!(&canonicalize_predicate(&noisy), &canon);

        // Repeating any conjunct is a no-op after dedup.
        let duplicated = format!("{plain} and {}", conjuncts[0].0);
        prop_assert_eq!(&canonicalize_predicate(&duplicated), &canon);
    }

    /// Two keys are equal exactly when their canonical predicates (and
    /// version) are — key identity is semantic, not syntactic.
    #[test]
    fn key_equality_follows_canonical_form(
        a in arb_conjunct(),
        b in arb_conjunct(),
        version in 0u64..4,
    ) {
        let ka = ReuseKey::new("q1", &a.0, version);
        let kb = ReuseKey::new("q1", &b.0, version);
        prop_assert_eq!(
            ka == kb,
            canonicalize_predicate(&a.0) == canonicalize_predicate(&b.0)
        );
        // The same predicate decorated differently is the same key.
        let kc = ReuseKey::new("q1", &decorate(&a.0, a.2, a.3), version);
        prop_assert_eq!(ka, kc);
    }
}

/// One step of the randomized cache exercise.
#[derive(Debug, Clone)]
enum Op {
    /// Get-or-compute for query `q`, installing a `words × 8`-byte bit
    /// vector on a miss.
    Insert { q: u8, words: u16 },
    /// Lookup only — never installs.
    Probe { q: u8 },
    /// Advance the data-version epoch.
    Bump,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 1u16..64).prop_map(|(q, words)| Op::Insert { q, words }),
        (0u8..6).prop_map(|q| Op::Probe { q }),
        Just(Op::Bump),
    ]
}

fn key_for(cache: &ReuseCache, q: u8) -> ReuseKey {
    cache.key(&format!("q{q}"), "x < 1")
}

fn bits_artifact(words: u16) -> Artifact {
    // BitVec footprint is words × 8 bytes (one u64 per 64 bits).
    Artifact::JoinBits(Arc::new(BitVec::zeros(words as u64 * 64)))
}

proptest! {
    /// Across arbitrary insert/probe/bump sequences the cache never
    /// exceeds its byte budget, and — single-threaded, so no `Pending`
    /// — every lookup resolves as exactly one hit or one miss.
    #[test]
    fn budget_and_counters_hold_under_arbitrary_ops(
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        const BUDGET: u64 = 256; // fits only a handful of entries
        let cache = ReuseCache::new(ReuseConfig::with_budget(BUDGET));
        let registry = Registry::new();
        cache.register_into(&registry);
        let mut lookups = 0u64;
        for op in &ops {
            match op {
                Op::Insert { q, words } => {
                    lookups += 1;
                    if let TryBegin::Build(guard) = cache.try_begin(&key_for(&cache, *q)) {
                        guard.publish(bits_artifact(*words), Duration::from_micros(50));
                    }
                }
                Op::Probe { q } => {
                    lookups += 1;
                    if let TryBegin::Build(guard) = cache.try_begin(&key_for(&cache, *q)) {
                        drop(guard); // abandon: a probe never installs
                    }
                }
                Op::Bump => {
                    cache.bump_version();
                }
            }
            prop_assert!(
                cache.bytes() <= BUDGET,
                "{} bytes exceed the {BUDGET}-byte budget after {op:?}",
                cache.bytes()
            );
            prop_assert_eq!(
                counter(&registry, "ccp_reuse_hits_total")
                    + counter(&registry, "ccp_reuse_misses_total"),
                lookups
            );
        }
    }

    /// An artifact a reader still holds (its `Arc` is shared) is never
    /// evicted, no matter how much insert pressure follows: the pinned
    /// entry keeps hitting and keeps returning the same allocation.
    #[test]
    fn pinned_entries_survive_arbitrary_insert_pressure(
        inserts in proptest::collection::vec((0u8..6, 1u16..64), 1..60),
    ) {
        const BUDGET: u64 = 256;
        let cache = ReuseCache::new(ReuseConfig::with_budget(BUDGET));
        let pinned_key = cache.key("pinned", "x < 1");
        let TryBegin::Build(guard) = cache.try_begin(&pinned_key) else {
            panic!("fresh cache must grant the build");
        };
        prop_assert!(guard.publish(bits_artifact(8), Duration::from_micros(50)));
        let TryBegin::Hit(artifact) = cache.try_begin(&pinned_key) else {
            panic!("just-published entry must hit");
        };
        let pinned = artifact.join_bits().expect("bit-vector artifact");

        // No bumps here: epoch invalidation legitimately removes even
        // shared entries; this property isolates *eviction*.
        for (q, words) in &inserts {
            if let TryBegin::Build(g) = cache.try_begin(&key_for(&cache, *q)) {
                g.publish(bits_artifact(*words), Duration::from_micros(50));
            }
            prop_assert!(cache.bytes() <= BUDGET);
            let TryBegin::Hit(again) = cache.try_begin(&pinned_key) else {
                panic!("pinned entry was evicted while a reader held it");
            };
            let held = again.join_bits().expect("bit-vector artifact");
            prop_assert!(
                Arc::ptr_eq(&pinned, &held),
                "pinned entry was replaced, not preserved"
            );
        }
    }
}
