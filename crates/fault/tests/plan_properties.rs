//! Property tests for the fault-plan grammar: every plan the library
//! can represent must survive a `Display` → `FromStr` round trip
//! unchanged, and malformed clauses must be rejected with an error that
//! names the offending clause verbatim.

use ccp_fault::{Action, FaultPlan, FaultSpec, Trigger};
use proptest::prelude::*;

/// Every character the grammar allows in a failpoint name.
const NAME_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";

/// Valid failpoint names, built by mapping index vectors into the
/// grammar's alphabet (the vendored proptest has no string strategies).
fn name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..NAME_ALPHABET.len(), 1..16)
        .prop_map(|ix| ix.iter().map(|&i| NAME_ALPHABET[i] as char).collect())
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Err),
        (0u64..100_000).prop_map(Action::Delay),
        Just(Action::Panic),
    ]
}

fn trigger_strategy() -> impl Strategy<Value = Trigger> {
    prop_oneof![
        (1u64..10_000).prop_map(|start| Trigger::Nth { start, count: 1 }),
        ((1u64..10_000), (1u64..1_000)).prop_map(|(start, count)| Trigger::Nth { start, count }),
        (1u64..10_000).prop_map(Trigger::EveryK),
        ((0u32..=100), (0u64..u64::MAX)).prop_map(|(pct, seed)| Trigger::Prob {
            pct: pct as u8,
            seed,
        }),
        Just(Trigger::Always),
    ]
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec(
        (name_strategy(), action_strategy(), trigger_strategy()).prop_map(
            |(name, action, trigger)| FaultSpec {
                name,
                action,
                trigger,
            },
        ),
        0..6,
    )
    .prop_map(|specs| FaultPlan { specs })
}

proptest! {
    /// `Display` → `FromStr` is the identity on every representable plan.
    #[test]
    fn display_parse_round_trips(plan in plan_strategy()) {
        let rendered = plan.to_string();
        let reparsed: FaultPlan = rendered
            .parse()
            .unwrap_or_else(|e| panic!("rendered plan {rendered:?} failed to parse: {e}"));
        prop_assert_eq!(reparsed, plan);
    }

    /// A garbage clause appended to any valid plan fails the whole
    /// parse, and the error's message quotes that clause verbatim.
    #[test]
    fn malformed_tail_clause_is_named_in_error(
        plan in plan_strategy(),
        junk in proptest::collection::vec(0usize..NAME_ALPHABET.len(), 1..10),
    ) {
        // A bare name with no '=' can never be a valid clause.
        let bad: String = junk.iter().map(|&i| NAME_ALPHABET[i] as char).collect();
        let mut s = plan.to_string();
        if !s.is_empty() {
            s.push(',');
        }
        s.push_str(&bad);
        let err = s.parse::<FaultPlan>().expect_err("clause without '=' must fail");
        prop_assert_eq!(&err.clause, &bad);
        prop_assert!(
            err.to_string().contains(&format!("{bad:?}")),
            "error {:?} does not quote the offending clause {:?}",
            err.to_string(),
            bad
        );
    }

    /// Nonsense triggers are rejected, never mis-parsed: `@` followed by
    /// anything that is not a number, window, every-k, or probability.
    #[test]
    fn unknown_trigger_is_rejected(start in 1u64..1000) {
        let s = format!("a=err@x{start}");
        prop_assert!(s.parse::<FaultPlan>().is_err());
    }
}
