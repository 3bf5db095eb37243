//! Canonicalized cache keys.
//!
//! Two textually different spellings of the same predicate must land on
//! the same cache entry, or the cache silently degrades into a miss
//! machine. Canonicalization is deliberately syntactic — no expression
//! parser — and normalizes exactly the two degrees of freedom our
//! query front end produces: whitespace and conjunct order.

use std::fmt;

/// The identity of a cacheable artifact: which query shape produced it
/// (`query_id`), under which canonicalized predicate, against which
/// data-version epoch. Keys with different versions never collide, so no
/// entry built before a version bump can answer a key minted after it;
/// the bump itself sweeps the old entries out
/// ([`ReuseCache::bump_version`](crate::ReuseCache::bump_version)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReuseKey {
    query_id: String,
    predicate: String,
    data_version: u64,
}

impl ReuseKey {
    /// Builds a key, canonicalizing `predicate` (see
    /// [`canonicalize_predicate`]).
    pub fn new(query_id: &str, predicate: &str, data_version: u64) -> Self {
        ReuseKey {
            query_id: query_id.to_string(),
            predicate: canonicalize_predicate(predicate),
            data_version,
        }
    }

    /// The data-version epoch the key was minted under.
    pub(crate) fn data_version(&self) -> u64 {
        self.data_version
    }
}

impl fmt::Display for ReuseKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]@v{}",
            self.query_id, self.predicate, self.data_version
        )
    }
}

/// Normalizes a predicate string so equivalent spellings compare equal:
///
/// 1. lowercase (SQL keywords and identifiers are case-insensitive in
///    our front end);
/// 2. split into conjuncts on the `and` keyword;
/// 3. strip *all* whitespace inside each conjunct
///    (`threshold < 100` ≡ `threshold<100`);
/// 4. sort and deduplicate the conjuncts, then rejoin with ` and `.
///
/// The result is stable: canonicalizing a canonical string is a no-op,
/// and costs one scan and one copy — the server emits its predicates in
/// canonical form.
pub fn canonicalize_predicate(raw: &str) -> String {
    if is_canonical(raw) {
        return raw.to_string();
    }
    canonicalize_full(raw)
}

/// Whether `raw` is already what [`canonicalize_full`] returns:
/// conjuncts joined by single ` and `, each non-empty, free of
/// whitespace and ASCII uppercase, in strictly ascending order. Such
/// text lowercases, squashes and splits into exactly those conjuncts,
/// which are already sorted and distinct, so the full path rejoins it
/// unchanged.
fn is_canonical(raw: &str) -> bool {
    if raw.is_empty() {
        return true;
    }
    let mut prev: Option<&str> = None;
    for clause in raw.split(" and ") {
        let plain = !clause.is_empty()
            && !clause
                .chars()
                .any(|c| c.is_whitespace() || c.is_ascii_uppercase());
        if !plain || prev.is_some_and(|p| p >= clause) {
            return false;
        }
        prev = Some(clause);
    }
    true
}

fn canonicalize_full(raw: &str) -> String {
    let lowered = raw.to_ascii_lowercase();
    // Squash runs of whitespace so the `and` separators are uniform.
    let squashed = lowered.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut conjuncts: Vec<String> = squashed
        .split(" and ")
        .map(|clause| clause.split_whitespace().collect::<String>())
        .filter(|clause| !clause.is_empty())
        .collect();
    conjuncts.sort();
    conjuncts.dedup();
    conjuncts.join(" and ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_and_case_are_normalized() {
        assert_eq!(
            canonicalize_predicate("  Threshold   <  100 "),
            "threshold<100"
        );
        assert_eq!(canonicalize_predicate("threshold<100"), "threshold<100");
    }

    #[test]
    fn conjunct_order_is_normalized() {
        let a = canonicalize_predicate("b = 2 AND a < 1");
        let b = canonicalize_predicate("a<1 and  B=2");
        assert_eq!(a, b);
        assert_eq!(a, "a<1 and b=2");
    }

    #[test]
    fn duplicate_conjuncts_collapse() {
        assert_eq!(canonicalize_predicate("x=1 and x = 1"), "x=1");
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let once = canonicalize_predicate("C=3 and a=1  AND b = 2");
        assert_eq!(canonicalize_predicate(&once), once);
    }

    #[test]
    fn the_servers_spellings_take_the_early_return() {
        for pred in [
            "",
            "threshold<25000",
            "threshold<-3",
            "agg=max",
            "a<1 and b=2",
        ] {
            assert!(is_canonical(pred), "{pred:?}");
            assert_eq!(canonicalize_predicate(pred), pred);
        }
        for pred in [
            " x", "b and a", "x and x", "A<1", "a and  b", "a and ", "x\u{a0}y",
        ] {
            assert!(!is_canonical(pred), "{pred:?}");
        }
    }

    /// Text over an alphabet that spells conjunct separators, case,
    /// ASCII and Unicode whitespace, and multi-byte characters.
    fn arb_predicate() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::Strategy;
        const ALPHABET: [&str; 16] = [
            "a", "n", "d", " and ", "AND", " ", "  ", "\t", "\u{a0}", "b", "B", "<", "=1", "é",
            "x", "\u{3000}",
        ];
        proptest::collection::vec(0..ALPHABET.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest::proptest! {
        /// The early return is observably the full path: on arbitrary
        /// text, and on the canonical text the full path produces.
        #[test]
        fn early_return_matches_the_full_path(raw in arb_predicate()) {
            proptest::prop_assert_eq!(canonicalize_predicate(&raw), canonicalize_full(&raw));
            let canon = canonicalize_full(&raw);
            proptest::prop_assert!(is_canonical(&canon), "{:?} -> {:?}", raw, canon);
            proptest::prop_assert_eq!(canonicalize_full(&canon), canon.clone());
            proptest::prop_assert_eq!(canonicalize_predicate(&canon), canon);
        }
    }

    #[test]
    fn keys_differ_by_version() {
        let k1 = ReuseKey::new("q1", "t<5", 0);
        let k2 = ReuseKey::new("q1", "t<5", 1);
        assert_ne!(k1, k2);
        assert_eq!(format!("{k1}"), "q1[t<5]@v0");
    }

    #[test]
    fn empty_predicate_is_legal() {
        let k = ReuseKey::new("q3", "", 0);
        assert_eq!(k.predicate, "");
    }
}
