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

    /// The workload name this key belongs to (`q1`, `tpch-5`, …).
    pub fn query_id(&self) -> &str {
        &self.query_id
    }

    /// The canonical predicate text.
    pub fn predicate(&self) -> &str {
        &self.predicate
    }

    /// The data-version epoch the key was minted under.
    pub fn data_version(&self) -> u64 {
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
/// The result is stable: canonicalizing a canonical string is a no-op.
pub fn canonicalize_predicate(raw: &str) -> String {
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
    fn keys_differ_by_version() {
        let k1 = ReuseKey::new("q1", "t<5", 0);
        let k2 = ReuseKey::new("q1", "t<5", 1);
        assert_ne!(k1, k2);
        assert_eq!(format!("{k1}"), "q1[t<5]@v0");
    }

    #[test]
    fn empty_predicate_is_legal() {
        let k = ReuseKey::new("q3", "", 0);
        assert_eq!(k.predicate(), "");
    }
}
