//! The S/4HANA ACDOCA OLTP workload (paper Section VI-E).
//!
//! ACDOCA ("Universal Journal Entry Line Items") is a 336-column table with
//! 151 million rows in the paper's customer extract. The measured query is
//! an indexed point select over five primary-key columns projecting either
//! 13 columns with the *biggest* dictionaries (Figure 12a) or 6 columns
//! with smaller dictionaries (Figure 12b). The real table is proprietary;
//! these profiles synthesize the only properties that matter for cache
//! behaviour — the dictionary sizes of the projected columns — at
//! magnitudes consistent with the paper's observations (working set
//! comparable to the 55 MiB LLC for the 13-column projection).

use ccp_cachesim::AddrSpace;
use ccp_engine::sim::{OltpSim, SimOperator};

/// Dictionary sizes (bytes) of the 13 largest ACDOCA NVARCHAR dictionaries
/// used by the modified query of Figure 12a. Mostly document/assignment
/// text and reference-key columns; the sum (≈ 45 MiB) plus the five
/// inverted indexes lands the working set at LLC scale.
pub(crate) const BIG13_DICTS: [u64; 13] = [
    8 << 20,       // 8 MiB
    6 << 20,       // 6 MiB
    5 << 20,       // 5 MiB
    4 << 20,       // 4 MiB
    4 << 20,       // 4 MiB
    3 << 20,       // 3 MiB
    3 << 20,       // 3 MiB
    5 * (1 << 19), // 2.5 MiB
    5 * (1 << 19), // 2.5 MiB
    2 << 20,       // 2 MiB
    2 << 20,       // 2 MiB
    3 * (1 << 19), // 1.5 MiB
    3 * (1 << 19), // 1.5 MiB
];

/// Dictionary sizes of the 6 (smaller) columns projected by the unmodified
/// customer query of Figure 12b (≈ 7 MiB total).
pub(crate) const SMALL6_DICTS: [u64; 6] = [
    2 << 20,       // 2 MiB
    3 * (1 << 19), // 1.5 MiB
    1 << 20,       // 1 MiB
    1 << 20,       // 1 MiB
    3 * (1 << 18), // 0.75 MiB
    1 << 19,       // 0.5 MiB
];

/// The Figure 12a query: point select projecting the 13 biggest columns.
pub fn oltp_13col(space: &mut AddrSpace) -> Box<dyn SimOperator> {
    Box::new(OltpSim::paper_acdoca(space, &BIG13_DICTS))
}

/// The Figure 12b query: point select projecting 6 smaller columns.
pub fn oltp_6col(space: &mut AddrSpace) -> Box<dyn SimOperator> {
    Box::new(OltpSim::paper_acdoca(space, &SMALL6_DICTS))
}

/// The Section VI-E sweep: project the `k` biggest dictionaries,
/// `k ∈ 2..=13`.
///
/// # Panics
/// Panics when `k` is outside `1..=13`.
pub fn oltp_k_cols(space: &mut AddrSpace, k: usize) -> Box<dyn SimOperator> {
    assert!(
        (1..=13).contains(&k),
        "ACDOCA sweep projects 1..=13 columns, got {k}"
    );
    Box::new(OltpSim::paper_acdoca(space, &BIG13_DICTS[..k]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_totals_are_at_paper_scale() {
        let big: u64 = BIG13_DICTS.iter().sum();
        let small: u64 = SMALL6_DICTS.iter().sum();
        // 13-column projection: ~45 MiB of dictionaries (LLC-comparable).
        assert!(big > 40 << 20 && big < 50 << 20, "big13 total {big}");
        // 6-column projection: well below the LLC.
        assert!(small > 5 << 20 && small < 10 << 20, "small6 total {small}");
    }

    #[test]
    fn k_sweep_is_monotone_in_working_set() {
        let mut space = AddrSpace::new();
        let mut last = 0;
        for k in 2..=13 {
            let q = oltp_k_cols(&mut space, k);
            // Names embed the working set in MiB; extract monotonicity via
            // the builder instead: rebuild OltpSim directly.
            drop(q);
            let ws: u64 = BIG13_DICTS[..k].iter().sum();
            assert!(ws > last);
            last = ws;
        }
    }

    #[test]
    #[should_panic(expected = "1..=13")]
    fn oversized_projection_rejected() {
        let mut space = AddrSpace::new();
        let _ = oltp_k_cols(&mut space, 14);
    }
}
