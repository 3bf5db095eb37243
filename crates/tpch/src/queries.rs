//! The 22 TPC-H queries as cache-footprint profiles.
//!
//! Each query is a sequence of phases over the engine's operator twins:
//! sequential scans, bit-vector foreign-key joins, and hash aggregations
//! with their dominant decompressed dictionary. Cardinalities follow the
//! TPC-H specification at SF 100; where a parameter is ambiguous (e.g. how
//! many rows survive a filter before the aggregation), we pick the value
//! the specification's selectivities imply, so that the resulting
//! sensitivity classes match the paper's observation: queries touching the
//! ≈ 29 MiB `L_EXTENDEDPRICE` dictionary over many rows (Q1, Q7, Q8, Q9)
//! are cache-sensitive, queries with tiny or hopelessly oversized working
//! sets are not.
//!
//! Row counts are scaled by `ROW_SCALE` at build time (see
//! `ccp_engine::sim` for why scaling row counts — but never structure
//! sizes — preserves the normalized-throughput curves).

use crate::schema::{dict, rows};
use ccp_cachesim::AddrSpace;
use ccp_engine::sim::{AggregationSim, ColumnScanSim, CompositeSim, FkJoinSim, Phase, SimOperator};

/// Row-count scale-down applied when building operators (sizes stay real).
pub(crate) const ROW_SCALE: u64 = 1_000;

/// One phase of a query profile, in full SF 100 rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseSpec {
    /// Sequential scan of `rows` rows at `bytes_per_row` packed bytes.
    Scan {
        /// Rows scanned.
        rows: u64,
        /// Packed bytes per row (all scanned columns combined).
        bytes_per_row: u64,
    },
    /// Bit-vector foreign-key join: build over `build_keys` keys, probe
    /// with `probe_rows` rows.
    Join {
        /// Distinct keys on the build side (bit vector = keys/8 bytes).
        build_keys: u64,
        /// Probe-side rows.
        probe_rows: u64,
    },
    /// Hash aggregation of `rows` input rows, decompressing through a
    /// dictionary of `dict_bytes`, producing `groups` groups.
    Aggregate {
        /// Input rows.
        rows: u64,
        /// Dominant decompressed dictionary size in bytes.
        dict_bytes: u64,
        /// Result group count.
        groups: u64,
    },
}

/// A TPC-H query's cache profile.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Query number, 1–22.
    pub id: u8,
    /// Short TPC-H name.
    pub name: &'static str,
    /// One-line cache-behaviour rationale.
    pub rationale: &'static str,
    /// Phase sequence.
    pub phases: Vec<PhaseSpec>,
}

/// All query ids.
pub fn query_ids() -> impl Iterator<Item = u8> {
    1..=22
}

/// The profile of query `id`.
///
/// # Panics
/// Panics when `id` is not in `1..=22`.
pub fn profile(id: u8) -> QueryProfile {
    use PhaseSpec::*;
    let (name, rationale, phases): (&'static str, &'static str, Vec<PhaseSpec>) = match id {
        1 => (
            "pricing summary report",
            "aggregates nearly all of lineitem through the 29 MiB L_EXTENDEDPRICE \
             dictionary into 4 groups: the paper's flagship cache-sensitive query",
            vec![Aggregate {
                rows: 590_000_000,
                dict_bytes: dict::L_EXTENDEDPRICE,
                groups: 4,
            }],
        ),
        2 => (
            "minimum cost supplier",
            "small tables and a 0.8 MB supplycost dictionary: nothing LLC-sized",
            vec![
                Scan {
                    rows: rows::PART,
                    bytes_per_row: 8,
                },
                Join {
                    build_keys: rows::SUPPLIER,
                    probe_rows: rows::PARTSUPP,
                },
                Aggregate {
                    rows: 320_000,
                    dict_bytes: dict::PS_SUPPLYCOST,
                    groups: 460,
                },
            ],
        ),
        3 => (
            "shipping priority",
            "revenue per order: ~3M groups make the hash table far larger than \
             the LLC, so the query is bandwidth- rather than LLC-bound",
            vec![
                Join {
                    build_keys: rows::CUSTOMER,
                    probe_rows: rows::ORDERS,
                },
                Join {
                    build_keys: rows::ORDERS,
                    probe_rows: rows::LINEITEM,
                },
                Aggregate {
                    rows: 30_000_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 3_000_000,
                },
            ],
        ),
        4 => (
            "order priority checking",
            "semi-join plus a 5-group count: tiny working set",
            vec![
                Join {
                    build_keys: rows::ORDERS,
                    probe_rows: rows::LINEITEM,
                },
                Aggregate {
                    rows: 5_000_000,
                    dict_bytes: dict::TINY,
                    groups: 5,
                },
            ],
        ),
        5 => (
            "local supplier volume",
            "join-heavy; the revenue aggregation touches L_EXTENDEDPRICE but over \
             a filtered ~2.8% of lineitem, diluting its cache sensitivity",
            vec![
                Join {
                    build_keys: rows::CUSTOMER,
                    probe_rows: rows::ORDERS,
                },
                Join {
                    build_keys: rows::ORDERS,
                    probe_rows: rows::LINEITEM,
                },
                Join {
                    build_keys: rows::SUPPLIER,
                    probe_rows: 90_000_000,
                },
                Aggregate {
                    rows: 17_000_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 25,
                },
            ],
        ),
        6 => (
            "forecasting revenue change",
            "a pure predicate scan; only ~1.9% of rows reach the revenue sum",
            vec![
                Scan {
                    rows: rows::LINEITEM,
                    bytes_per_row: 12,
                },
                Aggregate {
                    rows: 11_000_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 1,
                },
            ],
        ),
        7 => (
            "volume shipping",
            "two-nation filter keeps ~60M lineitem rows flowing through the \
             29 MiB price dictionary into 4 groups: cache-sensitive (paper: improves)",
            vec![
                Join {
                    build_keys: rows::SUPPLIER,
                    probe_rows: rows::LINEITEM,
                },
                Join {
                    build_keys: rows::ORDERS,
                    probe_rows: 120_000_000,
                },
                Aggregate {
                    rows: 60_000_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 4,
                },
            ],
        ),
        8 => (
            "national market share",
            "volume over two order years (~180M lineitem rows joined, ~45M \
             aggregated through the price dictionary): cache-sensitive (paper: improves)",
            vec![
                Join {
                    build_keys: rows::PART,
                    probe_rows: rows::LINEITEM,
                },
                Join {
                    build_keys: rows::ORDERS,
                    probe_rows: 180_000_000,
                },
                Aggregate {
                    rows: 45_000_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 14,
                },
            ],
        ),
        9 => (
            "product type profit measure",
            "~5% part filter leaves ~30M amount computations, each decoding BOTH \
             l_extendedprice and ps_supplycost (modeled as 60M dictionary-bound \
             rows), 175 nation×year groups: cache-sensitive (paper: improves)",
            vec![
                Join {
                    build_keys: rows::PART,
                    probe_rows: rows::LINEITEM,
                },
                Join {
                    build_keys: rows::SUPPLIER,
                    probe_rows: rows::LINEITEM,
                },
                Aggregate {
                    rows: 60_000_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 175,
                },
            ],
        ),
        10 => (
            "returned item reporting",
            "~380k customer groups put the hash table at ~200 MB, well past the \
             LLC: bandwidth-bound despite the price dictionary",
            vec![
                Join {
                    build_keys: rows::ORDERS,
                    probe_rows: rows::LINEITEM,
                },
                Join {
                    build_keys: rows::CUSTOMER,
                    probe_rows: 57_000_000,
                },
                Aggregate {
                    rows: 15_000_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 380_000,
                },
            ],
        ),
        11 => (
            "important stock identification",
            "partsupp value per part: 1M groups, 0.8 MB dictionary — oversized \
             hash table, small dictionary",
            vec![
                Scan {
                    rows: rows::PARTSUPP,
                    bytes_per_row: 12,
                },
                Aggregate {
                    rows: 3_200_000,
                    dict_bytes: dict::PS_SUPPLYCOST,
                    groups: 1_000_000,
                },
            ],
        ),
        12 => (
            "shipping modes / order priority",
            "semi-join plus a 2-group count over tiny dictionaries",
            vec![
                Join {
                    build_keys: rows::ORDERS,
                    probe_rows: rows::LINEITEM,
                },
                Aggregate {
                    rows: 3_000_000,
                    dict_bytes: dict::TINY,
                    groups: 2,
                },
            ],
        ),
        13 => (
            "customer distribution",
            "order counts per customer then a 42-group histogram: streaming with \
             tiny dictionaries",
            vec![
                Join {
                    build_keys: rows::CUSTOMER,
                    probe_rows: rows::ORDERS,
                },
                Aggregate {
                    rows: rows::ORDERS,
                    dict_bytes: dict::TINY,
                    groups: 42,
                },
            ],
        ),
        14 => (
            "promotion effect",
            "the date predicate still scans all of lineitem; only one month \
             (~7.5M rows) survives into the join and the price-dictionary \
             aggregation, so the bandwidth-bound scan dominates",
            vec![
                Scan {
                    rows: rows::LINEITEM,
                    bytes_per_row: 8,
                },
                Join {
                    build_keys: rows::PART,
                    probe_rows: 7_500_000,
                },
                Aggregate {
                    rows: 7_500_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 2,
                },
            ],
        ),
        15 => (
            "top supplier",
            "revenue per supplier: 1M groups → ~550 MB hash table, bandwidth-bound",
            vec![
                Aggregate {
                    rows: 22_000_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 1_000_000,
                },
                Join {
                    build_keys: rows::SUPPLIER,
                    probe_rows: rows::SUPPLIER,
                },
            ],
        ),
        16 => (
            "parts/supplier relationship",
            "distinct-supplier counts over partsupp with enumerated-string \
             dictionaries: modest working set",
            vec![
                Scan {
                    rows: rows::PARTSUPP,
                    bytes_per_row: 8,
                },
                Aggregate {
                    rows: 47_000_000,
                    dict_bytes: dict::TINY,
                    groups: 18_000,
                },
            ],
        ),
        17 => (
            "small-quantity-order revenue",
            "a 0.1% part filter probed by all of lineitem; the final average is \
             over ~600k rows",
            vec![
                Join {
                    build_keys: rows::PART,
                    probe_rows: rows::LINEITEM,
                },
                Aggregate {
                    rows: 600_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 1,
                },
            ],
        ),
        18 => (
            "large volume customer",
            "groups by order key: ~150M groups, a multi-GB hash table — the \
             heaviest bandwidth consumer of the suite (the paper notes the \
             co-running scan speeds up most with Q18)",
            vec![
                Aggregate {
                    rows: rows::LINEITEM,
                    dict_bytes: dict::L_QUANTITY,
                    groups: rows::ORDERS,
                },
                Join {
                    build_keys: rows::ORDERS,
                    probe_rows: rows::LINEITEM,
                },
            ],
        ),
        19 => (
            "discounted revenue",
            "three narrow part/quantity predicates: ~120k rows reach the revenue sum",
            vec![
                Join {
                    build_keys: rows::PART,
                    probe_rows: rows::LINEITEM,
                },
                Aggregate {
                    rows: 120_000,
                    dict_bytes: dict::L_EXTENDEDPRICE,
                    groups: 1,
                },
            ],
        ),
        20 => (
            "potential part promotion",
            "half-year lineitem quantities per part: 2M groups → oversized hash table",
            vec![
                Join {
                    build_keys: rows::PART,
                    probe_rows: rows::PARTSUPP,
                },
                Aggregate {
                    rows: 30_000_000,
                    dict_bytes: dict::L_QUANTITY,
                    groups: 2_000_000,
                },
            ],
        ),
        21 => (
            "suppliers who kept orders waiting",
            "double lineitem pass against the 18.75 MB orders bit vector, then a \
             40k-group count: join-dominated",
            vec![
                Join {
                    build_keys: rows::SUPPLIER,
                    probe_rows: rows::LINEITEM,
                },
                Join {
                    build_keys: rows::ORDERS,
                    probe_rows: rows::LINEITEM,
                },
                Aggregate {
                    rows: 12_000_000,
                    dict_bytes: dict::TINY,
                    groups: 40_000,
                },
            ],
        ),
        22 => (
            "global sales opportunity",
            "customer-only query over the 9 MB acctbal dictionary: small and fast",
            vec![
                Scan {
                    rows: rows::CUSTOMER,
                    bytes_per_row: 10,
                },
                Aggregate {
                    rows: 1_900_000,
                    dict_bytes: dict::C_ACCTBAL,
                    groups: 7,
                },
            ],
        ),
        _ => panic!("TPC-H defines queries 1..=22, got {id}"),
    };
    QueryProfile {
        id,
        name,
        rationale,
        phases,
    }
}

/// Builds the simulated composite operator for query `id` in `space`.
///
/// # Panics
/// Panics when `id` is not in `1..=22`.
pub fn build_query(space: &mut AddrSpace, id: u8) -> Box<dyn SimOperator> {
    let prof = profile(id);
    let phases = prof
        .phases
        .iter()
        .map(|p| match *p {
            PhaseSpec::Scan {
                rows,
                bytes_per_row,
            } => {
                let scaled = (rows / ROW_SCALE).max(1);
                Phase {
                    op: Box::new(ColumnScanSim::new(space, scaled, bytes_per_row * 8)),
                    quota: scaled,
                }
            }
            PhaseSpec::Join {
                build_keys,
                probe_rows,
            } => {
                let scaled = (probe_rows / ROW_SCALE).max(1);
                let join = FkJoinSim::new(space, build_keys, scaled);
                let quota = join.cycle_rows();
                Phase {
                    op: Box::new(join),
                    quota,
                }
            }
            PhaseSpec::Aggregate {
                rows,
                dict_bytes,
                groups,
            } => {
                let scaled = (rows / ROW_SCALE).max(1);
                Phase {
                    op: Box::new(AggregationSim::paper_q2(space, scaled, dict_bytes, groups)),
                    quota: scaled,
                }
            }
        })
        .collect();
    Box::new(CompositeSim::new(format!("tpch-q{:02}", prof.id), phases))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_have_profiles() {
        for id in query_ids() {
            let p = profile(id);
            assert_eq!(p.id, id);
            assert!(!p.phases.is_empty(), "q{id} has no phases");
            assert!(!p.rationale.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "1..=22")]
    fn query_23_rejected() {
        let _ = profile(23);
    }

    #[test]
    fn q1_matches_paper_description() {
        let p = profile(1);
        assert_eq!(p.phases.len(), 1);
        match p.phases[0] {
            PhaseSpec::Aggregate {
                dict_bytes, groups, ..
            } => {
                assert_eq!(dict_bytes, dict::L_EXTENDEDPRICE);
                assert_eq!(groups, 4);
            }
            _ => panic!("Q1 must be a single aggregation"),
        }
    }

    #[test]
    fn sensitive_queries_use_the_price_dictionary_heavily() {
        // The paper: Q1, Q7, Q8, Q9 improve with partitioning. In the
        // model this corresponds to many aggregation rows through the
        // 29 MiB dictionary with an LLC-fitting hash table.
        for id in [1u8, 7, 8, 9] {
            let p = profile(id);
            let heavy = p.phases.iter().any(|ph| {
                matches!(ph, PhaseSpec::Aggregate { rows, dict_bytes, groups }
                    if *dict_bytes == dict::L_EXTENDEDPRICE
                        && *rows >= 30_000_000
                        && *groups * ccp_engine::sim::HT_BYTES_PER_GROUP
                            < 55 * 1024 * 1024)
            });
            assert!(heavy, "q{id} should be modeled as price-dictionary-heavy");
        }
    }

    #[test]
    fn all_queries_build() {
        let mut space = AddrSpace::new();
        for id in query_ids() {
            let q = build_query(&mut space, id);
            assert!(q.name().contains(&format!("q{id:02}")));
        }
    }

    #[test]
    fn built_queries_execute_deterministically() {
        use ccp_cachesim::{HierarchyConfig, MemoryHierarchy};
        let run = || {
            let mut space = AddrSpace::new();
            let mut q = build_query(&mut space, 6);
            let mut mem = MemoryHierarchy::new(HierarchyConfig::broadwell_e5_2699_v4(), 1);
            let mut work = 0;
            for _ in 0..200 {
                work += q.batch(&mut mem, 0);
            }
            (work, mem.clock(0))
        };
        assert_eq!(run(), run());
    }
}
