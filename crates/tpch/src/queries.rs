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
use ccp_engine::sim::{AggregationSim, ColumnScanSim, CompositeSim, FkJoinSim, SimOperator};
use ccp_engine::{Phase, Plan};

/// Row-count scale-down applied when building operators (sizes stay real).
pub(crate) const ROW_SCALE: u64 = 1_000;

/// All query ids.
pub fn query_ids() -> impl Iterator<Item = u8> {
    1..=22
}

/// The profile of query `id`: its plan in full SF 100 rows. Each arm
/// names its query and why the phases have the sizes they have.
///
/// # Panics
/// Panics when `id` is not in `1..=22`.
pub(crate) fn profile(id: u8) -> Plan {
    let scan = |rows, bytes_per_row| Phase::Scan {
        rows,
        bytes_per_row,
    };
    let join = |build_keys, probe_rows| Phase::Join {
        build_keys,
        probe_rows,
    };
    let aggregate = |rows, dict_bytes, groups| Phase::Aggregate {
        rows,
        dict_bytes,
        groups,
    };
    let phases = match id {
        // Q1, pricing summary report: aggregates nearly all of lineitem through the 29 MiB
        // L_EXTENDEDPRICE dictionary into 4 groups: the paper's flagship cache-sensitive query.
        1 => vec![aggregate(590_000_000, dict::L_EXTENDEDPRICE, 4)],
        // Q2, minimum cost supplier: small tables and a 0.8 MB supplycost dictionary: nothing
        // LLC-sized.
        2 => vec![
            scan(rows::PART, 8),
            join(rows::SUPPLIER, rows::PARTSUPP),
            aggregate(320_000, dict::PS_SUPPLYCOST, 460),
        ],
        // Q3, shipping priority: revenue per order: ~3M groups make the hash table far larger than
        // the LLC, so the query is bandwidth- rather than LLC-bound.
        3 => vec![
            join(rows::CUSTOMER, rows::ORDERS),
            join(rows::ORDERS, rows::LINEITEM),
            aggregate(30_000_000, dict::L_EXTENDEDPRICE, 3_000_000),
        ],
        // Q4, order priority checking: semi-join plus a 5-group count: tiny working set.
        4 => vec![
            join(rows::ORDERS, rows::LINEITEM),
            aggregate(5_000_000, dict::TINY, 5),
        ],
        // Q5, local supplier volume: join-heavy; the revenue aggregation touches L_EXTENDEDPRICE
        // but over a filtered ~2.8% of lineitem, diluting its cache sensitivity.
        5 => vec![
            join(rows::CUSTOMER, rows::ORDERS),
            join(rows::ORDERS, rows::LINEITEM),
            join(rows::SUPPLIER, 90_000_000),
            aggregate(17_000_000, dict::L_EXTENDEDPRICE, 25),
        ],
        // Q6, forecasting revenue change: a pure predicate scan; only ~1.9% of rows reach the
        // revenue sum.
        6 => vec![
            scan(rows::LINEITEM, 12),
            aggregate(11_000_000, dict::L_EXTENDEDPRICE, 1),
        ],
        // Q7, volume shipping: two-nation filter keeps ~60M lineitem rows flowing through the
        // 29 MiB price dictionary into 4 groups: cache-sensitive (paper: improves).
        7 => vec![
            join(rows::SUPPLIER, rows::LINEITEM),
            join(rows::ORDERS, 120_000_000),
            aggregate(60_000_000, dict::L_EXTENDEDPRICE, 4),
        ],
        // Q8, national market share: volume over two order years (~180M lineitem rows joined, ~45M
        // aggregated through the price dictionary): cache-sensitive (paper: improves).
        8 => vec![
            join(rows::PART, rows::LINEITEM),
            join(rows::ORDERS, 180_000_000),
            aggregate(45_000_000, dict::L_EXTENDEDPRICE, 14),
        ],
        // Q9, product type profit measure: ~5% part filter leaves ~30M amount computations, each
        // decoding BOTH l_extendedprice and ps_supplycost (modeled as 60M dictionary-bound rows),
        // 175 nation×year groups: cache-sensitive (paper: improves).
        9 => vec![
            join(rows::PART, rows::LINEITEM),
            join(rows::SUPPLIER, rows::LINEITEM),
            aggregate(60_000_000, dict::L_EXTENDEDPRICE, 175),
        ],
        // Q10, returned item reporting: ~380k customer groups put the hash table at ~200 MB, well
        // past the LLC: bandwidth-bound despite the price dictionary.
        10 => vec![
            join(rows::ORDERS, rows::LINEITEM),
            join(rows::CUSTOMER, 57_000_000),
            aggregate(15_000_000, dict::L_EXTENDEDPRICE, 380_000),
        ],
        // Q11, important stock identification: partsupp value per part: 1M groups, 0.8 MB
        // dictionary — oversized hash table, small dictionary.
        11 => vec![
            scan(rows::PARTSUPP, 12),
            aggregate(3_200_000, dict::PS_SUPPLYCOST, 1_000_000),
        ],
        // Q12, shipping modes / order priority: semi-join plus a 2-group count over tiny
        // dictionaries.
        12 => vec![
            join(rows::ORDERS, rows::LINEITEM),
            aggregate(3_000_000, dict::TINY, 2),
        ],
        // Q13, customer distribution: order counts per customer then a 42-group histogram:
        // streaming with tiny dictionaries.
        13 => vec![
            join(rows::CUSTOMER, rows::ORDERS),
            aggregate(rows::ORDERS, dict::TINY, 42),
        ],
        // Q14, promotion effect: the date predicate still scans all of lineitem; only one month
        // (~7.5M rows) survives into the join and the price-dictionary aggregation, so the
        // bandwidth-bound scan dominates.
        14 => vec![
            scan(rows::LINEITEM, 8),
            join(rows::PART, 7_500_000),
            aggregate(7_500_000, dict::L_EXTENDEDPRICE, 2),
        ],
        // Q15, top supplier: revenue per supplier: 1M groups → ~550 MB hash table, bandwidth-bound.
        15 => vec![
            aggregate(22_000_000, dict::L_EXTENDEDPRICE, 1_000_000),
            join(rows::SUPPLIER, rows::SUPPLIER),
        ],
        // Q16, parts/supplier relationship: distinct-supplier counts over partsupp with
        // enumerated-string dictionaries: modest working set.
        16 => vec![
            scan(rows::PARTSUPP, 8),
            aggregate(47_000_000, dict::TINY, 18_000),
        ],
        // Q17, small-quantity-order revenue: a 0.1% part filter probed by all of lineitem; the
        // final average is over ~600k rows.
        17 => vec![
            join(rows::PART, rows::LINEITEM),
            aggregate(600_000, dict::L_EXTENDEDPRICE, 1),
        ],
        // Q18, large volume customer: groups by order key: ~150M groups, a multi-GB hash table —
        // the heaviest bandwidth consumer of the suite (the paper notes the co-running scan speeds
        // up most with Q18).
        18 => vec![
            aggregate(rows::LINEITEM, dict::L_QUANTITY, rows::ORDERS),
            join(rows::ORDERS, rows::LINEITEM),
        ],
        // Q19, discounted revenue: three narrow part/quantity predicates: ~120k rows reach the
        // revenue sum.
        19 => vec![
            join(rows::PART, rows::LINEITEM),
            aggregate(120_000, dict::L_EXTENDEDPRICE, 1),
        ],
        // Q20, potential part promotion: half-year lineitem quantities per part: 2M groups →
        // oversized hash table.
        20 => vec![
            join(rows::PART, rows::PARTSUPP),
            aggregate(30_000_000, dict::L_QUANTITY, 2_000_000),
        ],
        // Q21, suppliers who kept orders waiting: double lineitem pass against the 18.75 MB orders
        // bit vector, then a 40k-group count: join-dominated.
        21 => vec![
            join(rows::SUPPLIER, rows::LINEITEM),
            join(rows::ORDERS, rows::LINEITEM),
            aggregate(12_000_000, dict::TINY, 40_000),
        ],
        // Q22, global sales opportunity: customer-only query over the 9 MB acctbal dictionary:
        // small and fast.
        22 => vec![
            scan(rows::CUSTOMER, 10),
            aggregate(1_900_000, dict::C_ACCTBAL, 7),
        ],
        _ => panic!("TPC-H defines queries 1..=22, got {id}"),
    };
    Plan { phases }
}

/// Builds the simulated composite operator for query `id` in `space`:
/// one twin per phase, under the query's [`Plan::class`].
///
/// # Panics
/// Panics when `id` is not in `1..=22`.
pub fn build_query(space: &mut AddrSpace, id: u8) -> Box<dyn SimOperator> {
    let plan = profile(id);
    let phases = plan.phases.iter().map(|&p| twin(space, p)).collect();
    Box::new(CompositeSim::new(
        format!("tpch-q{id:02}"),
        plan.class(),
        phases,
    ))
}

/// The operator twin of `phase` at `ROW_SCALE`-scaled rows, with the rows
/// it contributes to one execution of its query.
fn twin(space: &mut AddrSpace, phase: Phase) -> (Box<dyn SimOperator>, u64) {
    match phase {
        Phase::Scan {
            rows,
            bytes_per_row,
        } => {
            let scaled = (rows / ROW_SCALE).max(1);
            let scan = ColumnScanSim::new(space, scaled, bytes_per_row * 8);
            (Box::new(scan), scaled)
        }
        Phase::Join {
            build_keys,
            probe_rows,
        } => {
            let scaled = (probe_rows / ROW_SCALE).max(1);
            let join = FkJoinSim::new(space, build_keys, scaled);
            let quota = join.cycle_rows();
            (Box::new(join), quota)
        }
        Phase::Aggregate {
            rows,
            dict_bytes,
            groups,
        } => {
            let scaled = (rows / ROW_SCALE).max(1);
            let agg = AggregationSim::paper_q2(space, scaled, dict_bytes, groups);
            (Box::new(agg), scaled)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_have_profiles() {
        for id in query_ids() {
            assert!(!profile(id).phases.is_empty(), "q{id} has no phases");
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
            Phase::Aggregate {
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
                matches!(ph, Phase::Aggregate { rows, dict_bytes, groups }
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
    fn every_twin_runs_under_its_phase_regime() {
        let cfg = ccp_cachesim::HierarchyConfig::broadwell_e5_2699_v4();
        let policy = ccp_engine::PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
        let mut space = AddrSpace::new();
        for id in query_ids() {
            for &phase in &profile(id).phases {
                let (op, _) = twin(&mut space, phase);
                assert_eq!(
                    policy.regime(op.cuid()),
                    policy.regime(phase.cuid()),
                    "q{id}: {} vs {phase:?}",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn built_queries_carry_their_plan_class() {
        let mut space = AddrSpace::new();
        for id in query_ids() {
            let q = build_query(&mut space, id);
            assert_eq!(q.cuid(), profile(id).class(), "q{id}");
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
