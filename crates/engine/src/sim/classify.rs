//! Online cache-usage classification.
//!
//! The paper derives its CUIDs from an *offline* micro-benchmark analysis
//! and notes (Section VII) that "the application of existing
//! characterization methods for describing the cache usage pattern of a
//! database operator could be investigated", citing miss-ratio-based
//! online models. This module implements that investigation: probe an
//! operator twice — once with the full LLC and once confined to the
//! polluter slice — and classify it from the throughput ratio and its
//! re-use behaviour:
//!
//! * insensitive to confinement + no re-use ⇒ **Polluting** (class *i*),
//! * sensitive to confinement ⇒ **Sensitive** (class *ii*),
//! * insensitive but re-using a structure the policy would call
//!   LLC-comparable ⇒ **Mixed** (class *iii*) — the measured footprint is
//!   reported as `hot_bytes`.

use super::{run_concurrent, SimOperator, SimWorkload};
use crate::job::CacheUsageClass;
use crate::partition::PartitionPolicy;
use ccp_cachesim::{AddrSpace, HierarchyConfig, WayMask};

/// Everything the probe measured, plus the resulting classification.
#[derive(Debug, Clone)]
pub struct ClassificationReport {
    /// Throughput with the full LLC (work per kilo-cycle).
    pub full_throughput: f64,
    /// Throughput confined to the polluter mask.
    pub confined_throughput: f64,
    /// `confined / full` — 1.0 means cache-insensitive.
    pub sensitivity_ratio: f64,
    /// Re-use-based LLC hit ratio with the full cache.
    pub reuse_hit_ratio: f64,
    /// Re-used LLC bytes with the full cache — the operator's observed
    /// *hot* footprint (streaming residue excluded).
    pub hot_bytes: u64,
    /// The verdict.
    pub cuid: CacheUsageClass,
}

/// Throughput-loss threshold below which an operator counts as
/// cache-insensitive (the paper tolerates a few percent for its scans).
const INSENSITIVE_RATIO: f64 = 0.93;

/// Re-use hit ratio below which an insensitive operator is a pure
/// streamer/polluter.
const NO_REUSE: f64 = 0.25;

/// Probes `build`'s operator and classifies it. `warm`/`measure` are
/// virtual-cycle windows, as in the experiment driver.
pub fn classify_operator(
    cfg: &HierarchyConfig,
    policy: &PartitionPolicy,
    build: &dyn Fn(&mut AddrSpace) -> Box<dyn SimOperator>,
    warm: u64,
    measure: u64,
) -> ClassificationReport {
    let run = |mask: Option<WayMask>| {
        let mut space = AddrSpace::new();
        let out = run_concurrent(
            cfg,
            vec![SimWorkload {
                name: "probe".into(),
                op: build(&mut space),
                mask,
            }],
            warm,
            measure,
        );
        let s = out.streams.into_iter().next().expect("one workload");
        (s.throughput, s.stats)
    };
    let (full_throughput, full_stats) = run(None);
    let (confined_throughput, _) = run(Some(policy.polluter_mask()));

    let sensitivity_ratio = if full_throughput > 0.0 {
        confined_throughput / full_throughput
    } else {
        0.0
    };
    // Hot footprint and re-use from a dedicated probe run: lines that were
    // hit again after their fill (prefetch coverage excluded) — streaming
    // residue does not count.
    let (hot_bytes, reuse_ratio) = hot_footprint_probe(cfg, build, warm + measure);
    let reuse_hit_ratio = reuse_ratio.max(full_stats.llc_effective_hit_ratio());

    let cuid = if sensitivity_ratio < INSENSITIVE_RATIO {
        CacheUsageClass::Sensitive
    } else if reuse_hit_ratio < NO_REUSE {
        CacheUsageClass::Polluting
    } else {
        // Insensitive but re-using: the structure fits the polluter slice
        // today, but may not on other data — report it as Mixed with the
        // measured footprint so the policy can re-decide per execution.
        CacheUsageClass::Mixed { hot_bytes }
    };

    ClassificationReport {
        full_throughput,
        confined_throughput,
        sensitivity_ratio,
        reuse_hit_ratio,
        hot_bytes,
        cuid,
    }
}

/// Runs the operator alone for `cycles` and reads its re-used LLC bytes
/// plus the fraction of demand accesses that were genuine re-uses (L2 and
/// LLC combined).
fn hot_footprint_probe(
    cfg: &HierarchyConfig,
    build: &dyn Fn(&mut AddrSpace) -> Box<dyn SimOperator>,
    cycles: u64,
) -> (u64, f64) {
    let mut space = AddrSpace::new();
    let mut op = build(&mut space);
    let mut mem = ccp_cachesim::MemoryHierarchy::new(*cfg, 1);
    mem.set_parallelism(0, op.parallelism());
    while mem.clock(0) < cycles {
        op.batch(&mut mem, 0);
    }
    let s = mem.stats(0);
    let genuine_hits = (s.l2.hits + s.llc.hits).saturating_sub(s.prefetch_covered);
    let denom = (s.l2.accesses() + s.prefetches_issued).max(1);
    (mem.llc_reused_bytes(0), genuine_hits as f64 / denom as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{AggregationSim, ColumnScanSim, FkJoinSim};
    use crate::Phase;

    fn setup() -> (HierarchyConfig, PartitionPolicy) {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
        (cfg, policy)
    }

    /// The measured CUID runs under the mask the plan rule predicts for
    /// the phase the twin replays.
    fn assert_plan_regime(policy: &PartitionPolicy, report: &ClassificationReport, phase: Phase) {
        assert_eq!(
            policy.regime(report.cuid),
            policy.regime(phase.cuid()),
            "{report:?} vs {phase:?}"
        );
    }

    const WARM: u64 = 1_500_000;
    const MEASURE: u64 = 3_000_000;

    #[test]
    fn scan_classifies_as_polluting() {
        let (cfg, policy) = setup();
        let report = classify_operator(
            &cfg,
            &policy,
            &|s| Box::new(ColumnScanSim::paper_q1(s, 1 << 33)),
            WARM,
            MEASURE,
        );
        assert_eq!(report.cuid, CacheUsageClass::Polluting, "{report:?}");
        assert!(report.sensitivity_ratio > 0.95);
        assert!(report.reuse_hit_ratio < 0.1);
        let phase = Phase::Scan {
            rows: 1 << 33,
            // 20-bit codes.
            bytes_per_row: 3,
        };
        assert_plan_regime(&policy, &report, phase);
    }

    #[test]
    fn llc_sized_aggregation_classifies_as_sensitive() {
        let (cfg, policy) = setup();
        let report = classify_operator(
            &cfg,
            &policy,
            &|s| Box::new(AggregationSim::paper_q2(s, 1 << 40, 40 << 20, 100_000)),
            WARM,
            MEASURE,
        );
        assert_eq!(report.cuid, CacheUsageClass::Sensitive, "{report:?}");
        assert!(report.sensitivity_ratio < 0.93);
        let phase = Phase::Aggregate {
            rows: 1 << 40,
            dict_bytes: 40 << 20,
            groups: 100_000,
        };
        assert_plan_regime(&policy, &report, phase);
    }

    #[test]
    fn small_bitvec_join_classifies_as_mixed_with_its_footprint() {
        let (cfg, policy) = setup();
        // 10^6 keys: the 125 KB bit vector is re-used heavily but fits the
        // polluter slice -> Mixed, footprint ≈ the bit vector.
        let report = classify_operator(
            &cfg,
            &policy,
            &|s| Box::new(FkJoinSim::new(s, 1_000_000, 1 << 40)),
            WARM,
            MEASURE,
        );
        match report.cuid {
            CacheUsageClass::Mixed { hot_bytes } => {
                assert!(
                    hot_bytes < 1 << 20,
                    "measured hot footprint should be near the 125 KB bit vector, got {hot_bytes}"
                );
            }
            other => panic!("expected Mixed, got {other:?} ({report:?})"),
        }
        assert!(report.reuse_hit_ratio > 0.5, "{report:?}");
        let phase = Phase::Join {
            build_keys: 1_000_000,
            probe_rows: 1 << 40,
        };
        assert_plan_regime(&policy, &report, phase);
    }

    #[test]
    fn classification_agrees_with_paper_policy_masks() {
        // End-to-end: the measured CUIDs produce the paper's masks.
        let (cfg, policy) = setup();
        let scan = classify_operator(
            &cfg,
            &policy,
            &|s| Box::new(ColumnScanSim::paper_q1(s, 1 << 33)),
            WARM,
            MEASURE,
        );
        assert_eq!(policy.mask_for(scan.cuid).bits(), 0x3);
        let agg = classify_operator(
            &cfg,
            &policy,
            &|s| Box::new(AggregationSim::paper_q2(s, 1 << 40, 40 << 20, 100_000)),
            WARM,
            MEASURE,
        );
        assert_eq!(policy.mask_for(agg.cuid).bits(), 0xfffff);
    }
}
