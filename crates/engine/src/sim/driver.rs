//! Virtual-time concurrent workload driver.
//!
//! Reproduces the paper's measurement protocol (Section VI-A): "execute all
//! queries repeatedly for 90 seconds, report each query's throughput
//! normalized to its isolated throughput". Here the 90 wall-clock seconds
//! become a window of *virtual cycles*; concurrency is deterministic — the
//! driver always steps the stream with the smallest virtual clock, so
//! streams interleave on the shared LLC and DRAM channel exactly the same
//! way in every run.

use super::SimOperator;
use ccp_cachesim::{HierarchyConfig, MemoryHierarchy, StreamStats, WayMask};

/// One concurrent query: an operator plus its CAT mask (`None` = full
/// cache, the unpartitioned baseline).
pub struct SimWorkload {
    /// Display name.
    pub name: String,
    /// The operator twin.
    pub op: Box<dyn SimOperator>,
    /// LLC way mask; `None` grants the full cache.
    pub mask: Option<WayMask>,
}

impl SimWorkload {
    /// Wraps an operator with the full-cache mask.
    pub fn unpartitioned(name: impl Into<String>, op: Box<dyn SimOperator>) -> Self {
        SimWorkload {
            name: name.into(),
            op,
            mask: None,
        }
    }

    /// Wraps an operator with an explicit mask.
    pub fn masked(name: impl Into<String>, op: Box<dyn SimOperator>, mask: WayMask) -> Self {
        SimWorkload {
            name: name.into(),
            op,
            mask: Some(mask),
        }
    }
}

/// Per-stream measurement results.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Workload name.
    pub name: String,
    /// Work units completed in the measurement window.
    pub work: u64,
    /// What `work` counts.
    pub work_unit: &'static str,
    /// Virtual cycles elapsed for this stream.
    pub cycles: u64,
    /// Work per kilo-cycle (the throughput the paper normalizes).
    pub throughput: f64,
    /// The stream's cache statistics over the window.
    pub stats: StreamStats,
}

/// Whole-run results.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// One outcome per workload, in submission order.
    pub streams: Vec<StreamOutcome>,
    /// System-wide counters (the paper's PCM view): merged stream stats.
    pub combined: StreamStats,
    /// Bytes that crossed the DRAM channel in the measurement window.
    pub dram_bytes: u64,
    /// Cumulative DRAM queuing delay (cycles) — a congestion indicator.
    pub total_queue_cycles: u64,
}

/// Default warm-up window: enough virtual cycles for every working set to
/// reach steady state in a 55 MiB LLC (≈ 5 ms of virtual time at 2.2 GHz).
pub const DEFAULT_WARM_CYCLES: u64 = 12_000_000;

/// Default measurement window.
pub const DEFAULT_MEASURE_CYCLES: u64 = 24_000_000;

/// Runs `workloads` concurrently on one simulated socket.
///
/// Phases: warm-up (`warm_cycles` of virtual time per stream, statistics
/// discarded, caches stay warm), then measurement until every stream's
/// clock passes `measure_cycles`.
///
/// # Panics
/// Panics when `workloads` is empty or a mask does not fit the LLC.
pub fn run_concurrent(
    cfg: &HierarchyConfig,
    mut workloads: Vec<SimWorkload>,
    warm_cycles: u64,
    measure_cycles: u64,
) -> RunOutcome {
    assert!(!workloads.is_empty(), "need at least one workload");
    let n = workloads.len();
    let mut mem = MemoryHierarchy::new(*cfg, n);
    for (s, w) in workloads.iter().enumerate() {
        let mask = w
            .mask
            .unwrap_or_else(|| WayMask::full(cfg.llc.ways).expect("validated LLC way count"));
        mem.set_mask(s, mask);
        mem.set_parallelism(s, w.op.parallelism());
    }

    // Warm-up phase: fill caches, discard statistics.
    step_until(&mut mem, &mut workloads, warm_cycles, &mut vec![0u64; n]);
    mem.reset_clocks();
    mem.reset_stats();

    // Measurement phase.
    let mut work = vec![0u64; n];
    step_until(&mut mem, &mut workloads, measure_cycles, &mut work);

    let streams = workloads
        .iter()
        .enumerate()
        .map(|(s, w)| {
            let cycles = mem.clock(s);
            StreamOutcome {
                name: w.name.clone(),
                work: work[s],
                work_unit: w.op.work_unit(),
                cycles,
                throughput: if cycles == 0 {
                    0.0
                } else {
                    work[s] as f64 * 1000.0 / cycles as f64
                },
                stats: *mem.stats(s),
            }
        })
        .collect();
    RunOutcome {
        streams,
        combined: mem.combined_stats(),
        dram_bytes: mem.dram().bytes_transferred(),
        total_queue_cycles: mem.dram().total_queue_cycles(),
    }
}

/// Steps the least-advanced stream until every stream's clock is at least
/// `until` cycles, accumulating work.
fn step_until(
    mem: &mut MemoryHierarchy,
    workloads: &mut [SimWorkload],
    until: u64,
    work: &mut [u64],
) {
    loop {
        // Pick the stream with the smallest clock that is still below the
        // target — deterministic tie-break by index.
        let mut next: Option<(usize, u64)> = None;
        for s in 0..workloads.len() {
            let c = mem.clock_centi(s);
            if c < until * 100 && next.map(|(_, best)| c < best).unwrap_or(true) {
                next = Some((s, c));
            }
        }
        let Some((s, _)) = next else { break };
        work[s] += workloads[s].op.batch(mem, s);
    }
}

/// Measures one operator running alone with the full cache — the
/// normalization denominator for every figure.
pub fn run_isolated(
    cfg: &HierarchyConfig,
    name: impl Into<String>,
    op: Box<dyn SimOperator>,
    warm_cycles: u64,
    measure_cycles: u64,
) -> StreamOutcome {
    let outcome = run_concurrent(
        cfg,
        vec![SimWorkload::unpartitioned(name, op)],
        warm_cycles,
        measure_cycles,
    );
    outcome
        .streams
        .into_iter()
        .next()
        .expect("one workload submitted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{AggregationSim, ColumnScanSim};
    use ccp_cachesim::AddrSpace;

    fn cfg() -> HierarchyConfig {
        HierarchyConfig::broadwell_e5_2699_v4()
    }

    const WARM: u64 = 2_000_000;
    const MEASURE: u64 = 4_000_000;

    fn scan(space: &mut AddrSpace) -> Box<ColumnScanSim> {
        Box::new(ColumnScanSim::paper_q1(space, 1 << 33))
    }

    fn agg(space: &mut AddrSpace, groups: u64) -> Box<AggregationSim> {
        Box::new(AggregationSim::paper_q2(space, 1 << 40, 4 << 20, groups))
    }

    #[test]
    fn isolated_run_reports_throughput() {
        let mut space = AddrSpace::new();
        let out = run_isolated(&cfg(), "q1", scan(&mut space), WARM, MEASURE);
        assert!(out.work > 0);
        assert!(out.throughput > 0.0);
        assert!(out.cycles >= MEASURE);
        assert_eq!(out.work_unit, "rows");
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            let mut space = AddrSpace::new();
            let w = vec![
                SimWorkload::unpartitioned("q1", scan(&mut space)),
                SimWorkload::unpartitioned("q2", agg(&mut space, 100_000)),
            ];
            let out = run_concurrent(&cfg(), w, WARM, MEASURE);
            (out.streams[0].work, out.streams[1].work, out.dram_bytes)
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn streams_progress_together() {
        let mut space = AddrSpace::new();
        let w = vec![
            SimWorkload::unpartitioned("q1", scan(&mut space)),
            SimWorkload::unpartitioned("q2", agg(&mut space, 100_000)),
        ];
        let out = run_concurrent(&cfg(), w, WARM, MEASURE);
        // Both streams reached the measurement target.
        for s in &out.streams {
            assert!(s.cycles >= MEASURE, "{} stalled at {}", s.name, s.cycles);
            assert!(s.work > 0);
        }
    }

    #[test]
    fn concurrency_slows_the_sensitive_query() {
        // The teaser (Figure 1): aggregation concurrent with a scan is
        // slower than aggregation alone.
        let mut space = AddrSpace::new();
        let alone = run_isolated(&cfg(), "q2", agg(&mut space, 100_000), WARM, MEASURE);
        let mut space = AddrSpace::new();
        let w = vec![
            SimWorkload::unpartitioned("q2", agg(&mut space, 100_000)),
            SimWorkload::unpartitioned("q1", scan(&mut space)),
        ];
        let both = run_concurrent(&cfg(), w, WARM, MEASURE);
        let normalized = both.streams[0].throughput / alone.throughput;
        assert!(
            normalized < 0.92,
            "concurrent scan must hurt the aggregation, got {normalized}"
        );
    }

    #[test]
    fn partitioning_recovers_aggregation_throughput() {
        // The paper's headline effect: confining the scan to 0x3 improves
        // the aggregation vs. the unpartitioned concurrent run.
        let mut space = AddrSpace::new();
        let w = vec![
            SimWorkload::unpartitioned("q2", agg(&mut space, 100_000)),
            SimWorkload::unpartitioned("q1", scan(&mut space)),
        ];
        let base = run_concurrent(&cfg(), w, WARM, MEASURE);

        let mut space = AddrSpace::new();
        let w = vec![
            SimWorkload::unpartitioned("q2", agg(&mut space, 100_000)),
            SimWorkload::masked("q1", scan(&mut space), WayMask::new(0x3).unwrap()),
        ];
        let part = run_concurrent(&cfg(), w, WARM, MEASURE);

        let gain = part.streams[0].throughput / base.streams[0].throughput;
        assert!(
            gain > 1.05,
            "partitioning must help the aggregation, gain {gain}"
        );
        // And the scan must not collapse (paper: it even improves).
        let scan_ratio = part.streams[1].throughput / base.streams[1].throughput;
        assert!(
            scan_ratio > 0.9,
            "the confined scan must not regress, ratio {scan_ratio}"
        );
    }

    #[test]
    fn combined_stats_cover_all_streams() {
        let mut space = AddrSpace::new();
        let w = vec![
            SimWorkload::unpartitioned("q1", scan(&mut space)),
            SimWorkload::unpartitioned("q2", agg(&mut space, 1000)),
        ];
        let out = run_concurrent(&cfg(), w, WARM, MEASURE);
        let sum: u64 = out.streams.iter().map(|s| s.stats.llc.misses).sum();
        assert_eq!(out.combined.llc.misses, sum);
        assert!(out.dram_bytes > 0);
        let hit_ratio = out.combined.llc.hit_ratio();
        assert!((0.0..=1.0).contains(&hit_ratio));
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_run_rejected() {
        let _ = run_concurrent(&cfg(), vec![], 1, 1);
    }
}
