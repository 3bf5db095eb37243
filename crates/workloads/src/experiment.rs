//! The paper's measurement protocol, packaged.
//!
//! Three kinds of experiments regenerate every figure:
//!
//! * **LLC sweeps** ([`Experiment::llc_sweep`]) — one query alone while its
//!   cache allocation shrinks from the full LLC down to one way
//!   (Figures 4–6); throughput is normalized to the full-cache run.
//! * **Concurrent runs** ([`Experiment::run_concurrent_normalized`]) — two
//!   (or more) queries co-run for a virtual-time window; each query's
//!   throughput is normalized to its isolated full-cache throughput
//!   (Figures 1, 9–12).
//! * **Isolated baselines** ([`Experiment::run_isolated`]) — the
//!   normalization denominators.

use ccp_cachesim::{AddrSpace, HierarchyConfig, StreamStats, WayMask};
use ccp_engine::partition::PartitionPolicy;
use ccp_engine::sim::{
    run_concurrent, run_isolated, SimOperator, SimWorkload, StreamOutcome, DEFAULT_MEASURE_CYCLES,
    DEFAULT_WARM_CYCLES,
};

/// A builder producing a fresh operator twin inside the given address
/// space. Experiments need to build each operator several times (isolated
/// baseline + concurrent run), hence a factory instead of a value.
pub type OpBuilder<'a> = Box<dyn Fn(&mut AddrSpace) -> Box<dyn SimOperator> + 'a>;

/// How a query's LLC mask is chosen in a concurrent run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskChoice {
    /// Full cache — the unpartitioned baseline.
    Full,
    /// An explicit mask.
    Mask(WayMask),
    /// Derived from the operator's CUID through the paper's
    /// [`PartitionPolicy`] — what the integrated engine does.
    Policy,
}

/// One query of a concurrent experiment.
pub struct QuerySpec<'a> {
    /// Display name.
    pub name: String,
    /// Factory for the operator twin.
    pub build: OpBuilder<'a>,
    /// Mask selection.
    pub mask: MaskChoice,
}

impl<'a> QuerySpec<'a> {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        mask: MaskChoice,
        build: impl Fn(&mut AddrSpace) -> Box<dyn SimOperator> + 'a,
    ) -> Self {
        QuerySpec {
            name: name.into(),
            build: Box::new(build),
            mask,
        }
    }
}

/// Result of one query in a concurrent experiment.
#[derive(Debug, Clone)]
pub struct NormalizedOutcome {
    /// Query name.
    pub name: String,
    /// Throughput normalized to the isolated full-cache run — the paper's
    /// y-axis everywhere.
    pub normalized: f64,
    /// Raw concurrent throughput (work per kilo-cycle).
    pub concurrent_throughput: f64,
    /// Raw isolated throughput.
    pub isolated_throughput: f64,
    /// Stream statistics over the concurrent measurement window.
    pub stats: StreamStats,
}

/// One point of an LLC sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Allocated LLC bytes at this point.
    pub llc_bytes: u64,
    /// Number of ways granted.
    pub ways: u32,
    /// Throughput normalized to the full-cache run.
    pub normalized: f64,
    /// LLC hit ratio at this point.
    pub llc_hit_ratio: f64,
    /// LLC misses per instruction at this point.
    pub llc_mpi: f64,
}

/// Experiment configuration: machine model plus virtual-time windows.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Simulated memory system (default: the paper's Broadwell).
    pub cfg: HierarchyConfig,
    /// Warm-up virtual cycles (statistics discarded).
    pub warm_cycles: u64,
    /// Measurement virtual cycles.
    pub measure_cycles: u64,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            cfg: HierarchyConfig::broadwell_e5_2699_v4(),
            warm_cycles: DEFAULT_WARM_CYCLES,
            measure_cycles: DEFAULT_MEASURE_CYCLES,
        }
    }
}

impl Experiment {
    /// The paper's partition policy for this machine.
    pub fn policy(&self) -> PartitionPolicy {
        PartitionPolicy::paper_default(self.cfg.llc, self.cfg.l2.size_bytes)
    }

    /// Measures one query running alone with the full cache.
    pub fn run_isolated(&self, name: &str, build: &OpBuilder<'_>) -> StreamOutcome {
        let mut space = AddrSpace::new();
        let op = build(&mut space);
        run_isolated(&self.cfg, name, op, self.warm_cycles, self.measure_cycles)
    }

    /// Sweeps a query's LLC allocation over `sizes` (bytes, rounded to
    /// whole ways) — the protocol of Figures 4–6. Throughput at each point
    /// is normalized to the largest allocation in `sizes`.
    ///
    /// # Panics
    /// Panics when `sizes` is empty.
    pub fn llc_sweep(&self, build: &OpBuilder<'_>, sizes: &[u64]) -> Vec<SweepPoint> {
        assert!(!sizes.is_empty(), "sweep needs at least one size");
        let mut points: Vec<(u64, WayMask, StreamOutcome)> = sizes
            .iter()
            .map(|&bytes| {
                let mask = self
                    .cfg
                    .llc_mask_for_bytes(bytes)
                    .expect("sweep sizes validated against LLC geometry");
                let mut space = AddrSpace::new();
                let op = build(&mut space);
                let out = run_concurrent(
                    &self.cfg,
                    vec![SimWorkload::masked("sweep", op, mask)],
                    self.warm_cycles,
                    self.measure_cycles,
                );
                let s = out.streams.into_iter().next().expect("one workload");
                (bytes, mask, s)
            })
            .collect();
        let best = points
            .iter()
            .map(|(_, _, s)| s.throughput)
            .fold(f64::MIN, f64::max)
            .max(f64::MIN_POSITIVE);
        points
            .drain(..)
            .map(|(_bytes, mask, s)| SweepPoint {
                llc_bytes: mask.capacity_bytes(self.cfg.llc.size_bytes, self.cfg.llc.ways),
                ways: mask.way_count(),
                normalized: s.throughput / best,
                llc_hit_ratio: s.stats.llc_effective_hit_ratio(),
                llc_mpi: s.stats.llc_mpi(),
            })
            .collect()
    }

    /// Runs the queries concurrently and reports each one's throughput
    /// normalized to its own isolated full-cache baseline — the paper's
    /// Figure 1/9/10/11/12 protocol.
    pub fn run_concurrent_normalized(&self, specs: &[QuerySpec<'_>]) -> Vec<NormalizedOutcome> {
        let policy = self.policy();
        // Isolated baselines, one at a time.
        let isolated: Vec<StreamOutcome> = specs
            .iter()
            .map(|q| self.run_isolated(&q.name, &q.build))
            .collect();
        // The concurrent run: all operators share one address space (they
        // are distinct regions; sharing the space only keeps them from
        // aliasing).
        let mut space = AddrSpace::new();
        let workloads: Vec<SimWorkload> = specs
            .iter()
            .map(|q| {
                let op = (q.build)(&mut space);
                let mask = match q.mask {
                    MaskChoice::Full => None,
                    MaskChoice::Mask(m) => Some(m),
                    MaskChoice::Policy => Some(policy.mask_for(op.cuid())),
                };
                SimWorkload {
                    name: q.name.clone(),
                    op,
                    mask,
                }
            })
            .collect();
        let out = run_concurrent(&self.cfg, workloads, self.warm_cycles, self.measure_cycles);
        out.streams
            .into_iter()
            .zip(isolated)
            .map(|(conc, iso)| NormalizedOutcome {
                name: conc.name.clone(),
                normalized: if iso.throughput > 0.0 {
                    conc.throughput / iso.throughput
                } else {
                    0.0
                },
                concurrent_throughput: conc.throughput,
                isolated_throughput: iso.throughput,
                stats: conc.stats,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn tiny_experiment() -> Experiment {
        Experiment {
            warm_cycles: 1_000_000,
            measure_cycles: 2_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn isolated_baseline_runs() {
        let e = tiny_experiment();
        let build: OpBuilder = Box::new(paper::q1_scan);
        let out = e.run_isolated("q1", &build);
        assert!(out.throughput > 0.0);
    }

    #[test]
    fn llc_sweep_normalizes_to_best() {
        let e = tiny_experiment();
        let build: OpBuilder = Box::new(|s| paper::q2_aggregation(s, paper::DICT_4MIB, 100_000));
        let sizes = [e.cfg.llc.size_bytes, e.cfg.llc.size_bytes / 10];
        let points = e.llc_sweep(&build, &sizes);
        assert_eq!(points.len(), 2);
        let best = points.iter().map(|p| p.normalized).fold(f64::MIN, f64::max);
        assert!(
            (best - 1.0).abs() < 1e-9,
            "best point must normalize to 1.0"
        );
        // The LLC-sized hash table must be slower with 10% of the cache.
        assert!(points[1].normalized < 0.85, "got {}", points[1].normalized);
        assert_eq!(points[0].ways, 20);
        assert_eq!(points[1].ways, 2);
    }

    #[test]
    fn concurrent_normalized_reports_both_queries() {
        let e = tiny_experiment();
        let specs = vec![
            QuerySpec::new("q2", MaskChoice::Full, |s| {
                paper::q2_aggregation(s, paper::DICT_4MIB, 100_000)
            }),
            QuerySpec::new("q1", MaskChoice::Full, paper::q1_scan),
        ];
        let out = e.run_concurrent_normalized(&specs);
        assert_eq!(out.len(), 2);
        for o in &out {
            assert!(
                o.normalized > 0.0 && o.normalized < 1.05,
                "{}: {}",
                o.name,
                o.normalized
            );
            assert!(o.isolated_throughput > 0.0);
        }
        // The aggregation suffers from the scan.
        assert!(out[0].normalized < 0.9);
    }

    #[test]
    fn policy_mask_choice_confines_the_scan() {
        // Longer windows: the partitioning effect needs steady state in a
        // 55 MiB LLC, which the 1M-cycle warm-up of the other tests does
        // not reach.
        let e = Experiment {
            warm_cycles: 6_000_000,
            measure_cycles: 10_000_000,
            ..Default::default()
        };
        let specs = vec![
            QuerySpec::new("q2", MaskChoice::Policy, |s| {
                paper::q2_aggregation(s, paper::DICT_4MIB, 100_000)
            }),
            QuerySpec::new("q1", MaskChoice::Policy, paper::q1_scan),
        ];
        let part = e.run_concurrent_normalized(&specs);
        let specs_base = vec![
            QuerySpec::new("q2", MaskChoice::Full, |s| {
                paper::q2_aggregation(s, paper::DICT_4MIB, 100_000)
            }),
            QuerySpec::new("q1", MaskChoice::Full, paper::q1_scan),
        ];
        let base = e.run_concurrent_normalized(&specs_base);
        assert!(
            part[0].normalized > base[0].normalized + 0.05,
            "partitioning must lift the aggregation: {} vs {}",
            part[0].normalized,
            base[0].normalized
        );
    }
}
