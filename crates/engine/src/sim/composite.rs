//! Composite simulated queries: a cyclic sequence of operator phases.
//!
//! Real queries are not single operators — a TPC-H query scans, joins and
//! aggregates in sequence. [`CompositeSim`] chains operator twins: each
//! phase runs for its row quota, then execution moves to the next phase;
//! after the last phase the query restarts (the paper's repeat-for-90 s
//! protocol). Work is counted in rows across all phases, which cancels out
//! in the normalized-throughput metric the paper reports.

use super::SimOperator;
use crate::job::CacheUsageClass;
use ccp_cachesim::{MemoryHierarchy, StreamId};

/// A query composed of sequential operator phases.
pub struct CompositeSim {
    name: String,
    cuid: CacheUsageClass,
    /// Each phase's operator twin, with the rows it processes before
    /// execution moves to the next phase.
    phases: Vec<(Box<dyn SimOperator>, u64)>,
    current: usize,
    done_in_phase: u64,
}

impl CompositeSim {
    /// Builds a composite query from `(twin, row quota)` phases, with the
    /// CUID derived for the whole query (a TPC-H query's
    /// [`Plan::class`](crate::Plan::class)).
    ///
    /// # Panics
    /// Panics when `phases` is empty or any quota is zero.
    pub fn new(
        name: impl Into<String>,
        cuid: CacheUsageClass,
        phases: Vec<(Box<dyn SimOperator>, u64)>,
    ) -> Self {
        assert!(
            !phases.is_empty(),
            "a composite query needs at least one phase"
        );
        assert!(
            phases.iter().all(|&(_, quota)| quota > 0),
            "phase quotas must be positive"
        );
        CompositeSim {
            name: name.into(),
            cuid,
            phases,
            current: 0,
            done_in_phase: 0,
        }
    }
}

impl SimOperator for CompositeSim {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn cuid(&self) -> CacheUsageClass {
        self.cuid
    }

    fn parallelism(&self) -> u32 {
        // Per-phase parallelism is applied in `batch`; this is only the
        // initial value before the first batch runs.
        self.phases[self.current].0.parallelism()
    }

    fn batch(&mut self, mem: &mut MemoryHierarchy, stream: StreamId) -> u64 {
        let (op, quota) = &mut self.phases[self.current];
        // Each phase has its own memory-level parallelism (a scan phase
        // overlaps far more than a hash probe phase).
        mem.set_parallelism(stream, op.parallelism());
        let n = op.batch(mem, stream);
        self.done_in_phase += n;
        if self.done_in_phase >= *quota {
            self.done_in_phase = 0;
            self.current = (self.current + 1) % self.phases.len();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{AggregationSim, ColumnScanSim};
    use ccp_cachesim::{AddrSpace, HierarchyConfig};

    fn composite(space: &mut AddrSpace) -> CompositeSim {
        CompositeSim::new(
            "q",
            CacheUsageClass::Polluting,
            vec![
                (Box::new(ColumnScanSim::new(space, 1 << 20, 20)), 1000),
                (
                    Box::new(AggregationSim::new(space, 1 << 20, 1000, 100)),
                    500,
                ),
            ],
        )
    }

    #[test]
    fn phases_advance_in_order() {
        let mut space = AddrSpace::new();
        let mut q = composite(&mut space);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests(), 1);
        assert_eq!(q.phases.iter().map(|&(_, quota)| quota).sum::<u64>(), 1500);
        // Run through at least one full execution.
        let mut total = 0;
        while total < 1500 {
            total += q.batch(&mut mem, 0);
        }
        // After 1500+ rows we must be back at (or past) the scan phase.
        assert!(q.current == 0 || total > 1500);
    }

    #[test]
    fn parallelism_follows_the_active_phase() {
        let mut space = AddrSpace::new();
        let mut q = composite(&mut space);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests(), 1);
        // First batch: scan phase parallelism (96).
        q.batch(&mut mem, 0);
        // Run until the aggregation phase is active and check the stream's
        // effective parallelism switched by observing batch costs.
        let mut total = 0;
        while q.current == 0 {
            total += q.batch(&mut mem, 0);
        }
        let before = mem.clock_centi(0);
        q.batch(&mut mem, 0);
        assert!(
            mem.clock_centi(0) > before,
            "aggregation phase must cost cycles"
        );
        assert!(total >= 1000 - 256);
    }

    #[test]
    fn cuid_is_the_one_it_was_built_with() {
        let mut space = AddrSpace::new();
        assert_eq!(composite(&mut space).cuid(), CacheUsageClass::Polluting);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_composite_rejected() {
        let _ = CompositeSim::new("q", CacheUsageClass::Sensitive, vec![]);
    }
}
