//! Cache-aware co-run scheduling — the extension the paper's conclusion
//! sketches:
//!
//! > "it might be advisable to co-run operators with high cache pollution
//! > characteristics (cache usage identifiers (i) and (iii), according to
//! > our taxonomy), but let cache-sensitive queries (identifiers (ii) and
//! > (iii)) rather run alone."
//!
//! The scheduler packs a queue of queries into *waves* of at most
//! `slots` concurrent queries such that **at most one cache-sensitive
//! query runs per wave** — polluters (which partitioning confines to a
//! small LLC slice anyway) fill the remaining slots. Within a wave the
//! ordinary [`crate::partition::PartitionPolicy`] masks apply.

use crate::job::CacheUsageClass;
use crate::metrics::SchedulerMetrics;
use crate::partition::PartitionPolicy;
use ccp_resctrl::Class;

/// Whether a query behaves as cache-sensitive under `policy` — class (ii),
/// or class (iii) in its cache-sensitive regime.
pub fn is_cache_sensitive(policy: &PartitionPolicy, cuid: CacheUsageClass) -> bool {
    policy.regime(cuid) != Class::Polluting
}

/// Admission decision for one candidate against the currently running set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Start the query now.
    RunNow,
    /// Hold it until the current wave drains.
    Defer,
}

/// A greedy cache-aware wave scheduler.
#[derive(Debug, Clone, Copy)]
pub struct CacheAwareScheduler {
    policy: PartitionPolicy,
    /// Maximum queries per wave.
    pub slots: usize,
}

impl CacheAwareScheduler {
    /// Creates a scheduler packing up to `slots` queries per wave.
    ///
    /// # Panics
    /// Panics when `slots` is zero.
    pub fn new(policy: PartitionPolicy, slots: usize) -> Self {
        assert!(slots > 0, "a wave needs at least one slot");
        CacheAwareScheduler { policy, slots }
    }

    /// Decides whether `candidate` may join the queries in `running`.
    ///
    /// Rules: never exceed `slots`; never co-run two cache-sensitive
    /// queries (they would fight over the LLC capacity partitioning
    /// reserves for them).
    pub fn admit(&self, running: &[CacheUsageClass], candidate: CacheUsageClass) -> Admission {
        if running.len() >= self.slots {
            return Admission::Defer;
        }
        let sensitive_running = running.iter().any(|&c| is_cache_sensitive(&self.policy, c));
        if sensitive_running && is_cache_sensitive(&self.policy, candidate) {
            return Admission::Defer;
        }
        Admission::RunNow
    }

    /// Packs a queue of CUIDs into waves (greedy, stable): each wave holds
    /// at most one cache-sensitive query plus polluters up to `slots`.
    /// Returns indices into `queue`.
    pub fn plan_waves(&self, queue: &[CacheUsageClass]) -> Vec<Vec<usize>> {
        let mut waves: Vec<(Vec<usize>, Vec<CacheUsageClass>)> = Vec::new();
        for (i, &cuid) in queue.iter().enumerate() {
            let mut placed = false;
            for (ids, cuids) in &mut waves {
                if self.admit(cuids, cuid) == Admission::RunNow {
                    ids.push(i);
                    cuids.push(cuid);
                    placed = true;
                    break;
                }
            }
            if !placed {
                waves.push((vec![i], vec![cuid]));
            }
        }
        waves.into_iter().map(|(ids, _)| ids).collect()
    }

    /// [`admit`](Self::admit), recording the decision in `metrics`
    /// (admissions vs. deferrals).
    pub fn admit_observed(
        &self,
        running: &[CacheUsageClass],
        candidate: CacheUsageClass,
        metrics: &SchedulerMetrics,
    ) -> Admission {
        let decision = self.admit(running, candidate);
        metrics.record_admission(decision);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cachesim::HierarchyConfig;

    fn sched(slots: usize) -> CacheAwareScheduler {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        CacheAwareScheduler::new(
            PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
            slots,
        )
    }

    const AGG: CacheUsageClass = CacheUsageClass::Sensitive;
    const SCAN: CacheUsageClass = CacheUsageClass::Polluting;
    /// A join in its cache-sensitive regime (12.5 MB bit vector).
    const JOIN_BIG: CacheUsageClass = CacheUsageClass::Mixed {
        hot_bytes: 12_500_000,
    };
    /// A join acting as a polluter (125 KB bit vector).
    const JOIN_SMALL: CacheUsageClass = CacheUsageClass::Mixed { hot_bytes: 125_000 };

    #[test]
    fn sensitivity_classification_follows_policy() {
        let s = sched(2);
        assert!(is_cache_sensitive(&s.policy, AGG));
        assert!(!is_cache_sensitive(&s.policy, SCAN));
        assert!(is_cache_sensitive(&s.policy, JOIN_BIG));
        assert!(!is_cache_sensitive(&s.policy, JOIN_SMALL));
    }

    #[test]
    fn two_sensitive_queries_never_corun() {
        let s = sched(4);
        assert_eq!(s.admit(&[AGG], AGG), Admission::Defer);
        assert_eq!(s.admit(&[AGG], JOIN_BIG), Admission::Defer);
        assert_eq!(s.admit(&[JOIN_BIG], AGG), Admission::Defer);
    }

    #[test]
    fn polluters_fill_remaining_slots() {
        let s = sched(3);
        assert_eq!(s.admit(&[AGG], SCAN), Admission::RunNow);
        assert_eq!(s.admit(&[AGG, SCAN], JOIN_SMALL), Admission::RunNow);
        assert_eq!(s.admit(&[AGG, SCAN, JOIN_SMALL], SCAN), Admission::Defer); // full
    }

    #[test]
    fn polluters_corun_freely() {
        let s = sched(4);
        assert_eq!(s.admit(&[SCAN, SCAN, JOIN_SMALL], SCAN), Admission::RunNow);
    }

    #[test]
    fn plan_spreads_sensitive_queries_across_waves() {
        let s = sched(2);
        // Queue: agg, agg, scan, scan — FIFO pairing would co-run the two
        // aggregations; the planner pairs each with a scan instead.
        let waves = s.plan_waves(&[AGG, AGG, SCAN, SCAN]);
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0], vec![0, 2]);
        assert_eq!(waves[1], vec![1, 3]);
    }

    #[test]
    fn plan_handles_all_sensitive_queue() {
        let s = sched(2);
        // Only sensitive queries: each runs alone, as the paper suggests.
        let waves = s.plan_waves(&[AGG, JOIN_BIG, AGG]);
        assert_eq!(waves.len(), 3);
        for w in waves {
            assert_eq!(w.len(), 1);
        }
    }

    #[test]
    fn plan_packs_all_polluters_densely() {
        let s = sched(3);
        let waves = s.plan_waves(&[SCAN; 7]);
        assert_eq!(waves.len(), 3); // 3 + 3 + 1
        assert_eq!(waves[0].len(), 3);
        assert_eq!(waves[2].len(), 1);
    }

    #[test]
    fn every_query_scheduled_exactly_once() {
        let s = sched(2);
        let queue = [AGG, SCAN, JOIN_BIG, JOIN_SMALL, SCAN, AGG, SCAN];
        let waves = s.plan_waves(&queue);
        let mut seen: Vec<usize> = waves.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..queue.len()).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = sched(0);
    }

    #[test]
    fn empty_queue_plans_no_waves() {
        let s = sched(4);
        assert!(s.plan_waves(&[]).is_empty());
    }

    #[test]
    fn single_slot_serializes_everything() {
        let s = sched(1);
        let queue = [SCAN, AGG, SCAN, JOIN_SMALL];
        let waves = s.plan_waves(&queue);
        assert_eq!(waves.len(), queue.len());
        assert!(waves.iter().all(|w| w.len() == 1));
        // Stable: original queue order preserved.
        let flat: Vec<usize> = waves.into_iter().flatten().collect();
        assert_eq!(flat, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mixed_cuids_straddle_the_llc_comparable_threshold() {
        let s = sched(2);
        // JOIN_BIG is sensitive (12.5 MB dominates the shared LLC slice),
        // JOIN_SMALL is not — so two big joins must not co-run while two
        // small ones pack into one wave.
        let big = s.plan_waves(&[JOIN_BIG, JOIN_BIG]);
        assert_eq!(big.len(), 2);
        let small = s.plan_waves(&[JOIN_SMALL, JOIN_SMALL]);
        assert_eq!(small, vec![vec![0, 1]]);
        // And a big join pairs with a small one (one sensitive per wave).
        let pair = s.plan_waves(&[JOIN_BIG, JOIN_SMALL]);
        assert_eq!(pair, vec![vec![0, 1]]);
    }

    #[test]
    fn observed_admissions_record_into_metrics() {
        use crate::metrics::SchedulerMetrics;
        let s = sched(2);
        let m = SchedulerMetrics::new();
        assert_eq!(s.admit_observed(&[AGG], AGG, &m), Admission::Defer);
        assert_eq!(s.admit_observed(&[AGG], SCAN, &m), Admission::RunNow);
        assert_eq!(m.deferrals(), 1);
    }
}
