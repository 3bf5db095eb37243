//! The live mask table: the executor's view of the *current* CUID→mask
//! mapping, and whether it binds by it at all.
//!
//! The paper's mapping is static — [`PartitionPolicy`] computes the same
//! mask for a class forever. Adaptive control (the `ccp-control` crate)
//! re-derives masks online and publishes them here; workers read the
//! table once per job at bind time, so a repartition is observed on the
//! **next bind**, never mid-query. The table always starts out equal to
//! the static policy mapping, which keeps every static-mode code path
//! byte-for-byte identical to the pre-adaptive behavior.
//!
//! The table is one plan, the partitioning switch and a generation behind
//! one mutex: a publish swaps the whole plan, and a worker reads its
//! job's mask and the generation that goes with it in one lock hold, so
//! no reader ever sees half of a repartition.
//!
//! Every publish bumps the **generation**: a repartition may retire a
//! mask's resctrl group and a later one create it again, and a worker
//! comparing masks alone would then skip the bind into the new group for
//! good. Workers remember `(mask, generation)` and go back to the
//! allocator when either moved; its task cache, purged with the group,
//! decides whether the kernel hears of it.

use crate::job::CacheUsageClass;
use crate::partition::PartitionPolicy;
use ccp_cachesim::WayMask;
use ccp_resctrl::{Class, PerClass};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
struct Table {
    plan: PerClass<WayMask>,
    /// Off: workers bind the full cache whatever the plan says.
    partitioning: bool,
    /// Publishes so far.
    generation: u64,
}

/// Published per-class way masks, replaced whole by the controller and
/// consulted by workers on every bind decision.
#[derive(Debug)]
pub struct LiveMasks {
    table: Mutex<Table>,
}

impl LiveMasks {
    /// A table seeded with the policy's static plan, partitioning on.
    pub(crate) fn from_policy(policy: &PartitionPolicy) -> Self {
        LiveMasks {
            table: Mutex::new(Table {
                plan: policy.static_plan(),
                partitioning: true,
                generation: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current mask for `cuid`: the live entry of the class the
    /// static policy resolves it to, so a mixed working set that is not
    /// LLC-comparable gets the *live* polluting entry. Partitioning off
    /// does not change it.
    pub fn mask_for(&self, cuid: CacheUsageClass, policy: &PartitionPolicy) -> WayMask {
        let class = policy.regime(cuid);
        *self.lock().plan.get(class)
    }

    /// What a worker binds for a job of `class` — its live mask, or
    /// `full` while partitioning is off — and the generation that mask
    /// belongs to.
    pub(crate) fn bind_target(&self, class: Class, full: WayMask) -> (WayMask, u64) {
        let table = self.lock();
        let mask = table.partitioning.then(|| *table.plan.get(class));
        (mask.unwrap_or(full), table.generation)
    }

    /// Replaces the whole plan and bumps the generation.
    pub fn publish(&self, plan: &PerClass<WayMask>) {
        let mut table = self.lock();
        table.plan = *plan;
        table.generation += 1;
    }

    /// The plan in force.
    pub fn snapshot(&self) -> PerClass<WayMask> {
        self.lock().plan
    }

    /// Switches binding by the plan on or off; workers follow on their
    /// next job.
    pub(crate) fn set_partitioning(&self, on: bool) {
        self.lock().partitioning = on;
    }

    /// Whether workers bind by the plan.
    pub(crate) fn partitioning(&self) -> bool {
        self.lock().partitioning
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cachesim::HierarchyConfig;
    use std::sync::{Arc, Barrier};

    fn policy() -> PartitionPolicy {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes)
    }

    fn full() -> WayMask {
        WayMask::full(20).unwrap()
    }

    #[test]
    fn defaults_match_static_policy() {
        let p = policy();
        let live = LiveMasks::from_policy(&p);
        for cuid in [
            CacheUsageClass::Polluting,
            CacheUsageClass::Sensitive,
            CacheUsageClass::Mixed { hot_bytes: 125_000 },
            CacheUsageClass::Mixed {
                hot_bytes: 12_500_000,
            },
        ] {
            assert_eq!(live.mask_for(cuid, &p), p.mask_for(cuid));
            assert_eq!(
                live.bind_target(p.regime(cuid), full()),
                (p.mask_for(cuid), 0)
            );
        }
    }

    #[test]
    fn published_plan_is_observed_and_reset_reverts() {
        let p = policy();
        let live = LiveMasks::from_policy(&p);
        let pol = WayMask::new(0x3).unwrap();
        let mix = WayMask::range(18, 2).unwrap();
        let sen = WayMask::range(16, 4).unwrap();
        live.publish(&PerClass::new(pol, mix, sen));
        assert_eq!(
            live.mask_for(CacheUsageClass::Sensitive, &p).bits(),
            0xf0000
        );
        assert_eq!(
            live.mask_for(
                CacheUsageClass::Mixed {
                    hot_bytes: 12_500_000
                },
                &p
            )
            .bits(),
            0xc0000
        );
        // Non-LLC-comparable mixed working sets still pollute.
        assert_eq!(
            live.mask_for(CacheUsageClass::Mixed { hot_bytes: 125_000 }, &p)
                .bits(),
            0x3
        );
        assert_eq!(live.snapshot(), PerClass::new(pol, mix, sen));
        assert_eq!(live.bind_target(Class::Sensitive, full()).1, 1);
        live.publish(&p.static_plan());
        assert_eq!(
            live.bind_target(Class::Sensitive, full()),
            (p.mask_for(CacheUsageClass::Sensitive), 2),
            "every publish counts, also a revert"
        );
    }

    #[test]
    fn switching_partitioning_off_binds_full_but_keeps_the_plan() {
        let p = policy();
        let live = LiveMasks::from_policy(&p);
        live.set_partitioning(false);
        assert!(!live.partitioning());
        let target = live.bind_target(Class::Polluting, full());
        assert_eq!(target, (full(), 0), "a switch is not a publish");
        assert_eq!(live.mask_for(CacheUsageClass::Polluting, &p).bits(), 0x3);
        live.set_partitioning(true);
        let target = live.bind_target(Class::Polluting, full());
        assert_eq!(target.0.bits(), 0x3);
    }

    /// One writer alternates two plans that differ in every class while
    /// two readers take snapshots and worker-style `(mask, generation)`
    /// reads: a snapshot is always one whole plan, a mask always belongs
    /// to the generation read with it, and generations never go back.
    #[test]
    fn concurrent_readers_never_see_a_torn_plan() {
        const PUBLISHES: u64 = 20_000;
        let p = policy();
        let a = p.static_plan();
        let b = PerClass::new(
            WayMask::new(0xc).unwrap(),
            WayMask::new(0xff0).unwrap(),
            WayMask::new(0xff000).unwrap(),
        );
        assert!(a.iter().all(|(class, mask)| b.get(class) != mask));
        let live = Arc::new(LiveMasks::from_policy(&p));
        let start = Arc::new(Barrier::new(3));
        let readers: Vec<_> = [CacheUsageClass::Polluting, CacheUsageClass::Sensitive]
            .into_iter()
            .map(|cuid| {
                let (live, start) = (Arc::clone(&live), Arc::clone(&start));
                std::thread::spawn(move || {
                    let class = p.regime(cuid);
                    start.wait();
                    let mut last = 0;
                    let mut reads = 0u64;
                    // Ends once the last publish is seen: bounded by the
                    // writer's iterations.
                    while last < PUBLISHES {
                        let seen = live.snapshot();
                        assert!(seen == a || seen == b, "torn snapshot {seen:?}");
                        let (mask, generation) = live.bind_target(p.regime(cuid), full());
                        let plan = if generation % 2 == 0 { a } else { b };
                        assert_eq!(mask, *plan.get(class), "generation {generation}");
                        assert!(generation >= last, "{generation} after {last}");
                        last = generation;
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        start.wait();
        for k in 1..=PUBLISHES {
            live.publish(if k % 2 == 0 { &a } else { &b });
        }
        for reader in readers {
            assert!(reader.join().expect("reader panicked") > 0);
        }
    }
}
