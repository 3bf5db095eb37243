//! Model-checks the adaptive controller's mask publication against the
//! degradation breaker and concurrent bind-time readers.
//!
//! The real system publishes a repartition one class entry at a time
//! ([`ccp_engine::LiveMasks`] stores are independent atomics), while a
//! failing bind on any worker may trip resctrl health at any point and
//! workers keep binding jobs throughout. Everything that *reacts* to the
//! breaker — the apply steps and the next tick's clamp check — runs on
//! the server's single control-plane thread and is one actor; the trip
//! and the bind-time reads come from other threads and stay concurrent
//! with it (the actor split the five-thread server needed is the one
//! the one-thread server needs, so the space is unchanged: 280
//! interleavings per case). The invariant under *every* interleaving:
//! no class entry is ever wider than the cache (empty and
//! non-contiguous entries cannot be published: `publish` takes
//! `WayMask`s), and the run always settles on a *complete* plan — the full
//! adaptive plan (with the polluter exclusively confined) or the full
//! static plan — never a torn mixture.

use ccp_cachesim::HierarchyConfig;
use ccp_control::{derive_masks, polluter_isolated, Class, ClassTargets, MaskPlan};
use ccp_engine::{CacheUsageClass, LiveMasks, PartitionPolicy};
use ccp_verify::{explore, Access, Actor, Mode};
use std::sync::Arc;
use std::time::Instant;

const WAYS: u32 = 20;

struct ControlModel {
    policy: PartitionPolicy,
    live: Arc<LiveMasks>,
    adaptive: MaskPlan,
    static_plan: MaskPlan,
    /// Resctrl breaker: set when a worker's bind failure trips health
    /// mid-run.
    degraded: bool,
    /// Controller observed a failure (apply fault or degraded health)
    /// and reverted the whole table to the static plan.
    reverted: bool,
}

impl ControlModel {
    /// Publishes the adaptive plan's entry for `class`, leaving the
    /// other two entries as they are — exactly the per-class store
    /// granularity of `LiveMasks::publish`.
    fn publish_class(&self, class: Class) {
        let mut plan = self.live.snapshot(&self.policy);
        plan.set(class, *self.adaptive.get(class));
        self.live.publish(&plan);
    }

    fn revert(&mut self) {
        self.live.publish(&self.static_plan);
        self.reverted = true;
    }
}

fn paper_policy() -> PartitionPolicy {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes)
}

/// Builds the model: a controller applying a shrink repartition one
/// class per step (failing at step `fail_at`, if any), a failing bind
/// that trips the health breaker at an arbitrary point, and a worker
/// reading bind-time masks throughout.
fn build(
    fail_at: Option<usize>,
    trip_health: bool,
) -> impl Fn() -> (ControlModel, Vec<Actor<ControlModel>>) {
    move || {
        let policy = paper_policy();
        let live = Arc::new(LiveMasks::from_policy(&policy));
        // The canonical "sensitive shrinks" repartition.
        let adaptive = derive_masks(&ClassTargets::new(2, 3, 4), WAYS, 2);
        let state = ControlModel {
            static_plan: policy.static_plan(),
            policy,
            live,
            adaptive,
            degraded: false,
            reverted: false,
        };

        let mut controller = Actor::new("controller");
        for (idx, class) in Class::ALL.into_iter().enumerate() {
            // Each apply reads the breaker and rewrites the whole live
            // table (publish_class re-stores the untouched entries too).
            controller = controller.then_accessing(
                move |s: &mut ControlModel| {
                    if s.reverted {
                        return; // gave up earlier; remaining applies are no-ops
                    }
                    if s.degraded || fail_at == Some(idx) {
                        // Degraded health observed mid-apply, or the
                        // schemata write faulted: abort and revert whole.
                        s.revert();
                        return;
                    }
                    s.publish_class(class);
                },
                &[Access::Read("breaker"), Access::Write("masks")],
            );
        }
        // The next control tick: a clamp check after the applies. This
        // is where a breaker that tripped *after* the last apply gets
        // observed.
        controller = controller.then_accessing(
            |s: &mut ControlModel| {
                if s.degraded && !s.reverted {
                    s.revert();
                }
            },
            &[Access::Read("breaker"), Access::Write("masks")],
        );

        let breaker = Actor::new("breaker").then_accessing(
            move |s: &mut ControlModel| {
                if trip_health {
                    s.degraded = true;
                }
            },
            &[Access::Write("breaker")],
        );

        // A worker binding jobs mid-repartition: every read must be a
        // valid mask no matter where the publishes stand.
        let mut worker = Actor::new("worker");
        for cuid in [
            CacheUsageClass::Sensitive,
            CacheUsageClass::Mixed {
                hot_bytes: 12_500_000,
            },
            CacheUsageClass::Polluting,
        ] {
            worker = worker.then_accessing(
                move |s: &mut ControlModel| {
                    let m = s.live.mask_for(cuid, &s.policy);
                    assert!(m.way_count() >= 1, "bind read an empty mask for {cuid:?}");
                    assert!(m.check_fits(WAYS).is_ok());
                },
                &[Access::Read("masks")],
            );
        }

        (state, vec![controller, breaker, worker])
    }
}

fn check_step(s: &ControlModel) -> Result<(), String> {
    for (class, mask) in s.live.snapshot(&s.policy).iter() {
        mask.check_fits(WAYS)
            .map_err(|e| format!("{class:?} entry {mask} exceeds the cache: {e}"))?;
    }
    Ok(())
}

fn check_final(s: &mut ControlModel) -> Result<(), String> {
    let settled = s.live.snapshot(&s.policy);
    if s.reverted {
        if settled != s.static_plan {
            return Err(format!(
                "reverted run did not settle on the static plan: {settled:?}"
            ));
        }
        return Ok(());
    }
    if settled == s.adaptive {
        if !polluter_isolated(&settled) {
            return Err(format!(
                "adaptive plan leaves the polluter shared: {settled:?}"
            ));
        }
        return Ok(());
    }
    Err(format!(
        "torn final table (neither static nor adaptive): {settled:?}"
    ))
}

fn explore_case(fail_at: Option<usize>, trip_health: bool) -> ccp_verify::Report {
    let report = explore(
        Mode::Exhaustive {
            max_schedules: 100_000,
        },
        build(fail_at, trip_health),
        check_step,
        check_final,
    )
    .unwrap_or_else(|v| panic!("fail_at={fail_at:?} trip_health={trip_health}: {v}"));
    assert!(report.exhausted, "interleaving space not fully covered");
    report
}

#[test]
fn clean_repartitions_never_tear_under_any_interleaving() {
    let start = Instant::now();
    let report = explore_case(None, false);
    ccp_verify::emit_stats(
        "control_masks/clean",
        "exhaustive",
        &report,
        start.elapsed(),
    );
}

#[test]
fn degradation_at_any_point_settles_on_a_complete_plan() {
    explore_case(None, true);
}

#[test]
fn apply_faults_at_every_class_revert_to_static() {
    for fail_at in [0, 1, 2] {
        explore_case(Some(fail_at), false);
    }
}

#[test]
fn faults_and_degradation_together_still_settle_cleanly() {
    for fail_at in [0, 1, 2] {
        explore_case(Some(fail_at), true);
    }
}
