//! The control plane driven pass by pass through `ControlPlane::step`
//! with a scripted occupancy probe and no thread: decisions land at exact
//! pass counts, only failed probes can make readings stale, the steps of
//! one pass run in the documented order, and a breaker trip puts the
//! static plan in force with partitioning off until the heal.

use ccp_control::ScriptedTrace;
use ccp_engine::alloc::ResctrlAllocator;
use ccp_obs::Registry;
use ccp_resctrl::Class;
use ccp_server::{ControlPlane, ControlView, QueryEngine, ServerConfig, ServerMetrics};
use std::sync::Arc;

const SHRINK_SCRIPT: &str = "sensitive:0.95x6,0.12;polluting:0.08;mixed:0.02";

struct Rig {
    plane: ControlPlane,
    engine: Arc<QueryEngine>,
}

/// An adaptive + fake-resctrl plane, so each `step` runs all four
/// steps.
fn rig() -> Rig {
    let config = ServerConfig {
        fake_resctrl: true,
        adaptive: true,
        ..ServerConfig::default()
    };
    let registry = Registry::new();
    let fake = ResctrlAllocator::open_fake(16).expect("fake tree opens");
    let engine = Arc::new(QueryEngine::with_allocator(1, 1, 64, Arc::new(fake), false));
    let probe =
        ScriptedTrace::parse(SHRINK_SCRIPT, engine.policy().llc.size_bytes).expect("script");
    let plane = ControlPlane::new(
        &config,
        Arc::clone(&engine),
        &registry,
        ServerMetrics::new(&registry),
        Box::new(probe),
    );
    Rig { plane, engine }
}

/// The controller as the plane last published it.
fn control(rig: &Rig) -> ControlView {
    let view = rig.plane.view();
    let view = view.lock().expect("view lock");
    view.control
        .clone()
        .expect("adaptive plane publishes control")
}

#[test]
fn repartitions_land_at_exact_passes() {
    // Every plane passes the process-global `resctrl.sampler_probe` site.
    let _turn = ccp_fault::exclusive();
    let mut rig = rig();
    let mut landed = Vec::new();
    for k in 1..=14 {
        rig.plane.step();
        if control(&rig).repartitions.get() > landed.len() as u64 {
            landed.push(k);
        }
    }
    // The warm-up dwell holds passes 1–3, pass 4 shrinks the idle mixed
    // class, the dwell after it holds 5–7 while the scripted sensitive
    // working set collapses (sample 7), and pass 8 shrinks sensitive.
    assert_eq!(landed, [4, 8]);
    let live = rig.engine.live_masks().snapshot();
    assert_eq!(live.get(Class::Sensitive).way_count(), 4);
}

#[test]
fn only_a_probe_fault_window_of_the_stale_horizon_clamps() {
    // Every plane passes the process-global `resctrl.sampler_probe` site.
    let _turn = ccp_fault::exclusive();
    // Stale after 4 passes without a fresh sample.
    for (window, expect_clamp) in [(3, false), (4, true)] {
        ccp_fault::install_str(&format!(
            "{}=err@3+{window}",
            ccp_resctrl::faults::SAMPLER_PROBE
        ))
        .expect("plan");
        let mut rig = rig();
        let mut clamp_step = None;
        for k in 1..=12 {
            rig.plane.step();
            if clamp_step.is_none() && control(&rig).clamped {
                clamp_step = Some(k);
            }
        }
        // Probes 3..3+window fail, so the 4th stale pass is pass 6.
        assert_eq!(
            clamp_step,
            expect_clamp.then_some(6),
            "fault window of {window} probes"
        );
        assert!(
            !control(&rig).clamped,
            "readings came back, the clamp must lift"
        );
    }
}

#[test]
fn the_steps_of_one_pass_run_in_the_documented_order() {
    // Every plane passes the process-global `resctrl.sampler_probe` site.
    let _turn = ccp_fault::exclusive();
    let mut rig = rig();
    // A breaker trip that healed before the first pass: supervise has
    // something to report without the degraded flag changing what
    // control does.
    let tree = rig.engine.allocator().tree().expect("fake resctrl tree");
    let mut supervisor = tree.lock();
    while !supervisor.record_failure() {}
    assert!(supervisor.probe());
    drop(supervisor);

    rig.plane.step();

    // sample → control: the controller's first tick already had data.
    let view = control(&rig);
    assert_eq!((view.clamped, view.last_decision), (false, "hold-dwell"));
    // supervise → control: their events sit in that order, both stamped
    // with the baseline tick because record had not run yet.
    let timeline = rig.plane.flight().timeline(0, None);
    let kinds: Vec<(&str, u64)> = timeline.events.iter().map(|e| (e.kind, e.seq)).collect();
    assert_eq!(kinds, [("breaker_trip", 1), ("hold", 1)]);
    // … → record: the pass's own tick carries what every earlier step of
    // the pass published.
    assert_eq!(timeline.tick, 2);
    let recorded = |name: &str| {
        let (_, points) = timeline
            .series
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("series {name} missing"));
        let &(seq, value) = points.last().expect("series has points");
        assert_eq!(seq, 2, "{name} recorded by this pass");
        value
    };
    assert!(recorded("ccp_llc_occupancy_bytes{class=\"sensitive\"}") > 0.0);
    assert_eq!(recorded("ccp_resctrl_breaker_trips_total"), 1.0);
    assert_eq!(recorded("ccp_control_decisions_total"), 1.0);
}

#[test]
fn a_breaker_trip_after_a_repartition_settles_on_static_with_partitioning_off_until_the_heal() {
    // Every plane passes the process-global `resctrl.sampler_probe` site.
    let _turn = ccp_fault::exclusive();
    let mut rig = rig();
    let static_plan = rig.engine.policy().static_plan();
    let live = rig.engine.live_masks();
    let partitioning = |rig: &Rig| rig.engine.pools().olap().partitioning();
    for _ in 1..=4 {
        rig.plane.step();
    }
    assert_eq!(control(&rig).repartitions.get(), 1, "pass 4 repartitions");
    assert_ne!(live.snapshot(), static_plan);
    assert!(partitioning(&rig));

    // Schemata writes start failing and binds exhaust their retries
    // until the breaker opens; the probes fail too.
    ccp_fault::install_str("resctrl.write_schemata=err").expect("plan");
    let tree = rig.engine.allocator().tree().expect("fake resctrl tree");
    while !tree.lock().record_failure() {}
    for _ in 5..=8 {
        rig.plane.step();
        assert_eq!(live.snapshot(), static_plan, "degraded: the static plan");
        assert!(!partitioning(&rig), "degraded: partitioning off");
        assert!(control(&rig).clamped);
    }
    assert_eq!(
        control(&rig).reverts.get(),
        1,
        "one revert, then clamped holds"
    );

    // Writes succeed again: the next probe heals, partitioning comes back
    // on the static plan.
    ccp_fault::clear();
    rig.plane.step();
    assert!(!tree.lock().is_degraded());
    assert!(partitioning(&rig));
    assert_eq!(live.snapshot(), static_plan);
}
