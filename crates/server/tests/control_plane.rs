//! The control plane driven through `ControlPlane::step` with a scripted
//! occupancy probe and no thread: decisions land at exact step counts
//! whatever the wall clock does, only failed probes can make readings
//! stale, the steps of one wake run in the documented order, and a
//! breaker trip puts the static plan in force with partitioning off until
//! the heal.

use ccp_control::ScriptedTrace;
use ccp_engine::alloc::ResctrlAllocator;
use ccp_obs::Registry;
use ccp_resctrl::Class;
use ccp_server::{ControlPlane, ControlView, QueryEngine, ServerConfig, ServerMetrics};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHRINK_SCRIPT: &str = "sensitive:0.95x6,0.12;polluting:0.08;mixed:0.02";
const PERIOD: Duration = Duration::from_millis(10);

struct Rig {
    plane: ControlPlane,
    engine: Arc<QueryEngine>,
}

/// An adaptive + flight + fake-resctrl plane in which every task has the
/// same period, so each `step` one period apart runs all four.
fn rig() -> Rig {
    let config = ServerConfig {
        fake_resctrl: true,
        adaptive: true,
        flight: true,
        monitor_interval: Some(PERIOD),
        reprobe_interval: PERIOD,
        control_interval: PERIOD,
        flight_interval: PERIOD,
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
        Some(Box::new(probe)),
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

/// Steps the plane 14 times, `gap(k)` apart; returns the steps at which
/// a repartition landed and the sensitive class's final way count.
fn repartition_steps(gap: impl Fn(u32) -> Duration) -> (Vec<u32>, u32) {
    let mut rig = rig();
    let mut now = Instant::now();
    let mut landed = Vec::new();
    for k in 1..=14 {
        rig.plane.step(now);
        if control(&rig).repartitions.get() > landed.len() as u64 {
            landed.push(k);
        }
        now += gap(k);
    }
    let live = rig.engine.live_masks().snapshot();
    let sensitive_ways = live.get(Class::Sensitive).way_count();
    (landed, sensitive_ways)
}

#[test]
fn repartitions_land_at_exact_steps_whatever_the_clock_does() {
    // Every plane passes the process-global `resctrl.sampler_probe` site.
    let _turn = ccp_fault::exclusive();
    // The warm-up dwell holds steps 1–3, step 4 shrinks the idle mixed
    // class, the dwell after it holds 5–7 while the scripted sensitive
    // working set collapses (sample 7), and step 8 shrinks sensitive.
    let on_time = repartition_steps(|_| PERIOD);
    assert_eq!(on_time, (vec![4, 8], 4));
    // Wakes that are seconds late, and late by a different amount each
    // time, change nothing: a step only ever sees its own pass's sample.
    let late = repartition_steps(|k| PERIOD * (1 + (k * 37) % 400));
    assert_eq!(late, on_time);
}

#[test]
fn only_a_probe_fault_window_of_the_stale_horizon_clamps() {
    // Every plane passes the process-global `resctrl.sampler_probe` site.
    let _turn = ccp_fault::exclusive();
    // Equal control and monitor periods: stale after max(3 × 1, 4) = 4
    // control steps without a fresh sample.
    for (window, expect_clamp) in [(3, false), (4, true)] {
        ccp_fault::install_str(&format!(
            "{}=err@3+{window}",
            ccp_resctrl::faults::SAMPLER_PROBE
        ))
        .expect("plan");
        let mut rig = rig();
        let mut now = Instant::now();
        let mut clamp_step = None;
        for k in 1..=12 {
            rig.plane.step(now);
            if clamp_step.is_none() && control(&rig).clamped {
                clamp_step = Some(k);
            }
            now += PERIOD;
        }
        // Probes 3..3+window fail, so the 4th stale step is step 6.
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
fn steps_due_in_one_wake_run_in_the_documented_order() {
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

    rig.plane.step(Instant::now());

    // sample → control: the controller's first tick already had data.
    let view = control(&rig);
    assert_eq!((view.clamped, view.last_decision), (false, "hold-dwell"));
    // supervise → control: their events sit in that order, both stamped
    // with the baseline tick because record had not run yet.
    let flight = rig.plane.flight().expect("flight on");
    let timeline = flight.timeline(0, None);
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
    let mut now = Instant::now();
    for _ in 1..=4 {
        rig.plane.step(now);
        now += PERIOD;
    }
    assert_eq!(control(&rig).repartitions.get(), 1, "step 4 repartitions");
    assert_ne!(live.snapshot(), static_plan);
    assert!(partitioning(&rig));

    // Schemata writes start failing and binds exhaust their retries
    // until the breaker opens; the probes fail too.
    ccp_fault::install_str("resctrl.write_schemata=err").expect("plan");
    let tree = rig.engine.allocator().tree().expect("fake resctrl tree");
    while !tree.lock().record_failure() {}
    for _ in 5..=8 {
        rig.plane.step(now);
        now += PERIOD;
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
    rig.plane.step(now);
    assert!(!tree.lock().is_degraded());
    assert!(partitioning(&rig));
    assert_eq!(live.snapshot(), static_plan);
}
