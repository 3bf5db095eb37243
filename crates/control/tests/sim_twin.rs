//! The controller's deterministic simulated twin: the exact loop the
//! server runs, driven by scripted/simulated probes, with an injectable
//! mask applier so the mid-repartition failure path runs in CI too.

use ccp_cachesim::WayMask;
use ccp_control::{
    polluter_isolated, Class, ControlConfig, Controller, Decision, MaskPlan, PerClass,
    RevertReason, ScriptedTrace, TickInput,
};
use ccp_resctrl::{OccupancyProbe, SimulatedMonitor};
use std::sync::{Arc, Mutex};

const LLC: u64 = 55 * 1024 * 1024;
const WAYS: u32 = 20;

fn paper_static_plan() -> MaskPlan {
    MaskPlan::new(
        WayMask::new(0x3).unwrap(),
        WayMask::new(0xfff).unwrap(),
        WayMask::new(0xfffff).unwrap(),
    )
}

/// What the server's control thread does each tick, with the effects
/// replaced by an injectable applier: probe → tick → apply.
/// Returns the label of each tick's decision.
fn drive(
    controller: &mut Controller,
    probe: &mut dyn OccupancyProbe,
    seq0: u64,
    ticks: u64,
    mut apply: impl FnMut(&MaskPlan) -> Result<(), ()>,
) -> Vec<&'static str> {
    let mut log = Vec::new();
    for seq in seq0..seq0 + ticks {
        let readings = probe.sample();
        let decision = controller.tick(&TickInput {
            seq,
            readings: &readings,
            degraded: false,
        });
        if let Decision::Repartition(plan) = decision {
            if apply(&plan).is_err() {
                let fallback = controller.note_apply_failed();
                assert_eq!(fallback, *controller.static_plan());
            }
        }
        log.push(controller.last_decision());
    }
    log
}

/// Ticks of `log` labelled `label`.
fn count(log: &[&str], label: &str) -> usize {
    log.iter().filter(|&&l| l == label).count()
}

#[test]
fn scripted_shrink_trace_repartitions_downward() {
    // The adaptive-smoke scenario: sensitive fills 95 % of the LLC for
    // 6 ticks, then its working set collapses to 12 %.
    let mut probe =
        ScriptedTrace::parse("sensitive:0.95x6,0.12;polluting:0.08;mixed:0.02", LLC).unwrap();
    let mut c = Controller::new(ControlConfig::paper_default(WAYS, LLC), paper_static_plan());
    let applied = Arc::new(Mutex::new(Vec::new()));
    let applied2 = Arc::clone(&applied);
    let log = drive(&mut c, &mut probe, 1, 20, move |plan| {
        applied2.lock().unwrap().push(*plan);
        Ok(())
    });
    let repartitions = count(&log, "repartition");
    assert!(repartitions >= 1, "never repartitioned: {log:?}");
    assert!(
        repartitions <= 4,
        "thrashing ({repartitions} repartitions): {log:?}"
    );
    assert_eq!(applied.lock().unwrap().len(), repartitions);
    assert!(!log.iter().any(|l| l.starts_with("revert")), "{log:?}");
    assert_eq!(log.len(), 20);
    // The final plan reflects the shrunken working set: the sensitive
    // class holds far fewer than its static 20 ways, and confinement
    // is structural.
    let last = *applied.lock().unwrap().last().unwrap();
    assert!(
        last.get(Class::Sensitive).way_count() <= 6,
        "sensitive still holds {} ways",
        last.get(Class::Sensitive).way_count()
    );
    assert!(polluter_isolated(&last));
    assert_eq!(last, *c.current_plan());
}

#[test]
fn apply_failure_mid_repartition_reverts_then_recovers() {
    let mut probe = ScriptedTrace::parse("sensitive:0.12;polluting:0.08;mixed:0.02", LLC).unwrap();
    let mut c = Controller::new(ControlConfig::paper_default(WAYS, LLC), paper_static_plan());
    // First repartition attempt fails (an injected schemata error);
    // later attempts succeed.
    let mut attempts = 0;
    let log = drive(&mut c, &mut probe, 1, 20, |_| {
        attempts += 1;
        if attempts == 1 {
            Err(())
        } else {
            Ok(())
        }
    });
    assert_eq!(count(&log, "revert-apply"), 1, "log: {log:?}");
    let failed = log.iter().position(|&l| l == "revert-apply").unwrap();
    assert!(
        log[failed..].contains(&"repartition"),
        "controller never retried after the failed apply: {log:?}"
    );
    assert!(attempts >= 2);
    // It ends on the adaptive plan, not stuck on static.
    assert_ne!(*c.current_plan(), paper_static_plan());
    assert!(polluter_isolated(c.current_plan()));
}

#[test]
fn simulated_monitor_drives_growth_when_load_arrives() {
    // SimulatedMonitor under live "pressure": sensitive idle at first,
    // then fully loaded — occupancy converges up and the controller,
    // which had shrunk the idle class, grows it back.
    let load = Arc::new(Mutex::new(PerClass::default()));
    let load2 = Arc::clone(&load);
    let mut probe = SimulatedMonitor::new(
        LLC,
        PerClass::new(0.1, 0.6, 1.0),
        Box::new(move || *load2.lock().unwrap()),
    );
    let mut c = Controller::new(ControlConfig::paper_default(WAYS, LLC), paper_static_plan());
    let log1 = drive(&mut c, &mut probe, 1, 15, |_| Ok(()));
    let shrunk = c.current_plan().get(Class::Sensitive).way_count();
    assert!(
        shrunk <= 4,
        "idle sensitive class not shrunk (has {shrunk} ways): {log1:?}"
    );
    // Load arrives: occupancy fills the (small) allocation, the class
    // reads as starved, and the controller grows it step by step.
    load.lock().unwrap().set(Class::Sensitive, 1.0);
    let log2 = drive(&mut c, &mut probe, 16, 40, |_| Ok(()));
    let grown = c.current_plan().get(Class::Sensitive).way_count();
    assert!(
        grown > shrunk,
        "sensitive never grew under load ({shrunk} -> {grown}): {log2:?}"
    );
    assert!(polluter_isolated(c.current_plan()));
}

#[test]
fn degraded_mid_run_reverts_and_resumes_after_recovery() {
    let mut probe = ScriptedTrace::parse("sensitive:0.12;polluting:0.08;mixed:0.02", LLC).unwrap();
    let mut c = Controller::new(ControlConfig::paper_default(WAYS, LLC), paper_static_plan());
    // Reach the adaptive plan.
    drive(&mut c, &mut probe, 1, 10, |_| Ok(()));
    assert_ne!(*c.current_plan(), paper_static_plan());
    // Health trips mid-run (the supervisor's breaker): one degraded
    // tick must be enough to land back on static.
    let readings = probe.sample();
    let d = c.tick(&TickInput {
        seq: 11,
        readings: &readings,
        degraded: true,
    });
    assert!(matches!(
        d,
        Decision::Revert {
            reason: RevertReason::Degraded,
            ..
        }
    ));
    assert_eq!(*c.current_plan(), paper_static_plan());
    assert!(c.is_clamped());
    // Recovery: the loop re-derives the adaptive plan.
    let log = drive(&mut c, &mut probe, 12, 10, |_| Ok(()));
    assert!(
        log.contains(&"repartition"),
        "no repartition after recovery: {log:?}"
    );
    assert!(!c.is_clamped());
}
