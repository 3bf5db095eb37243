//! Hysteresis unit suite: dwell windows, the change-magnitude
//! threshold, and the stale-reading/degraded clamps.

use ccp_cachesim::WayMask;
use ccp_control::{
    polluter_isolated, Class, ClassReading, ControlConfig, Controller, Decision, HoldReason,
    MaskPlan, RevertReason, TickInput,
};

const LLC: u64 = 55 * 1024 * 1024;
const WAYS: u32 = 20;

fn paper_static_plan() -> MaskPlan {
    MaskPlan::new(
        WayMask::new(0x3).unwrap(),
        WayMask::new(0xfff).unwrap(),
        WayMask::new(0xfffff).unwrap(),
    )
}

fn controller() -> Controller {
    Controller::new(ControlConfig::paper_default(WAYS, LLC), paper_static_plan())
}

/// Readings where the sensitive working set has shrunk to ~12 % of the
/// LLC — the canonical "repartition downward" signal.
fn shrink_readings(tick: u64) -> Vec<ClassReading> {
    let frac = |f: f64| (f * LLC as f64) as u64;
    vec![
        ClassReading {
            class: Class::Polluting,
            occupancy_bytes: frac(0.08),
            mbm_total_bytes: frac(0.08) * tick,
        },
        ClassReading {
            class: Class::Mixed,
            occupancy_bytes: 0,
            mbm_total_bytes: 0,
        },
        ClassReading {
            class: Class::Sensitive,
            occupancy_bytes: frac(0.12),
            mbm_total_bytes: frac(0.12) * tick,
        },
    ]
}

fn tick(c: &mut Controller, seq: u64, readings: &[ClassReading], degraded: bool) -> Decision {
    c.tick(&TickInput {
        seq,
        readings,
        degraded,
    })
}

/// Repartitions among `decisions`.
fn repartitions(decisions: &[Decision]) -> usize {
    decisions
        .iter()
        .filter(|d| matches!(d, Decision::Repartition(_)))
        .count()
}

/// Reverts among `decisions`.
fn reverts(decisions: &[Decision]) -> usize {
    decisions
        .iter()
        .filter(|d| matches!(d, Decision::Revert { .. }))
        .count()
}

/// Ticks with fresh shrink readings until the first repartition; returns
/// the last tick's sequence number.
fn drive_to_first_repartition(c: &mut Controller) -> u64 {
    let mut t = 1;
    loop {
        let r = shrink_readings(t);
        if matches!(tick(c, t, &r, false), Decision::Repartition(_)) {
            return t;
        }
        t += 1;
        assert!(t < 20, "never repartitioned");
    }
}

#[test]
fn warmup_dwell_holds_before_the_first_decision() {
    let mut c = controller();
    for t in 1..=3 {
        let r = shrink_readings(t);
        assert_eq!(
            tick(&mut c, t, &r, false),
            Decision::Hold(HoldReason::Dwell),
            "tick {t} should still be in warm-up dwell"
        );
    }
    let r = shrink_readings(4);
    let d = tick(&mut c, 4, &r, false);
    let Decision::Repartition(plan) = d else {
        panic!("expected a repartition after warm-up, got {d:?}");
    };
    assert!(
        plan.get(Class::Sensitive).way_count() < 20,
        "sensitive should shrink"
    );
    assert!(polluter_isolated(&plan));
}

#[test]
fn post_repartition_dwell_holds_even_under_big_signal_changes() {
    let mut c = controller();
    let decisions: Vec<Decision> = (1..=4)
        .map(|t| tick(&mut c, t, &shrink_readings(t), false))
        .collect();
    assert_eq!(repartitions(&decisions), 1);
    // A violent signal swing right after the repartition: starve the
    // sensitive class completely. The dwell window must hold it.
    let starved: Vec<ClassReading> = shrink_readings(5)
        .into_iter()
        .map(|mut r| {
            if r.class == Class::Sensitive {
                r.occupancy_bytes = LLC;
            }
            r
        })
        .collect();
    for t in 5..=7 {
        assert_eq!(
            tick(&mut c, t, &starved, false),
            Decision::Hold(HoldReason::Dwell),
            "tick {t} inside the post-repartition dwell window"
        );
    }
    // Once the window expires the starved signal goes through.
    assert!(matches!(
        tick(&mut c, 8, &starved, false),
        Decision::Repartition(_)
    ));
}

#[test]
fn sub_threshold_deltas_are_held() {
    let mut c = controller();
    // Drive to a steady adaptive plan.
    let mut t = drive_to_first_repartition(&mut c);
    let plan = *c.current_plan();
    // Burn the dwell window, then keep feeding the same signal: the
    // re-derived plan equals the current one (delta 0 < threshold 2).
    let mut decisions = Vec::new();
    for _ in 0..10 {
        t += 1;
        let r = shrink_readings(t);
        let d = tick(&mut c, t, &r, false);
        assert!(
            matches!(
                d,
                Decision::Hold(HoldReason::Dwell) | Decision::Hold(HoldReason::BelowThreshold)
            ),
            "steady signal must not move the plan, got {d:?}"
        );
        decisions.push(d);
    }
    assert_eq!(*c.current_plan(), plan);
    assert_eq!(repartitions(&decisions), 0, "no thrashing");
}

#[test]
fn stale_readings_clamp_to_the_static_plan() {
    let mut c = controller();
    let t = drive_to_first_repartition(&mut c);
    assert_ne!(*c.current_plan(), paper_static_plan());
    // The sequence stops advancing: after stale_after_ticks the
    // controller must revert to static and report itself clamped.
    let frozen = shrink_readings(t);
    let mut reverted = false;
    let mut decisions = Vec::new();
    for _ in 0..ControlConfig::paper_default(WAYS, LLC).stale_after_ticks + 1 {
        let d = tick(&mut c, t, &frozen, false);
        decisions.push(d);
        match d {
            Decision::Revert {
                reason: RevertReason::StaleReadings,
                plan,
            } => {
                assert_eq!(plan, paper_static_plan());
                reverted = true;
                break;
            }
            Decision::Hold(_) => {}
            d => panic!("unexpected decision while going stale: {d:?}"),
        }
    }
    assert!(reverted, "controller never clamped on stale readings");
    assert!(c.is_clamped());
    assert_eq!(*c.current_plan(), paper_static_plan());
    // Still stale: holds in place, no repeated reverts.
    assert_eq!(
        tick(&mut c, t, &frozen, false),
        Decision::Hold(HoldReason::Clamped)
    );
    assert_eq!(reverts(&decisions), 1);
}

#[test]
fn degraded_health_clamps_immediately_and_recovers() {
    let mut c = controller();
    let mut t = drive_to_first_repartition(&mut c);
    t += 1;
    let r = shrink_readings(t);
    let degraded = tick(&mut c, t, &r, true);
    assert!(matches!(
        degraded,
        Decision::Revert {
            reason: RevertReason::Degraded,
            ..
        }
    ));
    assert!(c.is_clamped());
    // Health restored: after the revert's dwell window the controller
    // re-derives the adaptive plan.
    let mut decisions = vec![degraded];
    for _ in 0..10 {
        t += 1;
        let r = shrink_readings(t);
        let d = tick(&mut c, t, &r, false);
        decisions.push(d);
        if matches!(d, Decision::Repartition(_)) {
            break;
        }
    }
    assert_eq!(
        repartitions(&decisions),
        1,
        "controller never resumed after recovery"
    );
    assert_eq!(reverts(&decisions), 1);
    assert!(!c.is_clamped());
}

#[test]
fn no_data_holds_without_reverting() {
    let mut c = controller();
    for _ in 0..5 {
        assert_eq!(
            tick(&mut c, 0, &[], false),
            Decision::Hold(HoldReason::NoData)
        );
    }
    assert_eq!(*c.current_plan(), paper_static_plan());
}

#[test]
fn apply_failure_reverts_and_redwells() {
    let mut c = controller();
    let mut t = drive_to_first_repartition(&mut c);
    // The server failed to write the new schemata mid-repartition.
    let fallback = c.note_apply_failed();
    assert_eq!(fallback, paper_static_plan());
    assert_eq!(*c.current_plan(), paper_static_plan());
    assert_eq!(c.last_decision(), "revert-apply");
    // Dwell restarts: the immediate next ticks hold.
    t += 1;
    let r = shrink_readings(t);
    assert_eq!(
        tick(&mut c, t, &r, false),
        Decision::Hold(HoldReason::Dwell)
    );
}
