//! Unit-level failpoint tests for the supervised controller and the
//! orphan sweeper.
//!
//! Fault plans are process-global, and nearly every unit test in the
//! crate passes through `resctrl.write_schemata` or `reconcile.sweep`:
//! a plan armed inside the unit-test binary gets consumed by (and
//! fails) whichever neighbour hits the site first. So
//! every test that arms a plan lives here, in a process of its own, and
//! takes turns ([`ccp_fault::exclusive`]).

use ccp_cachesim::WayMask;
use ccp_resctrl::fs::FakeFs;
use ccp_resctrl::{CacheController, RetryPolicy, SupervisedController, Sweeper};
use std::time::Duration;

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_micros(200),
        jitter_seed: 7,
    }
}

fn supervised(policy: RetryPolicy) -> SupervisedController {
    let fs = FakeFs::broadwell();
    let ctl = CacheController::open_with(Box::new(fs), "/sys/fs/resctrl").unwrap();
    SupervisedController::new(ctl, policy, 3)
}

#[test]
fn transient_failure_is_retried_to_success() {
    let _turn = ccp_fault::exclusive();
    let mut sup = supervised(fast_policy());
    let g = sup.create_group("g").unwrap();
    // First two writes fail, third (last allowed attempt) succeeds.
    ccp_fault::install_str("resctrl.write_schemata=err@1+2").unwrap();
    sup.set_l3_mask(&g, 0, WayMask::new(0x3).unwrap()).unwrap();
    assert_eq!(sup.health().retries(), 2);
    assert_eq!(sup.health().failures(), 0);
    assert!(!sup.is_degraded());
}

#[test]
fn breaker_trips_after_consecutive_exhausted_ops_and_probe_heals() {
    let _turn = ccp_fault::exclusive();
    let mut sup = supervised(fast_policy());
    let g = sup.create_group("g").unwrap();
    let mask = WayMask::new(0x3).unwrap();
    sup.set_l3_mask(&g, 0, mask).unwrap();

    // 3 ops × 3 attempts: all nine writes fail → breaker trips on
    // the third exhausted operation.
    ccp_fault::install_str("resctrl.write_schemata=err@1+9").unwrap();
    for mask in [0x7, 0xf, 0x1f] {
        let other = WayMask::new(mask).unwrap();
        assert!(sup.set_l3_mask(&g, 0, other).is_err());
    }
    assert!(sup.is_degraded(), "breaker must be tripped");
    assert_eq!(sup.health().trips(), 1);

    // Faults exhausted: the next probe performs a real write and heals.
    assert!(sup.probe());
    assert!(!sup.is_degraded());
    assert_eq!(sup.health().restores(), 1);
    assert!(sup.health().reprobes() >= 1);
}

#[test]
fn probe_fails_while_fault_active() {
    let _turn = ccp_fault::exclusive();
    let mut sup = supervised(RetryPolicy {
        max_attempts: 1,
        ..fast_policy()
    });
    let g = sup.create_group("g").unwrap();
    sup.set_l3_mask(&g, 0, WayMask::new(0x3).unwrap()).unwrap();
    for _ in 0..3 {
        sup.record_failure();
    }
    assert!(sup.is_degraded());
    ccp_fault::install_str("resctrl.write_schemata=err").unwrap();
    assert!(!sup.probe(), "probe must not heal while writes still fail");
    ccp_fault::clear();
    assert!(sup.is_degraded());
    assert!(sup.probe());
    assert!(!sup.is_degraded());
}

#[test]
fn sweep_failpoint_skips_one_pass_then_orphans_are_removed() {
    let _turn = ccp_fault::exclusive();
    let fs = FakeFs::broadwell();
    let mut ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
    ctl.create_group("ccp-fff").unwrap();
    let mut sweeper =
        Sweeper::new(SupervisedController::new(ctl, fast_policy(), 3).shared(vec![0]));
    ccp_fault::install_str("reconcile.sweep=err@1").unwrap();
    assert!(sweeper.sweep().is_err());
    assert_eq!(fs.group_count(), 1, "orphan survives the failed sweep");
    assert_eq!(sweeper.stats().sweeps.get(), 0, "the tree was never listed");
    assert_eq!(sweeper.shutdown_sweep(), (1, 0));
    assert_eq!(fs.group_count(), 0);
}
