//! Cross-crate integration: the resctrl stack end-to-end against the fake
//! kernel tree — controller, allocator, executor, and the paper's exact
//! Section V-C configuration.

use cache_partitioning::prelude::*;
use ccp_engine::ops::scan;
use ccp_resctrl::fs::{FakeFs, ResctrlFs};
use ccp_storage::{gen, DictColumn};
use std::path::Path;
use std::sync::Arc;

fn fake_stack() -> (FakeFs, JobExecutor) {
    let fs = FakeFs::broadwell();
    let ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl")
        .expect("fake tree mounts");
    let allocator = Arc::new(ResctrlAllocator::new(ctl, vec![0]));
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let ex = JobExecutor::new(
        2,
        PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
        allocator,
    );
    (fs, ex)
}

#[test]
fn scan_jobs_land_in_the_polluter_group() {
    let (fs, ex) = fake_stack();
    let col = Arc::new(DictColumn::build(&gen::uniform_ints(50_000, 1_000, 1)));
    let count = scan::column_scan(&ex, &col, 500);
    assert!(count > 0);

    // The executor created the 0x3 group and programmed its schemata.
    let schemata = fs
        .read(Path::new("/sys/fs/resctrl/ccp-3/schemata"))
        .expect("polluter group exists");
    assert_eq!(schemata, "L3:0=3\n");
    // Both worker threads were bound (two distinct tids).
    let tasks = fs.tasks_of(Path::new("/sys/fs/resctrl/ccp-3"));
    assert!(!tasks.is_empty() && tasks.len() <= 2, "tasks: {tasks:?}");
}

#[test]
fn alternating_jobs_reuse_groups_not_closids() {
    let (fs, ex) = fake_stack();
    let col = Arc::new(DictColumn::build(&gen::uniform_ints(20_000, 1_000, 2)));
    // Many scans: masks flip between polluter and (after toggling) full.
    for round in 0..4 {
        ex.set_partitioning(round % 2 == 0);
        scan::column_scan(&ex, &col, 500);
    }
    // Only two groups ever exist (one per distinct mask), no matter how
    // many times jobs alternated — CLOS ids are a scarce resource (16).
    assert_eq!(fs.group_count(), 2, "exactly one group per distinct mask");
}

#[test]
fn paper_section5c_masks_via_detect_fallback() {
    // On this host detect() almost certainly reports no CAT; the engine
    // must still run (paper: partitioning is an optimization, not a gate).
    let (allocator, _cat_live) = host_allocator();
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let ex = JobExecutor::new(
        2,
        PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes),
        allocator,
    );
    let col = Arc::new(DictColumn::build(&gen::uniform_ints(10_000, 100, 3)));
    assert_eq!(scan::column_scan(&ex, &col, 0), 10_000);
    assert_eq!(ex.metrics().bind_failures(), 0);
}
