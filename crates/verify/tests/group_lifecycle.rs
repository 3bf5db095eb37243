//! Model-checks the lifecycle of the only resctrl groups the system
//! creates: the allocator's per-mask `ccp-<mask hex>` groups, minted
//! lazily by whichever worker binds a mask first, over a CLOSID pool
//! small enough to run out.
//!
//! The server brackets a run with two sweeps that nothing overlaps — the
//! start-up sweep runs before the listener exists, the shutdown sweep
//! after admission has drained — so they are the model's prologue and
//! epilogue. What is concurrent in between: two OLAP workers binding
//! three distinct masks (each bind is one atomic step, as under the
//! allocator's mutex), the plane's supervise step (the only place a
//! tripped breaker is observed, healed through a probe that may need a
//! scratch CLOSID of its own), and a fault that trips the breaker at any
//! point. The pool has two CLOSIDs and boots with a dead predecessor's
//! group holding one. Under *every* interleaving:
//!
//! * no CLOSID is ever freed twice or owned by two groups, and the
//!   allocator's handle cache and every worker's current group name
//!   groups that exist;
//! * a bind that loses the race for the last CLOSID fails cleanly — it
//!   is counted, it leaves nothing half-made, and the query still runs;
//! * the pool is used: with partitioning on, three masks over two
//!   CLOSIDs lose exactly one bind — also when the start-up sweep failed,
//!   because the orphan it left is adopted rather than duplicated;
//! * after the shutdown sweep no `ccp-` group is alive and every CLOSID
//!   is free, whatever the breaker says.

use ccp_verify::{explore, Access, Actor, Mode};
use std::time::Instant;

/// CLOSIDs beyond the root's.
const POOL: usize = 2;

/// The full mask's group: what a worker binds while partitioning is off.
const FULL: &str = "ccp-fffff";

/// A dead predecessor's group for the mixed mask: gone when the start-up
/// sweep works, adopted by this run's first mixed bind when it failed.
const ORPHAN: &str = "ccp-fff";

#[derive(Clone, Debug)]
struct Tree {
    /// CLOSID pool: `true` = allocated.
    closids: [bool; POOL],
    /// The kernel's view: (group name, CLOSID it owns).
    groups: Vec<(&'static str, usize)>,
    /// The allocator's handle cache: groups it created or adopted.
    cached: Vec<&'static str>,
    /// The group each worker last bound itself into.
    current: [Option<&'static str>; 2],
    /// The resctrl breaker.
    degraded: bool,
    /// What the executor runs in; the supervise step is its only writer.
    partitioning: bool,
    /// Binds that found no CLOSID.
    bind_failures: usize,
    /// Queries executed per worker.
    ran: [usize; 2],
    /// First double free observed, if any (the invariant killer).
    double_free: Option<String>,
}

impl Tree {
    fn alloc(&mut self) -> Option<usize> {
        let free = self.closids.iter().position(|&used| !used)?;
        self.closids[free] = true;
        Some(free)
    }

    fn release(&mut self, closid: usize, group: &str) {
        if !self.closids[closid] {
            self.double_free
                .get_or_insert_with(|| format!("CLOSID {closid} freed twice (last by {group})"));
            return;
        }
        self.closids[closid] = false;
    }

    /// `Sweeper::sweep`: every `ccp-` group goes, its CLOSID returns to
    /// the pool and its tasks fall back to the root.
    fn sweep(&mut self) {
        for (name, closid) in std::mem::take(&mut self.groups) {
            self.release(closid, name);
        }
    }

    /// A worker's bind ahead of a job, as `JobExecutor` and
    /// `ResctrlAllocator::bind` do it: the full mask while partitioning
    /// is off, nothing when the worker already carries the mask, the
    /// cached or adopted group when there is one, a new group when the
    /// pool has a CLOSID — and a counted failure when it has not.
    fn bind(&mut self, worker: usize, mask_group: &'static str) {
        let want = if self.partitioning { mask_group } else { FULL };
        if self.current[worker] == Some(want) {
            return;
        }
        if !self.cached.contains(&want) {
            if !self.groups.iter().any(|(g, _)| *g == want) {
                let Some(closid) = self.alloc() else {
                    self.bind_failures += 1;
                    return;
                };
                self.groups.push((want, closid));
            }
            self.cached.push(want);
        }
        self.current[worker] = Some(want);
    }

    /// The plane's supervise step: a tripped breaker turns partitioning
    /// off; a probe that lands a real write heals both in the same pass.
    fn supervise(&mut self, heal: bool) {
        if !self.degraded {
            return;
        }
        self.partitioning = false;
        if heal && self.probe() {
            self.degraded = false;
            self.partitioning = true;
        }
    }

    /// `SupervisedController::probe`: replays the allocator's last mask
    /// write when there was one, else borrows a CLOSID for `ccp-probe`.
    fn probe(&mut self) -> bool {
        if !self.cached.is_empty() {
            return true;
        }
        match self.alloc() {
            Some(closid) => {
                self.release(closid, "ccp-probe");
                true
            }
            None => false,
        }
    }

    /// Structural consistency that must hold at *every* step.
    fn check_ledger(&self) -> Result<(), String> {
        if let Some(df) = &self.double_free {
            return Err(df.clone());
        }
        for (i, (name, closid)) in self.groups.iter().enumerate() {
            if !self.closids[*closid] {
                return Err(format!("{name} owns CLOSID {closid} marked free"));
            }
            if self.groups[i + 1..].iter().any(|(_, c)| c == closid) {
                return Err(format!("CLOSID {closid} aliased by two groups"));
            }
        }
        let used = self.closids.iter().filter(|&&u| u).count();
        if used != self.groups.len() {
            return Err(format!(
                "{used} CLOSIDs allocated for {} groups",
                self.groups.len()
            ));
        }
        let exists = |name: &str| self.groups.iter().any(|(g, _)| *g == name);
        if let Some(stale) = self.cached.iter().find(|g| !exists(g)) {
            return Err(format!("allocator caches {stale}, which does not exist"));
        }
        if let Some(gone) = self.current.iter().flatten().find(|g| !exists(g)) {
            return Err(format!(
                "a worker is bound into {gone}, which does not exist"
            ));
        }
        Ok(())
    }
}

/// Builds the model. Prologue: the orphan holds a CLOSID and the
/// start-up sweep runs (or fails, leaving it). Then worker `a` runs one
/// polluting query, worker `b` a sensitive and a mixed one — three masks
/// for two CLOSIDs — beside two supervise passes and a breaker trip.
fn build(startup_sweep_ok: bool, trip: bool, heal: bool) -> impl Fn() -> (Tree, Vec<Actor<Tree>>) {
    move || {
        let mut state = Tree {
            closids: [false; POOL],
            groups: Vec::new(),
            cached: Vec::new(),
            current: [None; 2],
            degraded: false,
            partitioning: true,
            bind_failures: 0,
            ran: [0; 2],
            double_free: None,
        };
        let stale = state.alloc().expect("empty pool at boot");
        state.groups.push((ORPHAN, stale));
        if startup_sweep_ok {
            state.sweep();
        }

        let query = |actor: Actor<Tree>, worker: usize, mask_group: &'static str| {
            actor
                .then_accessing(
                    move |s: &mut Tree| s.bind(worker, mask_group),
                    &[Access::Read("partitioning"), Access::Write("tree")],
                )
                .then_accessing(
                    move |s: &mut Tree| s.ran[worker] += 1,
                    &[Access::Write(["ran-a", "ran-b"][worker])],
                )
        };
        let a = query(Actor::new("worker-a"), 0, "ccp-3");
        let b = query(query(Actor::new("worker-b"), 1, FULL), 1, ORPHAN);

        let mut plane = Actor::new("plane");
        for _pass in 0..2 {
            plane = plane.then_accessing(
                move |s: &mut Tree| s.supervise(heal),
                &[
                    Access::Write("breaker"),
                    Access::Write("partitioning"),
                    Access::Write("tree"),
                ],
            );
        }

        let fault = Actor::new("fault").then_accessing(
            move |s: &mut Tree| s.degraded |= trip,
            &[Access::Write("breaker")],
        );

        (state, vec![a, b, plane, fault])
    }
}

/// Epilogue: every query ran whatever its bind did, the pool was used,
/// and the shutdown sweep — which no breaker state stands down — leaves
/// the tree as a fresh boot would find it.
fn check_final(s: &mut Tree, diverted: bool) -> Result<(), String> {
    s.check_ledger()?;
    if s.ran != [1, 2] {
        return Err(format!("queries ran {:?}, want [1, 2]", s.ran));
    }
    // Partitioning only ever goes off when a trip is left unhealed.
    // Otherwise three masks want a group each: two CLOSIDs after a clean
    // start-up sweep, or one CLOSID plus the adopted orphan after a
    // failed one — one bind loses either way.
    if !diverted && s.bind_failures != 1 {
        return Err(format!(
            "{} bind(s) failed, want exactly the one the pool cannot hold",
            s.bind_failures
        ));
    }
    // Nothing binds after the drain, so the allocator's cache and the
    // workers' notion of their group are allowed to go stale here.
    s.sweep();
    if let Some(df) = &s.double_free {
        return Err(format!("shutdown sweep: {df}"));
    }
    if !s.groups.is_empty() || s.closids.contains(&true) {
        return Err(format!(
            "shutdown sweep left {:?}, CLOSIDs {:?}",
            s.groups, s.closids
        ));
    }
    Ok(())
}

fn explore_case(startup_sweep_ok: bool, trip: bool, heal: bool) -> ccp_verify::Report {
    let report = explore(
        Mode::Dpor {
            max_schedules: 500_000,
        },
        build(startup_sweep_ok, trip, heal),
        Tree::check_ledger,
        |s| check_final(s, trip && !heal),
    )
    .unwrap_or_else(|v| panic!("sweep_ok={startup_sweep_ok} trip={trip} heal={heal}: {v}"));
    assert!(report.exhausted, "interleaving space not fully covered");
    report
}

#[test]
fn three_masks_share_two_closids_and_the_loser_fails_cleanly() {
    let start = Instant::now();
    let report = explore_case(true, false, false);
    // 2 + 4 worker steps, 2 plane steps, 1 fault step: the multinomial
    // space is 3 780; DPOR must still buy a real reduction.
    assert!(
        report.interleavings > 1_000,
        "space too small to be meaningful: {}",
        report.interleavings
    );
    assert!(
        report.reduction_ratio() >= 2.0,
        "DPOR reduction collapsed: {:.1}x over {} interleavings",
        report.reduction_ratio(),
        report.interleavings
    );
    ccp_verify::emit_stats("group_lifecycle/binds", "dpor", &report, start.elapsed());
}

#[test]
fn breaker_trip_at_any_point_strands_no_query_and_no_group() {
    let start = Instant::now();
    let report = explore_case(true, true, false);
    ccp_verify::emit_stats("group_lifecycle/degraded", "dpor", &report, start.elapsed());
}

#[test]
fn trip_then_heal_keeps_binding_into_mask_groups() {
    let start = Instant::now();
    let report = explore_case(true, true, true);
    ccp_verify::emit_stats("group_lifecycle/heal", "dpor", &report, start.elapsed());
}

#[test]
fn failed_startup_sweep_leaves_the_orphan_to_the_shutdown_sweep() {
    let start = Instant::now();
    let report = explore_case(false, true, true);
    ccp_verify::emit_stats("group_lifecycle/orphan", "dpor", &report, start.elapsed());
}
