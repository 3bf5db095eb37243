//! Model-checks the lifecycle of the only resctrl groups the system
//! creates: the per-mask `ccp-<mask hex>` groups of the process's one
//! resctrl tree — minted lazily by whichever worker binds a mask first,
//! retired by the repartition that stops naming their mask — over a
//! CLOSID pool that holds exactly one plan.
//!
//! The server brackets a run with two sweeps that nothing overlaps — the
//! start-up sweep runs before the listener exists, the shutdown sweep
//! after admission has drained — so they are the model's prologue and
//! epilogue. What is concurrent in between, every tree operation one
//! atomic step as under the tree's mutex:
//!
//! * two OLAP workers running two queries each over three masks; a query
//!   is two steps, as in `JobExecutor`: read the live table (and decide
//!   whether the fast path skips the bind), then bind;
//! * the adaptive controller going plan A → B → A, each change a
//!   `prepare` (retire what the plan does not name, then create what it
//!   does) followed by the publish that bumps the table's generation;
//! * the plane's supervise step (the only place a tripped breaker is
//!   observed, healed through a probe that replays the last schemata
//!   write or borrows a scratch CLOSID), and a fault that trips the
//!   breaker at any point.
//!
//! Under *every* interleaving:
//!
//! * no CLOSID is ever freed twice or owned by two groups, alive groups
//!   never exceed the pool, and the tree's index, the kernel's task lists
//!   and the probe's replay target name groups that exist;
//! * a successful `prepare` leaves exactly the plan's groups;
//! * no worker whose fast path would skip the bind is missing from the
//!   group it believes it is in — except between a `prepare` and its
//!   publish, the one-job window in which a retired group's tasks run
//!   under the root class;
//! * a bind that finds no CLOSID fails cleanly — it is counted, it leaves
//!   nothing half-made, and the query still runs;
//! * while the start-up sweep worked, a probe can always heal: what a
//!   retire took from it, it no longer replays;
//! * after the shutdown sweep no `ccp-` group is alive and every CLOSID
//!   is free, whatever the breaker says.
//!
//! Two seeded mutations show the harness bites: a publish that does not
//! bump the generation, and a retire that leaves the probe's replay
//! target behind.

use ccp_verify::{explore, Access, Actor, Mode};
use std::time::Instant;

/// CLOSIDs beyond the root's: one plan's worth, as on a 4-CLOSID part.
const POOL: usize = 3;

type Group = &'static str;

/// A mask plan as the groups of its masks: polluting, mixed, sensitive.
type Plan = [Group; 3];

/// The static plan. Its sensitive mask is the full mask: what a worker
/// binds while partitioning is off.
const PLAN_A: Plan = ["ccp-3", "ccp-fff", FULL];
const FULL: Group = "ccp-fffff";

/// The adaptive plan: the polluters keep their mask, the other two move.
const PLAN_B: Plan = ["ccp-3", "ccp-c0000", "ccp-f0000"];

/// An adaptive plan that makes no group: the sensitive class shrinks onto
/// the mask the mixed class already has, so going there only retires.
const PLAN_SHRUNK: Plan = ["ccp-3", "ccp-fff", "ccp-fff"];

/// A dead predecessor's group for the static mixed mask: gone when the
/// start-up sweep works, adopted by whoever needs that mask first when
/// it failed.
const ORPHAN: Group = "ccp-fff";

/// A defect seeded into the model to show the harness catches it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    None,
    /// `LiveMasks::publish` without the generation bump.
    NoGenerationBump,
    /// `SupervisedController::remove_group` without clearing `last_write`.
    KeepLastWrite,
}

#[derive(Clone, Debug)]
struct Tree {
    mutation: Mutation,
    /// Whether the start-up sweep ran: with an orphan holding a CLOSID
    /// nobody indexes, a plan may not fit and a probe may find no CLOSID.
    swept_at_startup: bool,
    /// CLOSID pool: `true` = allocated.
    closids: [bool; POOL],
    /// The kernel's view: (group name, CLOSID it owns).
    groups: Vec<(Group, usize)>,
    /// The tree's index: groups it created or adopted and has not removed.
    cached: Vec<Group>,
    /// The kernel's task lists: the group each worker is in (`None`: the
    /// root class).
    listed: [Option<Group>; 2],
    /// The supervisor's `last_write`: the group a probe replays into.
    last_write: Option<Group>,
    /// The live mask table and its generation.
    live: Plan,
    generation: u64,
    /// A `prepare` has run and its publish has not landed yet.
    publish_pending: bool,
    /// What the controller publishes next (the fallback after a failed
    /// apply).
    next_publish: Plan,
    /// Each worker's fast-path memory: (group of the mask last bound,
    /// generation it was bound under).
    carried: [Option<(Group, u64)>; 2],
    /// What a worker's look decided to bind; `None`: the fast path hit.
    looked: [Option<(Group, u64)>; 2],
    /// The resctrl breaker.
    degraded: bool,
    /// What the executor runs in; the supervise step is its only writer.
    partitioning: bool,
    /// Binds that found no CLOSID.
    bind_failures: usize,
    /// Queries executed per worker.
    ran: [usize; 2],
    /// First broken promise observed inside a step, if any.
    violation: Option<String>,
}

impl Tree {
    fn exists(&self, group: Group) -> bool {
        self.groups.iter().any(|(g, _)| *g == group)
    }

    fn alloc(&mut self) -> Option<usize> {
        let free = self.closids.iter().position(|&used| !used)?;
        self.closids[free] = true;
        Some(free)
    }

    fn release(&mut self, closid: usize, group: &str) {
        if !self.closids[closid] {
            self.violation
                .get_or_insert_with(|| format!("CLOSID {closid} freed twice (last by {group})"));
            return;
        }
        self.closids[closid] = false;
    }

    /// `CacheController::remove_group` through the supervisor: the CLOSID
    /// returns to the pool, the group's tasks fall to the root, and the
    /// probe forgets it.
    fn remove(&mut self, group: Group) {
        let at = self.groups.iter().position(|(g, _)| *g == group);
        let (_, closid) = self
            .groups
            .remove(at.expect("removing a group that exists"));
        self.release(closid, group);
        for listed in &mut self.listed {
            if *listed == Some(group) {
                *listed = None;
            }
        }
        if self.last_write == Some(group) && self.mutation != Mutation::KeepLastWrite {
            self.last_write = None;
        }
    }

    /// `Sweeper::sweep`: every `ccp-` group goes.
    fn sweep(&mut self) {
        for (group, _) in self.groups.clone() {
            self.remove(group);
        }
        self.cached.clear();
    }

    /// `SupervisedController::mask_group`: the indexed group, else the adopted or
    /// newly created one with its schemata written. `false`: no CLOSID.
    fn ensure(&mut self, group: Group) -> bool {
        if self.cached.contains(&group) {
            return true;
        }
        if !self.exists(group) {
            let Some(closid) = self.alloc() else {
                return false;
            };
            self.groups.push((group, closid));
        }
        self.last_write = Some(group);
        self.cached.push(group);
        true
    }

    /// First step of a query, as the worker loop does it outside any
    /// lock: read the generation, then the mask, and skip the bind when
    /// the worker carries exactly that pair.
    fn look(&mut self, worker: usize, class: usize) {
        let want = if self.partitioning {
            self.live[class]
        } else {
            FULL
        };
        let seen = (want, self.generation);
        self.looked[worker] = (self.carried[worker] != Some(seen)).then_some(seen);
    }

    /// Second step: `SupervisedController::bind` when the look asked for one — a
    /// counted failure when the mask needs a group and the pool is spent
    /// — and the query runs either way.
    fn bind_and_run(&mut self, worker: usize) {
        if let Some((want, generation)) = self.looked[worker].take() {
            if self.ensure(want) {
                self.listed[worker] = Some(want);
                self.carried[worker] = Some((want, generation));
            } else {
                self.bind_failures += 1;
            }
        }
        self.ran[worker] += 1;
    }

    /// `SupervisedController::prepare`: retire what `plan` does not name, then
    /// make what it does. `false`: a group could not be created.
    fn prepare(&mut self, plan: Plan) -> bool {
        self.publish_pending = true;
        for group in self.cached.clone() {
            if !plan.contains(&group) {
                self.remove(group);
                self.cached.retain(|g| *g != group);
            }
        }
        if !plan.iter().all(|group| self.ensure(group)) {
            return false;
        }
        let strays = self.cached.iter().filter(|g| !plan.contains(g)).count();
        if strays > 0 || plan.iter().any(|group| !self.cached.contains(group)) {
            self.violation.get_or_insert_with(|| {
                format!("prepare({plan:?}) left the tree holding {:?}", self.cached)
            });
        }
        true
    }

    /// The control step's repartition: the plan is published when its
    /// prepare succeeded, the prepared fallback when it did not.
    fn apply(&mut self, plan: Plan) {
        self.next_publish = plan;
        if !self.prepare(plan) {
            self.prepare(PLAN_A);
            self.next_publish = PLAN_A;
        }
    }

    /// `LiveMasks::publish`.
    fn publish(&mut self) {
        self.live = self.next_publish;
        if self.mutation != Mutation::NoGenerationBump {
            self.generation += 1;
        }
        self.publish_pending = false;
    }

    /// The plane's supervise step: a tripped breaker turns partitioning
    /// off; a probe that lands a real write heals both in the same pass.
    fn supervise(&mut self, heal: bool) {
        if !self.degraded {
            return;
        }
        self.partitioning = false;
        if !heal {
            return;
        }
        if self.probe() {
            self.degraded = false;
            self.partitioning = true;
        } else if self.swept_at_startup {
            self.violation.get_or_insert_with(|| {
                format!("probe cannot heal: replays into {:?}", self.last_write)
            });
        }
    }

    /// `SupervisedController::probe`: rewrites the last schemata write
    /// when there is one to replay, else borrows a CLOSID for `ccp-probe`.
    fn probe(&mut self) -> bool {
        if let Some(group) = self.last_write {
            return self.exists(group);
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
        if let Some(broken) = &self.violation {
            return Err(broken.clone());
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
        if let Some(stale) = self.cached.iter().find(|g| !self.exists(g)) {
            return Err(format!("the tree indexes {stale}, which does not exist"));
        }
        if let Some(gone) = self.listed.iter().flatten().find(|g| !self.exists(g)) {
            return Err(format!(
                "a worker is listed in {gone}, which does not exist"
            ));
        }
        if let Some(gone) = self.last_write.filter(|g| !self.exists(g)) {
            return Err(format!(
                "a probe would replay into {gone}, which does not exist"
            ));
        }
        // What the fast path relies on: a worker whose memory is current
        // would skip the bind, so it had better be in that group.
        for (worker, carried) in self.carried.iter().enumerate() {
            let Some((group, generation)) = *carried else {
                continue;
            };
            let current = generation == self.generation && !self.publish_pending;
            if current && self.listed[worker] != Some(group) {
                return Err(format!(
                    "worker {worker} would skip its bind into {group}, which does not list it"
                ));
            }
        }
        Ok(())
    }
}

/// Builds the model. Prologue: the orphan holds a CLOSID and the
/// start-up sweep runs (or fails, leaving it). Then worker `a` runs two
/// sensitive queries — the class whose group a repartition retires and
/// the revert re-creates — and worker `b` a polluting and a mixed one,
/// beside the controller's A → `adaptive` → A, two supervise passes and a
/// breaker trip.
fn build(
    mutation: Mutation,
    adaptive: Plan,
    startup_sweep_ok: bool,
    trip: bool,
    heal: bool,
) -> impl Fn() -> (Tree, Vec<Actor<Tree>>) {
    move || {
        let mut state = Tree {
            mutation,
            swept_at_startup: startup_sweep_ok,
            closids: [false; POOL],
            groups: Vec::new(),
            cached: Vec::new(),
            listed: [None; 2],
            last_write: None,
            live: PLAN_A,
            generation: 0,
            publish_pending: false,
            next_publish: PLAN_A,
            carried: [None; 2],
            looked: [None; 2],
            degraded: false,
            partitioning: true,
            bind_failures: 0,
            ran: [0; 2],
            violation: None,
        };
        let stale = state.alloc().expect("empty pool at boot");
        state.groups.push((ORPHAN, stale));
        if startup_sweep_ok {
            state.sweep();
        }

        let query = |actor: Actor<Tree>, worker: usize, class: usize| {
            actor
                .then_accessing(
                    move |s: &mut Tree| s.look(worker, class),
                    &[Access::Read("partitioning"), Access::Read("live")],
                )
                .then_accessing(
                    move |s: &mut Tree| s.bind_and_run(worker),
                    &[Access::Write("tree")],
                )
        };
        let a = query(query(Actor::new("worker-a"), 0, 2), 0, 2);
        let b = query(query(Actor::new("worker-b"), 1, 0), 1, 1);

        let mut control = Actor::new("control");
        for plan in [adaptive, PLAN_A] {
            control = control
                .then_accessing(move |s: &mut Tree| s.apply(plan), &[Access::Write("tree")])
                .then_accessing(Tree::publish, &[Access::Write("live")]);
        }

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

        (state, vec![a, b, control, plane, fault])
    }
}

/// Epilogue: every query ran whatever its bind did, the static plan is
/// back in force, and the shutdown sweep — which no breaker state stands
/// down — leaves the tree as a fresh boot would find it.
fn check_final(s: &mut Tree) -> Result<(), String> {
    s.check_ledger()?;
    if s.ran != [2, 2] {
        return Err(format!("queries ran {:?}, want [2, 2]", s.ran));
    }
    if s.live != PLAN_A {
        return Err(format!("{:?} in force after the revert", s.live));
    }
    // Nothing binds after the drain, so the workers' notion of their
    // group is allowed to go stale here.
    s.sweep();
    if let Some(broken) = &s.violation {
        return Err(format!("shutdown sweep: {broken}"));
    }
    if !s.groups.is_empty() || s.closids.contains(&true) {
        return Err(format!(
            "shutdown sweep left {:?}, CLOSIDs {:?}",
            s.groups, s.closids
        ));
    }
    Ok(())
}

fn explore_model(
    mutation: Mutation,
    adaptive: Plan,
    startup_sweep_ok: bool,
    trip: bool,
    heal: bool,
) -> Result<ccp_verify::Report, ccp_verify::Violation> {
    explore(
        Mode::Dpor {
            max_schedules: 2_000_000,
        },
        build(mutation, adaptive, startup_sweep_ok, trip, heal),
        Tree::check_ledger,
        check_final,
    )
}

fn explore_case(startup_sweep_ok: bool, trip: bool, heal: bool) -> ccp_verify::Report {
    let report = explore_model(Mutation::None, PLAN_B, startup_sweep_ok, trip, heal)
        .unwrap_or_else(|v| panic!("sweep_ok={startup_sweep_ok} trip={trip} heal={heal}: {v}"));
    assert!(report.exhausted, "interleaving space not fully covered");
    report
}

#[test]
fn a_pool_of_one_plan_carries_a_repartition_and_its_revert() {
    let start = Instant::now();
    let report = explore_case(true, false, false);
    // 4 + 4 worker steps, 4 control steps, 2 plane steps, 1 fault step:
    // the multinomial space is 47 297 250; DPOR must buy a real reduction.
    assert!(
        report.interleavings > 1_000_000,
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

#[test]
fn a_publish_without_the_generation_bump_is_caught() {
    let violation = explore_model(Mutation::NoGenerationBump, PLAN_B, true, false, false)
        .expect_err("a worker keeps skipping the bind into a re-created group");
    assert!(
        violation.message.contains("would skip its bind into"),
        "{violation}"
    );
}

#[test]
fn a_repartition_that_only_retires_leaves_the_probe_a_way_to_heal() {
    let start = Instant::now();
    let report = explore_model(Mutation::None, PLAN_SHRUNK, true, true, true)
        .unwrap_or_else(|v| panic!("{v}"));
    assert!(report.exhausted, "interleaving space not fully covered");
    ccp_verify::emit_stats("group_lifecycle/retire", "dpor", &report, start.elapsed());
}

#[test]
fn a_retire_that_keeps_the_probes_replay_target_is_caught() {
    let violation = explore_model(Mutation::KeepLastWrite, PLAN_SHRUNK, true, true, true)
        .expect_err("the probe replays into a directory that is gone");
    assert!(violation.message.contains("probe"), "{violation}");
}
