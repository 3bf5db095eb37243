//! The controlled scheduler: actors, access-annotated steps, schedules,
//! exhaustive and random exploration, and deterministic replay. The
//! partial-order-reduced explorer lives in `dpor.rs`; this module owns
//! the shared vocabulary (actors, modes, reports, violations) and the
//! brute-force drivers.

use crate::rng::SplitMix64;
use std::collections::VecDeque;

/// One boxed step of an actor (the unit of atomicity under exploration).
type Step<S> = Box<dyn FnMut(&mut S)>;

/// What one step may touch, for the dependency relation the DPOR mode
/// reduces by. Objects are named by `&'static str` labels chosen by the
/// harness; two steps *conflict* when they touch the same object and at
/// least one of the touches is a [`Access::Write`] or [`Access::AcqRel`].
/// Two [`Access::Read`]s of the same object commute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// The step observes the object without mutating it.
    Read(&'static str),
    /// The step mutates the object.
    Write(&'static str),
    /// The step is a read-modify-write (CAS, fetch-add, lock acquire):
    /// conflicts exactly like a write, the name records the intent.
    AcqRel(&'static str),
}

impl Access {
    /// The object label this access touches.
    pub(crate) fn object(&self) -> &'static str {
        match self {
            Access::Read(o) | Access::Write(o) | Access::AcqRel(o) => o,
        }
    }

    /// Whether the access mutates the object (writes and RMWs do).
    pub(crate) fn is_write(&self) -> bool {
        !matches!(self, Access::Read(_))
    }
}

/// The access metadata carried by one step. Steps added with
/// [`Actor::then`] carry [`StepAccess::Conflicting`] — they are assumed
/// to touch everything, which keeps unannotated harnesses sound (DPOR
/// degenerates to brute force) at the cost of zero reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StepAccess {
    /// No annotation: conflicts with every other step.
    Conflicting,
    /// Annotated: conflicts only via overlapping objects.
    Annotated(Vec<Access>),
}

impl StepAccess {
    /// Whether two steps' access sets conflict (are *dependent* when the
    /// steps belong to different actors).
    pub(crate) fn conflicts(&self, other: &StepAccess) -> bool {
        match (self, other) {
            (StepAccess::Conflicting, _) | (_, StepAccess::Conflicting) => true,
            (StepAccess::Annotated(a), StepAccess::Annotated(b)) => a.iter().any(|x| {
                b.iter()
                    .any(|y| x.object() == y.object() && (x.is_write() || y.is_write()))
            }),
        }
    }
}

/// One step plus its access annotation.
pub(crate) struct StepEntry<S> {
    pub(crate) run: Step<S>,
    pub(crate) access: StepAccess,
}

/// The scheduling oracle `run_one` consults at each decision: what to do
/// given the decision depth and the (ascending) runnable actor indices.
enum Choice {
    /// Advance this absolute actor index.
    Pick(usize),
    /// Abort the run as a violation.
    Fail(String),
}

type Decider<'d> = &'d mut dyn FnMut(usize, &[usize]) -> Choice;

/// One logical thread of a concurrent test case: a named, fixed sequence
/// of steps over the shared state `S`. The explorer advances exactly one
/// actor per scheduling decision, so steps are the preemption points —
/// everything inside a single step is atomic with respect to the
/// explored interleavings.
pub struct Actor<S> {
    name: String,
    steps: VecDeque<StepEntry<S>>,
}

impl<S> Actor<S> {
    /// Creates an empty actor. Add steps with [`then`](Actor::then) or
    /// [`then_accessing`](Actor::then_accessing).
    pub fn new(name: impl Into<String>) -> Actor<S> {
        Actor {
            name: name.into(),
            steps: VecDeque::new(),
        }
    }

    /// Appends one unannotated step. Steps run in the order they were
    /// added; actor-local state flows between them through captures or
    /// through `S`. Under [`Mode::Dpor`] an unannotated step is treated
    /// as conflicting with every other step — sound, but it erases the
    /// reduction; prefer [`then_accessing`](Actor::then_accessing) for
    /// harnesses that want DPOR to bite.
    pub fn then(mut self, f: impl FnMut(&mut S) + 'static) -> Actor<S> {
        self.steps.push_back(StepEntry {
            run: Box::new(f),
            access: StepAccess::Conflicting,
        });
        self
    }

    /// Appends one step annotated with the objects it touches. The
    /// annotation is a *claim*: it must cover every piece of shared
    /// state the step reads or writes **including what any invariant
    /// observes through it** — DPOR only explores one order of two
    /// non-conflicting steps, so an under-annotated step can hide a
    /// schedule a violation lives in. When in doubt, use
    /// [`then`](Actor::then) (conflicts with everything).
    pub fn then_accessing(
        mut self,
        f: impl FnMut(&mut S) + 'static,
        accesses: &[Access],
    ) -> Actor<S> {
        self.steps.push_back(StepEntry {
            run: Box::new(f),
            access: StepAccess::Annotated(accesses.to_vec()),
        });
        self
    }

    /// Steps not yet executed.
    pub(crate) fn remaining(&self) -> usize {
        self.steps.len()
    }

    /// The actor's display name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn pop_step(&mut self) -> Option<StepEntry<S>> {
        self.steps.pop_front()
    }

    pub(crate) fn access_sets(&self) -> Vec<StepAccess> {
        self.steps.iter().map(|e| e.access.clone()).collect()
    }
}

/// How the explorer picks schedules.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Depth-first enumeration of every interleaving, up to
    /// `max_schedules` runs. When the full space fits under the bound the
    /// result's [`Report::exhausted`] is `true` and the absence of a
    /// violation is a proof over operation-granularity schedules.
    Exhaustive {
        /// Upper bound on schedules to run before giving up on
        /// exhaustion (the space grows multinomially in actor steps).
        max_schedules: usize,
    },
    /// Seeded pseudo-random schedules — for state spaces too large to
    /// exhaust. Same seed ⇒ same schedules, so failures stay
    /// reproducible.
    Random {
        /// Seed for the schedule stream.
        seed: u64,
        /// Number of schedules to run.
        schedules: usize,
    },
    /// Dynamic partial-order reduction: a stateless backtracking DFS
    /// with sleep sets over the dependency relation induced by step
    /// access annotations. Visits at least one representative schedule
    /// per Mazurkiewicz trace — two schedules that only commute
    /// *independent* (non-conflicting) steps are equivalent, and only
    /// one of each class is executed. With fully unannotated actors
    /// every pair of steps conflicts and this degenerates to
    /// [`Mode::Exhaustive`] (plus bookkeeping); with honest annotations
    /// the reduction is typically multiplicative per independent actor
    /// pair. See [`Report::reduction_ratio`].
    Dpor {
        /// Upper bound on runs (complete, sleep-set-blocked and pruned)
        /// before giving up on exhaustion.
        max_schedules: usize,
    },
}

/// Successful exploration summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Runs actually executed (in [`Mode::Dpor`] this includes
    /// sleep-set-blocked partial runs).
    pub schedules: usize,
    /// Whether the whole interleaving space was covered (exhaustive or
    /// DPOR mode under the bound only).
    pub exhausted: bool,
    /// Runs that reached quiescence and passed the final check — in
    /// DPOR mode, the number of Mazurkiewicz-trace representatives
    /// executed.
    pub traces_explored: usize,
    /// Interleavings the mode proved it did not need to run:
    /// `interleavings − schedules` when the exploration exhausted the
    /// space, `0` otherwise (a truncated run proves nothing).
    pub schedules_pruned: u64,
    /// The full interleaving count of the harness, computed analytically
    /// as the multinomial over actor step counts (every actor with
    /// remaining steps is always runnable). Saturates at `u64::MAX`.
    pub interleavings: u64,
}

impl Report {
    /// How much smaller the executed run count is than the full
    /// interleaving space: `interleavings / schedules`. `1.0` for a
    /// plain exhaustive pass; meaningful only when
    /// [`exhausted`](Report::exhausted) — a truncated exploration
    /// reports `1.0` rather than claim a reduction it did not prove.
    pub fn reduction_ratio(&self) -> f64 {
        if !self.exhausted || self.schedules == 0 {
            return 1.0;
        }
        self.interleavings as f64 / self.schedules as f64
    }
}

/// A failed run: the exact schedule (actor index per step) that produced
/// it, replayable with [`replay`].
#[derive(Debug, Clone)]
pub struct Violation {
    /// Actor index chosen at each scheduling decision, in order.
    pub schedule: Vec<usize>,
    /// What went wrong, prefixed with where (step or final check).
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [schedule: {:?}]", self.message, self.schedule)
    }
}

/// The multinomial `(Σ nᵢ)! / Π nᵢ!` over actor step counts — the exact
/// interleaving count when enabledness is "has steps left", which is the
/// explorer's model. Saturates at `u64::MAX`.
pub(crate) fn interleaving_count(step_counts: &[usize]) -> u64 {
    let mut total: u128 = 1;
    let mut placed: u128 = 0;
    for &n in step_counts {
        for k in 1..=n as u128 {
            placed += 1;
            // Exact at every iteration: total carries C(placed, k) for
            // the current group times the previous groups' product.
            total = total * placed / k;
            if total > u64::MAX as u128 {
                return u64::MAX;
            }
        }
    }
    total as u64
}

/// Shared formatting so every mode reports identical violation shapes.
pub(crate) fn step_violation_message(at: usize, name: &str, why: &str) -> String {
    format!("invariant broken after step {at} ({name}): {why}")
}

pub(crate) fn final_violation_message(why: &str) -> String {
    format!("final check failed: {why}")
}

pub(crate) fn nondeterminism_message(depth: usize, was: &[usize], now: &[usize]) -> String {
    format!(
        "non-deterministic harness: depth {depth} had runnable set {was:?}, now {now:?} — \
         actor step counts or enabledness must depend only on the schedule"
    )
}

/// Runs one schedule. `decide` receives the decision depth, the
/// (ascending) indices of runnable actors and a read-only view of the
/// state; it picks the actor to advance, stops the run early (pruning),
/// or aborts it as a violation. Returns the executed schedule and
/// whether the run reached quiescence (ran the final check).
fn run_one<S>(
    build: &impl Fn() -> (S, Vec<Actor<S>>),
    check_step: &impl Fn(&S) -> Result<(), String>,
    check_final: &impl Fn(&mut S) -> Result<(), String>,
    decide: Decider<'_>,
) -> Result<(), Violation> {
    let (mut state, mut actors) = build();
    let mut schedule: Vec<usize> = Vec::new();
    loop {
        let runnable: Vec<usize> = actors
            .iter()
            .enumerate()
            .filter(|(_, a)| a.remaining() > 0)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            break;
        }
        let actor = match decide(schedule.len(), &runnable) {
            Choice::Pick(i) => i,
            Choice::Fail(message) => return Err(Violation { schedule, message }),
        };
        schedule.push(actor);
        let Some(mut entry) = actors.get_mut(actor).and_then(Actor::pop_step) else {
            return Err(Violation {
                schedule,
                message: format!("scheduler picked finished actor #{actor}"),
            });
        };
        (entry.run)(&mut state);
        if let Err(why) = check_step(&state) {
            let name = actors[actor].name.clone();
            let at = schedule.len() - 1;
            return Err(Violation {
                schedule,
                message: step_violation_message(at, &name, &why),
            });
        }
    }
    if let Err(why) = check_final(&mut state) {
        return Err(Violation {
            schedule,
            message: final_violation_message(&why),
        });
    }
    Ok(())
}

/// Explores interleavings of `build`'s actors over its shared state.
///
/// Per schedule, `build` constructs a fresh state and fresh actors; the
/// explorer then repeatedly picks a runnable actor (per [`Mode`]) and
/// executes its next step. `check_step` runs after every step,
/// `check_final` once per schedule after all actors finished (it takes
/// `&mut S` so harnesses can run a final drain/collect).
///
/// Returns the first [`Violation`] found — including the schedule that
/// triggers it, for [`replay`] — or a [`Report`] when every explored
/// schedule upheld the invariants.
///
/// Determinism contract: `build` must produce actors whose *step counts
/// and enabledness* depend only on the schedule, not on time, real
/// parallelism, or ambient randomness. The explorer fingerprints the
/// runnable-set *sequence* of every schedule prefix it replays — not
/// just its width — so a harness whose actor membership drifts between
/// rebuilds (a state-dependent enabled/disabled actor, a build that
/// rotates which actor carries a step) is reported as a violation
/// rather than explored as garbage.
///
/// Under [`Mode::Dpor`], `check_step` is only evaluated at the
/// intermediate states of the *representative* schedules DPOR runs. An
/// invariant that only an omniscient observer would notice — one about
/// state no annotated step reads — can therefore be missed on the
/// pruned orders; put the observation *inside* a step (and its access
/// set) or in `check_final`, or keep the harness on
/// [`Mode::Exhaustive`]. See `DESIGN.md` §8.
pub fn explore<S>(
    mode: Mode,
    build: impl Fn() -> (S, Vec<Actor<S>>),
    check_step: impl Fn(&S) -> Result<(), String>,
    check_final: impl Fn(&mut S) -> Result<(), String>,
) -> Result<Report, Violation> {
    explore_inner(mode, &build, &check_step, &check_final)
}

pub(crate) fn explore_inner<S>(
    mode: Mode,
    build: &impl Fn() -> (S, Vec<Actor<S>>),
    check_step: &impl Fn(&S) -> Result<(), String>,
    check_final: &impl Fn(&mut S) -> Result<(), String>,
) -> Result<Report, Violation> {
    let interleavings = {
        let (_, probe) = build();
        interleaving_count(&probe.iter().map(Actor::remaining).collect::<Vec<_>>())
    };
    match mode {
        Mode::Exhaustive { max_schedules } => {
            // DFS over decision prefixes: `path` holds (choice, runnable
            // set) per depth; each iteration replays the prefix and
            // extends it with first-choice decisions, then the odometer
            // advances.
            let mut path: Vec<(usize, Vec<usize>)> = Vec::new();
            let mut schedules = 0usize;
            loop {
                run_one(build, check_step, check_final, &mut |depth, runnable| {
                    if depth >= path.len() {
                        path.push((0, runnable.to_vec()));
                    } else {
                        let (_, ref was) = path[depth];
                        if was != runnable {
                            return Choice::Fail(nondeterminism_message(depth, was, runnable));
                        }
                    }
                    let (choice, _) = path[depth];
                    Choice::Pick(runnable[choice])
                })?;
                schedules += 1;
                // Odometer: advance the deepest decision that still has an
                // unexplored sibling, dropping everything below it.
                while let Some((choice, runnable)) = path.pop() {
                    if choice + 1 < runnable.len() {
                        path.push((choice + 1, runnable));
                        break;
                    }
                }
                let exhausted = path.is_empty();
                if exhausted || schedules >= max_schedules {
                    return Ok(Report {
                        schedules,
                        exhausted,
                        traces_explored: schedules,
                        schedules_pruned: if exhausted {
                            interleavings.saturating_sub(schedules as u64)
                        } else {
                            0
                        },
                        interleavings,
                    });
                }
            }
        }
        Mode::Random { seed, schedules } => {
            for run in 0..schedules {
                // Decorrelate per-run streams: feeding `seed + run` into
                // SplitMix64 is exactly its intended splitting usage.
                let mut rng = SplitMix64::new(seed.wrapping_add(run as u64));
                run_one(build, check_step, check_final, &mut |_, runnable| {
                    Choice::Pick(runnable[rng.below(runnable.len())])
                })?;
            }
            Ok(Report {
                schedules,
                exhausted: false,
                traces_explored: schedules,
                schedules_pruned: 0,
                interleavings,
            })
        }
        Mode::Dpor { max_schedules } => {
            crate::dpor::explore_dpor(max_schedules, interleavings, build, check_step, check_final)
        }
    }
}

/// Re-executes one recorded schedule (from [`Violation::schedule`])
/// against a fresh build. The schedule is mode-agnostic: a violation
/// found under [`Mode::Dpor`] replays through the very same decision
/// path as one found exhaustively, because a schedule *is* the decision
/// path. Decisions beyond the recorded schedule fall back to the first
/// runnable actor — a violating schedule always ends at its violation,
/// so the tail is never reached when reproducing one; a truncated
/// schedule therefore degrades to "replay this prefix, then run
/// first-choice to quiescence" rather than failing.
///
/// Returns the reproduced violation, or `Ok(())` when the schedule now
/// passes (e.g. after a fix). A schedule that does not fit the harness —
/// an actor index the build does not have, or more picks of an actor
/// than it has steps — is reported as a violation naming the actor, not
/// a panic.
pub fn replay<S>(
    schedule: &[usize],
    build: impl Fn() -> (S, Vec<Actor<S>>),
    check_step: impl Fn(&S) -> Result<(), String>,
    check_final: impl Fn(&mut S) -> Result<(), String>,
) -> Result<(), Violation> {
    // Probe the harness shape once so schedule-vs-harness mismatches can
    // name the actor they trip over.
    let (actor_names, actor_count) = {
        let (_, probe) = build();
        (
            probe
                .iter()
                .map(|a| a.name().to_string())
                .collect::<Vec<_>>(),
            probe.len(),
        )
    };
    run_one(&build, &check_step, &check_final, &mut |depth, runnable| {
        let Some(&want) = schedule.get(depth) else {
            return Choice::Pick(runnable[0]);
        };
        if runnable.contains(&want) {
            Choice::Pick(want)
        } else if want >= actor_count {
            Choice::Fail(format!(
                "schedule picks actor #{want} at depth {depth}, but the harness only has \
                 {actor_count} actors ({actor_names:?}) — was it recorded against a larger \
                 actor set?"
            ))
        } else {
            Choice::Fail(format!(
                "schedule picks actor #{want} ({}) at depth {depth}, but it has no steps left",
                actor_names[want]
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-step non-atomic increments: the canonical lost update.
    struct LostUpdate {
        val: u64,
        tmp: [u64; 2],
    }

    fn lost_update_build() -> (LostUpdate, Vec<Actor<LostUpdate>>) {
        let state = LostUpdate {
            val: 0,
            tmp: [0, 0],
        };
        let actors = (0..2)
            .map(|i| {
                Actor::new(format!("inc-{i}"))
                    .then(move |s: &mut LostUpdate| s.tmp[i] = s.val)
                    .then(move |s: &mut LostUpdate| s.val = s.tmp[i] + 1)
            })
            .collect();
        (state, actors)
    }

    fn lost_update_final(s: &mut LostUpdate) -> Result<(), String> {
        if s.val == 2 {
            Ok(())
        } else {
            Err(format!("lost update: val={}", s.val))
        }
    }

    #[test]
    fn exhaustive_finds_the_lost_update() {
        let violation = explore(
            Mode::Exhaustive {
                max_schedules: 1_000,
            },
            lost_update_build,
            |_| Ok(()),
            lost_update_final,
        )
        .expect_err("two-step increments must lose an update somewhere");
        assert!(violation.message.contains("lost update"), "{violation}");
        // The witness must interleave the reads before both writes.
        assert_eq!(violation.schedule.len(), 4, "{violation}");
    }

    #[test]
    fn exhaustive_passes_single_step_increments_and_exhausts() {
        let report = explore(
            Mode::Exhaustive {
                max_schedules: 1_000,
            },
            || {
                let actors = (0..2)
                    .map(|i| {
                        Actor::new(format!("inc-{i}")).then(move |s: &mut LostUpdate| {
                            // One-step RMW: atomic at this granularity.
                            s.tmp[i] = s.val;
                            s.val = s.tmp[i] + 1;
                        })
                    })
                    .collect();
                (
                    LostUpdate {
                        val: 0,
                        tmp: [0, 0],
                    },
                    actors,
                )
            },
            |_| Ok(()),
            lost_update_final,
        )
        .expect("atomic increments never lose updates");
        assert!(report.exhausted);
        assert_eq!(report.schedules, 2, "two actors, one step each: 2 orders");
        assert_eq!(report.traces_explored, 2);
        assert_eq!(report.interleavings, 2);
        assert_eq!(report.schedules_pruned, 0);
    }

    #[test]
    fn violating_schedule_replays_to_the_same_violation() {
        let violation = explore(
            Mode::Exhaustive { max_schedules: 100 },
            lost_update_build,
            |_| Ok(()),
            lost_update_final,
        )
        .expect_err("must fail");
        let replayed = replay(
            &violation.schedule,
            lost_update_build,
            |_| Ok(()),
            lost_update_final,
        )
        .expect_err("replay must reproduce");
        assert_eq!(replayed.message, violation.message);
        assert_eq!(replayed.schedule, violation.schedule);
    }

    #[test]
    fn random_mode_finds_the_lost_update_and_is_deterministic() {
        let a = explore(
            Mode::Random {
                seed: 7,
                schedules: 200,
            },
            lost_update_build,
            |_| Ok(()),
            lost_update_final,
        )
        .expect_err("200 random schedules of a 2/6-failing space must hit one");
        let b = explore(
            Mode::Random {
                seed: 7,
                schedules: 200,
            },
            lost_update_build,
            |_| Ok(()),
            lost_update_final,
        )
        .expect_err("same seed, same outcome");
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn max_schedules_truncation_is_reported() {
        let report = explore(
            Mode::Exhaustive { max_schedules: 3 },
            || {
                let actors = (0..3)
                    .map(|i| {
                        Actor::new(format!("a{i}"))
                            .then(|_: &mut ()| {})
                            .then(|_: &mut ()| {})
                    })
                    .collect();
                ((), actors)
            },
            |_| Ok(()),
            |_| Ok(()),
        )
        .expect("no invariants to break");
        assert_eq!(report.schedules, 3);
        assert!(!report.exhausted, "90-schedule space cut off at 3");
        assert_eq!(report.interleavings, 90);
        assert_eq!(
            report.schedules_pruned, 0,
            "a truncated run proves no pruning"
        );
        assert_eq!(report.reduction_ratio(), 1.0);
    }

    #[test]
    fn step_checks_pinpoint_the_failing_actor() {
        let violation = explore(
            Mode::Exhaustive { max_schedules: 10 },
            || {
                let actors = vec![
                    Actor::new("ok").then(|s: &mut u64| *s += 1),
                    Actor::new("bad").then(|s: &mut u64| *s += 100),
                ];
                (0u64, actors)
            },
            |s| {
                if *s < 100 {
                    Ok(())
                } else {
                    Err("state blew past 100".into())
                }
            },
            |_| Ok(()),
        )
        .expect_err("step check must fire");
        assert!(violation.message.contains("(bad)"), "{violation}");
    }

    #[test]
    fn replay_rejects_schedules_for_finished_actors() {
        let err = replay(
            &[0, 0],
            || {
                let actors = vec![
                    Actor::new("a").then(|s: &mut u64| *s += 1),
                    Actor::new("b").then(|s: &mut u64| *s += 1),
                ];
                (0u64, actors)
            },
            |_| Ok(()),
            |_| Ok(()),
        )
        .expect_err("actor 0 has only one step; depth 1 must reject it");
        assert!(err.message.contains("no steps left"), "{err}");
        assert!(err.message.contains("(a)"), "names the actor: {err}");
    }

    #[test]
    fn interleaving_count_matches_known_multinomials() {
        assert_eq!(interleaving_count(&[]), 1);
        assert_eq!(interleaving_count(&[5]), 1);
        assert_eq!(interleaving_count(&[1, 1]), 2);
        assert_eq!(interleaving_count(&[3, 4]), 35); // C(7,3)
        assert_eq!(interleaving_count(&[2, 2]), 6);
        assert_eq!(interleaving_count(&[12, 1]), 13);
        assert_eq!(interleaving_count(&[3, 3, 3, 1]), 16_800);
        assert_eq!(interleaving_count(&[100, 100]), u64::MAX, "saturates");
    }

    #[test]
    fn access_conflicts_follow_the_read_write_matrix() {
        let r = StepAccess::Annotated(vec![Access::Read("ring")]);
        let w = StepAccess::Annotated(vec![Access::Write("ring")]);
        let rmw = StepAccess::Annotated(vec![Access::AcqRel("ring")]);
        let other = StepAccess::Annotated(vec![Access::Write("queue")]);
        let any = StepAccess::Conflicting;
        assert!(!r.conflicts(&r), "read/read commutes");
        assert!(r.conflicts(&w));
        assert!(w.conflicts(&w));
        assert!(r.conflicts(&rmw), "RMW counts as a write");
        assert!(!w.conflicts(&other), "distinct objects commute");
        assert!(any.conflicts(&r), "unannotated conflicts with everything");
        assert!(any.conflicts(&any));
        let empty = StepAccess::Annotated(vec![]);
        assert!(!empty.conflicts(&w), "an empty access set touches nothing");
    }

    /// Same width, different membership: a zero-step actor that rotates
    /// between builds keeps the runnable-set *width* stable while its
    /// membership drifts — exactly what the width-only detector missed.
    #[test]
    fn runnable_membership_drift_is_reported_as_nondeterminism() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let build = || {
            let flip = BUILDS.fetch_add(1, Ordering::SeqCst) % 2 == 1;
            let mut actors = vec![Actor::new("a").then(|_: &mut ()| {})];
            if flip {
                actors.push(Actor::new("b")); // zero steps: never runnable
                actors.push(Actor::new("c").then(|_: &mut ()| {}));
            } else {
                actors.push(Actor::new("b").then(|_: &mut ()| {}));
                actors.push(Actor::new("c")); // zero steps: never runnable
            }
            ((), actors)
        };
        let violation = explore(
            Mode::Exhaustive { max_schedules: 100 },
            build,
            |_| Ok(()),
            |_| Ok(()),
        )
        .expect_err("membership drift at equal width must be caught");
        assert!(
            violation.message.contains("non-deterministic harness"),
            "{violation}"
        );
        assert!(
            violation.message.contains("[0, 1]") && violation.message.contains("[0, 2]"),
            "message shows both runnable sets: {violation}"
        );
    }

    /// Width drift (the old detector's case) still reports, through the
    /// same runnable-set message.
    #[test]
    fn runnable_width_drift_is_still_reported() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let build = || {
            let extra = BUILDS.fetch_add(1, Ordering::SeqCst) % 2;
            let mut a = Actor::new("a").then(|_: &mut ()| {});
            for _ in 0..extra {
                a = a.then(|_: &mut ()| {});
            }
            ((), vec![a, Actor::new("b").then(|_: &mut ()| {})])
        };
        let violation = explore(
            Mode::Exhaustive { max_schedules: 100 },
            build,
            |_| Ok(()),
            |_| Ok(()),
        )
        .expect_err("step-count drift must be caught");
        assert!(
            violation.message.contains("non-deterministic harness"),
            "{violation}"
        );
    }
}
