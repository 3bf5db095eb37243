//! Dynamic partial-order reduction: the [`Mode::Dpor`] driver.
//!
//! Two schedules that differ only in the order of *independent* steps —
//! steps of different actors whose access sets do not conflict — are
//! equivalent (they form one Mazurkiewicz trace: same intermediate
//! dependency structure, same final state). Brute force runs every
//! member of every trace; this driver runs at least one representative
//! per trace and proves the rest redundant. The machinery is the
//! classic stateless-model-checking combination:
//!
//! * **Backtrack sets** (Flanagan–Godefroid, POPL 2005): a depth-first
//!   search keeps a stack of decision frames; whenever an actor's next
//!   step is *dependent* on an earlier executed step of a different
//!   actor, that earlier frame is told to also try this actor. In this
//!   explorer's model every unfinished actor is enabled at every frame
//!   (enabledness ≡ "has steps left"), which removes the hardest part
//!   of FG — computing a may-enable relation — and makes the classic
//!   algorithm exact: the racing actor can always be scheduled at the
//!   backtrack point directly.
//! * **Sleep sets** (Godefroid): when a frame has fully explored choice
//!   `q` and moves to its sibling, `q` is put to sleep in the sibling's
//!   subtree and stays asleep until some dependent step wakes it.
//!   Without them, two backtrack choices would re-explore each other's
//!   interleavings of independent suffixes.
//!
//! Soundness depends on the access annotations being honest (see
//! [`Actor::then_accessing`]) and on the observer discipline documented
//! on [`crate::explore`]: per-step checks only see the representative
//! schedules' intermediate states.

use crate::explore::{
    final_violation_message, nondeterminism_message, step_violation_message, Actor, Report,
    StepAccess, Violation,
};
use std::collections::BTreeSet;

/// One decision on the DFS stack: the state identity (enabled set +
/// per-actor progress), which actor was run from it, and the DPOR
/// bookkeeping (backtrack/done/sleep sets over actor indices).
struct Frame {
    /// Actor index executed from this frame on the current path.
    chosen: usize,
    /// `chosen`'s step index at this frame (its access metadata key).
    chosen_pc: usize,
    /// Runnable actor indices at this frame, ascending — replayed runs
    /// must reproduce this exactly (determinism contract).
    enabled: Vec<usize>,
    /// Per-actor executed-step counts at this frame.
    pcs: Vec<usize>,
    /// Actors some later race said must also be tried from here.
    backtrack: BTreeSet<usize>,
    /// Choices whose subtrees are fully explored.
    done: BTreeSet<usize>,
    /// Actors whose next step is already covered by an explored sibling
    /// subtree; not scheduled here until a dependent step wakes them.
    sleep: BTreeSet<usize>,
}

/// How one run through the current stack ended (violations return early
/// through `Err`).
enum RunOutcome {
    /// Reached quiescence and passed the final check: one trace
    /// representative.
    Completed,
    /// Every runnable actor was asleep at a fresh depth: the suffix was
    /// already covered elsewhere. Counted as a run, not a trace.
    SleepBlocked,
}

pub(crate) fn explore_dpor<S>(
    max_schedules: usize,
    interleavings: u64,
    build: &impl Fn() -> (S, Vec<Actor<S>>),
    check_step: &impl Fn(&S) -> Result<(), String>,
    check_final: &impl Fn(&mut S) -> Result<(), String>,
) -> Result<Report, Violation> {
    // Access metadata from a probe build; the determinism contract makes
    // it identical for every rebuild, and `run_once` verifies the parts
    // it relies on.
    let meta: Vec<Vec<StepAccess>> = {
        let (_, probe) = build();
        probe.iter().map(Actor::access_sets).collect()
    };
    let mut stack: Vec<Frame> = Vec::new();
    let mut schedules = 0usize;
    let mut traces = 0usize;
    loop {
        // Frames 0..stack.len() replay their recorded `chosen` (the
        // deepest one freshly re-chosen by the last backtrack); depths
        // past the stack pick first-runnable-not-asleep and push frames.
        let replay_len = stack.len();
        let outcome = run_once(
            &mut stack,
            replay_len,
            &meta,
            build,
            check_step,
            check_final,
        )?;
        schedules += 1;
        if matches!(outcome, RunOutcome::Completed) {
            traces += 1;
        }
        if schedules >= max_schedules {
            return Ok(Report {
                schedules,
                exhausted: false,
                traces_explored: traces,
                schedules_pruned: 0,
                interleavings,
            });
        }
        // Backtrack: retire the top frame's current choice, then either
        // switch it to a pending backtrack candidate (and replay) or pop
        // the fully-explored frame and continue below.
        loop {
            let Some(top) = stack.last_mut() else {
                return Ok(Report {
                    schedules,
                    exhausted: true,
                    traces_explored: traces,
                    schedules_pruned: interleavings.saturating_sub(schedules as u64),
                    interleavings,
                });
            };
            top.done.insert(top.chosen);
            let next = top
                .backtrack
                .iter()
                .copied()
                .find(|c| !top.done.contains(c) && !top.sleep.contains(c));
            if let Some(c) = next {
                top.chosen = c;
                top.chosen_pc = top.pcs[c];
                break;
            }
            stack.pop();
        }
    }
}

/// The latest executed frame below `depth` whose step is dependent with
/// `access` and belongs to a different actor than `p` — the FG race
/// partner. `p` is always enabled there (steps-remaining model), so
/// adding `p` to that frame's backtrack set is exact, not heuristic.
fn last_dependent(
    stack: &[Frame],
    depth: usize,
    meta: &[Vec<StepAccess>],
    p: usize,
    access: &StepAccess,
) -> Option<usize> {
    (0..depth).rev().find(|&i| {
        let f = &stack[i];
        f.chosen != p && meta[f.chosen][f.chosen_pc].conflicts(access)
    })
}

fn run_once<S>(
    stack: &mut Vec<Frame>,
    replay_len: usize,
    meta: &[Vec<StepAccess>],
    build: &impl Fn() -> (S, Vec<Actor<S>>),
    check_step: &impl Fn(&S) -> Result<(), String>,
    check_final: &impl Fn(&mut S) -> Result<(), String>,
) -> Result<RunOutcome, Violation> {
    let (mut state, mut actors) = build();
    let mut pcs = vec![0usize; actors.len()];
    let mut schedule: Vec<usize> = Vec::new();
    loop {
        let depth = schedule.len();
        let runnable: Vec<usize> = actors
            .iter()
            .enumerate()
            .filter(|(_, a)| a.remaining() > 0)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if depth < replay_len {
                // The stack remembers decisions past where this rebuild
                // ran out of steps.
                return Err(Violation {
                    schedule,
                    message: nondeterminism_message(depth, &stack[depth].enabled, &runnable),
                });
            }
            return match check_final(&mut state) {
                Ok(()) => Ok(RunOutcome::Completed),
                Err(why) => Err(Violation {
                    schedule,
                    message: final_violation_message(&why),
                }),
            };
        }
        let chosen = if depth < replay_len {
            let frame = &stack[depth];
            if frame.enabled != runnable {
                return Err(Violation {
                    schedule,
                    message: nondeterminism_message(depth, &frame.enabled, &runnable),
                });
            }
            frame.chosen
        } else {
            // Fresh depth. The sleep set comes from the parent: an actor
            // asleep (or already fully explored) there stays asleep here
            // unless the parent's executed step was dependent with its
            // pending step — a dependent step wakes it.
            let sleep: BTreeSet<usize> = if depth == 0 {
                BTreeSet::new()
            } else {
                let parent = &stack[depth - 1];
                let parent_access = &meta[parent.chosen][parent.chosen_pc];
                parent
                    .sleep
                    .iter()
                    .chain(parent.done.iter())
                    .copied()
                    .filter(|&q| {
                        q != parent.chosen
                            && parent.pcs[q] < meta[q].len()
                            && !meta[q][parent.pcs[q]].conflicts(parent_access)
                    })
                    .collect()
            };
            // FG race detection: every runnable actor's pending step is
            // raced against the executed prefix.
            for &p in &runnable {
                let Some(pending) = meta[p].get(pcs[p]) else {
                    return Err(Violation {
                        schedule,
                        message: format!(
                            "non-deterministic harness: actor #{p} has more steps than the \
                             probe build recorded ({})",
                            meta[p].len()
                        ),
                    });
                };
                if let Some(i) = last_dependent(stack, depth, meta, p, pending) {
                    stack[i].backtrack.insert(p);
                }
            }
            let Some(&chosen) = runnable.iter().find(|c| !sleep.contains(c)) else {
                return Ok(RunOutcome::SleepBlocked);
            };
            stack.push(Frame {
                chosen,
                chosen_pc: pcs[chosen],
                enabled: runnable.clone(),
                pcs: pcs.clone(),
                backtrack: BTreeSet::from([chosen]),
                done: BTreeSet::new(),
                sleep,
            });
            chosen
        };
        schedule.push(chosen);
        let Some(mut entry) = actors.get_mut(chosen).and_then(Actor::pop_step) else {
            return Err(Violation {
                schedule,
                message: format!("scheduler picked finished actor #{chosen}"),
            });
        };
        (entry.run)(&mut state);
        pcs[chosen] += 1;
        if let Err(why) = check_step(&state) {
            let at = schedule.len() - 1;
            let name = actors[chosen].name().to_string();
            return Err(Violation {
                schedule,
                message: step_violation_message(at, &name, &why),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::explore::{explore, Access, Actor, Mode, Report};

    /// Fully-conflicting steps (unannotated): DPOR must degenerate to
    /// exhaustive — every interleaving is its own trace.
    #[test]
    fn unannotated_dpor_degenerates_to_exhaustive() {
        let build = || {
            let actors = (0..2)
                .map(|i| {
                    Actor::new(format!("w{i}"))
                        .then(move |s: &mut u64| *s += 1 << (8 * i))
                        .then(move |s: &mut u64| *s += 1 << (8 * i))
                })
                .collect();
            (0u64, actors)
        };
        let dpor = explore(
            Mode::Dpor {
                max_schedules: 1_000,
            },
            build,
            |_| Ok(()),
            |_| Ok(()),
        )
        .expect("nothing to violate");
        assert!(dpor.exhausted);
        assert_eq!(
            dpor.traces_explored, 6,
            "all C(4,2) interleavings are distinct traces: {dpor:?}"
        );
        assert_eq!(dpor.interleavings, 6);
    }

    /// Two actors on disjoint objects: one trace, one run, full-space
    /// reduction.
    #[test]
    fn disjoint_writers_collapse_to_one_trace() {
        let build = || {
            let actors = vec![
                Actor::new("a")
                    .then_accessing(|s: &mut (u64, u64)| s.0 += 1, &[Access::Write("a")])
                    .then_accessing(|s: &mut (u64, u64)| s.0 += 1, &[Access::Write("a")])
                    .then_accessing(|s: &mut (u64, u64)| s.0 += 1, &[Access::Write("a")]),
                Actor::new("b")
                    .then_accessing(|s: &mut (u64, u64)| s.1 += 1, &[Access::Write("b")])
                    .then_accessing(|s: &mut (u64, u64)| s.1 += 1, &[Access::Write("b")])
                    .then_accessing(|s: &mut (u64, u64)| s.1 += 1, &[Access::Write("b")]),
            ];
            ((0u64, 0u64), actors)
        };
        let report: Report = explore(
            Mode::Dpor {
                max_schedules: 1_000,
            },
            build,
            |_| Ok(()),
            |s| {
                if *s == (3, 3) {
                    Ok(())
                } else {
                    Err(format!("bad totals {s:?}"))
                }
            },
        )
        .expect("independent increments cannot conflict");
        assert!(report.exhausted);
        assert_eq!(report.traces_explored, 1, "{report:?}");
        assert_eq!(report.schedules, 1, "no sleep-blocked noise: {report:?}");
        assert_eq!(report.interleavings, 20, "C(6,3) full space");
        assert_eq!(report.schedules_pruned, 19);
        assert!(report.reduction_ratio() >= 20.0);
    }

    /// The annotated lost update: reads and writes of one object still
    /// conflict, so DPOR finds the same violation exhaustive does.
    #[test]
    fn dpor_finds_the_annotated_lost_update() {
        let build = || {
            let actors = (0..2)
                .map(|i| {
                    Actor::new(format!("inc-{i}"))
                        .then_accessing(
                            move |s: &mut (u64, [u64; 2])| s.1[i] = s.0,
                            &[Access::Read("val")],
                        )
                        .then_accessing(
                            move |s: &mut (u64, [u64; 2])| s.0 = s.1[i] + 1,
                            &[Access::Write("val")],
                        )
                })
                .collect();
            ((0u64, [0u64; 2]), actors)
        };
        let check = |s: &mut (u64, [u64; 2])| {
            if s.0 == 2 {
                Ok(())
            } else {
                Err(format!("lost update: val={}", s.0))
            }
        };
        let violation = explore(
            Mode::Dpor {
                max_schedules: 1_000,
            },
            build,
            |_| Ok(()),
            check,
        )
        .expect_err("the read-read-write-write schedule loses an update");
        assert!(violation.message.contains("lost update"), "{violation}");
        // The witness replays identically, mode notwithstanding.
        let replayed = crate::explore::replay(&violation.schedule, build, |_| Ok(()), check)
            .expect_err("replay must reproduce");
        assert_eq!(replayed.message, violation.message);
    }

    /// A mixed space — two independent pairs, conflicts within each
    /// pair: reduction without losing the per-pair interleavings.
    #[test]
    fn two_independent_pairs_multiply_down() {
        let build = || {
            let mut actors = Vec::new();
            for (pair, obj) in ["left", "right"].iter().enumerate() {
                actors.push(
                    Actor::new(format!("w-{obj}"))
                        .then_accessing(move |s: &mut [u64; 2]| s[pair] += 1, &[Access::Write(obj)])
                        .then_accessing(
                            move |s: &mut [u64; 2]| s[pair] += 1,
                            &[Access::Write(obj)],
                        ),
                );
                actors.push(Actor::new(format!("r-{obj}")).then_accessing(
                    move |s: &mut [u64; 2]| {
                        let _ = s[pair];
                    },
                    &[Access::Read(obj)],
                ));
            }
            ([0u64; 2], actors)
        };
        let report = explore(
            Mode::Dpor {
                max_schedules: 100_000,
            },
            build,
            |_| Ok(()),
            |s| {
                if *s == [2, 2] {
                    Ok(())
                } else {
                    Err(format!("bad totals {s:?}"))
                }
            },
        )
        .expect("no invariant to break");
        assert!(report.exhausted);
        // Each pair alone has 3 traces (reader before/between/after the
        // writes); the pairs are mutually independent, so the product
        // space has 9 traces vs C(6,2)·C(4,2)/... = 180 interleavings.
        assert_eq!(report.interleavings, 180);
        assert_eq!(report.traces_explored, 9, "{report:?}");
        assert!(
            report.reduction_ratio() >= 2.0,
            "ratio {} on {report:?}",
            report.reduction_ratio()
        );
    }
}
