//! Differential tests: on seeded-bug fixtures, [`Mode::Dpor`] and
//! [`Mode::Exhaustive`] must agree — both find a violation on the buggy
//! variant, both exhaust the clean variant cleanly, and any DPOR-found
//! witness schedule replays to the identical violation. This is the
//! soundness contract of the reduction: pruning interleavings may never
//! prune a bug.
//!
//! The fixtures reproduce, as models, the two real bugs this repo's
//! harnesses caught in the tracer's former seqlock span ring: the PR-3
//! `/trace?clear=1` snapshot-vs-clear race (also seeded into one of two
//! independent logs, where DPOR prunes most interleavings) and the PR-4
//! recycle drop-accounting double-count, plus the classic two-step lost
//! update as a baseline.

use ccp_verify::{explore, replay, Access, Actor, Mode, Violation};
use std::collections::BTreeSet;
use std::time::Instant;

const BUDGET: usize = 200_000;

/// Run one fixture under both modes and check the differential
/// contract. `needle` must appear in every violation message so we know
/// both modes found the *same bug*, not merely *a* bug.
fn assert_modes_agree<S>(
    label: &str,
    build: impl Fn() -> (S, Vec<Actor<S>>),
    check_step: impl Fn(&S) -> Result<(), String>,
    check_final: impl Fn(&mut S) -> Result<(), String>,
    needle: Option<&str>,
) {
    let exhaustive = explore(
        Mode::Exhaustive {
            max_schedules: BUDGET,
        },
        &build,
        &check_step,
        &check_final,
    );
    let dpor = explore(
        Mode::Dpor {
            max_schedules: BUDGET,
        },
        &build,
        &check_step,
        &check_final,
    );
    match needle {
        Some(needle) => {
            let ev = exhaustive.expect_err(&format!("{label}: exhaustive must find the bug"));
            let dv = dpor.expect_err(&format!("{label}: DPOR must find the bug"));
            for (mode, v) in [("exhaustive", &ev), ("dpor", &dv)] {
                assert!(
                    v.message.contains(needle),
                    "{label}/{mode} found a different bug: {v}"
                );
            }
            // The DPOR witness replays mode-independently to the same
            // violation — replay() has no notion of the finding mode.
            let replayed = replay(&dv.schedule, &build, &check_step, &check_final)
                .expect_err(&format!("{label}: DPOR witness must reproduce"));
            assert_eq!(replayed.message, dv.message, "{label}: replay diverged");
            let replayed = replay(&ev.schedule, &build, &check_step, &check_final)
                .expect_err(&format!("{label}: exhaustive witness must reproduce"));
            assert_eq!(replayed.message, ev.message, "{label}: replay diverged");
        }
        None => {
            let er = exhaustive.unwrap_or_else(|v: Violation| {
                panic!("{label}: exhaustive flagged the clean fixture: {v}")
            });
            let dr =
                dpor.unwrap_or_else(|v| panic!("{label}: DPOR flagged the clean fixture: {v}"));
            assert!(er.exhausted, "{label}: exhaustive did not close the space");
            assert!(dr.exhausted, "{label}: DPOR did not close the space");
            assert_eq!(
                er.interleavings, dr.interleavings,
                "{label}: modes disagree on the space size"
            );
            assert!(
                dr.schedules <= er.schedules,
                "{label}: DPOR ran more schedules ({}) than exhaustive ({})",
                dr.schedules,
                er.schedules
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fixture 1: the classic lost update (baseline).
// ---------------------------------------------------------------------

struct Counter {
    val: u64,
    tmp: [u64; 2],
}

/// Two actors read-modify-write a counter. `racy` splits the RMW into
/// two steps (the bug); the clean variant does it atomically in one.
fn counter_build(racy: bool) -> impl Fn() -> (Counter, Vec<Actor<Counter>>) {
    move || {
        let state = Counter {
            val: 0,
            tmp: [0, 0],
        };
        let actors = (0..2)
            .map(|i| {
                let a = Actor::new(format!("inc-{i}"));
                if racy {
                    a.then_accessing(
                        move |s: &mut Counter| s.tmp[i] = s.val,
                        &[Access::Read("val")],
                    )
                    .then_accessing(
                        move |s: &mut Counter| s.val = s.tmp[i] + 1,
                        &[Access::Write("val")],
                    )
                } else {
                    a.then_accessing(|s: &mut Counter| s.val += 1, &[Access::AcqRel("val")])
                }
            })
            .collect();
        (state, actors)
    }
}

fn counter_final(s: &mut Counter) -> Result<(), String> {
    if s.val == 2 {
        Ok(())
    } else {
        Err(format!("lost update: val={}", s.val))
    }
}

#[test]
fn lost_update_found_by_both_modes_and_clean_variant_passes_both() {
    assert_modes_agree(
        "lost-update/buggy",
        counter_build(true),
        |_| Ok(()),
        counter_final,
        Some("lost update"),
    );
    assert_modes_agree(
        "lost-update/clean",
        counter_build(false),
        |_| Ok(()),
        counter_final,
        None,
    );
}

// ---------------------------------------------------------------------
// Fixture 2: the PR-3 snapshot-vs-clear race, as a model.
// ---------------------------------------------------------------------

/// A plain log read by a two-step snapshot-then-clear: the shape of
/// `/trace?clear=1` when the copy and the clear were separate steps. The
/// shipped tracer copies and empties a ring in one lock hold, so the bug
/// is reproduced here in model form: clearing everything after the
/// snapshot loses any record pushed in between, while clearing only the
/// prefix the snapshot saw loses nothing.
struct Log {
    /// Record `i` carries id `i`.
    records: Vec<u64>,
    pushed: u64,
    observed: BTreeSet<u64>,
    /// How many records the reader's last snapshot saw.
    seen: usize,
    buggy: bool,
}

impl Log {
    fn new(buggy: bool) -> Log {
        Log {
            records: Vec::new(),
            pushed: 0,
            observed: BTreeSet::new(),
            seen: 0,
            buggy,
        }
    }

    fn push(&mut self) {
        self.records.push(self.pushed);
        self.pushed += 1;
    }

    fn snapshot(&mut self) {
        self.observed.extend(&self.records);
        self.seen = self.records.len();
    }

    fn clear(&mut self) {
        if self.buggy {
            self.records.clear();
        } else {
            self.records.drain(..self.seen);
        }
    }

    /// Ids no snapshot and no final sweep ever observed.
    fn lost(&mut self) -> Vec<u64> {
        self.observed.extend(&self.records);
        (0..self.pushed)
            .filter(|id| !self.observed.contains(id))
            .collect()
    }
}

/// Independent logs, indexed by the actors' log number.
struct Logs(Vec<Log>);

/// One writer pushing `records` records and one reader running `cycles`
/// snapshot-then-clear passes on `logs[i]`, every step annotated with
/// that log as its object.
fn log_actors(i: usize, records: u64, cycles: usize) -> [Actor<Logs>; 2] {
    const OBJECTS: [&str; 2] = ["log-0", "log-1"];
    let obj = OBJECTS[i];
    let mut writer = Actor::new(format!("writer-{i}"));
    for _ in 0..records {
        writer = writer.then_accessing(move |s: &mut Logs| s.0[i].push(), &[Access::Write(obj)]);
    }
    let mut reader = Actor::new(format!("reader-{i}"));
    for _ in 0..cycles {
        reader = reader
            .then_accessing(move |s: &mut Logs| s.0[i].snapshot(), &[Access::Read(obj)])
            .then_accessing(move |s: &mut Logs| s.0[i].clear(), &[Access::Write(obj)]);
    }
    [writer, reader]
}

fn logs_final(s: &mut Logs) -> Result<(), String> {
    for (i, log) in s.0.iter_mut().enumerate() {
        let lost = log.lost();
        if !lost.is_empty() {
            return Err(format!("log {i}: records never observed: {lost:?}"));
        }
    }
    Ok(())
}

fn pr3_build(buggy: bool) -> impl Fn() -> (Logs, Vec<Actor<Logs>>) {
    move || (Logs(vec![Log::new(buggy)]), log_actors(0, 3, 1).into())
}

#[test]
fn pr3_clear_race_found_by_both_modes_and_fix_passes_both() {
    assert_modes_agree(
        "pr3/buggy",
        pr3_build(true),
        |_| Ok(()),
        logs_final,
        Some("never observed"),
    );
    assert_modes_agree("pr3/fixed", pr3_build(false), |_| Ok(()), logs_final, None);
}

/// Two independent logs, each with its own writer/reader pair, like the
/// tracer's per-thread rings; `buggy_log` seeds the bug in that log.
fn two_log_build(
    records: u64,
    cycles: usize,
    buggy_log: Option<usize>,
) -> impl Fn() -> (Logs, Vec<Actor<Logs>>) {
    move || {
        let logs = Logs((0..2).map(|i| Log::new(buggy_log == Some(i))).collect());
        let actors = [0, 1]
            .into_iter()
            .flat_map(|i| log_actors(i, records, cycles))
            .collect();
        (logs, actors)
    }
}

#[test]
fn pr3_seeded_in_one_of_two_independent_logs_found_by_both_modes() {
    assert_modes_agree(
        "pr3/two-logs/buggy",
        two_log_build(3, 1, Some(1)),
        |_| Ok(()),
        logs_final,
        Some("log 1: records never observed"),
    );
}

/// The headline reduction: two independent writer/reader pairs explode
/// to 25 200 interleavings, but DPOR needs only one representative per
/// Mazurkiewicz trace.
#[test]
fn independent_logs_verify_under_dpor_with_real_reduction() {
    let (records, cycles) = if ccp_verify::deep() { (4, 2) } else { (3, 1) };
    let start = Instant::now();
    let report = explore(
        Mode::Dpor {
            max_schedules: ccp_verify::budget(BUDGET),
        },
        two_log_build(records, cycles, None),
        |_| Ok(()),
        logs_final,
    )
    .expect("prefix-only clears must lose nothing");
    ccp_verify::emit_stats("differential/two_logs", "dpor", &report, start.elapsed());
    assert!(report.exhausted, "DPOR must close the space: {report:?}");
    if !ccp_verify::deep() {
        // 2 writers × 3 pushes + 2 readers × 2 steps = 10!/(3!2!3!2!).
        assert_eq!(report.interleavings, 25_200);
        // Per log: C(5,2) = 10 fully-conflicting interleavings; the two
        // logs are independent, so 100 traces cover the product space.
        assert_eq!(report.traces_explored, 100, "{report:?}");
    }
    assert!(
        report.reduction_ratio() >= 2.0,
        "the reduction must be real: ratio {} on {report:?}",
        report.reduction_ratio()
    );
}

// ---------------------------------------------------------------------
// Fixture 3: the PR-4 recycle drop-accounting double-count, as a model.
// ---------------------------------------------------------------------

/// Miniature of the former seqlock span ring's drop accounting, which
/// hid records behind a `cleared_upto` floor instead of removing them:
/// `recycle()` counts every still-visible record as dropped, and a
/// wrapping push counts its victim — the bug was counting victims that
/// recycle had *already* counted, inflating `dropped` past conservation.
/// The fix guards the wrap count with `victim >= cleared_upto`.
struct MiniRing {
    cap: u64,
    head: u64,
    cleared_upto: u64,
    dropped: u64,
    buggy: bool,
}

impl MiniRing {
    fn push(&mut self) {
        if self.head >= self.cap {
            let victim = self.head - self.cap;
            if victim >= self.cleared_upto || self.buggy {
                self.dropped += 1;
            }
        }
        self.head += 1;
    }

    fn recycle(&mut self) {
        let oldest_live = self.cleared_upto.max(self.head.saturating_sub(self.cap));
        self.dropped += self.head - oldest_live;
        self.cleared_upto = self.head;
    }

    fn visible(&self) -> u64 {
        self.head - self.cleared_upto.max(self.head.saturating_sub(self.cap))
    }
}

fn pr4_build(buggy: bool) -> impl Fn() -> (MiniRing, Vec<Actor<MiniRing>>) {
    move || {
        let state = MiniRing {
            cap: 4,
            head: 0,
            cleared_upto: 0,
            dropped: 0,
            buggy,
        };
        // 6 pushes into 4 slots wrap twice; one recycle lands anywhere
        // among them. The double count needs a wrap *after* the recycle
        // has hidden the victim — only some interleavings trigger it,
        // which is exactly what makes it a race.
        let mut writer = Actor::new("writer");
        for _ in 0..6 {
            writer = writer.then_accessing(|s: &mut MiniRing| s.push(), &[Access::Write("ring")]);
        }
        let recycler = Actor::new("recycler")
            .then_accessing(|s: &mut MiniRing| s.recycle(), &[Access::Write("ring")]);
        (state, vec![writer, recycler])
    }
}

fn pr4_final(s: &mut MiniRing) -> Result<(), String> {
    if s.visible() + s.dropped == s.head {
        Ok(())
    } else {
        Err(format!(
            "drop accounting broke conservation: visible {} + dropped {} != pushed {}",
            s.visible(),
            s.dropped,
            s.head
        ))
    }
}

#[test]
fn pr4_drop_double_count_found_by_both_modes_and_fix_passes_both() {
    assert_modes_agree(
        "pr4/buggy",
        pr4_build(true),
        |_| Ok(()),
        pr4_final,
        Some("conservation"),
    );
    assert_modes_agree("pr4/fixed", pr4_build(false), |_| Ok(()), pr4_final, None);
}
