//! Deterministic named failpoints for fault-injection testing.
//!
//! A failpoint is a named site in production code that normally does
//! nothing. A test (or an operator running a chaos drill) *arms* a set
//! of failpoints by installing a [`FaultPlan`], after which each hit of
//! an armed site is counted and — when its trigger matches — fires an
//! action: report failure to the caller, delay, or panic.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disarmed.** With no plan installed a call to
//!    [`should_fail`] is one relaxed atomic load and a branch; no lock
//!    is taken and no state is mutated.
//! 2. **Deterministic.** Triggers depend only on the per-point hit
//!    counter (and, for probability, a caller-chosen seed), never on
//!    wall-clock time or global randomness, so failures replay exactly.
//! 3. **Std-only.** No dependencies; usable from every crate in the
//!    workspace including `ccp-resctrl` at the bottom of the stack.
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of clauses, each
//! `name=action[@trigger]`:
//!
//! ```text
//! resctrl.write_schemata=err@1+40,sampler.probe=delay10@every2,engine.bind=err@p25s42
//! ```
//!
//! Actions: `err` (site returns its error), `delay<ms>` (sleep, then
//! proceed), `panic`. Triggers: `<n>` (fire on the n-th hit only),
//! `<n>+<count>` (a window of `count` consecutive hits starting at the
//! n-th), `every<k>` (every k-th hit), `p<pct>s<seed>` (fire with
//! probability `pct`% decided by a SplitMix64 hash of `seed ^ hit`).
//! Omitting the trigger fires on every hit.
//!
//! Plans install process-wide from the `CCP_FAULTS` environment
//! variable ([`install_from_env`]) or programmatically ([`install`]).

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

// ORDERING: relaxed — `ARMED` is a pure fast-path gate. A site racing
// with `install`/`clear` may evaluate against the old arming state for
// a few hits, which is acceptable for fault injection; keeping it
// relaxed is what makes the disarmed hot path fence-free.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Registry of armed points. `None` when no plan is installed. Guarded
/// by a plain mutex: it is only locked when `ARMED` is set, i.e. during
/// chaos runs and fault tests, never on the production fast path.
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

struct Registry {
    plan: FaultPlan,
    points: HashMap<String, PointState>,
}

struct PointState {
    spec: FaultSpec,
    hits: u64,
    fires: u64,
}

/// What an armed failpoint does when its trigger matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// The site reports failure to its caller ([`should_fail`] returns
    /// `true`); the site fabricates whatever typed error fits.
    Err,
    /// Sleep this many milliseconds, then let the site proceed.
    Delay(u64),
    /// Panic with a message naming the failpoint.
    Panic,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Err => write!(f, "err"),
            Action::Delay(ms) => write!(f, "delay{ms}"),
            Action::Panic => write!(f, "panic"),
        }
    }
}

/// When an armed failpoint fires, as a function of its 1-based hit
/// counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on hits `start .. start + count` (a deterministic window;
    /// `count == 1` is the classic "nth hit" trigger).
    Nth { start: u64, count: u64 },
    /// Fire on every k-th hit (`hit % k == 0`).
    EveryK(u64),
    /// Fire with probability `pct`% per hit, decided by a SplitMix64
    /// hash of `seed ^ hit` — deterministic per (seed, hit) pair.
    Prob { pct: u8, seed: u64 },
    /// Fire on every hit.
    Always,
}

impl Trigger {
    fn fires(&self, hit: u64) -> bool {
        match *self {
            Trigger::Nth { start, count } => hit >= start && hit - start < count,
            Trigger::EveryK(k) => hit.is_multiple_of(k),
            Trigger::Prob { pct, seed } => splitmix64(seed ^ hit) % 100 < u64::from(pct),
            Trigger::Always => true,
        }
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Trigger::Nth { start, count: 1 } => write!(f, "@{start}"),
            Trigger::Nth { start, count } => write!(f, "@{start}+{count}"),
            Trigger::EveryK(k) => write!(f, "@every{k}"),
            Trigger::Prob { pct, seed } => write!(f, "@p{pct}s{seed}"),
            Trigger::Always => Ok(()),
        }
    }
}

/// One armed failpoint: a site name plus what to do and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    pub name: String,
    pub action: Action,
    pub trigger: Trigger,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}{}", self.name, self.action, self.trigger)
    }
}

/// A parsed fault plan: the ordered list of clauses from a
/// `CCP_FAULTS` / `--faults` string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub specs: Vec<FaultSpec>,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{spec}")?;
        }
        Ok(())
    }
}

/// A malformed plan string. Always names the offending clause so the
/// operator can find it inside a long `CCP_FAULTS` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The clause that failed to parse, verbatim.
    pub clause: String,
    /// Why it failed.
    pub reason: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault clause {:?}: {}", self.clause, self.reason)
    }
}

impl std::error::Error for PlanError {}

impl FromStr for FaultPlan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<Self, PlanError> {
        let mut specs = Vec::new();
        for clause in s.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            specs.push(parse_clause(clause)?);
        }
        Ok(FaultPlan { specs })
    }
}

fn parse_clause(clause: &str) -> Result<FaultSpec, PlanError> {
    let err = |reason: &str| PlanError {
        clause: clause.to_string(),
        reason: reason.to_string(),
    };
    let (name, rest) = clause
        .split_once('=')
        .ok_or_else(|| err("expected name=action[@trigger]"))?;
    if name.is_empty() {
        return Err(err("empty failpoint name"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(err(
            "failpoint names may only contain [A-Za-z0-9._-] characters",
        ));
    }
    let (action_str, trigger_str) = match rest.split_once('@') {
        Some((a, t)) => (a, Some(t)),
        None => (rest, None),
    };
    let action = parse_action(action_str).map_err(|reason| err(&reason))?;
    let trigger = match trigger_str {
        None => Trigger::Always,
        Some(t) => parse_trigger(t).map_err(|reason| err(&reason))?,
    };
    Ok(FaultSpec {
        name: name.to_string(),
        action,
        trigger,
    })
}

fn parse_action(s: &str) -> Result<Action, String> {
    if s == "err" {
        return Ok(Action::Err);
    }
    if s == "panic" {
        return Ok(Action::Panic);
    }
    if let Some(ms) = s.strip_prefix("delay") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad delay milliseconds {ms:?} (want delay<ms>)"))?;
        return Ok(Action::Delay(ms));
    }
    Err(format!(
        "unknown action {s:?} (want err, delay<ms>, or panic)"
    ))
}

fn parse_trigger(s: &str) -> Result<Trigger, String> {
    if let Some(k) = s.strip_prefix("every") {
        let k: u64 = k
            .parse()
            .map_err(|_| format!("bad every-k count {k:?} (want every<k>)"))?;
        if k == 0 {
            return Err("every-k count must be >= 1".to_string());
        }
        return Ok(Trigger::EveryK(k));
    }
    if let Some(rest) = s.strip_prefix('p') {
        let (pct, seed) = rest
            .split_once('s')
            .ok_or_else(|| format!("bad probability trigger {s:?} (want p<pct>s<seed>)"))?;
        let pct: u8 = pct
            .parse()
            .map_err(|_| format!("bad probability percent {pct:?}"))?;
        if pct > 100 {
            return Err(format!("probability percent {pct} out of range 0..=100"));
        }
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("bad probability seed {seed:?}"))?;
        return Ok(Trigger::Prob { pct, seed });
    }
    let (start_str, count_str) = match s.split_once('+') {
        Some((a, b)) => (a, Some(b)),
        None => (s, None),
    };
    let start: u64 = start_str.parse().map_err(|_| {
        format!("unknown trigger {s:?} (want <n>, <n>+<count>, every<k>, or p<pct>s<seed>)")
    })?;
    if start == 0 {
        return Err("nth-hit trigger is 1-based; hit 0 never occurs".to_string());
    }
    let count = match count_str {
        None => 1,
        Some(c) => {
            let count: u64 = c
                .parse()
                .map_err(|_| format!("bad window count {c:?} (want <n>+<count>)"))?;
            if count == 0 {
                return Err("window count must be >= 1".to_string());
            }
            count
        }
    };
    Ok(Trigger::Nth { start, count })
}

/// The SplitMix64 state increment.
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64: a cheap, high-quality 64-bit mixer of `z +`
/// [`SPLITMIX64_GAMMA`]. Probability triggers derive their per-hit coin
/// flip from it; called on a state that steps by `SPLITMIX64_GAMMA`
/// after each call, it yields the reference SplitMix64 stream seeded
/// with the state's first value.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn lock_registry() -> std::sync::MutexGuard<'static, Option<Registry>> {
    // A panic action fired while holding this lock would poison it;
    // the map itself is always left consistent, so keep going.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `plan` process-wide, replacing any previous plan and
/// resetting all hit counters. An empty plan disarms everything
/// (equivalent to [`clear`]).
pub fn install(plan: FaultPlan) {
    let mut guard = lock_registry();
    if plan.specs.is_empty() {
        *guard = None;
        // ORDERING: relaxed — see the `ARMED` declaration; the registry
        // update above is what sites observe, under the mutex.
        ARMED.store(false, Ordering::Relaxed);
        return;
    }
    let mut points = HashMap::new();
    for spec in &plan.specs {
        points.insert(
            spec.name.clone(),
            PointState {
                spec: spec.clone(),
                hits: 0,
                fires: 0,
            },
        );
    }
    *guard = Some(Registry { plan, points });
    // ORDERING: relaxed — the registry is published under the mutex;
    // `ARMED` is only the advisory fast-path gate (see its declaration).
    ARMED.store(true, Ordering::Relaxed);
}

/// Parses and installs a plan string (the `--faults` flag).
pub fn install_str(s: &str) -> Result<FaultPlan, PlanError> {
    let plan: FaultPlan = s.parse()?;
    install(plan.clone());
    Ok(plan)
}

/// Reads `CCP_FAULTS` and installs it if set and non-empty. Returns
/// the installed plan, `None` when the variable is unset or empty.
pub fn install_from_env() -> Result<Option<FaultPlan>, PlanError> {
    match std::env::var("CCP_FAULTS") {
        Ok(s) if !s.trim().is_empty() => install_str(&s).map(Some),
        _ => Ok(None),
    }
}

/// Disarms every failpoint and drops the installed plan.
pub fn clear() {
    let mut guard = lock_registry();
    *guard = None;
    // ORDERING: relaxed — advisory gate; see the `ARMED` declaration.
    ARMED.store(false, Ordering::Relaxed);
}

/// Whose turn it is to own the process-wide plan; see [`exclusive`].
static TURN: Mutex<()> = Mutex::new(());

/// One test's turn at the process-wide plan, from [`exclusive`].
/// Dropping it clears the installed plan — on a panic too, so a failing
/// test cannot leak an armed failpoint — and passes the turn on.
pub struct Exclusive(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Exclusive {
    fn drop(&mut self) {
        clear();
    }
}

/// Takes the turn at the process-wide plan, blocking while another
/// holder has it. Plans are per process while `cargo test` runs a
/// binary's tests on parallel threads: a test that arms a plan, or whose
/// code merely passes through a site a neighbour arms, holds the
/// returned value for its whole run.
pub fn exclusive() -> Exclusive {
    Exclusive(TURN.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Whether any plan is installed. Cheap (one relaxed load).
pub fn armed() -> bool {
    // ORDERING: relaxed — advisory gate; see the `ARMED` declaration.
    ARMED.load(Ordering::Relaxed)
}

/// The `Display` form of the installed plan, if any.
pub fn active_plan() -> Option<String> {
    let guard = lock_registry();
    guard.as_ref().map(|r| r.plan.to_string())
}

/// Evaluates the named failpoint.
///
/// Returns `true` when the site should fail (an `err` action fired); the
/// site fabricates its own typed error. A `delay` action sleeps here and
/// returns `false`; a `panic` action panics here. When no plan is
/// installed this is one relaxed load and a branch — no lock, no counter
/// update.
pub fn should_fail(name: &str) -> bool {
    // ORDERING: relaxed — this load is the whole disarmed fast path; a
    // stale read delays (dis)arming by a few hits, by design (see the
    // `ARMED` declaration).
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    should_fail_slow(name)
}

#[inline(never)]
fn should_fail_slow(name: &str) -> bool {
    let action = {
        let mut guard = lock_registry();
        let Some(point) = guard.as_mut().and_then(|reg| reg.points.get_mut(name)) else {
            return false;
        };
        point.hits += 1;
        if !point.spec.trigger.fires(point.hits) {
            return false;
        }
        point.fires += 1;
        point.spec.action.clone()
    };
    match action {
        Action::Err => true,
        Action::Delay(ms) => {
            thread::sleep(Duration::from_millis(ms));
            false
        }
        Action::Panic => panic!("ccp-fault: failpoint {name:?} fired panic action"),
    }
}

/// Hit/fire counters for one armed failpoint (for tests and `/stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointStatus {
    pub name: String,
    pub hits: u64,
    pub fires: u64,
}

/// Counters for every armed failpoint, sorted by name. Empty when
/// disarmed.
pub fn snapshot() -> Vec<PointStatus> {
    let guard = lock_registry();
    let mut out: Vec<PointStatus> = match guard.as_ref() {
        None => Vec::new(),
        Some(reg) => reg
            .points
            .iter()
            .map(|(name, p)| PointStatus {
                name: name.clone(),
                hits: p.hits,
                fires: p.fires,
            })
            .collect(),
    };
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_plan<R>(plan: &str, f: impl FnOnce() -> R) -> R {
        let _turn = exclusive();
        install_str(plan).expect("test plan parses");
        f()
    }

    #[test]
    fn splitmix64_yields_the_reference_stream() {
        let mut state = 0u64;
        let mut next = || {
            let word = splitmix64(state);
            state = state.wrapping_add(SPLITMIX64_GAMMA);
            word
        };
        assert_eq!(next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(next(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn parse_issue_example() {
        let plan: FaultPlan = "resctrl.write_schemata=err@3".parse().expect("parses");
        assert_eq!(
            plan.specs,
            vec![FaultSpec {
                name: "resctrl.write_schemata".to_string(),
                action: Action::Err,
                trigger: Trigger::Nth { start: 3, count: 1 },
            }]
        );
        assert_eq!(plan.to_string(), "resctrl.write_schemata=err@3");
    }

    #[test]
    fn parse_all_forms_round_trip() {
        let s = "a=err@1+40,b.c=delay10@every2,d_e=panic@p25s42,f-g=err";
        let plan: FaultPlan = s.parse().expect("parses");
        assert_eq!(plan.to_string(), s);
        assert_eq!(plan.specs.len(), 4);
        assert_eq!(plan.specs[3].trigger, Trigger::Always);
    }

    #[test]
    fn malformed_clause_named_in_error() {
        let e = "ok=err,bogus~name=err@3"
            .parse::<FaultPlan>()
            .expect_err("must fail");
        assert_eq!(e.clause, "bogus~name=err@3");
        assert!(e.to_string().contains("bogus~name=err@3"), "{e}");

        let e = "x=err@p200s1".parse::<FaultPlan>().expect_err("pct range");
        assert!(e.reason.contains("out of range"), "{e}");
        let e = "x=zap@3".parse::<FaultPlan>().expect_err("bad action");
        assert!(e.reason.contains("unknown action"), "{e}");
        let e = "x=err:enospc".parse::<FaultPlan>().expect_err("no errnos");
        assert!(e.reason.contains("unknown action"), "{e}");
        let e = "x=err@0".parse::<FaultPlan>().expect_err("hit 0");
        assert!(e.reason.contains("1-based"), "{e}");
        let e = "noequals".parse::<FaultPlan>().expect_err("no =");
        assert_eq!(e.clause, "noequals");
    }

    #[test]
    fn empty_and_whitespace_plans_are_empty() {
        assert!("".parse::<FaultPlan>().expect("ok").specs.is_empty());
        assert!(" , ,".parse::<FaultPlan>().expect("ok").specs.is_empty());
    }

    #[test]
    fn nth_window_fires_exactly() {
        with_plan("t.window=err@3+2", || {
            let fired: Vec<bool> = (0..6).map(|_| should_fail("t.window")).collect();
            assert_eq!(fired, vec![false, false, true, true, false, false]);
        });
    }

    #[test]
    fn every_k_fires_periodically() {
        with_plan("t.every=err@every3", || {
            let fired: Vec<bool> = (0..9).map(|_| should_fail("t.every")).collect();
            assert_eq!(
                fired,
                vec![false, false, true, false, false, true, false, false, true]
            );
        });
    }

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let sample = |plan: &str| -> Vec<bool> {
            with_plan(plan, || (0..200).map(|_| should_fail("t.prob")).collect())
        };
        let a = sample("t.prob=err@p30s7");
        let b = sample("t.prob=err@p30s7");
        assert_eq!(a, b, "same seed must replay identically");
        let fires = a.iter().filter(|&&f| f).count();
        assert!((20..=100).contains(&fires), "30% of 200 ~ 60, got {fires}");
        let c = sample("t.prob=err@p30s8");
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn delay_sleeps_then_proceeds() {
        with_plan("t.delay=delay30@1", || {
            let t0 = std::time::Instant::now();
            assert!(!should_fail("t.delay"));
            assert!(t0.elapsed() >= Duration::from_millis(25));
            let t1 = std::time::Instant::now();
            assert!(!should_fail("t.delay"));
            assert!(
                t1.elapsed() < Duration::from_millis(25),
                "only hit 1 delays"
            );
        });
    }

    #[test]
    fn panic_action_panics_with_name() {
        with_plan("t.boom=panic@1", || {
            let result = std::panic::catch_unwind(|| should_fail("t.boom"));
            let msg = *result
                .expect_err("must panic")
                .downcast::<String>()
                .expect("string payload");
            assert!(msg.contains("t.boom"), "{msg}");
        });
    }

    #[test]
    fn disarmed_point_counts_nothing() {
        let _turn = exclusive();
        clear();
        assert!(!armed());
        // Hitting a point with no plan installed must not fail, must not
        // arm anything, and must not materialize registry state — the
        // observable half of the "branch-only when disarmed" contract.
        for _ in 0..1000 {
            assert!(!should_fail("t.cold"));
        }
        assert!(snapshot().is_empty());
        assert_eq!(active_plan(), None);
    }

    #[test]
    fn unknown_point_under_armed_plan_is_ignored() {
        with_plan("t.known=err", || {
            assert!(!should_fail("t.unknown"));
            assert!(should_fail("t.known"));
            let snap = snapshot();
            assert_eq!(snap.len(), 1);
            assert_eq!(snap[0].name, "t.known");
            assert_eq!(snap[0].hits, 1);
            assert_eq!(snap[0].fires, 1);
        });
    }

    #[test]
    fn install_resets_counters() {
        with_plan("t.reset=err", || {
            assert!(should_fail("t.reset"));
            install_str("t.reset=err@2").expect("parses");
            assert!(!should_fail("t.reset"), "counter restarted at hit 1");
            assert!(should_fail("t.reset"));
        });
    }
}
