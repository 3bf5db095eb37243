//! The byte-budgeted artifact store with single-flight get-or-compute
//! and cost-aware eviction.
//!
//! ## Locking
//!
//! One mutex guards the whole cache state — the slot map, the accounted
//! bytes, the data-version epoch and the recency tick — and one condvar
//! wakes single-flight waiters when a claim is published or abandoned.
//! Bytes only change under that lock, and an install checks the fit and
//! adds its bytes in the same critical section, so the accounted total
//! can never exceed the budget. The lock is held for map operations
//! only, never while an artifact is built.

use crate::key::ReuseKey;
use crate::{ReuseStatus, FAULT_REUSE_INSTALL, FAULT_REUSE_LOOKUP};
use ccp_obs::{Counter, Gauge, Registry};
use ccp_storage::{AggHashTable, BitVec};
use ccp_trace::TraceCat;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A memoized full query result: the row count the query reported
/// processing and its scalar result. Small (one entry is ~32 bytes of
/// footprint) but it converts a whole profile playback into a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultSet {
    /// Input rows the original execution processed.
    pub rows: u64,
    /// The workload-specific scalar result.
    pub result: i64,
}

/// One cached artifact — exactly the intermediates our operators model.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A merged grouped-aggregation hash table (paper Q2 / TPC-H 1).
    AggTable(Arc<AggHashTable>),
    /// The bit vector a foreign-key join probes (paper Q3): the key set,
    /// indexed by the probe column's dictionary codes.
    JoinBits(Arc<BitVec>),
    /// A full memoized result set (selective scans, profile playback).
    ResultSet(Arc<ResultSet>),
}

impl Artifact {
    /// The artifact's accounted footprint in bytes.
    pub(crate) fn size_bytes(&self) -> u64 {
        match self {
            Artifact::AggTable(t) => t.size_bytes(),
            Artifact::JoinBits(b) => b.size_bytes(),
            // rows + result + Arc bookkeeping, rounded up.
            Artifact::ResultSet(_) => 32,
        }
    }

    /// The aggregation table, if that is what this artifact holds.
    pub fn agg_table(&self) -> Option<Arc<AggHashTable>> {
        match self {
            Artifact::AggTable(t) => Some(Arc::clone(t)),
            _ => None,
        }
    }

    /// The join bit vector, if that is what this artifact holds.
    pub fn join_bits(&self) -> Option<Arc<BitVec>> {
        match self {
            Artifact::JoinBits(b) => Some(Arc::clone(b)),
            _ => None,
        }
    }

    /// The memoized result set, if that is what this artifact holds.
    pub fn result_set(&self) -> Option<Arc<ResultSet>> {
        match self {
            Artifact::ResultSet(r) => Some(Arc::clone(r)),
            _ => None,
        }
    }

    /// Whether a reader currently borrows the artifact (a clone of the
    /// inner `Arc` is alive outside the cache). Shared artifacts are
    /// never chosen as eviction victims.
    fn is_shared(&self) -> bool {
        match self {
            Artifact::AggTable(t) => Arc::strong_count(t) > 1,
            Artifact::JoinBits(b) => Arc::strong_count(b) > 1,
            Artifact::ResultSet(r) => Arc::strong_count(r) > 1,
        }
    }
}

/// Construction parameters for a [`ReuseCache`].
#[derive(Debug, Clone, Copy)]
pub struct ReuseConfig {
    /// Total artifact bytes the cache may hold.
    pub budget_bytes: u64,
}

impl ReuseConfig {
    /// A config with the given budget.
    pub fn with_budget(budget_bytes: u64) -> Self {
        ReuseConfig { budget_bytes }
    }
}

/// A published entry.
struct Entry {
    artifact: Artifact,
    bytes: u64,
    /// Measured build time in microseconds (≥ 1); the denominator of
    /// the eviction score.
    cost_us: u64,
    /// Logical recency stamp (eviction tie-break only).
    last_hit: u64,
}

impl Entry {
    /// Cost-aware eviction score: bytes per microsecond of rebuild
    /// work. The *highest* score — big and cheap to rebuild — is
    /// evicted first.
    fn evict_score(&self) -> f64 {
        self.bytes as f64 / self.cost_us.max(1) as f64
    }
}

/// One key's slot: a published artifact, or a claim by the single
/// builder currently computing it.
enum Slot {
    Published(Entry),
    Building,
}

/// Everything the cache's one lock guards.
struct State {
    slots: HashMap<ReuseKey, Slot>,
    /// Bytes accounted to published artifacts (never above the budget).
    bytes: u64,
    /// The data-version epoch new keys are minted under.
    version: u64,
    /// Logical clock for entry recency (eviction tie-break).
    tick: u64,
}

impl State {
    /// Drops the Building claim on `key`, if one is held.
    fn release_claim(&mut self, key: &ReuseKey) {
        if matches!(self.slots.get(key), Some(Slot::Building)) {
            self.slots.remove(key);
        }
    }
}

/// The non-blocking result of one lookup step (the unit the
/// `ccp-verify` harness interleaves).
pub enum TryBegin {
    /// A published artifact matched the key.
    Hit(Artifact),
    /// The caller is now the single builder for this key.
    Build(BuildGuard),
    /// Another builder holds the key; retry after it publishes or
    /// abandons ([`ReuseCache::begin`] blocks on the cache's condvar).
    Pending,
}

/// The blocking result of [`ReuseCache::begin`].
pub enum Begin {
    /// A published artifact matched the key.
    Hit(Artifact),
    /// The caller is the single builder: compute the artifact, then
    /// [`BuildGuard::publish`] it (or drop the guard to abandon).
    Build(BuildGuard),
}

#[derive(Clone)]
struct Instruments {
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    evictions: Counter,
    invalidations: Counter,
    coalesced: Counter,
    mispredictions: Counter,
    bytes: Gauge,
}

impl Instruments {
    fn new() -> Self {
        Instruments {
            hits: Counter::new(),
            misses: Counter::new(),
            inserts: Counter::new(),
            evictions: Counter::new(),
            invalidations: Counter::new(),
            coalesced: Counter::new(),
            mispredictions: Counter::new(),
            bytes: Gauge::new(),
        }
    }
}

struct Inner {
    state: Mutex<State>,
    /// Signalled on publish/abandon so single-flight waiters re-check.
    published: Condvar,
    budget: u64,
    m: Instruments,
}

/// The cache. Cloning shares state (an `Arc` inside), so the engine,
/// the admission path and the `/data/bump` route can all hold handles.
#[derive(Clone)]
pub struct ReuseCache {
    inner: Arc<Inner>,
}

impl ReuseCache {
    /// Builds an empty cache.
    pub fn new(config: ReuseConfig) -> Self {
        ReuseCache {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    slots: HashMap::new(),
                    bytes: 0,
                    version: 0,
                    tick: 0,
                }),
                published: Condvar::new(),
                budget: config.budget_bytes,
                m: Instruments::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Mints a key for `query_id`/`predicate` under the *current*
    /// data-version epoch.
    pub fn key(&self, query_id: &str, predicate: &str) -> ReuseKey {
        ReuseKey::new(query_id, predicate, self.current_version())
    }

    /// The current data-version epoch.
    pub(crate) fn current_version(&self) -> u64 {
        self.lock().version
    }

    /// Bumps the data-version epoch and returns the new value. Every
    /// published entry built under an older epoch is swept at once (and
    /// counted in `invalidations`), so its bytes are free for the next
    /// install. Building claims survive: their publish finds the key
    /// stale and discards the artifact.
    pub fn bump_version(&self) -> u64 {
        let mut st = self.lock();
        st.version += 1;
        let version = st.version;
        let (mut swept, mut freed) = (0u64, 0u64);
        st.slots.retain(|key, slot| match slot {
            Slot::Published(entry) if key.data_version() < version => {
                swept += 1;
                freed += entry.bytes;
                false
            }
            _ => true,
        });
        st.bytes -= freed;
        self.inner.m.bytes.set(st.bytes as f64);
        drop(st);
        if swept > 0 {
            self.inner.m.invalidations.add(swept);
            ccp_trace::instant(TraceCat::Reuse, "reuse_invalidate");
        }
        ccp_trace::instant(TraceCat::Reuse, "reuse_version_bump");
        version
    }

    /// Bytes currently accounted to published artifacts.
    pub fn bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Whether a lookup for `key` would hit *right now*. The admission
    /// path calls this before classification; no counters move (only
    /// exec-time lookups participate in `hits + misses == lookups`).
    pub fn predict(&self, key: &ReuseKey) -> bool {
        matches!(self.lock().slots.get(key), Some(Slot::Published(_)))
    }

    /// Non-blocking single-flight lookup step. [`ReuseCache::begin`] is
    /// the blocking composition; this twin exists so the interleaving
    /// explorer can drive the protocol one step at a time.
    pub fn try_begin(&self, key: &ReuseKey) -> TryBegin {
        self.try_begin_inner(key, false)
    }

    fn try_begin_inner(&self, key: &ReuseKey, waited: bool) -> TryBegin {
        let vanished = ccp_fault::should_fail(FAULT_REUSE_LOOKUP);
        let mut guard = self.lock();
        let st = &mut *guard;
        match st.slots.get_mut(key) {
            Some(Slot::Published(entry)) if !vanished => {
                st.tick += 1;
                entry.last_hit = st.tick;
                let artifact = entry.artifact.clone();
                drop(guard);
                self.inner.m.hits.inc();
                if waited {
                    self.inner.m.coalesced.inc();
                }
                ccp_trace::instant(TraceCat::Reuse, "reuse_hit");
                TryBegin::Hit(artifact)
            }
            Some(Slot::Building) => TryBegin::Pending,
            other => {
                // A fault-forced "vanished" lookup drops the published
                // entry, exactly as if eviction had raced the query.
                if let Some(Slot::Published(entry)) = other {
                    st.bytes -= entry.bytes;
                    self.inner.m.bytes.set(st.bytes as f64);
                }
                st.slots.insert(key.clone(), Slot::Building);
                drop(guard);
                self.inner.m.misses.inc();
                ccp_trace::instant(TraceCat::Reuse, "reuse_miss");
                TryBegin::Build(BuildGuard {
                    cache: self.clone(),
                    key: key.clone(),
                    done: false,
                })
            }
        }
    }

    /// Blocking single-flight lookup: returns a hit, or makes the
    /// caller the single builder. Concurrent callers with the same key
    /// wait (on the cache's condvar) for the builder to publish; if the
    /// builder abandons, one waiter takes over.
    pub fn begin(&self, key: &ReuseKey) -> Begin {
        let mut waited = false;
        loop {
            match self.try_begin_inner(key, waited) {
                TryBegin::Hit(a) => return Begin::Hit(a),
                TryBegin::Build(g) => return Begin::Build(g),
                TryBegin::Pending => {
                    waited = true;
                    let st = self.lock();
                    if matches!(st.slots.get(key), Some(Slot::Building)) {
                        // Bounded wait: a missed wakeup degrades to a
                        // re-check, never a hang.
                        let _ = self
                            .inner
                            .published
                            .wait_timeout(st, Duration::from_millis(20))
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
    }

    /// Records a misprediction: admission predicted a hit, but the
    /// entry had vanished by execution time.
    pub fn note_misprediction(&self) {
        self.inner.m.mispredictions.inc();
        ccp_trace::instant(TraceCat::Reuse, "reuse_mispredict");
    }

    /// Attaches the `ccp_reuse_*` instruments to `registry`.
    pub fn register_into(&self, registry: &Registry) {
        let m = &self.inner.m;
        let counters: [(&str, &str, &Counter); 7] = [
            (
                "ccp_reuse_hits_total",
                "Reuse-cache lookups served from a published artifact",
                &m.hits,
            ),
            (
                "ccp_reuse_misses_total",
                "Reuse-cache lookups that claimed a build",
                &m.misses,
            ),
            (
                "ccp_reuse_inserts_total",
                "Artifacts installed into the reuse cache",
                &m.inserts,
            ),
            (
                "ccp_reuse_evictions_total",
                "Entries evicted by the byte budget (highest bytes/rebuild-cost first)",
                &m.evictions,
            ),
            (
                "ccp_reuse_invalidations_total",
                "Stale entries swept after a data-version bump",
                &m.invalidations,
            ),
            (
                "ccp_reuse_coalesced_total",
                "Lookups that waited for a concurrent builder and then hit",
                &m.coalesced,
            ),
            (
                "ccp_reuse_mispredictions_total",
                "Predicted hits that had vanished by execution time",
                &m.mispredictions,
            ),
        ];
        for (name, help, counter) in counters {
            registry
                .counter_family(name, help)
                .register(&[], (*counter).clone());
        }
        registry
            .gauge_family(
                "ccp_reuse_bytes",
                "Bytes currently held by reuse-cache artifacts (never exceeds the budget)",
            )
            .register(&[], m.bytes.clone());
    }

    /// Evicts until `incoming` more bytes fit in the budget. Returns
    /// `false` when they cannot: the artifact is larger than the whole
    /// budget, or everything left is pinned by a reader or still
    /// building (the artifact is then not installed, so the budget holds
    /// either way).
    fn make_room(&self, st: &mut State, incoming: u64) -> bool {
        if incoming > self.inner.budget {
            return false;
        }
        while st.bytes + incoming > self.inner.budget {
            // The highest score goes first; among equal scores, the
            // least recently hit.
            let victim = st
                .slots
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Published(entry) if !entry.artifact.is_shared() => Some((key, entry)),
                    _ => None,
                })
                .max_by(|(_, a), (_, b)| {
                    a.evict_score()
                        .total_cmp(&b.evict_score())
                        .then(b.last_hit.cmp(&a.last_hit))
                })
                .map(|(key, _)| key.clone());
            let Some(key) = victim else {
                return false;
            };
            if let Some(Slot::Published(entry)) = st.slots.remove(&key) {
                st.bytes -= entry.bytes;
                self.inner.m.evictions.inc();
                ccp_trace::instant(TraceCat::Reuse, "reuse_evict");
            }
        }
        true
    }

    /// Installs `artifact` for `key`, replacing the caller's Building
    /// claim. Returns whether the artifact was actually published: a
    /// build whose key a version bump made stale is discarded (and
    /// counted as an invalidation), and one that does not fit is dropped.
    fn install(&self, key: &ReuseKey, artifact: Artifact, cost: Duration) -> bool {
        let bytes = artifact.size_bytes();
        let mut st = self.lock();
        st.release_claim(key);
        let stale = key.data_version() < st.version;
        let published = !stale && self.make_room(&mut st, bytes);
        if published {
            st.bytes += bytes;
            st.tick += 1;
            let entry = Entry {
                artifact,
                bytes,
                cost_us: (cost.as_micros() as u64).max(1),
                last_hit: st.tick,
            };
            st.slots.insert(key.clone(), Slot::Published(entry));
        }
        self.inner.m.bytes.set(st.bytes as f64);
        drop(st);
        self.inner.published.notify_all();
        if published {
            self.inner.m.inserts.inc();
            ccp_trace::instant(TraceCat::Reuse, "reuse_install");
        } else if stale {
            self.inner.m.invalidations.inc();
        }
        published
    }

    /// Releases a Building claim without publishing; one waiter (if
    /// any) becomes the next builder.
    fn abandon(&self, key: &ReuseKey) {
        self.lock().release_claim(key);
        self.inner.published.notify_all();
    }
}

/// The single builder's claim on a key (see [`Begin::Build`]).
/// Dropping the guard without publishing abandons the claim.
pub struct BuildGuard {
    cache: ReuseCache,
    key: ReuseKey,
    done: bool,
}

impl BuildGuard {
    /// Publishes the built artifact with its measured rebuild cost.
    /// Returns `false` when the artifact was dropped instead: the
    /// `reuse.install` failpoint fired, the artifact did not fit the
    /// budget next to pinned entries, or a version bump made the key
    /// stale mid-build.
    pub fn publish(mut self, artifact: Artifact, cost: Duration) -> bool {
        self.done = true;
        if ccp_fault::should_fail(FAULT_REUSE_INSTALL) {
            ccp_trace::instant(TraceCat::Reuse, "reuse_install_failed");
            self.cache.abandon(&self.key);
            return false;
        }
        self.cache.install(&self.key, artifact, cost)
    }
}

impl Drop for BuildGuard {
    fn drop(&mut self) {
        if !self.done {
            self.cache.abandon(&self.key);
        }
    }
}

/// One query's pre-bound view of the cache: the shared cache plus the
/// query's canonical key. Engine operators take `Option<&ReuseHandle>`
/// and capture/install artifacts through it without knowing how keys
/// are minted.
pub struct ReuseHandle {
    cache: ReuseCache,
    key: ReuseKey,
}

impl ReuseHandle {
    /// Binds `key` to `cache`.
    pub fn new(cache: ReuseCache, key: ReuseKey) -> Self {
        ReuseHandle { cache, key }
    }

    /// Single-flight get-or-build for the bound key — the one reuse
    /// protocol every cached operator follows. A hit whose artifact
    /// `cached` accepts is served as is ([`ReuseStatus::Hit`]). A miss
    /// runs `build`, publishes `wrap(&built)` with the measured build
    /// time as its rebuild cost, and returns the built value
    /// ([`ReuseStatus::Miss`]). A hit of another artifact type (a key
    /// collision between operators) also builds and reports a miss, but
    /// publishes nothing: better uncached than the wrong structure.
    pub fn get_or_build<T>(
        &self,
        cached: impl FnOnce(&Artifact) -> Option<T>,
        build: impl FnOnce() -> T,
        wrap: impl FnOnce(&T) -> Artifact,
    ) -> (T, ReuseStatus) {
        match self.cache.begin(&self.key) {
            Begin::Hit(artifact) => match cached(&artifact) {
                Some(value) => (value, ReuseStatus::Hit),
                None => (build(), ReuseStatus::Miss),
            },
            Begin::Build(guard) => {
                let started = Instant::now();
                let built = build();
                guard.publish(wrap(&built), started.elapsed());
                (built, ReuseStatus::Miss)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::thread;

    fn cache(budget: u64) -> ReuseCache {
        ReuseCache::new(ReuseConfig::with_budget(budget))
    }

    fn result_artifact(rows: u64, result: i64) -> Artifact {
        Artifact::ResultSet(Arc::new(ResultSet { rows, result }))
    }

    /// `c`'s `ccp_reuse_<name>_total`, read through the family a scrape
    /// renders. A name `register_into` did not register panics rather
    /// than reading a freshly made 0.
    fn counter(c: &ReuseCache, name: &str) -> u64 {
        let registry = Registry::new();
        c.register_into(&registry);
        let family = format!("ccp_reuse_{name}_total");
        registry
            .sample_all()
            .into_iter()
            .find(|f| f.name == family)
            .and_then(|f| match f.samples.as_slice() {
                [(_, ccp_obs::MetricSample::Counter(v))] => Some(*v),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{family} is not a registered counter"))
    }

    #[test]
    fn build_then_hit_round_trip() {
        let c = cache(1 << 16);
        let key = c.key("q1", "t<100");
        let Begin::Build(guard) = c.begin(&key) else {
            panic!("empty cache must miss");
        };
        assert!(guard.publish(result_artifact(10, 7), Duration::from_micros(500)));
        let Begin::Hit(a) = c.begin(&key) else {
            panic!("published entry must hit");
        };
        assert_eq!(a.result_set().map(|r| r.result), Some(7));
        let n = |name| counter(&c, name);
        assert_eq!((n("hits"), n("misses"), n("inserts")), (1, 1, 1));
        assert_eq!(n("hits") + n("misses"), 2, "hits + misses == lookups");
        assert!(c.predict(&key));
        assert!(c.bytes() > 0 && c.bytes() <= 1 << 16);
    }

    #[test]
    fn abandoned_build_lets_the_next_caller_build() {
        let c = cache(1 << 16);
        let key = c.key("q1", "t<1");
        let Begin::Build(guard) = c.begin(&key) else {
            panic!("must miss");
        };
        drop(guard); // abandon
        assert!(matches!(c.begin(&key), Begin::Build(_)));
        assert_eq!(counter(&c, "misses"), 2);
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_queries() {
        let c = cache(1 << 16);
        let key = c.key("q2", "agg=sum");
        let Begin::Build(guard) = c.begin(&key) else {
            panic!("must miss");
        };
        let waiter = {
            let c = c.clone();
            let key = key.clone();
            std::thread::spawn(move || match c.begin(&key) {
                Begin::Hit(a) => a.result_set().map(|r| r.result),
                Begin::Build(_) => None,
            })
        };
        // Give the waiter a moment to park on the condvar.
        std::thread::sleep(Duration::from_millis(30));
        assert!(guard.publish(result_artifact(5, 42), Duration::from_micros(900)));
        assert_eq!(waiter.join().ok().flatten(), Some(42));
        assert_eq!(
            counter(&c, "coalesced"),
            1,
            "the waiter hit without building"
        );
        assert_eq!(counter(&c, "hits") + counter(&c, "misses"), 2);
    }

    #[test]
    fn version_bump_invalidates_every_stale_entry() {
        let c = cache(1 << 16);
        let key = c.key("q1", "t<5");
        let other = c.key("q2", "t<5");
        for k in [&key, &other] {
            if let Begin::Build(g) = c.begin(k) {
                g.publish(result_artifact(1, 1), Duration::from_micros(10));
            }
        }
        assert!(c.predict(&key));
        let v = c.bump_version();
        assert_eq!(v, 1);
        assert_eq!(
            counter(&c, "invalidations"),
            2,
            "both entries swept by the bump"
        );
        assert!(!c.predict(&other));
        assert_eq!(c.bytes(), 0, "invalidation returns the bytes");
        // The old-version key no longer predicts, the new one misses.
        let fresh = c.key("q1", "t<5");
        assert!(!c.predict(&key) && !c.predict(&fresh));
        assert!(matches!(c.begin(&fresh), Begin::Build(_)));
    }

    fn join_bits_128b(c: &ReuseCache, predicate: &str, cost: Duration) -> ReuseKey {
        let key = c.key("join", predicate);
        if let Begin::Build(g) = c.begin(&key) {
            assert!(g.publish(Artifact::JoinBits(Arc::new(BitVec::zeros(1024))), cost));
        }
        key
    }

    #[test]
    fn a_bump_frees_stale_entries_before_any_eviction() {
        let c = cache(300);
        let stale = join_bits_128b(&c, "expensive", Duration::from_millis(50));
        c.bump_version();
        assert_eq!(
            (c.predict(&stale), c.bytes(), counter(&c, "invalidations")),
            (false, 0, 1),
            "the bump sweeps the stale entry and returns its bytes"
        );
        // A live cheap entry, then a third install: 256 of 300 bytes is
        // a fit, so nothing live may be evicted for bytes a dead entry
        // held.
        let cheap = join_bits_128b(&c, "cheap", Duration::from_micros(2));
        let third = join_bits_128b(&c, "third", Duration::from_millis(10));
        assert!(c.predict(&cheap), "the live cheap entry survives");
        assert!(c.predict(&third));
        assert_eq!((c.bytes(), counter(&c, "evictions")), (256, 0));
    }

    #[test]
    fn threads_racing_few_keys_build_once_per_epoch() {
        const THREADS: usize = 4;
        const BEGINS: usize = 2_000;
        // Fits every entry three keys can hold at once.
        const BUDGET: u64 = 1 << 16;
        let c = cache(BUDGET);
        let (stop, stopped) = mpsc::channel::<()>();
        let bumper = {
            let c = c.clone();
            thread::spawn(move || {
                while let Err(RecvTimeoutError::Timeout) =
                    stopped.recv_timeout(Duration::from_millis(3))
                {
                    c.bump_version();
                }
            })
        };
        let (done, finished) = mpsc::channel();
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (c, done) = (c.clone(), done.clone());
                thread::spawn(move || {
                    let (mut built, mut published) = (Vec::new(), Vec::new());
                    for i in 0..BEGINS {
                        let key = c.key(&format!("q{}", (t + i) % 3), "t<1");
                        if let Begin::Build(guard) = c.begin(&key) {
                            built.push(key.clone());
                            // Widen the build window so others wait on it.
                            thread::yield_now();
                            if guard.publish(result_artifact(1, 1), Duration::from_micros(5)) {
                                published.push(key);
                            }
                        }
                    }
                    let _ = done.send((built, published));
                })
            })
            .collect();
        let (mut built, mut published) = (HashSet::new(), HashSet::new());
        for _ in 0..THREADS {
            let (b, p) = finished
                .recv_timeout(Duration::from_secs(60))
                .expect("a worker hung in begin");
            built.extend(b);
            for key in p {
                assert!(published.insert(key.clone()), "{key} published twice");
            }
        }
        for w in workers {
            w.join().expect("worker");
        }
        drop(stop);
        bumper.join().expect("bumper");
        let n = |name| counter(&c, name);
        assert_eq!(n("hits") + n("misses"), (THREADS * BEGINS) as u64);
        assert!(n("coalesced") <= n("hits"));
        // Bumps have stopped: the resident entries are the current
        // epoch's keys that predict a hit.
        let entries = (0..3)
            .filter(|q| c.predict(&c.key(&format!("q{q}"), "t<1")))
            .count() as u64;
        assert_eq!(c.bytes(), entries * 32);
        assert!(c.bytes() <= BUDGET);
        assert_eq!(n("inserts"), published.len() as u64);
        assert!(n("inserts") <= built.len() as u64);
    }

    #[test]
    fn stale_build_is_discarded_at_publish() {
        let c = cache(1 << 16);
        let key = c.key("q1", "t<5");
        let Begin::Build(guard) = c.begin(&key) else {
            panic!("must miss");
        };
        c.bump_version();
        assert!(!guard.publish(result_artifact(1, 1), Duration::from_micros(10)));
        assert!(!c.predict(&key));
        assert_eq!(c.bytes(), 0);
        assert!(counter(&c, "invalidations") >= 1);
    }

    #[test]
    fn eviction_is_cost_aware_not_lru() {
        // Two bit vectors: same bytes, one cheap to rebuild, one
        // expensive. The cheap one must be the victim even though the
        // expensive one is older.
        let c = cache(300);
        let expensive = c.key("join", "big");
        if let Begin::Build(g) = c.begin(&expensive) {
            let bits = Arc::new(BitVec::zeros(1024)); // 128 bytes
            g.publish(Artifact::JoinBits(bits), Duration::from_millis(50));
        }
        let cheap = c.key("join", "small");
        if let Begin::Build(g) = c.begin(&cheap) {
            let bits = Arc::new(BitVec::zeros(1024)); // 128 bytes
            g.publish(Artifact::JoinBits(bits), Duration::from_micros(2));
        }
        // 256 of 300 bytes used; a third 128-byte entry forces one out.
        let third = c.key("join", "third");
        if let Begin::Build(g) = c.begin(&third) {
            let bits = Arc::new(BitVec::zeros(1024));
            g.publish(Artifact::JoinBits(bits), Duration::from_millis(10));
        }
        assert!(c.predict(&expensive), "high rebuild cost is retained");
        assert!(!c.predict(&cheap), "cheap-to-rebuild entry evicted");
        assert_eq!(counter(&c, "evictions"), 1);
        assert!(c.bytes() <= 300);
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let c = cache(300);
        let pinned_key = c.key("join", "pinned");
        if let Begin::Build(g) = c.begin(&pinned_key) {
            g.publish(
                Artifact::JoinBits(Arc::new(BitVec::zeros(1600))), // 200 B
                Duration::from_micros(1),
            );
        }
        // Hold a reader reference: strong count > 1.
        let Begin::Hit(held) = c.begin(&pinned_key) else {
            panic!("must hit");
        };
        // This install cannot fit without evicting the pinned entry,
        // so it must be refused — never evict what a reader holds.
        let other = c.key("join", "other");
        if let Begin::Build(g) = c.begin(&other) {
            assert!(!g.publish(
                Artifact::JoinBits(Arc::new(BitVec::zeros(1600))),
                Duration::from_micros(1),
            ));
        }
        assert!(c.predict(&pinned_key));
        assert!(c.bytes() <= c.inner.budget);
        // Release the pin; now the same install succeeds by evicting.
        drop(held);
        if let Begin::Build(g) = c.begin(&other) {
            assert!(g.publish(
                Artifact::JoinBits(Arc::new(BitVec::zeros(1600))),
                Duration::from_micros(1),
            ));
        }
        assert!(!c.predict(&c.key("join", "pinned")));
    }

    #[test]
    fn oversized_artifact_is_refused_outright() {
        let c = cache(64);
        let key = c.key("join", "huge");
        if let Begin::Build(g) = c.begin(&key) {
            assert!(!g.publish(
                Artifact::JoinBits(Arc::new(BitVec::zeros(1 << 20))),
                Duration::from_secs(1),
            ));
        }
        assert_eq!(c.bytes(), 0);
        assert_eq!(counter(&c, "inserts"), 0);
    }

    #[test]
    fn handle_builds_once_then_serves_and_never_serves_the_wrong_type() {
        let c = cache(1 << 16);
        let h = ReuseHandle::new(c.clone(), c.key("q2", "agg=max"));
        let build = || Arc::new(AggHashTable::new(ccp_storage::Aggregate::Max, 8));
        let wrap = |t: &Arc<AggHashTable>| Artifact::AggTable(Arc::clone(t));
        let (first, status) = h.get_or_build(Artifact::agg_table, build, wrap);
        assert_eq!(status, ReuseStatus::Miss);
        let (second, status) =
            h.get_or_build(Artifact::agg_table, || unreachable!("resident"), wrap);
        assert_eq!(status, ReuseStatus::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        // Another operator asking the same key for a bit vector builds
        // its own and leaves the entry alone.
        let (_, status) = h.get_or_build(
            Artifact::join_bits,
            || Arc::new(BitVec::zeros(8)),
            |b| Artifact::JoinBits(Arc::clone(b)),
        );
        assert_eq!(status, ReuseStatus::Miss);
        assert_eq!(counter(&c, "inserts"), 1);
    }
}
