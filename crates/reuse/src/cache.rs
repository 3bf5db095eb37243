//! The sharded, byte-budgeted artifact store with single-flight
//! get-or-compute and cost-aware eviction.
//!
//! ## Locking discipline
//!
//! Two lock kinds exist: one global *install* lock serializing every
//! byte-budget check-then-reserve, and one mutex (plus condvar) per
//! shard. The order is always install-lock → shard-lock; lookups and
//! purges take only their shard lock, and nothing blocks while holding
//! two shard locks at once (cross-shard eviction scans lock shards one
//! at a time). Because every *addition* to `total_bytes` happens under
//! the install lock after a fit check, and all other mutations only
//! subtract, the published byte count can never exceed the budget.

use crate::key::ReuseKey;
use crate::{ReuseStatus, FAULT_REUSE_INSTALL, FAULT_REUSE_LOOKUP};
use ccp_obs::{Counter, Gauge, Registry};
use ccp_storage::{AggHashTable, BitVec};
use ccp_trace::TraceCat;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
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
    pub fn size_bytes(&self) -> u64 {
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

/// Shards of a [`ReuseCache`] (keys are hashed version-independently).
const SHARDS: usize = 8;

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
    /// The epoch the entry was installed under.
    version: u64,
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

struct Shard {
    slots: HashMap<ReuseKey, Slot>,
    /// Epoch this shard last purged against; entries older than the
    /// global epoch are swept the first time the shard is touched.
    seen_version: u64,
}

struct ShardCell {
    state: Mutex<Shard>,
    /// Signalled on publish/abandon so single-flight waiters re-check.
    published: Condvar,
}

/// The non-blocking result of one lookup step (the unit the
/// `ccp-verify` harness interleaves).
pub enum TryBegin {
    /// A published artifact matched the key.
    Hit(Artifact),
    /// The caller is now the single builder for this key.
    Build(BuildGuard),
    /// Another builder holds the key; retry after it publishes or
    /// abandons ([`ReuseCache::begin`] blocks on the shard condvar).
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

/// Point-in-time cache statistics (for `/stats.reuse`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReuseStats {
    /// Lookups served from a published artifact.
    pub hits: u64,
    /// Lookups that claimed a build.
    pub misses: u64,
    /// Artifacts installed.
    pub inserts: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Stale entries swept after a version bump (plus stale in-flight
    /// builds discarded at publish time).
    pub invalidations: u64,
    /// Lookups that waited for a concurrent builder and then hit.
    pub coalesced: u64,
    /// Predicted hits that had vanished by execution time.
    pub mispredictions: u64,
    /// Bytes currently accounted.
    pub bytes: u64,
    /// The configured budget.
    pub budget_bytes: u64,
    /// The current data-version epoch.
    pub data_version: u64,
    /// Published entries currently resident.
    pub entries: u64,
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
    shards: Vec<ShardCell>,
    budget: u64,
    /// Serializes every budget check-then-reserve (see the module docs
    /// for the locking discipline).
    install: Mutex<()>,
    total_bytes: AtomicU64,
    version: AtomicU64,
    /// Logical clock for entry recency (eviction tie-break).
    tick: AtomicU64,
    m: Instruments,
}

/// The cache. Cloning shares state (an `Arc` inside), so the engine,
/// the admission path and the `/data/bump` route can all hold handles.
#[derive(Clone)]
pub struct ReuseCache {
    inner: Arc<Inner>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ReuseCache {
    /// Builds an empty cache.
    pub fn new(config: ReuseConfig) -> Self {
        ReuseCache {
            inner: Arc::new(Inner {
                shards: (0..SHARDS)
                    .map(|_| ShardCell {
                        state: Mutex::new(Shard {
                            slots: HashMap::new(),
                            seen_version: 0,
                        }),
                        published: Condvar::new(),
                    })
                    .collect(),
                budget: config.budget_bytes,
                install: Mutex::new(()),
                total_bytes: AtomicU64::new(0),
                version: AtomicU64::new(0),
                tick: AtomicU64::new(0),
                m: Instruments::new(),
            }),
        }
    }

    /// Mints a key for `query_id`/`predicate` under the *current*
    /// data-version epoch.
    pub fn key(&self, query_id: &str, predicate: &str) -> ReuseKey {
        ReuseKey::new(query_id, predicate, self.current_version())
    }

    /// The current data-version epoch.
    pub fn current_version(&self) -> u64 {
        // ORDERING: the epoch is a monotone counter; readers minting
        // keys only need *a* recent value — a stale read just produces
        // a key that the lazy purge treats as stale.
        self.inner.version.load(Ordering::Relaxed)
    }

    /// Bumps the data-version epoch and returns the new value. O(1):
    /// stale entries are swept lazily, the first time each shard is
    /// touched under the new epoch.
    pub fn bump_version(&self) -> u64 {
        // ORDERING: monotone epoch bump; purge correctness only needs
        // the new value to become visible eventually, and every lookup
        // re-reads it under the shard lock's synchronization.
        let v = self.inner.version.fetch_add(1, Ordering::Relaxed) + 1;
        ccp_trace::instant(TraceCat::Reuse, "reuse_version_bump");
        v
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.inner.budget
    }

    /// Bytes currently accounted to published artifacts.
    pub fn bytes(&self) -> u64 {
        // ORDERING: statistics read; mutations are guarded by the
        // install lock / shard locks.
        self.inner.total_bytes.load(Ordering::Relaxed)
    }

    /// Whether a lookup for `key` would hit *right now*. The admission
    /// path calls this before classification; no counters move (only
    /// exec-time lookups participate in `hits + misses == lookups`).
    pub fn predict(&self, key: &ReuseKey) -> bool {
        let cell = self.shard_for(key);
        let mut shard = lock(&cell.state);
        self.purge_locked(&mut shard);
        matches!(shard.slots.get(key), Some(Slot::Published(_)))
    }

    /// Non-blocking single-flight lookup step. [`ReuseCache::begin`] is
    /// the blocking composition; this twin exists so the interleaving
    /// explorer can drive the protocol one step at a time.
    pub fn try_begin(&self, key: &ReuseKey) -> TryBegin {
        self.try_begin_inner(key, false)
    }

    fn try_begin_inner(&self, key: &ReuseKey, waited: bool) -> TryBegin {
        let vanished = ccp_fault::should_fail(FAULT_REUSE_LOOKUP);
        let cell = self.shard_for(key);
        let mut shard = lock(&cell.state);
        self.purge_locked(&mut shard);
        match shard.slots.get_mut(key) {
            Some(Slot::Published(entry)) if !vanished => {
                // ORDERING: logical recency clock; only uniqueness-ish
                // monotonicity matters for the eviction tie-break.
                entry.last_hit = self.inner.tick.fetch_add(1, Ordering::Relaxed);
                let artifact = entry.artifact.clone();
                drop(shard);
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
                    let freed = entry.bytes;
                    shard.slots.remove(key);
                    self.sub_bytes(freed);
                }
                shard.slots.insert(key.clone(), Slot::Building);
                drop(shard);
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
    /// wait (on the shard condvar) for the builder to publish; if the
    /// builder abandons, one waiter takes over.
    pub fn begin(&self, key: &ReuseKey) -> Begin {
        let mut waited = false;
        loop {
            match self.try_begin_inner(key, waited) {
                TryBegin::Hit(a) => return Begin::Hit(a),
                TryBegin::Build(g) => return Begin::Build(g),
                TryBegin::Pending => {
                    waited = true;
                    let cell = self.shard_for(key);
                    let shard = lock(&cell.state);
                    if matches!(shard.slots.get(key), Some(Slot::Building)) {
                        // Bounded wait: a missed wakeup (or an epoch
                        // bump racing the builder) degrades to a
                        // re-check, never a hang.
                        let _ = cell
                            .published
                            .wait_timeout(shard, Duration::from_millis(20))
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

    /// Point-in-time statistics (for `/stats.reuse`).
    pub fn stats(&self) -> ReuseStats {
        let m = &self.inner.m;
        let entries = self
            .inner
            .shards
            .iter()
            .map(|cell| {
                lock(&cell.state)
                    .slots
                    .values()
                    .filter(|s| matches!(s, Slot::Published(_)))
                    .count() as u64
            })
            .sum();
        ReuseStats {
            hits: m.hits.get(),
            misses: m.misses.get(),
            inserts: m.inserts.get(),
            evictions: m.evictions.get(),
            invalidations: m.invalidations.get(),
            coalesced: m.coalesced.get(),
            mispredictions: m.mispredictions.get(),
            bytes: self.bytes(),
            budget_bytes: self.inner.budget,
            data_version: self.current_version(),
            entries,
        }
    }

    fn shard_for(&self, key: &ReuseKey) -> &ShardCell {
        let mut h = DefaultHasher::new();
        key.shard_seed().hash(&mut h);
        let idx = (h.finish() as usize) % self.inner.shards.len();
        &self.inner.shards[idx]
    }

    /// Sweeps entries older than the current epoch out of a locked
    /// shard; first touch per shard per epoch, amortized O(1).
    fn purge_locked(&self, shard: &mut Shard) {
        let version = self.current_version();
        if shard.seen_version == version {
            return;
        }
        shard.seen_version = version;
        let mut freed = 0u64;
        let mut swept = 0u64;
        shard.slots.retain(|key, slot| match slot {
            Slot::Published(entry) if entry.version < version => {
                let _ = key;
                freed += entry.bytes;
                swept += 1;
                false
            }
            // Building claims survive: their publish notices the stale
            // epoch and discards the artifact itself.
            _ => true,
        });
        if swept > 0 {
            self.sub_bytes(freed);
            self.inner.m.invalidations.add(swept);
            ccp_trace::instant(TraceCat::Reuse, "reuse_invalidate");
        }
    }

    fn sub_bytes(&self, n: u64) {
        // ORDERING: statistics-grade accounting; the budget invariant
        // is enforced by additions under the install lock, and
        // subtractions can only move the total further below budget.
        self.inner.total_bytes.fetch_sub(n, Ordering::Relaxed);
        self.inner.m.bytes.set(self.bytes() as f64);
    }

    /// Evicts until `incoming` fits in the budget. Called with the
    /// install lock held. Returns `false` when not enough unpinned
    /// bytes exist (the incoming artifact is then not installed, so the
    /// budget invariant holds either way).
    fn make_room(&self, incoming: u64) -> bool {
        if incoming > self.inner.budget {
            return false;
        }
        while self.bytes() + incoming > self.inner.budget {
            let mut victim: Option<(usize, ReuseKey, f64, u64)> = None;
            for (idx, cell) in self.inner.shards.iter().enumerate() {
                let shard = lock(&cell.state);
                for (key, slot) in &shard.slots {
                    let Slot::Published(entry) = slot else {
                        continue;
                    };
                    if entry.artifact.is_shared() {
                        continue; // a reader holds it: not a victim
                    }
                    let score = entry.evict_score();
                    let better = match &victim {
                        None => true,
                        Some((_, _, best, last_hit)) => {
                            score > *best || (score == *best && entry.last_hit < *last_hit)
                        }
                    };
                    if better {
                        victim = Some((idx, key.clone(), score, entry.last_hit));
                    }
                }
            }
            let Some((idx, key, _, _)) = victim else {
                return false; // everything left is pinned or building
            };
            let cell = &self.inner.shards[idx];
            let mut shard = lock(&cell.state);
            // Re-check under the lock: a reader may have pinned the
            // victim between the scan and now.
            let evictable = matches!(
                shard.slots.get(&key),
                Some(Slot::Published(e)) if !e.artifact.is_shared()
            );
            if evictable {
                if let Some(Slot::Published(entry)) = shard.slots.remove(&key) {
                    drop(shard);
                    self.sub_bytes(entry.bytes);
                    self.inner.m.evictions.inc();
                    ccp_trace::instant(TraceCat::Reuse, "reuse_evict");
                }
            }
            // If the victim got pinned, loop and pick another.
        }
        true
    }

    /// Installs `artifact` for `key`, replacing the caller's Building
    /// claim. Returns whether the artifact was actually published.
    fn install(&self, key: &ReuseKey, artifact: Artifact, cost: Duration) -> bool {
        let bytes = artifact.size_bytes();
        let reserved = {
            let _g = lock(&self.inner.install);
            if self.make_room(bytes) {
                // ORDERING: the reserve itself; the fit check above ran
                // under the install lock, and concurrent mutations only
                // subtract, so this add cannot overshoot the budget.
                self.inner.total_bytes.fetch_add(bytes, Ordering::Relaxed);
                true
            } else {
                false
            }
        };
        let stale = key.data_version() < self.current_version();
        let cell = self.shard_for(key);
        let mut shard = lock(&cell.state);
        // Whatever happens, the Building claim is released.
        if matches!(shard.slots.get(key), Some(Slot::Building)) {
            shard.slots.remove(key);
        }
        let published = reserved && !stale;
        if published {
            let cost_us = (cost.as_micros() as u64).max(1);
            // ORDERING: logical recency clock (see try_begin_inner).
            let last_hit = self.inner.tick.fetch_add(1, Ordering::Relaxed);
            shard.slots.insert(
                key.clone(),
                Slot::Published(Entry {
                    artifact,
                    bytes,
                    cost_us,
                    version: key.data_version(),
                    last_hit,
                }),
            );
        }
        cell.published.notify_all();
        drop(shard);
        if published {
            self.inner.m.bytes.set(self.bytes() as f64);
            self.inner.m.inserts.inc();
            ccp_trace::instant(TraceCat::Reuse, "reuse_install");
        } else if reserved {
            // Reserved but stale: a version bump raced the build.
            self.sub_bytes(bytes);
            self.inner.m.invalidations.inc();
        }
        published
    }

    /// Releases a Building claim without publishing; one waiter (if
    /// any) becomes the next builder.
    fn abandon(&self, key: &ReuseKey) {
        let cell = self.shard_for(key);
        let mut shard = lock(&cell.state);
        if matches!(shard.slots.get(key), Some(Slot::Building)) {
            shard.slots.remove(key);
        }
        cell.published.notify_all();
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
    /// The key this guard claims.
    pub fn key(&self) -> &ReuseKey {
        &self.key
    }

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

    fn cache(budget: u64) -> ReuseCache {
        ReuseCache::new(ReuseConfig::with_budget(budget))
    }

    fn result_artifact(rows: u64, result: i64) -> Artifact {
        Artifact::ResultSet(Arc::new(ResultSet { rows, result }))
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
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(s.hits + s.misses, 2, "hits + misses == lookups");
        assert_eq!(s.entries, 1);
        assert!(s.bytes > 0 && s.bytes <= s.budget_bytes);
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
        assert_eq!(c.stats().misses, 2);
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
        let s = c.stats();
        assert_eq!(s.coalesced, 1, "the waiter hit without building");
        assert_eq!(s.hits + s.misses, 2);
    }

    #[test]
    fn version_bump_invalidates_lazily() {
        let c = cache(1 << 16);
        let key = c.key("q1", "t<5");
        if let Begin::Build(g) = c.begin(&key) {
            g.publish(result_artifact(1, 1), Duration::from_micros(10));
        }
        assert!(c.predict(&key));
        let v = c.bump_version();
        assert_eq!(v, 1);
        // The old-version key no longer predicts, the new one misses.
        let fresh = c.key("q1", "t<5");
        assert!(!c.predict(&fresh));
        assert!(matches!(c.begin(&fresh), Begin::Build(_)));
        let s = c.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0, "invalidation returns the bytes");
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
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert!(s.invalidations >= 1);
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
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= s.budget_bytes);
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
        assert!(c.bytes() <= c.budget_bytes());
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
        assert_eq!(c.stats().inserts, 0);
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
        assert_eq!(c.stats().inserts, 1);
    }
}
