//! The process-global tracer: enable/disable, per-thread ring
//! registration and recycling, span guards and snapshots.
//!
//! Lock order: the registry, then a ring. A push takes only its own
//! ring's lock, which only a scrape (`snapshot`, `dropped`, `clear`)
//! ever contends.

use std::cell::OnceCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::export::{ThreadInfo, TraceEvent, TraceSnapshot};
use crate::ring::{Name, Record, Ring};
use crate::{TraceCat, TraceEventKind};

/// Tuning knobs passed to [`enable`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Records per thread-local ring; oldest records are overwritten (and
    /// counted as dropped) beyond this.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            ring_capacity: 4096,
        }
    }
}

/// One thread's ring, shared between the thread (which pushes) and the
/// registry (which snapshots).
type SharedRing = Arc<Mutex<Ring>>;

/// Process-global tracer state, reached through the free functions.
struct Tracer {
    enabled: AtomicBool,
    registry: Mutex<Registry>,
    /// Zero point for all timestamps (first use of the tracer).
    epoch: Instant,
}

struct Registry {
    /// Records per ring for rings created (or recycled) from now on.
    ring_capacity: usize,
    next_tid: u32,
    /// Every live ring plus up to [`DEAD_RING_RETAIN`] rings of
    /// recently-exited threads (kept so late snapshots still see their
    /// final events — a query's spans outlive its worker). Beyond that
    /// budget, a new thread *recycles* the longest-dead ring instead of
    /// registering a fresh one, so the registry is bounded by the peak
    /// number of concurrently-traced threads plus the retention budget —
    /// not by the number of threads ever created (servers churn through
    /// one short-lived thread per connection). Ordered by registration
    /// recency: recycled entries move to the back.
    rings: Vec<RegisteredRing>,
}

struct RegisteredRing {
    ring: SharedRing,
    tid: u32,
    thread_name: String,
}

fn global() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        registry: Mutex::new(Registry {
            ring_capacity: TraceConfig::default().ring_capacity,
            next_tid: 1,
            rings: Vec::new(),
        }),
        epoch: Instant::now(),
    })
}

/// Locks `m`, recovering from poison: no update of a ring or the
/// registry can leave it invalid, and tracing must never panic its
/// caller.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// This thread's ring handle, installed on first recorded event.
    /// Unset until then so threads that never trace pay nothing but the
    /// enabled check. Dropped at thread exit, which releases this
    /// thread's `Arc` clone — the registry detects that (strong count
    /// back at 1) and eventually hands the ring to a later registering
    /// thread (see [`register_local_ring`]).
    static LOCAL_RING: OnceCell<SharedRing> = const { OnceCell::new() };
}

/// Runs `f` with this thread's ring handle, registering (or recycling)
/// a ring on first use. Returns `None` only during thread destruction,
/// when the thread-local is no longer accessible.
fn with_local<R>(t: &'static Tracer, f: impl FnOnce(&SharedRing) -> R) -> Option<R> {
    LOCAL_RING
        .try_with(|cell| f(cell.get_or_init(|| register_local_ring(t))))
        .ok()
}

/// Dead rings kept snapshottable before new threads start recycling
/// them. Deep enough that a `/trace` scrape still sees the spans of
/// query/connection threads that just exited, shallow enough that a
/// connection-churning server stays at a few MiB of retained rings.
const DEAD_RING_RETAIN: usize = 8;

/// Registers this thread with the tracer. A ring counts as *dead* when
/// the registry's `Arc` is the only clone left — the owner's
/// thread-local (and any span guards) are gone. Dead rings within the
/// [`DEAD_RING_RETAIN`] budget are left alone so their final events stay
/// snapshottable; past the budget, the longest-dead ring is recycled for
/// this thread instead of growing the registry: its records are counted
/// as dropped, and it is resized to the configured capacity.
fn register_local_ring(t: &'static Tracer) -> SharedRing {
    let mut reg = lock(&t.registry);
    let tid = reg.next_tid;
    reg.next_tid += 1;
    let thread_name = std::thread::current()
        .name()
        .map_or_else(|| format!("thread-{tid}"), str::to_owned);
    let capacity = reg.ring_capacity;
    let dead: Vec<usize> = (0..reg.rings.len())
        .filter(|&i| Arc::strong_count(&reg.rings[i].ring) == 1)
        .collect();
    let entry = if dead.len() >= DEAD_RING_RETAIN {
        // `dead[0]` is the least recently registered dead entry; move it
        // to the back so the order keeps tracking recency.
        let mut entry = reg.rings.remove(dead[0]);
        lock(&entry.ring).reset(capacity);
        entry.tid = tid;
        entry.thread_name = thread_name;
        entry
    } else {
        RegisteredRing {
            ring: Arc::new(Mutex::new(Ring::new(capacity))),
            tid,
            thread_name,
        }
    };
    let ring = Arc::clone(&entry.ring);
    reg.rings.push(entry);
    ring
}

/// Microseconds since the tracer's epoch.
fn now_us(t: &Tracer) -> u64 {
    t.epoch.elapsed().as_micros() as u64
}

/// Turns tracing on with the given configuration. Idempotent;
/// reconfiguring applies to rings created or recycled after the call.
pub fn enable(config: TraceConfig) {
    let t = global();
    lock(&t.registry).ring_capacity = config.ring_capacity.max(8);
    // ORDERING: an on/off flag; trace points that race the enable may
    // record or skip a span either way, and nothing downstream
    // dereferences memory guarded by the flag.
    t.enabled.store(true, Ordering::Relaxed);
}

/// Turns tracing off. Already-recorded events stay snapshottable.
pub fn disable() {
    // ORDERING: see `enable` — the flag gates only whether spans are
    // recorded, never what memory is safe to touch.
    global().enabled.store(false, Ordering::Relaxed);
}

/// Whether tracing is currently on (one relaxed atomic load — this is
/// the entire cost of a disabled trace point).
#[inline]
pub fn enabled() -> bool {
    // ORDERING: advisory flag read on the hot path; a stale value only
    // delays when trace points notice a toggle.
    global().enabled.load(Ordering::Relaxed)
}

/// Starts a span; the record is written when the guard drops. Returns
/// an inert guard (no ring write ever) when tracing is disabled.
#[inline]
pub fn span(cat: TraceCat, name: &str) -> SpanGuard {
    span_id(cat, name, 0)
}

/// Like [`span`] but tags the record with a correlation id (query id),
/// exported as `args.query`.
#[inline]
pub fn span_id(cat: TraceCat, name: &str, id: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    let t = global();
    let Some(ring) = with_local(t, Arc::clone) else {
        return SpanGuard::inert();
    };
    SpanGuard {
        ring: Some(ring),
        start_us: now_us(t),
        cat,
        id,
        name: Name::new(name),
        _not_send: PhantomData,
    }
}

/// Records a zero-duration instant event (admission bypass, timeout …).
pub fn instant(cat: TraceCat, name: &str) {
    instant_id(cat, name, 0);
}

/// Like [`instant`] with a correlation id.
pub fn instant_id(cat: TraceCat, name: &str, id: u64) {
    if !enabled() {
        return;
    }
    let t = global();
    let _ = with_local(t, |ring| {
        lock(ring).push(Record {
            ts_us: now_us(t),
            dur_us: 0,
            kind: TraceEventKind::Instant,
            cat,
            id,
            name: Name::new(name),
        });
    });
}

/// An in-flight span; writes its record (start timestamp + duration)
/// into the owning thread's ring when dropped.
///
/// The guard is `!Send`, so a thread's ring only ever holds that
/// thread's spans. It holds its own `Arc` clone of the ring, which also
/// keeps the ring out of the recycler while the span is open.
pub struct SpanGuard {
    /// `None` for inert guards (tracing disabled).
    ring: Option<SharedRing>,
    start_us: u64,
    cat: TraceCat,
    id: u64,
    name: Name,
    /// Keeps the guard `!Send` (see the type-level doc).
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn inert() -> SpanGuard {
        SpanGuard {
            ring: None,
            start_us: 0,
            cat: TraceCat::Query,
            id: 0,
            name: Name::new(""),
            _not_send: PhantomData,
        }
    }

    /// Whether this guard will record on drop.
    pub fn is_recording(&self) -> bool {
        self.ring.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(ring) = &self.ring {
            let end = now_us(global());
            lock(ring).push(Record {
                ts_us: self.start_us,
                dur_us: end.saturating_sub(self.start_us),
                kind: TraceEventKind::Span,
                cat: self.cat,
                id: self.id,
                name: self.name,
            });
        }
    }
}

/// Collects every ring into one snapshot (events sorted per thread by
/// the exporter, drop totals summed across rings).
pub fn snapshot() -> TraceSnapshot {
    snapshot_inner(false)
}

/// Like [`snapshot`], but also empties every ring (`GET /trace?clear=1`).
/// Each ring is copied and emptied in one hold of its lock, so a
/// scrape-then-clear loop sees each record exactly once.
pub fn snapshot_and_clear() -> TraceSnapshot {
    snapshot_inner(true)
}

fn snapshot_inner(clear: bool) -> TraceSnapshot {
    let reg = lock(&global().registry);
    let mut events = Vec::new();
    let mut threads = Vec::with_capacity(reg.rings.len());
    let mut dropped = 0u64;
    let mut copied: Vec<Record> = Vec::new();
    for entry in &reg.rings {
        {
            let mut ring = lock(&entry.ring);
            copied.clear();
            copied.extend(ring.records().copied());
            dropped += ring.dropped();
            if clear {
                ring.clear();
            }
        }
        // Decoding allocates a name per record; it runs after the owner
        // is free to push again.
        events.extend(copied.iter().map(|r| TraceEvent {
            tid: entry.tid,
            ts_us: r.ts_us,
            dur_us: r.dur_us,
            kind: r.kind,
            cat: r.cat,
            id: r.id,
            name: r.name.as_str().to_owned(),
        }));
        threads.push(ThreadInfo {
            tid: entry.tid,
            name: entry.thread_name.clone(),
        });
    }
    TraceSnapshot {
        events,
        threads,
        dropped,
    }
}

/// Total records lost to ring wrap-around or recycling since the last
/// [`clear`].
pub fn dropped() -> u64 {
    let reg = lock(&global().registry);
    reg.rings.iter().map(|r| lock(&r.ring).dropped()).sum()
}

/// Forgets all recorded events: subsequent snapshots only contain events
/// recorded after this call. Prefer [`snapshot_and_clear`] when pairing
/// with a snapshot — a separate snapshot-then-`clear` sequence silently
/// hides anything recorded in between.
pub fn clear() {
    for entry in &lock(&global().registry).rings {
        lock(&entry.ring).clear();
    }
}
