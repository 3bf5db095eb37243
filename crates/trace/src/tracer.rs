//! The process-global tracer: enable/disable, per-thread ring
//! registration and recycling, span guards and snapshots.

use std::cell::OnceCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::export::{ThreadInfo, TraceSnapshot};
use crate::ring::{Record, SpanRing, KIND_INSTANT, KIND_SPAN, MAX_NAME};
use crate::TraceCat;

/// Tuning knobs passed to [`enable`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Slots per thread-local ring; oldest records are overwritten (and
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

/// Process-global tracer state. Use the free functions ([`enable`],
/// [`span`], [`snapshot`], …) rather than holding one of these.
pub struct Tracer {
    enabled: AtomicBool,
    ring_capacity: AtomicU64,
    next_tid: AtomicU32,
    /// Every live ring plus up to [`DEAD_RING_RETAIN`] rings of
    /// recently-exited threads (kept so late snapshots still see their
    /// final events — a query's spans outlive its worker). Beyond that
    /// budget, a new thread *recycles* the longest-dead ring instead of
    /// registering a fresh one, so the registry is bounded by the peak
    /// number of concurrently-traced threads plus the retention budget —
    /// not by the number of threads ever created (servers churn through
    /// one short-lived thread per connection). Ordered by registration
    /// recency: recycled entries move to the back.
    rings: Mutex<Vec<RegisteredRing>>,
    /// Zero point for all timestamps (first use of the tracer).
    epoch: Instant,
}

struct RegisteredRing {
    ring: Arc<SpanRing>,
    tid: u32,
    thread_name: String,
}

fn global() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        ring_capacity: AtomicU64::new(TraceConfig::default().ring_capacity as u64),
        next_tid: AtomicU32::new(1),
        rings: Mutex::new(Vec::new()),
        epoch: Instant::now(),
    })
}

thread_local! {
    /// This thread's ring handle, installed on first recorded event.
    /// Unset until then so threads that never trace pay nothing but the
    /// enabled check. Dropped at thread exit, which releases this
    /// thread's `Arc` clone — the registry detects that (strong count
    /// back at 1) and eventually hands the ring to a later registering
    /// thread (see [`register_local_ring`]).
    static LOCAL_RING: OnceCell<Arc<SpanRing>> = const { OnceCell::new() };
}

/// Runs `f` with this thread's ring handle, registering (or recycling)
/// a ring on first use. Returns `None` only during thread destruction,
/// when the thread-local is no longer accessible.
fn with_local<R>(t: &'static Tracer, f: impl FnOnce(&Arc<SpanRing>) -> R) -> Option<R> {
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
/// this thread instead of growing the registry. Dead rings whose
/// capacity no longer matches the configuration are pruned outright.
fn register_local_ring(t: &'static Tracer) -> Arc<SpanRing> {
    // ORDERING: config knob and tid counter — the capacity is a hint
    // (rings created around a reconfigure may use either value) and the
    // tid only needs uniqueness, which fetch_add provides at any
    // strength.
    let capacity = (t.ring_capacity.load(Ordering::Relaxed) as usize).max(8);
    let thread_name = std::thread::current().name().map(str::to_owned);
    let tid = t.next_tid.fetch_add(1, Ordering::Relaxed);
    let thread_name = thread_name.unwrap_or_else(|| format!("thread-{tid}"));
    let mut rings = t.rings.lock().expect("tracer registry");
    rings.retain(|reg| Arc::strong_count(&reg.ring) > 1 || reg.ring.capacity() == capacity);
    let dead: Vec<usize> = (0..rings.len())
        .filter(|&i| Arc::strong_count(&rings[i].ring) == 1)
        .collect();
    if dead.len() >= DEAD_RING_RETAIN {
        // `dead[0]` is the least recently registered dead entry; move it
        // to the back so the order keeps tracking recency.
        let mut reg = rings.remove(dead[0]);
        reg.ring.recycle();
        reg.tid = tid;
        reg.thread_name = thread_name;
        let ring = Arc::clone(&reg.ring);
        rings.push(reg);
        ring
    } else {
        let ring = Arc::new(SpanRing::new(capacity));
        rings.push(RegisteredRing {
            ring: Arc::clone(&ring),
            tid,
            thread_name,
        });
        ring
    }
}

/// Microseconds since the tracer's epoch.
fn now_us(t: &Tracer) -> u64 {
    t.epoch.elapsed().as_micros() as u64
}

/// Turns tracing on with the given configuration. Idempotent;
/// reconfiguring applies to rings created after the call.
pub fn enable(config: TraceConfig) {
    let t = global();
    // ORDERING: an independent config cell plus an on/off flag; trace
    // points that race the enable may record or skip a span either way,
    // and nothing downstream dereferences memory guarded by the flag.
    t.ring_capacity
        .store(config.ring_capacity.max(8) as u64, Ordering::Relaxed);
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
    let mut name_buf = [0u8; MAX_NAME];
    let stored = crate::ring::truncated_utf8(name);
    name_buf[..stored.len()].copy_from_slice(stored);
    SpanGuard {
        ring: Some(ring),
        start_us: now_us(t),
        cat,
        id,
        name: name_buf,
        name_len: stored.len() as u8,
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
        ring.push(now_us(t), 0, KIND_INSTANT, cat, id, name);
    });
}

/// An in-flight span; writes its record (start timestamp + duration)
/// into the owning thread's ring when dropped.
///
/// Dropping on a different thread than the one that created it would
/// break the single-writer ring protocol, so the guard is deliberately
/// `!Send`. It holds its own `Arc` clone of the ring, which also keeps
/// the ring out of the recycler while the span is open.
pub struct SpanGuard {
    /// `None` for inert guards (tracing disabled).
    ring: Option<Arc<SpanRing>>,
    start_us: u64,
    cat: TraceCat,
    id: u64,
    name: [u8; MAX_NAME],
    name_len: u8,
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
            name: [0; MAX_NAME],
            name_len: 0,
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
            let name = std::str::from_utf8(&self.name[..self.name_len as usize]).unwrap_or("");
            ring.push(
                self.start_us,
                end.saturating_sub(self.start_us),
                KIND_SPAN,
                self.cat,
                self.id,
                name,
            );
        }
    }
}

/// Collects every ring into one snapshot (events sorted per thread by
/// the exporter, drop totals summed across rings).
pub fn snapshot() -> TraceSnapshot {
    snapshot_inner(false)
}

/// Like [`snapshot`], but additionally hides exactly the records the
/// snapshot observed (`GET /trace?clear=1`): spans recorded while the
/// snapshot was being taken stay visible for the next one, so a
/// scrape-then-clear loop sees each span exactly once.
pub fn snapshot_and_clear() -> TraceSnapshot {
    snapshot_inner(true)
}

fn snapshot_inner(clear: bool) -> TraceSnapshot {
    let t = global();
    let rings = t.rings.lock().expect("tracer registry");
    let mut events = Vec::new();
    let mut threads = Vec::with_capacity(rings.len());
    let mut dropped_total = 0u64;
    for reg in rings.iter() {
        let mut records: Vec<Record> = Vec::new();
        let head = reg.ring.collect(&mut records);
        dropped_total += reg.ring.dropped();
        if clear {
            reg.ring.clear_to(head);
        }
        threads.push(ThreadInfo {
            tid: reg.tid,
            name: reg.thread_name.clone(),
        });
        events.extend(
            records
                .into_iter()
                .map(|r| crate::export::event_from_record(r, reg.tid)),
        );
    }
    TraceSnapshot {
        events,
        threads,
        dropped: dropped_total,
    }
}

/// Point-in-time counters of the process tracer, cheap enough for a
/// `/stats` poll: how many rings exist (live threads plus retained dead
/// ones) and how many records were lost to wrap-around or recycling
/// since the last clear. A rising `dropped` under sustained load means
/// `/trace` timelines have holes — raise the ring capacity or scrape
/// (with `clear=1`) more often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerStats {
    /// Whether tracing is currently enabled.
    pub enabled: bool,
    /// Registered rings (one per traced thread, plus retained dead rings).
    pub rings: usize,
    /// Records lost to ring wrap-around or recycling since the last clear,
    /// summed across rings.
    pub dropped: u64,
}

/// Snapshot of the tracer's ring/overflow counters (see [`TracerStats`]).
pub fn stats() -> TracerStats {
    let t = global();
    let rings = t.rings.lock().expect("tracer registry");
    TracerStats {
        // ORDERING: point-in-time stats read; staleness is inherent to a
        // scrape.
        enabled: t.enabled.load(Ordering::Relaxed),
        rings: rings.len(),
        dropped: rings.iter().map(|r| r.ring.dropped()).sum(),
    }
}

/// Total records lost to ring wrap-around since the last [`clear`].
pub fn dropped() -> u64 {
    let t = global();
    t.rings
        .lock()
        .expect("tracer registry")
        .iter()
        .map(|r| r.ring.dropped())
        .sum()
}

/// Forgets all recorded events: subsequent snapshots only contain events
/// recorded after this call. Prefer [`snapshot_and_clear`] when pairing
/// with a snapshot — a separate snapshot-then-`clear` sequence silently
/// hides anything recorded in between.
pub fn clear() {
    let t = global();
    for reg in t.rings.lock().expect("tracer registry").iter() {
        reg.ring.clear();
    }
}
