//! The bounded per-thread event ring with seqlock slots.
//!
//! One ring is owned (written) by exactly one thread; any thread may
//! snapshot it concurrently. Every field of every slot is an atomic, so
//! the whole structure is `unsafe`-free: torn reads are *detected* (via
//! the per-slot sequence number) rather than prevented.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::TraceCat;

/// Longest event name stored inline in a slot; longer names are
/// truncated (a fixed slot size is what keeps recording allocation-free).
pub(crate) const MAX_NAME: usize = 24;

/// Record kinds stored in a slot.
pub(crate) const KIND_SPAN: u8 = 0;
pub(crate) const KIND_INSTANT: u8 = 1;

/// One fixed-size event slot. Layout (8 × `u64` = 64 bytes, one cache
/// line on the paper's Broadwell target):
///
/// * `seq` — seqlock word: odd while the owner is writing, even and
///   equal to `2 × generation` once the record for write index `i`
///   (generation `i / capacity + 1`) is complete.
/// * `ts_us` / `dur_us` — start timestamp and duration in microseconds.
/// * `meta` — packed `kind | cat << 8 | name_len << 16`.
/// * `id` — correlation id (query id), `0` if none.
/// * `name` — up to [`MAX_NAME`] UTF-8 bytes, little-endian packed.
struct Slot {
    seq: AtomicU64,
    ts_us: AtomicU64,
    dur_us: AtomicU64,
    meta: AtomicU64,
    id: AtomicU64,
    name: [AtomicU64; 3],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts_us: AtomicU64::new(0),
            dur_us: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            id: AtomicU64::new(0),
            name: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// A decoded record read back out of a ring.
///
/// Public so external harnesses (the `ccp-verify` interleaving checker)
/// can drive a [`SpanRing`] directly and assert on what
/// [`collect`](SpanRing::collect) observed.
#[derive(Debug, Clone)]
pub struct Record {
    /// Start timestamp, microseconds since the tracer epoch.
    pub ts_us: u64,
    /// Duration in microseconds (`0` for instants).
    pub dur_us: u64,
    /// Record kind: `0` for spans, `1` for instants.
    pub kind: u8,
    /// Layer the record came from.
    pub cat: TraceCat,
    /// Correlation id (query id), `0` if none.
    pub id: u64,
    /// Event name (truncated to the inline limit).
    pub name: String,
}

/// A bounded single-writer, many-reader event ring.
///
/// The owning thread calls `push`; snapshot readers
/// call [`collect`](SpanRing::collect). When the ring wraps, the oldest
/// record is overwritten and [`dropped`](SpanRing::dropped) increments.
pub struct SpanRing {
    slots: Vec<Slot>,
    /// Monotone count of records ever pushed (written only by the owner).
    head: AtomicU64,
    /// Records overwritten by wrap-around since creation.
    dropped: AtomicU64,
    /// Snapshot floor set by [`clear`](SpanRing::clear): records with
    /// write index below this are invisible to `collect`.
    cleared_upto: AtomicU64,
    /// `dropped` value at the last `clear`, so drop counts are reported
    /// per snapshot window.
    dropped_base: AtomicU64,
}

impl SpanRing {
    /// Creates a ring holding `capacity` slots (min 8).
    pub fn new(capacity: usize) -> SpanRing {
        let capacity = capacity.max(8);
        SpanRing {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cleared_upto: AtomicU64::new(0),
            dropped_base: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records overwritten by wrap-around since the last clear.
    pub fn dropped(&self) -> u64 {
        // ORDERING: statistics read of two monotone counters; a stale or
        // torn pair only misreports a count transiently, no memory is
        // accessed based on the result (hence saturating_sub).
        self.dropped
            .load(Ordering::Relaxed)
            .saturating_sub(self.dropped_base.load(Ordering::Relaxed))
    }

    /// Writes one span record (a completed span: start + duration).
    ///
    /// Must only be called by the ring's single owner — see
    /// `push` for the seqlock contract.
    pub fn push_span(&self, ts_us: u64, dur_us: u64, cat: TraceCat, id: u64, name: &str) {
        self.push(ts_us, dur_us, KIND_SPAN, cat, id, name);
    }

    /// Writes one zero-duration instant record.
    ///
    /// Must only be called by the ring's single owner — see
    /// `push` for the seqlock contract.
    pub fn push_instant(&self, ts_us: u64, cat: TraceCat, id: u64, name: &str) {
        self.push(ts_us, 0, KIND_INSTANT, cat, id, name);
    }

    /// Writes one record. Must only be called by the owning thread —
    /// the seqlock protocol assumes a single writer.
    pub(crate) fn push(
        &self,
        ts_us: u64,
        dur_us: u64,
        kind: u8,
        cat: TraceCat,
        id: u64,
        name: &str,
    ) {
        let cap = self.slots.len() as u64;
        // ORDERING: single-writer ring — only the owner mutates `head`, so
        // a relaxed self-read returns the exact last value it stored.
        let i = self.head.load(Ordering::Relaxed);
        let generation = i / cap + 1;
        let slot = &self.slots[(i % cap) as usize];

        // Seqlock write: mark odd, publish fields, mark even.
        // ORDERING: the odd-seq store may be relaxed because the Release
        // *fence* right after it orders it before every field store below
        // for any reader that acquires the final even seq; the field
        // stores themselves are relaxed for the same reason.
        slot.seq.store(2 * generation - 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let name_bytes = truncated_utf8(name);
        slot.ts_us.store(ts_us, Ordering::Relaxed);
        slot.dur_us.store(dur_us, Ordering::Relaxed);
        // ORDERING: still inside the seqlock write window — these relaxed
        // stores are published by the closing Release on `seq`.
        slot.meta.store(
            kind as u64 | (cat as u64) << 8 | (name_bytes.len() as u64) << 16,
            Ordering::Relaxed,
        );
        slot.id.store(id, Ordering::Relaxed);
        let mut packed = [0u8; MAX_NAME];
        packed[..name_bytes.len()].copy_from_slice(name_bytes);
        // ORDERING: still inside the odd/even seq window opened above —
        // relaxed name-word stores are published by the Release below.
        for (w, chunk) in slot.name.iter().zip(packed.chunks_exact(8)) {
            w.store(
                u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
                Ordering::Relaxed,
            );
        }
        // ORDERING: Release closes the seqlock write: a reader that
        // acquire-loads this even seq sees every field store above it.
        slot.seq.store(2 * generation, Ordering::Release);

        // A wrap only drops a record the world could still see. Slots
        // below the cleared floor were either delivered to a snapshot
        // (`clear_to`) or already counted dropped (`recycle`); counting
        // them again would overstate loss — the ccp-verify recycle
        // harness found exactly that double-count under the schedule
        // "11 pushes, recycle, push".
        // ORDERING: relaxed floor read and counter bump — `dropped` is a
        // monotone statistic, and `cleared_upto` only ever grows, so a
        // stale read at worst counts a drop for an already-hidden record.
        if i >= cap && i - cap >= self.cleared_upto.load(Ordering::Relaxed) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        // ORDERING: Release publishes the completed slot (and its even
        // seq) before the new head; `collect`'s Acquire head-load is the
        // matching edge that makes index `i` safe to read.
        self.head.store(i + 1, Ordering::Release);
    }

    /// Reads every currently-valid record, skipping torn slots (slots
    /// the owner is rewriting right now, or has already lapped). Returns
    /// the head (write index) this snapshot observed, so callers can
    /// later [`clear_to`](SpanRing::clear_to) exactly what they read.
    ///
    /// Safe to call from any thread, concurrently with the owner's
    /// writes.
    pub fn collect(&self, out: &mut Vec<Record>) -> u64 {
        let cap = self.slots.len() as u64;
        // ORDERING: Acquire pairs with the writer's Release head-store —
        // every slot below this head is fully published before we read it.
        let head = self.head.load(Ordering::Acquire);
        // ORDERING: the floor is advisory (it only hides records); a stale
        // relaxed read shows at most already-cleared records again.
        let floor = self
            .cleared_upto
            .load(Ordering::Relaxed)
            .max(head.saturating_sub(cap));
        for i in floor..head {
            let slot = &self.slots[(i % cap) as usize];
            let expect = 2 * (i / cap + 1);
            // ORDERING: Acquire on the seq word pairs with the writer's
            // closing Release, ordering the field loads below after it.
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != expect {
                continue; // being written, or already overwritten
            }
            // ORDERING: field loads are relaxed; the seqlock re-check
            // after the Acquire fence below rejects any torn read.
            let ts_us = slot.ts_us.load(Ordering::Relaxed);
            let dur_us = slot.dur_us.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let id = slot.id.load(Ordering::Relaxed);
            let mut packed = [0u8; MAX_NAME];
            // ORDERING: same seqlock-validated window as the loads above.
            for (w, chunk) in slot.name.iter().zip(packed.chunks_exact_mut(8)) {
                chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
            }
            // ORDERING: the fence orders the field loads above before the
            // relaxed seq re-load — if the writer touched the slot in
            // between, the seq changed and the record is discarded.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn: writer lapped us mid-read
            }
            let name_len = ((meta >> 16) & 0xff) as usize;
            out.push(Record {
                ts_us,
                dur_us,
                kind: (meta & 0xff) as u8,
                cat: TraceCat::from_u8(((meta >> 8) & 0xff) as u8),
                id,
                name: String::from_utf8_lossy(&packed[..name_len.min(MAX_NAME)]).into_owned(),
            });
        }
        head
    }

    /// Hides all current records from future snapshots and rebases the
    /// drop counter. The owner keeps writing unimpeded.
    pub fn clear(&self) {
        // ORDERING: Acquire matches the writer's Release head-store so the
        // floor lands at a head whose records are fully published.
        self.clear_to(self.head.load(Ordering::Acquire));
    }

    /// Hides records below write index `upto` (as previously observed by
    /// [`collect`](SpanRing::collect)) and rebases the drop counter.
    /// Records pushed after that observation stay visible, so a
    /// snapshot-then-clear pair never loses events recorded in between.
    /// The floor only moves forward.
    pub fn clear_to(&self, upto: u64) {
        // ORDERING: the floor is a monotone visibility hint (fetch_max
        // keeps it from moving backwards under racing clears) and the
        // drop rebase is statistics-only — neither guards other memory,
        // so relaxed suffices throughout.
        self.cleared_upto.fetch_max(upto, Ordering::Relaxed);
        self.dropped_base
            .store(self.dropped.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Reclaims the ring for a new owner thread: the previous owner's
    /// still-visible records are *counted as dropped* (they are being
    /// discarded, and the retained-plus-dropped accounting must stay
    /// exact) and then hidden. `head` keeps rising monotonically, so the
    /// seqlock generations of already-written slots stay consistent for
    /// the next owner.
    pub fn recycle(&self) {
        let cap = self.slots.len() as u64;
        // ORDERING: Acquire pairs with the writer's Release head-store;
        // recycle runs when the owner thread is gone, so this head is
        // final.
        let head = self.head.load(Ordering::Acquire);
        // ORDERING: floor read, drop accounting, and floor raise are all
        // statistics/visibility updates with a dead writer — relaxed.
        let floor = self
            .cleared_upto
            .load(Ordering::Relaxed)
            .max(head.saturating_sub(cap));
        // ORDERING: monotone drop counter and monotone floor — relaxed,
        // as above.
        self.dropped
            .fetch_add(head.saturating_sub(floor), Ordering::Relaxed);
        self.cleared_upto.fetch_max(head, Ordering::Relaxed);
    }
}

/// Truncates `name` to at most [`MAX_NAME`] bytes on a char boundary so
/// the stored prefix stays valid UTF-8.
pub(crate) fn truncated_utf8(name: &str) -> &[u8] {
    if name.len() <= MAX_NAME {
        return name.as_bytes();
    }
    let mut end = MAX_NAME;
    while end > 0 && !name.is_char_boundary(end) {
        end -= 1;
    }
    &name.as_bytes()[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_named(ring: &SpanRing, n: u64, name: &str) {
        ring.push(n, 1, KIND_SPAN, TraceCat::Op, n, name);
    }

    #[test]
    fn records_round_trip() {
        let ring = SpanRing::new(16);
        ring.push(100, 25, KIND_SPAN, TraceCat::Bind, 7, "bind");
        ring.push(130, 0, KIND_INSTANT, TraceCat::Admission, 0, "bypass");
        let mut out = Vec::new();
        ring.collect(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts_us, 100);
        assert_eq!(out[0].dur_us, 25);
        assert_eq!(out[0].cat, TraceCat::Bind);
        assert_eq!(out[0].id, 7);
        assert_eq!(out[0].name, "bind");
        assert_eq!(out[1].kind, KIND_INSTANT);
        assert_eq!(out[1].name, "bypass");
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let ring = SpanRing::new(8);
        for i in 0..20 {
            push_named(&ring, i, "e");
        }
        let mut out = Vec::new();
        ring.collect(&mut out);
        assert_eq!(out.len(), 8);
        assert_eq!(out.first().unwrap().ts_us, 12);
        assert_eq!(out.last().unwrap().ts_us, 19);
        assert_eq!(ring.dropped(), 12);
    }

    #[test]
    fn clear_hides_existing_records_and_rebases_drops() {
        let ring = SpanRing::new(8);
        for i in 0..10 {
            push_named(&ring, i, "e");
        }
        ring.clear();
        assert_eq!(ring.dropped(), 0);
        let mut out = Vec::new();
        ring.collect(&mut out);
        assert!(out.is_empty());
        push_named(&ring, 99, "after");
        ring.collect(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts_us, 99);
    }

    #[test]
    fn clear_to_keeps_records_pushed_after_the_observed_head() {
        let ring = SpanRing::new(8);
        push_named(&ring, 1, "before");
        let mut out = Vec::new();
        let head = ring.collect(&mut out);
        assert_eq!(out.len(), 1);
        // A record lands between the snapshot and the clear…
        push_named(&ring, 2, "between");
        ring.clear_to(head);
        // …and must survive for the next snapshot.
        out.clear();
        ring.collect(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "between");
        // The floor never moves backwards.
        ring.clear();
        ring.clear_to(head);
        out.clear();
        ring.collect(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn recycle_hides_records_and_counts_them_as_dropped() {
        let ring = SpanRing::new(8);
        for i in 0..10 {
            push_named(&ring, i, "e"); // 8 visible, 2 dropped by wrap
        }
        assert_eq!(ring.dropped(), 2);
        ring.recycle();
        let mut out = Vec::new();
        ring.collect(&mut out);
        assert!(out.is_empty(), "old owner's records are hidden");
        assert_eq!(ring.dropped(), 10, "hidden records count as dropped");
        push_named(&ring, 99, "next-owner");
        ring.collect(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts_us, 99);
    }

    #[test]
    fn long_names_truncate_on_char_boundary() {
        let ring = SpanRing::new(8);
        // 23 ASCII bytes + one 3-byte char straddling the 24-byte limit.
        let name = format!("{}€", "x".repeat(23));
        ring.push(1, 1, KIND_SPAN, TraceCat::Op, 0, &name);
        let mut out = Vec::new();
        ring.collect(&mut out);
        assert_eq!(out[0].name, "x".repeat(23));
    }
}
