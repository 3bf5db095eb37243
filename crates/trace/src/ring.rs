//! The bounded per-thread event ring.
//!
//! A [`Ring`] holds one thread's most recent `cap` records in a buffer
//! allocated once at construction; a push into a full ring overwrites
//! the oldest record in place and counts it dropped, so recording never
//! allocates.
//!
//! Nothing here synchronizes: the tracer keeps each ring behind its own
//! mutex.

use crate::{TraceCat, TraceEventKind};

/// Longest event name stored inline in a record; longer names are
/// truncated (a fixed record size is what keeps recording
/// allocation-free).
pub(crate) const MAX_NAME: usize = 24;

/// An event name truncated to [`MAX_NAME`] bytes on a char boundary, so
/// the stored prefix stays valid UTF-8.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Name {
    bytes: [u8; MAX_NAME],
    len: u8,
}

impl Name {
    pub(crate) fn new(name: &str) -> Name {
        let mut end = name.len().min(MAX_NAME);
        while !name.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0; MAX_NAME];
        bytes[..end].copy_from_slice(&name.as_bytes()[..end]);
        Name {
            bytes,
            len: end as u8,
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        // Always a char-boundary prefix of a `&str` (see `new`).
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("")
    }
}

/// One fixed-size record: a completed span (start + duration) or an
/// instant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    /// Start timestamp, microseconds since the tracer epoch.
    pub(crate) ts_us: u64,
    /// Duration in microseconds (`0` for instants).
    pub(crate) dur_us: u64,
    pub(crate) kind: TraceEventKind,
    pub(crate) cat: TraceCat,
    /// Correlation id (query id), `0` if none.
    pub(crate) id: u64,
    pub(crate) name: Name,
}

/// A fixed-capacity ring of records, oldest overwritten first.
#[derive(Debug)]
pub(crate) struct Ring {
    records: Vec<Record>,
    cap: usize,
    /// The slot the next push overwrites once the ring is full; until
    /// then, `records.len()`.
    next: usize,
    /// Records overwritten, or discarded by [`reset`](Ring::reset),
    /// since the last [`clear`](Ring::clear).
    dropped: u64,
}

impl Ring {
    /// Creates a ring retaining the latest `cap` records (min 8).
    pub(crate) fn new(cap: usize) -> Ring {
        let cap = cap.max(8);
        Ring {
            records: Vec::with_capacity(cap),
            cap,
            next: 0,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, record: Record) {
        if self.records.len() < self.cap {
            self.records.push(record);
        } else {
            self.records[self.next] = record;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Every retained record, oldest first.
    pub(crate) fn records(&self) -> impl Iterator<Item = &Record> {
        let (newer, older) = self.records.split_at(self.next);
        older.iter().chain(newer)
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empties the ring and restarts its drop count.
    pub(crate) fn clear(&mut self) {
        self.records.clear();
        self.next = 0;
        self.dropped = 0;
    }

    /// Readies the ring for a new owner thread with room for `cap`
    /// records: the previous owner's retained records are discarded and
    /// counted as dropped, so retained-plus-dropped stays exact.
    pub(crate) fn reset(&mut self, cap: usize) {
        self.dropped += self.records.len() as u64;
        self.records.clear();
        self.next = 0;
        let cap = cap.max(8);
        if cap != self.cap {
            self.records = Vec::with_capacity(cap);
            self.cap = cap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts_us: u64, name: &str) -> Record {
        Record {
            ts_us,
            dur_us: 1,
            kind: TraceEventKind::Span,
            cat: TraceCat::Op,
            id: ts_us,
            name: Name::new(name),
        }
    }

    fn timestamps(ring: &Ring) -> Vec<u64> {
        ring.records().map(|r| r.ts_us).collect()
    }

    #[test]
    fn records_round_trip() {
        let mut ring = Ring::new(16);
        ring.push(Record {
            ts_us: 100,
            dur_us: 25,
            kind: TraceEventKind::Span,
            cat: TraceCat::Bind,
            id: 7,
            name: Name::new("bind"),
        });
        ring.push(Record {
            kind: TraceEventKind::Instant,
            ..record(130, "bypass")
        });
        let out: Vec<&Record> = ring.records().collect();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].ts_us, out[0].dur_us, out[0].id), (100, 25, 7));
        assert_eq!(out[0].cat, TraceCat::Bind);
        assert_eq!(out[0].name.as_str(), "bind");
        assert_eq!(out[1].kind, TraceEventKind::Instant);
        assert_eq!(out[1].name.as_str(), "bypass");
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let mut ring = Ring::new(8);
        for i in 0..20 {
            ring.push(record(i, "e"));
        }
        assert_eq!(timestamps(&ring), (12..20).collect::<Vec<_>>());
        assert_eq!(ring.dropped(), 12);
    }

    #[test]
    fn clear_empties_and_restarts_drops() {
        let mut ring = Ring::new(8);
        for i in 0..10 {
            ring.push(record(i, "e"));
        }
        ring.clear();
        assert_eq!(ring.dropped(), 0);
        assert!(timestamps(&ring).is_empty());
        ring.push(record(99, "after"));
        assert_eq!(timestamps(&ring), vec![99]);
    }

    #[test]
    fn reset_counts_retained_records_as_dropped_and_resizes() {
        let mut ring = Ring::new(8);
        for i in 0..10 {
            ring.push(record(i, "e")); // 8 retained, 2 dropped by wrap
        }
        assert_eq!(ring.dropped(), 2);
        ring.reset(16);
        assert!(timestamps(&ring).is_empty(), "old owner's records are gone");
        assert_eq!(ring.dropped(), 10, "discarded records count as dropped");
        for i in 100..116 {
            ring.push(record(i, "next-owner"));
        }
        assert_eq!(timestamps(&ring), (100..116).collect::<Vec<_>>());
        assert_eq!(ring.dropped(), 10, "the resized ring holds 16");
    }

    #[test]
    fn long_names_truncate_on_char_boundary() {
        // 23 ASCII bytes + one 3-byte char straddling the 24-byte limit.
        let name = format!("{}€", "x".repeat(23));
        assert_eq!(Name::new(&name).as_str(), "x".repeat(23));
        assert_eq!(Name::new("short").as_str(), "short");
    }

    #[test]
    fn push_never_grows_the_buffer() {
        let mut ring = Ring::new(8);
        let before = ring.records.capacity();
        for i in 0..100 {
            ring.push(record(i, "e"));
        }
        assert_eq!(ring.records.capacity(), before);
    }
}
