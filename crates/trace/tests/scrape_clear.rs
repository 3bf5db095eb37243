//! Exactly-once scrape-and-clear under a live writer: one thread records
//! instants with ids `0..N` while another loops on
//! `snapshot_and_clear()`. Across every snapshot (plus a final plain
//! one), no id may appear twice, and the ids seen plus the drops those
//! snapshots reported must account for all N records.
//!
//! Lives in its own integration binary so it owns the process-global
//! tracer; the two cases run in one `#[test]` because they share it.

use ccp_trace::{self as trace, TraceCat, TraceConfig, TraceSnapshot};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const N: u64 = 50_000;

/// Ids recorded by the writer thread (named `writer`) in `snap`.
fn writer_ids(snap: &TraceSnapshot) -> Vec<u64> {
    let tids: HashSet<u32> = snap
        .threads
        .iter()
        .filter(|t| t.name == "writer")
        .map(|t| t.tid)
        .collect();
    snap.events
        .iter()
        .filter(|e| tids.contains(&e.tid))
        .map(|e| e.id)
        .collect()
}

/// Runs one writer against a scraping reader; returns (ids seen,
/// dropped reported).
fn scrape_while_writing(ring_capacity: usize) -> (u64, u64) {
    trace::enable(TraceConfig { ring_capacity });
    // Start from an empty window: earlier cases' records are gone.
    trace::clear();
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let done = Arc::clone(&done);
        thread::Builder::new()
            .name("writer".into())
            .spawn(move || {
                for id in 0..N {
                    trace::instant_id(TraceCat::Op, "w", id);
                }
                done.store(true, Ordering::Release);
            })
            .unwrap()
    };
    let mut seen = HashSet::new();
    let mut dropped = 0;
    let mut absorb = |snap: TraceSnapshot| {
        for id in writer_ids(&snap) {
            assert!(id < N, "unknown id {id}");
            assert!(seen.insert(id), "id {id} surfaced in two snapshots");
        }
        dropped += snap.dropped;
    };
    loop {
        let finished = done.load(Ordering::Acquire);
        absorb(trace::snapshot_and_clear());
        if finished {
            break;
        }
    }
    writer.join().unwrap();
    absorb(trace::snapshot());
    (seen.len() as u64, dropped)
}

#[test]
fn scrape_and_clear_sees_each_record_exactly_once() {
    // A ring larger than N never wraps: every id is seen, none dropped.
    let (seen, dropped) = scrape_while_writing(2 * N as usize);
    assert_eq!((seen, dropped), (N, 0));

    // A small ring wraps between scrapes: what was not seen was counted.
    let (seen, dropped) = scrape_while_writing(64);
    assert_eq!(seen + dropped, N, "seen {seen} + dropped {dropped}");
    trace::disable();
}
