//! Concurrency hammer: many writer threads fill their rings while
//! reader threads snapshot continuously. No torn events may surface
//! (every decoded record must be internally consistent) and the drop
//! counter must account exactly for everything that fell out of a ring.
//!
//! Lives in its own integration binary so it owns the process-global
//! tracer.

use ccp_trace::{self as trace, TraceCat, TraceConfig, TraceEventKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const WRITERS: usize = 8;
const SPANS_PER_WRITER: u64 = 20_000;
const RING_CAPACITY: usize = 256;

#[test]
fn hammered_rings_stay_consistent_and_account_for_drops() {
    trace::enable(TraceConfig {
        ring_capacity: RING_CAPACITY,
    });

    let stop = Arc::new(AtomicBool::new(false));
    // Readers snapshot as fast as they can while writers are running,
    // checking every decoded event for internal consistency.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut snapshots = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = trace::snapshot();
                    for e in &snap.events {
                        // A torn slot would decode to a mashup of two
                        // records; every field here is derived from the
                        // name, so any mixture is detectable.
                        if e.kind == TraceEventKind::Span {
                            assert_eq!(e.name, format!("w{}", e.id % 1000), "torn record: {e:?}");
                            assert_eq!(e.cat, TraceCat::Op, "category mismatch: {e:?}");
                        }
                    }
                    snapshots += 1;
                }
                snapshots
            })
        })
        .collect();

    // No writer may exit before the others finish: an exited writer's
    // ring would be recycled by a later-registering thread, which is
    // exactly the behavior the churn test covers — here it would make
    // the exact retained/dropped accounting below nondeterministic.
    let all_done = Arc::new(Barrier::new(WRITERS));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let all_done = Arc::clone(&all_done);
            thread::Builder::new()
                .name(format!("hammer-{w}"))
                .spawn(move || {
                    for i in 0..SPANS_PER_WRITER {
                        // id encodes the writer so readers can re-derive
                        // the expected name; spans drop immediately so
                        // dur stays 0 µs (sub-microsecond lifetime).
                        let id = (i * 1000) + w as u64;
                        let _s = trace::span_id(TraceCat::Op, &format!("w{w}"), id);
                    }
                    all_done.wait();
                })
                .unwrap()
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let snapshots = r.join().unwrap();
        assert!(snapshots > 0, "reader made progress");
    }

    // Quiescent accounting: every span was either retained or counted
    // as dropped. (The main thread never recorded, so its ring — if
    // any — is empty.)
    let snap = trace::snapshot();
    let retained = snap
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Span)
        .count() as u64;
    assert_eq!(
        retained + snap.dropped,
        WRITERS as u64 * SPANS_PER_WRITER,
        "retained {retained} + dropped {} must equal total written",
        snap.dropped
    );
    // Each ring retains exactly its capacity once it has wrapped.
    assert_eq!(retained, (WRITERS * RING_CAPACITY) as u64);
    // Writer threads registered under their builder names.
    for w in 0..WRITERS {
        assert!(
            snap.threads.iter().any(|t| t.name == format!("hammer-{w}")),
            "thread hammer-{w} registered"
        );
    }
    trace::disable();
}
