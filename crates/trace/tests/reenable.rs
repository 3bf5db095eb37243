//! Re-enabling with a different ring capacity must not erase a dead
//! thread's records: they stay snapshottable (or, once recycled, are
//! counted as dropped), never discarded uncounted.
//!
//! Lives in its own integration binary so it owns the process-global
//! tracer.

use ccp_trace::{self as trace, TraceCat, TraceConfig};
use std::thread;

#[test]
fn reenabling_with_a_new_capacity_keeps_a_dead_threads_records_accounted() {
    trace::enable(TraceConfig { ring_capacity: 64 });
    thread::Builder::new()
        .name("before".into())
        .spawn(|| {
            for i in 0..10 {
                let _s = trace::span_id(TraceCat::Op, "a", i);
            }
        })
        .unwrap()
        .join()
        .unwrap();

    trace::enable(TraceConfig { ring_capacity: 128 });
    thread::Builder::new()
        .name("after".into())
        .spawn(|| drop(trace::span_id(TraceCat::Op, "b", 99)))
        .unwrap()
        .join()
        .unwrap();

    let snap = trace::snapshot();
    let visible = snap.events.len() as u64;
    assert_eq!(
        visible + snap.dropped,
        11,
        "visible {visible}, dropped {}",
        snap.dropped
    );
    trace::disable();
}
