//! Thread-churn regression: a server handles every connection on a
//! fresh short-lived thread, so the tracer must not grow a new ring per
//! thread forever — rings of exited threads are recycled by the next
//! thread that starts tracing. Lives in its own integration binary so
//! it owns the process-global tracer.

use ccp_trace::{self as trace, TraceCat, TraceConfig};
use std::thread;

const GENERATIONS: u64 = 64;
const SPANS_PER_THREAD: u64 = 3;

#[test]
fn sequential_thread_churn_recycles_rings() {
    trace::enable(TraceConfig { ring_capacity: 64 });

    // One short-lived traced thread at a time, like a `Connection: close`
    // client hammering a server that spawns a thread per connection.
    for g in 0..GENERATIONS {
        thread::Builder::new()
            .name(format!("conn-{g}"))
            .spawn(move || {
                for _ in 0..SPANS_PER_THREAD {
                    let _s = trace::span_id(TraceCat::Server, "request", g);
                }
                trace::instant(TraceCat::Admission, "done");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    let snap = trace::snapshot();
    // Once the dead-ring retention budget fills, every further
    // generation recycles the longest-dead ring, so the registry stays
    // at budget size instead of holding one ring per thread ever
    // created. (Slack over the budget of 8 tolerates a platform
    // delaying thread-local destructors past `join`.)
    assert!(
        snap.threads.len() <= 12,
        "expected recycled rings, found {} registered threads",
        snap.threads.len()
    );
    // Recent generations stay snapshottable; recycled generations'
    // records were discarded but accounted for as drops.
    let visible = snap.events.len() as u64;
    assert_eq!(
        visible + snap.dropped,
        GENERATIONS * (SPANS_PER_THREAD + 1),
        "recycling must not lose events from the accounting"
    );
    assert!(
        snap.threads
            .iter()
            .any(|t| t.name == format!("conn-{}", GENERATIONS - 1)),
        "the last thread owns a registered ring: {:?}",
        snap.threads
    );
    trace::disable();
}
