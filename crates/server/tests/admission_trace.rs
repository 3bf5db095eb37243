//! Where admission's `bypass` instants land in a trace: on the track of
//! the query that overtook the queue, inside its own `admission_wait`
//! span, whether it overtook at arrival or was granted by another
//! query's release. One `#[test]`, because the tracer is process-global.

use ccp_cachesim::HierarchyConfig;
use ccp_engine::{CacheAwareScheduler, CacheUsageClass, PartitionPolicy, SchedulerMetrics};
use ccp_obs::Registry;
use ccp_server::{AdmissionQueue, ServerMetrics};
use ccp_trace::{TraceCat, TraceConfig, TraceEvent, TraceEventKind};
use std::sync::Arc;
use std::thread;

fn queue(slots: usize) -> Arc<AdmissionQueue> {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
    Arc::new(AdmissionQueue::new(
        CacheAwareScheduler::new(policy, slots),
        8,
        SchedulerMetrics::new(),
        ServerMetrics::new(&Registry::new()),
    ))
}

fn wait_until_waiting(q: &AdmissionQueue, n: usize) {
    while q.occupancy().0 < n {
        thread::yield_now();
    }
}

/// The admission event `name` of `ticket`, which must be unique.
fn event<'a>(events: &'a [TraceEvent], name: &str, ticket: u64) -> Option<&'a TraceEvent> {
    let mut found = events
        .iter()
        .filter(|e| e.cat == TraceCat::Admission && e.name == name && e.id == ticket);
    let first = found.next();
    assert!(
        found.next().is_none(),
        "two {name} events for ticket {ticket}"
    );
    first
}

#[test]
fn a_bypass_is_traced_on_the_track_of_the_query_that_overtook() {
    ccp_trace::enable(TraceConfig::default());
    ccp_trace::clear();
    let q = queue(2);
    let sensitive = q.acquire(CacheUsageClass::Sensitive).unwrap();
    let polluter = q.acquire(CacheUsageClass::Polluting).unwrap();
    // Both slots are full: a sensitive waiter queues at the head, a
    // polluter behind it.
    let head = {
        let q = Arc::clone(&q);
        thread::spawn(move || q.acquire(CacheUsageClass::Sensitive).unwrap())
    };
    wait_until_waiting(&q, 1);
    let behind = {
        let q = Arc::clone(&q);
        thread::spawn(move || q.acquire(CacheUsageClass::Polluting).unwrap())
    };
    wait_until_waiting(&q, 2);
    // The freed slot cannot take the sensitive head beside the running
    // sensitive query, so this release grants the polluter behind it.
    drop(polluter);
    let granted = behind.join().unwrap();
    let granted_ticket = granted.ticket();
    drop(granted);
    // One slot is free and the sensitive head still waits: a polluter
    // arriving now overtakes it at once.
    let arrival = q.acquire(CacheUsageClass::Polluting).unwrap();
    let arrival_ticket = arrival.ticket();
    drop(arrival);
    drop(sensitive);
    let head = head.join().unwrap();
    let head_ticket = head.ticket();
    drop(head);
    assert!(q.drain(std::time::Duration::from_secs(1)));

    let events = ccp_trace::snapshot().events;
    for ticket in [granted_ticket, arrival_ticket] {
        let bypass = event(&events, "bypass", ticket)
            .unwrap_or_else(|| panic!("ticket {ticket} overtook the head untraced"));
        let wait = event(&events, "admission_wait", ticket).expect("admission_wait span");
        let dequeue = event(&events, "dequeue", ticket).expect("dequeue instant");
        assert_eq!(bypass.kind, TraceEventKind::Instant);
        assert_eq!(
            (bypass.tid, dequeue.tid),
            (wait.tid, wait.tid),
            "ticket {ticket}: bypass and dequeue belong on the grantee's track"
        );
        assert!(
            wait.ts_us <= bypass.ts_us && bypass.ts_us <= wait.ts_us + wait.dur_us,
            "ticket {ticket}: bypass outside its admission_wait span"
        );
    }
    assert!(
        event(&events, "bypass", head_ticket).is_none(),
        "the head overtook no one"
    );
    ccp_trace::disable();
}
