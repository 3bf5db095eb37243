//! Whole-tracer lifecycle in one process: disabled recording is inert,
//! enabling captures nested spans, `clear` resets the window. A single
//! `#[test]` keeps the ordering deterministic — the tracer is
//! process-global.

use ccp_trace::{self as trace, TraceCat, TraceConfig, TraceEventKind};

#[test]
fn lifecycle_disabled_enabled_cleared() {
    // Disabled: nothing is recorded, guards are inert.
    assert!(!trace::enabled());
    {
        let g = trace::span(TraceCat::Op, "ignored");
        assert!(!g.is_recording());
    }
    trace::instant(TraceCat::Admission, "ignored");
    assert!(trace::snapshot().events.is_empty());

    // Enabled: nested spans and instants are captured with ids.
    trace::enable(TraceConfig::default());
    assert!(trace::enabled());
    {
        let _outer = trace::span_id(TraceCat::Query, "query", 7);
        {
            let inner = trace::span_id(TraceCat::Op, "column_scan", 7);
            assert!(inner.is_recording());
        }
        trace::instant_id(TraceCat::Admission, "bypass", 7);
    }
    let snap = trace::snapshot();
    assert_eq!(snap.events.len(), 3);
    assert!(snap
        .events
        .iter()
        .any(|e| e.name == "query" && e.kind == TraceEventKind::Span && e.id == 7));
    assert!(snap
        .events
        .iter()
        .any(|e| e.name == "bypass" && e.kind == TraceEventKind::Instant));
    // The inner span nests inside the outer one on the same thread.
    let outer = snap.events.iter().find(|e| e.name == "query").unwrap();
    let inner = snap
        .events
        .iter()
        .find(|e| e.name == "column_scan")
        .unwrap();
    assert_eq!(outer.tid, inner.tid);
    assert!(inner.ts_us >= outer.ts_us);
    assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
    let json = snap.to_chrome_json();
    assert_eq!(
        json.matches("\"ph\":\"B\"").count(),
        json.matches("\"ph\":\"E\"").count()
    );

    // Clear: the window is empty afterwards, drops rebased.
    trace::clear();
    assert!(trace::snapshot().events.is_empty());
    assert_eq!(trace::dropped(), 0);

    trace::disable();
    assert!(!trace::enabled());
    {
        let g = trace::span(TraceCat::Op, "off-again");
        assert!(!g.is_recording());
    }
}
