//! Harness-side tracing: spans around the calls into each layer, kept
//! in memory and written out as Chrome trace-event JSON at exit.
//!
//! The spans live in the benchmark's own files; nothing inside the
//! program is instrumented for them.

use ccp_server::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent` indexes the same recorder's span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one request.
    pub request: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span list. Single-threaded by construction: each stream
/// owns its recorder, so recording never contends.
pub struct Recorder {
    epoch: Instant,
    /// Off: `enter`/`exit`/`span` do nothing and read no clock.
    pub enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run, so their timestamps
    /// line up in one trace.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            request,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, request);
        let out = f();
        if self.enabled {
            self.exit();
        }
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self times grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        by_name.entry(span.name).or_default().push(own as f64);
    }
    by_name
}

/// Chrome trace-event objects (`ph: "X"`) for one thread's spans; `args`
/// carries the request id and the parent's name.
pub fn chrome_events(spans: &[Span], tid: u64, thread_name: &str) -> Vec<Json> {
    let mut events = vec![Json::obj(vec![
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::num(1.0)),
        ("tid", Json::num(tid as f64)),
        ("args", Json::obj(vec![("name", Json::str(thread_name))])),
    ])];
    events.extend(spans.iter().map(|s| {
        Json::obj(vec![
            ("name", Json::str(s.name)),
            ("cat", Json::str("benchmark")),
            ("ph", Json::str("X")),
            ("pid", Json::num(1.0)),
            ("tid", Json::num(tid as f64)),
            ("ts", Json::num(s.start_ns as f64 / 1e3)),
            ("dur", Json::num(s.duration_ns() as f64 / 1e3)),
            (
                "args",
                Json::obj(vec![
                    ("request", Json::num(s.request as f64)),
                    (
                        "parent",
                        s.parent
                            .map_or(Json::Null, |p| Json::str(spans[p as usize].name)),
                    ),
                ]),
            ),
        ])
    }));
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("request", None, 0, 100),
            span("parse", Some(0), 10, 30),
            span("execute", Some(0), 30, 90),
            span("kernel", Some(2), 40, 80),
        ];
        // request: 100 - 20 - 60; execute: 60 - 40; leaves keep theirs.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 20, 40]);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["kernel"], vec![40.0]);
        assert_eq!(by_name.len(), 4);
    }

    #[test]
    fn recorder_nests_and_parents_spans() {
        let mut rec = Recorder::new(Instant::now());
        rec.enter("request", 7);
        let v = rec.span("step", 7, || 5);
        rec.span("step", 7, || ());
        rec.exit();
        assert_eq!(v, 5);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = self_times_ns(&spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now());
        rec.enabled = false;
        rec.enter("request", 1);
        assert_eq!(rec.span("step", 1, || 3), 3);
        rec.exit();
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn chrome_events_carry_request_and_parent() {
        let spans = [
            span("request", None, 0, 2_000),
            span("parse", Some(0), 500, 1_500),
        ];
        let events = chrome_events(&spans, 3, "fg");
        assert_eq!(events.len(), 3);
        let parse = &events[2];
        assert_eq!(parse.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(parse.get("ts").and_then(Json::as_f64), Some(0.5));
        assert_eq!(parse.get("dur").and_then(Json::as_f64), Some(1.0));
        let args = parse.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("request"));
        assert_eq!(args.get("request").and_then(Json::as_u64), Some(1));
    }
}
