//! Snapshot types and Chrome trace-event JSON export.
//!
//! The output loads directly in Perfetto / `chrome://tracing`: a JSON
//! object with a `traceEvents` array of `B`/`E` duration pairs, `i`
//! instants and `M` metadata (process/thread names). Spans are stored as
//! completed records (start + duration), so the exporter re-derives
//! begin/end pairs per thread with an explicit nesting stack — output is
//! balanced and properly nested by construction, even when rings wrapped
//! mid-run.

use std::fmt;

use crate::TraceCat;

/// What kind of record an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A completed span with a duration.
    Span,
    /// A zero-duration point event.
    Instant,
}

/// One decoded event from a thread's ring.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Tracer-assigned thread id (stable per thread for the process).
    pub tid: u32,
    /// Start time, microseconds since the tracer epoch.
    pub ts_us: u64,
    /// Duration in microseconds (`0` for instants).
    pub dur_us: u64,
    /// Span or instant.
    pub kind: TraceEventKind,
    /// Layer the event came from.
    pub cat: TraceCat,
    /// Correlation id (query id), `0` if none.
    pub id: u64,
    /// Event name (truncated to the ring's inline limit).
    pub name: String,
}

/// Identity of one traced thread, for Perfetto's track labels.
#[derive(Debug, Clone)]
pub struct ThreadInfo {
    /// Tracer-assigned thread id.
    pub tid: u32,
    /// OS thread name at registration time.
    pub name: String,
}

/// A point-in-time copy of every thread's ring.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// All readable events, unsorted (the exporter sorts per thread).
    pub events: Vec<TraceEvent>,
    /// Threads that have recorded at least one event.
    pub threads: Vec<ThreadInfo>,
    /// Records lost to ring wrap-around since the last clear — nonzero
    /// means the timeline has holes.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Keeps only the events of one query (`GET /trace?ticket=N`): spans
    /// and instants whose correlation id equals `query_id`, plus the
    /// thread metadata of the threads that still have events. The drop
    /// counter is passed through untouched — losses are a property of the
    /// whole capture, not of one query.
    pub fn filter_query(mut self, query_id: u64) -> TraceSnapshot {
        self.events.retain(|e| e.id == query_id);
        self.threads
            .retain(|t| self.events.iter().any(|e| e.tid == t.tid));
        self
    }

    /// Renders the snapshot as Chrome trace-event JSON.
    ///
    /// Per thread, spans are sorted by start time (longest first on
    /// ties) and emitted through a nesting stack: every `B` gets exactly
    /// one `E`, and a span that would cross its parent's end (guards
    /// dropped out of creation order) is clamped, so the result is
    /// always well-nested.
    pub fn to_chrome_json(&self) -> String {
        let mut arr = EventArray {
            out: String::with_capacity(128 + self.events.len() * 96),
            first: true,
        };
        arr.out.push_str("{\"traceEvents\":[");
        arr.emit(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"ccp\"}}",
        );
        for t in &self.threads {
            let mut m = String::new();
            m.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            m.push_str(&t.tid.to_string());
            m.push_str(",\"args\":{\"name\":");
            let _ = escape_json_into(&mut m, &t.name);
            m.push_str("}}");
            arr.emit(&m);
        }

        let mut tids: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let mut evs: Vec<&TraceEvent> = self.events.iter().filter(|e| e.tid == tid).collect();
            // Longest span first on equal start so parents open before
            // children; instants (dur 0) sort after span begins.
            evs.sort_by_key(|e| (e.ts_us, u64::MAX - e.dur_us));
            // Stack of (end_ts, name, cat) for currently-open spans.
            let mut open: Vec<(u64, String, TraceCat)> = Vec::new();
            for e in evs {
                arr.close_until(e.ts_us, &mut open, tid);
                match e.kind {
                    TraceEventKind::Instant => {
                        arr.emit(&format_event("i", &e.name, e.cat, e.ts_us, tid, e.id));
                    }
                    TraceEventKind::Span => {
                        let mut end = e.ts_us + e.dur_us;
                        if let Some((parent_end, _, _)) = open.last() {
                            end = end.min(*parent_end); // clamp crossings
                        }
                        arr.emit(&format_event("B", &e.name, e.cat, e.ts_us, tid, e.id));
                        open.push((end, e.name.clone(), e.cat));
                    }
                }
            }
            arr.close_until(u64::MAX, &mut open, tid);
        }
        let mut out = arr.out;
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":");
        out.push_str(&self.dropped.to_string());
        out.push_str("}}");
        out
    }
}

/// Comma-separated JSON array writer plus the span-closing helper.
struct EventArray {
    out: String,
    first: bool,
}

impl EventArray {
    fn emit(&mut self, s: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str(s);
    }

    /// Emits `E` events for every open span that ends at or before `ts`.
    fn close_until(&mut self, ts: u64, open: &mut Vec<(u64, String, TraceCat)>, tid: u32) {
        while open.last().is_some_and(|(end, _, _)| *end <= ts) {
            let (end, name, cat) = open.pop().expect("non-empty");
            self.emit(&format_event("E", &name, cat, end, tid, 0));
        }
    }
}

fn format_event(ph: &str, name: &str, cat: TraceCat, ts_us: u64, tid: u32, id: u64) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"name\":");
    let _ = escape_json_into(&mut s, name);
    s.push_str(",\"cat\":\"");
    s.push_str(cat.as_str());
    s.push_str("\",\"ph\":\"");
    s.push_str(ph);
    s.push_str("\",\"ts\":");
    s.push_str(&ts_us.to_string());
    s.push_str(",\"pid\":1,\"tid\":");
    s.push_str(&tid.to_string());
    if ph == "i" {
        s.push_str(",\"s\":\"t\"");
    }
    if id != 0 {
        s.push_str(",\"args\":{\"query\":");
        s.push_str(&id.to_string());
        s.push('}');
    }
    s.push('}');
    s
}

/// Writes `s` as a JSON string literal (with quotes) into `out` — the
/// workspace's one JSON string escaper, for `String`s and `Formatter`s
/// alike (writing into a `String` cannot fail). Unescaped runs go out as
/// slices of `s`, so nothing is allocated; every byte that needs an escape
/// is ASCII, so cutting `s` at one never splits a UTF-8 sequence.
pub fn escape_json_into<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u32, ts: u64, dur: u64, name: &str) -> TraceEvent {
        TraceEvent {
            tid,
            ts_us: ts,
            dur_us: dur,
            kind: TraceEventKind::Span,
            cat: TraceCat::Op,
            id: 0,
            name: name.to_string(),
        }
    }

    fn balanced(json: &str) -> bool {
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        b == e
    }

    #[test]
    fn nested_spans_emit_balanced_well_ordered_pairs() {
        let snap = TraceSnapshot {
            events: vec![
                span(1, 0, 100, "outer"),
                span(1, 10, 20, "inner"),
                span(1, 50, 10, "inner2"),
            ],
            threads: vec![ThreadInfo {
                tid: 1,
                name: "w".into(),
            }],
            dropped: 0,
        };
        let json = snap.to_chrome_json();
        assert!(balanced(&json), "{json}");
        let outer_b = json
            .find("\"name\":\"outer\",\"cat\":\"op\",\"ph\":\"B\"")
            .unwrap();
        let inner_b = json
            .find("\"name\":\"inner\",\"cat\":\"op\",\"ph\":\"B\"")
            .unwrap();
        assert!(outer_b < inner_b, "parent opens before child: {json}");
        assert!(json.contains("\"otherData\":{\"dropped\":0}"));
    }

    #[test]
    fn crossing_span_is_clamped_to_parent() {
        // A child that outlives its parent — as guards dropped out of
        // creation order record — must still nest.
        let snap = TraceSnapshot {
            events: vec![span(1, 0, 50, "parent"), span(1, 40, 100, "child")],
            threads: vec![],
            dropped: 3,
        };
        let json = snap.to_chrome_json();
        assert!(balanced(&json), "{json}");
        assert!(json.contains("\"dropped\":3"));
        // The child's E is clamped to ts=50 (the parent's end).
        let child_b = json.find("\"name\":\"child\"").unwrap();
        let after = &json[child_b..];
        assert!(after.contains("\"ph\":\"E\",\"ts\":50"), "{json}");
    }

    #[test]
    fn names_are_escaped() {
        let snap = TraceSnapshot {
            events: vec![span(1, 0, 1, "a\"b\\c\n")],
            threads: vec![ThreadInfo {
                tid: 1,
                name: "t\"1".into(),
            }],
            dropped: 0,
        };
        let json = snap.to_chrome_json();
        assert!(json.contains(r#""a\"b\\c\n""#), "{json}");
        assert!(json.contains(r#""t\"1""#), "{json}");
    }

    #[test]
    fn escaper_keeps_non_ascii_and_hex_escapes_other_controls() {
        let mut out = String::new();
        escape_json_into(&mut out, "é\u{1}\t\r\u{1f}😀").unwrap();
        assert_eq!(out, r#""é\u0001\t\r\u001f😀""#);
    }

    #[test]
    fn instants_carry_scope_and_query_args() {
        let snap = TraceSnapshot {
            events: vec![TraceEvent {
                tid: 2,
                ts_us: 5,
                dur_us: 0,
                kind: TraceEventKind::Instant,
                cat: TraceCat::Admission,
                id: 9,
                name: "bypass".into(),
            }],
            threads: vec![],
            dropped: 0,
        };
        let json = snap.to_chrome_json();
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"args\":{\"query\":9}"));
    }
}
