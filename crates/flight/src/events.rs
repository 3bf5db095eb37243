//! Control-plane events.
//!
//! Series tell you *what* the system looked like; events tell you
//! *when it decided something*. The recorder stamps each event with the
//! current recorder tick, so a `/timeline` consumer can line events up
//! against the series points that bracket them (occupancy before/after
//! a repartition is the canonical use). The recorder keeps the latest
//! `max_events` of them.

/// One recorded control-plane moment.
#[derive(Debug, Clone)]
pub struct Event {
    /// Recorder tick current when the event fired (aligns with series
    /// sequence numbers; 0 = before the first tick).
    pub seq: u64,
    /// Milliseconds since the recorder started.
    pub t_ms: u64,
    /// Stable kind tag: `repartition`, `revert`, `hold`, `degraded`,
    /// `restored`, `breaker_trip`, `epoch_bump`, …
    pub kind: &'static str,
    /// Free-form detail (plan summary, failure reason, …).
    pub detail: String,
}
