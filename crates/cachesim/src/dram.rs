//! DRAM channel model: fixed service latency plus finite bandwidth with
//! backlog-based queuing (leaky bucket) and demand-over-prefetch priority.
//!
//! Each line transfer deposits its occupancy into a backlog that drains in
//! real (virtual) time; a request's queuing delay is the backlog in front
//! of it. When the combined miss traffic of concurrent streams exceeds the
//! channel's bandwidth the backlog grows and throttles requesters — the
//! *memory-bandwidth contention* axis of the paper (dominant in Figure 9c
//! and for the 10⁶-group aggregations), distinct from LLC capacity
//! contention.
//!
//! ## Two service classes
//!
//! Like a real memory controller, the channel serves **demand** misses
//! ahead of **prefetches**: a prefetch waits behind all backlog, while a
//! demand miss waits behind the demand backlog plus only a fraction of the
//! prefetch backlog (transfers in flight cannot be preempted, banks
//! conflict). This is what lets a latency-sensitive aggregation keep
//! making progress while a streaming scan saturates the channel — and why
//! the scan, not the aggregation, absorbs most of the congestion, matching
//! the asymmetry the paper measures in Figure 9.
//!
//! ## Skew tolerance
//!
//! The backlog drains on forward progress of the caller-provided clock
//! (the hierarchy passes the *minimum* stream clock, which is monotone
//! under min-clock scheduling), so inter-stream clock skew from batched
//! interleaving never turns into phantom queuing.

use crate::config::DramConfig;

/// Service class of a DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DramClass {
    /// A demand miss: the core is (partially) stalled on it.
    Demand,
    /// A prefetcher-initiated fill: latency-tolerant, lowest priority.
    Prefetch,
}

/// The shared DRAM channel. All internal quantities are centi-cycles so
/// sub-cycle line-transfer times accumulate without floating point.
#[derive(Debug, Clone)]
pub struct DramChannel {
    cfg: DramConfig,
    /// Latest drain-clock value seen (centi-cycles).
    horizon_centi: u64,
    /// Outstanding demand occupancy backlog (centi-cycles).
    demand_backlog_centi: u64,
    /// Outstanding prefetch occupancy backlog (centi-cycles).
    prefetch_backlog_centi: u64,
    /// Total lines transferred.
    lines: u64,
    /// Total queuing delay observed (cycles), for diagnostics.
    queue_cycles: u64,
}

/// Fraction (as divisor) of the prefetch backlog a demand miss still waits
/// behind: in-flight transfers cannot be preempted and banks conflict, so
/// priority is strong but not absolute.
const DEMAND_SEES_PREFETCH_DIV: u64 = 4;

impl DramChannel {
    /// Creates an idle channel.
    pub(crate) fn new(cfg: DramConfig) -> Self {
        DramChannel {
            cfg,
            horizon_centi: 0,
            demand_backlog_centi: 0,
            prefetch_backlog_centi: 0,
            lines: 0,
            queue_cycles: 0,
        }
    }

    /// Requests one 64-byte line transfer at drain-clock time `now`
    /// (cycles). Returns the latency the requester observes: the idle
    /// latency plus the class-dependent queuing delay.
    pub(crate) fn request(&mut self, now: u64, class: DramClass) -> u64 {
        let now_centi = now * 100;
        // Drain by elapsed time: demand backlog first (it is served with
        // priority), the remainder drains prefetch backlog.
        if now_centi > self.horizon_centi {
            let mut elapsed = now_centi - self.horizon_centi;
            self.horizon_centi = now_centi;
            let d = elapsed.min(self.demand_backlog_centi);
            self.demand_backlog_centi -= d;
            elapsed -= d;
            self.prefetch_backlog_centi = self.prefetch_backlog_centi.saturating_sub(elapsed);
        }
        let queue_centi = match class {
            DramClass::Demand => {
                self.demand_backlog_centi + self.prefetch_backlog_centi / DEMAND_SEES_PREFETCH_DIV
            }
            DramClass::Prefetch => self.demand_backlog_centi + self.prefetch_backlog_centi,
        };
        match class {
            DramClass::Demand => self.demand_backlog_centi += self.cfg.occupancy_centi_cycles,
            DramClass::Prefetch => self.prefetch_backlog_centi += self.cfg.occupancy_centi_cycles,
        }
        let queue = queue_centi / 100;
        self.lines += 1;
        self.queue_cycles += queue;
        self.cfg.latency_cycles + queue
    }

    /// Total lines transferred so far.
    pub fn lines_transferred(&self) -> u64 {
        self.lines
    }

    /// Total bytes transferred so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.lines * crate::LINE_BYTES
    }

    /// Cumulative queuing delay in cycles (a congestion indicator).
    pub fn total_queue_cycles(&self) -> u64 {
        self.queue_cycles
    }

    /// Resets counters and the backlog, keeping the configuration.
    pub(crate) fn reset(&mut self) {
        self.horizon_centi = 0;
        self.demand_backlog_centi = 0;
        self.prefetch_backlog_centi = 0;
        self.lines = 0;
        self.queue_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        // 100-cycle latency, 2 cycles occupancy per line.
        DramConfig {
            latency_cycles: 100,
            occupancy_centi_cycles: 200,
        }
    }

    #[test]
    fn idle_channel_has_pure_latency() {
        let mut d = DramChannel::new(cfg());
        assert_eq!(d.request(0, DramClass::Demand), 100);
        assert_eq!(d.lines_transferred(), 1);
        assert_eq!(d.bytes_transferred(), 64);
    }

    #[test]
    fn back_to_back_demand_requests_build_backlog() {
        let mut d = DramChannel::new(cfg());
        assert_eq!(d.request(0, DramClass::Demand), 100);
        assert_eq!(d.request(0, DramClass::Demand), 102);
        assert_eq!(d.request(0, DramClass::Demand), 104);
        assert_eq!(d.total_queue_cycles(), 6);
    }

    #[test]
    fn spaced_requests_do_not_queue() {
        let mut d = DramChannel::new(cfg());
        assert_eq!(d.request(0, DramClass::Demand), 100);
        // The backlog (2 cycles) fully drains by t=10.
        assert_eq!(d.request(10, DramClass::Demand), 100);
        assert_eq!(d.total_queue_cycles(), 0);
    }

    #[test]
    fn demand_jumps_most_of_the_prefetch_queue() {
        let mut d = DramChannel::new(cfg());
        // 40 prefetches at t=0: 80 cycles of prefetch backlog.
        for _ in 0..40 {
            d.request(0, DramClass::Prefetch);
        }
        // A prefetch waits behind all of it; a demand miss behind a quarter.
        let pf = d.request(0, DramClass::Prefetch);
        assert_eq!(pf, 100 + 80);
        let dm = d.request(0, DramClass::Demand);
        // prefetch backlog is now 82 cycles -> sees 82/4 = 20 (integer).
        assert_eq!(dm, 100 + 20);
    }

    #[test]
    fn drain_serves_demand_backlog_first() {
        let mut d = DramChannel::new(cfg());
        for _ in 0..10 {
            d.request(0, DramClass::Demand); // 20 cy demand backlog
            d.request(0, DramClass::Prefetch); // 20 cy prefetch backlog
        }
        // 20 cycles later the demand backlog is gone, prefetch untouched.
        let dm = d.request(20, DramClass::Demand);
        assert_eq!(dm, 100 + 20 / 4);
        // 25 more cycles drain the remaining prefetch backlog minus the
        // demand line just queued (2) -> fully idle afterwards.
        let pf = d.request(60, DramClass::Prefetch);
        assert_eq!(pf, 100);
    }

    #[test]
    fn sustained_overload_grows_queue_without_bound() {
        let mut d = DramChannel::new(cfg());
        // One demand request per cycle, each occupying 2 cycles: demand is
        // 2x capacity, so the backlog grows ~1 cycle per request.
        let mut last = 0;
        for t in 0..1000u64 {
            last = d.request(t, DramClass::Demand);
        }
        assert!(
            last > 100 + 900,
            "overload must throttle, got latency {last}"
        );
    }

    #[test]
    fn skewed_timestamps_do_not_create_phantom_queue() {
        let mut d = DramChannel::new(cfg());
        // A request far in the future, then one whose clock lags behind:
        // the laggard sees only the genuine backlog (one line, 2 cycles).
        assert_eq!(d.request(1_000_000, DramClass::Demand), 100);
        let lat = d.request(10, DramClass::Demand);
        assert_eq!(lat, 102);
    }

    #[test]
    fn sub_cycle_occupancy_accumulates() {
        let mut d = DramChannel::new(DramConfig {
            latency_cycles: 10,
            occupancy_centi_cycles: 50,
        });
        assert_eq!(d.request(0, DramClass::Demand), 10); // backlog 0
        assert_eq!(d.request(0, DramClass::Demand), 10); // 0.5 truncates
        assert_eq!(d.request(0, DramClass::Demand), 11); // 1.0
        assert_eq!(d.request(0, DramClass::Demand), 11); // 1.5 truncates
    }

    #[test]
    fn reset_clears_state() {
        let mut d = DramChannel::new(cfg());
        d.request(0, DramClass::Demand);
        d.request(0, DramClass::Prefetch);
        d.reset();
        assert_eq!(d.lines_transferred(), 0);
        assert_eq!(d.request(0, DramClass::Demand), 100);
    }

    #[test]
    fn bandwidth_reporting() {
        let mut d = DramChannel::new(cfg());
        for _ in 0..10 {
            d.request(0, DramClass::Demand);
        }
        assert_eq!(d.bytes_transferred(), 640);
    }
}
