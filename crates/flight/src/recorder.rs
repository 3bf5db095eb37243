//! The flight recorder: a fixed-memory ring TSDB over `ccp-obs`.
//!
//! Every `interval` the owner of the [`Sampler`] (the server's control
//! plane) calls [`Sampler::tick`], which takes
//! [`Registry::sample_all`] and pushes one point per metric into that
//! metric's [`Series`]: counters and gauges become one series each
//! (named `family{labels}`), histograms become windowed `:p50` / `:p95`
//! / `:p99` / `:count` series — the recorder diffs consecutive
//! cumulative snapshots with
//! [`HistogramSnapshot::delta_since`] and takes proper log-linear
//! quantiles on the delta, so a percentile point describes *that
//! interval*, not the whole process history.
//!
//! ## Memory bound
//!
//! Memory is bounded by construction, not by luck: at most
//! `max_series` series are ever materialized (overflow increments a
//! counter and drops the series, never grows the map), and each series
//! owns `raw_window + history_window` slots of two `u64` words, fixed
//! at creation. With the defaults (512 series × (240 + 240) slots ×
//! 16 B) the recorder's point storage tops out at ~3.9 MiB plus series
//! names — independent of uptime. The event lane is a bounded ring of
//! `max_events` entries with the same property.
//!
//! Sampling is lock-*light*, not lock-free: the series map mutex is
//! held only to clone `Arc`s, the per-point writes are the seqlock
//! protocol in [`crate::ring`], and `/timeline` readers never block the
//! writer.

use crate::events::{Event, EventLane};
use crate::ring::{Downsample, Series};
use ccp_obs::{HistogramSnapshot, Labels, MetricSample, Registry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Everything tunable about a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Sampling interval (default 250 ms).
    pub interval: Duration,
    /// Raw points retained per series (default 240 ≈ 60 s at 250 ms).
    pub raw_window: usize,
    /// Downsampled points retained per series (default 240; at the
    /// default `downsample` that is ~8 minutes of history).
    pub history_window: usize,
    /// Raw points per downsampled history point (default 8).
    pub downsample: u64,
    /// Hard cap on distinct series; beyond it new series are dropped
    /// and counted (default 512).
    pub max_series: usize,
    /// Event-lane capacity (default 1024).
    pub max_events: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            interval: Duration::from_millis(250),
            raw_window: 240,
            history_window: 240,
            downsample: 8,
            max_series: 512,
            max_events: 1024,
        }
    }
}

/// State shared between the sampler, event emitters and `/timeline`
/// readers.
struct SharedState {
    cfg: RecorderConfig,
    series: Mutex<BTreeMap<String, Arc<Series>>>,
    events: EventLane,
    /// Last completed recorder tick (series sequence numbers).
    tick: AtomicU64,
    dropped_series: AtomicU64,
    started: Instant,
    started_unix_ms: u64,
}

/// A cloneable handle for emitting events and reading timelines.
#[derive(Clone)]
pub struct FlightHandle {
    shared: Arc<SharedState>,
}

/// One series' points, plus the merged events, as returned by
/// [`FlightHandle::timeline`].
pub struct Timeline {
    /// Last completed recorder tick.
    pub tick: u64,
    /// Sampling interval in milliseconds (maps seq deltas to time).
    pub interval_ms: u64,
    /// Milliseconds since the recorder started.
    pub now_ms: u64,
    /// Recorder start as unix epoch milliseconds.
    pub started_unix_ms: u64,
    /// Series dropped at the `max_series` cap.
    pub dropped_series: u64,
    /// Events evicted from the full lane.
    pub dropped_events: u64,
    /// `(name, points)` pairs, name-sorted; each point is `(seq, value)`.
    pub series: Vec<(String, Vec<(u64, f64)>)>,
    /// Events with `seq > since`, oldest first.
    pub events: Vec<Event>,
}

impl FlightHandle {
    /// Last completed recorder tick.
    pub fn tick(&self) -> u64 {
        // ORDERING: Acquire pairs with the sampler's Release tick store,
        // so a reader at tick t also sees every point pushed for t.
        self.shared.tick.load(Ordering::Acquire)
    }

    /// Milliseconds since the recorder started.
    pub fn now_ms(&self) -> u64 {
        self.shared.started.elapsed().as_millis() as u64
    }

    /// Records a control-plane event at the current tick.
    pub fn emit(&self, kind: &'static str, detail: impl Into<String>) {
        self.shared.events.emit(Event {
            seq: self.tick(),
            t_ms: self.now_ms(),
            kind,
            detail: detail.into(),
        });
    }

    /// Snapshot of every series and event newer than `since`
    /// (`since = 0` for everything retained), optionally filtered to
    /// series whose name starts with `prefix`.
    pub fn timeline(&self, since: u64, prefix: Option<&str>) -> Timeline {
        let rings: Vec<(String, Arc<Series>)> = {
            let map = self
                .shared
                .series
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            map.iter()
                .filter(|(name, _)| prefix.is_none_or(|p| name.starts_with(p)))
                .map(|(name, s)| (name.clone(), Arc::clone(s)))
                .collect()
        };
        let series: Vec<(String, Vec<(u64, f64)>)> = rings
            .into_iter()
            .map(|(name, ring)| (name, ring.points_since(since)))
            .filter(|(_, pts)| !pts.is_empty())
            .collect();
        Timeline {
            tick: self.tick(),
            interval_ms: self.shared.cfg.interval.as_millis() as u64,
            now_ms: self.now_ms(),
            started_unix_ms: self.shared.started_unix_ms,
            // ORDERING: monotone statistics counter; an off-by-one-tick
            // read only staled the number, it gates nothing.
            dropped_series: self.shared.dropped_series.load(Ordering::Relaxed),
            dropped_events: self.shared.events.dropped(),
            series,
            events: self.shared.events.since(since),
        }
    }
}

/// The sampling half: owns the per-series writer state (downsample
/// accumulators, previous histogram snapshots). Exactly one sampler
/// exists per recorder; whoever owns it drives [`Sampler::tick`].
pub struct Sampler {
    shared: Arc<SharedState>,
    registry: Registry,
    acc: BTreeMap<String, Downsample>,
    prev_hist: BTreeMap<String, HistogramSnapshot>,
}

impl Sampler {
    /// Takes one snapshot of the registry and publishes it as tick
    /// `tick() + 1`.
    pub fn tick(&mut self) {
        // ORDERING: the sampler is the only writer of `tick` (single
        // sampler per recorder), so its own Relaxed read is exact; the
        // Release store at the end of this method is what readers pair
        // their Acquire with.
        let seq = self.shared.tick.load(Ordering::Relaxed) + 1;
        for family in self.registry.sample_all() {
            for (labels, sample) in family.samples {
                let base = series_name(&family.name, &labels);
                match sample {
                    MetricSample::Counter(v) => self.push(&base, seq, v as f64),
                    MetricSample::Gauge(v) => self.push(&base, seq, v),
                    MetricSample::Histogram(snap) => {
                        let delta = match self.prev_hist.get(&base) {
                            Some(prev) => snap.delta_since(prev),
                            None => snap.clone(),
                        };
                        self.prev_hist.insert(base.clone(), snap);
                        let n = delta.count();
                        self.push(&format!("{base}:count"), seq, n as f64);
                        if n > 0 {
                            for (tag, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                                self.push(&format!("{base}:{tag}"), seq, delta.quantile(q));
                            }
                        }
                    }
                }
            }
        }
        // ORDERING: Release publishes every point of this tick before
        // the tick counter readers Acquire.
        self.shared.tick.store(seq, Ordering::Release);
    }

    fn push(&mut self, name: &str, seq: u64, value: f64) {
        let Some(series) = self.series_for(name) else {
            return;
        };
        series.raw().push(seq, value);
        self.acc
            .entry(name.to_string())
            .or_default()
            .record(&series, seq, value);
    }

    fn series_for(&self, name: &str) -> Option<Arc<Series>> {
        let mut map = self
            .shared
            .series
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = map.get(name) {
            return Some(Arc::clone(s));
        }
        if map.len() >= self.shared.cfg.max_series {
            // ORDERING: monotone overflow counter for reporting only.
            self.shared.dropped_series.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let s = Arc::new(Series::new(
            self.shared.cfg.raw_window,
            self.shared.cfg.history_window,
            self.shared.cfg.downsample,
        ));
        map.insert(name.to_string(), Arc::clone(&s));
        Some(s)
    }
}

/// Formats `family{labels}` exactly like the Prometheus exposition
/// (labels come pre-sorted from the registry), so series names match
/// what `/metrics` shows.
fn series_name(family: &str, labels: &Labels) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut out = String::with_capacity(family.len() + 16);
    out.push_str(family);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// Constructor namespace for a recorder's two halves.
pub struct FlightRecorder;

impl FlightRecorder {
    /// A recorder over `registry`: the cloneable emit/read handle and
    /// the [`Sampler`] whose ticks the caller drives.
    pub fn manual(registry: &Registry, cfg: RecorderConfig) -> (FlightHandle, Sampler) {
        let started_unix_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let shared = Arc::new(SharedState {
            events: EventLane::new(cfg.max_events),
            cfg,
            series: Mutex::new(BTreeMap::new()),
            tick: AtomicU64::new(0),
            dropped_series: AtomicU64::new(0),
            started: Instant::now(),
            started_unix_ms,
        });
        (
            FlightHandle {
                shared: Arc::clone(&shared),
            },
            Sampler {
                shared,
                registry: registry.clone(),
                acc: BTreeMap::new(),
                prev_hist: BTreeMap::new(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> RecorderConfig {
        RecorderConfig {
            interval: Duration::from_millis(5),
            raw_window: 8,
            history_window: 8,
            downsample: 2,
            max_series: 16,
            max_events: 8,
        }
    }

    #[test]
    fn manual_ticks_record_counters_and_gauges() {
        let registry = Registry::new();
        let jobs = registry.counter_family("jobs_total", "J");
        let depth = registry.gauge_family("depth", "D");
        let (handle, mut sampler) = FlightRecorder::manual(&registry, test_cfg());
        jobs.get_or_create(&[("class", "polluting")]).add(3);
        depth.get_or_create(&[]).set(2.0);
        sampler.tick();
        jobs.get_or_create(&[("class", "polluting")]).add(2);
        depth.get_or_create(&[]).set(5.0);
        sampler.tick();
        assert_eq!(handle.tick(), 2);
        let tl = handle.timeline(0, None);
        let series: BTreeMap<&str, &Vec<(u64, f64)>> =
            tl.series.iter().map(|(n, p)| (n.as_str(), p)).collect();
        assert_eq!(
            series["jobs_total{class=\"polluting\"}"],
            &vec![(1, 3.0), (2, 5.0)]
        );
        assert_eq!(series["depth"], &vec![(1, 2.0), (2, 5.0)]);
        // Incremental read: only the new tick.
        let tl2 = handle.timeline(1, None);
        assert!(tl2.series.iter().all(|(_, p)| p == &vec![(2, 5.0)]));
    }

    #[test]
    fn histogram_series_are_windowed_quantiles() {
        let registry = Registry::new();
        let lat = registry
            .histogram_family("lat_seconds", "L")
            .get_or_create(&[]);
        let (handle, mut sampler) = FlightRecorder::manual(&registry, test_cfg());
        for _ in 0..100 {
            lat.observe(4.0);
        }
        sampler.tick();
        for _ in 0..100 {
            lat.observe(0.25);
        }
        sampler.tick();
        let tl = handle.timeline(0, None);
        let p95: &Vec<(u64, f64)> = &tl
            .series
            .iter()
            .find(|(n, _)| n == "lat_seconds:p95")
            .expect("p95 series exists")
            .1;
        // Tick 1 saw the slow window, tick 2 only the fast one.
        assert!(p95[0].1 > 3.0, "tick 1 p95 = {}", p95[0].1);
        assert!(p95[1].1 < 0.5, "tick 2 p95 = {}", p95[1].1);
        let count: &Vec<(u64, f64)> = &tl
            .series
            .iter()
            .find(|(n, _)| n == "lat_seconds:count")
            .expect("count series exists")
            .1;
        assert_eq!(count, &vec![(1, 100.0), (2, 100.0)]);
    }

    #[test]
    fn series_cap_drops_and_counts() {
        let registry = Registry::new();
        let fam = registry.gauge_family("g", "G");
        let cfg = RecorderConfig {
            max_series: 2,
            ..test_cfg()
        };
        let (handle, mut sampler) = FlightRecorder::manual(&registry, cfg);
        for i in 0..5 {
            fam.get_or_create(&[("i", &i.to_string())]).set(1.0);
        }
        sampler.tick();
        let tl = handle.timeline(0, None);
        assert_eq!(tl.series.len(), 2);
        assert_eq!(tl.dropped_series, 3);
    }

    #[test]
    fn events_carry_the_current_tick() {
        let registry = Registry::new();
        registry.gauge_family("g", "G").get_or_create(&[]).set(0.0);
        let (handle, mut sampler) = FlightRecorder::manual(&registry, test_cfg());
        sampler.tick();
        handle.emit("repartition", "plan 4/4/8");
        sampler.tick();
        handle.emit("revert", "apply failed");
        let tl = handle.timeline(0, None);
        assert_eq!(tl.events.len(), 2);
        assert_eq!(tl.events[0].seq, 1);
        assert_eq!(tl.events[0].kind, "repartition");
        assert_eq!(tl.events[1].seq, 2);
        // `since` filters events too.
        assert_eq!(handle.timeline(1, None).events.len(), 1);
    }

    #[test]
    fn prefix_filter_narrows_series() {
        let registry = Registry::new();
        registry
            .gauge_family("aa_x", "A")
            .get_or_create(&[])
            .set(1.0);
        registry
            .gauge_family("bb_y", "B")
            .get_or_create(&[])
            .set(2.0);
        let (handle, mut sampler) = FlightRecorder::manual(&registry, test_cfg());
        sampler.tick();
        let tl = handle.timeline(0, Some("aa_"));
        assert_eq!(tl.series.len(), 1);
        assert_eq!(tl.series[0].0, "aa_x");
    }
}
