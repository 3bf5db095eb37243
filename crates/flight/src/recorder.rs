//! The flight recorder: a fixed-memory ring TSDB over `ccp-obs`.
//!
//! Every `interval` the owner of the [`Sampler`] (the server's control
//! plane) calls [`Sampler::tick`], which takes
//! [`Registry::sample_all`] and pushes one point per metric into that
//! metric's series: counters and gauges become one series each
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
//! owns `raw_window + history_window` slots of 16 B, allocated at
//! creation. With the defaults (512 series × (240 + 240) slots × 16 B)
//! the recorder's point storage tops out at ~3.9 MiB plus series names
//! — independent of uptime. The event deque keeps at most `max_events`
//! entries.
//!
//! ## One lock
//!
//! Every series (both rings and the downsample accumulator), the event
//! deque, the tick and both drop counters sit behind one mutex.
//! [`Sampler::tick`] holds it while it pushes a tick's points and
//! publishes the tick; [`FlightHandle::emit`], [`FlightHandle::timeline`]
//! and [`FlightHandle::tick`] take it once per call. A reader therefore
//! sees all of a tick or none of it, and a client tailing `/timeline`
//! with `?since=<the previous reply's tick>` gets every point exactly
//! once, as long as it polls at least once per raw window. The
//! traffic is one writer every `interval` and occasional readers, so
//! the lock is held for tens of microseconds a few times a second.

use crate::events::Event;
use crate::ring::Series;
use ccp_obs::{HistogramSnapshot, Labels, MetricSample, Registry};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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
    /// Events retained; older ones are evicted and counted (default
    /// 1024).
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

/// Everything the recorder retains. One mutex guards all of it, so a
/// reader sees all of a tick or none of it.
#[derive(Default)]
struct State {
    series: BTreeMap<String, Series>,
    events: VecDeque<Event>,
    /// Last completed recorder tick (series sequence numbers).
    tick: u64,
    dropped_series: u64,
    dropped_events: u64,
}

impl State {
    /// Appends `value` at `seq` to the series `name`, admitting the
    /// series if the `max_series` cap allows and counting it dropped if
    /// not.
    fn push(&mut self, cfg: &RecorderConfig, name: String, seq: u64, value: f64) {
        let admitted = self.series.len();
        match self.series.entry(name) {
            Entry::Occupied(series) => series.into_mut().push(seq, value),
            Entry::Vacant(_) if admitted >= cfg.max_series => self.dropped_series += 1,
            Entry::Vacant(slot) => slot
                .insert(Series::new(
                    cfg.raw_window,
                    cfg.history_window,
                    cfg.downsample,
                ))
                .push(seq, value),
        }
    }
}

/// State shared between the sampler, event emitters and `/timeline`
/// readers.
struct Shared {
    cfg: RecorderConfig,
    state: Mutex<State>,
    started: Instant,
    started_unix_ms: u64,
}

impl Shared {
    /// Locks the state. A holder that panicked left it valid: every
    /// update is a ring push, a deque push or a counter bump.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Milliseconds since the recorder started.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// A cloneable handle for emitting events and reading timelines.
#[derive(Clone)]
pub struct FlightHandle {
    shared: Arc<Shared>,
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
    /// Events evicted at the `max_events` cap.
    pub dropped_events: u64,
    /// `(name, points)` pairs, name-sorted; each point is `(seq, value)`.
    pub series: Vec<(String, Vec<(u64, f64)>)>,
    /// Events with `seq > since`, oldest first.
    pub events: Vec<Event>,
}

impl FlightHandle {
    /// Records a control-plane event at the current tick, evicting the
    /// oldest event when `max_events` are already kept.
    pub fn emit(&self, kind: &'static str, detail: impl Into<String>) {
        let detail = detail.into();
        let t_ms = self.shared.now_ms();
        let mut state = self.shared.lock();
        if state.events.len() >= self.shared.cfg.max_events.max(1) {
            state.events.pop_front();
            state.dropped_events += 1;
        }
        let seq = state.tick;
        state.events.push_back(Event {
            seq,
            t_ms,
            kind,
            detail,
        });
    }

    /// Snapshot of every series and event newer than `since`
    /// (`since = 0` for everything retained), optionally filtered to
    /// series whose name starts with `prefix`. The reply holds whole
    /// ticks up to its `tick`, so passing that `tick` back as the next
    /// `since` resumes exactly where this reply ended.
    pub fn timeline(&self, since: u64, prefix: Option<&str>) -> Timeline {
        let state = self.shared.lock();
        Timeline {
            tick: state.tick,
            interval_ms: self.shared.cfg.interval.as_millis() as u64,
            now_ms: self.shared.now_ms(),
            started_unix_ms: self.shared.started_unix_ms,
            dropped_series: state.dropped_series,
            dropped_events: state.dropped_events,
            series: state
                .series
                .iter()
                .filter(|(name, _)| prefix.is_none_or(|p| name.starts_with(p)))
                .map(|(name, series)| (name.clone(), series.points_since(since)))
                .filter(|(_, pts)| !pts.is_empty())
                .collect(),
            events: state
                .events
                .iter()
                .filter(|e| e.seq > since)
                .cloned()
                .collect(),
        }
    }
}

/// The sampling half: owns the previous histogram snapshots the
/// windowed quantiles diff against. Exactly one sampler exists per
/// recorder; whoever owns it drives [`Sampler::tick`].
pub struct Sampler {
    shared: Arc<Shared>,
    registry: Registry,
    prev_hist: BTreeMap<String, HistogramSnapshot>,
}

impl Sampler {
    /// Takes one snapshot of the registry and publishes it as tick
    /// `tick() + 1`. The recorder lock is held from the first point to
    /// the tick's publication.
    pub fn tick(&mut self) {
        let families = self.registry.sample_all();
        let cfg = &self.shared.cfg;
        let mut state = self.shared.lock();
        let seq = state.tick + 1;
        for family in families {
            for (labels, sample) in family.samples {
                let base = series_name(&family.name, &labels);
                match sample {
                    MetricSample::Counter(v) => state.push(cfg, base, seq, v as f64),
                    MetricSample::Gauge(v) => state.push(cfg, base, seq, v),
                    MetricSample::Histogram(snap) => {
                        let delta = match self.prev_hist.get(&base) {
                            Some(prev) => snap.delta_since(prev),
                            None => snap.clone(),
                        };
                        let n = delta.count();
                        state.push(cfg, format!("{base}:count"), seq, n as f64);
                        if n > 0 {
                            for (tag, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                                state.push(cfg, format!("{base}:{tag}"), seq, delta.quantile(q));
                            }
                        }
                        self.prev_hist.insert(base, snap);
                    }
                }
            }
        }
        state.tick = seq;
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
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(State::default()),
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
        assert_eq!(handle.shared.lock().tick, 2);
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
        assert_eq!(tl.events[0].detail, "plan 4/4/8");
        assert_eq!(tl.events[1].seq, 2);
        // `since` filters events too.
        let late = handle.timeline(1, None).events;
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].kind, "revert");
    }

    #[test]
    fn full_event_deque_evicts_oldest_and_counts_drops() {
        let registry = Registry::new();
        let cfg = RecorderConfig {
            max_events: 2,
            ..test_cfg()
        };
        let (handle, mut sampler) = FlightRecorder::manual(&registry, cfg);
        for _ in 0..4 {
            sampler.tick();
            handle.emit("hold", "");
        }
        let tl = handle.timeline(0, None);
        let kept: Vec<u64> = tl.events.iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(tl.dropped_events, 2);
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

    const TICKS: u64 = 200;

    /// Ticks [`TICKS`] times on a second thread over 32 gauges, each set
    /// to the tick number before its tick, while `read` pulls on this
    /// thread until it returns `false`.
    fn race_a_ticker(mut read: impl FnMut(&FlightHandle) -> bool) {
        let registry = Registry::new();
        let fam = registry.gauge_family("g", "G");
        let gauges: Vec<ccp_obs::Gauge> = (0..32)
            .map(|i| fam.get_or_create(&[("i", &i.to_string())]))
            .collect();
        let (handle, mut sampler) = FlightRecorder::manual(&registry, RecorderConfig::default());
        std::thread::scope(|s| {
            s.spawn(move || {
                for t in 1..=TICKS {
                    for g in &gauges {
                        g.set(t as f64);
                    }
                    sampler.tick();
                }
            });
            while read(&handle) {}
        });
    }

    #[test]
    fn an_incremental_tailer_loses_no_point() {
        let mut got: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
        let mut cursor = 0;
        race_a_ticker(|handle| {
            let tl = handle.timeline(cursor, None);
            for (name, pts) in tl.series {
                got.entry(name).or_default().extend(pts);
            }
            cursor = tl.tick;
            cursor < TICKS
        });
        let want: Vec<(u64, f64)> = (1..=TICKS).map(|t| (t, t as f64)).collect();
        assert_eq!(got.len(), 32);
        for (name, pts) in &got {
            assert_eq!(pts, &want, "{name}");
        }
    }

    #[test]
    fn a_concurrent_reader_sees_whole_ticks() {
        race_a_ticker(|handle| {
            let tl = handle.timeline(0, None);
            for (name, pts) in &tl.series {
                assert_eq!(pts.last(), Some(&(tl.tick, tl.tick as f64)), "{name}");
            }
            tl.tick < TICKS
        });
    }
}
