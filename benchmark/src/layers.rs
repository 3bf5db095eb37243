//! Turns the raw passes into the reported metrics: the end-to-end rows
//! from the socket pass, and the per-workload per-layer table from the
//! replies, the registry deltas and the traced replay.

use crate::load::{p50_of, segment_stats, LoadResult, Reuse, Sample, StreamOutcome, SEGMENTS};
use crate::pipeline::{Replay, REQUEST, REQUEST_PLAIN, STEPS};
use crate::report::{Metric, END_TO_END, STREAM_METRICS};
use crate::spans::self_times_by_name;
use crate::stats::{median, percentile_of};

/// The socket pass's rows for one workload: the bounded end-to-end
/// metrics in `report::END_TO_END` order, then the per-stream rows in
/// `report::STREAM_METRICS` order.
///
/// The bounded throughput and time rows are reported at the host's
/// nominal speed (see `calib`): each segment's value is scaled by the
/// slowdown the calibrator saw during that segment. The per-stream rows
/// stay as measured, and `calib_slowdown` among them says by how much
/// the two differ.
pub fn end_to_end(load: &LoadResult) -> (Vec<Metric>, Vec<Metric>) {
    let [fg_qps, fg_p50, fg_p95] = segment_stats(&load.fg, load.segment_s);
    let [bg_qps, bg_p50, bg_p95] = segment_stats(&load.bg, load.segment_s);
    let slow = &load.segment_slowdown;
    let setup_nominal: Vec<f64> = load
        .setup_s
        .iter()
        .zip(&load.setup_slowdown)
        .map(|(s, f)| s / f)
        .collect();
    // The geometric mean moves with either stream's throughput but, to
    // first order, not with how the OS splits the CPUs between them.
    let pair_qps = fg_qps.iter().zip(&bg_qps).map(|(f, b)| (f * b).sqrt());
    let pair_qps = pair_qps.zip(slow).map(|(q, f)| q * f).collect();
    let fg_p50_nominal = fg_p50.iter().zip(slow).map(|(t, f)| t / f).collect();
    let [setup, pair, p50, rss] = &END_TO_END;
    let bounded = vec![
        // Boots are not segments of the run: only their median is kept,
        // so `compare` sees no spread for it.
        Metric::new(setup.name, setup.unit, median(&setup_nominal)),
        Metric::of_segments(pair.name, pair.unit, pair_qps),
        Metric::of_segments(p50.name, p50.unit, fg_p50_nominal),
        Metric::new(rss.name, rss.unit, load.peak_rss_mb),
    ];
    let streams = STREAM_METRICS
        .iter()
        .zip([fg_qps, fg_p50, fg_p95, bg_qps, bg_p50, bg_p95, slow.clone()])
        .map(|((name, unit), segments)| Metric::of_segments(name, unit, segments))
        .collect();
    (bounded, streams)
}

/// Correct replies per segment.
pub fn samples_per_segment(out: &StreamOutcome) -> Vec<u64> {
    (0..SEGMENTS)
        .map(|seg| {
            out.samples
                .iter()
                .filter(|s| usize::from(s.segment) == seg)
                .count() as u64
        })
        .collect()
}

/// Median client latency of the foreground stream over the whole
/// measured window, in microseconds: what the traced pass reconciles to.
pub fn fg_p50_us(load: &LoadResult) -> f64 {
    p50_of(&load.fg.samples, |s| s.latency_us)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Group 1: what every reply's `breakdown`/`reuse` fields and the
/// server's own registry say about the socket pass.
pub fn from_replies(load: &LoadResult) -> Vec<Metric> {
    let (fg, bg) = (&load.fg.samples, &load.bg.samples);
    let all: Vec<Sample> = fg.iter().chain(bg).copied().collect();
    let of_all = |f: fn(&Sample) -> f64, p: f64| {
        percentile_of(&mut all.iter().map(f).collect::<Vec<_>>(), p)
    };
    let residual = p50_of(fg, Sample::residual_us);
    let binds: Vec<f64> = all
        .iter()
        .filter(|s| s.bind_us > 0)
        .map(|s| f64::from(s.bind_us))
        .collect();
    let rows_per_s = |s: &Sample| s.rows as f64 / (f64::from(s.exec_us.max(1)) / 1e6);
    let latency_of = |reuse: Reuse| {
        let hits: Vec<f64> = all
            .iter()
            .filter(|s| s.reuse == reuse)
            .map(|s| s.latency_us)
            .collect();
        median(&hits)
    };
    let r = &load.registry;
    vec![
        Metric::new("server.residual_us", "us", residual),
        Metric::new(
            "server.residual_share",
            "ratio",
            ratio(residual, fg_p50_us(load)),
        ),
        Metric::new(
            "admission.queue_us_p50",
            "us",
            of_all(|s| f64::from(s.queue_us), 0.50),
        ),
        Metric::new(
            "admission.queue_us_p95",
            "us",
            of_all(|s| f64::from(s.queue_us), 0.95),
        ),
        Metric::new(
            "admission.schedule_us_p50",
            "us",
            of_all(|s| f64::from(s.schedule_us), 0.50),
        ),
        Metric::new("admission.deferrals", "count", r.deferrals),
        Metric::new("admission.rejections", "count", r.rejections),
        Metric::new("engine.bind_us_p50", "us", median(&binds)),
        Metric::new(
            "engine.bind_switch_share",
            "ratio",
            ratio(binds.len() as f64, all.len() as f64),
        ),
        Metric::new("engine.mask_switches", "count", r.mask_switches),
        Metric::new(
            "engine.exec_us_p50.fg",
            "us",
            p50_of(fg, |s| f64::from(s.exec_us)),
        ),
        Metric::new(
            "engine.exec_us_p50.bg",
            "us",
            p50_of(bg, |s| f64::from(s.exec_us)),
        ),
        Metric::new("engine.rows_per_s.fg", "1/s", p50_of(fg, rows_per_s)),
        Metric::new("engine.rows_per_s.bg", "1/s", p50_of(bg, rows_per_s)),
        Metric::new("executor.queue_wait_us", "us", r.executor_queue_wait_us),
        Metric::new("executor.jobs", "count", r.executor_jobs),
        Metric::new("reuse.hits", "count", r.reuse_hits),
        Metric::new("reuse.misses", "count", r.reuse_misses),
        Metric::new(
            "reuse.hit_ratio",
            "ratio",
            ratio(r.reuse_hits, r.reuse_hits + r.reuse_misses),
        ),
        Metric::new("reuse.coalesced", "count", r.reuse_coalesced),
        Metric::new("reuse.invalidations", "count", r.reuse_invalidations),
        Metric::new("reuse.hit_us_p50", "us", latency_of(Reuse::Hit)),
        Metric::new("reuse.miss_ms_p50", "ms", latency_of(Reuse::Miss) / 1e3),
    ]
}

/// Median duration of the foreground replay's request spans called
/// `name`, in microseconds.
fn request_p50_us(replay: &Replay, name: &str) -> f64 {
    let durations: Vec<f64> = replay
        .fg
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    median(&durations)
}

/// Group 2: p50 self time of each step of the foreground stream's
/// replay, their sum, and the reconciliation against the socket pass's
/// `fg_p50_us`.
pub fn from_trace(fg_p50_us: f64, traced: &Replay) -> Vec<Metric> {
    let own = self_times_by_name(&traced.fg.spans);
    let p50_ns = |name: &str| own.get(name).map_or(0.0, |v| median(v));
    let mut out = Vec::new();
    let mut total_ns = 0.0;
    for step in STEPS {
        let ns = p50_ns(step);
        total_ns += ns;
        // The kernel call is the one step measured in microseconds.
        out.push(if step == "query.execute" {
            Metric::new("query.execute_us", "us", ns / 1e3)
        } else {
            Metric::new(format!("{step}_ns"), "ns", ns)
        });
    }
    // What the handler does between the steps: metrics bookkeeping,
    // trace points, clock reads.
    let handler_ns = p50_ns(REQUEST);
    total_ns += handler_ns;
    out.push(Metric::new("pipeline.handler_self_ns", "ns", handler_ns));
    let total_us = total_ns / 1e3;
    out.push(Metric::new("pipeline.total_us", "us", total_us));
    let unattributed = fg_p50_us - total_us;
    out.push(Metric::new("server.unattributed_us", "us", unattributed));
    out.push(Metric::new(
        "server.unattributed_share",
        "ratio",
        ratio(unattributed, fg_p50_us),
    ));
    // Every other request ran with its step spans off.
    let with = request_p50_us(traced, REQUEST);
    let without = request_p50_us(traced, REQUEST_PLAIN);
    out.push(Metric::new("pipeline.request_us", "us", without));
    out.push(Metric::new(
        "trace.overhead_share",
        "ratio",
        ratio(with - without, without),
    ));
    let r = traced.resctrl;
    let writes = r.schemata_writes + r.task_assigns;
    out.push(Metric::new(
        "resctrl.schemata_writes",
        "count",
        r.schemata_writes as f64,
    ));
    out.push(Metric::new(
        "resctrl.task_assigns",
        "count",
        r.task_assigns as f64,
    ));
    out.push(Metric::new(
        "resctrl.skipped_writes",
        "count",
        r.skipped_writes as f64,
    ));
    out.push(Metric::new(
        "resctrl.skip_ratio",
        "ratio",
        ratio(r.skipped_writes as f64, (r.skipped_writes + writes) as f64),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ResctrlCounts, StreamReplay};
    use crate::spans::Span;

    /// One traced request (the nine steps back to back, `gap_ns` of
    /// handler time at the end) and one plain request of `plain_ns`.
    fn replay(step_ns: u64, gap_ns: u64, plain_ns: u64) -> Replay {
        let end_ns = 9 * step_ns + gap_ns;
        let mut spans = vec![Span {
            name: REQUEST,
            request: 0,
            parent: None,
            start_ns: 0,
            end_ns,
        }];
        for (i, step) in STEPS.iter().enumerate() {
            spans.push(Span {
                name: step,
                request: 0,
                parent: Some(0),
                start_ns: i as u64 * step_ns,
                end_ns: (i as u64 + 1) * step_ns,
            });
        }
        spans.push(Span {
            name: REQUEST_PLAIN,
            request: 1,
            parent: None,
            start_ns: end_ns,
            end_ns: end_ns + plain_ns,
        });
        let stream = |spans| StreamReplay {
            spans,
            tally: crate::report::Tally::default(),
        };
        Replay {
            fg: stream(spans),
            bg: stream(Vec::new()),
            resctrl: ResctrlCounts {
                schemata_writes: 1,
                task_assigns: 2,
                skipped_writes: 1,
            },
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    #[test]
    fn pair_qps_is_the_geometric_mean_per_segment() {
        use crate::load::{RegistryDelta, Reuse, Sample, StreamOutcome};
        let stream = |per_segment: [usize; 3]| StreamOutcome {
            samples: per_segment
                .iter()
                .enumerate()
                .flat_map(|(seg, &n)| {
                    std::iter::repeat_n(
                        Sample {
                            segment: seg as u8,
                            latency_us: 2_000.0,
                            queue_us: 0,
                            schedule_us: 0,
                            bind_us: 0,
                            exec_us: 0,
                            rows: 0,
                            reuse: Reuse::Bypass,
                        },
                        n,
                    )
                })
                .collect(),
            ..StreamOutcome::default()
        };
        let load = LoadResult {
            setup_s: vec![3.0, 1.0, 2.0],
            setup_slowdown: vec![1.5, 1.0, 0.5],
            segment_s: 2.0,
            segment_slowdown: vec![1.0, 2.0, 0.5],
            fg: stream([8, 18, 32]),
            bg: stream([2, 2, 2]),
            registry: RegistryDelta::default(),
            peak_rss_mb: 100.0,
        };
        let (bounded, streams) = end_to_end(&load);
        let names: Vec<&str> = bounded.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "pair_qps", "fg_p50_ms", "peak_rss_mb"]);
        // 3/1.5, 1/1, 2/0.5 seconds at nominal speed.
        assert_eq!(value(&bounded, "setup_s"), 2.0);
        // fg 4, 9, 16 per second beside bg 1 per second gives 2, 3, 4;
        // a host twice as slow would have done twice that at nominal.
        assert_eq!(bounded[1].segments, vec![2.0, 6.0, 2.0]);
        assert_eq!(value(&bounded, "pair_qps"), 2.0);
        assert_eq!(bounded[2].segments, vec![2.0, 1.0, 4.0]);
        assert_eq!(value(&bounded, "fg_p50_ms"), 2.0);
        // The per-stream rows stay as measured.
        assert_eq!(value(&streams, "fg_qps"), 9.0);
        assert_eq!(value(&streams, "fg_p50_ms"), 2.0);
        assert_eq!(value(&streams, "bg_qps"), 1.0);
        assert_eq!(value(&streams, "calib_slowdown"), 1.0);
    }

    #[test]
    fn pipeline_total_plus_unattributed_is_fg_p50() {
        let m = from_trace(30.0, &replay(1_000, 500, 8_500));
        assert_eq!(value(&m, "json.parse_ns"), 1_000.0);
        assert_eq!(value(&m, "query.execute_us"), 1.0);
        assert_eq!(value(&m, "pipeline.handler_self_ns"), 500.0);
        assert_eq!(value(&m, "pipeline.total_us"), 9.5);
        assert_eq!(value(&m, "server.unattributed_us"), 20.5);
        assert_eq!(
            value(&m, "pipeline.total_us") + value(&m, "server.unattributed_us"),
            30.0
        );
        assert!((value(&m, "server.unattributed_share") - 20.5 / 30.0).abs() < 1e-12);
        assert_eq!(value(&m, "pipeline.request_us"), 8.5);
        // (9.5 - 8.5) / 8.5
        assert!((value(&m, "trace.overhead_share") - 1.0 / 8.5).abs() < 1e-12);
        assert_eq!(value(&m, "resctrl.skip_ratio"), 0.25);
    }
}
