//! The result model: metric definitions, the JSON written to `--out`,
//! the human table, the driver's result line, and `compare`.

use crate::stats::{median, relative_range};
use ccp_server::Json;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the baseline's median by which
/// it may get worse before `compare` calls it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The bounded end-to-end metrics, reported for every workload.
/// `BENCHMARK.json` lists the same names, units and bounds (a unit test
/// holds them equal).
///
/// The bounds are the widest the driver accepts: on the shared 2-vCPU
/// box this was written on, ten runs of one commit spread 3-10 %
/// (quartile distance over median) on the throughput and latency rows in
/// a quiet phase of the host and up to 23 % in a noisy one, so a tighter
/// bound would flag noise. See README "Noise".
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pair_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "fg_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// Per-stream rows of the socket pass, as measured. They are what the
/// issue first asked to bound, but how the OS splits two CPUs between
/// the streams moves each of them 10-35 % between runs of one commit, so
/// they are reported without a bound (`compare` prints their change, no
/// verdict) and reach the driver as per-layer metrics `client.<name>`.
pub const STREAM_METRICS: [(&str, &str); 7] = [
    ("fg_qps", "1/s"),
    ("fg_p50_ms", "ms"),
    ("fg_p95_ms", "ms"),
    ("bg_qps", "1/s"),
    ("bg_p50_ms", "ms"),
    ("bg_p95_ms", "ms"),
    ("calib_slowdown", "ratio"),
];

/// `failed_share` may rise by this much, absolutely, before `compare`
/// calls it worse. It is reported beside the end-to-end metrics but is
/// not one of the driver's: a metric that is 0 when all is well has no
/// relative bound (the driver reads `attempted`/`failed` instead).
pub const FAILED_SHARE_BOUND: f64 = 0.001;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Per-segment values whose median `value` is (end-to-end metrics).
    pub segments: Vec<f64>,
    /// Median absolute deviation over a probe's batches.
    pub mad: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            // JSON has no NaN or infinity; a ratio over nothing is 0.
            value: if value.is_finite() { value } else { 0.0 },
            segments: Vec::new(),
            mad: None,
        }
    }

    /// The median of `segments`, which are kept for `compare`.
    pub fn of_segments(name: &str, unit: &'static str, segments: Vec<f64>) -> Metric {
        let value = median(&segments);
        Metric {
            segments,
            ..Metric::new(name, unit, value)
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::num(self.value)),
            ("unit", Json::str(self.unit)),
        ];
        if !self.segments.is_empty() {
            let segments = self.segments.iter().map(|v| Json::num(*v)).collect();
            fields.push(("segments", Json::Arr(segments)));
        }
        if let Some(mad) = self.mad {
            fields.push(("mad", Json::num(mad)));
        }
        Json::obj(fields)
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect(),
    )
}

/// Requests judged, how many of them failed (transport errors + non-200
/// + wrong answers), and the first few reasons.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Reasons kept per tally; the counts are what is judged.
    const KEPT_ERRORS: usize = 3;

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < Self::KEPT_ERRORS {
            self.errors.push(why);
        }
    }

    /// Adds another stream's or pass's tally to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything measured for one workload.
pub struct WorkloadReport {
    pub name: &'static str,
    pub why: &'static str,
    /// The bounded rows; empty when only the traced pass ran.
    pub end_to_end: Vec<Metric>,
    /// The per-stream rows of the socket pass ([`STREAM_METRICS`]).
    pub streams: Vec<Metric>,
    /// Empty when only the end-to-end pass ran.
    pub per_layer: Vec<Metric>,
    /// Correct replies per measured segment, per stream.
    pub fg_samples: Vec<u64>,
    pub bg_samples: Vec<u64>,
    /// Both streams of every pass that ran.
    pub tally: Tally,
}

impl WorkloadReport {
    fn to_json(&self) -> Json {
        let counts = |v: &[u64]| Json::Arr(v.iter().map(|n| Json::num(*n as f64)).collect());
        Json::obj(vec![
            ("why", Json::str(self.why)),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("streams", metrics_json(&self.streams)),
            ("per_layer", metrics_json(&self.per_layer)),
            ("fg_samples", counts(&self.fg_samples)),
            ("bg_samples", counts(&self.bg_samples)),
            ("attempted", Json::num(self.tally.attempted as f64)),
            ("failed", Json::num(self.tally.failed as f64)),
            ("failed_share", Json::num(self.tally.failed_share())),
            (
                "errors",
                Json::Arr(self.tally.errors.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Facts about where and on what the numbers were taken.
pub struct Provenance {
    pub nproc: usize,
    pub kernel: String,
    pub memcpy_gbps: f64,
    pub commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub dataset_rows: usize,
    pub server_config: String,
}

/// One invocation's complete result.
pub struct Report {
    pub provenance: Provenance,
    pub workloads: Vec<WorkloadReport>,
    /// Workload-independent probes; empty unless the traced pass ran.
    pub probes: Vec<Metric>,
}

impl Report {
    pub fn to_json(&self) -> Json {
        let p = &self.provenance;
        Json::obj(vec![
            (
                "host",
                Json::obj(vec![
                    ("nproc", Json::num(p.nproc as f64)),
                    ("kernel", Json::str(&p.kernel)),
                    ("host.memcpy_gbps", Json::num(p.memcpy_gbps)),
                ]),
            ),
            ("commit", Json::str(&p.commit)),
            ("seed", Json::num(p.seed as f64)),
            ("seconds", Json::num(p.seconds)),
            ("dataset_rows", Json::num(p.dataset_rows as f64)),
            ("server_config", Json::str(&p.server_config)),
            (
                "workloads",
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|w| (w.name.to_string(), w.to_json()))
                        .collect(),
                ),
            ),
            ("probes", metrics_json(&self.probes)),
        ])
    }

    pub fn attempted(&self) -> u64 {
        self.workloads.iter().map(|w| w.tally.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.tally.failed).sum()
    }

    /// The driver's result line for a single-workload run: the
    /// end-to-end metrics when `traced` is off, every per-layer metric
    /// (the workload's own, then the probes) when it is on.
    pub fn driver_line(&self, traced: bool) -> String {
        let metrics: Vec<&Metric> = if traced {
            self.workloads
                .iter()
                .flat_map(|w| &w.per_layer)
                .chain(&self.probes)
                .collect()
        } else {
            self.workloads.iter().flat_map(|w| &w.end_to_end).collect()
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.failed() == 0)),
            ("attempted", Json::num(self.attempted() as f64)),
            ("failed", Json::num(self.failed() as f64)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            let value = Json::obj(vec![
                                ("value", Json::num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.clone(), value)
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// The table a person reads.
    pub fn human(&self) -> String {
        let p = &self.provenance;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "host: nproc={} kernel={} memcpy={:.2} GB/s | commit {} | seed {} | {} s measured | {} rows",
            p.nproc, p.kernel, p.memcpy_gbps, p.commit, p.seed, p.seconds, p.dataset_rows
        );
        for w in &self.workloads {
            let _ = writeln!(out, "\n== {} ==", w.name);
            let _ = writeln!(
                out,
                "requests: attempted {} failed {} failed_share {:.6} | samples per segment fg {:?} bg {:?}",
                w.tally.attempted,
                w.tally.failed,
                w.tally.failed_share(),
                w.fg_samples,
                w.bg_samples
            );
            for e in &w.tally.errors {
                let _ = writeln!(out, "  failure: {e}");
            }
            let row = |out: &mut String, m: &Metric| {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>16.4} {:<6} segments {:?}",
                    m.name, m.value, m.unit, m.segments
                );
            };
            if !w.end_to_end.is_empty() {
                let _ = writeln!(out, " end to end, at the host's nominal speed (bounded):");
                w.end_to_end.iter().for_each(|m| row(&mut out, m));
            }
            let _ = writeln!(out, " per stream, as measured (no bound):");
            w.streams.iter().for_each(|m| row(&mut out, m));
            if !w.per_layer.is_empty() {
                let _ = writeln!(out, " per layer:");
            }
            for m in &w.per_layer {
                let _ = writeln!(out, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
        if !self.probes.is_empty() {
            let _ = writeln!(out, "\n== probes ==");
        }
        for m in &self.probes {
            let mad = m.mad.map_or(String::new(), |d| format!("  (MAD {d:.4})"));
            let _ = writeln!(out, "  {:<34} {:>16.4} {}{mad}", m.name, m.value, m.unit);
        }
        out
    }
}

/// `compare`'s verdict on one metric of one workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The three-segment spread of either side exceeds the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate `b` against baseline `a` under `bound`.
pub fn judge(a: f64, b: f64, spread: f64, better: Better, bound: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Positive when `b` is worse, as a share of the baseline.
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if a == 0.0 || worse_by.abs() <= bound {
        Verdict::Same
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn metric_of<'a>(report: &'a Json, workload: &str, table: &str, name: &str) -> Option<&'a Json> {
    report
        .get("workloads")?
        .get(workload)?
        .get(table)?
        .get(name)
}

fn segments_of(metric: &Json) -> Vec<f64> {
    match metric.get("segments") {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_f64).collect(),
        _ => Vec::new(),
    }
}

/// Applies the bounds to every end-to-end metric of every workload both
/// result files hold, and prints the unbounded per-stream rows beside
/// them. Returns the printed table and whether any cell is `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return Err("baseline has no \"workloads\" object".to_string());
    };
    let mut out = String::new();
    let mut any_worse = false;
    let mut cells = 0;
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "spread"
    );
    let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
    for (workload, wa) in workloads {
        let bounded = END_TO_END.iter().map(|e| ("end_to_end", e.name, Some(e)));
        let streams = STREAM_METRICS
            .iter()
            .map(|(name, _)| ("streams", *name, None));
        for (table, name, bound) in bounded.chain(streams) {
            let (Some(ma), Some(mb)) = (
                metric_of(a, workload, table, name),
                metric_of(b, workload, table, name),
            ) else {
                continue;
            };
            let (va, vb) = (value(ma), value(mb));
            let spread = relative_range(&segments_of(ma)).max(relative_range(&segments_of(mb)));
            let verdict = match bound {
                Some(e) => {
                    let verdict = judge(va, vb, spread, e.better, e.bound);
                    any_worse |= verdict == Verdict::Worse;
                    cells += 1;
                    verdict.label()
                }
                None => "-",
            };
            let _ = writeln!(
                out,
                "{workload:<12} {name:<12} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>7.1}%  {verdict}",
                (vb - va) / va * 100.0,
                spread * 100.0,
            );
        }
        let share = |w: Option<&Json>| w.and_then(|w| w.get("failed_share")).and_then(Json::as_f64);
        let wb = b.get("workloads").and_then(|w| w.get(workload));
        if let (Some(fa), Some(fb)) = (share(Some(wa)), share(wb)) {
            let verdict = if fb > fa + FAILED_SHARE_BOUND {
                Verdict::Worse
            } else if fb + FAILED_SHARE_BOUND < fa {
                Verdict::Better
            } else {
                Verdict::Same
            };
            any_worse |= verdict == Verdict::Worse;
            cells += 1;
            let _ = writeln!(
                out,
                "{workload:<12} {:<12} {fa:>14.6} {fb:>14.6} {:>8} {:>8}  {}",
                "failed_share",
                "",
                "",
                verdict.label()
            );
        }
    }
    if cells == 0 {
        return Err("the two files share no workload with end-to-end metrics".to_string());
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_in_the_metrics_direction() {
        use Better::*;
        assert_eq!(judge(100.0, 95.0, 0.01, Higher, 0.10), Verdict::Same);
        assert_eq!(judge(100.0, 85.0, 0.01, Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(100.0, 115.0, 0.01, Higher, 0.10), Verdict::Better);
        assert_eq!(judge(10.0, 11.5, 0.01, Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(10.0, 8.0, 0.01, Lower, 0.10), Verdict::Better);
        assert_eq!(judge(10.0, 10.9, 0.01, Lower, 0.10), Verdict::Same);
        // A spread wider than the bound hides any difference.
        assert_eq!(judge(100.0, 50.0, 0.2, Higher, 0.10), Verdict::Unresolved);
        assert_eq!(judge(0.0, 0.0, 0.0, Lower, 0.10), Verdict::Same);
    }

    fn report(pair_qps: [f64; 3], failed: u64) -> Json {
        let w = WorkloadReport {
            name: "scan_agg",
            why: "test",
            end_to_end: vec![Metric::of_segments("pair_qps", "1/s", pair_qps.to_vec())],
            streams: vec![Metric::of_segments("fg_qps", "1/s", vec![1.0, 2.0, 30.0])],
            per_layer: vec![Metric::new("server.residual_us", "us", 12.5)],
            fg_samples: vec![1, 2, 3],
            bg_samples: vec![4, 5, 6],
            tally: Tally {
                attempted: 1_000,
                failed,
                errors: Vec::new(),
            },
        };
        let r = Report {
            provenance: Provenance {
                nproc: 2,
                kernel: "k".into(),
                memcpy_gbps: 9.5,
                commit: "c".into(),
                seed: 1,
                seconds: 12.0,
                dataset_rows: 10,
                server_config: "cfg".into(),
            },
            workloads: vec![w],
            probes: vec![Metric::new("host.memcpy_gbps", "GB/s", 9.5)],
        };
        // Through text, as `compare` reads files.
        Json::parse(&r.to_json().to_string()).unwrap()
    }

    #[test]
    fn median_of_segments_is_the_reported_value() {
        let m = Metric::of_segments("pair_qps", "1/s", vec![50.0, 40.0, 52.0]);
        assert_eq!(m.value, 50.0);
        let j = report([50.0, 40.0, 52.0], 0);
        let m = metric_of(&j, "scan_agg", "end_to_end", "pair_qps").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(50.0));
        assert_eq!(segments_of(m), vec![50.0, 40.0, 52.0]);
    }

    #[test]
    fn compare_flags_worse_and_unresolved_cells() {
        let base = report([100.0, 101.0, 99.0], 0);
        let (table, worse) = compare(&base, &report([100.5, 100.0, 101.0], 0)).unwrap();
        assert!(!worse && table.contains("same"), "{table}");
        // The per-stream row is printed without a verdict, however wide
        // its spread.
        let fg = table.lines().find(|l| l.contains("fg_qps")).unwrap();
        assert!(fg.ends_with('-'), "{fg}");
        let (table, worse) = compare(&base, &report([70.0, 71.0, 69.0], 0)).unwrap();
        assert!(worse && table.contains("worse"), "{table}");
        let (table, worse) = compare(&base, &report([60.0, 100.0, 80.0], 0)).unwrap();
        assert!(!worse && table.contains("unresolved"), "{table}");
        // failed_share: +0.001 absolute.
        let (_, worse) = compare(&base, &report([100.0, 101.0, 99.0], 1)).unwrap();
        assert!(!worse, "1/1000 is exactly the allowance");
        let (_, worse) = compare(&base, &report([100.0, 101.0, 99.0], 2)).unwrap();
        assert!(worse);
        assert!(compare(&Json::obj(vec![]), &base).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let w = WorkloadReport {
            name: "scan_agg",
            why: "",
            end_to_end: vec![Metric::of_segments("pair_qps", "1/s", vec![1.5])],
            streams: vec![],
            per_layer: vec![Metric::new("server.residual_us", "us", f64::NAN)],
            fg_samples: vec![],
            bg_samples: vec![],
            tally: Tally {
                attempted: 10,
                failed: 1,
                errors: vec![],
            },
        };
        let r = Report {
            provenance: Provenance {
                nproc: 2,
                kernel: String::new(),
                memcpy_gbps: 1.0,
                commit: String::new(),
                seed: 1,
                seconds: 1.0,
                dataset_rows: 1,
                server_config: String::new(),
            },
            workloads: vec![w],
            probes: vec![Metric::new("host.memcpy_gbps", "GB/s", 9.5)],
        };
        let line = Json::parse(&r.driver_line(false)).unwrap();
        let Json::Obj(fields) = &line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let pair = line.get("metrics").unwrap().get("pair_qps").unwrap();
        assert_eq!(pair.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(pair.get("unit").and_then(Json::as_str), Some("1/s"));
        let traced = Json::parse(&r.driver_line(true)).unwrap();
        let m = traced.get("metrics").unwrap();
        // NaN never reaches the JSON.
        assert_eq!(
            m.get("server.residual_us")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(m.get("host.memcpy_gbps").is_some() && m.get("pair_qps").is_none());
    }

    #[test]
    fn benchmark_json_lists_the_same_end_to_end_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(listed)) = spec.get("end_to_end") else {
            panic!("no end_to_end array")
        };
        assert_eq!(listed.len(), END_TO_END.len());
        for (l, e) in listed.iter().zip(&END_TO_END) {
            assert_eq!(l.get("name").and_then(Json::as_str), Some(e.name));
            assert_eq!(l.get("unit").and_then(Json::as_str), Some(e.unit));
            assert_eq!(
                l.get("better").and_then(Json::as_str),
                Some(e.better.label())
            );
            assert_eq!(l.get("bound").and_then(Json::as_f64), Some(e.bound));
        }
        let Some(Json::Arr(workloads)) = spec.get("workloads") else {
            panic!("no workloads array")
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::schedule::workloads()
            .iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(names, ours);
    }
}
