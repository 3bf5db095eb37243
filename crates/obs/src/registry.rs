//! Metric families and the process-wide [`Registry`].
//!
//! A [`Family`] is one metric name fanned out over label sets (e.g.
//! `ccp_executor_jobs_total{pool="olap"}`). The [`Registry`] owns
//! families by name and renders everything in the Prometheus text
//! exposition format, so a scrape endpoint (the server's `/metrics`)
//! can serve the whole process state in one call.
//!
//! Families are idempotent: asking twice for the same name returns the
//! same family, and instruments already held elsewhere (an executor's
//! private counters) can be attached under a label set with
//! [`Family::register`] — the registry then renders the live handle.

use crate::histogram::{BucketSpec, Histogram, HistogramSnapshot};
use crate::metrics::{Counter, Gauge};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// A label set: `(key, value)` pairs, sorted by key on creation.
pub type Labels = Vec<(String, String)>;

/// Label sets up to this size are sorted in a stack buffer.
const STACK_LABELS: usize = 8;

/// Calls `f` with `labels` sorted the way a stored [`Labels`] is. Up to
/// [`STACK_LABELS`] pairs (every family here) the copy lives on the
/// stack, so looking up an existing label set allocates nothing.
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    let mut stack = [("", ""); STACK_LABELS];
    let mut heap = Vec::new();
    let sorted = if labels.len() <= STACK_LABELS {
        let sorted = &mut stack[..labels.len()];
        sorted.copy_from_slice(labels);
        sorted
    } else {
        heap.extend_from_slice(labels);
        &mut heap[..]
    };
    sorted.sort_unstable();
    f(sorted)
}

/// Orders a stored label set against sorted borrowed pairs exactly as
/// `Labels`' own `Ord` orders two stored ones.
fn cmp_labels(stored: &Labels, sorted: &[(&str, &str)]) -> Ordering {
    stored
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .cmp(sorted.iter().copied())
}

fn owned(sorted: &[(&str, &str)]) -> Labels {
    sorted
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct FamilyInner<T> {
    name: String,
    help: String,
    make: Box<dyn Fn() -> T + Send + Sync>,
    /// Every label set with its metric, sorted by label set.
    metrics: Mutex<Vec<(Labels, T)>>,
}

/// One metric name fanned out over label sets. Cloning shares the
/// family; metrics handed out by [`get_or_create`](Family::get_or_create)
/// share state with the registry's copy.
pub struct Family<T> {
    inner: Arc<FamilyInner<T>>,
}

impl<T> Clone for Family<T> {
    fn clone(&self) -> Self {
        Family {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for Family<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Family")
            .field("name", &self.inner.name)
            .finish()
    }
}

impl<T: Clone> Family<T> {
    fn new(name: &str, help: &str, make: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Family {
            inner: Arc::new(FamilyInner {
                name: name.to_string(),
                help: help.to_string(),
                make: Box::new(make),
                metrics: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Returns the metric for `labels`, creating it on first use. The
    /// returned handle shares state with the family, so it can be moved
    /// into a hot path and updated without further lookups.
    /// Only minting a new label set allocates.
    pub fn get_or_create(&self, labels: &[(&str, &str)]) -> T {
        with_sorted(labels, |sorted| {
            let mut metrics = lock(&self.inner.metrics);
            match metrics.binary_search_by(|(l, _)| cmp_labels(l, sorted)) {
                Ok(at) => metrics[at].1.clone(),
                Err(at) => {
                    let metric = (self.inner.make)();
                    metrics.insert(at, (owned(sorted), metric.clone()));
                    metric
                }
            }
        })
    }

    /// The metric for `labels` if one exists. Unlike
    /// [`get_or_create`](Family::get_or_create) a lookup never mints a
    /// label set, so read paths (`/stats`) cannot grow the exposition.
    pub fn get(&self, labels: &[(&str, &str)]) -> Option<T> {
        with_sorted(labels, |sorted| {
            let metrics = lock(&self.inner.metrics);
            let at = metrics
                .binary_search_by(|(l, _)| cmp_labels(l, sorted))
                .ok()?;
            Some(metrics[at].1.clone())
        })
    }

    /// Attaches an existing metric handle under `labels`, replacing any
    /// previous metric there. This lets a component keep private
    /// instruments (isolated per instance) and expose them through a
    /// registry only when asked.
    pub fn register(&self, labels: &[(&str, &str)], metric: T) {
        with_sorted(labels, |sorted| {
            let mut metrics = lock(&self.inner.metrics);
            match metrics.binary_search_by(|(l, _)| cmp_labels(l, sorted)) {
                Ok(at) => metrics[at].1 = metric,
                Err(at) => metrics.insert(at, (owned(sorted), metric)),
            }
        });
    }

    /// Point-in-time copy of all (labels, metric) pairs, sorted by label
    /// set.
    pub(crate) fn collect(&self) -> Vec<(Labels, T)> {
        lock(&self.inner.metrics).clone()
    }
}

#[derive(Clone)]
enum AnyFamily {
    Counter(Family<Counter>),
    Gauge(Family<Gauge>),
    Histogram(Family<Histogram>),
}

/// One sampled metric value, as captured by [`Registry::sample_all`].
///
/// Counters keep their integer nature, gauges their float one, and
/// histograms carry the full bucket snapshot so consumers can take
/// windowed deltas ([`HistogramSnapshot::delta_since`]) and proper
/// quantiles ([`HistogramSnapshot::quantile`]) instead of re-deriving
/// them from rendered text.
#[derive(Debug, Clone)]
pub enum MetricSample {
    /// A monotone counter's current value.
    Counter(u64),
    /// A gauge's point-in-time value.
    Gauge(f64),
    /// A histogram's full bucket snapshot.
    Histogram(HistogramSnapshot),
}

/// All label sets of one family, sampled at one instant.
#[derive(Debug, Clone)]
pub struct FamilySample {
    /// The metric family name.
    pub name: String,
    /// `(labels, value)` pairs, sorted by label set.
    pub samples: Vec<(Labels, MetricSample)>,
}

impl AnyFamily {
    fn kind(&self) -> &'static str {
        match self {
            AnyFamily::Counter(_) => "counter",
            AnyFamily::Gauge(_) => "gauge",
            AnyFamily::Histogram(_) => "histogram",
        }
    }
}

/// Owns metric families and renders the Prometheus text format.
/// Cloning shares the registry.
#[derive(Clone, Default)]
pub struct Registry {
    families: Arc<Mutex<BTreeMap<String, AnyFamily>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = lock(&self.families).keys().cloned().collect();
        f.debug_struct("Registry")
            .field("families", &names)
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn family_or_insert<T: Clone>(
        &self,
        name: &str,
        entry: impl FnOnce() -> AnyFamily,
        extract: impl Fn(&AnyFamily) -> Option<Family<T>>,
        want: &'static str,
    ) -> Family<T> {
        let mut map = lock(&self.families);
        let fam = map.entry(name.to_string()).or_insert_with(entry);
        extract(fam).unwrap_or_else(|| {
            panic!(
                "metric family {name:?} already registered as a {}, wanted {want}",
                fam.kind()
            )
        })
    }

    /// Registers (or returns the existing) counter family.
    pub fn counter_family(&self, name: &str, help: &str) -> Family<Counter> {
        let fam = Family::new(name, help, Counter::new);
        self.family_or_insert(
            name,
            move || AnyFamily::Counter(fam),
            |f| match f {
                AnyFamily::Counter(f) => Some(f.clone()),
                _ => None,
            },
            "counter",
        )
    }

    /// Registers (or returns the existing) gauge family.
    pub fn gauge_family(&self, name: &str, help: &str) -> Family<Gauge> {
        let fam = Family::new(name, help, Gauge::new);
        self.family_or_insert(
            name,
            move || AnyFamily::Gauge(fam),
            |f| match f {
                AnyFamily::Gauge(f) => Some(f.clone()),
                _ => None,
            },
            "gauge",
        )
    }

    /// The unlabelled counter `name`: its family's only metric.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_family(name, help).get_or_create(&[])
    }

    /// The unlabelled gauge `name`: its family's only metric.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_family(name, help).get_or_create(&[])
    }

    /// Registers (or returns the existing) histogram family with the
    /// default latency bucket layout.
    pub fn histogram_family(&self, name: &str, help: &str) -> Family<Histogram> {
        self.histogram_family_with(name, help, crate::histogram::unit::latency_seconds())
    }

    /// Registers (or returns the existing) histogram family with an
    /// explicit bucket layout. The layout only applies to metrics the
    /// family creates; pre-built handles attached via
    /// [`Family::register`] keep their own.
    pub fn histogram_family_with(
        &self,
        name: &str,
        help: &str,
        spec: BucketSpec,
    ) -> Family<Histogram> {
        let fam = Family::new(name, help, move || Histogram::new(spec));
        self.family_or_insert(
            name,
            move || AnyFamily::Histogram(fam),
            |f| match f {
                AnyFamily::Histogram(f) => Some(f.clone()),
                _ => None,
            },
            "histogram",
        )
    }

    /// Samples every family programmatically, in name order — the
    /// machine-readable sibling of
    /// [`render_prometheus`](Self::render_prometheus). This is what a
    /// periodic recorder (the `ccp-flight` ring TSDB) consumes: typed
    /// values instead of text, with histogram snapshots intact for
    /// windowed quantiles.
    pub fn sample_all(&self) -> Vec<FamilySample> {
        let families: Vec<(String, AnyFamily)> = lock(&self.families)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        families
            .into_iter()
            .map(|(name, fam)| {
                let samples = match fam {
                    AnyFamily::Counter(f) => f
                        .collect()
                        .into_iter()
                        .map(|(l, c)| (l, MetricSample::Counter(c.get())))
                        .collect(),
                    AnyFamily::Gauge(f) => f
                        .collect()
                        .into_iter()
                        .map(|(l, g)| (l, MetricSample::Gauge(g.get())))
                        .collect(),
                    AnyFamily::Histogram(f) => f
                        .collect()
                        .into_iter()
                        .map(|(l, h)| (l, MetricSample::Histogram(h.snapshot())))
                        .collect(),
                };
                FamilySample { name, samples }
            })
            .collect()
    }

    /// Renders every family in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, one sample line per label set;
    /// histograms expand to cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`). Families render in name order, label sets
    /// in label order, so output is deterministic and diffable.
    pub fn render_prometheus(&self) -> String {
        let families: Vec<(String, AnyFamily)> = lock(&self.families)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut out = String::new();
        for (name, fam) in families {
            match &fam {
                AnyFamily::Counter(f) => {
                    header(&mut out, &name, &f.inner.help, "counter");
                    for (labels, c) in f.collect() {
                        let _ = writeln!(out, "{name}{} {}", label_str(&labels), c.get());
                    }
                }
                AnyFamily::Gauge(f) => {
                    header(&mut out, &name, &f.inner.help, "gauge");
                    for (labels, g) in f.collect() {
                        let _ = writeln!(out, "{name}{} {}", label_str(&labels), fmt_f64(g.get()));
                    }
                }
                AnyFamily::Histogram(f) => {
                    header(&mut out, &name, &f.inner.help, "histogram");
                    for (labels, h) in f.collect() {
                        render_histogram(&mut out, &name, &labels, &h);
                    }
                }
            }
        }
        out
    }
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {}", help.replace('\n', " "));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_str(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Extra `le` label appended to a (possibly empty) label set.
fn label_str_with_le(labels: &Labels, le: &str) -> String {
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    body.push(format!("le=\"{le}\""));
    format!("{{{}}}", body.join(","))
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // "3.0" not "3": keeps gauges visibly floats
    } else {
        format!("{v}")
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &Labels, h: &Histogram) {
    let snap = h.snapshot();
    let mut cumulative = 0u64;
    for (i, &c) in snap.counts().iter().enumerate() {
        cumulative += c;
        let le = match snap.bounds().get(i) {
            Some(b) => format!("{b}"),
            None => "+Inf".to_string(),
        };
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            label_str_with_le(labels, &le)
        );
    }
    let _ = writeln!(
        out,
        "{name}_sum{} {}",
        label_str(labels),
        fmt_f64(snap.sum())
    );
    let _ = writeln!(out, "{name}_count{} {cumulative}", label_str(labels));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::unit;

    #[test]
    fn counter_family_round_trips() {
        let r = Registry::new();
        let jobs = r.counter_family("jobs_total", "Jobs executed");
        jobs.get_or_create(&[("class", "polluting")]).add(3);
        jobs.get_or_create(&[("class", "sensitive")]).inc();
        // Same labels -> same underlying counter.
        jobs.get_or_create(&[("class", "polluting")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("# HELP jobs_total Jobs executed"));
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total{class=\"polluting\"} 4"));
        assert!(text.contains("jobs_total{class=\"sensitive\"} 1"));
    }

    #[test]
    fn family_requests_are_idempotent() {
        let r = Registry::new();
        let a = r.counter_family("x_total", "X");
        let b = r.counter_family("x_total", "X");
        a.get_or_create(&[]).inc();
        assert_eq!(b.get_or_create(&[]).get(), 1);
    }

    #[test]
    fn get_reads_without_creating_and_shortcuts_share_the_family() {
        let r = Registry::new();
        let fam = r.counter_family("x_total", "X");
        assert!(fam.get(&[("tenant", "a")]).is_none());
        assert!(fam.collect().is_empty(), "a lookup minted a label set");
        fam.get_or_create(&[("tenant", "a")]).add(2);
        assert_eq!(fam.get(&[("tenant", "a")]).map(|c| c.get()), Some(2));
        r.counter("y_total", "Y").inc();
        assert_eq!(r.counter("y_total", "Y").get(), 1);
        r.gauge("z", "Z").set(4.0);
        assert_eq!(
            r.gauge_family("z", "Z").get(&[]).map(|g| g.get()),
            Some(4.0)
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter_family("x_total", "X");
        r.gauge_family("x_total", "X");
    }

    #[test]
    fn register_attaches_existing_handles() {
        let r = Registry::new();
        let private = Counter::new();
        private.add(7);
        let fam = r.counter_family("pool_jobs_total", "Jobs per pool");
        fam.register(&[("pool", "olap")], private.clone());
        private.inc(); // live handle: updates show up in the render
        assert!(r
            .render_prometheus()
            .contains("pool_jobs_total{pool=\"olap\"} 8"));
    }

    #[test]
    fn labels_are_sorted_and_escaped() {
        let r = Registry::new();
        let f = r.gauge_family("g", "G");
        f.get_or_create(&[("b", "x\"y\\z"), ("a", "1")]).set(2.5);
        let text = r.render_prometheus();
        assert!(
            text.contains("g{a=\"1\",b=\"x\\\"y\\\\z\"} 2.5"),
            "got: {text}"
        );
    }

    #[test]
    fn unlabeled_metrics_render_bare() {
        let r = Registry::new();
        r.counter_family("total", "T").get_or_create(&[]).add(5);
        assert!(r.render_prometheus().contains("\ntotal 5\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = Registry::new();
        let f = r.histogram_family_with(
            "lat_seconds",
            "Latency",
            crate::BucketSpec {
                min_exp: 0,
                max_exp: 2,
                subdivisions: 1,
            },
        );
        let h = f.get_or_create(&[("op", "scan")]);
        h.observe(1.5); // bucket le=2
        h.observe(3.0); // bucket le=4
        h.observe(9.0); // +Inf
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{op=\"scan\",le=\"2\"} 1"));
        assert!(text.contains("lat_seconds_bucket{op=\"scan\",le=\"4\"} 2"));
        assert!(text.contains("lat_seconds_bucket{op=\"scan\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_sum{op=\"scan\"} 13.5"));
        assert!(text.contains("lat_seconds_count{op=\"scan\"} 3"));
    }

    #[test]
    fn default_histogram_layout_is_latency() {
        let r = Registry::new();
        let f = r.histogram_family("h_seconds", "H");
        let h = f.get_or_create(&[]);
        assert_eq!(
            h.snapshot().bounds().len(),
            Histogram::new(unit::latency_seconds())
                .snapshot()
                .bounds()
                .len()
        );
    }

    #[test]
    fn sample_all_returns_typed_values() {
        let r = Registry::new();
        r.counter_family("jobs_total", "J")
            .get_or_create(&[("class", "polluting")])
            .add(7);
        r.gauge_family("depth", "D").get_or_create(&[]).set(3.5);
        let h = r.histogram_family("lat_seconds", "L").get_or_create(&[]);
        h.observe(0.01);
        h.observe(0.02);
        let samples = r.sample_all();
        let names: Vec<&str> = samples.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["depth", "jobs_total", "lat_seconds"]);
        match &samples[1].samples[0] {
            (labels, MetricSample::Counter(7)) => {
                assert_eq!(labels[0], ("class".to_string(), "polluting".to_string()));
            }
            other => panic!("unexpected counter sample: {other:?}"),
        }
        match &samples[0].samples[0].1 {
            MetricSample::Gauge(v) => assert_eq!(*v, 3.5),
            other => panic!("unexpected gauge sample: {other:?}"),
        }
        match &samples[2].samples[0].1 {
            MetricSample::Histogram(snap) => assert_eq!(snap.count(), 2),
            other => panic!("unexpected histogram sample: {other:?}"),
        }
    }

    /// Label sets minted in a scrambled order (with repeats, both pair
    /// orders, and more pairs than the stack buffer holds) come back
    /// sorted from `collect()`, exactly once each, and a repeated lookup
    /// returns the handle the first one minted.
    #[test]
    fn label_sets_minted_in_any_order_stay_sorted_and_shared() {
        let r = Registry::new();
        let fam = r.counter_family("x_total", "X");
        let tenants = ["t3", "a", "t10", "t1", "zz", "b", "t2", ""];
        let classes = ["sensitive", "polluting", "mixed"];
        let mut expected = Vec::new();
        let mut state = 0x9e37_79b9_u64;
        for round in 0..200u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tenant = tenants[(state >> 33) as usize % tenants.len()];
            let class = classes[(state >> 45) as usize % classes.len()];
            let counter = if round % 2 == 0 {
                fam.get_or_create(&[("tenant", tenant), ("class", class)])
            } else {
                fam.get_or_create(&[("class", class), ("tenant", tenant)])
            };
            counter.inc();
            let labels = vec![
                ("class".to_string(), class.to_string()),
                ("tenant".to_string(), tenant.to_string()),
            ];
            if !expected.contains(&labels) {
                expected.push(labels);
            }
        }
        let wide: Vec<(String, String)> = (0..STACK_LABELS + 3)
            .rev()
            .map(|i| (format!("k{i:02}"), i.to_string()))
            .collect();
        let wide_refs: Vec<(&str, &str)> =
            wide.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        fam.get_or_create(&wide_refs).add(5);
        let mut wide_sorted = wide.clone();
        wide_sorted.sort();
        expected.push(wide_sorted);
        expected.sort();

        let collected = fam.collect();
        let labels: Vec<Labels> = collected.iter().map(|(l, _)| l.clone()).collect();
        assert_eq!(labels, expected);
        let total: u64 = collected.iter().map(|(_, c)| c.get()).sum();
        assert_eq!(total, 205, "every increment landed on a stored handle");

        let first = fam.get_or_create(&[("tenant", "t1"), ("class", "mixed")]);
        let again = fam.get_or_create(&[("class", "mixed"), ("tenant", "t1")]);
        let before = again.get();
        first.inc();
        assert_eq!(
            again.get(),
            before + 1,
            "a repeated lookup shares the handle"
        );
        assert_eq!(fam.get(&wide_refs).map(|c| c.get()), Some(5));
        assert_eq!(
            fam.collect().len(),
            expected.len(),
            "lookups minted nothing"
        );
    }

    #[test]
    fn families_render_in_name_order() {
        let r = Registry::new();
        r.counter_family("z_total", "Z").get_or_create(&[]).inc();
        r.counter_family("a_total", "A").get_or_create(&[]).inc();
        let text = r.render_prometheus();
        let a = text.find("# TYPE a_total").unwrap();
        let z = text.find("# TYPE z_total").unwrap();
        assert!(a < z);
    }
}
