//! Workload parsing, CUID classification and execution for `/query`.
//!
//! A query arrives as one JSON object per body line, names a workload —
//! the paper's microbenchmarks (`q1`/`q2`/`q3`), a TPC-H query
//! (`tpch-1`…`tpch-22`), an OLTP point select (`oltp`) — and is
//! classified to a cache usage identifier *before* execution, exactly as
//! the engine tags jobs: the CUID drives both the admission decision (may
//! it co-run?) and the way mask its jobs bind.
//!
//! The engine owns a resident, seeded data set built once at startup, so
//! every request measures execution, not data generation.

use crate::json::Json;
use ccp_engine::alloc::CacheAllocator;
use ccp_engine::ops::{aggregate, join, oltp, scan};
use ccp_engine::{CacheUsageClass, DualPoolExecutor, Job, PartitionPolicy, Phase, Plan};
use ccp_resctrl::Class;
use ccp_reuse::{Artifact, ResultSet, ReuseCache, ReuseHandle, ReuseStatus};
use ccp_storage::{gen, Aggregate, DictColumn, InvertedIndex, Table};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A parsed `/query` request line.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Paper Q1: selective column scan (`WHERE A < threshold`).
    Q1 {
        /// Scan predicate threshold (domain `1..=50_000`).
        threshold: i64,
    },
    /// Paper Q2: grouped aggregation over the region column.
    Q2 {
        /// Aggregate function.
        agg: Aggregate,
    },
    /// Paper Q3: bit-vector foreign-key join.
    Q3,
    /// TPC-H query `id` — native for 1 and 6, profile-driven phase
    /// playback for the rest.
    Tpch {
        /// Query number, 1–22.
        id: u8,
    },
    /// OLTP point select, run inline on the connection thread: it never
    /// binds, so it runs in the resctrl root class with the full cache.
    /// (The OLTP pool is still built, only because the benchmark harness
    /// links it; it serves nothing.)
    Oltp {
        /// Document key to look up.
        key: i64,
    },
    /// Debug workload: hold an executor slot for `ms` milliseconds.
    /// Only parsed when the server enables it (backpressure tests).
    Sleep {
        /// Sleep duration in milliseconds (capped at 10 s).
        ms: u64,
    },
}

impl WorkloadSpec {
    /// Stable name used for metrics labels and throughput normalization.
    /// Every name is a static string; only a `tpch-N` outside 1–22,
    /// which [`parse_query`] never produces, is formatted.
    pub fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed(match self {
            WorkloadSpec::Q1 { .. } => "q1",
            WorkloadSpec::Q2 { .. } => "q2",
            WorkloadSpec::Q3 => "q3",
            WorkloadSpec::Tpch { id } => match tpch_name(*id) {
                Some(name) => name,
                None => return Cow::Owned(format!("tpch-{id}")),
            },
            WorkloadSpec::Oltp { .. } => "oltp",
            WorkloadSpec::Sleep { .. } => "sleep",
        })
    }
}

/// `tpch-1` … `tpch-22`, indexed by query number − 1.
const TPCH_NAMES: [&str; 22] = [
    "tpch-1", "tpch-2", "tpch-3", "tpch-4", "tpch-5", "tpch-6", "tpch-7", "tpch-8", "tpch-9",
    "tpch-10", "tpch-11", "tpch-12", "tpch-13", "tpch-14", "tpch-15", "tpch-16", "tpch-17",
    "tpch-18", "tpch-19", "tpch-20", "tpch-21", "tpch-22",
];

fn tpch_name(id: u8) -> Option<&'static str> {
    TPCH_NAMES.get(usize::from(id).checked_sub(1)?).copied()
}

/// Parses one request line (`{"workload": "q1", ...}`) into a spec.
///
/// `allow_sleep` gates the debug sleep workload; in production it parses
/// as an error like any other unknown workload.
pub fn parse_query(v: &Json, allow_sleep: bool) -> Result<WorkloadSpec, String> {
    let workload = v
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field \"workload\"".to_string())?;
    match workload {
        "q1" => {
            let threshold = match v.get("threshold") {
                None => 25_000,
                Some(t) => t
                    .as_i64()
                    .ok_or_else(|| "\"threshold\" must be an integer".to_string())?,
            };
            Ok(WorkloadSpec::Q1 { threshold })
        }
        "q2" => {
            let agg = match v.get("agg").map(|a| (a, a.as_str())) {
                None => Aggregate::Max,
                Some((_, Some("max"))) => Aggregate::Max,
                Some((_, Some("min"))) => Aggregate::Min,
                Some((_, Some("sum"))) => Aggregate::Sum,
                Some((_, Some("count"))) => Aggregate::Count,
                Some(_) => return Err("\"agg\" must be one of max|min|sum|count".to_string()),
            };
            Ok(WorkloadSpec::Q2 { agg })
        }
        "q3" => Ok(WorkloadSpec::Q3),
        "oltp" => {
            let key = match v.get("key") {
                None => 7,
                Some(k) => k
                    .as_i64()
                    .ok_or_else(|| "\"key\" must be an integer".to_string())?,
            };
            Ok(WorkloadSpec::Oltp { key })
        }
        "sleep" if allow_sleep => {
            let ms = match v.get("ms") {
                None => 100,
                Some(m) => m
                    .as_u64()
                    .ok_or_else(|| "\"ms\" must be a non-negative integer".to_string())?,
            };
            Ok(WorkloadSpec::Sleep { ms: ms.min(10_000) })
        }
        other if other.starts_with("tpch-") => {
            let id: u8 = other["tpch-".len()..]
                .parse()
                .map_err(|_| format!("bad TPC-H query id in {other:?}"))?;
            if !(1..=22).contains(&id) {
                return Err(format!("TPC-H query id must be 1..=22, got {id}"));
            }
            Ok(WorkloadSpec::Tpch { id })
        }
        other => Err(format!(
            "unknown workload {other:?} (expected q1, q2, q3, tpch-N, oltp)"
        )),
    }
}

/// The result of one executed query, rendered as one NDJSON line.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Workload name (`q1`, `tpch-5`, …).
    pub workload: Cow<'static, str>,
    /// Class the query was admitted under.
    pub class: Class,
    /// Way mask the OLAP jobs bind (full mask for OLTP).
    pub mask_bits: u32,
    /// Input rows processed.
    pub rows: u64,
    /// Workload-specific scalar result (matches, groups, revenue, …).
    pub result: i64,
    /// Wall-clock execution time in seconds.
    pub latency_secs: f64,
    /// Rows per second this execution achieved.
    pub rows_per_sec: f64,
    /// Throughput normalized to the best run of the same workload seen by
    /// this server (1.0 = fastest so far; lower = slowed by co-runners).
    pub normalized_throughput: f64,
    /// How the reuse cache served this query (`hit`/`miss`/`bypass`).
    pub reuse: &'static str,
}

/// Per-query latency breakdown in microseconds, assembled by the HTTP
/// layer from admission timing ([`RunPermit`](crate::RunPermit)) and the
/// engine's bind-time attribution ([`QueryCtx`](ccp_engine::QueryCtx)).
///
/// The parts are carved out of disjoint wall-clock intervals, so
/// `queue_us + schedule_us + bind_us + exec_us` never exceeds the
/// request's total latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Time spent waiting in the admission queue (net of decision time).
    pub queue_us: u64,
    /// Scheduler admissibility-decision time for this query.
    pub schedule_us: u64,
    /// Way-mask (re)bind time accumulated across the query's worker jobs.
    pub bind_us: u64,
    /// Execution time net of bind time.
    pub exec_us: u64,
}

impl Breakdown {
    /// Renders the breakdown as a JSON object.
    pub(crate) fn to_json(self) -> Json {
        let field = |key: &str, us: u64| (key.to_string(), Json::num(us as f64));
        Json::Obj(vec![
            field("queue_us", self.queue_us),
            field("schedule_us", self.schedule_us),
            field("bind_us", self.bind_us),
            field("exec_us", self.exec_us),
        ])
    }
}

impl QueryOutcome {
    /// Renders the outcome with the latency breakdown attached as a
    /// `"breakdown"` sub-object. The field list has room for one more:
    /// the `"ticket"` the connection handler appends.
    pub fn to_json_with(&self, breakdown: &Breakdown) -> Json {
        let mut fields = Vec::with_capacity(11);
        let mut field = |key: &str, value: Json| fields.push((key.to_string(), value));
        field("workload", Json::str(&*self.workload));
        field("class", Json::str(self.class.label()));
        field("mask", Json::str(format!("{:#x}", self.mask_bits)));
        field("rows", Json::num(self.rows as f64));
        field("result", Json::num(self.result as f64));
        field("latency_secs", Json::num(self.latency_secs));
        field("rows_per_sec", Json::num(self.rows_per_sec));
        field(
            "normalized_throughput",
            Json::num(self.normalized_throughput),
        );
        field("reuse", Json::str(self.reuse));
        field("breakdown", breakdown.to_json());
        Json::Obj(fields)
    }
}

/// The resident data sets queries run against (built once at startup).
struct Datasets {
    /// Q1/Q2 value column: uniform `1..=50_000`.
    amounts: Arc<DictColumn<i64>>,
    /// Q2 grouping column: 64 regions.
    regions: Arc<DictColumn<i64>>,
    /// Q3 build side: distinct keys `1..=keys`.
    pk: Arc<DictColumn<i64>>,
    /// Q3 probe side.
    fk: Arc<DictColumn<i64>>,
    /// TPC-H lineitem sample for native Q1/Q6.
    lineitem: Arc<Table>,
    /// OLTP key column (BELNR) with its point-lookup index.
    oltp_keys: DictColumn<i64>,
    oltp_index: InvertedIndex,
    oltp_amounts: DictColumn<i64>,
    /// Every OLAP workload's plan, built once, so classifying a request
    /// allocates nothing: `q1`–`q3` over the columns above, and
    /// `tpch[id - 1]` — native for TPC-H 1 and 6 over `lineitem`, the
    /// SF 100 profile for the rest.
    q1: Plan,
    q2: Plan,
    q3: Plan,
    tpch: Vec<Plan>,
}

/// The plan of OLTP point selects and the debug sleep: no OLAP phase, so
/// [`Plan::class`] gives them the default CUID.
static NO_OLAP_PHASE: Plan = Plan { phases: Vec::new() };

impl Datasets {
    fn build(rows: usize) -> Self {
        let rows = rows.max(64);
        let keys = (rows / 4).max(16);
        // Every row-sized column is drawn into this one buffer. A buffer
        // per column would be freed into the middle of the heap, where
        // the allocator keeps it resident for the server's lifetime.
        let mut draws = Vec::with_capacity(rows);
        let amounts = Arc::new(DictColumn::build(gen::uniform_ints_into(
            &mut draws, rows, 50_000, 11,
        )));
        let regions = Arc::new(DictColumn::build(gen::uniform_ints_into(
            &mut draws, rows, 64, 12,
        )));
        let pk = Arc::new(DictColumn::build(&gen::primary_keys(keys, 21)));
        // `foreign_keys` is `uniform_ints` over the key domain.
        let fk = Arc::new(DictColumn::build(gen::uniform_ints_into(
            &mut draws,
            rows,
            keys as i64,
            22,
        )));
        let lineitem = Arc::new(ccp_tpch::gen::lineitem_sample(rows, keys, 7, &mut draws));
        // OLTP side: an ACDOCA-like document table — repeated document
        // keys, an amount per row.
        let doc_count = (rows / 8).max(8) as i64;
        let oltp_keys = DictColumn::build(gen::uniform_ints_into(&mut draws, rows, doc_count, 31));
        let oltp_amounts =
            DictColumn::build(gen::uniform_ints_into(&mut draws, rows, 1_000_000, 32));
        // Built from codes, not draws: freed first, the buffer's space can
        // hold the index.
        drop(draws);
        let oltp_index = InvertedIndex::build(oltp_keys.codes().iter(), oltp_keys.dict().len());
        let rows = rows as u64;
        let q1 = Plan {
            phases: vec![Phase::Scan {
                rows,
                bytes_per_row: (amounts.codes().packed_bytes() / rows).max(1),
            }],
        };
        let q2 = Plan {
            phases: vec![Phase::Aggregate {
                rows,
                dict_bytes: amounts.dict().len() as u64 * size_of::<i64>() as u64,
                groups: regions.dict().len() as u64,
            }],
        };
        let q3 = Plan {
            phases: vec![join::phase(&fk)],
        };
        let tpch = ccp_tpch::plans(&lineitem);
        Datasets {
            amounts,
            regions,
            pk,
            fk,
            lineitem,
            oltp_keys,
            oltp_index,
            oltp_amounts,
            q1,
            q2,
            q3,
            tpch,
        }
    }

    /// The plan `spec` runs.
    fn plan(&self, spec: &WorkloadSpec) -> &Plan {
        match spec {
            WorkloadSpec::Q1 { .. } => &self.q1,
            WorkloadSpec::Q2 { .. } => &self.q2,
            WorkloadSpec::Q3 => &self.q3,
            WorkloadSpec::Tpch { id } => &self.tpch[usize::from(*id) - 1],
            WorkloadSpec::Oltp { .. } | WorkloadSpec::Sleep { .. } => &NO_OLAP_PHASE,
        }
    }
}

/// The serving engine: dual-pool executor + partition policy + resident
/// data + per-workload best-throughput tracking.
pub struct QueryEngine {
    pools: DualPoolExecutor,
    policy: PartitionPolicy,
    cat_live: bool,
    allocator: Arc<dyn CacheAllocator>,
    data: Datasets,
    best_rows_per_sec: Mutex<HashMap<String, f64>>,
    /// Artifact reuse cache; `None` disables reuse entirely (`--no-reuse`).
    reuse: Option<ReuseCache>,
}

/// Default reuse-cache budget when the server does not override it.
pub(crate) const DEFAULT_REUSE_BUDGET_BYTES: u64 = 64 << 20;

impl QueryEngine {
    /// Builds the engine over `allocator` (the host's, a fake tree's, a
    /// test double); `cat_live`: whether its masks reach CAT hardware.
    pub fn with_allocator(
        olap_workers: usize,
        oltp_workers: usize,
        dataset_rows: usize,
        allocator: Arc<dyn CacheAllocator>,
        cat_live: bool,
    ) -> Self {
        let cfg = ccp_cachesim::HierarchyConfig::broadwell_e5_2699_v4();
        let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
        QueryEngine {
            pools: DualPoolExecutor::new(
                olap_workers,
                oltp_workers,
                policy,
                Arc::clone(&allocator),
            ),
            policy,
            cat_live,
            allocator,
            data: Datasets::build(dataset_rows),
            best_rows_per_sec: Mutex::new(HashMap::new()),
            reuse: Some(ReuseCache::new(ccp_reuse::ReuseConfig::with_budget(
                DEFAULT_REUSE_BUDGET_BYTES,
            ))),
        }
    }

    /// Replaces (or disables, with `None`) the reuse cache. The server
    /// calls this once at startup from `--reuse-budget-mb`/`--no-reuse`,
    /// before the engine serves any query.
    pub fn configure_reuse(&mut self, cache: Option<ReuseCache>) {
        self.reuse = cache;
    }

    /// The reuse cache, when enabled (for metrics registration, stats
    /// and `/data/bump`).
    pub fn reuse_cache(&self) -> Option<&ReuseCache> {
        self.reuse.as_ref()
    }

    /// The dual-pool executor (for `/stats` snapshots).
    pub fn pools(&self) -> &DualPoolExecutor {
        &self.pools
    }

    /// The allocator both pools bind through; its
    /// [`tree`](CacheAllocator::tree) is the one handle on the resctrl
    /// tree (`None` for backends without one, e.g. noop).
    pub fn allocator(&self) -> &Arc<dyn CacheAllocator> {
        &self.allocator
    }

    /// The active partition policy.
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// Whether masks reach real CAT hardware.
    pub(crate) fn cat_live(&self) -> bool {
        self.cat_live
    }

    /// Classifies a workload to its cache usage identifier: its plan's
    /// [`Plan::class`]. Point selects and the debug sleep have no OLAP
    /// phase and get the default, sensitive — a point select runs on the
    /// never-bound connection thread with the full cache regardless, and
    /// a sleep holds a slot the way a sensitive query would, which is
    /// what the backpressure tests need.
    pub(crate) fn classify(&self, spec: &WorkloadSpec) -> CacheUsageClass {
        self.data.plan(spec).class()
    }

    /// Classifies for *admission*, consulting the reuse cache first: a
    /// workload whose artifact is predicted resident is admitted under
    /// the non-polluting class — a scan that will be served from its
    /// memoized result cannot pollute, so holding it back behind the
    /// polluter limits would waste a co-run slot. Returns the admitted
    /// CUID plus whether a hit was predicted (the caller counts a
    /// misprediction when the entry has vanished by execution time).
    pub fn classify_for_admission(&self, spec: &WorkloadSpec) -> (CacheUsageClass, bool) {
        let base = self.classify(spec);
        let Some(cache) = self.reuse.as_ref() else {
            return (base, false);
        };
        let Some((qid, pred)) = reuse_key_parts(spec) else {
            return (base, false);
        };
        if !cache.predict(&cache.key(&qid, &pred)) {
            return (base, false);
        }
        // A predicted hit skips the build work; what remains (probe,
        // lookup, render) is footprint-light. Sensitive rather than a
        // new class keeps the scheduler's co-run table unchanged.
        (CacheUsageClass::Sensitive, true)
    }

    /// The way mask jobs of this workload bind (OLTP: always full
    /// cache). OLAP masks come from the *live* table, so with adaptive
    /// control on, the reported mask is the one the next bind will use.
    pub(crate) fn mask_bits(&self, spec: &WorkloadSpec, cuid: CacheUsageClass) -> u32 {
        match spec {
            WorkloadSpec::Oltp { .. } => self.policy.mask_for(CacheUsageClass::Sensitive).bits(),
            _ => self.pools.live_masks().mask_for(cuid, &self.policy).bits(),
        }
    }

    /// The live mask table the OLAP workers consult on every bind — the
    /// adaptive controller's publication target.
    pub fn live_masks(&self) -> Arc<ccp_engine::LiveMasks> {
        self.pools.live_masks()
    }

    /// Executes `spec` under an already-admitted CUID (the class the
    /// admission queue actually used, possibly shifted by a predicted
    /// reuse hit), so the reported class and mask match the admission
    /// decision rather than re-deriving the static taxonomy.
    pub fn execute_admitted(&self, spec: &WorkloadSpec, cuid: CacheUsageClass) -> QueryOutcome {
        let started = Instant::now();
        let (rows, result, reuse) = self.run(spec);
        let latency = started.elapsed();
        let latency_secs = latency.as_secs_f64().max(1e-9);
        let rows_per_sec = rows as f64 / latency_secs;
        let workload = spec.name();
        let normalized = self.normalize(&workload, rows_per_sec);
        QueryOutcome {
            workload,
            class: cuid.class(),
            mask_bits: self.mask_bits(spec, cuid),
            rows,
            result,
            latency_secs,
            rows_per_sec,
            normalized_throughput: normalized,
            reuse: reuse.label(),
        }
    }

    /// Throughput relative to the best run of `workload` seen so far.
    fn normalize(&self, workload: &str, rows_per_sec: f64) -> f64 {
        let mut best = self
            .best_rows_per_sec
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Every query but the first of its name finds the entry: the name
        // is copied once per workload, not once per query under this lock.
        let best = match best.get_mut(workload) {
            Some(best) => {
                *best = best.max(rows_per_sec);
                *best
            }
            None => {
                best.insert(workload.to_string(), rows_per_sec);
                rows_per_sec
            }
        };
        if best <= 0.0 {
            1.0
        } else {
            rows_per_sec / best
        }
    }

    /// The reuse handle for `spec`, when reuse is enabled and the
    /// workload is cacheable.
    fn reuse_handle(&self, spec: &WorkloadSpec) -> Option<ReuseHandle> {
        let cache = self.reuse.as_ref()?;
        let (qid, pred) = reuse_key_parts(spec)?;
        Some(ReuseHandle::new(cache.clone(), cache.key(&qid, &pred)))
    }

    fn run(&self, spec: &WorkloadSpec) -> (u64, i64, ReuseStatus) {
        let d = &self.data;
        match spec {
            // Selective scans memoize their full result: the cached form
            // of the paper's polluter streams nothing through the LLC.
            WorkloadSpec::Q1 { threshold } => {
                let threshold = *threshold;
                memoized(self.reuse_handle(spec), || {
                    let matches = scan::column_scan(self.pools.olap(), &d.amounts, threshold);
                    (d.amounts.len() as u64, matches as i64)
                })
            }
            WorkloadSpec::Q2 { agg } => {
                let handle = self.reuse_handle(spec);
                let (table, status) = aggregate::grouped_aggregate_cached(
                    self.pools.olap(),
                    &d.amounts,
                    &d.regions,
                    *agg,
                    handle.as_ref(),
                );
                (d.amounts.len() as u64, table.len() as i64, status)
            }
            WorkloadSpec::Q3 => {
                let handle = self.reuse_handle(spec);
                let (matches, status) =
                    join::fk_join_count_cached(self.pools.olap(), &d.pk, &d.fk, handle.as_ref());
                (d.fk.len() as u64, matches as i64, status)
            }
            WorkloadSpec::Tpch { id: 1 } => memoized(self.reuse_handle(spec), || {
                let groups = ccp_tpch::q1_pricing_summary(self.pools.olap(), &d.lineitem);
                (d.lineitem.row_count() as u64, groups.len() as i64)
            }),
            WorkloadSpec::Tpch { id: 6 } => memoized(self.reuse_handle(spec), || {
                let revenue =
                    ccp_tpch::q6_forecast_revenue(self.pools.olap(), &d.lineitem, 24, 4..=6);
                (d.lineitem.row_count() as u64, revenue)
            }),
            WorkloadSpec::Tpch { .. } => memoized(self.reuse_handle(spec), || {
                self.run_profile_phases(d.plan(spec))
            }),
            // Inline on the connection thread: it never binds, so it runs
            // in the resctrl root class — the full cache the OLTP pool
            // exists to give — without a pool round trip.
            WorkloadSpec::Oltp { key } => {
                let (rows, result) =
                    oltp::point_select_sum(&d.oltp_keys, &d.oltp_index, &d.oltp_amounts, *key);
                (rows, result, ReuseStatus::Bypass)
            }
            WorkloadSpec::Sleep { ms } => {
                let pause = Duration::from_millis(*ms);
                self.pools
                    .olap()
                    .submit_batch(vec![Job::new(
                        "sleep",
                        CacheUsageClass::Sensitive,
                        move || std::thread::sleep(pause),
                    )])
                    .wait();
                (0, *ms as i64, ReuseStatus::Bypass)
            }
        }
    }

    /// Plays a TPC-H profile's phase sequence against the resident data:
    /// each phase maps to the native operator of its kind, so the query
    /// exercises the same operator mix (and CUID behaviour) its SF 100
    /// profile describes, at the server's data scale.
    fn run_profile_phases(&self, plan: &Plan) -> (u64, i64) {
        let d = &self.data;
        let mut rows = 0u64;
        let mut result = 0i64;
        for phase in &plan.phases {
            match phase {
                Phase::Scan { .. } => {
                    result += scan::column_scan(self.pools.olap(), &d.amounts, 25_000) as i64;
                    rows += d.amounts.len() as u64;
                }
                Phase::Join { .. } => {
                    result += join::fk_join_count(self.pools.olap(), &d.pk, &d.fk) as i64;
                    rows += d.fk.len() as u64;
                }
                Phase::Aggregate { .. } => {
                    let t = aggregate::grouped_aggregate(
                        self.pools.olap(),
                        &d.amounts,
                        &d.regions,
                        Aggregate::Sum,
                    );
                    result += t.len() as i64;
                    rows += d.amounts.len() as u64;
                }
            }
        }
        (rows, result)
    }
}

/// The reuse-key identity of a workload: `(query_id, predicate)`, the
/// predicate already in [`ccp_reuse::canonicalize_predicate`]'s form so
/// the key build takes its early return. `None` marks the workload
/// uncacheable — OLTP point selects (cheap, write-adjacent) and the
/// debug sleep always bypass the cache.
fn reuse_key_parts(spec: &WorkloadSpec) -> Option<(Cow<'static, str>, Cow<'static, str>)> {
    let predicate = match spec {
        WorkloadSpec::Q1 { threshold } => Cow::Owned(format!("threshold<{threshold}")),
        WorkloadSpec::Q2 { agg } => Cow::Borrowed(match agg {
            Aggregate::Max => "agg=max",
            Aggregate::Min => "agg=min",
            Aggregate::Sum => "agg=sum",
            Aggregate::Count => "agg=count",
        }),
        WorkloadSpec::Q3 | WorkloadSpec::Tpch { .. } => Cow::Borrowed(""),
        WorkloadSpec::Oltp { .. } | WorkloadSpec::Sleep { .. } => return None,
    };
    Some((spec.name(), predicate))
}

/// Full result memoization: a hit returns the cached `(rows, result)`
/// pair without running anything; a miss runs `run` and publishes its
/// outcome with the measured cost.
fn memoized(
    handle: Option<ReuseHandle>,
    run: impl FnOnce() -> (u64, i64),
) -> (u64, i64, ReuseStatus) {
    let Some(handle) = handle else {
        let (rows, result) = run();
        return (rows, result, ReuseStatus::Bypass);
    };
    let ((rows, result), status) = handle.get_or_build(
        |artifact| artifact.result_set().map(|rs| (rs.rows, rs.result)),
        run,
        |&(rows, result)| Artifact::ResultSet(Arc::new(ResultSet { rows, result })),
    );
    (rows, result, status)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl QueryEngine {
        /// Classifies `spec`, then runs it under that class.
        fn execute(&self, spec: &WorkloadSpec) -> QueryOutcome {
            self.execute_admitted(spec, self.classify(spec))
        }
    }
    use ccp_engine::alloc::RecordingAllocator;

    fn engine() -> QueryEngine {
        QueryEngine::with_allocator(2, 1, 4_096, Arc::new(RecordingAllocator::new()), false)
    }

    #[test]
    fn parses_all_workload_forms() {
        let q = |s: &str| parse_query(&Json::parse(s).unwrap(), false).unwrap();
        assert_eq!(
            q(r#"{"workload":"q1","threshold":100}"#),
            WorkloadSpec::Q1 { threshold: 100 }
        );
        assert_eq!(
            q(r#"{"workload":"q2","agg":"sum"}"#),
            WorkloadSpec::Q2 {
                agg: Aggregate::Sum
            }
        );
        assert_eq!(q(r#"{"workload":"q3"}"#), WorkloadSpec::Q3);
        assert_eq!(q(r#"{"workload":"tpch-6"}"#), WorkloadSpec::Tpch { id: 6 });
        assert_eq!(
            q(r#"{"workload":"oltp","key":3}"#),
            WorkloadSpec::Oltp { key: 3 }
        );
    }

    #[test]
    fn rejects_bad_requests_with_reasons() {
        let e = |s: &str| parse_query(&Json::parse(s).unwrap(), false).unwrap_err();
        assert!(e(r#"{}"#).contains("workload"));
        assert!(e(r#"{"workload":"q9"}"#).contains("unknown workload"));
        assert!(e(r#"{"workload":"tpch-23"}"#).contains("1..=22"));
        assert!(e(r#"{"workload":"tpch-x"}"#).contains("bad TPC-H"));
        assert!(e(r#"{"workload":"q1","threshold":"hi"}"#).contains("threshold"));
        // Sleep is gated.
        assert!(e(r#"{"workload":"sleep"}"#).contains("unknown workload"));
        assert_eq!(
            parse_query(
                &Json::parse(r#"{"workload":"sleep","ms":5}"#).unwrap(),
                true
            )
            .unwrap(),
            WorkloadSpec::Sleep { ms: 5 }
        );
    }

    #[test]
    fn classification_follows_the_paper_taxonomy() {
        let en = engine();
        assert_eq!(
            en.classify(&WorkloadSpec::Q1 { threshold: 1 }),
            CacheUsageClass::Polluting
        );
        assert_eq!(
            en.classify(&WorkloadSpec::Q2 {
                agg: Aggregate::Max
            }),
            CacheUsageClass::Sensitive
        );
        assert!(matches!(
            en.classify(&WorkloadSpec::Q3),
            CacheUsageClass::Mixed { .. }
        ));
        // TPC-H 1 aggregates -> sensitive; TPC-H 6 is a pure scan.
        assert_eq!(
            en.classify(&WorkloadSpec::Tpch { id: 1 }),
            CacheUsageClass::Sensitive
        );
        assert_eq!(
            en.classify(&WorkloadSpec::Tpch { id: 6 }),
            CacheUsageClass::Polluting
        );
    }

    #[test]
    fn executes_each_native_workload() {
        let en = engine();
        let q1 = en.execute(&WorkloadSpec::Q1 { threshold: 25_000 });
        assert_eq!(q1.rows, 4_096);
        assert!(q1.result > 0, "roughly half the rows match");
        let q2 = en.execute(&WorkloadSpec::Q2 {
            agg: Aggregate::Sum,
        });
        assert_eq!(q2.result, 64, "one group per region");
        let q3 = en.execute(&WorkloadSpec::Q3);
        assert_eq!(q3.result, 4_096, "every foreign key matches");
        let t1 = en.execute(&WorkloadSpec::Tpch { id: 1 });
        assert!(t1.result > 0 && t1.rows > 0);
        let t5 = en.execute(&WorkloadSpec::Tpch { id: 5 });
        assert!(t5.rows > 0, "phase playback processed rows");
        let oltp = en.execute(&WorkloadSpec::Oltp { key: 7 });
        assert!(oltp.rows > 0, "key 7 exists in 1..=512");
        assert!(oltp.result > 0);
    }

    #[test]
    fn normalized_throughput_is_relative_to_best_run() {
        let en = engine();
        let first = en.execute(&WorkloadSpec::Q1 { threshold: 25_000 });
        assert!((first.normalized_throughput - 1.0).abs() < 1e-9);
        for _ in 0..3 {
            let again = en.execute(&WorkloadSpec::Q1 { threshold: 25_000 });
            assert!(again.normalized_throughput <= 1.0 + 1e-9);
            assert!(again.normalized_throughput > 0.0);
        }
    }

    #[test]
    fn outcome_renders_as_json_object() {
        let en = engine();
        let line = en
            .execute(&WorkloadSpec::Q3)
            .to_json_with(&Breakdown::default())
            .to_string();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("workload").unwrap().as_str(), Some("q3"));
        assert_eq!(parsed.get("class").unwrap().as_str(), Some("mixed"));
        assert!(parsed
            .get("mask")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("0x"));
        assert!(parsed.get("latency_secs").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn repeated_query_hits_and_shifts_admission_class() {
        let en = engine();
        let spec = WorkloadSpec::Q1 { threshold: 25_000 };
        // Cold: no prediction, the scan admits as the polluter it is.
        let (cuid, predicted) = en.classify_for_admission(&spec);
        assert_eq!(cuid, CacheUsageClass::Polluting);
        assert!(!predicted);
        let first = en.execute(&spec);
        assert_eq!(first.reuse, "miss");
        // Warm: predicted hit -> admitted sensitive-light, served cached.
        let (cuid, predicted) = en.classify_for_admission(&spec);
        assert_eq!(cuid, CacheUsageClass::Sensitive);
        assert!(predicted);
        let second = en.execute_admitted(&spec, cuid);
        assert_eq!(second.reuse, "hit");
        assert_eq!(second.class, Class::Sensitive);
        assert_eq!((second.rows, second.result), (first.rows, first.result));
        // A different threshold is a different key: miss again.
        let other = en.execute(&WorkloadSpec::Q1 { threshold: 10 });
        assert_eq!(other.reuse, "miss");
    }

    #[test]
    fn version_bump_invalidates_and_recovers() {
        let en = engine();
        let spec = WorkloadSpec::Q2 {
            agg: Aggregate::Sum,
        };
        assert_eq!(en.execute(&spec).reuse, "miss");
        assert_eq!(en.execute(&spec).reuse, "hit");
        en.reuse_cache()
            .expect("reuse on by default")
            .bump_version();
        let (cuid, predicted) = en.classify_for_admission(&spec);
        assert_eq!(cuid, CacheUsageClass::Sensitive, "q2 stays sensitive");
        assert!(!predicted, "bumped entry no longer predicts");
        assert_eq!(en.execute(&spec).reuse, "miss", "rebuilt after bump");
        assert_eq!(en.execute(&spec).reuse, "hit", "cache refills");
    }

    #[test]
    fn oltp_bypasses_and_disabling_reuse_bypasses_everything() {
        let mut en = engine();
        assert_eq!(en.execute(&WorkloadSpec::Oltp { key: 7 }).reuse, "bypass");
        en.configure_reuse(None);
        let spec = WorkloadSpec::Q1 { threshold: 25_000 };
        assert_eq!(en.execute(&spec).reuse, "bypass");
        assert_eq!(en.execute(&spec).reuse, "bypass");
        let (cuid, predicted) = en.classify_for_admission(&spec);
        assert_eq!(cuid, CacheUsageClass::Polluting);
        assert!(!predicted);
    }

    #[test]
    fn reuse_keys_are_emitted_canonical_under_static_names() {
        let mut specs = vec![
            WorkloadSpec::Q1 { threshold: 25_000 },
            WorkloadSpec::Q1 { threshold: -7 },
            WorkloadSpec::Q3,
        ];
        specs.extend(
            [
                Aggregate::Max,
                Aggregate::Min,
                Aggregate::Sum,
                Aggregate::Count,
            ]
            .map(|agg| WorkloadSpec::Q2 { agg }),
        );
        specs.extend(ccp_tpch::query_ids().map(|id| WorkloadSpec::Tpch { id }));
        for spec in &specs {
            let (qid, pred) = reuse_key_parts(spec).unwrap();
            assert!(matches!(qid, Cow::Borrowed(_)), "{qid} was formatted");
            assert_eq!(qid, spec.name());
            assert_eq!(ccp_reuse::canonicalize_predicate(&pred), pred);
        }
        assert_eq!(WorkloadSpec::Tpch { id: 22 }.name(), "tpch-22");
        // The keys the spaced spellings minted before.
        let q1 = reuse_key_parts(&WorkloadSpec::Q1 { threshold: 25_000 }).unwrap();
        assert_eq!(ccp_reuse::canonicalize_predicate("threshold < 25000"), q1.1);
        let q2 = reuse_key_parts(&WorkloadSpec::Q2 {
            agg: Aggregate::Count,
        })
        .unwrap();
        assert_eq!(ccp_reuse::canonicalize_predicate("agg = count"), q2.1);
        assert!(reuse_key_parts(&WorkloadSpec::Oltp { key: 7 }).is_none());
    }

    /// A reply's `(class, mask)`.
    type Reply = (&'static str, u32);

    /// The `(class, mask)` every spec replied with before its plan
    /// classified it: `(spec, cold, after a predicted reuse hit)`, from
    /// `classify_for_admission` → `execute_admitted` on a fresh engine
    /// over 4 096 rows.
    fn pinned_replies() -> Vec<(WorkloadSpec, Reply, Reply)> {
        const POL: Reply = ("polluting", 0x3);
        const SEN: Reply = ("sensitive", 0xfffff);
        const MIX_SMALL: Reply = ("mixed", 0x3);
        const MIX_LLC: Reply = ("mixed", 0xfff);
        let mut rows = vec![(WorkloadSpec::Q1 { threshold: 25_000 }, POL, SEN)];
        for agg in [
            Aggregate::Max,
            Aggregate::Min,
            Aggregate::Sum,
            Aggregate::Count,
        ] {
            rows.push((WorkloadSpec::Q2 { agg }, SEN, SEN));
        }
        rows.push((WorkloadSpec::Q3, MIX_SMALL, SEN));
        rows.push((WorkloadSpec::Oltp { key: 7 }, SEN, SEN));
        let tpch = [
            SEN, MIX_SMALL, MIX_LLC, MIX_LLC, MIX_LLC, POL, MIX_SMALL, MIX_LLC, MIX_LLC, MIX_LLC,
            POL, MIX_LLC, MIX_LLC, POL, SEN, POL, MIX_LLC, SEN, MIX_LLC, MIX_LLC, MIX_SMALL, POL,
        ];
        for (id, cold) in ccp_tpch::query_ids().zip(tpch) {
            rows.push((WorkloadSpec::Tpch { id }, cold, SEN));
        }
        rows
    }

    #[test]
    fn every_spec_replies_its_pinned_class_and_mask() {
        let en = engine();
        for (spec, cold, warm) in pinned_replies() {
            for (round, want) in [("cold", cold), ("warm", warm)] {
                let (cuid, _) = en.classify_for_admission(&spec);
                let out = en.execute_admitted(&spec, cuid);
                assert!(out.rows > 0, "{} {round} processed no rows", spec.name());
                assert_eq!(
                    (out.class.label(), out.mask_bits),
                    want,
                    "{} {round}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn a_native_plan_names_the_masks_its_jobs_bind() {
        let mut specs = vec![
            WorkloadSpec::Q1 { threshold: 25_000 },
            WorkloadSpec::Q3,
            WorkloadSpec::Tpch { id: 1 },
            WorkloadSpec::Tpch { id: 6 },
        ];
        specs.extend(
            [
                Aggregate::Max,
                Aggregate::Min,
                Aggregate::Sum,
                Aggregate::Count,
            ]
            .map(|agg| WorkloadSpec::Q2 { agg }),
        );
        for spec in &specs {
            let rec = Arc::new(RecordingAllocator::new());
            let en = QueryEngine::with_allocator(2, 1, 4_096, rec.clone(), false);
            let out = en.execute(spec);
            let (policy, plan) = (en.policy(), en.data.plan(spec));
            let planned: Vec<u32> = plan
                .phases
                .iter()
                .map(|phase| policy.mask_for(phase.cuid()).bits())
                .collect();
            let bound = rec.calls();
            assert!(!bound.is_empty(), "{} bound nothing", spec.name());
            for (_, mask) in bound {
                assert!(
                    planned.contains(&mask.bits()),
                    "{} bound {mask:?}, plan masks {planned:x?}",
                    spec.name()
                );
            }
            assert_eq!(out.mask_bits, policy.mask_for(plan.class()).bits());
        }
    }
}
