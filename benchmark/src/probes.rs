//! Fixed-input probes: one number per layer, independent of the
//! workload. One thread unless a probe says otherwise; every timed probe
//! reports the median of at least [`MIN_BATCHES`] batches with its MAD.

use crate::report::Metric;
use crate::stats::{mad, median};
use ccp_cachesim::{AddrSpace, HierarchyConfig, WayMask};
use ccp_control::{ClassId, ClassReading, ControlConfig, Controller, MaskPlan, TickInput};
use ccp_engine::ops::{aggregate, join, scan};
use ccp_engine::sim::{run_concurrent, SimWorkload};
use ccp_engine::{
    CacheAllocator, CacheAwareScheduler, CacheUsageClass, Job, JobExecutor, NoopAllocator,
    PartitionPolicy, ResctrlAllocator, SchedulerMetrics,
};
use ccp_flight::{FlightRecorder, RecorderConfig};
use ccp_obs::{Histogram, Registry};
use ccp_resctrl::{fs::FakeFs, CacheController};
use ccp_reuse::{Artifact, Begin, ResultSet, ReuseCache, ReuseConfig};
use ccp_server::{AdmissionQueue, ServerMetrics};
use ccp_storage::{
    gen, AggHashTable, Aggregate, BitVec, DictColumn, InvertedIndex, PackedCodeVector,
};
use ccp_trace::TraceCat;
use ccp_workloads::{paper, s4hana};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIN_BATCHES: usize = 15;
/// A probe keeps batching until it has [`MIN_BATCHES`] and this much
/// measured time, so cheap probes get hundreds of batches.
const PROBE_BUDGET: Duration = Duration::from_millis(40);
const MAX_BATCHES: usize = 2_000;

/// Rows in the probe columns (the served dataset is larger; probes
/// report rates, and their set-up must stay well under a second).
const ROWS: usize = 1_000_000;

/// Seconds per call of `batch`, after two untimed warm-up calls.
fn time_batches(mut batch: impl FnMut()) -> Vec<f64> {
    batch();
    batch();
    let mut secs = Vec::with_capacity(MIN_BATCHES);
    let started = Instant::now();
    while secs.len() < MIN_BATCHES || (started.elapsed() < PROBE_BUDGET && secs.len() < MAX_BATCHES)
    {
        let t = Instant::now();
        batch();
        secs.push(t.elapsed().as_secs_f64());
    }
    secs
}

/// Times `batch`, converts each batch's seconds with `to_value`, and
/// reports the median with its MAD.
fn probe(
    name: &'static str,
    unit: &'static str,
    to_value: impl Fn(f64) -> f64,
    batch: impl FnMut(),
) -> Metric {
    let values: Vec<f64> = time_batches(batch).into_iter().map(to_value).collect();
    Metric {
        mad: Some(mad(&values)),
        ..Metric::new(name, unit, median(&values))
    }
}

/// Nanoseconds per operation for a batch of `ops` operations.
fn ns_per(ops: usize) -> impl Fn(f64) -> f64 {
    move |secs| secs * 1e9 / ops as f64
}

/// Microseconds per operation for a batch of `ops` operations.
fn us_per(ops: usize) -> impl Fn(f64) -> f64 {
    move |secs| secs * 1e6 / ops as f64
}

/// Units per second for a batch covering `units`.
fn per_s(units: usize) -> impl Fn(f64) -> f64 {
    move |secs| units as f64 / secs
}

/// Deterministic pseudo-random `u32`s below `bound`.
fn random_u32s(n: usize, bound: u32, seed: u64) -> Vec<u32> {
    let mut rng = crate::schedule::Rng::new(seed);
    (0..n)
        .map(|_| (rng.next_u64() % u64::from(bound)) as u32)
        .collect()
}

fn policy() -> PartitionPolicy {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes)
}

fn mask(bits: u32) -> WayMask {
    WayMask::new(bits).expect("contiguous non-empty mask")
}

fn fake_controller() -> CacheController {
    let fs = FakeFs::new("/sys/fs/resctrl", 0xfffff, 2, 16, &[0]);
    CacheController::open_with(Box::new(fs), "/sys/fs/resctrl").expect("fake resctrl opens")
}

/// The roofline: bytes copied per second between two 32 MiB buffers.
pub fn memcpy_gbps() -> Metric {
    const COPY: usize = 32 << 20;
    let src = vec![1u8; COPY];
    let mut dst = vec![0u8; COPY];
    probe(
        "host.memcpy_gbps",
        "GB/s",
        |s| COPY as f64 / s / 1e9,
        || {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        },
    )
}

fn storage_probes(out: &mut Vec<Metric>) {
    let memcpy = memcpy_gbps();
    let roofline = memcpy.value;
    out.push(memcpy);

    let codes = random_u32s(4_000_000, 50_000, 1);
    let packed = PackedCodeVector::from_codes(16, &codes);
    let bytes = packed.packed_bytes() as f64;
    let count = probe(
        "storage.bitpack.count_gbps",
        "GB/s",
        |s| bytes / s / 1e9,
        || {
            black_box(packed.count_in_range(black_box(10_000..30_000)));
        },
    );
    out.push(Metric::new(
        "storage.bitpack.roofline_share",
        "ratio",
        count.value / roofline,
    ));
    out.push(count);
    drop((codes, packed));

    // 64 groups is what the served region column has; 100 k groups is
    // the paper's cache-sensitive regime the served data never reaches.
    for (name, groups) in [
        ("storage.hashtable.update_ns.g64", 64u32),
        ("storage.hashtable.update_ns.g100k", 100_000),
    ] {
        let keys = random_u32s(ROWS, groups, 2);
        let mut table = AggHashTable::new(Aggregate::Sum, groups as usize);
        out.push(probe(name, "ns", ns_per(ROWS), || {
            for &k in &keys {
                table.update(k, 3);
            }
            black_box(table.len());
        }));
    }

    let bits = 500_000u64;
    let mut bv = BitVec::zeros(bits);
    (0..bits).step_by(2).for_each(|i| bv.set(i));
    let at = random_u32s(ROWS, bits as u32, 3);
    out.push(probe("storage.bitvec.probe_ns", "ns", ns_per(ROWS), || {
        let hits = at.iter().filter(|&&i| bv.get(u64::from(i))).count();
        black_box(hits);
    }));

    let keys = DictColumn::build(&gen::uniform_ints(ROWS, (ROWS / 8) as i64, 31));
    let index = InvertedIndex::build(keys.codes().iter(), keys.dict().len());
    let lookups = random_u32s(100_000, keys.dict().len() as u32, 4);
    out.push(probe(
        "storage.invindex.lookup_ns",
        "ns",
        ns_per(lookups.len()),
        || {
            let rows: usize = lookups.iter().map(|&c| index.lookup(c).len()).sum();
            black_box(rows);
        },
    ));
}

fn engine_probes(out: &mut Vec<Metric>) {
    let ex = JobExecutor::new(2, policy(), Arc::new(NoopAllocator));
    let amounts = Arc::new(DictColumn::build(&gen::uniform_ints(ROWS, 50_000, 11)));
    let regions = Arc::new(DictColumn::build(&gen::uniform_ints(ROWS, 64, 12)));
    out.push(probe("engine.scan.rows_per_s", "1/s", per_s(ROWS), || {
        black_box(scan::column_scan(&ex, &amounts, 25_000));
    }));
    out.push(probe(
        "engine.aggregate.rows_per_s",
        "1/s",
        per_s(ROWS),
        || {
            black_box(aggregate::grouped_aggregate(&ex, &amounts, &regions, Aggregate::Sum).len());
        },
    ));
    drop(regions);

    let keys = ROWS / 4;
    let pk = Arc::new(DictColumn::build(&gen::primary_keys(keys, 21)));
    let fk = Arc::new(DictColumn::build(&gen::foreign_keys(ROWS, keys as i64, 22)));
    out.push(probe(
        "engine.join.build_ms",
        "ms",
        |s| s * 1e3,
        || {
            black_box(join::fk_bit_vector(&pk).len());
        },
    ));
    let bv = Arc::new(join::fk_bit_vector(&pk));
    out.push(probe(
        "engine.join.probe_rows_per_s",
        "1/s",
        per_s(ROWS),
        || {
            black_box(join::fk_probe_count(&ex, Arc::clone(&bv), &fk));
        },
    ));
    drop((pk, fk, bv));

    let (lineitem, _orders) = ccp_tpch::sample_database(ROWS / 2, ROWS / 8, 7);
    let rows = lineitem.row_count();
    out.push(probe("tpch.q1_rows_per_s", "1/s", per_s(rows), || {
        black_box(ccp_tpch::q1_pricing_summary(&ex, &lineitem).len());
    }));
    out.push(probe("tpch.q6_rows_per_s", "1/s", per_s(rows), || {
        black_box(ccp_tpch::q6_forecast_revenue(&ex, &lineitem, 24, 4..=6));
    }));

    // The executor's fixed costs: hand one empty job to a worker and
    // wait for it; fan nothing out over both workers and join.
    const REPS: usize = 200;
    out.push(probe(
        "engine.executor.submit_wait_us",
        "us",
        us_per(REPS),
        || {
            for _ in 0..REPS {
                ex.submit_batch(vec![Job::new("noop", CacheUsageClass::Sensitive, || {})])
                    .wait();
            }
        },
    ));
    out.push(probe(
        "engine.executor.fanout_us",
        "us",
        us_per(REPS),
        || {
            for _ in 0..REPS {
                black_box(ex.parallel_sum("noop", CacheUsageClass::Sensitive, 2, 2, |_| 0));
            }
        },
    ));
}

fn resctrl_probes(out: &mut Vec<Metric>) {
    const REPS: usize = 1_000;
    let alloc = ResctrlAllocator::new(fake_controller(), vec![0]);
    let (narrow, full) = (mask(0x3), mask(0xfffff));
    alloc.bind(1, full).expect("fake bind");
    out.push(probe(
        "engine.alloc.bind_same_ns",
        "ns",
        ns_per(REPS),
        || {
            for _ in 0..REPS {
                alloc.bind(1, full).expect("fake bind");
            }
        },
    ));
    out.push(probe(
        "engine.alloc.bind_switch_us",
        "us",
        us_per(2 * REPS),
        || {
            for _ in 0..REPS {
                alloc.bind(1, narrow).expect("fake bind");
                alloc.bind(1, full).expect("fake bind");
            }
        },
    ));
    let mut ctl = fake_controller();
    let group = ctl.create_group("probe").expect("fake group");
    out.push(probe(
        "resctrl.write_schemata_us",
        "us",
        us_per(2 * REPS),
        || {
            for _ in 0..REPS {
                ctl.set_l3_mask(&group, 0, narrow).expect("fake write");
                ctl.set_l3_mask(&group, 0, full).expect("fake write");
            }
        },
    ));
}

fn admission_probes(out: &mut Vec<Metric>) {
    const REPS: usize = 1_000;
    let queue = Arc::new(AdmissionQueue::new(
        CacheAwareScheduler::new(policy(), 2),
        16,
        SchedulerMetrics::new(),
        ServerMetrics::new(&Registry::new()),
    ));
    let cycle = |class| {
        for _ in 0..REPS {
            drop(queue.acquire(class).expect("a free slot"));
        }
    };
    out.push(probe(
        "admission.uncontended_ns",
        "ns",
        ns_per(REPS),
        || cycle(CacheUsageClass::Sensitive),
    ));
    // A second thread cycles permits of a class that may co-run, so the
    // measured thread never waits for a slot, only for the queue's lock.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                drop(queue.acquire(CacheUsageClass::Polluting));
            }
        });
        out.push(probe("admission.contended_ns", "ns", ns_per(REPS), || {
            cycle(CacheUsageClass::Sensitive)
        }));
        stop.store(true, Ordering::Relaxed);
    });
}

fn reuse_probes(out: &mut Vec<Metric>) {
    const REPS: usize = 1_000;
    let cache = ReuseCache::new(ReuseConfig::with_budget(64 << 20));
    let result = || Artifact::ResultSet(Arc::new(ResultSet { rows: 1, result: 1 }));
    let publish = |key| match cache.begin(&key) {
        Begin::Build(guard) => {
            guard.publish(result(), Duration::from_millis(5));
        }
        Begin::Hit(_) => {}
    };
    let hot = cache.key("q1", "threshold < 25000");
    publish(hot.clone());
    out.push(probe("reuse.lookup_hit_ns", "ns", ns_per(REPS), || {
        for _ in 0..REPS {
            black_box(matches!(cache.begin(&hot), Begin::Hit(_)));
        }
    }));
    let mut next = 0u64;
    out.push(probe("reuse.publish_ns", "ns", ns_per(REPS), || {
        for _ in 0..REPS {
            next += 1;
            publish(cache.key("q1", &format!("threshold < {next}")));
        }
    }));
    out.push(probe("reuse.bump_ns", "ns", ns_per(REPS), || {
        for _ in 0..REPS {
            black_box(cache.bump_version());
        }
    }));
}

/// Observability costs: together they bound what the recorder, the
/// tracer and the control loop can cost a request.
fn observability_probes(out: &mut Vec<Metric>) {
    const REPS: usize = 10_000;
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let p = policy();
    let plan = MaskPlan::new(
        p.mask_for(CacheUsageClass::Polluting),
        p.mask_for(CacheUsageClass::Mixed {
            hot_bytes: cfg.llc.size_bytes,
        }),
        p.mask_for(CacheUsageClass::Sensitive),
    );
    let mut controller = Controller::new(
        ControlConfig::paper_default(cfg.llc.ways, cfg.llc.size_bytes),
        plan,
    );
    let mut seq = 0u64;
    out.push(probe("control.tick_ns", "ns", ns_per(REPS), || {
        for _ in 0..REPS {
            seq += 1;
            let readings = ClassId::ALL.map(|class| ClassReading {
                class,
                occupancy_bytes: (seq % 7 + 1) * (4 << 20),
                mbm_total_bytes: seq * (1 << 20),
            });
            black_box(controller.tick(&TickInput {
                seq,
                readings: &readings,
                degraded: false,
            }));
        }
    }));

    let histogram = Histogram::latency();
    out.push(probe("obs.histogram_record_ns", "ns", ns_per(REPS), || {
        for i in 0..REPS {
            histogram.observe(1e-6 * (i % 1_000) as f64);
        }
    }));

    ccp_trace::enable(ccp_trace::TraceConfig::default());
    out.push(probe("trace.span_ns", "ns", ns_per(REPS), || {
        for i in 0..REPS {
            drop(ccp_trace::span_id(TraceCat::Op, "probe", i as u64));
        }
    }));

    // One flight-recorder tick over a registry shaped like the server's:
    // both executor pools, the scheduler and the server families.
    let registry = Registry::new();
    let pools = ccp_engine::DualPoolExecutor::new(2, 1, p, Arc::new(NoopAllocator));
    pools.register_metrics(&registry);
    SchedulerMetrics::new().register_into(&registry);
    let _server = ServerMetrics::new(&registry);
    let (_handle, mut sampler) = FlightRecorder::manual(&registry, RecorderConfig::default());
    out.push(probe("flight.sample_us", "us", us_per(1), || {
        sampler.tick()
    }));
}

/// Simulator speed and two headline ratios of the paper on the quick
/// windows of `crates/bench` (`CCP_QUICK`). The ratios are pure
/// functions of the simulator and repeat exactly; a change that moves
/// them has changed fidelity. Shorter windows end before the scan has
/// evicted anything and show no gain at all.
fn cachesim_probes(out: &mut Vec<Metric>) {
    const WARM: u64 = 2_000_000;
    const MEASURE: u64 = 4_000_000;
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let mut accesses = 0u64;
    let started = Instant::now();
    // Throughput of the protected query beside the scan, scan confined
    // to 0x3 over scan unconfined, minus one.
    let mut gain = |protected: &dyn Fn(&mut AddrSpace) -> Box<dyn ccp_engine::sim::SimOperator>| {
        let mut run = |scan_mask| {
            let mut space = AddrSpace::new();
            let workloads = vec![
                SimWorkload::unpartitioned("protected", protected(&mut space)),
                SimWorkload {
                    name: "q1".into(),
                    op: paper::q1_scan(&mut space),
                    mask: scan_mask,
                },
            ];
            let outcome = run_concurrent(&cfg, workloads, WARM, MEASURE);
            accesses += outcome.combined.l2.accesses();
            outcome.streams[0].throughput
        };
        let base = run(None);
        run(Some(mask(0x3))) / base - 1.0
    };
    let fig9 = gain(&|s| paper::q2_aggregation(s, paper::DICT_4MIB, 100_000));
    let fig12 = gain(&|s| s4hana::oltp_13col(s));
    let secs = started.elapsed().as_secs_f64();
    out.push(Metric::new(
        "cachesim.accesses_per_s",
        "1/s",
        accesses as f64 / secs,
    ));
    out.push(Metric::new("cachesim.fig9_q2_gain", "ratio", fig9));
    out.push(Metric::new("cachesim.fig12_oltp_gain", "ratio", fig12));
}

/// Runs every probe.
pub fn run_all() -> Vec<Metric> {
    let mut out = Vec::new();
    storage_probes(&mut out);
    engine_probes(&mut out);
    resctrl_probes(&mut out);
    admission_probes(&mut out);
    reuse_probes(&mut out);
    observability_probes(&mut out);
    cachesim_probes(&mut out);
    out
}
