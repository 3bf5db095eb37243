//! Criterion microbenchmarks for the execution engine: job dispatch
//! overhead (with and without mask switching), the partition policy's
//! mask derivation, the grouped aggregation the server runs as `q2` and
//! the probe of its `q3` join.
//! Dispatch latency matters because the paper's integration point is
//! per-job: a slow path here would tax short OLTP statements.

use ccp_cachesim::HierarchyConfig;
use ccp_engine::alloc::NoopAllocator;
use ccp_engine::job::{CacheUsageClass, Job};
use ccp_engine::ops::{aggregate, join};
use ccp_engine::partition::PartitionPolicy;
use ccp_engine::JobExecutor;
use ccp_storage::{gen, Aggregate, DictColumn};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

fn policy() -> PartitionPolicy {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes)
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/dispatch");
    g.throughput(Throughput::Elements(256));
    g.bench_function("same_class_jobs", |b| {
        let ex = JobExecutor::new(4, policy(), Arc::new(NoopAllocator));
        b.iter(|| {
            let jobs: Vec<Job> = (0..256)
                .map(|i| Job::new(format!("j{i}"), CacheUsageClass::Polluting, || {}))
                .collect();
            ex.submit_batch(jobs).wait();
        });
    });
    g.bench_function("alternating_class_jobs", |b| {
        let ex = JobExecutor::new(4, policy(), Arc::new(NoopAllocator));
        b.iter(|| {
            let jobs: Vec<Job> = (0..256)
                .map(|i| {
                    let cuid = if i % 2 == 0 {
                        CacheUsageClass::Polluting
                    } else {
                        CacheUsageClass::Sensitive
                    };
                    Job::new(format!("j{i}"), cuid, || {})
                })
                .collect();
            ex.submit_batch(jobs).wait();
        });
    });
    g.finish();
}

fn bench_policy(c: &mut Criterion) {
    let p = policy();
    let mut g = c.benchmark_group("engine/policy");
    g.throughput(Throughput::Elements(3));
    g.bench_function("mask_for_all_classes", |b| {
        b.iter(|| {
            let a = p.mask_for(CacheUsageClass::Polluting);
            let s = p.mask_for(CacheUsageClass::Sensitive);
            let m = p.mask_for(CacheUsageClass::Mixed {
                hot_bytes: 12_500_000,
            });
            (a.bits(), s.bits(), m.bits())
        });
    });
    g.finish();
}

/// The served `q2` at half its size: 16-bit amounts grouped by 64 regions
/// on the two-worker OLAP pool.
fn bench_aggregate(c: &mut Criterion) {
    const ROWS: usize = 1_000_000;
    let amounts = Arc::new(DictColumn::build(&gen::uniform_ints(ROWS, 50_000, 11)));
    let regions = Arc::new(DictColumn::build(&gen::uniform_ints(ROWS, 64, 12)));
    let ex = JobExecutor::new(2, policy(), Arc::new(NoopAllocator));
    let mut g = c.benchmark_group("engine/aggregate");
    g.throughput(Throughput::Elements(ROWS as u64));
    for (id, agg) in [
        ("q2_max_64_groups", Aggregate::Max),
        ("q2_sum_64_groups", Aggregate::Sum),
        ("q2_count_64_groups", Aggregate::Count),
    ] {
        g.bench_function(id, |b| {
            b.iter(|| aggregate::grouped_aggregate(&ex, &amounts, &regions, agg).len());
        });
    }
    g.finish();
}

/// The served `q3` probe: 2 M foreign keys (19-bit codes) over 500 k
/// primary keys on the two-worker OLAP pool, the translation of the key
/// bit vector through the foreign-key dictionary included.
fn bench_join(c: &mut Criterion) {
    const ROWS: usize = 2_000_000;
    const KEYS: usize = 500_000;
    let pk = Arc::new(DictColumn::build(&gen::primary_keys(KEYS, 21)));
    let fk = Arc::new(DictColumn::build(&gen::foreign_keys(ROWS, KEYS as i64, 22)));
    let bv = Arc::new(join::fk_bit_vector(&pk));
    let ex = JobExecutor::new(2, policy(), Arc::new(NoopAllocator));
    let mut g = c.benchmark_group("engine/join");
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function("q3_probe_19bit", |b| {
        b.iter(|| join::fk_probe_count(&ex, Arc::clone(&bv), &fk));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_policy,
    bench_aggregate,
    bench_join
);
criterion_main!(benches);
