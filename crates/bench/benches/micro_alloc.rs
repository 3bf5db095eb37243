//! Criterion microbenchmarks for the cache-allocation fast path.
//!
//! The paper (Section V-C) measures that associating a thread with a new
//! CAT bitmask through the kernel costs < 100 µs, and that the engine's
//! old-vs-new comparison makes repeated identical binds free. These
//! benchmarks quantify both paths of our implementation (against the
//! in-memory fake resctrl tree — the kernel round-trip is hardware-bound).

use ccp_cachesim::WayMask;
use ccp_engine::alloc::{CacheAllocator, ResctrlAllocator};
use ccp_resctrl::fs::FakeFs;
use ccp_resctrl::CacheController;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn allocator() -> ResctrlAllocator {
    let fs = FakeFs::broadwell();
    let ctl = CacheController::open_with(Box::new(fs), "/sys/fs/resctrl")
        .expect("fake tree always mounts");
    ResctrlAllocator::new(ctl, vec![0])
}

fn bench_bind_fast_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc/fast_path");
    // Repeated identical bind: should be a cache lookup, no fs write.
    g.bench_function("rebind_same_mask", |b| {
        let a = allocator();
        let mask = WayMask::new(0x3).expect("valid");
        a.bind(42, mask).expect("first bind");
        b.iter(|| a.bind(42, mask).expect("cached bind"));
    });
    g.finish();
}

fn bench_bind_switch(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc/switch");
    // Alternating masks on a fresh tree each iteration (worst case): both
    // binds make their mask's group — the group's one schemata write —
    // and write the tasks file. On a warm tree a switch is the tasks
    // write alone.
    g.bench_function("alternate_masks", |b| {
        b.iter_batched_ref(
            allocator,
            |a| {
                a.bind(1, WayMask::new(0x3).expect("valid")).expect("bind");
                a.bind(1, WayMask::new(0xfffff).expect("valid"))
                    .expect("bind");
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_group_creation(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc/group_create");
    g.bench_function("first_bind_creates_group", |b| {
        b.iter_batched_ref(
            allocator,
            |a| {
                a.bind(7, WayMask::new(0xfff).expect("valid"))
                    .expect("bind")
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_bind_fast_path,
    bench_bind_switch,
    bench_group_creation
);
criterion_main!(benches);
