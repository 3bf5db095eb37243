//! Criterion microbenchmarks for the column-store substrate: compressed
//! scan throughput, dictionary encode/decode and column build, hash-table
//! update and bit-vector probe rates. These are the native (non-simulated)
//! kernels that would run under resctrl on CAT hardware.

use ccp_storage::bitpack::{scan_blocks, SCAN_BLOCK};
use ccp_storage::{
    gen, AggHashTable, Aggregate, BitVec, DictColumn, InvertedIndex, PackedCodeVector,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::ops::Bound;

const ROWS: usize = 1 << 16;

fn bench_compressed_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage/scan");
    g.throughput(Throughput::Elements(ROWS as u64));
    // 20 bits is the paper's column; 6 and 16 bits are the widths the
    // server's `regions` and `amounts` columns have.
    for (id, distinct) in [
        ("count_range_20bit", 1_000_000i64),
        ("count_range_16bit", 50_000),
        ("count_range_6bit", 64),
    ] {
        let col = DictColumn::build(&gen::uniform_ints(ROWS, distinct, 1));
        let threshold = distinct / 2;
        g.bench_function(id, |b| {
            b.iter(|| col.count_range(Bound::Excluded(&threshold), Bound::Unbounded));
        });
    }
    g.finish();
}

fn bench_dictionary(c: &mut Criterion) {
    let values = gen::uniform_ints(ROWS, 100_000, 2);
    let col = DictColumn::build(&values);
    let dict = col.dict();
    let mut g = c.benchmark_group("storage/dict");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("encode_1k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in values.iter().take(1024) {
                acc += u64::from(dict.encode(v).unwrap());
            }
            acc
        });
    });
    g.bench_function("decode_1k", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for i in 0..1024 {
                acc += *dict.decode(col.code_at(i));
            }
            acc
        });
    });
    // Whole-column encodes: a wide domain (128 k values, 17-bit codes)
    // and the server's 64-region one, both through the rank table.
    const BUILD_ROWS: usize = 1 << 18;
    g.throughput(Throughput::Elements(BUILD_ROWS as u64));
    for (id, distinct) in [("build_256k_wide", 1i64 << 17), ("build_256k_narrow", 64)] {
        let values = gen::uniform_ints(BUILD_ROWS, distinct, 5);
        g.bench_function(id, |b| b.iter(|| DictColumn::build(&values).len()));
    }
    g.finish();
}

fn bench_hashtable(c: &mut Criterion) {
    let keys: Vec<u32> = gen::uniform_ints(ROWS, 100_000, 3)
        .into_iter()
        .map(|v| v as u32)
        .collect();
    let mut g = c.benchmark_group("storage/hashtable");
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function("update_100k_groups", |b| {
        b.iter_batched_ref(
            || AggHashTable::new(Aggregate::Max, 100_000),
            |t| {
                for (i, &k) in keys.iter().enumerate() {
                    t.update(k, i as i64);
                }
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_bitvec_probe(c: &mut Criterion) {
    let mut bv = BitVec::zeros(1_000_000);
    for i in (0..1_000_000).step_by(2) {
        bv.set(i);
    }
    let probes = gen::foreign_keys(ROWS, 999_999, 4);
    let mut g = c.benchmark_group("storage/bitvec");
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function("probe_1m_bits", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &k in &probes {
                if bv.get(k as u64) {
                    hits += 1;
                }
            }
            hits
        });
    });
    // The served q3's build side: 500 k sorted keys into a 500 001-bit
    // vector, one store per word.
    const KEYS: u64 = 500_000;
    g.throughput(Throughput::Elements(KEYS));
    g.bench_function("from_ascending_500k", |b| {
        b.iter(|| BitVec::from_ascending(KEYS + 1, 1..=KEYS).len());
    });
    // The served q3's translation on one thread: the 490 808 distinct
    // values of 2 M foreign keys over that key domain, 64 per word.
    let held = BitVec::from_ascending(KEYS + 1, 1..=KEYS);
    let fk = DictColumn::build(&gen::foreign_keys(2_000_000, KEYS as i64, 22));
    let fk_keys = fk.dict().iter().as_slice();
    assert_eq!(fk_keys.len(), 490_808);
    g.throughput(Throughput::Elements(fk_keys.len() as u64));
    g.bench_function("translate_490k", |b| {
        b.iter(|| {
            let words = held.held_words(fk_keys).collect();
            BitVec::from_words(fk_keys.len() as u64, words).len()
        });
    });
    g.finish();
}

fn bench_inverted_index(c: &mut Criterion) {
    let codes: Vec<u32> = (0..ROWS as u32).map(|i| i % 1000).collect();
    let idx = InvertedIndex::build(codes.iter().copied(), 1000);
    let mut g = c.benchmark_group("storage/invindex");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("lookup_1k_codes", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for c in 0..1000u32 {
                total += idx.lookup(c).len();
            }
            total
        });
    });
    g.finish();
}

fn bench_bitpack(c: &mut Criterion) {
    let codes: Vec<u32> = (0..ROWS as u32).map(|i| i % (1 << 20)).collect();
    let mut g = c.benchmark_group("storage/bitpack");
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function("pack_20bit", |b| {
        b.iter(|| PackedCodeVector::from_codes(20, &codes));
    });
    let packed = PackedCodeVector::from_codes(20, &codes);
    g.bench_function("unpack_20bit", |b| {
        let mut block = [0u32; SCAN_BLOCK];
        b.iter(|| {
            let mut acc = 0u64;
            for rows in scan_blocks(0..packed.len()) {
                let codes = &mut block[..rows.len()];
                packed.unpack(rows.start, codes);
                acc += u64::from(codes[0]);
            }
            acc
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_compressed_scan,
    bench_dictionary,
    bench_hashtable,
    bench_bitvec_probe,
    bench_inverted_index,
    bench_bitpack
);
criterion_main!(benches);
