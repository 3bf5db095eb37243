//! Simulated grouped aggregation (paper Query 2).
//!
//! Access pattern per input row (Section III-A/IV-B):
//!
//! 1. sequential read of the packed `V` and `G` code vectors,
//! 2. one random access into `V`'s dictionary (decompression for the
//!    aggregate),
//! 3. one random access into the hash-table footprint (thread-local
//!    pre-aggregation; [`super::HT_BYTES_PER_GROUP`] bytes per group across
//!    all 44 threads).
//!
//! The operator is cache-sensitive exactly when dictionary + hash table are
//! comparable to the (allocated) LLC — Figures 5a–c.

use super::{zipf::ZipfSampler, SimOperator, SimRng, HT_BYTES_PER_GROUP};
use crate::job::CacheUsageClass;
use ccp_cachesim::{AccessKind, AddrSpace, MemoryHierarchy, Region, StreamId};

/// Rows processed per scheduling batch.
const BATCH_ROWS: u64 = 32;

/// Simulated Query 2.
#[derive(Debug)]
pub struct AggregationSim {
    codes: Region,
    dict: Region,
    ht: Region,
    /// Combined V+G packed width in bits.
    code_bits: u64,
    /// Aggregate CPU per row (hash + compare + fold across 44 threads),
    /// centi-cycles.
    cpu_centi_per_row: u64,
    row: u64,
    rows: u64,
    next_byte: u64,
    rng: SimRng,
    /// Number of groups (hash-table entries).
    groups: u64,
    /// Optional Zipf skew on the grouping column: hot groups concentrate
    /// hash-table accesses on a working set much smaller than the table.
    group_skew: Option<ZipfSampler>,
}

impl AggregationSim {
    /// Creates the aggregation over `rows` input rows with `distinct_v`
    /// distinct aggregated values (dictionary of `8 × distinct_v` bytes)
    /// and `groups` groups (hash-table footprint of
    /// `HT_BYTES_PER_GROUP × groups` bytes).
    ///
    /// # Panics
    /// Panics when any cardinality is zero.
    pub fn new(space: &mut AddrSpace, rows: u64, distinct_v: u64, groups: u64) -> Self {
        assert!(
            rows > 0 && distinct_v > 0 && groups > 0,
            "cardinalities must be positive"
        );
        let bits_v = 64 - (distinct_v - 1).max(1).leading_zeros() as u64;
        let bits_g = 64 - (groups - 1).max(1).leading_zeros() as u64;
        let code_bits = bits_v + bits_g;
        AggregationSim {
            codes: space.alloc((rows * code_bits).div_ceil(8)),
            dict: space.alloc(distinct_v * 8),
            ht: space.alloc(groups * HT_BYTES_PER_GROUP),
            code_bits,
            cpu_centi_per_row: 40,
            row: 0,
            rows,
            next_byte: 0,
            rng: SimRng::new(0xa66),
            groups,
            group_skew: None,
        }
    }

    /// Makes the grouping column Zipf-distributed with exponent `s`
    /// (rank 1 = hottest group). The paper's data is uniform; this is the
    /// knob behind the `abl_skew` ablation.
    ///
    /// # Panics
    /// Panics when `s` is not positive and finite.
    pub fn with_group_skew(mut self, s: f64) -> Self {
        self.group_skew = Some(ZipfSampler::new(self.groups, s));
        self
    }

    /// A paper Figure 5 configuration: dictionary of `dict_bytes` and
    /// `groups` groups (rows scaled by the caller).
    pub fn paper_q2(space: &mut AddrSpace, rows: u64, dict_bytes: u64, groups: u64) -> Self {
        Self::new(space, rows, (dict_bytes / 8).max(1), groups)
    }

    /// Dictionary footprint in bytes.
    pub fn dict_bytes(&self) -> u64 {
        self.dict.len
    }
}

impl SimOperator for AggregationSim {
    fn name(&self) -> String {
        format!(
            "aggregation({} rows, dict {} MiB, ht {} KiB)",
            self.rows,
            self.dict.len >> 20,
            self.ht.len >> 10
        )
    }

    fn cuid(&self) -> CacheUsageClass {
        CacheUsageClass::Sensitive
    }

    fn parallelism(&self) -> u32 {
        // 44 threads of pointer-chasing updates: high MLP but less than a
        // prefetched stream.
        24
    }

    fn batch(&mut self, mem: &mut MemoryHierarchy, stream: StreamId) -> u64 {
        let todo = BATCH_ROWS.min(self.rows - self.row);
        // 1. Stream the packed codes (sequential, prefetched).
        let end_byte = ((self.row + todo) * self.code_bits)
            .div_ceil(8)
            .min(self.codes.len);
        // First *untouched* line: a batch boundary inside a line means that
        // line was already accessed by the previous batch.
        let mut line_byte =
            self.next_byte.div_ceil(ccp_cachesim::LINE_BYTES) * ccp_cachesim::LINE_BYTES;
        while line_byte < end_byte {
            mem.access(stream, self.codes.addr(line_byte), AccessKind::Read);
            line_byte += ccp_cachesim::LINE_BYTES;
        }
        self.next_byte = end_byte;
        // 2+3. Per row: dictionary decode + hash-table update.
        for _ in 0..todo {
            let d = self.rng.below(self.dict.len);
            mem.access(stream, self.dict.addr(d), AccessKind::Read);
            let h = match &self.group_skew {
                // Skewed: pick the group by Zipf rank, then a byte within
                // its hash-table entry.
                Some(z) => {
                    let g = z.sample(&mut self.rng) - 1;
                    (g * HT_BYTES_PER_GROUP + self.rng.below(HT_BYTES_PER_GROUP))
                        .min(self.ht.len - 1)
                }
                None => self.rng.below(self.ht.len),
            };
            mem.access(stream, self.ht.addr(h), AccessKind::Write);
        }
        mem.advance(stream, todo * self.cpu_centi_per_row);
        mem.retire(stream, todo * 20);
        self.row += todo;
        if self.row >= self.rows {
            self.row = 0;
            self.next_byte = 0;
        }
        todo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cachesim::{HierarchyConfig, WayMask};

    /// Runs `rows` rows under `ways` LLC ways; returns cycles taken.
    fn run(ways: u32, dict_bytes: u64, groups: u64, rows: u64) -> u64 {
        let cfg = HierarchyConfig::broadwell_e5_2699_v4();
        let mut mem = MemoryHierarchy::new(cfg, 1);
        mem.set_mask(0, WayMask::from_ways(ways).unwrap());
        let mut space = AddrSpace::new();
        let mut agg = AggregationSim::paper_q2(&mut space, 1 << 40, dict_bytes, groups);
        mem.set_parallelism(0, agg.parallelism());
        // Warm up long enough to reach steady state in a 55 MiB LLC (~1M
        // lines must be filled and re-touched), then measure.
        let mut done = 0;
        while done < 1_500_000 {
            done += agg.batch(&mut mem, 0);
        }
        mem.reset_clocks();
        mem.reset_stats();
        let mut done = 0;
        while done < rows {
            done += agg.batch(&mut mem, 0);
        }
        mem.clock(0)
    }

    #[test]
    fn footprints_match_paper() {
        let mut space = AddrSpace::new();
        let agg = AggregationSim::paper_q2(&mut space, 1000, 40 << 20, 100_000);
        assert_eq!(agg.dict_bytes(), (40 << 20) / 8 * 8);
        assert_eq!(agg.ht.len, 55_000_000);
    }

    #[test]
    fn small_working_set_is_insensitive() {
        // 4 MiB dictionary + 100 groups: fits comfortably even in 2 ways
        // (5.5 MiB)... but not quite — use 10^2 groups and compare 20 vs 4
        // ways (11 MiB), where the paper also sees no degradation yet.
        let rows = 400_000;
        let t_full = run(20, 4 << 20, 100, rows);
        let t_4way = run(4, 4 << 20, 100, rows);
        let ratio = t_4way as f64 / t_full as f64;
        assert!(
            ratio < 1.15,
            "small aggregation should not degrade at 11 MiB: {ratio}"
        );
    }

    #[test]
    fn llc_sized_hashtable_is_highly_sensitive() {
        // 10^5 groups = 55 MB hash table: shrinking the cache to 2 ways
        // must hurt badly (paper: -67%).
        let rows = 400_000;
        let t_full = run(20, 4 << 20, 100_000, rows);
        let t_small = run(2, 4 << 20, 100_000, rows);
        let ratio = t_small as f64 / t_full as f64;
        assert!(
            ratio > 1.5,
            "LLC-sized hash table must be cache-sensitive: {ratio}"
        );
    }

    #[test]
    fn oversized_hashtable_is_less_sensitive() {
        // 10^6 groups = 550 MB: misses dominate even with the full cache,
        // so the *relative* slowdown from shrinking is smaller than in the
        // LLC-sized case.
        let rows = 300_000;
        let sized = run(2, 4 << 20, 100_000, rows) as f64 / run(20, 4 << 20, 100_000, rows) as f64;
        let over =
            run(2, 4 << 20, 1_000_000, rows) as f64 / run(20, 4 << 20, 1_000_000, rows) as f64;
        assert!(
            over < sized,
            "oversized HT should be relatively less sensitive: over {over} vs sized {sized}"
        );
    }

    #[test]
    fn group_skew_raises_the_hit_ratio_of_an_oversized_table() {
        // 1e6 groups (550 MB table, hopeless for the LLC) — but with heavy
        // skew the hot head fits, so the full-cache hit ratio recovers.
        let run = |skew: Option<f64>| {
            let cfg = HierarchyConfig::broadwell_e5_2699_v4();
            let mut mem = MemoryHierarchy::new(cfg, 1);
            let mut space = AddrSpace::new();
            let mut agg = AggregationSim::paper_q2(&mut space, 1 << 40, 4 << 20, 1_000_000);
            if let Some(s) = skew {
                agg = agg.with_group_skew(s);
            }
            mem.set_parallelism(0, agg.parallelism());
            let mut done = 0;
            while done < 1_000_000 {
                done += agg.batch(&mut mem, 0);
            }
            mem.reset_clocks();
            mem.reset_stats();
            let mut done = 0;
            while done < 300_000 {
                done += agg.batch(&mut mem, 0);
            }
            mem.stats(0).llc.hit_ratio()
        };
        let uniform = run(None);
        let skewed = run(Some(1.1));
        assert!(
            skewed > uniform + 0.15,
            "skew must concentrate the working set: uniform {uniform:.3} vs skewed {skewed:.3}"
        );
    }

    #[test]
    fn work_units_are_rows() {
        let mut space = AddrSpace::new();
        let agg = AggregationSim::new(&mut space, 10, 10, 10);
        assert_eq!(agg.work_unit(), "rows");
        assert_eq!(agg.cuid(), CacheUsageClass::Sensitive);
    }
}
