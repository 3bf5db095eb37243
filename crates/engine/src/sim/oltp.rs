//! Simulated OLTP point query (the S/4HANA ACDOCA workload, Section VI-E).
//!
//! Access pattern per query execution:
//!
//! 1. probe the inverted indexes of the five primary-key columns
//!    (directory access + postings access each),
//! 2. project `k` columns: for each, one random access into the column's
//!    dictionary (value materialization) and one into the column data.
//!
//! The projected dictionaries are the query's cache working set: the more
//! columns are projected (and the bigger their dictionaries), the more
//! cache-sensitive the query — the paper's Figure 12 and the 2→13-column
//! sweep of Section VI-E.

use super::{SimOperator, SimRng};
use crate::job::CacheUsageClass;
use ccp_cachesim::{AccessKind, AddrSpace, MemoryHierarchy, Region, StreamId};

/// Queries per scheduling batch (point queries are short).
const BATCH_QUERIES: u64 = 1;

/// One projected column's simulated storage.
#[derive(Debug)]
struct ProjectedColumn {
    dict: Region,
    data: Region,
}

/// Simulated S/4HANA-style point select.
#[derive(Debug)]
pub struct OltpSim {
    /// Inverted-index directories of the key columns.
    indexes: Vec<Region>,
    projected: Vec<ProjectedColumn>,
    cpu_centi_per_query: u64,
    rng: SimRng,
}

impl OltpSim {
    /// Creates the workload: `index_bytes` per key-column index directory
    /// and one projected column per entry of `dict_sizes` (dictionary
    /// bytes). `data_bytes` is the packed column-data size (ACDOCA has
    /// 151 M rows, so data accesses practically always miss).
    ///
    /// # Panics
    /// Panics when no column is projected.
    pub fn new(
        space: &mut AddrSpace,
        index_bytes: &[u64],
        dict_sizes: &[u64],
        data_bytes: u64,
    ) -> Self {
        assert!(
            !dict_sizes.is_empty(),
            "a projection needs at least one column"
        );
        OltpSim {
            indexes: index_bytes
                .iter()
                .map(|&b| space.alloc(b.max(64)))
                .collect(),
            projected: dict_sizes
                .iter()
                .map(|&d| ProjectedColumn {
                    dict: space.alloc(d.max(64)),
                    data: space.alloc(data_bytes.max(64)),
                })
                .collect(),
            cpu_centi_per_query: 12_000,
            rng: SimRng::new(0x01_7b),
        }
    }

    /// The paper's Figure 12 configuration: five key-column indexes and the
    /// `k` largest ACDOCA dictionaries. `k = 13` is Figure 12a, `k = 6`
    /// (smaller dictionaries) is Figure 12b.
    pub fn paper_acdoca(space: &mut AddrSpace, dict_sizes: &[u64]) -> Self {
        // Five PK-column index directories; ACDOCA's keys (client, ledger,
        // company code, fiscal year, document number) have wildly varying
        // cardinality — the document number dominates.
        let indexes = [512 << 10, 64 << 10, 256 << 10, 128 << 10, 6 << 20];
        // 151M rows, ~2-4 byte codes per column.
        Self::new(space, &indexes, dict_sizes, 400 << 20)
    }

    /// Total bytes of dictionaries + index directories — the working set
    /// that decides this query's cache sensitivity.
    pub(crate) fn working_set_bytes(&self) -> u64 {
        self.indexes.iter().map(|r| r.len).sum::<u64>()
            + self.projected.iter().map(|c| c.dict.len).sum::<u64>()
    }
}

impl SimOperator for OltpSim {
    fn name(&self) -> String {
        format!(
            "oltp_point_select({} cols, ws {} MiB)",
            self.projected.len(),
            self.working_set_bytes() >> 20
        )
    }

    fn cuid(&self) -> CacheUsageClass {
        // OLTP queries run in a dedicated pool with the full cache
        // (Section V-C).
        CacheUsageClass::Sensitive
    }

    fn parallelism(&self) -> u32 {
        // A handful of concurrent OLTP sessions, little intra-query
        // parallelism.
        6
    }

    fn batch(&mut self, mem: &mut MemoryHierarchy, stream: StreamId) -> u64 {
        for _ in 0..BATCH_QUERIES {
            // Index probes on the five key columns.
            for i in 0..self.indexes.len() {
                let r = self.indexes[i];
                let dir = self.rng.below(r.len);
                mem.access(stream, r.addr(dir), AccessKind::Read);
                let postings = self.rng.below(r.len);
                mem.access(stream, r.addr(postings), AccessKind::Read);
            }
            // Projection: dictionary + data access per column.
            for i in 0..self.projected.len() {
                let d = self.rng.below(self.projected[i].dict.len);
                mem.access(stream, self.projected[i].dict.addr(d), AccessKind::Read);
                let row = self.rng.below(self.projected[i].data.len);
                mem.access(stream, self.projected[i].data.addr(row), AccessKind::Read);
            }
        }
        mem.advance(stream, BATCH_QUERIES * self.cpu_centi_per_query);
        mem.retire(stream, BATCH_QUERIES * 1200);
        BATCH_QUERIES
    }

    fn work_unit(&self) -> &'static str {
        "queries"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccp_cachesim::HierarchyConfig;

    #[test]
    fn working_set_scales_with_projection() {
        let mut space = AddrSpace::new();
        let narrow = OltpSim::paper_acdoca(&mut space, &[4 << 20, 2 << 20]);
        let wide = OltpSim::paper_acdoca(
            &mut space,
            &[8 << 20, 6 << 20, 5 << 20, 4 << 20, 4 << 20, 3 << 20],
        );
        assert!(wide.working_set_bytes() > narrow.working_set_bytes());
    }

    #[test]
    fn batch_counts_queries() {
        let mut space = AddrSpace::new();
        let mut q = OltpSim::new(&mut space, &[1024], &[1024], 1 << 20);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests(), 1);
        assert_eq!(q.batch(&mut mem, 0), BATCH_QUERIES);
        assert_eq!(q.work_unit(), "queries");
        assert_eq!(q.cuid(), CacheUsageClass::Sensitive);
    }

    #[test]
    fn accesses_per_query_match_model() {
        let mut space = AddrSpace::new();
        let mut q = OltpSim::new(&mut space, &[1024, 1024], &[1024, 1024, 1024], 1 << 20);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny_for_tests(), 1);
        q.batch(&mut mem, 0);
        // 2 indexes * 2 + 3 columns * 2 = 10 accesses per query.
        let s = mem.stats(0);
        assert_eq!(s.l2.accesses(), BATCH_QUERIES * 10);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn rejects_empty_projection() {
        let mut space = AddrSpace::new();
        let _ = OltpSim::new(&mut space, &[1024], &[], 1024);
    }
}
