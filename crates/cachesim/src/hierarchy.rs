//! The full simulated memory system: private L2s, a shared inclusive LLC
//! with CAT way-masking, a stream prefetcher and a shared DRAM channel.
//!
//! ## Streams
//!
//! A **stream** models one concurrently running query: the paper executes
//! each query across all cores of the socket, so one stream stands for the
//! whole multi-threaded query. Each stream owns a private L2 (the union of
//! the core-private L2s its threads use), an LLC way mask (its CAT class of
//! service), a prefetcher, and a *virtual clock* in centi-cycles.
//!
//! A stream's memory-level parallelism (`parallelism`) divides every latency
//! it observes: a 44-thread scan has dozens of requests in flight, so the
//! per-request latency barely serializes. The DRAM *channel*, however, is
//! shared and serial — bandwidth saturation throttles every stream no
//! matter its parallelism, which is exactly the contention behaviour the
//! paper measures.
//!
//! ## Time
//!
//! Clocks are per-stream and advance only through [`MemoryHierarchy::access`]
//! and [`MemoryHierarchy::advance`]. Concurrency is created by the caller
//! (see `ccp-engine`'s virtual-time scheduler) interleaving accesses of
//! streams with similar clock values.

use crate::cache::{AccessOutcome, SetAssociativeCache};
use crate::config::HierarchyConfig;
use crate::dram::{DramChannel, DramClass};
use crate::mask::WayMask;
use crate::prefetch::StreamPrefetcher;
use crate::stats::StreamStats;
use std::collections::HashMap;

/// Index of a stream within a [`MemoryHierarchy`].
pub type StreamId = usize;

/// Kind of memory access. The cache model is write-allocate, so reads and
/// writes behave identically for hit/miss purposes; the distinction is kept
/// for operator-model readability and byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store (write-allocate).
    Write,
}

/// Per-stream simulator state.
#[derive(Debug, Clone)]
struct Stream {
    llc_mask: WayMask,
    prefetcher: StreamPrefetcher,
    stats: StreamStats,
    /// Virtual clock in centi-cycles.
    clock_centi: u64,
    /// Latency divisor modeling in-flight request overlap.
    parallelism: u32,
}

/// The simulated memory system shared by all streams.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    /// The L2 cache. Shared by all streams: the paper runs every query
    /// across all cores of the socket, so co-running queries' threads share
    /// each core's L2 — a second contention surface besides the LLC.
    l2: SetAssociativeCache,
    l2_mask: WayMask,
    llc: SetAssociativeCache,
    dram: DramChannel,
    streams: Vec<Stream>,
    /// Prefetched lines still "in flight": line -> arrival time
    /// (centi-cycles). A demand access before arrival stalls until it.
    inflight: HashMap<u64, u64>,
    /// CMT-style ownership tracking: which stream filled each LLC line and
    /// whether the line was re-used (hit after fill, prefetch coverage
    /// excluded). Intel's Cache Monitoring Technology exposes the same
    /// per-RMID occupancy on real hardware.
    line_owner: HashMap<u64, (StreamId, bool)>,
    /// Of each stream's owned lines, how many were re-used at least once.
    reused_lines: Vec<u64>,
}

impl MemoryHierarchy {
    /// Builds a hierarchy with `n_streams` streams, all starting with a
    /// full-LLC mask (the paper's default class of service).
    ///
    /// # Panics
    /// Panics on invalid geometry (zero sets/ways) — configuration bugs.
    pub fn new(cfg: HierarchyConfig, n_streams: usize) -> Self {
        let full_llc = cfg
            .llc
            .full_mask()
            .expect("LLC way count validated by config");
        let full_l2 = cfg
            .l2
            .full_mask()
            .expect("L2 way count validated by config");
        let streams = (0..n_streams)
            .map(|_| Stream {
                llc_mask: full_llc,
                prefetcher: StreamPrefetcher::new(cfg.prefetch_depth),
                stats: StreamStats::default(),
                clock_centi: 0,
                parallelism: 1,
            })
            .collect();
        MemoryHierarchy {
            l2: SetAssociativeCache::new(cfg.l2.size_bytes, cfg.l2.ways),
            l2_mask: full_l2,
            llc: SetAssociativeCache::with_policy(cfg.llc.size_bytes, cfg.llc.ways, cfg.llc_policy),
            dram: DramChannel::new(cfg.dram),
            cfg,
            streams,
            inflight: HashMap::new(),
            line_owner: HashMap::new(),
            reused_lines: vec![0; n_streams],
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Sets stream `s`'s LLC way mask (its CAT class of service).
    ///
    /// # Panics
    /// Panics if the mask does not fit the LLC or `s` is out of range.
    pub fn set_mask(&mut self, s: StreamId, mask: WayMask) {
        mask.check_fits(self.cfg.llc.ways)
            .expect("mask must fit the LLC");
        self.streams[s].llc_mask = mask;
    }

    /// Sets the latency divisor for stream `s` (in-flight request overlap).
    ///
    /// # Panics
    /// Panics when `par` is zero.
    pub fn set_parallelism(&mut self, s: StreamId, par: u32) {
        assert!(par > 0, "parallelism must be at least 1");
        self.streams[s].parallelism = par;
    }

    /// Performs one demand access by stream `s` to byte address `addr`.
    /// Returns the cost charged, in centi-cycles; the stream's clock has
    /// already been advanced by it.
    pub fn access(&mut self, s: StreamId, addr: u64, _kind: AccessKind) -> u64 {
        let line = crate::line_of(addr);
        let cost = self.cost_of_demand(s, line);
        let st = &mut self.streams[s];
        st.clock_centi += cost;
        st.stats.cycles = st.clock_centi / 100;
        // Prefetcher observes every demand access, after the access itself.
        let proposals = st.prefetcher.on_access(line);
        if !proposals.is_empty() {
            self.issue_prefetches(s, proposals);
        }
        cost
    }

    /// Hit/miss walk for a demand access; returns centi-cycle cost.
    fn cost_of_demand(&mut self, s: StreamId, line: u64) -> u64 {
        let par = u64::from(self.streams[s].parallelism);
        let now_centi = self.streams[s].clock_centi;
        let cost = self.cfg.cost;
        let (l2_mask, llc_mask) = (self.l2_mask, self.streams[s].llc_mask);

        // L2 lookup (shared by all streams — see the struct field docs).
        if self.l2.access(line, l2_mask).is_hit() {
            self.streams[s].stats.l2.hits += 1;
            self.mark_reused(line);
            let c = self.finish_inflight(s, line, now_centi, cost.l2_hit_cycles * 100 / par);
            self.streams[s].stats.stall_l2_centi += c;
            return c;
        }
        self.streams[s].stats.l2.misses += 1;

        // LLC lookup (shared, masked allocation).
        match self.llc.access(line, llc_mask) {
            AccessOutcome::Hit => {
                self.streams[s].stats.llc.hits += 1;
                self.mark_reused(line);
                self.fill_l2(s, line);
                let c = self.finish_inflight(s, line, now_centi, cost.llc_hit_cycles * 100 / par);
                self.streams[s].stats.stall_llc_centi += c;
                c
            }
            AccessOutcome::Miss { evicted } => {
                self.streams[s].stats.llc.misses += 1;
                if let Some(old) = evicted {
                    self.back_invalidate(old);
                }
                self.record_fill(s, line);
                let lat = self.dram.request(self.dram_now(), DramClass::Demand);
                self.fill_l2(s, line);
                self.inflight.remove(&line);
                let c = (lat * 100) / par;
                self.streams[s].stats.stall_dram_centi += c;
                c
            }
        }
    }

    /// If `line` was prefetched and has not yet arrived, stall until its
    /// arrival (on top of the hit cost) and count the coverage.
    fn finish_inflight(&mut self, s: StreamId, line: u64, now_centi: u64, hit_cost: u64) -> u64 {
        if let Some(arrival) = self.inflight.remove(&line) {
            self.streams[s].stats.prefetch_covered += 1;
            let par = u64::from(self.streams[s].parallelism);
            // The arrival stall overlaps across the stream's in-flight
            // requests like any other latency; sustained back-pressure
            // still throttles the stream through the DRAM queue, whose
            // delays grow without bound once the channel saturates.
            let stall = arrival.saturating_sub(now_centi) / par;
            let late_cost = self.cfg.cost.prefetched_hit_cycles * 100 / par;
            let c = hit_cost.max(stall + late_cost);
            self.streams[s].stats.stall_inflight_centi += c.saturating_sub(hit_cost);
            return c;
        }
        hit_cost
    }

    /// The DRAM channel's drain clock: the *minimum* stream clock, in whole
    /// cycles. Under min-clock scheduling (the driver always steps the
    /// least-advanced stream) the minimum is monotone, so inter-stream
    /// clock skew from batched interleaving never turns into phantom
    /// queuing delay. The residual artifact — a stream's own within-batch
    /// burst briefly queuing on itself — is bounded by one batch's channel
    /// occupancy (operator batches are deliberately small) and, crucially,
    /// is configuration-independent, so it cancels in the normalized
    /// throughput the experiments report. (The alternative, a max-clock
    /// drain, fails badly: a stream catching up to a co-runner that just
    /// took a long batch sees the drain clock frozen for its whole burst
    /// and throttles on phantom backlog.)
    fn dram_now(&self) -> u64 {
        self.streams
            .iter()
            .map(|st| st.clock_centi)
            .min()
            .unwrap_or(0)
            / 100
    }

    /// Inserts `line` into the shared L2.
    fn fill_l2(&mut self, _s: StreamId, line: u64) {
        // L2 evictions are silent: the LLC is inclusive, so the line is
        // still present there.
        let _ = self.l2.access(line, self.l2_mask);
    }

    /// Inclusive back-invalidation: an LLC eviction removes the line from
    /// the L2 and releases its CMT ownership.
    fn back_invalidate(&mut self, line: u64) {
        self.l2.invalidate(line);
        self.inflight.remove(&line);
        if let Some((owner, reused)) = self.line_owner.remove(&line) {
            if reused {
                self.reused_lines[owner] -= 1;
            }
        }
    }

    /// Records that stream `s` filled `line` into the LLC (CMT accounting).
    fn record_fill(&mut self, s: StreamId, line: u64) {
        if let Some((prev, true)) = self.line_owner.insert(line, (s, false)) {
            self.reused_lines[prev] -= 1;
        }
    }

    /// Flags `line` as re-used by its owner — but not when the "hit" is
    /// merely a prefetch arriving (coverage, not re-use).
    fn mark_reused(&mut self, line: u64) {
        if self.inflight.contains_key(&line) {
            return;
        }
        if let Some((owner, reused)) = self.line_owner.get_mut(&line) {
            if !*reused {
                *reused = true;
                self.reused_lines[*owner] += 1;
            }
        }
    }

    /// Bytes of stream `s`'s resident LLC lines that were re-used at least
    /// once after their fill — an estimate of the operator's *hot*
    /// structure size (streaming residue is excluded because streamed
    /// lines are never touched twice). Used by the online CUID classifier.
    pub fn llc_reused_bytes(&self, s: StreamId) -> u64 {
        self.reused_lines[s] * crate::LINE_BYTES
    }

    /// Issues prefetches for `lines` on behalf of stream `s`: each uncached
    /// line is fetched from DRAM (consuming bandwidth) and installed in the
    /// LLC (under the stream's mask) and the stream's L2, with an arrival
    /// time; a demand access before arrival stalls (see `finish_inflight`).
    fn issue_prefetches(&mut self, s: StreamId, lines: std::ops::Range<u64>) {
        for line in lines {
            if self.l2.probe(line) || self.llc.probe(line) {
                continue;
            }
            let now_centi = self.streams[s].clock_centi;
            let lat = self.dram.request(self.dram_now(), DramClass::Prefetch);
            self.streams[s].stats.prefetches_issued += 1;
            if let AccessOutcome::Miss { evicted: Some(old) } =
                self.llc.access(line, self.streams[s].llc_mask)
            {
                self.back_invalidate(old);
            }
            self.record_fill(s, line);
            self.fill_l2(s, line);
            self.inflight.insert(line, now_centi + lat * 100);
        }
    }

    /// Advances stream `s`'s clock by `centi_cycles` of pure CPU work.
    pub fn advance(&mut self, s: StreamId, centi_cycles: u64) {
        let st = &mut self.streams[s];
        st.clock_centi += centi_cycles;
        st.stats.cycles = st.clock_centi / 100;
    }

    /// Records `n` retired instructions for stream `s` (for the MPI metric).
    pub fn retire(&mut self, s: StreamId, n: u64) {
        self.streams[s].stats.instructions += n;
    }

    /// Stream `s`'s virtual clock in whole cycles.
    pub fn clock(&self, s: StreamId) -> u64 {
        self.streams[s].clock_centi / 100
    }

    /// Stream `s`'s virtual clock in centi-cycles (full precision).
    pub fn clock_centi(&self, s: StreamId) -> u64 {
        self.streams[s].clock_centi
    }

    /// Statistics of stream `s`.
    pub fn stats(&self, s: StreamId) -> &StreamStats {
        &self.streams[s].stats
    }

    /// Workload-wide statistics: all streams merged (the paper's
    /// system-level PCM view).
    pub fn combined_stats(&self) -> StreamStats {
        let mut all = StreamStats::default();
        for st in &self.streams {
            all.merge(&st.stats);
        }
        all
    }

    /// The shared DRAM channel (read-only view).
    pub fn dram(&self) -> &DramChannel {
        &self.dram
    }

    /// Clears counters of every stream without touching cache contents —
    /// used after warm-up so steady-state figures aren't skewed by cold
    /// misses.
    pub fn reset_stats(&mut self) {
        for st in &mut self.streams {
            st.stats = StreamStats::default();
        }
    }

    /// Aligns every stream's clock and the DRAM queue to zero while keeping
    /// cache contents (warm restart between measurement phases).
    pub fn reset_clocks(&mut self) {
        for st in &mut self.streams {
            st.clock_centi = 0;
            st.stats.cycles = 0;
        }
        self.dram.reset();
        self.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn tiny(n: usize) -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny_for_tests(), n)
    }

    #[test]
    fn first_access_misses_everywhere_then_hits_l2() {
        let mut m = tiny(1);
        m.access(0, 0x1000, AccessKind::Read);
        assert_eq!(m.stats(0).l2.misses, 1);
        assert_eq!(m.stats(0).llc.misses, 1);
        m.access(0, 0x1000, AccessKind::Read);
        assert_eq!(m.stats(0).l2.hits, 1);
    }

    #[test]
    fn l2_miss_llc_hit_after_l2_eviction() {
        let mut m = tiny(1);
        // Touch enough distinct lines to overflow the 4 KiB L2 (64 lines)
        // but stay inside the 64 KiB LLC (1024 lines).
        for i in 0..512u64 {
            m.access(0, i * 64, AccessKind::Read);
        }
        // Line 0 left L2 but is still in the (inclusive) LLC.
        let before = m.stats(0).llc.hits;
        m.access(0, 0, AccessKind::Read);
        assert_eq!(m.stats(0).llc.hits, before + 1);
    }

    #[test]
    fn clock_advances_with_costs() {
        let mut m = tiny(1);
        assert_eq!(m.clock(0), 0);
        m.access(0, 0, AccessKind::Read);
        let after_miss = m.clock(0);
        assert!(
            after_miss >= 100,
            "a DRAM miss costs at least the DRAM latency"
        );
        m.access(0, 0, AccessKind::Read);
        assert!(m.clock(0) > after_miss);
    }

    #[test]
    fn parallelism_divides_latency() {
        let mut a = tiny(1);
        let mut b = tiny(1);
        b.set_parallelism(0, 10);
        a.access(0, 0, AccessKind::Read);
        b.access(0, 0, AccessKind::Read);
        assert!(b.clock_centi(0) * 5 < a.clock_centi(0));
    }

    #[test]
    fn masked_stream_cannot_pollute_beyond_its_ways() {
        let mut m = tiny(2);
        // Stream 0 establishes a working set of half the LLC (512 of 1024
        // lines): 4 of 8 ways in every set.
        for i in 0..512u64 {
            m.access(0, i * 64, AccessKind::Read);
        }
        // Restrict stream 1 to 1 of 8 ways, then stream a large region.
        m.set_mask(1, WayMask::from_ways(1).unwrap());
        for i in 0..4096u64 {
            m.access(1, 0x100_0000 + i * 64, AccessKind::Read);
        }
        m.reset_stats();
        // Stream 0 re-reads its set: the polluter can have displaced at most
        // one line per set (128 sets), i.e. at most a quarter of the set.
        for i in 0..512u64 {
            m.access(0, i * 64, AccessKind::Read);
        }
        let s = m.stats(0);
        let llc_misses = s.llc.misses;
        assert!(
            llc_misses <= 512 / 4,
            "masked polluter evicted too much: {llc_misses} misses"
        );
    }

    #[test]
    fn unmasked_stream_pollutes_fully() {
        let mut m = tiny(2);
        for i in 0..1024u64 {
            m.access(0, i * 64, AccessKind::Read);
        }
        // Stream 1 with a full mask streams 4x the LLC through it.
        for i in 0..4096u64 {
            m.access(1, 0x100_0000 + i * 64, AccessKind::Read);
        }
        m.reset_stats();
        for i in 0..1024u64 {
            m.access(0, i * 64, AccessKind::Read);
        }
        // Virtually everything of stream 0's set was evicted.
        assert!(m.stats(0).llc.misses > 900);
    }

    #[test]
    fn inclusive_llc_back_invalidates_l2() {
        let mut m = tiny(2);
        // Stream 0 caches line X in its L2.
        m.access(0, 0, AccessKind::Read);
        // Stream 1 (full mask) floods the LLC so line 0 is evicted from it.
        for i in 1..=4096u64 {
            m.access(1, i * 64, AccessKind::Read);
        }
        m.reset_stats();
        // Stream 0's re-access must be an L2 miss: inclusion removed it.
        m.access(0, 0, AccessKind::Read);
        assert_eq!(m.stats(0).l2.misses, 1);
    }

    #[test]
    fn prefetch_covers_sequential_stream() {
        let mut cfg = HierarchyConfig::tiny_for_tests();
        cfg.prefetch_depth = 4;
        let mut m = MemoryHierarchy::new(cfg, 1);
        for i in 0..64u64 {
            m.access(0, i * 64, AccessKind::Read);
        }
        let s = m.stats(0);
        assert!(
            s.prefetches_issued > 0,
            "sequential stream must trigger prefetches"
        );
        assert!(s.prefetch_covered > 0, "later accesses must be covered");
        // With depth-4 prefetch most of the 64 lines never demand-miss the LLC.
        assert!(s.llc.misses < 16, "prefetching should hide most LLC misses");
    }

    #[test]
    fn prefetching_consumes_dram_bandwidth() {
        let mut cfg = HierarchyConfig::tiny_for_tests();
        cfg.prefetch_depth = 4;
        let mut m = MemoryHierarchy::new(cfg, 1);
        for i in 0..64u64 {
            m.access(0, i * 64, AccessKind::Read);
        }
        // Every one of the 64 lines crossed the DRAM channel exactly once,
        // whether by demand or prefetch — plus up to `depth` lines of
        // over-prefetch past the end of the region.
        let lines = m.dram().lines_transferred();
        assert!(
            (64..=68).contains(&lines),
            "unexpected DRAM traffic: {lines}"
        );
    }

    #[test]
    fn reset_stats_keeps_cache_warm() {
        let mut m = tiny(1);
        m.access(0, 0, AccessKind::Read);
        m.reset_stats();
        m.access(0, 0, AccessKind::Read);
        assert_eq!(m.stats(0).l2.hits, 1);
        assert_eq!(m.stats(0).l2.misses, 0);
    }

    #[test]
    fn retire_tracks_instructions_for_mpi() {
        let mut m = tiny(1);
        m.access(0, 0, AccessKind::Read);
        m.retire(0, 100);
        assert!((m.stats(0).llc_mpi() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn combined_stats_merges_streams() {
        let mut m = tiny(2);
        m.access(0, 0, AccessKind::Read);
        m.access(1, 0x10_0000, AccessKind::Read);
        let all = m.combined_stats();
        assert_eq!(all.llc.misses, 2);
    }

    /// Bytes of the LLC lines stream `s` filled that are still resident
    /// (its CMT occupancy).
    fn owned_bytes(m: &MemoryHierarchy, s: StreamId) -> u64 {
        let lines = m.line_owner.values().filter(|(o, _)| *o == s).count();
        lines as u64 * crate::LINE_BYTES
    }

    #[test]
    fn cmt_occupancy_tracks_fills_and_evictions() {
        let mut m = tiny(2);
        // Stream 0 fills 100 lines.
        for i in 0..100u64 {
            m.access(0, i * 64, AccessKind::Read);
        }
        assert_eq!(owned_bytes(&m, 0), 100 * 64);
        assert_eq!(owned_bytes(&m, 1), 0);
        // Stream 1 floods the LLC: stream 0's occupancy collapses.
        for i in 0..4096u64 {
            m.access(1, 0x100_0000 + i * 64, AccessKind::Read);
        }
        assert!(owned_bytes(&m, 0) < 100 * 64 / 2);
        assert!(owned_bytes(&m, 1) > 0);
    }

    #[test]
    fn cmt_occupancy_bounded_by_mask_capacity() {
        let mut m = tiny(1);
        // 2 of 8 ways of the 64 KiB LLC = 16 KiB ceiling.
        m.set_mask(0, WayMask::from_ways(2).unwrap());
        for i in 0..4096u64 {
            m.access(0, i * 64, AccessKind::Read);
        }
        assert!(
            owned_bytes(&m, 0) <= 16 * 1024,
            "masked stream exceeded its slice: {} bytes",
            owned_bytes(&m, 0)
        );
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn oversized_mask_is_rejected() {
        let mut m = tiny(1);
        // Tiny LLC has 8 ways; a 12-way mask must be rejected.
        m.set_mask(0, WayMask::from_ways(12).unwrap());
    }
}
