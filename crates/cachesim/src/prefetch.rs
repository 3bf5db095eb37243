//! Hardware stream prefetcher model.
//!
//! The paper's column scan is LLC-size-insensitive *because* the hardware
//! prefetcher hides DRAM latency for sequential streams (Section IV-A). We
//! model the L2 stream prefetcher as a small table of detected ascending
//! streams; once a stream is confirmed, every access triggers a prefetch of
//! the next `depth` lines. Prefetches consume DRAM bandwidth (charged by the
//! hierarchy) but remove demand-miss latency from the critical path.

/// One tracked stream: the last line seen and the run length so far.
#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    last_line: u64,
    run: u32,
}

/// Number of streams tracked concurrently, matching the handful of stream
/// detectors real L2 prefetchers dedicate per core.
const TABLE_SIZE: usize = 16;

/// Run length after which a stream is considered confirmed.
const CONFIRM_RUN: u32 = 2;

/// Detects ascending sequential line streams and proposes prefetches.
#[derive(Debug, Clone)]
pub(crate) struct StreamPrefetcher {
    depth: u32,
    table: Vec<StreamEntry>,
    /// Round-robin victim pointer for table replacement.
    victim: usize,
}

impl StreamPrefetcher {
    /// Creates a prefetcher that runs `depth` lines ahead. `depth == 0`
    /// disables prefetching entirely.
    pub(crate) fn new(depth: u32) -> Self {
        StreamPrefetcher {
            depth,
            table: Vec::with_capacity(TABLE_SIZE),
            victim: 0,
        }
    }

    /// Observes a demand access to `line`; returns the range of lines to
    /// prefetch (possibly empty).
    ///
    /// A line continuing a tracked stream (`last + 1`) extends it. The
    /// access that *confirms* the stream (the second consecutive line)
    /// proposes
    /// the whole look-ahead window `line+1 ..= line+depth`; every further
    /// access proposes only the new head `line+depth`, keeping the window
    /// full at one request per access.
    pub(crate) fn on_access(&mut self, line: u64) -> std::ops::Range<u64> {
        if self.depth == 0 {
            return 0..0;
        }
        let depth = u64::from(self.depth);
        // Continue an existing stream?
        for e in &mut self.table {
            if line == e.last_line + 1 {
                e.last_line = line;
                e.run += 1;
                if e.run == CONFIRM_RUN {
                    return (line + 1)..(line + 1 + depth);
                }
                if e.run > CONFIRM_RUN {
                    return (line + depth)..(line + depth + 1);
                }
                return 0..0;
            }
            if line == e.last_line {
                // Re-access of the same line: no stream progress.
                return 0..0;
            }
        }
        // New stream: allocate or replace round-robin.
        let entry = StreamEntry {
            last_line: line,
            run: 1,
        };
        if self.table.len() < TABLE_SIZE {
            self.table.push(entry);
        } else {
            self.table[self.victim] = entry;
            self.victim = (self.victim + 1) % TABLE_SIZE;
        }
        0..0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = StreamPrefetcher::new(0);
        for i in 0..10 {
            assert!(p.on_access(i).is_empty());
        }
    }

    #[test]
    fn sequential_stream_confirms_then_prefetches() {
        let mut p = StreamPrefetcher::new(4);
        assert!(p.on_access(100).is_empty()); // new stream, run=1
        assert_eq!(p.on_access(101), 102..106); // run=2 -> confirmed: window
        assert_eq!(p.on_access(102), 106..107); // steady state: head only
    }

    #[test]
    fn random_accesses_never_prefetch() {
        let mut p = StreamPrefetcher::new(4);
        for line in [5u64, 900, 17, 40_000, 3, 77_777, 1_000_000] {
            assert!(
                p.on_access(line).is_empty(),
                "random access must not prefetch"
            );
        }
    }

    #[test]
    fn interleaved_streams_are_tracked_separately() {
        let mut p = StreamPrefetcher::new(2);
        // Two interleaved ascending streams, both confirm independently.
        assert!(p.on_access(10).is_empty());
        assert!(p.on_access(1000).is_empty());
        assert_eq!(p.on_access(11), 12..14);
        assert_eq!(p.on_access(1001), 1002..1004);
    }

    #[test]
    fn repeated_access_does_not_advance_stream() {
        let mut p = StreamPrefetcher::new(2);
        p.on_access(10);
        assert!(p.on_access(10).is_empty());
        assert_eq!(p.on_access(11), 12..14);
    }

    #[test]
    fn table_replacement_keeps_working() {
        let mut p = StreamPrefetcher::new(2);
        // Flood with more streams than table entries.
        for i in 0..100u64 {
            p.on_access(i * 1000);
        }
        // A fresh stream still confirms after replacement.
        p.on_access(500_000);
        assert_eq!(p.on_access(500_001), 500_002..500_004);
    }
}
