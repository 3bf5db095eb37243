//! Fixed-capacity series rings with two-tier retention.
//!
//! A [`Ring`] holds the most recent `cap` points of one time series as
//! `(seq, f64)` pairs in a buffer allocated once at construction; a push
//! into a full ring overwrites the oldest point in place.
//!
//! A [`Series`] stacks two rings into the recorder's two-tier
//! retention: a **raw** ring of every recorded point (the recent
//! window) and a **history** ring of means over `every` consecutive raw
//! points (the downsampled past), plus the accumulator that forms those
//! means. Neither ring grows after `new`, which is what bounds the
//! recorder's memory.
//!
//! Nothing here synchronizes: the recorder keeps every series behind
//! its one mutex.

/// A fixed-capacity ring of `(seq, value)` points, oldest overwritten
/// first. Sequence numbers must be pushed strictly increasing.
#[derive(Debug)]
pub(crate) struct Ring {
    points: Vec<(u64, f64)>,
    cap: usize,
    /// The slot the next push overwrites once the ring is full; until
    /// then, `points.len()`.
    next: usize,
}

impl Ring {
    /// Creates a ring retaining the latest `cap` points (`cap >= 1`).
    pub(crate) fn new(cap: usize) -> Ring {
        let cap = cap.max(1);
        Ring {
            points: Vec::with_capacity(cap),
            cap,
            next: 0,
        }
    }

    pub(crate) fn push(&mut self, seq: u64, value: f64) {
        if self.points.len() < self.cap {
            self.points.push((seq, value));
        } else {
            self.points[self.next] = (seq, value);
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Every retained point with sequence greater than `after`,
    /// ascending by sequence.
    pub(crate) fn since(&self, after: u64) -> impl Iterator<Item = (u64, f64)> + '_ {
        let (newer, older) = self.points.split_at(self.next);
        older
            .iter()
            .chain(newer)
            .copied()
            .filter(move |&(seq, _)| seq > after)
    }
}

/// Two-tier retention for one series: a raw recent window plus a
/// downsampled history of window means.
#[derive(Debug)]
pub(crate) struct Series {
    raw: Ring,
    history: Ring,
    every: u64,
    /// Sum and count of the raw points since the last history point.
    sum: f64,
    n: u64,
}

impl Series {
    /// Creates a series retaining `raw_cap` raw points and
    /// `history_cap` downsampled points of `every` raw points each.
    pub(crate) fn new(raw_cap: usize, history_cap: usize, every: u64) -> Series {
        Series {
            raw: Ring::new(raw_cap),
            history: Ring::new(history_cap),
            every: every.max(1),
            sum: 0.0,
            n: 0,
        }
    }

    /// Records one raw point; every `every` points, their mean joins
    /// the history tier under the latest sequence.
    pub(crate) fn push(&mut self, seq: u64, value: f64) {
        self.raw.push(seq, value);
        self.sum += value;
        self.n += 1;
        if self.n >= self.every {
            self.history.push(seq, self.sum / self.n as f64);
            self.sum = 0.0;
            self.n = 0;
        }
    }

    /// Merged view since `after`: history points older than the oldest
    /// returned raw point, then the raw window, ascending by sequence.
    /// A history point carries the sequence of its last constituent raw
    /// point, so the cutoff dedups the overlap between the tiers.
    pub(crate) fn points_since(&self, after: u64) -> Vec<(u64, f64)> {
        let cutoff = self
            .raw
            .since(after)
            .next()
            .map_or(u64::MAX, |(seq, _)| seq);
        self.history
            .since(after)
            .take_while(|&(seq, _)| seq < cutoff)
            .chain(self.raw.since(after))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fixed upper bound on a series' point storage, in bytes.
    fn bytes(s: &Series) -> usize {
        (s.raw.points.capacity() + s.history.points.capacity()) * std::mem::size_of::<(u64, f64)>()
    }

    fn all(r: &Ring) -> Vec<(u64, f64)> {
        r.since(0).collect()
    }

    #[test]
    fn pushes_and_reads_back_in_order() {
        let mut r = Ring::new(4);
        for seq in 1..=3u64 {
            r.push(seq, seq as f64 * 10.0);
        }
        assert_eq!(all(&r), vec![(1, 10.0), (2, 20.0), (3, 30.0)]);
        assert_eq!(r.since(2).collect::<Vec<_>>(), vec![(3, 30.0)]);
        assert_eq!(r.since(3).count(), 0);
    }

    #[test]
    fn overwrites_evict_the_oldest() {
        let mut r = Ring::new(3);
        for seq in 1..=5u64 {
            r.push(seq, seq as f64);
        }
        assert_eq!(all(&r), vec![(3, 3.0), (4, 4.0), (5, 5.0)]);
    }

    #[test]
    fn series_two_tier_merge_has_no_gaps_or_overlap() {
        // Raw keeps 4 points, history keeps means of every 2.
        let mut s = Series::new(4, 8, 2);
        for seq in 1..=10u64 {
            s.push(seq, seq as f64);
        }
        let pts = s.points_since(0);
        // Raw window holds seqs 7..=10; history means at 2,4,6 predate it
        // (the 8 and 10 means are cut off by the raw overlap).
        let seqs: Vec<u64> = pts.iter().map(|&(q, _)| q).collect();
        assert_eq!(seqs, vec![2, 4, 6, 7, 8, 9, 10]);
        // History points are window means.
        assert_eq!(pts[..3], [(2, 1.5), (4, 3.5), (6, 5.5)]);
    }

    proptest! {
        /// Everything still in the window reads back strictly increasing
        /// and gap-free: exactly the last `min(n, cap)` sequences.
        #[test]
        fn raw_window_is_gap_free(cap in 1usize..40, n in 0u64..200) {
            let mut r = Ring::new(cap);
            for seq in 1..=n {
                r.push(seq, seq as f64 * 0.5);
            }
            let pts = all(&r);
            let expect_first = n.saturating_sub(cap as u64) + 1;
            let seqs: Vec<u64> = pts.iter().map(|&(s, _)| s).collect();
            let want: Vec<u64> = (expect_first..=n).collect();
            prop_assert_eq!(seqs, want);
            for (seq, v) in pts {
                prop_assert_eq!(v, seq as f64 * 0.5);
            }
        }

        /// An incremental reader that always passes its last seen sequence
        /// misses nothing the window still holds, and never sees a
        /// sequence twice.
        #[test]
        fn since_cursor_never_duplicates(cap in 2usize..20, batches in proptest::collection::vec(1u64..8, 1..20)) {
            let mut r = Ring::new(cap);
            let mut cursor = 0u64;
            let mut seq = 0u64;
            let mut seen: Vec<u64> = Vec::new();
            for batch in batches {
                for _ in 0..batch {
                    seq += 1;
                    r.push(seq, seq as f64);
                }
                for (s, _) in r.since(cursor) {
                    prop_assert!(s > cursor, "resurfaced sequence {}", s);
                    seen.push(s);
                    cursor = s;
                }
                // The reader keeping up within one window never misses: the
                // batch was at most `cap`, so its tail is still resident.
                prop_assert_eq!(cursor, seq);
            }
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), seen.len(), "duplicate sequences surfaced");
        }

        /// Two-tier merge: strictly increasing, no sequence appears in both
        /// tiers, raw values exact, history points are exact window means.
        #[test]
        fn two_tier_merge_is_consistent(
            raw_cap in 1usize..16,
            hist_cap in 1usize..16,
            every in 1u64..6,
            n in 0u64..120,
        ) {
            let mut s = Series::new(raw_cap, hist_cap, every);
            let value = |seq: u64| (seq % 7) as f64 + 0.25;
            for seq in 1..=n {
                s.push(seq, value(seq));
            }
            let pts = s.points_since(0);
            let seqs: Vec<u64> = pts.iter().map(|&(q, _)| q).collect();
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "not strictly increasing: {:?}", seqs);
            let raw_first = n.saturating_sub(raw_cap as u64) + 1;
            for (seq, v) in pts {
                if seq >= raw_first && n > 0 {
                    // Raw tier: exact value.
                    prop_assert_eq!(v, value(seq));
                } else {
                    // History tier: mean of its `every`-point window, which
                    // ends at `seq` by construction.
                    prop_assert_eq!(seq % every, 0);
                    let window: f64 = (seq - every + 1..=seq).map(value).sum();
                    prop_assert!((v - window / every as f64).abs() < 1e-9);
                }
            }
        }

        /// Point storage never grows past the construction-time bound of
        /// 16 B per slot across both tiers, no matter how many points
        /// flow through.
        #[test]
        fn memory_is_bounded_by_construction(raw_cap in 1usize..64, hist_cap in 1usize..64, n in 0u64..500) {
            let mut s = Series::new(raw_cap, hist_cap, 4);
            let bound = (raw_cap + hist_cap) * 16;
            prop_assert_eq!(bytes(&s), bound);
            for seq in 1..=n {
                s.push(seq, 1.0);
            }
            prop_assert_eq!(bytes(&s), bound);
            prop_assert!(s.points_since(0).len() <= raw_cap + hist_cap);
        }
    }
}
