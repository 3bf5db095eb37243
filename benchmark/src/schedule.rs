//! The four co-run workloads and their seeded request schedules.
//!
//! A workload is two closed-loop streams: the *foreground* query the
//! paper protects and the *background* co-runner. Each stream owns a
//! fixed menu of request bodies; `--seed` only decides the order they
//! are sent in, so every seed does the same kind of work and the server
//! sees nothing but bodies.

/// Rows in every resident column of the server under test.
///
/// The answers in `golden.tsv` belong to this size. Half of the 4 M rows
/// the issue asked for: the driver's time cap leaves ~35 s per run for
/// three set-ups plus the measurement, and at 2 M rows the slowest
/// stream (`q3`) still completes ≈35 requests/s, which keeps its p95
/// meaningful inside a 4 s segment.
pub const DATASET_ROWS: usize = 2_000_000;

/// Seed used when `--seed` is absent (also recorded in the README).
pub const DEFAULT_SEED: u64 = 20180416;

/// A schedule covers at least this many requests before it repeats.
const MIN_SCHEDULE_LEN: usize = 4096;

/// One closed-loop client stream.
pub struct Stream {
    /// Request bodies this stream may send.
    pub menu: Vec<String>,
    /// `true`: the menu is reshuffled per round from the seed;
    /// `false`: walked in order (the cold stream of `reuse_churn`, where
    /// no body may repeat inside a data-version epoch).
    pub shuffled: bool,
    /// Send `POST /data/bump` after every this many queries.
    pub bump_every: Option<usize>,
}

/// A named pair of streams.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub fg: Stream,
    pub bg: Stream,
    /// Whether the server runs with its reuse cache (default budget).
    pub reuse: bool,
}

fn q1(threshold: usize) -> String {
    format!(r#"{{"workload":"q1","threshold":{threshold}}}"#)
}

fn q2_menu() -> Vec<String> {
    ["max", "min", "sum", "count"]
        .iter()
        .map(|agg| format!(r#"{{"workload":"q2","agg":"{agg}"}}"#))
        .collect()
}

/// 16 scan thresholds spread over the value domain `1..=50_000`.
fn q1_menu() -> Vec<String> {
    (0..16).map(|k| q1(1_000 + 3_000 * k)).collect()
}

/// 4096 document keys spread evenly over the OLTP key domain
/// (`1..=rows/8`, see `Datasets::build`).
fn oltp_menu() -> Vec<String> {
    let domain = DATASET_ROWS / 8;
    let step = domain / 4096;
    (0..4096)
        .map(|i| format!(r#"{{"workload":"oltp","key":{}}}"#, 1 + i * step))
        .collect()
}

/// The 15 cacheable bodies the hot stream of `reuse_churn` repeats. `q3`
/// is left out on purpose: its "hit" still probes every row and would
/// turn the workload into a second join workload.
fn hot_menu() -> Vec<String> {
    // Multiples of 12, so none collides with a cold threshold (12 i + 5).
    let mut menu: Vec<String> = (0..8).map(|k| q1(3_000 + 6_000 * k)).collect();
    menu.extend(q2_menu());
    for id in [1, 6, 3] {
        menu.push(format!(r#"{{"workload":"tpch-{id}"}}"#));
    }
    menu
}

/// 4096 distinct thresholds no hot body uses: walked in order, every
/// request is a reuse miss, a full scan and a publish.
fn cold_menu() -> Vec<String> {
    (0..4096).map(|i| q1(12 * i + 5)).collect()
}

fn shuffled(menu: Vec<String>) -> Stream {
    Stream {
        menu,
        shuffled: true,
        bump_every: None,
    }
}

/// The four workloads, in reporting order. Names are final: later
/// issues cite them.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "scan_agg",
            why: "Paper Fig. 9: q2 aggregation (fg) beside q1 scans (bg) on the shared OLAP pool; \
                  >99% kernel time, masks alternate 0x3/0xfffff on the same two workers",
            fg: shuffled(q2_menu()),
            bg: shuffled(q1_menu()),
            reuse: false,
        },
        Workload {
            name: "agg_join",
            why: "Paper Fig. 10: same q2 fg, co-runner is the q3 join (bit-vector build + probe, \
                  mixed class); a scan-only change must leave it unmoved",
            fg: shuffled(q2_menu()),
            bg: shuffled(vec![r#"{"workload":"q3"}"#.to_string()]),
            reuse: false,
        },
        Workload {
            name: "oltp_scan",
            why: "Paper Fig. 12: OLTP point selects (fg, ~60 us, mostly http/json/admission/hand-off) \
                  while q1 scans keep both cores busy; a scan gain that costs OLTP latency shows here",
            fg: shuffled(oltp_menu()),
            bg: shuffled(q1_menu()),
            reuse: false,
        },
        Workload {
            name: "reuse_churn",
            why: "Reuse cache three ways at once: hot hits (fg), cold miss+scan+publish (bg), and a \
                  data-version bump every 16384 fg requests forcing 15 single-flight rebuilds",
            fg: Stream {
                bump_every: Some(16_384),
                ..shuffled(hot_menu())
            },
            bg: Stream {
                menu: cold_menu(),
                shuffled: false,
                bump_every: None,
            },
            reuse: true,
        },
    ]
}

/// SplitMix64: the harness's only random source.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at menu sizes).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The order in which `stream` sends its menu: indices into
/// `stream.menu`, walked cyclically by the client. A pure function of
/// `(stream, seed, salt)`; `salt` keeps the two streams of a workload
/// from sharing an order.
pub fn schedule(stream: &Stream, seed: u64, salt: u64) -> Vec<u32> {
    let n = stream.menu.len();
    let rounds = MIN_SCHEDULE_LEN.div_ceil(n);
    let mut rng = Rng::new(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
    let mut out = Vec::with_capacity(rounds * n);
    for _ in 0..rounds {
        let mut round: Vec<u32> = (0..n as u32).collect();
        if stream.shuffled {
            // Fisher-Yates.
            for i in (1..n).rev() {
                round.swap(i, rng.below(i + 1));
            }
        }
        out.extend(round);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(stream: &Stream, order: &[u32]) -> Vec<u8> {
        order
            .iter()
            .flat_map(|&i| stream.menu[i as usize].bytes())
            .collect()
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        for w in workloads() {
            for stream in [&w.fg, &w.bg] {
                let a = schedule(stream, 7, 1);
                let b = schedule(stream, 7, 1);
                assert_eq!(bytes(stream, &a), bytes(stream, &b), "{}", w.name);
                assert!(a.len() >= MIN_SCHEDULE_LEN);
                let c = schedule(stream, 8, 1);
                let (mut sa, mut sc) = (a.clone(), c.clone());
                sa.sort_unstable();
                sc.sort_unstable();
                assert_eq!(sa, sc, "{}: same multiset under another seed", w.name);
                if stream.shuffled && stream.menu.len() > 1 {
                    assert_ne!(a, c, "{}: another seed reorders", w.name);
                } else {
                    assert_eq!(a, c, "{}: in-order stream ignores the seed", w.name);
                }
            }
        }
    }

    #[test]
    fn menus_have_the_documented_shape() {
        let ws = workloads();
        assert_eq!(
            ws.iter().map(|w| w.name).collect::<Vec<_>>(),
            ["scan_agg", "agg_join", "oltp_scan", "reuse_churn"]
        );
        assert_eq!(ws[0].fg.menu.len(), 4);
        assert_eq!(ws[0].bg.menu.len(), 16);
        assert_eq!(ws[2].fg.menu.len(), 4096);
        assert_eq!(ws[3].fg.menu.len(), 15);
        // No body of the cold stream is also a hot body, or the cold
        // stream would hit what the hot stream published.
        let hot: std::collections::HashSet<&String> = ws[3].fg.menu.iter().collect();
        assert!(ws[3].bg.menu.iter().all(|b| !hot.contains(b)));
        // Every menu entry is distinct, so a schedule round has no repeats.
        for w in &ws {
            for s in [&w.fg, &w.bg] {
                let set: std::collections::HashSet<&String> = s.menu.iter().collect();
                assert_eq!(set.len(), s.menu.len(), "{}", w.name);
            }
        }
    }

    #[test]
    fn each_shuffled_round_is_a_permutation() {
        let w = &workloads()[0];
        let order = schedule(&w.bg, 3, 2);
        for round in order.chunks(16) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, (0..16).collect::<Vec<u32>>());
        }
    }
}
