//! Figure 11: normalized throughput of Query 1 (column scan) and each
//! TPC-H query (SF 100 profiles) when executed concurrently, with and
//! without partitioning (scan confined to `0x3`).
//!
//! Paper result: TPC-H throughput degrades to 74–93 % (scan to 65–96 %);
//! partitioning improves TPC-H queries by up to +5 %, most visibly Q1, Q7,
//! Q8 and Q9 (they aggregate through the ≈ 29 MiB `L_EXTENDEDPRICE`
//! dictionary); the scan itself gains up to +5 % (e.g. with Q18).
//!
//! Only the scan is ever confined: composite analytical queries keep the
//! full cache in the paper's evaluation, so each TPC-H query runs through
//! `SimWorkload::unpartitioned` whatever its plan's class.

use ccp_bench::{banner, experiment_from_env, pct, save_json, ResultRow};
use ccp_cachesim::{AddrSpace, WayMask};
use ccp_engine::sim::{run_concurrent, SimWorkload};
use ccp_workloads::experiment::OpBuilder;
use ccp_workloads::paper;

fn main() {
    let e = experiment_from_env();
    banner("Figure 11", "Q1 (scan) ∥ TPC-H 1..22, ±partitioning", &e);

    let scan_build: OpBuilder = Box::new(paper::q1_scan);
    let scan_iso = e.run_isolated("q1", &scan_build).throughput;
    let mask = WayMask::new(0x3).expect("valid mask");

    println!(
        "{:>5} {:>9} {:>9} | {:>9} {:>9} | {:>7} {:>7}",
        "query", "TPCH base", "Q1 base", "TPCH part", "Q1 part", "ΔTPCH", "ΔQ1"
    );
    let mut rows = Vec::new();
    let mut best_gain = (0u8, 0.0f64);
    for id in ccp_tpch::query_ids() {
        let q_build: OpBuilder = Box::new(move |s| ccp_tpch::build_query(s, id));
        let q_iso = e.run_isolated("tpch", &q_build).throughput;

        let run_pair = |m: Option<WayMask>| {
            let mut space = AddrSpace::new();
            let w = vec![
                SimWorkload::unpartitioned("tpch", q_build(&mut space)),
                SimWorkload {
                    name: "q1".into(),
                    op: scan_build(&mut space),
                    mask: m,
                },
            ];
            let out = run_concurrent(&e.cfg, w, e.warm_cycles, e.measure_cycles);
            (
                out.streams[0].throughput / q_iso,
                out.streams[1].throughput / scan_iso,
            )
        };

        let (t_base, s_base) = run_pair(None);
        let (t_part, s_part) = run_pair(Some(mask));
        let gain = t_part / t_base - 1.0;
        if gain > best_gain.1 {
            best_gain = (id, gain);
        }
        println!(
            "{:>5} {:>9} {:>9} | {:>9} {:>9} | {:>6.1}% {:>6.1}%",
            format!("Q{id}"),
            pct(t_base),
            pct(s_base),
            pct(t_part),
            pct(s_part),
            gain * 100.0,
            (s_part / s_base - 1.0) * 100.0,
        );
        for (series, v) in [
            ("tpch baseline", t_base),
            ("q1 baseline", s_base),
            ("tpch partitioned", t_part),
            ("q1 partitioned", s_part),
        ] {
            rows.push(ResultRow {
                config: format!("Q{id}"),
                series: series.into(),
                x: f64::from(id),
                normalized: v,
                llc_hit_ratio: None,
                llc_mpi: None,
            });
        }
    }
    save_json("fig11_tpch", &rows);
    println!(
        "\npaper: gains concentrated in Q1/Q7/Q8/Q9 (L_EXTENDEDPRICE dictionary), up to +5%; \
         measured best: Q{} {:+.1}%",
        best_gain.0,
        best_gain.1 * 100.0
    );
}
