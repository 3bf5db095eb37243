//! Native TPC-H Q1 and Q6 over generated sample data, through the
//! partitioned executor — the end-to-end path a real deployment would run
//! on CAT hardware.
//!
//! ```text
//! cargo run --release --example tpch_native
//! ```

use cache_partitioning::prelude::*;
use cache_partitioning::tpch;
use std::sync::Arc;

fn main() {
    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
    let ex = JobExecutor::new(4, policy, Arc::new(NoopAllocator));

    println!("generating a 500k-row lineitem sample…");
    let (lineitem, orders) = tpch::sample_database(500_000, 50_000, 42);
    println!(
        "lineitem: {} rows, {} columns; orders: {} rows",
        lineitem.row_count(),
        lineitem.column_count(),
        orders.row_count()
    );

    println!("\nTPC-H Q1 — pricing summary report (cache-sensitive jobs):");
    let rows = tpch::q1_pricing_summary(&ex, &lineitem);
    println!(
        "{:>6} {:>7} {:>18} {:>10}",
        "flag", "status", "sum(extprice)", "count"
    );
    for r in &rows {
        println!(
            "{:>6} {:>7} {:>18} {:>10}",
            r.returnflag, r.linestatus, r.sum_extendedprice, r.count
        );
    }

    println!("\nTPC-H Q6 — forecasting revenue change (polluting scan jobs):");
    let revenue = tpch::q6_forecast_revenue(&ex, &lineitem, 24, 5..=7);
    println!("revenue = {revenue}");

    let m = ex.metrics();
    println!(
        "\nexecutor: {} jobs, {} mask switches — Q1 ran at 0xfffff, Q6 at 0x3, exactly \
         the paper's Figure 11 setup",
        m.jobs_executed(),
        m.mask_switches()
    );
}
