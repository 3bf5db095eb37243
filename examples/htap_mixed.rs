//! HTAP mixed workload on the *native* engine: real data, real operators,
//! real worker threads — and, on CAT hardware, real cache partitioning.
//!
//! Builds a dictionary-encoded sales table, then runs an OLTP point-select
//! stream and OLAP queries (scan / aggregation / FK join) through the job
//! executor. Every job carries its cache usage identifier; the executor
//! binds worker threads to LLC way masks through whichever allocator the
//! host supports:
//!
//! * CAT hardware + mounted resctrl → `ResctrlAllocator` (the real thing),
//! * anything else → `NoopAllocator` (jobs still run, unpartitioned).
//!
//! ```text
//! cargo run --release --example htap_mixed
//! ```

use cache_partitioning::prelude::*;
use ccp_engine::ops::{aggregate, join, oltp, scan};
use ccp_storage::{gen, Aggregate, DictColumn, InvertedIndex};
use std::sync::Arc;

fn main() {
    println!("HTAP mixed workload on the native engine\n");

    // --- pick the cache allocator the host supports -----------------------
    let support = detect();
    let allocator: Arc<dyn CacheAllocator> = match &support {
        CatSupport::Available { mount } => {
            println!("CAT detected, resctrl mounted at {mount}: partitioning is REAL");
            Arc::new(ResctrlAllocator::open_host().expect("probe said available"))
        }
        other => {
            println!("no usable CAT on this host ({other:?}); running with the no-op allocator");
            Arc::new(NoopAllocator)
        }
    };

    let cfg = HierarchyConfig::broadwell_e5_2699_v4();
    let policy = PartitionPolicy::paper_default(cfg.llc, cfg.l2.size_bytes);
    let ex = JobExecutor::new(4, policy, allocator);

    // --- build a small sales database -------------------------------------
    const ROWS: usize = 400_000;
    println!("\ngenerating {ROWS} sales rows…");
    let amounts = Arc::new(DictColumn::build(&gen::uniform_ints(ROWS, 1_000_000, 1)));
    let regions = Arc::new(DictColumn::build(&gen::uniform_ints(ROWS, 100, 2)));
    let order_pk = Arc::new(DictColumn::build(&gen::primary_keys(50_000, 3)));
    let order_fk = Arc::new(DictColumn::build(&gen::foreign_keys(ROWS, 50_000, 4)));

    let customer_ids = DictColumn::build(&gen::primary_keys(10_000, 5));
    let balances = DictColumn::build(&gen::uniform_ints(10_000, 1_000_000, 6));
    let customer_index =
        InvertedIndex::build(customer_ids.codes().iter(), customer_ids.dict().len());

    // --- OLAP side ---------------------------------------------------------
    println!("\nOLAP queries through the partitioned executor:");
    let hits = scan::column_scan(&ex, &amounts, 500_000);
    println!("  Q1 column scan  (CUID: polluting) -> {hits} rows over threshold");

    let groups = aggregate::grouped_aggregate(&ex, &amounts, &regions, Aggregate::Max);
    println!(
        "  Q2 aggregation  (CUID: sensitive) -> {} groups",
        groups.len()
    );

    let matches = join::fk_join_count(&ex, &order_pk, &order_fk);
    println!("  Q3 FK join      (CUID: mixed)     -> {matches} matches");

    // --- OLTP side ---------------------------------------------------------
    let (rows, balance) = oltp::point_select_sum(&customer_ids, &customer_index, &balances, 4242);
    println!(
        "  OLTP point select (full cache)     -> customer 4242: {rows} row, balance {balance}"
    );

    // --- what the executor did ---------------------------------------------
    let m = ex.metrics();
    println!(
        "\nexecutor: {} jobs, {} mask switches, {} bind failures",
        m.jobs_executed(),
        m.mask_switches(),
        m.bind_failures()
    );
    println!(
        "masks applied by CUID: polluting -> {:#x}, sensitive -> {:#x}",
        policy.mask_for(CacheUsageClass::Polluting).bits(),
        policy.mask_for(CacheUsageClass::Sensitive).bits(),
    );
    if !support.is_available() {
        println!(
            "\n(no CAT here, so the binds were no-ops — on a Xeon with resctrl mounted the\n\
             same program partitions the LLC for real)"
        );
    }
}
