//! resctrl probe: inspect this host's Cache Allocation Technology support
//! and, if available, exercise the full group lifecycle end-to-end.
//!
//! Safe to run anywhere: on hosts without CAT (most laptops, containers,
//! VMs) it explains exactly what is missing, then demonstrates the same
//! lifecycle against the in-memory fake tree so you can see what *would*
//! happen on a Xeon.
//!
//! ```text
//! cargo run --release --example resctrl_probe
//! ```

use cache_partitioning::prelude::*;
use ccp_resctrl::fs::FakeFs;

fn demo_lifecycle(mut ctl: CacheController, flavor: &str) {
    println!("\n--- CAT group lifecycle ({flavor}) ---");
    let info = ctl.info();
    println!(
        "cbm_mask={:#x} ({} ways), min_cbm_bits={}, num_closids={}",
        info.cbm_mask,
        info.ways(),
        info.min_cbm_bits,
        info.num_closids
    );

    let scan_group = ctl
        .create_group("ccp-demo-polluters")
        .expect("create group");
    println!("created group {:?}", scan_group.name());

    let mask = WayMask::new(0x3).expect("valid CAT mask");
    ctl.set_l3_mask(&scan_group, 0, mask)
        .expect("program schemata");
    println!(
        "programmed L3:0={:x} (the paper's 10% polluter slice)",
        mask.bits()
    );

    // Bind this very process's main thread, then read the schemata back.
    let tid = std::process::id() as u64;
    ctl.assign_task(&scan_group, tid).expect("assign task");
    let schemata = ctl.schemata(&scan_group).expect("read back");
    println!(
        "bound tid {tid}; kernel reports: {}",
        schemata.to_string().trim()
    );

    // Redundant binds are skipped (the paper's Section V-C fast path).
    for _ in 0..5 {
        ctl.assign_task(&scan_group, tid).expect("no-op bind");
    }
    println!(
        "5 redundant task binds skipped: {}",
        ctl.metrics().skipped_writes()
    );

    ctl.remove_group(scan_group).expect("cleanup");
    println!("group removed; tasks fell back to the root class");
}

fn main() {
    println!("resctrl / Intel CAT host probe");
    match detect() {
        CatSupport::Available { mount } => {
            println!("this host HAS usable CAT: resctrl mounted at {mount}");
            match CacheController::open() {
                Ok(ctl) => demo_lifecycle(ctl, "REAL hardware"),
                Err(e) => println!("…but opening it failed: {e}"),
            }
        }
        CatSupport::NotMounted => {
            println!("CPU+kernel support CAT but resctrl is not mounted; run:");
            println!("    sudo mount -t resctrl resctrl /sys/fs/resctrl");
        }
        CatSupport::KernelMissing { kernel_hint } => {
            println!("kernel lacks resctrl: {kernel_hint}");
        }
        CatSupport::HardwareMissing { missing_flags } => {
            println!("CPU does not advertise CAT (missing cpuinfo flags: {missing_flags:?})");
        }
    }

    // Always show the lifecycle against the fake tree, so the example is
    // useful on any machine.
    let fake = FakeFs::broadwell();
    let ctl = CacheController::open_with(Box::new(fake), "/sys/fs/resctrl")
        .expect("fake tree always mounts");
    demo_lifecycle(ctl, "in-memory fake of a Broadwell-EP");
}
