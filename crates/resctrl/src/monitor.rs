//! Cache-occupancy probes per CUID class.
//!
//! The paper's scheduler *acts* on cache usage identifiers; this module
//! makes their footprint *visible*. An [`OccupancyProbe`] reports
//! per-class LLC occupancy and memory bandwidth; the server's control
//! plane polls one every monitor interval, publishes the readings as
//! `ccp_llc_occupancy_bytes{class=...}` / `ccp_mbm_total_bytes{class=...}`
//! gauges and feeds them to the adaptive controller.
//!
//! Two probes are provided:
//!
//! * [`ResctrlMonitor`] — reads real CMT counters from the mask groups
//!   of the process's [`ResctrlTree`] (one `ccp-<mask>` group per
//!   distinct way mask), for hosts with RDT monitoring;
//! * [`SimulatedMonitor`] — a model-backed stand-in for everywhere else
//!   (containers, non-Intel hosts, CI): each class's occupancy decays
//!   exponentially toward `share_of_llc × load`, where load comes from a
//!   caller-supplied pressure function (e.g. how many queries of that
//!   class are currently running).

use crate::class::{Class, PerClass};
use crate::supervisor::ResctrlTree;
use ccp_cachesim::WayMask;

/// One probe reading: the footprint of a single class. This is the one
/// type between the probes and the adaptive controller's tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassReading {
    /// Which class the reading describes.
    pub class: Class,
    /// Bytes of LLC the class currently occupies.
    pub occupancy_bytes: u64,
    /// Cumulative memory-bandwidth bytes attributed to the class (the
    /// controller differentiates it).
    pub mbm_total_bytes: u64,
}

/// Source of per-class occupancy readings, polled by the control plane.
pub trait OccupancyProbe: Send {
    /// Takes one reading per class. Classes that cannot be read (e.g. a
    /// control group not created yet) are simply omitted.
    fn sample(&mut self) -> Vec<ClassReading>;
}

/// Probe backed by real CMT counters: reads `llc_occupancy` of the
/// tree's per-mask control groups, through the tree's one controller.
pub struct ResctrlMonitor {
    tree: ResctrlTree,
    /// The class → mask mapping in force, asked at every sample: a
    /// repartition moves the workers into new groups and retires the old.
    masks: Box<dyn Fn() -> PerClass<WayMask> + Send>,
    domain: u32,
}

impl ResctrlMonitor {
    /// Builds a probe reading, on cache `domain`, the group `tree` holds
    /// for each class's current mask.
    pub fn new(
        tree: ResctrlTree,
        masks: Box<dyn Fn() -> PerClass<WayMask> + Send>,
        domain: u32,
    ) -> Self {
        ResctrlMonitor {
            tree,
            masks,
            domain,
        }
    }
}

impl OccupancyProbe for ResctrlMonitor {
    fn sample(&mut self) -> Vec<ClassReading> {
        let mut out = Vec::with_capacity(Class::ALL.len());
        let masks = (self.masks)();
        let ctl = self.tree.lock();
        for (class, &mask) in masks.iter() {
            let Some(m) = ctl.mask_monitoring(mask, self.domain) else {
                continue;
            };
            out.push(ClassReading {
                class,
                occupancy_bytes: m.llc_occupancy_bytes,
                mbm_total_bytes: m.mbm_total_bytes,
            });
        }
        out
    }
}

/// Model-backed probe for hosts without CMT hardware.
///
/// Each tick, class occupancy moves half the distance toward
/// `llc_share × min(load, 1) × llc_bytes` — the steady state a
/// mask-confined working set converges to — so the published gauges rise
/// under load and drain when a class goes idle, like real CMT readings.
pub struct SimulatedMonitor {
    llc_bytes: u64,
    llc_share: PerClass<f64>,
    pressure: Box<dyn FnMut() -> PerClass<f64> + Send>,
    occupancy: PerClass<f64>,
    traffic: PerClass<f64>,
}

impl SimulatedMonitor {
    /// Builds the simulator for an `llc_bytes`-sized cache. `llc_share`
    /// is the fraction of the LLC reachable under each class's mask
    /// (0.0–1.0); `pressure` reports the current load per class (e.g.
    /// running query count; 0 is idle).
    pub fn new(
        llc_bytes: u64,
        llc_share: PerClass<f64>,
        pressure: Box<dyn FnMut() -> PerClass<f64> + Send>,
    ) -> Self {
        SimulatedMonitor {
            llc_bytes,
            llc_share,
            pressure,
            occupancy: PerClass::default(),
            traffic: PerClass::default(),
        }
    }
}

impl OccupancyProbe for SimulatedMonitor {
    fn sample(&mut self) -> Vec<ClassReading> {
        let loads = (self.pressure)();
        let mut out = Vec::with_capacity(Class::ALL.len());
        for class in Class::ALL {
            let load = loads.get(class).clamp(0.0, 1.0);
            let target = self.llc_share.get(class) * load * self.llc_bytes as f64;
            let before = *self.occupancy.get(class);
            let occupancy = before + (target - before) * 0.5;
            self.occupancy.set(class, occupancy);
            // MBM counters are cumulative. Modeled bandwidth is the fill
            // traffic (occupancy movement = cold/capacity misses) plus a
            // small steady-state miss stream while the class is loaded —
            // a converged, reuse-heavy class mostly hits in cache, so
            // its MBM slope flattens instead of streaming its whole
            // share every tick.
            let traffic = self.traffic.get(class) + (occupancy - before).abs() + 0.05 * target;
            self.traffic.set(class, traffic);
            out.push(ClassReading {
                class,
                occupancy_bytes: occupancy as u64,
                mbm_total_bytes: traffic as u64,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::CacheController;
    use crate::fs::FakeFs;
    use crate::supervisor::{RetryPolicy, SupervisedController};
    use parking_lot::Mutex;
    use std::path::Path;
    use std::sync::Arc;

    #[test]
    fn resctrl_probe_reads_the_trees_mask_groups() {
        let fs = FakeFs::broadwell();
        let ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        let tree = SupervisedController::new(ctl, RetryPolicy::default(), 3).shared(vec![0]);
        // Only the polluting mask's group exists so far.
        let masks = PerClass::new(0x3, 0xfff, 0xfffff).map(|&bits| WayMask::new(bits).unwrap());
        let polluting = *masks.get(Class::Polluting);
        tree.lock().bind(7, polluting).unwrap();
        fs.set_mon_counter(Path::new("/sys/fs/resctrl/ccp-3"), "llc_occupancy", 4096);
        let mut probe = ResctrlMonitor::new(tree, Box::new(move || masks), 0);
        let samples = probe.sample();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].class, Class::Polluting);
        assert_eq!(samples[0].occupancy_bytes, 4096);
    }

    #[test]
    fn simulated_probe_tracks_load() {
        let llc = 55 * 1024 * 1024_u64;
        let load = Arc::new(Mutex::new(PerClass::new(1.0, 0.0, 0.0)));
        let load2 = Arc::clone(&load);
        let mut probe = SimulatedMonitor::new(
            llc,
            PerClass::new(0.1, 0.6, 1.0),
            Box::new(move || *load2.lock()),
        );
        for _ in 0..20 {
            probe.sample();
        }
        let s = probe.sample();
        // Converged near 10% of the LLC for the loaded class...
        let polluting = s.iter().find(|r| r.class == Class::Polluting).unwrap();
        assert!(polluting.occupancy_bytes > (llc as f64 * 0.09) as u64);
        assert!(polluting.occupancy_bytes <= (llc as f64 * 0.1) as u64 + 1);
        // ...while the idle class stays empty and traffic accumulates.
        let sensitive = s.iter().find(|r| r.class == Class::Sensitive).unwrap();
        assert_eq!(sensitive.occupancy_bytes, 0);
        assert!(polluting.mbm_total_bytes > polluting.occupancy_bytes);

        // Load removed: occupancy drains.
        *load.lock() = PerClass::default();
        for _ in 0..20 {
            probe.sample();
        }
        let drained = probe.sample();
        assert!(drained[0].occupancy_bytes < 1024);
    }
}
