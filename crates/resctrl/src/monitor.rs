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
//! * [`ResctrlMonitor`] — reads real CMT counters from the control groups
//!   the allocator created (one `ccp-<mask>` group per distinct way
//!   mask), for hosts with RDT monitoring;
//! * [`SimulatedMonitor`] — a model-backed stand-in for everywhere else
//!   (containers, non-Intel hosts, CI): each class's occupancy decays
//!   exponentially toward `share_of_llc × load`, where load comes from a
//!   caller-supplied pressure function (e.g. how many queries of that
//!   class are currently running).

use crate::controller::CacheController;

/// One probe reading: the occupancy of a single CUID class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSample {
    /// CUID class label (`polluting`, `sensitive`, `mixed`, ...).
    pub class: String,
    /// Bytes of LLC the class currently occupies.
    pub llc_occupancy_bytes: u64,
    /// Cumulative memory-bandwidth bytes attributed to the class.
    pub mbm_total_bytes: u64,
}

/// Source of per-class occupancy readings, polled by the control plane.
pub trait OccupancyProbe: Send {
    /// Takes one reading per class. Classes that cannot be read (e.g. a
    /// control group not created yet) are simply omitted.
    fn sample(&mut self) -> Vec<ClassSample>;
}

/// Probe backed by real CMT counters: reads `llc_occupancy` of the named
/// control groups through a [`CacheController`].
pub struct ResctrlMonitor {
    ctl: CacheController,
    /// `(class label, control group name)` pairs to read.
    classes: Vec<(String, String)>,
    domain: u32,
}

impl ResctrlMonitor {
    /// Builds a probe reading `classes` (label → group name) on cache
    /// `domain` through `ctl`.
    pub fn new(ctl: CacheController, classes: Vec<(String, String)>, domain: u32) -> Self {
        ResctrlMonitor {
            ctl,
            classes,
            domain,
        }
    }
}

impl OccupancyProbe for ResctrlMonitor {
    fn sample(&mut self) -> Vec<ClassSample> {
        let mut out = Vec::with_capacity(self.classes.len());
        for (label, group) in &self.classes {
            let Ok(handle) = self.ctl.existing_group(group) else {
                continue; // allocator has not materialized this class yet
            };
            let Ok(m) = self.ctl.monitoring(&handle, self.domain) else {
                continue;
            };
            out.push(ClassSample {
                class: label.clone(),
                llc_occupancy_bytes: m.llc_occupancy_bytes,
                mbm_total_bytes: m.mbm_total_bytes,
            });
        }
        out
    }
}

/// A class in the simulated probe: its label and the fraction of the LLC
/// its way mask covers.
#[derive(Debug, Clone)]
pub struct SimClass {
    /// CUID class label.
    pub label: String,
    /// Fraction of the LLC reachable under the class's mask (0.0–1.0).
    pub llc_share: f64,
}

/// Model-backed probe for hosts without CMT hardware.
///
/// Each tick, class occupancy moves half the distance toward
/// `llc_share × min(load, 1) × llc_bytes` — the steady state a
/// mask-confined working set converges to — so the published gauges rise
/// under load and drain when a class goes idle, like real CMT readings.
pub struct SimulatedMonitor {
    llc_bytes: u64,
    classes: Vec<SimClass>,
    pressure: Box<dyn FnMut() -> Vec<(String, f64)> + Send>,
    occupancy: Vec<f64>,
    traffic: Vec<f64>,
}

impl SimulatedMonitor {
    /// Builds the simulator for an `llc_bytes`-sized cache. `pressure`
    /// reports current load per class label (e.g. running query count);
    /// labels it omits are treated as idle.
    pub fn new(
        llc_bytes: u64,
        classes: Vec<SimClass>,
        pressure: Box<dyn FnMut() -> Vec<(String, f64)> + Send>,
    ) -> Self {
        let n = classes.len();
        SimulatedMonitor {
            llc_bytes,
            classes,
            pressure,
            occupancy: vec![0.0; n],
            traffic: vec![0.0; n],
        }
    }
}

impl OccupancyProbe for SimulatedMonitor {
    fn sample(&mut self) -> Vec<ClassSample> {
        let loads = (self.pressure)();
        let mut out = Vec::with_capacity(self.classes.len());
        for (i, class) in self.classes.iter().enumerate() {
            let load = loads
                .iter()
                .find(|(l, _)| l == &class.label)
                .map_or(0.0, |&(_, v)| v)
                .clamp(0.0, 1.0);
            let target = class.llc_share * load * self.llc_bytes as f64;
            let before = self.occupancy[i];
            self.occupancy[i] += (target - before) * 0.5;
            // MBM counters are cumulative. Modeled bandwidth is the fill
            // traffic (occupancy movement = cold/capacity misses) plus a
            // small steady-state miss stream while the class is loaded —
            // a converged, reuse-heavy class mostly hits in cache, so
            // its MBM slope flattens instead of streaming its whole
            // share every tick.
            self.traffic[i] += (self.occupancy[i] - before).abs() + 0.05 * target;
            out.push(ClassSample {
                class: class.label.clone(),
                llc_occupancy_bytes: self.occupancy[i] as u64,
                mbm_total_bytes: self.traffic[i] as u64,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FakeFs;
    use parking_lot::Mutex;
    use std::path::Path;
    use std::sync::Arc;

    #[test]
    fn resctrl_probe_reads_allocator_groups() {
        let fs = FakeFs::broadwell();
        let mut ctl = CacheController::open_with(Box::new(fs.clone()), "/sys/fs/resctrl").unwrap();
        ctl.create_group("ccp-3").unwrap();
        fs.set_mon_counter(Path::new("/sys/fs/resctrl/ccp-3"), "llc_occupancy", 4096);
        let ctl2 = CacheController::open_with(Box::new(fs), "/sys/fs/resctrl").unwrap();
        let mut probe = ResctrlMonitor::new(
            ctl2,
            vec![
                ("polluting".into(), "ccp-3".into()),
                ("sensitive".into(), "ccp-fffff".into()), // not created yet
            ],
            0,
        );
        let samples = probe.sample();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].class, "polluting");
        assert_eq!(samples[0].llc_occupancy_bytes, 4096);
    }

    #[test]
    fn simulated_probe_tracks_load() {
        let llc = 55 * 1024 * 1024_u64;
        let load = Arc::new(Mutex::new(vec![("polluting".to_string(), 1.0)]));
        let load2 = Arc::clone(&load);
        let mut probe = SimulatedMonitor::new(
            llc,
            vec![
                SimClass {
                    label: "polluting".into(),
                    llc_share: 0.1,
                },
                SimClass {
                    label: "sensitive".into(),
                    llc_share: 1.0,
                },
            ],
            Box::new(move || load2.lock().clone()),
        );
        for _ in 0..20 {
            probe.sample();
        }
        let s = probe.sample();
        // Converged near 10% of the LLC for the loaded class...
        let polluting = s.iter().find(|c| c.class == "polluting").unwrap();
        assert!(polluting.llc_occupancy_bytes > (llc as f64 * 0.09) as u64);
        assert!(polluting.llc_occupancy_bytes <= (llc as f64 * 0.1) as u64 + 1);
        // ...while the idle class stays empty and traffic accumulates.
        let sensitive = s.iter().find(|c| c.class == "sensitive").unwrap();
        assert_eq!(sensitive.llc_occupancy_bytes, 0);
        assert!(polluting.mbm_total_bytes > polluting.llc_occupancy_bytes);

        // Load removed: occupancy drains.
        load.lock().clear();
        for _ in 0..20 {
            probe.sample();
        }
        let drained = probe.sample();
        assert!(drained[0].llc_occupancy_bytes < 1024);
    }
}
