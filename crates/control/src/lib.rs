//! # ccp-control
//!
//! Closed-loop, occupancy-driven LLC repartitioning — the adaptive layer
//! on top of the paper's static CUID→mask mapping.
//!
//! The paper fixes each class's allocation at classification time; LFOC
//! (and Com-CAS) showed that lightweight online monitoring is enough to
//! *re*-derive partitions periodically. This crate implements that loop
//! as a pure, deterministic state machine so every decision path runs in
//! CI without hardware:
//!
//! 1. **Signals** — per-class `llc_occupancy` and cumulative `mbm_total`
//!    readings (from a `ccp-resctrl` `OccupancyProbe`, real or
//!    simulated), delivered with a sequence number — successful probes
//!    so far — so staleness is observable.
//! 2. **Classification** ([`mod@classify`]) — each class's current behavior
//!    (fits / steady / starved / polluting / idle) from its
//!    occupancy-vs-allocation ratio and MBM slope.
//! 3. **Derivation** ([`plan`]) — behaviors become per-class way
//!    targets, targets become *contiguous, non-overlapping* masks:
//!    polluting classes anchored at way 0, sensitive/mixed at the top.
//! 4. **Hysteresis & clamping** ([`controller`]) — minimum dwell ticks
//!    after any repartition, a change-magnitude threshold below which
//!    plans are held, and an unconditional revert to the static paper
//!    mapping whenever resctrl health is degraded or readings go stale.
//!
//! The crate is std-only and side-effect free: it decides, the caller
//! (the control step of the server's control plane) applies — writing schemata through the
//! supervised resctrl path and publishing the plan to the engine's
//! `LiveMasks` table, which workers consult on their next bind.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod classify;
pub mod controller;
pub mod plan;
pub mod script;

/// The class vocabulary and the probe reading, from `ccp-resctrl`
/// (`ClassId` is the controller's older name for [`Class`]).
pub use ccp_resctrl::{Class, Class as ClassId, ClassReading, PerClass};
pub use classify::{classify, Behavior, Thresholds};
pub use controller::{ControlConfig, Controller, Decision, HoldReason, RevertReason, TickInput};
pub use plan::{derive_masks, polluter_isolated, ClassTargets, MaskPlan};
pub use script::ScriptedTrace;
