//! The feedback controller: hysteresis, clamping, and decision making.
//!
//! [`Controller::tick`] is a pure state transition — readings in,
//! [`Decision`] out — so every path (including the failure ones) is
//! exercisable from deterministic tests. The caller owns the effects:
//! on `Repartition` it prepares the new masks through the supervised
//! resctrl path and publishes them to the engine's live table; if that
//! application fails it calls [`Controller::note_apply_failed`] and
//! publishes the static plan instead.

use crate::classify::{classify, Behavior, Thresholds};
use crate::plan::{delta_ways, derive_masks, MaskPlan};
use ccp_resctrl::{Class, ClassReading, PerClass};

/// Controller tuning. [`ControlConfig::paper_default`] matches the
/// values documented in DESIGN.md §10.
#[derive(Debug, Clone, Copy)]
pub struct ControlConfig {
    /// LLC way count (20 on the paper's Broadwell).
    pub ways: u32,
    /// LLC size in bytes.
    pub llc_bytes: u64,
    /// Smallest allocation any class may shrink to (2: the paper never
    /// grants a single way).
    pub min_ways: u32,
    /// Classification thresholds.
    pub thresholds: Thresholds,
    /// Ways added per tick to a starved class.
    pub grow_step: u32,
    /// Ticks the controller must hold after any repartition or revert
    /// (also the warm-up period before the first decision).
    pub min_dwell_ticks: u32,
    /// Minimum total way movement for a new plan to be worth applying;
    /// smaller deltas are held.
    pub min_delta_ways: u32,
    /// Consecutive ticks without a fresh reading after which the
    /// controller clamps to the static plan. Each tick follows its own
    /// probe, so this counts consecutive failed probes.
    pub stale_after_ticks: u32,
}

impl ControlConfig {
    /// Defaults for a `ways`-way, `llc_bytes` LLC: min 2 ways, grow by
    /// 2, dwell 3 ticks, 2-way change threshold, stale after 4 ticks.
    pub fn paper_default(ways: u32, llc_bytes: u64) -> Self {
        ControlConfig {
            ways,
            llc_bytes,
            min_ways: 2,
            thresholds: Thresholds::default(),
            grow_step: 2,
            min_dwell_ticks: 3,
            min_delta_ways: 2,
            stale_after_ticks: 4,
        }
    }
}

/// Everything a control tick consumes.
#[derive(Debug, Clone, Copy)]
pub struct TickInput<'a> {
    /// Successful occupancy probes so far; a non-advancing sequence is
    /// the staleness signal.
    pub seq: u64,
    /// Latest per-class readings (empty until the first successful
    /// probe).
    pub readings: &'a [ClassReading],
    /// Whether resctrl health is currently tripped.
    pub degraded: bool,
}

/// Why the controller held the current plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldReason {
    /// No readings have ever been published.
    NoData,
    /// Inside the post-repartition dwell window.
    Dwell,
    /// The re-derived plan moved fewer than `min_delta_ways` ways.
    BelowThreshold,
    /// Clamped (degraded or stale) and already on the static plan.
    Clamped,
}

/// Why the controller abandoned the adaptive plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevertReason {
    /// Resctrl health tripped; the supervisor owns the hardware now.
    Degraded,
    /// Readings stopped arriving; flying blind is not allowed.
    StaleReadings,
    /// Applying a repartition failed mid-way (schemata write error).
    ApplyFailed,
}

/// The outcome of one control tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep the current plan.
    Hold(HoldReason),
    /// Apply this new plan (prepare masks, then publish).
    Repartition(MaskPlan),
    /// Abandon the adaptive plan; publish `plan` (the static mapping).
    Revert {
        /// What forced the revert.
        reason: RevertReason,
        /// The plan to fall back to.
        plan: MaskPlan,
    },
}

/// The adaptive partitioning state machine. See the module docs for the
/// caller contract.
#[derive(Debug)]
pub struct Controller {
    cfg: ControlConfig,
    static_plan: MaskPlan,
    current: MaskPlan,
    last_seq: u64,
    seen_data: bool,
    stale_ticks: u32,
    dwell_remaining: u32,
    last_mbm: PerClass<Option<u64>>,
    clamped: bool,
    last_decision: &'static str,
}

impl Controller {
    /// Builds a controller that starts on (and reverts to)
    /// `static_plan`. The first `min_dwell_ticks` ticks hold
    /// unconditionally — a warm-up that also guarantees an MBM slope
    /// exists before the first real decision.
    pub fn new(cfg: ControlConfig, static_plan: MaskPlan) -> Self {
        Controller {
            cfg,
            static_plan,
            current: static_plan,
            last_seq: 0,
            seen_data: false,
            stale_ticks: 0,
            dwell_remaining: cfg.min_dwell_ticks,
            last_mbm: PerClass::default(),
            clamped: false,
            last_decision: "none",
        }
    }

    /// The plan currently in force.
    pub fn current_plan(&self) -> &MaskPlan {
        &self.current
    }

    /// The static fallback plan.
    pub fn static_plan(&self) -> &MaskPlan {
        &self.static_plan
    }

    /// Short label of the last decision (for `/stats`).
    pub fn last_decision(&self) -> &'static str {
        self.last_decision
    }

    /// Whether the last tick was clamped to the static plan (degraded
    /// health or stale readings).
    pub fn is_clamped(&self) -> bool {
        self.clamped
    }

    /// Evaluates one control tick.
    pub fn tick(&mut self, input: &TickInput<'_>) -> Decision {
        if input.seq > self.last_seq {
            self.last_seq = input.seq;
            self.stale_ticks = 0;
            self.seen_data = true;
        } else if self.seen_data {
            self.stale_ticks = self.stale_ticks.saturating_add(1);
        }
        let stale = self.seen_data && self.stale_ticks >= self.cfg.stale_after_ticks;

        if input.degraded || stale {
            self.clamped = true;
            // Cumulative MBM history is useless after a gap; restart
            // slope tracking when readings come back.
            self.last_mbm = PerClass::default();
            let reason = if input.degraded {
                RevertReason::Degraded
            } else {
                RevertReason::StaleReadings
            };
            if self.current != self.static_plan {
                return self.revert(reason, "revert-clamped");
            }
            self.last_decision = "hold-clamped";
            return Decision::Hold(HoldReason::Clamped);
        }
        self.clamped = false;

        if !self.seen_data || input.readings.is_empty() {
            self.last_decision = "hold-no-data";
            return Decision::Hold(HoldReason::NoData);
        }

        // Differentiate the cumulative MBM counters every tick — even
        // held ones — so the slope window stays one tick wide.
        let mut slopes: PerClass<Option<u64>> = PerClass::default();
        for r in input.readings {
            let slope = self
                .last_mbm
                .get(r.class)
                .map(|prev| r.mbm_total_bytes.saturating_sub(prev));
            slopes.set(r.class, slope);
            self.last_mbm.set(r.class, Some(r.mbm_total_bytes));
        }

        if self.dwell_remaining > 0 {
            self.dwell_remaining -= 1;
            self.last_decision = "hold-dwell";
            return Decision::Hold(HoldReason::Dwell);
        }

        let way_bytes = (self.cfg.llc_bytes / u64::from(self.cfg.ways.max(1))).max(1);
        let mut targets = self.current.map(|mask| mask.way_count());
        for r in input.readings {
            let cur = self.current.get(r.class).way_count();
            let alloc = u64::from(cur) * way_bytes;
            let behavior = classify(
                r.occupancy_bytes,
                *slopes.get(r.class),
                alloc,
                &self.cfg.thresholds,
            );
            let target = match behavior {
                Behavior::Idle => self.cfg.min_ways,
                Behavior::Fits => {
                    // Shrink to the measured working set plus one way of
                    // headroom; Fits never grows an allocation.
                    let need = r.occupancy_bytes.div_ceil(way_bytes) as u32 + 1;
                    need.clamp(self.cfg.min_ways, cur)
                }
                Behavior::Steady => cur,
                Behavior::Starved => cur.saturating_add(self.cfg.grow_step),
                // A streaming class is confined to (at most) the static
                // polluter share; growth cannot buy it reuse.
                Behavior::Polluting => cur.min(self.static_plan.get(Class::Polluting).way_count()),
            };
            targets.set(r.class, target);
        }

        let plan = derive_masks(&targets, self.cfg.ways, self.cfg.min_ways);
        if delta_ways(&plan, &self.current) < self.cfg.min_delta_ways {
            self.last_decision = "hold-threshold";
            return Decision::Hold(HoldReason::BelowThreshold);
        }

        self.current = plan;
        self.dwell_remaining = self.cfg.min_dwell_ticks;
        self.last_decision = "repartition";
        Decision::Repartition(plan)
    }

    /// Records that applying the last `Repartition` failed mid-way and
    /// returns the static plan the caller must publish instead. Counts
    /// as a revert and restarts the dwell window.
    pub fn note_apply_failed(&mut self) -> MaskPlan {
        let Decision::Revert { plan, .. } = self.revert(RevertReason::ApplyFailed, "revert-apply")
        else {
            unreachable!("revert() always returns Decision::Revert");
        };
        plan
    }

    fn revert(&mut self, reason: RevertReason, label: &'static str) -> Decision {
        self.current = self.static_plan;
        self.dwell_remaining = self.cfg.min_dwell_ticks;
        self.last_decision = label;
        Decision::Revert {
            reason,
            plan: self.static_plan,
        }
    }
}
