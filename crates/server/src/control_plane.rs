//! The control plane: every periodic duty of the server on one thread.
//!
//! `ccp serve` has four periodic jobs — sample occupancy, supervise
//! resctrl health, run the adaptive controller, record the flight
//! timeline. A [`ControlPlane`] owns the state of all four and runs them
//! on a single `ccp-plane` thread as one pass every
//! `ServerConfig::control_interval` (`--control-interval-ms`, default
//! 250 ms), always in this order:
//!
//! | step | present | what it does |
//! |---|---|---|
//! | sample | always | probes per-class occupancy into the `ccp_llc_occupancy_bytes` / `ccp_mbm_total_bytes` gauges and the readings the control step consumes |
//! | supervise | with a resctrl tree | flips degraded mode on a breaker trip, re-probes while degraded |
//! | control | `adaptive` | one [`Controller`] tick on the pass's readings; applies or reverts the live mask table |
//! | record | always | one flight-recorder snapshot of the registry |
//!
//! The order is what makes the hand-offs trivial: the control step reads
//! the sample taken earlier in the same pass, so a reading can only be
//! stale because the probe itself failed, never because another thread
//! was scheduled late; the record step sees every counter the earlier
//! steps moved. The price of one thread is that a step that blocks —
//! the supervised resctrl retry backoff can sleep up to ~150 ms — delays
//! the steps behind it. After a pass the thread waits one period; a late
//! pass stretches the gap, there are no catch-up bursts.
//!
//! The plane also holds the two duties towards the resctrl tree that are
//! not periodic: the [`Sweeper`]'s start-up sweep runs in
//! [`ControlPlane::new`], its shutdown sweep in
//! [`ControlPlane::shutdown_sweep`]. Those sweeps, the supervise step's
//! probe, a repartition's `prepare` and the monitor's reads all go
//! through the one [`ResctrlTree`] the engine's allocator hands out: the
//! controller the workers bind through, under the mutex they take.
//!
//! [`ControlPlane::step`] is one pass, so tests drive the plane pass by
//! pass with no thread.
//!
//! Nothing here copies a number: the supervisor's, the controller's and
//! the sweeper's instruments are attached to the registry where they are
//! bumped ([`ResctrlHealth::register_into`](ccp_resctrl::ResctrlHealth::register_into),
//! [`ResctrlMetrics::register_into`](ccp_resctrl::ResctrlMetrics::register_into),
//! [`SweepStats::register_into`](ccp_resctrl::SweepStats::register_into)),
//! and the control step's own `ccp_control_*` instruments live in the
//! [`PlaneView`] that `/stats` reads.

use crate::admission::AdmissionQueue;
use crate::metrics::ServerMetrics;
use crate::query::QueryEngine;
use crate::server::ServerConfig;
use ccp_control::{ControlConfig, Controller, Decision, MaskPlan, ScriptedTrace, TickInput};
use ccp_flight::{FlightHandle, FlightRecorder, RecorderConfig};
use ccp_obs::{Counter, Family, Gauge, Registry};
use ccp_resctrl::{
    ClassReading, OccupancyProbe, PerClass, ResctrlMonitor, ResctrlTree, SimulatedMonitor,
    SweepStats, Sweeper,
};
use ccp_trace::TraceCat;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Failpoint name: an adaptive repartition's apply step. Arming it
/// (e.g. `control.apply=err@1+1`) makes the control step treat the
/// repartition as failed, exercising the revert-to-static path.
pub(crate) const FAULT_CONTROL_APPLY: &str = "control.apply";

/// What `/stats` reads from the plane: the control step's and the
/// sweeper's live instruments plus the state that has no metric family.
#[derive(Debug, Clone)]
pub struct PlaneView {
    /// The adaptive controller; `None` in static mode.
    pub control: Option<ControlView>,
    /// The sweeper's `ccp_reconcile_*` instruments; `None` when the
    /// resctrl backend is unsupervised.
    pub sweep: Option<SweepStats>,
}

/// The adaptive controller as `/stats` and `/metrics` show it. The
/// control step is the only writer.
#[derive(Debug, Clone)]
pub struct ControlView {
    /// Whether the last tick was clamped to the static plan.
    pub clamped: bool,
    /// Short label of the last decision.
    pub last_decision: &'static str,
    /// `ccp_control_decisions_total`: ticks evaluated.
    pub decisions: Counter,
    /// `ccp_control_repartitions_total`: plans derived and applied.
    pub repartitions: Counter,
    /// `ccp_control_holds_total`: ticks that held the current plan.
    pub holds: Counter,
    /// `ccp_control_reverts_total`: falls back to the static plan.
    pub reverts: Counter,
    /// `ccp_control_mask_ways{class}`.
    pub mask_ways: PerClass<Gauge>,
}

impl ControlView {
    fn new(registry: &Registry, plan: &MaskPlan) -> Self {
        let ways = registry.gauge_family(
            "ccp_control_mask_ways",
            "LLC ways currently granted to each CUID class by the live mask table",
        );
        let view = ControlView {
            clamped: false,
            last_decision: "none",
            decisions: registry.counter(
                "ccp_control_decisions_total",
                "Adaptive control ticks evaluated",
            ),
            repartitions: registry.counter(
                "ccp_control_repartitions_total",
                "Adaptive mask plans derived and applied",
            ),
            holds: registry.counter(
                "ccp_control_holds_total",
                "Control ticks that held the current plan (dwell, threshold, clamp, no data)",
            ),
            reverts: registry.counter(
                "ccp_control_reverts_total",
                "Falls back to the static paper plan (degraded health, stale readings, or a \
                 failed apply)",
            ),
            mask_ways: PerClass::from_fn(|class| ways.get_or_create(&[("class", class.label())])),
        };
        view.set_mask_ways(plan);
        view
    }

    fn set_mask_ways(&self, plan: &MaskPlan) {
        for (class, gauge) in self.mask_ways.iter() {
            gauge.set(f64::from(plan.get(class).way_count()));
        }
    }
}

/// What the tasks act on besides their own state.
struct Env {
    engine: Arc<QueryEngine>,
    metrics: ServerMetrics,
    flight: FlightHandle,
    view: Arc<Mutex<PlaneView>>,
}

struct Sample {
    probe: Box<dyn OccupancyProbe>,
    occupancy: Family<Gauge>,
    mbm: Family<Gauge>,
}

/// The sample step's output, read by the control step of the same pass.
#[derive(Default)]
struct Readings {
    /// Successful probes so far; the controller's staleness signal.
    seq: u64,
    classes: Vec<ClassReading>,
}

struct Supervise {
    tree: ResctrlTree,
    degraded_seen: bool,
    trips_seen: u64,
}

struct Control {
    controller: Controller,
    last_emitted: &'static str,
    /// The step's instruments; republished to [`PlaneView`] every tick.
    view: ControlView,
}

/// The four periodic tasks and their state. See the module docs.
pub struct ControlPlane {
    /// The wait between two passes.
    period: Duration,
    env: Env,
    readings: Readings,
    sample: Sample,
    supervise: Option<Supervise>,
    control: Option<Control>,
    record: ccp_flight::Sampler,
    /// Present when the engine's allocator has a resctrl tree.
    sweeper: Option<Sweeper>,
}

impl ControlPlane {
    /// Builds the plane for `config` over `engine`, publishing into
    /// `registry`/`metrics`. `probe` is the sample step's occupancy
    /// source.
    ///
    /// When the engine's allocator has a resctrl tree this also attaches
    /// the tree's breaker and controller instruments to `registry` and
    /// runs the start-up sweep — synchronously, so a crashed predecessor's
    /// leftovers are gone by the time the first query binds.
    pub fn new(
        config: &ServerConfig,
        engine: Arc<QueryEngine>,
        registry: &Registry,
        metrics: ServerMetrics,
        probe: Box<dyn OccupancyProbe>,
    ) -> ControlPlane {
        let policy = engine.policy();
        let sample = Sample {
            probe,
            occupancy: registry.gauge_family(
                "ccp_llc_occupancy_bytes",
                "LLC bytes occupied per CUID class (CMT; simulated when hardware \
                 monitoring is unavailable)",
            ),
            mbm: registry.gauge_family(
                "ccp_mbm_total_bytes",
                "Cumulative memory-bandwidth bytes per CUID class (MBM; simulated \
                 when hardware monitoring is unavailable)",
            ),
        };
        let tree = engine.allocator().tree();
        let supervise = tree.clone().map(|tree| {
            let trips_seen = {
                let tree = tree.lock();
                tree.health().register_into(registry);
                tree.metrics().register_into(registry);
                tree.health().trips()
            };
            Supervise {
                trips_seen,
                tree,
                degraded_seen: false,
            }
        });
        let control = config.adaptive.then(|| {
            let cfg = ControlConfig::paper_default(policy.llc.ways, policy.llc.size_bytes);
            let controller = Controller::new(cfg, policy.static_plan());
            Control {
                view: ControlView::new(registry, controller.current_plan()),
                controller,
                last_emitted: "",
            }
        });
        let sweeper = tree.map(|tree| {
            let mut sweeper = Sweeper::new(tree);
            sweeper.stats().register_into(registry);
            if let Err(err) = sweeper.sweep() {
                eprintln!("ccp-serve: startup sweep failed (continuing): {err}");
            }
            sweeper
        });
        let view = PlaneView {
            control: control.as_ref().map(|task| task.view.clone()),
            sweep: sweeper.as_ref().map(Sweeper::stats),
        };
        // The recorder is built after every family above is registered,
        // so tick 1, taken here, is a baseline carrying the full set.
        // Events are stamped with the last completed tick and `/timeline`
        // serves `seq > since`: without the baseline the first pass's
        // events would sit at tick 0, below every cursor.
        let (flight, mut record) = FlightRecorder::manual(
            registry,
            RecorderConfig {
                interval: config.control_interval,
            },
        );
        record.tick();
        ControlPlane {
            period: config.control_interval,
            env: Env {
                engine,
                metrics,
                flight,
                view: Arc::new(Mutex::new(view)),
            },
            readings: Readings::default(),
            sample,
            supervise,
            control,
            record,
            sweeper,
        }
    }

    /// The flight recorder's emit/read handle.
    pub fn flight(&self) -> FlightHandle {
        self.env.flight.clone()
    }

    /// The `/stats` view the plane republishes after every pass.
    pub fn view(&self) -> Arc<Mutex<PlaneView>> {
        Arc::clone(&self.env.view)
    }

    /// Runs one pass: sample, supervise, control, record — each step
    /// that exists, in that order.
    pub fn step(&mut self) {
        take_sample(&mut self.sample, &mut self.readings);
        if let Some(task) = &mut self.supervise {
            run_supervise(&self.env, task);
        }
        if let Some(task) = &mut self.control {
            run_control(&self.env, task, &self.readings);
        }
        self.record.tick();
    }

    /// Starts the `ccp-plane` thread: `step`, wait one period or until a
    /// stop, repeat.
    ///
    /// # Errors
    /// Propagates thread-spawn failure.
    pub fn spawn(mut self) -> std::io::Result<PlaneHandle> {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("ccp-plane".to_string())
            .spawn(move || {
                let (lock, cv) = &*thread_stop;
                loop {
                    self.step();
                    let stopped = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    let (stopped, _) = cv
                        .wait_timeout_while(stopped, self.period, |stopped| !*stopped)
                        .unwrap_or_else(PoisonError::into_inner);
                    if *stopped {
                        break;
                    }
                }
                self.finish();
                self
            })?;
        Ok(PlaneHandle {
            stop,
            thread: Some(thread),
        })
    }

    /// What the thread does on its way out: the live mask table back on
    /// the static mapping, so the remaining drain runs the paper's
    /// well-understood configuration.
    fn finish(&mut self) {
        if self.control.is_some() {
            let engine = &self.env.engine;
            publish_fallback(engine, &engine.policy().static_plan());
        }
    }

    /// Removes every `ccp-` group from the resctrl tree. Call after the
    /// plane has stopped and admission has drained, when no query can
    /// mint or bind a group any more; the log line is what the smoke
    /// harness greps to prove zero groups leaked.
    pub(crate) fn shutdown_sweep(&mut self) {
        let Some(sweeper) = &mut self.sweeper else {
            return;
        };
        let (removed, remaining) = sweeper.shutdown_sweep();
        eprintln!(
            "ccp-serve: reconcile shutdown sweep: removed {removed} group(s), \
             {remaining} ccp- group(s) remain"
        );
    }
}

/// Stop handle of a running plane thread; dropping it stops the thread.
pub struct PlaneHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<ControlPlane>>,
}

impl PlaneHandle {
    /// Stops the thread promptly (no waiting out a period), joins it and
    /// hands the plane back for `ControlPlane::shutdown_sweep`. Later
    /// calls, and a thread that panicked, return `None`.
    pub fn stop(&mut self) -> Option<ControlPlane> {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cv.notify_all();
        self.thread.take()?.join().ok()
    }
}

impl Drop for PlaneHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sample step. A fired probe failpoint models a transient CMT read
/// error: nothing is published, gauges and readings keep their values
/// and `seq` does not advance.
fn take_sample(task: &mut Sample, readings: &mut Readings) {
    if ccp_fault::should_fail(ccp_resctrl::faults::SAMPLER_PROBE) {
        return;
    }
    let samples = task.probe.sample();
    for s in &samples {
        let labels = [("class", s.class.label())];
        task.occupancy
            .get_or_create(&labels)
            .set(s.occupancy_bytes as f64);
        task.mbm
            .get_or_create(&labels)
            .set(s.mbm_total_bytes as f64);
    }
    readings.seq += 1;
    readings.classes = samples;
}

/// Supervise step: compares the breaker state with what the engine runs
/// in. On a Partitioned→Degraded flip it stops the executor from binding
/// way masks ([`set_partitioning(false)`] — queries keep running under
/// the full cache), raises the `ccp_resctrl_degraded` gauge and drops a
/// `resctrl_degraded` trace instant; while degraded it re-probes the
/// backend and flips everything back the moment a probe's *real*
/// schemata write succeeds.
///
/// [`set_partitioning(false)`]: ccp_engine::DualPoolExecutor::set_partitioning
fn run_supervise(env: &Env, task: &mut Supervise) {
    loop {
        let (trips, degraded) = {
            let tree = task.tree.lock();
            (tree.health().trips(), tree.is_degraded())
        };
        if trips != task.trips_seen {
            env.flight.emit(
                "breaker_trip",
                format!("circuit breaker trips: {} -> {trips}", task.trips_seen),
            );
            task.trips_seen = trips;
        }
        if degraded != task.degraded_seen {
            task.degraded_seen = degraded;
            env.metrics.set_resctrl_degraded(degraded);
            // Partitioning is an optimization, never a gate: degraded
            // mode just runs every query under the full cache.
            env.engine.pools().set_partitioning(!degraded);
            if degraded {
                ccp_trace::instant(TraceCat::Bind, "resctrl_degraded");
                env.flight
                    .emit("degraded", "resctrl breaker open; partitioning off");
            } else {
                ccp_trace::instant(TraceCat::Bind, "resctrl_restored");
                env.flight
                    .emit("restored", "resctrl healed; partitioning back on");
            }
        }
        // Healed: go round again so the restore (gauge, trace, re-enabled
        // partitioning) lands in this pass.
        if !(degraded && task.tree.lock().probe()) {
            break;
        }
    }
}

/// Control step: feeds the latest readings (plus the breaker's degraded
/// flag) to the [`Controller`] and acts on the decision. A repartition is
/// applied to the resctrl backend first and published to the live mask
/// table only on success — workers observe it on their next bind; a
/// revert prepares and republishes the static plan.
fn run_control(env: &Env, task: &mut Control, readings: &Readings) {
    let tree = env.engine.allocator().tree();
    let degraded = tree.is_some_and(|tree| tree.lock().is_degraded());
    let decision = task.controller.tick(&TickInput {
        seq: readings.seq,
        readings: &readings.classes,
        degraded,
    });
    let view = &mut task.view;
    view.decisions.inc();
    match decision {
        Decision::Repartition(plan) => {
            view.repartitions.inc();
            if apply_plan(&env.engine, &plan).is_ok() {
                env.engine.live_masks().publish(&plan);
                ccp_trace::instant(TraceCat::Bind, "control_repartition");
                env.flight.emit("repartition", plan_detail(&plan));
            } else {
                let fallback = task.controller.note_apply_failed();
                view.reverts.inc();
                publish_fallback(&env.engine, &fallback);
                ccp_trace::instant(TraceCat::Bind, "control_revert");
                env.flight.emit(
                    "revert",
                    format!("apply failed; back to {}", plan_detail(&fallback)),
                );
            }
            task.last_emitted = "repartition";
        }
        Decision::Revert { plan, .. } => {
            view.reverts.inc();
            publish_fallback(&env.engine, &plan);
            ccp_trace::instant(TraceCat::Bind, "control_revert");
            env.flight.emit("revert", plan_detail(&plan));
            task.last_emitted = "revert";
        }
        Decision::Hold(_) => {
            view.holds.inc();
            // One event per run of holds, not one per tick: the
            // interesting moment is the *transition* to holding.
            if task.last_emitted != "hold" {
                env.flight.emit("hold", "controller holding current plan");
                task.last_emitted = "hold";
            }
        }
    }
    view.set_mask_ways(task.controller.current_plan());
    view.clamped = task.controller.is_clamped();
    view.last_decision = task.controller.last_decision();
    env.view
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .control = Some(view.clone());
}

/// Human-readable way-count summary of a mask plan, for event details.
fn plan_detail(plan: &MaskPlan) -> String {
    let ways: Vec<String> = plan
        .iter()
        .map(|(class, mask)| format!("{}={}", class.label(), mask.way_count()))
        .collect();
    format!("ways {}", ways.join(" "))
}

/// Applies a repartition to the resctrl backend — one
/// [`prepare`](ccp_engine::CacheAllocator::prepare): the groups of the
/// plan it replaces are retired, its own created — so the schemata writes
/// happen here, on the control path. A failure leaves the live table
/// untouched and turns into a revert, never a broken bind.
fn apply_plan(engine: &QueryEngine, plan: &MaskPlan) -> Result<(), ()> {
    if ccp_fault::should_fail(FAULT_CONTROL_APPLY) {
        return Err(());
    }
    engine.allocator().prepare(plan).map_err(|_| ())
}

/// Puts the plan the controller falls back to in force: prepared like any
/// other — what a failed apply left half-made is retired — but published
/// even when that fails. There is nothing further to fall back to, and a
/// bind into a group that could not be made fails and is counted.
fn publish_fallback(engine: &QueryEngine, plan: &MaskPlan) {
    let _ = engine.allocator().prepare(plan);
    engine.live_masks().publish(plan);
}

/// Builds the occupancy probe for the sample step.
///
/// `config.occupancy_script` replaces the probe with a deterministic
/// [`ScriptedTrace`]. Otherwise, with live CAT hardware the probe reads
/// real CMT counters from the mask groups of the allocator's tree (one
/// `ccp-<mask>` group per distinct way mask; each class is read from the
/// group of its mask in the *live* table, which is where its workers are
/// bound after an adaptive repartition). Everywhere else —
/// containers, CI, non-Intel hosts — a [`SimulatedMonitor`] stands in,
/// driven by how many queries of each class currently hold an admission
/// permit.
///
/// # Errors
/// `InvalidInput` for a malformed occupancy script.
pub(crate) fn occupancy_probe(
    config: &ServerConfig,
    engine: &QueryEngine,
    admission: &Arc<AdmissionQueue>,
) -> std::io::Result<Box<dyn OccupancyProbe>> {
    let policy = engine.policy();
    if let Some(spec) = &config.occupancy_script {
        let trace = ScriptedTrace::parse(spec, policy.llc.size_bytes)
            .map_err(|why| std::io::Error::new(std::io::ErrorKind::InvalidInput, why))?;
        return Ok(Box::new(trace));
    }
    if let Some(tree) = engine.allocator().tree().filter(|_| engine.cat_live()) {
        let live = engine.live_masks();
        let masks = Box::new(move || live.snapshot());
        return Ok(Box::new(ResctrlMonitor::new(tree, masks, 0)));
    }
    let ways = f64::from(policy.llc.ways);
    let llc_share = policy
        .static_plan()
        .map(|mask| f64::from(mask.way_count()) / ways);
    let admission = Arc::clone(admission);
    Ok(Box::new(SimulatedMonitor::new(
        policy.llc.size_bytes,
        llc_share,
        Box::new(move || admission.running_by_class().map(|&n| n as f64)),
    )))
}
