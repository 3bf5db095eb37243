//! Model-checks the tenant group lifecycle: the control plane minting
//! `ccp-<tenant>-<class>` groups from a finite CLOSID pool, a worker
//! whose failed bind can trip the degradation breaker at any point, a
//! tenant-churn actor flipping a tenant in and out of the desired set
//! mid-pass, and an admission-side reader binding throughout.
//!
//! The server runs supervision and reconciliation on one thread, in a
//! fixed order, so they are one actor here: each plane pass is the
//! supervise step (the only place a tripped breaker heals) followed by
//! the sweep and the per-tenant reconcile steps. What other threads do —
//! trip the breaker from a bind, churn the desired set, read the table —
//! stays concurrent. Under *every* interleaving:
//!
//! * no group is ever leaked (every table entry maps to a desired
//!   tenant group after quiescence, orphans are swept),
//! * no CLOSID is ever double-freed or aliased by two groups,
//! * no tenant is ever stranded — after a quiescent pass each desired
//!   group is either Satisfied (dedicated CLOSID) or Fallback (shared
//!   class mask); exhaustion degrades, it never abandons.

use ccp_resctrl::TenantId;
use ccp_verify::{explore, Access, Actor, Mode};
use std::time::Instant;

/// CLOSIDs usable for tenant groups (the real fake tree keeps one for
/// the default group; the model pool is already net of that).
const POOL: usize = 2;

#[derive(Clone, Debug)]
struct TenantModel {
    /// CLOSID pool: `true` = allocated.
    closids: [bool; POOL],
    /// Group table: (group name, closid it owns).
    groups: Vec<(String, usize)>,
    /// Desired tenant groups (reconciler input, churned concurrently).
    desired: Vec<String>,
    /// Groups accounted as degraded onto the shared class mask.
    fallback: Vec<String>,
    /// Resctrl breaker: the reconcile steps stand down while set.
    degraded: bool,
    /// First double-free observed, if any (the invariant killer).
    double_free: Option<String>,
}

impl TenantModel {
    fn alloc(&mut self) -> Option<usize> {
        let free = self.closids.iter().position(|&used| !used)?;
        self.closids[free] = true;
        Some(free)
    }

    fn release(&mut self, closid: usize, group: &str) {
        if !self.closids[closid] {
            self.double_free
                .get_or_insert_with(|| format!("CLOSID {closid} freed twice (last by {group})"));
            return;
        }
        self.closids[closid] = false;
    }

    /// The plane's supervise step: a re-probe heals a tripped breaker
    /// (when the scenario lets the backend recover).
    fn supervise(&mut self, heal: bool) {
        if heal {
            self.degraded = false;
        }
    }

    /// One sweep step: drop every group no longer desired, returning
    /// its CLOSID to the pool. Mirrors `Reconciler`'s orphan pass.
    fn sweep(&mut self) {
        if self.degraded {
            return;
        }
        // A departed tenant's fallback accounting goes with its groups
        // (the real reconciler rebuilds its state map from `desired`).
        let desired = self.desired.clone();
        self.fallback.retain(|f| desired.contains(f));
        let mut kept = Vec::new();
        for (name, closid) in std::mem::take(&mut self.groups) {
            if self.desired.contains(&name) {
                kept.push((name, closid));
            } else {
                self.release(closid, &name);
                self.fallback.retain(|f| f != &name);
            }
        }
        self.groups = kept;
    }

    /// One reconcile step for `name`: satisfy it from the pool, or
    /// account it as fallback when the pool is exhausted — never drop
    /// it on the floor. Mirrors `Reconciler::reconcile` per group.
    fn reconcile_one(&mut self, name: &str) {
        if self.degraded || !self.desired.iter().any(|d| d == name) {
            return;
        }
        if self.groups.iter().any(|(g, _)| g == name) {
            self.fallback.retain(|f| f != name);
            return;
        }
        match self.alloc() {
            Some(closid) => {
                self.groups.push((name.to_string(), closid));
                self.fallback.retain(|f| f != name);
            }
            None => {
                if !self.fallback.iter().any(|f| f == name) {
                    self.fallback.push(name.to_string());
                }
            }
        }
    }

    /// Structural consistency that must hold at *every* step, not just
    /// at quiescence: the CLOSID ledger and the group table agree.
    fn check_ledger(&self) -> Result<(), String> {
        if let Some(df) = &self.double_free {
            return Err(df.clone());
        }
        for (i, (name, closid)) in self.groups.iter().enumerate() {
            if !self.closids[*closid] {
                return Err(format!("{name} owns CLOSID {closid} marked free"));
            }
            if self.groups[i + 1..].iter().any(|(_, c)| c == closid) {
                return Err(format!("CLOSID {closid} aliased by two groups"));
            }
            if self.fallback.contains(name) {
                return Err(format!("{name} is both satisfied and fallback"));
            }
        }
        Ok(())
    }
}

fn group(tenant: &str) -> String {
    TenantId::parse(tenant)
        .expect("model tenants are valid ids")
        .group_name(ccp_resctrl::Class::Polluting)
}

/// Builds the model: the plane runs two full passes (supervise, sweep,
/// per-tenant reconcile), a worker's failed bind trips the breaker, the
/// churn actor removes tenant `b` from the desired set and (optionally)
/// re-adds it, and the reader checks the ledger from the bind path.
fn build(
    trip: bool,
    heal: bool,
    readd: bool,
) -> impl Fn() -> (TenantModel, Vec<Actor<TenantModel>>) {
    move || {
        let (a, b) = (group("acme"), group("blue"));
        let orphan = group("stale");
        let mut state = TenantModel {
            closids: [false; POOL],
            groups: Vec::new(),
            desired: vec![a.clone(), b.clone()],
            fallback: Vec::new(),
            degraded: false,
            double_free: None,
        };
        // A leftover group from a crashed predecessor holds a CLOSID at
        // boot — the sweep must reclaim it before the pool can satisfy
        // both live tenants.
        let stale_closid = state.alloc().expect("empty pool at boot");
        state.groups.push((orphan, stale_closid));

        let mut plane = Actor::new("plane");
        for _pass in 0..2 {
            plane = plane.then_accessing(
                move |s: &mut TenantModel| s.supervise(heal),
                &[Access::Write("breaker")],
            );
            plane = plane.then_accessing(
                TenantModel::sweep,
                &[
                    Access::Read("breaker"),
                    Access::Read("desired"),
                    Access::Write("table"),
                ],
            );
            for name in [a.clone(), b.clone()] {
                plane = plane.then_accessing(
                    move |s: &mut TenantModel| s.reconcile_one(&name),
                    &[
                        Access::Read("breaker"),
                        Access::Read("desired"),
                        Access::Write("table"),
                    ],
                );
            }
        }

        let worker = Actor::new("worker").then_accessing(
            move |s: &mut TenantModel| {
                if trip {
                    s.degraded = true;
                }
            },
            &[Access::Write("breaker")],
        );

        let churn_b = b.clone();
        let readd_b = b.clone();
        let churn = Actor::new("churn")
            .then_accessing(
                move |s: &mut TenantModel| s.desired.retain(|d| d != &churn_b),
                &[Access::Write("desired")],
            )
            .then_accessing(
                move |s: &mut TenantModel| {
                    if readd && !s.desired.contains(&readd_b) {
                        s.desired.push(readd_b.clone());
                    }
                },
                &[Access::Write("desired")],
            );

        let reader = Actor::new("reader").then_accessing(
            |s: &mut TenantModel| {
                if let Err(e) = s.check_ledger() {
                    panic!("bind-path read saw a torn ledger: {e}");
                }
            },
            &[Access::Read("table")],
        );

        (state, vec![plane, worker, churn, reader])
    }
}

fn check_step(s: &TenantModel) -> Result<(), String> {
    s.check_ledger()
}

/// Quiescent convergence: the plane's *next* pass after all actors
/// stop (the loop never exits in the real system). After it, every
/// desired group is satisfied or fallback, nothing undesired survives,
/// and with the breaker clear the pool is large enough that fallback
/// only appears while a stale CLOSID is still reclaimable — which the
/// pass just did, so fallback must be empty.
fn check_final(s: &mut TenantModel, heal: bool) -> Result<(), String> {
    let desired = s.desired.clone();
    s.supervise(heal);
    if !s.degraded {
        s.sweep();
        for name in desired.clone() {
            s.reconcile_one(&name);
        }
    }
    s.check_ledger()?;
    if s.degraded {
        // Static shared masks cover every tenant while degraded; only
        // the ledger has to stay sound.
        return Ok(());
    }
    for name in &desired {
        let satisfied = s.groups.iter().any(|(g, _)| g == name);
        let fallback = s.fallback.contains(name);
        if !satisfied && !fallback {
            return Err(format!("{name} stranded: neither satisfied nor fallback"));
        }
    }
    for (name, _) in &s.groups {
        if !desired.contains(name) {
            return Err(format!("leaked group {name} survived the sweep"));
        }
    }
    // Two desired groups, two CLOSIDs, orphan reclaimed: fallback means
    // the reconciler failed to use capacity it provably had.
    if !s.fallback.is_empty() {
        return Err(format!("fallback with free capacity: {:?}", s.fallback));
    }
    Ok(())
}

fn explore_case(trip: bool, heal: bool, readd: bool) -> ccp_verify::Report {
    let report = explore(
        Mode::Dpor {
            max_schedules: 500_000,
        },
        build(trip, heal, readd),
        check_step,
        |s| check_final(s, heal),
    )
    .unwrap_or_else(|v| panic!("trip={trip} heal={heal} readd={readd}: {v}"));
    assert!(report.exhausted, "interleaving space not fully covered");
    report
}

#[test]
fn reconciler_churn_and_reader_never_tear_the_ledger() {
    let start = Instant::now();
    let report = explore_case(false, false, true);
    // 8 plane + 1 worker + 2 churn + 1 reader steps: the multinomial
    // space is 5 940 (13 860 while supervision was an actor of its own);
    // DPOR must still buy a real reduction.
    assert!(
        report.interleavings > 1_000,
        "space too small to be meaningful: {}",
        report.interleavings
    );
    assert!(
        report.reduction_ratio() >= 2.0,
        "DPOR reduction collapsed: {:.1}x over {} interleavings",
        report.reduction_ratio(),
        report.interleavings
    );
    ccp_verify::emit_stats("tenant_lifecycle/churn", "dpor", &report, start.elapsed());
}

#[test]
fn breaker_trip_at_any_point_leaves_no_tenant_stranded() {
    let start = Instant::now();
    let report = explore_case(true, false, false);
    ccp_verify::emit_stats(
        "tenant_lifecycle/degraded",
        "dpor",
        &report,
        start.elapsed(),
    );
}

#[test]
fn trip_then_heal_converges_with_orphans_reclaimed() {
    let start = Instant::now();
    let report = explore_case(true, true, true);
    ccp_verify::emit_stats("tenant_lifecycle/heal", "dpor", &report, start.elapsed());
}

#[test]
fn tenant_removal_without_return_frees_its_closid() {
    let report = explore_case(false, false, false);
    assert!(report.traces_explored >= 1);
}
