//! # ccp-verify — deterministic interleaving checking
//!
//! The reproduction leans on hand-rolled concurrent code in exactly the
//! places the paper's claims depend on: the observability layer's
//! lock-free histograms (`ccp-obs`), the scheduler-gated admission queue,
//! the dual-pool executor, the reuse cache's single-flight and the
//! resctrl group lifecycle (`ccp-server`/`ccp-engine`/`ccp-reuse`/
//! `ccp-resctrl`). An ordering bug in any of them does not crash — it
//! silently corrupts the numbers the experiments report. This crate is
//! the checking machinery: a small, std-only, loom-style **interleaving
//! explorer** plus model-check harnesses (in `tests/`) that drive the
//! real data structures through every (bounded) interleaving of their
//! operations and assert linearizability-ish invariants, for example:
//!
//! * **monotone, exact histograms** — a scrape racing the recorders
//!   never sees totals regress or exceed what was recorded, and the
//!   final counts and sum are exact;
//! * **conserved queue tickets** — every admission attempt consumes
//!   exactly one ticket, granted tickets are unique and monotone, and
//!   the queue drains to empty once all permits drop.
//!
//! `tests/differential.rs` keeps, as models, the two bugs the harnesses
//! caught in the tracer's former seqlock span ring (now one mutex per
//! ring, checked by `ccp-trace`'s own thread tests), and holds DPOR to
//! finding them as surely as exhaustive search does.
//!
//! ## How it works
//!
//! There is no way to preempt real threads between two machine
//! instructions from safe std-only code, so the explorer controls
//! interleavings at **operation granularity**: a test case is a set of
//! [`Actor`]s, each a fixed sequence of steps (closures over shared
//! state `S`), and the [`explore`] driver runs one step at a time,
//! choosing which actor advances next. Choices come from either
//!
//! * [`Mode::Exhaustive`] — a depth-first enumeration of every schedule
//!   (bounded by `max_schedules`),
//! * [`Mode::Random`] — seeded pseudo-random schedules (SplitMix64), for
//!   state spaces too large to exhaust, or
//! * [`Mode::Dpor`] — dynamic partial-order reduction (sleep sets +
//!   Flanagan–Godefroid backtrack sets over the dependency relation
//!   declared by [`Actor::then_accessing`] access annotations): visits
//!   at least one representative schedule per Mazurkiewicz trace
//!   instead of every interleaving, and reports how much it pruned
//!   ([`Report::reduction_ratio`]).
//!
//! Every run is **deterministic and replayable**: a failing schedule is
//! reported as the exact sequence of actor indices that produced it, and
//! [`replay`] re-executes that sequence for debugging. This is the same
//! discipline loom applies to memory orderings, scaled down to the
//! operation interleavings our invariants actually depend on — which is
//! precisely the granularity at which the PR-3 `/trace?clear=1`
//! snapshot-vs-clear race lived (see `tests/differential.rs`, which
//! re-finds that bug shape in a model of a two-step snapshot-then-clear).
//!
//! ## Example
//!
//! The classic lost update: two actors read-modify-write a plain
//! counter in two separate steps. The explorer finds the interleaving
//! where one update disappears.
//!
//! ```
//! use ccp_verify::{explore, Actor, Mode};
//!
//! struct S {
//!     val: u64,
//!     tmp: [u64; 2],
//! }
//!
//! let build = || {
//!     let state = S { val: 0, tmp: [0, 0] };
//!     let actors = (0..2)
//!         .map(|i| {
//!             Actor::new(format!("inc-{i}"))
//!                 .then(move |s: &mut S| s.tmp[i] = s.val)
//!                 .then(move |s: &mut S| s.val = s.tmp[i] + 1)
//!         })
//!         .collect();
//!     (state, actors)
//! };
//! let outcome = explore(
//!     Mode::Exhaustive { max_schedules: 1_000 },
//!     build,
//!     |_| Ok(()),
//!     |s| {
//!         if s.val == 2 {
//!             Ok(())
//!         } else {
//!             Err(format!("lost update: val={}", s.val))
//!         }
//!     },
//! );
//! let violation = outcome.expect_err("explorer must find the lost update");
//! assert!(violation.message.contains("lost update"));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod dpor;
mod explore;
mod rng;
mod stats;

pub use explore::{explore, replay, Access, Actor, Mode, Report, Violation};
pub use rng::SplitMix64;
pub use stats::{budget, deep, emit_stats};
