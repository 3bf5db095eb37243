//! LFOC-style per-class behavior classification.
//!
//! Two signals per class, both cheap ratios against the class's current
//! *allocation* (its way share of the LLC in bytes):
//!
//! * **occupancy ratio** — `llc_occupancy / allocation`. Near 1.0 the
//!   class fills everything it was given (it wants more); well below
//!   1.0 its working set already fits in less.
//! * **traffic ratio** — the MBM slope (bytes moved since the previous
//!   reading) over the allocation. A class streaming multiples of its
//!   allocation per tick gets no reuse out of more cache — giving it
//!   more ways only lets it pollute faster.
//!
//! The decision table (thresholds from [`Thresholds`]):
//!
//! | behavior   | condition                                  | target ways      |
//! |------------|--------------------------------------------|------------------|
//! | Idle       | occ ratio and traffic ratio both ≈ 0       | shrink to min    |
//! | Polluting  | traffic ratio > `pollute_traffic`          | hold / confine   |
//! | Starved    | occ ratio ≥ `starve`                       | grow             |
//! | Fits       | occ ratio ≤ `fit`                          | shrink to fit    |
//! | Steady     | otherwise                                  | hold             |
//!
//! Polluting is checked before Starved on purpose: a streaming class
//! also fills its allocation, and growth is exactly the wrong response.

/// Classification thresholds. Defaults follow LFOC's spirit: generous
/// hysteresis band between "fits" and "starved" so borderline classes
/// read as Steady and never oscillate.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Occupancy ratio at or below which a class "fits" in less cache.
    pub fit: f64,
    /// Occupancy ratio at or above which a class is starved.
    pub starve: f64,
    /// Occupancy ratio below which (with no traffic) a class is idle.
    pub idle: f64,
    /// Traffic ratio (bytes/tick over allocation) above which a class
    /// behaves as a polluter regardless of occupancy.
    pub pollute_traffic: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            fit: 0.5,
            starve: 0.85,
            idle: 0.02,
            pollute_traffic: 2.0,
        }
    }
}

/// A class's observed behavior over the last control tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Behavior {
    /// No occupancy, no traffic: nothing running in this class.
    Idle,
    /// Working set already fits well inside the allocation.
    Fits,
    /// Neither clearly fitting nor starved — leave it alone.
    Steady,
    /// Allocation is full; the class would use more cache.
    Starved,
    /// Streaming traffic without reuse; more cache cannot help.
    Polluting,
}

/// Classifies one class from its occupancy, MBM slope (bytes moved this
/// tick; `None` when no previous reading exists) and current allocation
/// in bytes. A zero allocation is degenerate and reads as Steady.
pub(crate) fn classify(
    occupancy_bytes: u64,
    traffic_bytes_per_tick: Option<u64>,
    allocation_bytes: u64,
    th: &Thresholds,
) -> Behavior {
    if allocation_bytes == 0 {
        return Behavior::Steady;
    }
    let occ_ratio = occupancy_bytes as f64 / allocation_bytes as f64;
    let traffic_ratio = traffic_bytes_per_tick.map(|t| t as f64 / allocation_bytes as f64);
    if occ_ratio < th.idle && traffic_ratio.is_some_and(|t| t < th.idle) {
        return Behavior::Idle;
    }
    if traffic_ratio.is_some_and(|t| t > th.pollute_traffic) {
        return Behavior::Polluting;
    }
    if occ_ratio >= th.starve {
        return Behavior::Starved;
    }
    // Without a slope yet (first reading) we only shrink on clear
    // evidence; a class can still be declared Starved above because
    // occupancy alone proves that.
    if occ_ratio <= th.fit && traffic_ratio.is_some() {
        return Behavior::Fits;
    }
    Behavior::Steady
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn follows_the_decision_table() {
        let th = Thresholds::default();
        let alloc = 10 * MB;
        assert_eq!(classify(0, Some(0), alloc, &th), Behavior::Idle);
        assert_eq!(classify(2 * MB, Some(2 * MB), alloc, &th), Behavior::Fits);
        assert_eq!(classify(7 * MB, Some(2 * MB), alloc, &th), Behavior::Steady);
        assert_eq!(
            classify(9 * MB, Some(2 * MB), alloc, &th),
            Behavior::Starved
        );
        // Streaming 3x the allocation per tick: polluter, even though the
        // allocation is also full.
        assert_eq!(
            classify(10 * MB, Some(30 * MB), alloc, &th),
            Behavior::Polluting
        );
    }

    #[test]
    fn first_reading_never_shrinks_but_can_grow() {
        let th = Thresholds::default();
        let alloc = 10 * MB;
        // Small occupancy, no slope yet: hold, don't shrink.
        assert_eq!(classify(MB, None, alloc, &th), Behavior::Steady);
        // Full occupancy proves starvation without a slope.
        assert_eq!(classify(10 * MB, None, alloc, &th), Behavior::Starved);
    }

    #[test]
    fn zero_allocation_is_steady() {
        assert_eq!(
            classify(MB, Some(MB), 0, &Thresholds::default()),
            Behavior::Steady
        );
    }
}
