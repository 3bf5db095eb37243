//! The `reuse.lookup` / `reuse.install` failpoints.
//!
//! Fault plans are process-global and every cache unit test passes
//! through both sites, so the tests that arm them live here, in a
//! process of their own, and take turns ([`ccp_fault::exclusive`]).

use ccp_reuse::{Artifact, Begin, ResultSet, ReuseCache, ReuseConfig};
use std::sync::Arc;
use std::time::Duration;

fn cache(budget: u64) -> ReuseCache {
    ReuseCache::new(ReuseConfig::with_budget(budget))
}

fn result_artifact(rows: u64, result: i64) -> Artifact {
    Artifact::ResultSet(Arc::new(ResultSet { rows, result }))
}

#[test]
fn lookup_failpoint_forces_the_vanished_entry_path() {
    let _turn = ccp_fault::exclusive();
    let c = cache(1 << 16);
    let key = c.key("q1", "t<9");
    if let Begin::Build(g) = c.begin(&key) {
        g.publish(result_artifact(3, 3), Duration::from_micros(10));
    }
    ccp_fault::install_str("reuse.lookup=err@1").expect("plan parses");
    // The armed lookup treats the entry as vanished: a miss, and
    // the entry is gone afterwards (as if evicted mid-flight).
    assert!(matches!(c.begin(&key), Begin::Build(_)));
    ccp_fault::clear();
    assert_eq!(c.stats().entries, 0);
    assert_eq!(c.bytes(), 0);
}

#[test]
fn install_failpoint_drops_the_artifact() {
    let _turn = ccp_fault::exclusive();
    let c = cache(1 << 16);
    ccp_fault::install_str("reuse.install=err@1").expect("plan parses");
    let key = c.key("q1", "t<9");
    if let Begin::Build(g) = c.begin(&key) {
        assert!(!g.publish(result_artifact(3, 3), Duration::from_micros(10)));
    }
    ccp_fault::clear();
    assert_eq!(c.stats().inserts, 0);
    assert!(matches!(c.begin(&key), Begin::Build(_)), "still a miss");
}
