//! Model checks for the background-thread lifecycles: the
//! [`ccp_server::ControlPlane`] spawn/sample/stop path and
//! [`ccp_server::Server`] shutdown.
//!
//! Both run real background threads, so the explorer interleaves the
//! *control* operations — waiting for samples, stopping, double-stopping,
//! dropping, publishing, scraping — and the invariants say the
//! lifecycles are order-independent: stop is idempotent, a joined
//! plane's last publish is never lost (the gauge equals the final probe
//! reading), nothing runs after the join, and a server going down can
//! neither lose a registry publish nor serve a torn scrape.

use ccp_obs::{Counter, Registry};
use ccp_resctrl::{Class, ClassReading, OccupancyProbe};
use ccp_server::{
    fetch, ControlPlane, PlaneHandle, QueryEngine, Server, ServerConfig, ServerMetrics,
};
use ccp_verify::{explore, Actor, Mode};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic probe: the k-th sample reports `k * 100` occupancy
/// bytes, so the published gauge encodes exactly which sample it came
/// from.
struct CountingProbe {
    n: Arc<AtomicU64>,
}

impl OccupancyProbe for CountingProbe {
    fn sample(&mut self) -> Vec<ClassReading> {
        let k = self.n.fetch_add(1, Ordering::SeqCst) + 1;
        vec![ClassReading {
            class: Class::Polluting,
            occupancy_bytes: k * 100,
            mbm_total_bytes: k,
        }]
    }
}

struct PlaneModel {
    registry: Registry,
    plane: Option<PlaneHandle>,
    samples: Arc<AtomicU64>,
}

#[test]
fn plane_stop_is_idempotent_and_never_loses_the_final_publish() {
    let build = || {
        let registry = Registry::new();
        let samples = Arc::new(AtomicU64::new(0));
        // A plane that samples and records: static mode has no control
        // step, and a noop allocator has nothing to supervise or sweep.
        let config = ServerConfig {
            control_interval: Duration::from_millis(1),
            ..ServerConfig::default()
        };
        let engine = Arc::new(QueryEngine::with_allocator(
            1,
            1,
            64,
            Arc::new(ccp_engine::NoopAllocator),
            false,
        ));
        let plane = ControlPlane::new(
            &config,
            engine,
            &registry,
            ServerMetrics::new(&registry),
            Box::new(CountingProbe {
                n: Arc::clone(&samples),
            }),
        )
        .spawn()
        .expect("plane thread");
        let state = PlaneModel {
            registry,
            plane: Some(plane),
            samples,
        };
        // The plane thread steps once before its first stop check, so
        // a waiter for >= 1 sample terminates under every interleaving,
        // even "stop immediately".
        // UNANNOTATED: steps drive a real background thread; their
        // effects are not captured by a declarable read/write set, so
        // every step must stay mutually dependent (exhaustive mode).
        let waiter = Actor::new("waiter").then(|s: &mut PlaneModel| {
            while s.samples.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        // Two stop calls on the same handle: the first hands the plane
        // back, the second must be a no-op.
        let stop_step = |s: &mut PlaneModel| {
            if let Some(plane) = s.plane.as_mut() {
                plane.stop();
            }
        };
        // UNANNOTATED: stop/drop join a real thread — not modelable.
        let stopper = Actor::new("stopper").then(stop_step).then(stop_step);
        // Dropping is the third way down (Drop also stops).
        // UNANNOTATED: see above — real thread join.
        let dropper = Actor::new("dropper").then(|s: &mut PlaneModel| {
            s.plane.take();
        });
        (state, vec![waiter, stopper, dropper])
    };
    let check_final = |s: &mut PlaneModel| {
        if s.plane.is_some() {
            return Err("dropper ran, yet the plane handle survived".to_string());
        }
        let n = s.samples.load(Ordering::SeqCst);
        if n == 0 {
            return Err("plane thread never sampled before stopping".to_string());
        }
        // The thread is joined: nothing may run any more.
        std::thread::sleep(Duration::from_millis(5));
        let after = s.samples.load(Ordering::SeqCst);
        if after != n {
            return Err(format!("sampling continued after stop: {n} -> {after}"));
        }
        // The final publish was not lost: the gauge holds exactly the
        // last probe reading (the sample step publishes before the
        // loop's stop check, and stop joins).
        let gauge = s
            .registry
            .gauge_family("ccp_llc_occupancy_bytes", "")
            .get_or_create(&[("class", "polluting")])
            .get();
        if gauge != (n * 100) as f64 {
            return Err(format!(
                "gauge {gauge} does not match the last sample ({} expected from {n} samples)",
                n * 100
            ));
        }
        Ok(())
    };
    let report = explore(
        Mode::Exhaustive {
            max_schedules: 1_000,
        },
        build,
        |_| Ok(()),
        check_final,
    )
    .expect("plane lifecycle must be order-independent");
    assert!(report.exhausted);
    // waiter(1) + stopper(2) + dropper(1): 4!/(1!·2!·1!) = 12 orders.
    assert_eq!(report.schedules, 12);
}

struct ScrapeModel {
    registry: Registry,
    hits: Counter,
    server: Option<Server>,
    addr: SocketAddr,
    scraped: Option<String>,
}

#[test]
fn scrape_server_shutdown_loses_no_publish_and_tolerates_double_stop() {
    let build = || {
        // The smallest server there is: 64 rows, its plane sampling and
        // recording every 250 ms — the accept loop and the shutdown path
        // are the model.
        let server = Server::start(ServerConfig {
            olap_workers: 1,
            dataset_rows: 64,
            ..ServerConfig::default()
        })
        .expect("server");
        let registry = server.registry();
        let hits = registry
            .counter_family("model_final_publish_total", "model publishes")
            .get_or_create(&[]);
        let addr = server.addr();
        let state = ScrapeModel {
            registry,
            hits,
            server: Some(server),
            addr,
            scraped: None,
        };
        // Publishes racing the shutdown: the registry outlives the
        // server, so none may be lost whichever side wins.
        let publish = |s: &mut ScrapeModel| {
            s.hits.inc();
        };
        // UNANNOTATED: these steps race a live TCP server thread; their
        // interactions are not a declarable read/write set, so the
        // harness stays exhaustive with default conflicts-with-all.
        let publisher = Actor::new("publisher").then(publish).then(publish);
        // UNANNOTATED: see above — live server thread.
        let scraper = Actor::new("scraper").then(|s: &mut ScrapeModel| {
            // Succeeds before shutdown, fails cleanly after — both fine;
            // a *torn* success is the bug this hunts.
            if let Ok(resp) = fetch(s.addr, "GET", "/metrics", None) {
                s.scraped = Some(resp.body);
            }
        });
        let stop_step = |s: &mut ScrapeModel| {
            if let Some(server) = s.server.as_mut() {
                server.shutdown();
            }
        };
        // UNANNOTATED: see above — live server thread.
        let stopper = Actor::new("stopper").then(stop_step).then(stop_step);
        (state, vec![publisher, scraper, stopper])
    };
    let check_final = |s: &mut ScrapeModel| {
        // Third shutdown via Drop.
        s.server.take();
        if s.hits.get() != 2 {
            return Err(format!("{} of 2 publishes survived", s.hits.get()));
        }
        let rendered = s.registry.render_prometheus();
        if !rendered.contains("model_final_publish_total 2") {
            return Err(format!(
                "final publish missing from the registry render: {rendered:?}"
            ));
        }
        if let Some(body) = &s.scraped {
            if !body.contains("model_final_publish_total") {
                return Err(format!("successful scrape was torn: {body:?}"));
            }
        }
        Ok(())
    };
    let report = explore(
        Mode::Exhaustive {
            max_schedules: 1_000,
        },
        build,
        |_| Ok(()),
        check_final,
    )
    .expect("server shutdown must be order-independent");
    assert!(report.exhausted);
    // publisher(2) + scraper(1) + stopper(2): 5!/(2!·1!·2!) = 30 orders.
    assert_eq!(report.schedules, 30);
}
