//! Where the BDD's bytes go and how long a collection paused, read from
//! outside through `GET /metrics` — the gauges a `yardstick serve` under
//! `--gc-watermark` publishes.
//!
//! netobs is process-global (enabling it resets the registry), so this
//! file is its own test binary and holds the only test that enables it.

use netbdd::Bdd;
use netmodel::topology::DeviceId;
use netmodel::{header, Location};
use netobs::json::{self, Json};
use topogen::{fattree, FatTreeParams};
use yardstick::daemon::{handle, Request};
use yardstick::{CoverageEngine, CoverageTrace};

fn gauge(metrics: &Json, name: &str) -> f64 {
    metrics
        .get("gauges")
        .and_then(|g| g.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("/metrics has no gauge {name}"))
}

#[test]
fn metrics_report_bdd_bytes_and_gc_pauses() {
    netobs::enable();
    let mut engine = CoverageEngine::new(fattree(FatTreeParams::paper(4)).net, 1);
    let mut bdd = Bdd::new();
    let mut trace = CoverageTrace::new();
    for d in 0..4 {
        let set = header::dst_in(&mut bdd, &format!("10.{d}.0.0/16").parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(DeviceId(d)), set);
    }
    let trace = trace.export(&bdd);
    for round in 0..2 {
        engine.add_test("churn", &trace).unwrap();
        engine.remove_test("churn").unwrap();
        assert!(
            engine.gc().reclaimed() > 0,
            "round {round} stranded no garbage"
        );
    }

    let resp = handle(&mut engine, &Request::new("GET", "/metrics", ""));
    assert_eq!(resp.status, 200, "{}", resp.body);
    let metrics = json::parse(&resp.body).unwrap();
    let stats = engine.analyzer().1.stats();
    for (name, bytes) in [
        ("bdd.bytes.arena", stats.arena_bytes),
        ("bdd.bytes.unique", stats.unique_bytes),
        ("bdd.bytes.ite_cache", stats.ite_cache_bytes),
        ("bdd.bytes.prob_memo", stats.prob_memo_bytes),
    ] {
        assert_eq!(gauge(&metrics, name), bytes as f64, "{name}");
    }
    assert!(stats.arena_bytes >= 12 * stats.nodes);
    // An index-only unique table: 4 bytes per slot at load ≤ ½, so at
    // least 8 bytes per decision node — and never a second node copy.
    assert!(stats.unique_bytes >= 8 * (stats.nodes - 1));
    assert!(stats.unique_bytes.is_power_of_two());

    assert_eq!(gauge(&metrics, "bdd.gc.collections"), 2.0);
    let (pause, max) = (
        gauge(&metrics, "bdd.gc.pause_us"),
        gauge(&metrics, "bdd.gc.pause_us_max"),
    );
    assert!(
        pause > 0.0 && max >= pause,
        "pause {pause} µs, max {max} µs"
    );
    netobs::disable();
}
