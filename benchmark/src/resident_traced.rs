//! The traced runs of the resident workloads: the boot's layers read
//! off the span tree, the loops once more with collection on, and the
//! same seeded operations replayed below the daemon — through the
//! engine's public methods, a bare `RoutingEngine`, the shard refreshes
//! alone — so each layer's share of a request is a number.

use std::time::Instant;

use netbdd::Bdd;
use netmodel::MatchSets;
use topogen::{fattree_builder, FatTreeParams};
use yardstick::{CoverageEngine, CoverageTrace, CoveredSets};

use crate::ops::{self, Round};
use crate::out::{Checks, Metrics};
use crate::resident::{
    boot, boot_fresh, check_back_at_boot, Booted, ChurnRun, Latencies, ReadRun, ResidentPlan,
    CYCLED_TEST,
};
use crate::stats::median;

/// Median of the microsecond readings `f` takes over `n` calls.
fn median_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut lat = Latencies::new();
    for i in 0..n {
        let t = Instant::now();
        f(i);
        lat.push(t.elapsed().as_nanos());
    }
    lat.median_us()
}

/// Boot once with collection on and read the set-up's layers off the
/// span tree. Returns the booted engine, the metrics, and the report
/// (which becomes the trace file).
fn traced_boot(
    plan: &ResidentPlan,
    seed: u64,
    gc_watermark: Option<usize>,
    checks: &mut Checks,
) -> Result<(Booted, Metrics, netobs::Report), String> {
    netobs::enable();
    let booted = boot(plan.k, seed, gc_watermark, checks);
    let report = crate::batch::drain_report()?;
    let root = report
        .thread("main")
        .ok_or("traced boot recorded no spans")?;
    let setup = root
        .child("setup")
        .ok_or("traced boot recorded no set-up span")?;
    let secs = |name: &str| crate::batch::span_secs(setup, name);
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("topogen.build_s", secs("topogen.build"));
    put("routing.compile_s", secs("routing.compile"));
    put("netmodel.matchsets_s", secs("netmodel.matchsets"));
    put("testsuite.suite_on_s", secs("testsuite.suite"));
    put("testsuite.pingmesh_s", secs("ToRPingmesh"));
    put("testsuite.reachability_s", secs("ToRReachability"));
    put("testsuite.contract_s", secs("Contract"));
    put("testsuite.default_route_s", secs("DefaultRouteCheck"));
    put("testsuite.jobs", booted.jobs as f64);
    put("trace.export_s", secs("trace.export"));
    put("trace.portable_nodes", booted.portable_nodes as f64);
    put("engine.boot_s", secs("engine.boot"));
    put(
        "engine.add_test_ms",
        1e3 * secs("engine.add_test") / booted.traces.len() as f64,
    );

    let mut scratch = Bdd::new();
    let t = Instant::now();
    for (_, trace) in &booted.traces {
        std::hint::black_box(trace.import(&mut scratch));
    }
    put("trace.import_s", t.elapsed().as_secs_f64());
    Ok((booted, m, report))
}

/// Direct-call costs of the read path, with no daemon in between.
fn direct_read_legs(booted: &mut Booted, seed: u64, m: &mut Metrics, checks: &mut Checks) {
    let rules = ops::verify_rules(seed ^ 0xD1EC7, &booted.shape, 20_000);
    let engine = &mut booted.engine;
    let mut failed = 0u64;
    let rule_coverage_us = median_us(rules.len(), |i| {
        failed += engine.rule_coverage(rules[i]).is_err() as u64;
    });
    checks.many(
        rules.len() as u64,
        failed,
        "direct rule_coverage calls failed",
    );
    m.insert("engine.rule_coverage_us".into(), rule_coverage_us);
    m.insert(
        "engine.headline_ms".into(),
        median_us(20, |_| {
            std::hint::black_box(engine.headline_metrics());
        }) / 1e3,
    );
    config_legs(engine, m, checks);
}

/// Config-level coverage computed directly, and the provenance database
/// it starts from.
fn config_legs(engine: &mut CoverageEngine, m: &mut Metrics, checks: &mut Checks) {
    let mut config_ok = true;
    m.insert(
        "config.coverage_ms".into(),
        median_us(5, |_| config_ok &= engine.config_coverage().is_ok()) / 1e3,
    );
    checks.op(config_ok, || "direct config_coverage failed".into());
    let routing = engine.routing().expect("routing is attached at boot");
    m.insert(
        "config.db_derive_ms".into(),
        median_us(5, |_| {
            std::hint::black_box(routing.config_db());
        }) / 1e3,
    );
}

/// `/covers` over a real loopback socket: `daemon::serve` on a second
/// thread, `daemon::http_request` as the client, one connection per
/// request. Returns `(p50 round trip in µs, requests per second)`, or
/// zeros where the sandbox has no loopback to bind.
fn wire_leg(booted: &mut Booted, seed: u64, requests: usize, checks: &mut Checks) -> (f64, f64) {
    use yardstick::daemon::{http_request, serve};
    let listener = match std::net::TcpListener::bind(("127.0.0.1", 0)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("  wire leg skipped: cannot bind a loopback socket: {e}");
            return (0.0, 0.0);
        }
    };
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address")
        .to_string();
    let rules = ops::verify_rules(seed ^ 0x317E, &booted.shape, requests);
    let engine = &mut booted.engine;
    let mut lat = Latencies::new();
    let mut failed = 0u64;
    let mut wall = 0.0;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(engine, listener));
        let start = Instant::now();
        for &id in &rules {
            let t = Instant::now();
            let answer = http_request(&addr, "GET", &ops::covers_target(id), "");
            lat.push(t.elapsed().as_nanos());
            failed += !matches!(answer, Ok((200, _))) as u64;
        }
        wall = start.elapsed().as_secs_f64();
        let stop = http_request(&addr, "POST", "/shutdown", "");
        failed += !matches!(stop, Ok((200, _))) as u64;
        let served = server.join();
        failed += !matches!(served, Ok(Ok(()))) as u64;
    });
    checks.many(requests as u64 + 2, failed, "loopback requests failed");
    (lat.median_us(), requests as f64 / wall)
}

/// The traced run of `resident_k12_read`.
pub fn run_read_traced(
    plan: &ResidentPlan,
    seed: u64,
    checks: &mut Checks,
) -> Result<(Metrics, netobs::Report), String> {
    let (booted, mut m, report) = traced_boot(plan, seed, None, checks)?;
    netobs::disable();
    let (booted, untraced) = ReadRun::on(booted, *plan, seed)
        .batches(3, checks)
        .into_parts();
    netobs::enable();
    let before = booted.engine.query_cache_stats();
    let (mut booted, mut traced) = ReadRun::on(booted, *plan, seed)
        .batches(3, checks)
        .into_parts();
    let after = booted.engine.query_cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.insert(
        "engine.query_cache_hit_ratio".into(),
        hits as f64 / (hits + misses) as f64,
    );
    m.insert(
        "netobs.trace_overhead_ratio".into(),
        median(&untraced.rates) / median(&traced.rates) - 1.0,
    );
    m.insert(
        "harness.unattributed_ratio".into(),
        1.0 - traced.handle_share(),
    );
    let (_, covers_p99) = traced.covers.summary_us("covers (traced)");
    m.insert("daemon.covers_p99_us".into(), covers_p99);
    m.insert("daemon.handle_hit_us".into(), traced.hit_miss.0.median_us());
    m.insert(
        "daemon.handle_miss_us".into(),
        traced.hit_miss.1.median_us(),
    );
    m.insert(
        "daemon.response_bytes_mean".into(),
        traced.response_bytes_mean(),
    );
    direct_read_legs(&mut booted, seed, &mut m, checks);
    m.insert(
        "daemon.codec_us".into(),
        m["daemon.handle_miss_us"] - m["engine.rule_coverage_us"],
    );
    let (rtt, rate) = wire_leg(&mut booted, seed, 5_000.min(plan.read_batch), checks);
    m.insert("daemon.wire_rtt_us_p50".into(), rtt);
    m.insert("daemon.wire_req_per_s".into(), rate);
    netobs::disable();
    Ok((m, report))
}

/// The same seeded rounds replayed below the daemon: through the
/// engine's public delta methods on a second engine, through a bare
/// `RoutingEngine` on its own network, and through the match-set and
/// covered-set shard refreshes alone.
fn direct_churn_legs(
    booted: &Booted,
    plan: &ResidentPlan,
    seed: u64,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let rounds: Vec<Round> = (0..plan.churn_batch)
        .map(|i| ops::round(seed, &booted.shape, i))
        .collect();

    let mut engine = boot_fresh(plan.k, &booted.traces, Some(plan.gc_watermark));
    let (mut insert, mut withdraw, mut topo) =
        (Latencies::new(), Latencies::new(), Latencies::new());
    let (mut invalidated, mut deltas, mut failed) = (0usize, 0u64, 0u64);
    for r in &rounds {
        let t = Instant::now();
        let inserted = engine.insert_rule(r.tor, r.rule());
        insert.push(t.elapsed().as_nanos());
        if let Ok(id) = inserted {
            let t = Instant::now();
            failed += engine.withdraw_rule(id).is_err() as u64;
            withdraw.push(t.elapsed().as_nanos());
        }
        failed += inserted.is_err() as u64;
        invalidated += 2;
        for delta in r.link_deltas() {
            let t = Instant::now();
            let devices = engine.apply_topology(&delta);
            topo.push(t.elapsed().as_nanos());
            invalidated += devices.as_ref().map_or(0, Vec::len);
            failed += devices.is_err() as u64;
        }
        deltas += 4;
    }
    let cycled = booted.traces.iter().find(|(name, _)| name == CYCLED_TEST);
    let (_, trace) = cycled.expect("the suite has a contract test");
    let (mut remove, mut add) = (Latencies::new(), Latencies::new());
    for _ in 0..5 {
        let t = Instant::now();
        failed += engine.remove_test(CYCLED_TEST).is_err() as u64;
        remove.push(t.elapsed().as_nanos());
        let t = Instant::now();
        failed += engine.add_test(CYCLED_TEST, trace).is_err() as u64;
        add.push(t.elapsed().as_nanos());
    }
    checks.many(deltas + 10, failed, "direct engine deltas failed");
    config_legs(&mut engine, m, checks);
    m.insert("engine.insert_rule_us".into(), insert.median_us());
    m.insert("engine.withdraw_rule_us".into(), withdraw.median_us());
    m.insert("engine.apply_topology_us".into(), topo.median_us());
    m.insert(
        "engine.devices_invalidated_per_delta".into(),
        invalidated as f64 / deltas as f64,
    );
    m.insert("engine.remove_test_ms".into(), remove.median_us() / 1e3);
    m.insert("engine.add_test_ms".into(), add.median_us() / 1e3);
    drop(engine);

    let (ft, mut routing) = fattree_builder(FatTreeParams::paper(plan.k)).into_engine();
    let mut net = ft.net;
    let mut apply = Latencies::new();
    let (mut changes, mut failed) = (0usize, 0u64);
    for r in &rounds {
        for delta in r.link_deltas() {
            let t = Instant::now();
            let diff = routing.apply(&mut net, &delta);
            apply.push(t.elapsed().as_nanos());
            changes += diff.as_ref().map_or(0, routing::FibDiff::len);
            failed += diff.is_err() as u64;
        }
    }
    checks.many(
        2 * rounds.len() as u64,
        failed,
        "bare routing deltas failed",
    );
    m.insert("routing.apply_us_p50".into(), apply.median_us());
    m.insert(
        "routing.fib_changes_per_delta".into(),
        changes as f64 / (2 * rounds.len()) as f64,
    );

    // The shard refresh a rule delta triggers, without the engine around
    // it: edit the table, re-derive the device's match sets, re-run
    // Algorithm 1 on the device.
    let mut bdd = Bdd::new();
    let mut cache = netmodel::MatchSetCache::new();
    let mut ms = MatchSets::compute_cached(&net, &mut bdd, &mut cache);
    let mut combined = CoverageTrace::new();
    for (_, trace) in &booted.traces {
        let imported = trace.import(&mut bdd);
        combined.merge(&mut bdd, &imported);
    }
    let mut covered = CoveredSets::compute(&net, &ms, &combined, &mut bdd);
    let (mut ms_lat, mut cov_lat) = (Latencies::new(), Latencies::new());
    for r in &rounds {
        let id = net.insert_rule(r.tor, r.rule());
        for withdraw in [false, true] {
            if withdraw {
                net.withdraw_rule(id);
            }
            let t = Instant::now();
            ms.recompute_device(&net, &mut bdd, &mut cache, r.tor);
            ms_lat.push(t.elapsed().as_nanos());
            let t = Instant::now();
            covered.recompute_device(&net, &ms, &combined, &mut bdd, r.tor);
            cov_lat.push(t.elapsed().as_nanos());
        }
    }
    m.insert("netmodel.recompute_device_us".into(), ms_lat.median_us());
    m.insert("covered.recompute_device_us".into(), cov_lat.median_us());
}

/// The traced run of `resident_k12_churn`.
pub fn run_churn_traced(
    plan: &ResidentPlan,
    seed: u64,
    checks: &mut Checks,
) -> Result<(Metrics, netobs::Report), String> {
    let (booted, mut m, report) = traced_boot(plan, seed, Some(plan.gc_watermark), checks)?;
    netobs::disable();
    let (booted, untraced) = ChurnRun::on(booted, *plan, seed)
        .batches(2, checks)
        .into_parts();
    netobs::enable(); // also clears what the boot left in the registry
    let before = booted.engine.query_cache_stats();
    let (mut booted, mut traced) = ChurnRun::on(booted, *plan, seed ^ 0x7ACED)
        .batches(plan.min_batches, checks)
        .into_parts();
    let after = booted.engine.query_cache_stats();
    netobs::disable();
    check_back_at_boot(&mut booted, plan, seed, checks);

    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.insert(
        "engine.query_cache_hit_ratio".into(),
        hits as f64 / (hits + misses) as f64,
    );
    m.insert(
        "netobs.trace_overhead_ratio".into(),
        median(&untraced.rates) / median(&traced.rates) - 1.0,
    );
    m.insert(
        "harness.unattributed_ratio".into(),
        1.0 - traced.handle_share(),
    );
    m.insert("daemon.handle_miss_us".into(), traced.covers.median_us());
    for (name, lat) in [
        ("daemon.covers_p99_us", &mut traced.covers),
        ("daemon.rule_delta_p99_us", &mut traced.rule_delta),
        ("daemon.topo_delta_p99_us", &mut traced.topo_delta),
    ] {
        let (_, p99) = lat.summary_us(name);
        m.insert(name.into(), p99);
    }
    let pauses: Vec<f64> = traced.gc_pauses.iter().map(|p| p.0 as f64 / 1e6).collect();
    checks.op(pauses.len() >= 3, || {
        format!(
            "the watermark collector ran {} times in {} rounds, fewer than 3",
            pauses.len(),
            traced.rounds
        )
    });
    if !pauses.is_empty() {
        m.insert("netbdd.gc_pause_ms_p50".into(), median(&pauses));
        m.insert(
            "netbdd.gc_pause_ms_max".into(),
            pauses.iter().copied().fold(0.0, f64::max),
        );
        let reclaimed: Vec<f64> = traced
            .gc_pauses
            .iter()
            .map(|&(_, before, after)| (before - after) / before.max(1.0))
            .collect();
        m.insert("netbdd.gc_reclaimed_ratio".into(), median(&reclaimed));
    }
    m.insert("netbdd.gc_collections".into(), pauses.len() as f64);
    direct_churn_legs(&booted, plan, seed, &mut m, checks);
    Ok((m, report))
}
