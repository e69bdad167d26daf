//! Golden counts: the batch arc's outputs and exact counts, pinned.
//!
//! Each batch case builds a network, runs its suite's jobs on one live
//! tracker, and analyses the trace — the arc `benchmark/` times — and
//! compares the result with `tests/golden/<case>.json`:
//!
//! * the headline (the four network-wide aggregates) and every per-role
//!   row, as exact `f64` bits;
//! * rules, jobs, `mark_packet` and `mark_rule` calls, exactly;
//! * on the fat-trees, the path universe over the edge starts (its
//!   [`PathUniverseDigest`]), exactly; it is enumerated after the arc's
//!   counters are read, so they do not include it;
//! * `matchsets_nodes` (the arena right after match-set derivation),
//!   `nodes_final` and `ops_total` may only fall, and a change that
//!   lowers one rewrites the file in the same diff, so the new numbers
//!   are reviewed. On any mismatch the failure prints the whole document
//!   this run produced.
//!
//! The resident case drives a k=4 engine through a fixed churn script
//! and pins its headline bits at three rounds the same way; its node,
//! op, shard and device counters may only fall. It is the only test here
//! that enables `netobs`, which is where the engine publishes those
//! counters.

use dataplane::paths::edge_starts;
use dataplane::{ExploreOpts, Forwarder};
use netbdd::Bdd;
use netmodel::rule::RouteClass;
use netmodel::topology::DeviceId;
use netmodel::{header, Location, MatchSets, Network, Prefix, Rule, RuleId};
use netobs::json::{self, number, Json};
use routing::TopologyDelta;
use testsuite::{fattree_suite_jobs, regional_suite_jobs, run_job, NetworkInfo, SuiteJob};
use topogen::{fattree, fattree_with_engine, regional, FatTreeParams, RegionalParams};
use yardstick::pathcov::{path_coverage, PathUniverseDigest};
use yardstick::{Analyzer, CoverageEngine, CoverageReport, CoverageTrace, PortableTrace, Tracker};

const SEED: u64 = 0xC0FFEE;

/// The arc on `net` with `jobs`, rendered as a golden document; with
/// `paths`, the path universe too.
fn arc(net: &Network, info: &NetworkInfo, suite: &str, jobs: &[SuiteJob], paths: bool) -> String {
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(net, &mut bdd);
    let matchsets_nodes = bdd.stats().nodes;
    let mut tracker = Tracker::new();
    for job in jobs {
        let report = run_job(&mut bdd, net, &ms, info, &mut tracker, job);
        assert!(report.passed(), "{}: {:?}", report.name, report.failures);
    }
    let (mark_packet, mark_rule) = tracker.call_counts();
    let trace = tracker.into_trace();
    let analyzer = Analyzer::new(net, &ms, &trace, &mut bdd);
    let report = CoverageReport::by_role(&mut bdd, &analyzer);
    let stats = bdd.stats();
    let universe = if paths {
        let starts = edge_starts(&mut bdd, &Forwarder::new(net, &ms));
        let pc = path_coverage(&mut bdd, &analyzer, &starts, &ExploreOpts::default());
        let d = PathUniverseDigest::from(pc.stats);
        format!(
            "  \"path_universe\": {{\"paths\": {}, \"delivered\": {}, \"exited\": {}, \
             \"dropped\": {}, \"unmatched\": {}}},\n",
            d.paths, d.delivered, d.exited, d.dropped, d.unmatched
        )
    } else {
        String::new()
    };

    let opt = |v: Option<f64>| v.map_or("null".to_string(), number);
    let metrics = |d: Option<f64>, i: Option<f64>, rf: Option<f64>, rw: Option<f64>| {
        format!(
            "\"device_fractional\": {}, \"iface_fractional\": {}, \
             \"rule_fractional\": {}, \"rule_weighted\": {}",
            opt(d),
            opt(i),
            opt(rf),
            opt(rw)
        )
    };
    let o = &report.overall;
    let roles: Vec<String> = report
        .rows
        .iter()
        .map(|row| {
            let m = &row.metrics;
            format!(
                "    {}: {{\"devices\": {}, \"rules\": {}, {}}}",
                json::quote(m.role.label()),
                row.devices,
                row.rules,
                metrics(
                    m.device_fractional,
                    m.iface_fractional,
                    m.rule_fractional,
                    m.rule_weighted
                )
            )
        })
        .collect();
    format!(
        "{{\n  \"suite\": {},\n  \
         \"exact\": {{\"rules\": {}, \"jobs\": {}, \"mark_packet_calls\": {mark_packet}, \
         \"mark_rule_calls\": {mark_rule}}},\n{universe}  \
         \"may_only_fall\": {{\"matchsets_nodes\": {matchsets_nodes}, \"nodes_final\": {}, \
         \"ops_total\": {}}},\n  \
         \"headline\": {{{}}},\n  \
         \"roles\": {{\n{}\n  }}\n}}\n",
        json::quote(suite),
        net.rule_count(),
        jobs.len(),
        stats.nodes,
        stats.ops.total(),
        metrics(
            o.device_fractional,
            o.iface_fractional,
            o.rule_fractional,
            o.rule_weighted
        ),
        roles.join(",\n"),
    )
}

/// Equal as documents, with numbers compared bit for bit.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && same(vx, vy))
        }
        _ => a == b,
    }
}

/// Compare this run's document with `tests/golden/<case>.json`.
fn check(case: &str, actual: &str) {
    let path = format!("{}/tests/golden/{case}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let golden = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = json::parse(actual).expect("the arc renders valid JSON");
    let mut diffs = Vec::new();
    for (key, want) in golden.entries() {
        let have = got.get(key).unwrap_or(&Json::Null);
        if key != "may_only_fall" && !same(want, have) {
            diffs.push(format!("{key} differs"));
        }
    }
    for (key, want) in golden
        .get("may_only_fall")
        .into_iter()
        .flat_map(Json::entries)
    {
        let want = want.as_f64().unwrap_or(f64::NAN);
        let have = got
            .get("may_only_fall")
            .and_then(|m| m.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        if have > want || have.is_nan() {
            diffs.push(format!("{key} rose from {want} to {have}"));
        } else if have < want {
            diffs.push(format!(
                "{key} fell from {want} to {have}: rewrite {path} in the same change"
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{case}: {}\n\nthis run:\n{actual}",
        diffs.join("; ")
    );
}

fn fattree_case(k: u32) {
    let ft = fattree(FatTreeParams::paper(k));
    let info = bench::fattree_info(&ft);
    let jobs = fattree_suite_jobs(&ft.net, &info, SEED);
    check(
        &format!("fattree_k{k}"),
        &arc(&ft.net, &info, "s8", &jobs, true),
    );
}

#[test]
fn fattree_k4_s8() {
    fattree_case(4);
}

#[test]
fn fattree_k8_s8() {
    fattree_case(8);
}

#[test]
fn regional_1x_final() {
    let r = regional(RegionalParams::default());
    let info = bench::regional_info(&r);
    let jobs = regional_suite_jobs(&r.net, &info);
    check("regional_1x", &arc(&r.net, &info, "final", &jobs, false));
}

/// A trace marking `prefix` at each of `devices`, built in its own
/// manager: the wire form of a `test-add`.
fn probe(devices: &[DeviceId], prefix: Prefix) -> PortableTrace {
    let mut bdd = Bdd::new();
    let mut t = CoverageTrace::new();
    let set = header::dst_in(&mut bdd, &prefix);
    for &d in devices {
        t.add_packets(&mut bdd, Location::device(d), set);
    }
    t.export(&bdd)
}

/// The resident arc: a k=4 engine with routing, one probe per ToR, then
/// 50 fixed rounds. Every round inserts (odd) or withdraws (even) a
/// /24 on the first ToR; rounds 3 and 6 of each ten take its first
/// uplink down and up; every tenth round retires one probe and adds a
/// wider test in its place; round 25 collects. The headline is read at
/// rounds 0, 25 and 50; the counters after round 50.
fn churn() -> String {
    netobs::enable();
    let (ft, routing) = fattree_with_engine(FatTreeParams::paper(4));
    let (tor, hosts, agg) = (ft.tors[0].0, ft.tors[0].2, ft.aggs[0]);
    let mut engine = CoverageEngine::new(ft.net, 1);
    engine.attach_routing(routing);
    for (i, &(d, prefix, _)) in ft.tors.iter().enumerate() {
        let half = Prefix::v4(prefix.bits() as u32, prefix.len() + 1);
        engine
            .add_test(&format!("probe{i}"), &probe(&[d], half))
            .unwrap();
    }
    let headline = |e: &mut CoverageEngine| {
        let h = e.headline_metrics();
        let opt = |v: Option<f64>| v.map_or("null".to_string(), number);
        format!(
            "{{\"rule_fractional\": {}, \"rule_weighted\": {}, \"device_fractional\": {}}}",
            opt(h.rule_fractional),
            opt(h.rule_weighted),
            opt(h.device_fractional)
        )
    };
    let mut headlines = vec![format!("\"round_0\": {}", headline(&mut engine))];
    for round in 1..=50u32 {
        let dst: Prefix = format!("10.99.{}.0/24", (round - 1) / 2).parse().unwrap();
        if round % 2 == 1 {
            let rule = Rule::forward(dst, vec![hosts], RouteClass::Other);
            engine.insert_rule(tor, rule).unwrap();
        } else {
            let table = engine.network().device_rules(tor);
            let index = table.iter().position(|r| r.matches.dst == Some(dst));
            let index = index.expect("the rule inserted last round") as u32;
            engine.withdraw_rule(RuleId { device: tor, index }).unwrap();
        }
        match round % 10 {
            3 => drop(engine.apply_topology(&TopologyDelta::LinkDown { a: tor, b: agg })),
            6 => drop(engine.apply_topology(&TopologyDelta::LinkUp { a: tor, b: agg })),
            0 => {
                let i = (round / 10 - 1) as usize;
                let (d, prefix, _) = ft.tors[i];
                engine.remove_test(&format!("probe{i}")).unwrap();
                let wide = probe(&[d, ft.aggs[i]], prefix);
                engine.add_test(&format!("wide{i}"), &wide).unwrap();
            }
            _ => {}
        }
        if round == 25 {
            engine.gc();
        }
        if round == 25 || round == 50 {
            headlines.push(format!("\"round_{round}\": {}", headline(&mut engine)));
        }
    }
    let stats = engine.analyzer().1.stats();
    engine.publish_gauges();
    let gauges = netobs::gauges_snapshot();
    let counter = |name: &str| gauges[name];
    format!(
        "{{\n  \"script\": \"k4 churn, 50 rounds\",\n  \
         \"exact\": {{\"rules\": {}, \"version\": {}}},\n  \
         \"may_only_fall\": {{\"nodes_final\": {}, \"ops_total\": {}, \
         \"shards_recomputed_total\": {}, \"devices_invalidated_total\": {}}},\n  \
         \"headline\": {{{}}}\n}}\n",
        engine.network().rule_count(),
        engine.version(),
        stats.nodes,
        stats.ops.total(),
        counter("engine.shards_recomputed_total"),
        counter("engine.devices_invalidated_total"),
        headlines.join(", "),
    )
}

#[test]
fn resident_k4_churn() {
    check("resident_k4_churn", &churn());
}
