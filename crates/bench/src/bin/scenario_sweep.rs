//! `scenario_sweep` — the failure-scenario sweep over the §8 fat-tree.
//!
//! Enumerates **every** single-link failure (exhaustive k=1) plus a
//! seeded sample of two-link failures (k=2), re-converging each scenario
//! incrementally through [`routing::RoutingEngine::apply`] and checking
//! the result bit-identical to a from-scratch
//! [`routing::RoutingEngine::full_rebuild`]. A deterministic packet
//! walker replays a fixed probe set under every scenario and reports the
//! coverage envelope: how many `(device, dst-prefix)` forwarding rules
//! are exercised *only* when some link is down — the scenario-coverage
//! gap the paper's §6 sensitivity analysis asks about.
//!
//! ```text
//! cargo run -p bench --release --bin scenario_sweep -- \
//!     [--k 6] [--probes 64] [--k2-samples 32] [--seed 7] [--json]
//! ```
//!
//! The headline is wall clock: `incremental_secs` (sum of `apply` calls)
//! versus `rebuild_secs` (sum of from-scratch eBGP fixpoints for the
//! same scenarios), plus the same comparison one layer up where each
//! delta also re-shards the coverage engine (`engine_delta_secs` vs
//! `engine_rebuild_secs`). `--json` writes `BENCH_scenarios.json`
//! (gated by `benchdiff --tolerance 1.0` in CI against
//! `crates/bench/baselines/`). Any bit-identity violation panics, so CI
//! fails closed. An unknown option, a malformed value or an odd `--k`
//! exits 2 before any network is built.

use std::collections::BTreeSet;
use std::time::Duration;

use bench::{arity, parse_flag, time_it};
use netmodel::addr::Prefix;
use netmodel::topology::DeviceId;
use netmodel::{header, Location, Network};
use routing::{RoutingEngine, TopologyDelta};
use topogen::{fattree_with_engine, FatTreeParams};
use yardstick::rng::{seed_mix, splitmix64};
use yardstick::{CoverageEngine, CoverageTrace, PortableTrace};

/// A probe flow: injected at `src`, destined to the concrete v4 address
/// `dst`, with a per-flow ECMP discriminator.
struct Probe {
    src: DeviceId,
    dst: u128,
    flow: u64,
}

/// Rules are identified by `(device, dst prefix)` — stable across
/// re-convergence, unlike positional rule indices, which shift when a
/// failure withdraws routes earlier in a table.
type RuleKey = (u32, Option<Prefix>);

/// Walk one probe through the FIB, recording every rule it exercises.
///
/// At each hop the first matching rule wins (tables are kept in
/// longest-prefix-first canonical order); ECMP picks one leg by a
/// deterministic hash of `(flow, device)` so a failed leg visibly
/// shifts traffic. A peerless out-interface is delivery; a missing
/// match or a null route ends the walk.
fn walk(net: &Network, probe: &Probe, exercised: &mut BTreeSet<RuleKey>) {
    let topo = net.topology();
    let mut at = probe.src;
    for _hop in 0..64 {
        let rules = net.device_rules(at);
        let Some(rule) = rules.iter().find(|r| match &r.matches.dst {
            Some(p) => p.contains_addr(probe.dst),
            None => true,
        }) else {
            return;
        };
        exercised.insert((at.0, rule.matches.dst));
        let outs = rule.action.out_ifaces();
        if outs.is_empty() {
            return; // null route
        }
        let mut h = seed_mix(probe.flow, at.0 as u64);
        let out = outs[(splitmix64(&mut h) % outs.len() as u64) as usize];
        match topo.iface(out).peer {
            Some(peer) => at = topo.iface(peer).device,
            None => return, // delivered out a host/External iface
        }
    }
    panic!("probe loop: flow {:x} stuck at device {}", probe.flow, at.0);
}

/// Replay the whole probe set and return the exercised-rule set.
fn coverage(net: &Network, probes: &[Probe]) -> BTreeSet<RuleKey> {
    let mut set = BTreeSet::new();
    for p in probes {
        walk(net, p, &mut set);
    }
    set
}

/// A deterministic all-pairs-ish probe set: `n` flows between distinct
/// ToRs, each to a distinct host address inside the destination subnet.
fn make_probes(tors: &[(DeviceId, Prefix, netmodel::topology::IfaceId)], n: usize) -> Vec<Probe> {
    let mut probes = Vec::with_capacity(n);
    let t = tors.len();
    for i in 0..n {
        let (src, _, _) = tors[i % t];
        let (_, dst_p, _) = tors[(i / t + i + 1) % t];
        // Hosts live at offsets 1.. within the /24; rotate through a few.
        let dst = dst_p.bits() + 1 + (i % 9) as u128;
        probes.push(Probe {
            src,
            dst,
            flow: seed_mix(0x5eed, i as u64),
        });
    }
    probes
}

/// Assert `net` is bit-identical to a from-scratch rebuild, device by
/// device, and return the rebuild's wall clock. Also asserts — outside
/// the timed section — that config provenance survives incremental
/// re-convergence: the resident engine's [`RoutingEngine::config_db`]
/// must equal the one a scratch build of the same degraded topology
/// derives.
fn check_rebuild(engine: &RoutingEngine, net: &Network, what: &str) -> Duration {
    let (rebuilt, dt) = time_it(|| engine.full_rebuild().expect("full rebuild"));
    for (d, _) in net.topology().devices() {
        assert_eq!(
            net.device_rules(d),
            rebuilt.device_rules(d),
            "FIB diverged from full rebuild at device {} ({what})",
            d.0
        );
    }
    let (scratch, _) = engine
        .degraded_builder()
        .into_engine()
        .expect("scratch provenance build");
    assert_eq!(
        engine.config_db(),
        scratch.config_db(),
        "config provenance diverged from a scratch build ({what})"
    );
    dt
}

/// One scenario: fail `downs`, measure, recover, verify restoration.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    engine: &mut RoutingEngine,
    net: &mut Network,
    baseline: &Network,
    probes: &[Probe],
    downs: &[(DeviceId, DeviceId)],
    failure_cov: &mut BTreeSet<RuleKey>,
    incremental: &mut Duration,
    rebuild: &mut Duration,
    what: &str,
) {
    for &(a, b) in downs {
        let (_, dt) = time_it(|| {
            engine
                .apply(net, &TopologyDelta::LinkDown { a, b })
                .expect("link-down")
        });
        *incremental += dt;
    }
    *rebuild += check_rebuild(engine, net, what);
    failure_cov.extend(coverage(net, probes));
    for &(a, b) in downs {
        let (_, dt) = time_it(|| {
            engine
                .apply(net, &TopologyDelta::LinkUp { a, b })
                .expect("link-up")
        });
        *incremental += dt;
    }
    for (d, _) in net.topology().devices() {
        assert_eq!(
            net.device_rules(d),
            baseline.device_rules(d),
            "recovery failed to restore the healthy FIB at device {} ({what})",
            d.0
        );
    }
}

/// The coverage-engine leg: a handful of scenarios where each delta also
/// re-shards match/covered sets, vs rebuilding the engine from scratch.
fn engine_leg(scenarios: usize) -> (f64, f64) {
    let (ft, routing) = fattree_with_engine(FatTreeParams::paper(4));
    let (tor0, p0, _) = ft.tors[0];
    let trace: PortableTrace = {
        let mut bdd = netbdd::Bdd::new();
        let mut t = CoverageTrace::new();
        let set = header::dst_in(&mut bdd, &p0);
        t.add_packets(&mut bdd, Location::device(tor0), set);
        t.export(&bdd)
    };
    let mut engine = CoverageEngine::new(ft.net, 1);
    engine.attach_routing(routing);
    engine.add_test("probe", &trace).unwrap();

    let pairs: Vec<(DeviceId, DeviceId)> = dedup_pairs(engine.routing().unwrap());
    let mut delta_secs = Duration::ZERO;
    let mut rebuild_secs = Duration::ZERO;
    for &(a, b) in pairs.iter().take(scenarios) {
        let (_, dt) = time_it(|| {
            engine
                .apply_topology(&TopologyDelta::LinkDown { a, b })
                .expect("engine link-down")
        });
        delta_secs += dt;
        // Full-rebuild cost one layer up: re-derive the degraded FIBs
        // and rebuild the whole coverage engine over them.
        let (_, dt) = time_it(|| {
            let degraded = engine.routing().unwrap().full_rebuild().unwrap();
            let mut fresh = CoverageEngine::new(degraded, 1);
            fresh.add_test("probe", &trace).unwrap();
            fresh.headline_metrics()
        });
        rebuild_secs += dt;
        let (_, dt) = time_it(|| {
            engine
                .apply_topology(&TopologyDelta::LinkUp { a, b })
                .expect("engine link-up")
        });
        delta_secs += dt;
    }
    (delta_secs.as_secs_f64(), rebuild_secs.as_secs_f64())
}

/// Distinct device pairs with at least one link between them, in id order.
fn dedup_pairs(engine: &RoutingEngine) -> Vec<(DeviceId, DeviceId)> {
    let set: BTreeSet<(u32, u32)> = engine
        .link_endpoints()
        .into_iter()
        .map(|(a, b)| (a.0, b.0))
        .collect();
    set.into_iter()
        .map(|(a, b)| (DeviceId(a), DeviceId(b)))
        .collect()
}

fn main() {
    let (k, probes_n, k2_samples, seed, [json]) = bench::bin_args(
        "--k --probes --k2-samples --seed",
        ["--json"],
        |args, on| {
            let (k, seed) = (arity(args, 6)?, parse_flag(args, "--seed", 7)?);
            let probes = parse_flag(args, "--probes", 64)?;
            Ok((k, probes, parse_flag(args, "--k2-samples", 32)?, seed, on))
        },
    );
    netobs::enable();

    let (ft, mut engine) = fattree_with_engine(FatTreeParams::paper(k));
    let mut net = ft.net;
    let baseline = net.clone();
    let probes = make_probes(&ft.tors, probes_n);
    let pairs = dedup_pairs(&engine);

    let healthy_cov = coverage(&net, &probes);
    let mut failure_cov = BTreeSet::new();
    let mut incremental = Duration::ZERO;
    let mut rebuild = Duration::ZERO;

    // Exhaustive k=1: every link pair fails once.
    for &(a, b) in &pairs {
        run_scenario(
            &mut engine,
            &mut net,
            &baseline,
            &probes,
            &[(a, b)],
            &mut failure_cov,
            &mut incremental,
            &mut rebuild,
            &format!("link {}-{} down", a.0, b.0),
        );
    }

    // Seeded k=2: sampled pairs of distinct links.
    let mut state = seed_mix(seed, 0x6b32); // "k2"
    let mut sampled = 0usize;
    while sampled < k2_samples {
        let i = (splitmix64(&mut state) % pairs.len() as u64) as usize;
        let j = (splitmix64(&mut state) % pairs.len() as u64) as usize;
        if i == j {
            continue;
        }
        run_scenario(
            &mut engine,
            &mut net,
            &baseline,
            &probes,
            &[pairs[i], pairs[j]],
            &mut failure_cov,
            &mut incremental,
            &mut rebuild,
            &format!("links #{i} and #{j} down"),
        );
        sampled += 1;
    }

    let scenario_only: Vec<&RuleKey> = failure_cov.difference(&healthy_cov).collect();
    let lost: Vec<&RuleKey> = healthy_cov.difference(&failure_cov).collect();
    let scenarios = pairs.len() + k2_samples;
    let incremental_secs = incremental.as_secs_f64();
    let rebuild_secs = rebuild.as_secs_f64();
    let speedup = rebuild_secs / incremental_secs.max(1e-9);

    let engine_scenarios = 8usize.min(pairs.len());
    let (engine_delta_secs, engine_rebuild_secs) = engine_leg(engine_scenarios);
    let engine_speedup = engine_rebuild_secs / engine_delta_secs.max(1e-9);

    println!(
        "-- scenario sweep (fat-tree k={k}: {} devices, {} links, {} probes) --",
        net.topology().device_count(),
        pairs.len(),
        probes.len()
    );
    println!(
        "scenarios: {} (k=1 exhaustive {}, k=2 sampled {k2_samples}, seed {seed})",
        scenarios,
        pairs.len()
    );
    println!(
        "routing:   incremental {incremental_secs:.3}s  rebuild {rebuild_secs:.3}s  speedup {speedup:.1}x"
    );
    println!(
        "engine:    delta {engine_delta_secs:.3}s  rebuild {engine_rebuild_secs:.3}s  \
         speedup {engine_speedup:.1}x  ({engine_scenarios} scenarios, k=4)"
    );
    println!(
        "coverage envelope: {} rules healthy, {} exercised only under failure, {} healthy-only",
        healthy_cov.len(),
        scenario_only.len(),
        lost.len()
    );
    for &&(d, p) in scenario_only.iter().take(4) {
        println!(
            "  e.g. device {d} rule dst={} needs a failure scenario",
            p.map_or("default".to_string(), |p| p.to_string())
        );
    }

    if json {
        // `metrics` holds smaller-is-better values benchdiff gates on;
        // `info` is context, reported but never gated.
        let json = format!(
            "{{\n  \"bench\": \"scenario_sweep\",\n  \"workload\": \"fattree_k{k}\",\n  \
             \"host_cpus\": {},\n  \
             \"metrics\": {{\n    \"incremental_secs\": {incremental_secs:.6},\n    \
             \"rebuild_secs\": {rebuild_secs:.6},\n    \
             \"engine_delta_secs\": {engine_delta_secs:.6},\n    \
             \"engine_rebuild_secs\": {engine_rebuild_secs:.6}\n  }},\n  \
             \"info\": {{\n    \"speedup\": {speedup:.4},\n    \
             \"engine_speedup\": {engine_speedup:.4},\n    \
             \"scenarios\": {scenarios},\n    \"k2_samples\": {k2_samples},\n    \
             \"probes\": {},\n    \"seed\": {seed},\n    \
             \"healthy_rules\": {},\n    \"scenario_only_rules\": {},\n    \
             \"bit_identical\": true,\n    \"provenance_identical\": true\n  }}\n}}\n",
            bench::host_cpus(),
            probes.len(),
            healthy_cov.len(),
            scenario_only.len(),
        );
        let path = bench::figures_dir().join("BENCH_scenarios.json");
        std::fs::write(&path, json).expect("write BENCH_scenarios.json");
        println!("  [json] {}", path.display());
    }
}
