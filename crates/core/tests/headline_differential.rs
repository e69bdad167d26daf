//! Seeded differential for the headline memo: the resident engine's
//! `headline_metrics` must equal (as `f64`s) the batch `Analyzer` over a
//! from-scratch `MatchSets` and `CoveredSets` in a fresh manager — after
//! every step of an interleaving of rule inserts and withdraws, test adds
//! and removes, ToR-uplink flaps, aggregation-router failures and
//! recoveries, and collections. A memo that outlived the state it was
//! computed from shows up here as a stale headline. The role-filtered
//! aggregates are checked besides, against a flat per-rule fold written
//! out by hand.

use std::collections::BTreeSet;

use netbdd::Bdd;
use netmodel::header;
use netmodel::rule::RouteClass;
use netmodel::topology::{DeviceId, Role};
use netmodel::{Location, MatchSets, Network, Prefix, Rule, RuleId};
use routing::TopologyDelta;
use topogen::{fattree_with_engine, FatTreeParams};
use yardstick::analyzer::RoleMetrics;
use yardstick::rng::splitmix64;
use yardstick::{Aggregator, Analyzer, CoverageEngine, CoverageTrace, CoveredSets, PortableTrace};

/// Prefixes the inserted rules and the test marks draw from. None is a
/// fat-tree host /24 or the default, so an inserted rule never equals a
/// rule the routing engine manages.
const PREFIXES: &[&str] = &[
    "10.0.0.0/8",
    "10.0.0.0/16",
    "10.0.0.0/25",
    "10.0.1.128/25",
    "10.0.2.7/32",
    "10.1.0.0/16",
];

const STEPS: usize = 48;

struct Run {
    engine: CoverageEngine,
    rng: u64,
    tors: Vec<DeviceId>,
    aggs: Vec<DeviceId>,
    /// Registered tests and their traces: the batch side's inputs.
    tests: Vec<(String, PortableTrace)>,
    /// Rules this run inserted and has not withdrawn.
    inserted: Vec<(DeviceId, Prefix)>,
    down_links: BTreeSet<(DeviceId, DeviceId)>,
    down_aggs: BTreeSet<DeviceId>,
}

impl Run {
    fn new(seed: u64) -> Run {
        let (ft, routing) = fattree_with_engine(FatTreeParams::paper(4));
        let tors = ft.tors.iter().map(|t| t.0).collect();
        let aggs = ft.aggs.clone();
        let mut engine = CoverageEngine::new(ft.net, 1);
        engine.attach_routing(routing);
        Run {
            engine,
            rng: seed,
            tors,
            aggs,
            tests: Vec::new(),
            inserted: Vec::new(),
            down_links: BTreeSet::new(),
            down_aggs: BTreeSet::new(),
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        (splitmix64(&mut self.rng) % n as u64) as usize
    }

    fn prefix(&mut self) -> Prefix {
        PREFIXES[self.pick(PREFIXES.len())].parse().unwrap()
    }

    fn device(&mut self) -> DeviceId {
        DeviceId(self.pick(self.engine.network().topology().device_count()) as u32)
    }

    /// Apply one seeded step; returns what it did.
    fn step(&mut self, i: usize) -> String {
        match self.pick(12) {
            0..=2 => {
                let device = self.device();
                let prefix = self.prefix();
                let ifaces = self.engine.network().topology().neighbors(device);
                let out = ifaces[self.pick(ifaces.len())].0;
                let rule = Rule::forward(prefix, vec![out], RouteClass::Other);
                self.engine.insert_rule(device, rule).unwrap();
                self.inserted.push((device, prefix));
                format!("insert {prefix} at {device:?}")
            }
            3 | 4 if !self.inserted.is_empty() => {
                let at = self.pick(self.inserted.len());
                let (device, prefix) = self.inserted.remove(at);
                let index = self
                    .engine
                    .network()
                    .device_rules(device)
                    .iter()
                    .position(|r| r.class == RouteClass::Other && r.matches.dst == Some(prefix))
                    .expect("an inserted rule is still in its table")
                    as u32;
                self.engine.withdraw_rule(RuleId { device, index }).unwrap();
                format!("withdraw {prefix} at {device:?}")
            }
            5 | 6 => {
                let device = self.device();
                let prefix = self.prefix();
                let len = self.engine.network().device_rules(device).len();
                let inspect = (self.pick(2) == 0 && len > 0).then(|| self.pick(len) as u32);
                let trace = mark_trace(device, prefix, inspect);
                let name = format!("t{i}");
                self.engine.add_test(&name, &trace).unwrap();
                self.tests.push((name.clone(), trace));
                format!("add test {name} marking {prefix} at {device:?} inspecting {inspect:?}")
            }
            7 if !self.tests.is_empty() => {
                let at = self.pick(self.tests.len());
                let (name, _) = self.tests.remove(at);
                self.engine.remove_test(&name).unwrap();
                format!("remove test {name}")
            }
            8 | 9 => {
                let at = self.pick(self.tors.len());
                let tor = self.tors[at];
                let uplinks = self.engine.network().topology().neighbors(tor);
                let agg = uplinks[self.pick(uplinks.len())].1;
                let link = (tor, agg);
                let delta = if self.down_links.contains(&link) {
                    TopologyDelta::LinkUp { a: tor, b: agg }
                } else {
                    TopologyDelta::LinkDown { a: tor, b: agg }
                };
                if self.topology(&delta) && !self.down_links.remove(&link) {
                    self.down_links.insert(link);
                }
                format!("{delta:?}")
            }
            10 => {
                let at = self.pick(self.aggs.len());
                let agg = self.aggs[at];
                let delta = if self.down_aggs.contains(&agg) {
                    TopologyDelta::DeviceUp { device: agg }
                } else {
                    TopologyDelta::DeviceDown { device: agg }
                };
                if self.topology(&delta) && !self.down_aggs.remove(&agg) {
                    self.down_aggs.insert(agg);
                }
                format!("{delta:?}")
            }
            _ => {
                self.engine.gc();
                "gc".to_string()
            }
        }
    }

    /// Apply a topology delta; one the routing engine refuses (a link
    /// into a failed router, say) must leave the engine where it was.
    fn topology(&mut self, delta: &TopologyDelta) -> bool {
        let version = self.engine.version();
        match self.engine.apply_topology(delta) {
            Ok(_) => true,
            Err(_) => {
                assert_eq!(self.engine.version(), version, "{delta:?} refused");
                false
            }
        }
    }
}

/// A portable trace marking `prefix` at `device`, optionally inspecting
/// one rule of its table.
fn mark_trace(device: DeviceId, prefix: Prefix, inspect: Option<u32>) -> PortableTrace {
    let mut bdd = Bdd::new();
    let mut t = CoverageTrace::new();
    let set = header::dst_in(&mut bdd, &prefix);
    t.add_packets(&mut bdd, Location::device(device), set);
    if let Some(index) = inspect {
        t.add_rule(RuleId { device, index });
    }
    t.export(&bdd)
}

/// `(device fractional, rule fractional, rule weighted)` for one role,
/// with the rule aggregates folded over the role's rules as one flat
/// list and the device aggregate counted directly.
fn flat_role_metrics(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    covered: &CoveredSets,
    role: Role,
) -> (Option<f64>, Option<f64>, Option<f64>) {
    let topo = net.topology();
    let mut items = Vec::new();
    let (mut testable, mut exercised) = (0usize, 0usize);
    for device in topo.devices_with_role(role) {
        let mut any_testable = false;
        let mut any_exercised = false;
        for id in net.device_rule_ids(device) {
            let m = ms.get(id);
            if m.is_false() {
                continue;
            }
            let w = bdd.probability(m);
            items.push((bdd.probability(covered.get(id)) / w, w));
            any_testable = true;
            any_exercised |= covered.is_exercised(id);
        }
        testable += any_testable as usize;
        exercised += any_exercised as usize;
    }
    let device = (testable > 0).then(|| exercised as f64 / testable as f64);
    (
        device,
        Aggregator::Fractional.fold(&items),
        Aggregator::Weighted.fold(&items),
    )
}

fn close(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => (x - y).abs() < 1e-12,
        (None, None) => true,
        _ => false,
    }
}

/// The engine against a from-scratch batch over its current state.
fn check(run: &mut Run, when: &str) {
    let net = run.engine.network().clone();
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&net, &mut bdd);
    let mut combined = CoverageTrace::new();
    for (_, portable) in &run.tests {
        let t = portable.import(&mut bdd);
        combined.merge(&mut bdd, &t);
    }
    let covered = CoveredSets::compute(&net, &ms, &combined, &mut bdd);
    let batch = Analyzer::with_covered(&net, &ms, &combined, covered.clone());

    let headline = run.engine.headline_metrics();
    assert_eq!(
        headline.rule_fractional,
        batch.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true),
        "rule_fractional {when}"
    );
    assert_eq!(
        headline.rule_weighted,
        batch.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true),
        "rule_weighted {when}"
    );
    assert_eq!(
        headline.device_fractional,
        batch.aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true),
        "device_fractional {when}"
    );

    for role in [Role::Tor, Role::Aggregation, Role::Spine] {
        let got: RoleMetrics = batch.role_metrics(&mut bdd, role);
        let (a, ebdd) = run.engine.analyzer();
        let resident = a.role_metrics(ebdd, role);
        assert_eq!(
            resident, got,
            "{role:?} role metrics, engine vs batch {when}"
        );
        let (device, rule_frac, rule_weighted) =
            flat_role_metrics(&mut bdd, &net, &ms, &covered, role);
        assert_eq!(got.device_fractional, device, "{role:?} devices {when}");
        assert_eq!(got.rule_fractional, rule_frac, "{role:?} rules {when}");
        assert!(
            close(got.rule_weighted, rule_weighted),
            "{role:?} weighted {:?} vs flat {rule_weighted:?} {when}",
            got.rule_weighted
        );
    }
}

#[test]
fn headline_equals_a_fresh_batch_after_every_delta() {
    for seed in [0xC0FFEE, 7] {
        let mut run = Run::new(seed);
        check(&mut run, &format!("at boot (seed {seed:#x})"));
        for i in 0..STEPS {
            let what = run.step(i);
            check(
                &mut run,
                &format!("after step {i}: {what} (seed {seed:#x})"),
            );
        }
        assert!(
            run.engine.gc_collections() > 0 && run.engine.version() > STEPS as u64 / 2,
            "seed {seed:#x} exercised too little: {} collections, version {}",
            run.engine.gc_collections(),
            run.engine.version()
        );
    }
}
