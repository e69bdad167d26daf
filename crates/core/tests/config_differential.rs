//! The engine's two config-coverage queries against the oracle fold.
//!
//! `CoverageEngine::config_coverage` marks backwards over the routing
//! DAG, and `construct_coverage` walks forwards from one construct.
//! Neither builds the per-key attribution sets that
//! `RoutingEngine::config_db` builds. This test folds the covered sets
//! through that database ([`config_oracle::compute`]) after every step
//! of a seeded delta sequence. It runs on a loopback + connected fat-tree
//! at k=4 and on the paper's k=6 fat-tree. Each has `config_audit`'s
//! dark static planted on the first core. Each also has one
//! user route on an installed key and one on a prefix routing does not
//! manage. The steps are link and device down/up, test add/remove, rule
//! insert/withdraw and collections. After each step the summary must
//! equal the oracle's, as a value and as the daemon's body. Every live
//! construct's drill-down must equal the oracle's entry, both sums to the
//! bit. Every construct that is no longer live must have no drill-down.
//! A fixed prologue makes sure each seed meets a dead ECMP edge under
//! an exercised key, and a static shadowed by two more-specific halves.

mod config_oracle;

use std::collections::BTreeSet;

use netbdd::Bdd;
use netmodel::provenance::Construct;
use netmodel::rule::{RouteClass, Rule};
use netmodel::topology::DeviceId;
use netmodel::{header, Location, Prefix, RuleId};
use routing::{StaticRoute, StaticTarget, TopologyDelta};
use topogen::{fattree_builder, FatTreeParams};
use yardstick::daemon::{handle, Request};
use yardstick::rng::splitmix64;
use yardstick::{CoverageEngine, CoverageTrace, PortableTrace};

/// `config_audit`'s dark static: TEST-NET-1, null-routed on the first
/// core, which no ToR prefix overlaps.
const DARK: &str = "192.0.2.0/24";
/// Two routes that together shadow the dark static's rule.
const HALVES: [&str; 2] = ["192.0.2.0/25", "192.0.2.128/25"];
/// A prefix no construct originates or statically routes.
const UNMANAGED: &str = "198.51.100.0/24";

struct Run {
    engine: CoverageEngine,
    rng: u64,
    dark_core: DeviceId,
    tors: Vec<(DeviceId, Prefix)>,
    links: Vec<(DeviceId, DeviceId)>,
    /// Every construct of the healthy network.
    all: Vec<Construct>,
    links_down: BTreeSet<(DeviceId, DeviceId)>,
    devices_down: BTreeSet<DeviceId>,
    tests: Vec<String>,
    /// Tests added so far, for fresh names.
    added: usize,
    /// Rules this run inserted and has not withdrawn.
    inserted: Vec<(DeviceId, Rule)>,
    /// Where the run is, for failure messages.
    at: String,
}

impl Run {
    fn boot(params: FatTreeParams, seed: u64) -> Run {
        let mut builder = fattree_builder(params);
        let dark_core = builder.cores[0];
        builder.rb.add_static(StaticRoute {
            device: dark_core,
            prefix: DARK.parse().unwrap(),
            target: StaticTarget::Null,
            class: RouteClass::Other,
        });
        let (ft, routing) = builder.into_engine();
        let all = routing.config_db().constructs.into_iter().collect();
        let links = routing.link_endpoints();
        let mut engine = CoverageEngine::new(ft.net, 1);
        engine.attach_routing(routing);
        Run {
            engine,
            rng: seed,
            dark_core,
            tors: ft.tors.iter().map(|t| (t.0, t.1)).collect(),
            links,
            all,
            links_down: BTreeSet::new(),
            devices_down: BTreeSet::new(),
            tests: Vec::new(),
            added: 0,
            inserted: Vec::new(),
            at: format!("{params:?} seed {seed:#x} boot"),
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        (splitmix64(&mut self.rng) % n as u64) as usize
    }

    fn device(&mut self) -> DeviceId {
        DeviceId(self.pick(self.engine.network().topology().device_count()) as u32)
    }

    fn tor_prefix(&mut self) -> Prefix {
        let at = self.pick(self.tors.len());
        self.tors[at].1
    }

    fn topology(&mut self, delta: TopologyDelta) {
        self.engine.apply_topology(&delta).unwrap();
    }

    fn toggle_link(&mut self, (a, b): (DeviceId, DeviceId)) {
        if self.links_down.remove(&(a, b)) {
            self.topology(TopologyDelta::LinkUp { a, b });
        } else {
            self.links_down.insert((a, b));
            self.topology(TopologyDelta::LinkDown { a, b });
        }
    }

    fn toggle_device(&mut self, device: DeviceId) {
        if self.devices_down.remove(&device) {
            self.topology(TopologyDelta::DeviceUp { device });
        } else {
            self.devices_down.insert(device);
            self.topology(TopologyDelta::DeviceDown { device });
        }
    }

    fn add_test(&mut self, name: String, trace: PortableTrace) {
        self.engine.add_test(&name, &trace).unwrap();
        self.added += 1;
        self.tests.push(name);
    }

    fn insert(&mut self, device: DeviceId, rule: Rule) {
        self.engine.insert_rule(device, rule.clone()).unwrap();
        self.inserted.push((device, rule));
    }

    fn withdraw(&mut self, at: usize) {
        let (device, rule) = self.inserted.remove(at);
        let table = self.engine.network().device_rules(device);
        let index = table.iter().position(|r| *r == rule).unwrap() as u32;
        self.engine.withdraw_rule(RuleId { device, index }).unwrap();
    }

    /// Both queries against the oracle fold over the engine's own
    /// `config_db`, in the engine's own manager (so the sums compare
    /// bit for bit).
    fn check(&mut self) {
        let at = &self.at;
        let db = self.engine.routing().unwrap().config_db();
        let (a, bdd) = self.engine.analyzer();
        let (net, ms, covered) = (a.network(), a.match_sets(), a.covered_sets());
        let oracle = config_oracle::compute(net, ms, covered, bdd, &db);

        let summary = self.engine.config_coverage().unwrap();
        assert_eq!(summary, oracle.summary(), "summary, {at}");
        let req = Request::new("GET", "/config-coverage", "");
        let body = handle(&mut self.engine, &req).body;
        assert_eq!(
            body,
            oracle.summary_body(self.engine.version()),
            "body, {at}"
        );

        for want in &oracle.constructs {
            let c = want.construct;
            let got = self.engine.construct_coverage(&c).unwrap();
            let got = got.unwrap_or_else(|| panic!("no drill-down for live {c}, {at}"));
            assert_eq!(got.rules, want.rules, "footprint of {c}, {at}");
            assert_eq!(got.covered, want.covered, "covered bit of {c}, {at}");
            let sums = |e: &yardstick::ConstructCoverage| {
                (
                    e.match_probability.to_bits(),
                    e.covered_probability.to_bits(),
                )
            };
            assert_eq!(sums(&got), sums(want), "sums of {c}, {at}");
        }
        for c in &oracle.unreferenced {
            let got = self.engine.construct_coverage(c).unwrap();
            let got = got.unwrap_or_else(|| panic!("no drill-down for live {c}, {at}"));
            let empty = (got.rules.is_empty(), got.covered, got.match_probability);
            assert_eq!(empty, (true, false, 0.0), "unreferenced {c}, {at}");
        }
        for c in self.all.iter().filter(|c| !db.constructs.contains(c)) {
            let got = self.engine.construct_coverage(c).unwrap();
            assert!(got.is_none(), "a drill-down for dead {c}, {at}");
        }
    }

    /// The cases a seeded sequence might miss.
    fn prologue(&mut self) {
        self.check();

        // Exercise everything tor 0 routes, then cut one of its uplinks:
        // its distances survive through the other uplinks, so the dead
        // link still joins a key to a parent one step closer.
        let tor = self.tors[0].0;
        self.add_test(
            "probe".into(),
            trace(tor, "10.0.0.0/8".parse().unwrap(), None),
        );
        self.check();
        let uplink = *self
            .links
            .iter()
            .find(|l| l.0 == tor || l.1 == tor)
            .unwrap();
        self.toggle_link(uplink);
        self.at = format!("{} / a tor uplink down", self.at);
        self.check();
        self.toggle_link(uplink);

        // Shadow the dark static's only rule, then lift the shadow.
        for half in HALVES {
            self.insert(
                self.dark_core,
                Rule::null_route(half.parse().unwrap(), RouteClass::Other),
            );
        }
        self.at = format!("{} / the dark static shadowed", self.at);
        self.check();
        self.withdraw(1);
        self.withdraw(0);

        // The two user routes the run keeps: an agg's own copy of a
        // remote ToR prefix (an installed key) and an unmanaged prefix.
        let agg = if uplink.0 == tor { uplink.1 } else { uplink.0 };
        let remote = self.tors[self.tors.len() - 1].1;
        self.insert(agg, Rule::null_route(remote, RouteClass::Other));
        let unmanaged = UNMANAGED.parse().unwrap();
        self.insert(tor, Rule::null_route(unmanaged, RouteClass::Other));
    }

    /// One seeded step; returns what it did.
    fn step(&mut self) -> String {
        match self.pick(10) {
            0 | 1 => {
                let at = self.pick(self.links.len());
                let link = self.links[at];
                self.toggle_link(link);
                format!("toggle link {link:?}")
            }
            2 => {
                let down = self.devices_down.first().copied();
                let device = match down {
                    Some(down) if self.pick(2) == 0 => down,
                    _ => self.device(),
                };
                self.toggle_device(device);
                format!("toggle device {device:?}")
            }
            3 | 4 => {
                let device = self.device();
                let prefix = match self.pick(4) {
                    0 => "10.0.0.0/8".parse().unwrap(),
                    1 => HALVES[self.pick(2)].parse().unwrap(),
                    _ => self.tor_prefix(),
                };
                let len = self.engine.network().device_rules(device).len();
                let inspect = (self.pick(3) == 0 && len > 0).then(|| self.pick(len) as u32);
                let name = format!("t{}", self.added);
                self.add_test(name.clone(), trace(device, prefix, inspect));
                format!("add {name}: {prefix} at {device:?}, inspecting {inspect:?}")
            }
            5 if !self.tests.is_empty() => {
                let at = self.pick(self.tests.len());
                let name = self.tests.remove(at);
                self.engine.remove_test(&name).unwrap();
                format!("remove {name}")
            }
            6 | 7 => {
                let (device, rule) = match self.pick(4) {
                    0 => {
                        let half = HALVES[self.pick(2)].parse().unwrap();
                        (self.dark_core, Rule::null_route(half, RouteClass::Other))
                    }
                    1 => {
                        let mut rule = Rule::null_route(self.tor_prefix(), RouteClass::Other);
                        rule.matches.dport = Some((23, 23)); // not a route
                        (self.device(), rule)
                    }
                    2 => {
                        let unmanaged = UNMANAGED.parse().unwrap();
                        (
                            self.device(),
                            Rule::null_route(unmanaged, RouteClass::Other),
                        )
                    }
                    _ => (
                        self.device(),
                        Rule::null_route(self.tor_prefix(), RouteClass::Other),
                    ),
                };
                let what = format!("insert {:?} at {device:?}", rule.matches);
                self.insert(device, rule);
                what
            }
            8 if !self.inserted.is_empty() => {
                let at = self.pick(self.inserted.len());
                let what = format!("withdraw {:?}", self.inserted[at]);
                self.withdraw(at);
                what
            }
            _ => {
                self.engine.gc();
                "gc".into()
            }
        }
    }
}

/// A portable trace marking `prefix` at `device`, optionally inspecting
/// one rule of its table.
fn trace(device: DeviceId, prefix: Prefix, inspect: Option<u32>) -> PortableTrace {
    let mut bdd = Bdd::new();
    let mut t = CoverageTrace::new();
    let set = header::dst_in(&mut bdd, &prefix);
    t.add_packets(&mut bdd, Location::device(device), set);
    if let Some(index) = inspect {
        t.add_rule(RuleId { device, index });
    }
    t.export(&bdd)
}

fn run(params: FatTreeParams, seed: u64, steps: usize) {
    let mut run = Run::boot(params, seed);
    run.prologue();
    for i in 0..steps {
        run.at = format!("{params:?} seed {seed:#x} step {i}");
        let what = run.step();
        run.at = format!("{}: {what}", run.at);
        run.check();
    }
}

/// Loopback groups and connected statics, whose next-hops die with
/// their links.
#[test]
fn both_queries_match_the_oracle_fold_at_k4() {
    let params = FatTreeParams {
        k: 4,
        loopbacks: true,
        connected: true,
    };
    run(params, 0xC0FFEE, 48);
}

/// `config_audit`'s network, one size up.
#[test]
fn both_queries_match_the_oracle_fold_at_k6() {
    run(FatTreeParams::paper(6), 7, 32);
}
