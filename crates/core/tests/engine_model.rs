//! One seeded model test for the resident engine, and its one
//! differential harness.
//!
//! A k=4 fat-tree with connected routes and no loopback routes — so an
//! aggregation router's failure puts all three kinds of device in one
//! FIB diff: the downed one, neighbours that lose a connected /31, and
//! devices whose entries are only replaced (a loopback /32 would be in
//! every table and refresh them all) — boots a [`CoverageEngine`] with
//! routing and a low GC watermark. A seeded run sends it rule, test and
//! topology deltas, reads and requests it must refuse, all through
//! [`handle`], with collections in between; the model keeps only what its
//! requests said. After every step a refusal must have changed nothing
//! (version, tables, tests, arena nodes), an applied delta must be the
//! one record `/delta-since` reports, and the resident shards and action
//! classes must be the `Ref`s a batch compute in the engine's own manager
//! gives, with every inspected rule's `T[r]` its `M[r]`. A `/covers`
//! answer must be [`CoverageEngine::rule_coverage`] at the current
//! version, and a repeat read the same bytes from one query-cache hit.
//! After a topology delta, a device whose diff only replaced rules keeps
//! every `T[r]` as the `Ref` it was. At checkpoints the engine must equal
//! a from-scratch batch in a fresh manager (covered sets, per-rule,
//! headline and role metrics), a control plane rebuilt from scratch (the
//! FIB) and a fresh engine (reachability). Every eighth step also reads
//! `/config-coverage` and one `?construct=` drill-down, drawn from a
//! random stream of their own so the requests sent are the same with or
//! without them; at checkpoints the summary must be the oracle fold's
//! through the provenance of a control plane built from scratch. Each
//! seed must reach every delta kind, every refusal, a collection, both
//! config reads and an aggregation router's failure whose diff holds all
//! three kinds of device, so a model that stops exercising a path fails.
//!
//! A last arm writes arbitrary bytes to a loopback socket, reads them
//! back with [`read_request`] and hands whatever request they make to
//! [`handle`]: nothing may panic, and an answer other than 200 must
//! change nothing.
//!
//! [`read_request`]: yardstick::daemon::read_request

#[path = "engine_model/batch.rs"]
mod batch;
mod config_oracle;
#[path = "engine_model/wire.rs"]
mod wire;

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use netbdd::{Bdd, Ref};
use netmodel::header;
use netmodel::provenance::Construct;
use netmodel::topology::{DeviceId, Role};
use netmodel::{MatchFields, MatchSetCache, MatchSets, Network, Prefix, Rule, RuleId};
use netobs::json::{self, Json};
use proptest::prelude::*;
use topogen::{fattree_with_engine, FatTreeParams};
use yardstick::daemon::{handle, Request, Response};
use yardstick::rng::splitmix64;
use yardstick::{
    Aggregator, Analyzer, CoverageEngine, CoveredSets, HeadlineMetrics, PortableTrace,
};

use batch::{combine, flat_role_metrics, reach_everywhere};
use wire::{
    declares_a_longer_body, insert, mark_trace, over_loopback, raw_test_add, test_add, topo,
    withdraw,
};

/// Prefixes the inserted rules and the test marks draw from, overlapping
/// each other and the installed routes on purpose. None is a prefix the
/// routing engine installs, so an inserted rule is never one it manages.
#[rustfmt::skip]
const PREFIXES: &[&str] = &[
    "10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/25", "10.0.1.128/25", "10.0.2.7/32",
    "10.1.0.0/16", "172.16.0.0/30",
];

/// The delta kinds every seed must have applied.
#[rustfmt::skip]
const KINDS: &[&str] = &[
    "rule-inserted", "rule-withdrawn", "test-added", "test-removed",
    "link-down", "link-up", "device-down", "device-up",
];

/// The requests every seed must have seen refused, sent in turn, and
/// the status each is refused with.
#[rustfmt::skip]
const REFUSALS: &[(&str, u16)] = &[
    ("unknown device", 404), ("unknown rule", 404), ("unknown test", 404),
    ("unknown link", 404), ("double down", 400), ("mixed ingress", 400),
    ("duplicate test", 400), ("malformed JSON", 400), ("unknown kind", 400),
    ("malformed snapshot", 400), ("off-header variable", 400), ("deep nesting", 400),
    ("foreign interface", 400), ("malformed second location", 400),
    ("control-plane route", 400),
];

/// What a refused request may not move: the version, every table, the
/// registered tests and the arena's node count.
type State = (u64, Vec<Vec<Rule>>, Vec<String>, usize);

struct Model {
    engine: CoverageEngine,
    rng: u64,
    tors: Vec<DeviceId>,
    aggs: Vec<DeviceId>,
    /// Registered tests and their traces: the batch side's inputs.
    tests: Vec<(String, PortableTrace)>,
    /// Rules the model inserted and has not withdrawn.
    inserted: Vec<(DeviceId, Prefix)>,
    /// Links that are down, and aggregation routers as `(agg, agg)`.
    down: BTreeSet<(DeviceId, DeviceId)>,
    accepted: BTreeSet<String>,
    refused: BTreeSet<&'static str>,
    /// Refusals sent so far; the next is `REFUSALS[refusals % len]`.
    refusals: usize,
    /// The config reads' own stream, and how many summaries and live
    /// drill-downs were answered.
    config_rng: u64,
    config_reads: (usize, usize),
    /// Aggregation-router failures whose diff held all three kinds of
    /// device: the router, neighbours that lost a /31, and at least 8
    /// devices whose entries were only replaced.
    mixed_diffs: usize,
    /// Where the run is, for failure messages.
    at: String,
}

impl Model {
    fn boot(seed: u64) -> Model {
        let params = FatTreeParams {
            k: 4,
            loopbacks: false,
            connected: true,
        };
        let (ft, routing) = fattree_with_engine(params);
        let mut engine = CoverageEngine::new(ft.net, 1);
        engine.attach_routing(routing);
        let nodes = engine.analyzer().1.node_count();
        engine.set_gc_watermark(Some(nodes + nodes / 4));
        Model {
            engine,
            rng: seed,
            tors: ft.tors.iter().map(|t| t.0).collect(),
            aggs: ft.aggs,
            tests: Vec::new(),
            inserted: Vec::new(),
            down: BTreeSet::new(),
            accepted: BTreeSet::new(),
            refused: BTreeSet::new(),
            refusals: seed as usize,
            config_rng: !seed,
            config_reads: (0, 0),
            mixed_diffs: 0,
            at: format!("seed {seed:#x} prologue"),
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

    fn tor(&mut self) -> DeviceId {
        let at = self.pick(self.tors.len());
        self.tors[at]
    }

    fn table_len(&self, device: DeviceId) -> usize {
        self.engine.network().device_rules(device).len()
    }

    fn state(&mut self) -> State {
        let nodes = self.engine.analyzer().1.node_count();
        let net = self.engine.network();
        let devices = net.topology().devices();
        let tables = devices.map(|(d, _)| net.device_rules(d).to_vec()).collect();
        let tests = self.engine.test_names().map(String::from).collect();
        (self.engine.version(), tables, tests, nodes)
    }

    /// Send one request, check the status and what every answer must
    /// satisfy, and audit the shards.
    fn expect(&mut self, method: &str, target: &str, body: &str, status: u16) -> Response {
        let before = self.state();
        let resp = handle(&mut self.engine, &Request::new(method, target, body));
        let at = format!("{}: {method} {target} {body:.100}", self.at);
        assert_eq!(resp.status, status, "{at}: {}", resp.body);
        if status != 200 {
            assert!(self.state() == before, "a refusal changed the engine, {at}");
        } else if target == "/delta" {
            assert_eq!(self.engine.version(), before.0 + 1, "{at}");
            let answer = json::parse(&resp.body).unwrap();
            let since = format!("/delta-since?trace={}", before.0);
            let tail = handle(&mut self.engine, &Request::new("GET", &since, ""));
            let tail = json::parse(&tail.body).unwrap();
            let [record] = tail.get("deltas").and_then(Json::as_array).unwrap() else {
                panic!("not one record after an applied delta, {at}");
            };
            for key in ["version", "detail", "devices"] {
                assert_eq!(record.get(key), answer.get(key), "{key}, {at}");
            }
            let kind = record.get("kind").and_then(Json::as_str).unwrap();
            self.accepted.insert(kind.to_string());
        } else {
            let after = self.state();
            let same = (after.0, after.1, after.2) == (before.0, before.1, before.2);
            assert!(same, "a read changed the engine, {at}");
        }
        self.audit(&at);
        resp
    }

    fn delta(&mut self, body: &str) {
        self.expect("POST", "/delta", body, 200);
    }

    /// Register a test with the model first, so the audit after the
    /// delta counts it.
    fn add_test(&mut self, name: String, trace: PortableTrace) {
        let body = test_add(&name, &trace);
        self.tests.push((name, trace));
        self.delta(&body);
    }

    /// Take a link (or, as `(agg, agg)`, a router) down, or bring it up
    /// if it is down. A device whose diff only replaced rules keeps every
    /// `T[r]` as the `Ref` it was, unless a collection moved them all;
    /// an aggregation router's failure counts toward the per-seed floor
    /// when its diff holds all three kinds of device.
    fn toggle(&mut self, target: (DeviceId, DeviceId)) -> String {
        let was_down = self.down.remove(&target);
        if !was_down {
            self.down.insert(target);
        }
        let body = topo(["down", "up"][was_down as usize], target);
        let before = self.engine.network().clone();
        let (a, _) = self.engine.analyzer();
        let marked: BTreeMap<RuleId, Ref> = before
            .rules()
            .map(|(id, _)| (id, a.covered_sets().get(id)))
            .collect();
        let gcs = self.engine.gc_collections();
        let answer = json::parse(&self.expect("POST", "/delta", &body, 200).body).unwrap();
        let devices = answer.get("devices").and_then(Json::as_array).unwrap();
        let changed = devices.iter().map(|d| DeviceId(d.as_f64().unwrap() as u32));

        let net = self.engine.network();
        let fields = |n: &Network, d| -> Vec<MatchFields> {
            n.device_rules(d)
                .iter()
                .map(|r| r.matches.clone())
                .collect()
        };
        let slash31s = |n: &Network, d| {
            let rules = n.device_rules(d).iter();
            rules
                .filter(|r| r.matches.dst.is_some_and(|p| p.len() == 31))
                .count()
        };
        let (kept, refreshed): (Vec<DeviceId>, Vec<DeviceId>) =
            changed.partition(|&d| fields(&before, d) == fields(net, d));
        let lost_31 = refreshed
            .iter()
            .filter(|&&d| slash31s(net, d) < slash31s(&before, d));
        let (router, _) = target;
        let neighbours = lost_31.filter(|&&d| d != router).count();
        let failed_agg = target.0 == target.1 && !was_down && self.aggs.contains(&router);
        if failed_agg && refreshed.contains(&router) && neighbours > 0 && kept.len() >= 8 {
            self.mixed_diffs += 1;
        }
        let ids: Vec<RuleId> = kept.iter().flat_map(|&d| net.device_rule_ids(d)).collect();
        if gcs == self.engine.gc_collections() {
            let (a, _) = self.engine.analyzer();
            for id in ids {
                let (now, at) = (a.covered_sets().get(id), &self.at);
                assert_eq!(now, marked[&id], "T[{id:?}] replaced only, {at}: {body}");
            }
        }
        body
    }

    /// The resident shards against a batch compute in the engine's own
    /// manager, `Ref` for `Ref`, and every inspected rule's `T[r]` its
    /// `M[r]`. The batch compiles its matches with a fresh cache; the
    /// `Ref`s are the same because the manager hash-conses.
    fn audit(&mut self, at: &str) {
        let (a, bdd) = self.engine.analyzer();
        let (net, ms, covered) = (a.network(), a.match_sets(), a.covered_sets());
        let combined = combine(&self.tests, bdd);
        let fresh = MatchSets::compute_cached(net, bdd, &mut MatchSetCache::new());
        let fresh_covered = CoveredSets::compute(net, &fresh, &combined, bdd);
        for (id, _) in net.rules() {
            assert_eq!(ms.get(id), fresh.get(id), "M[{id:?}], {at}");
            assert_eq!(covered.get(id), fresh_covered.get(id), "T[{id:?}], {at}");
        }
        let live = |id: &&RuleId| (id.index as usize) < net.device_rules(id.device).len();
        for id in self.tests.iter().flat_map(|(_, t)| t.rules()).filter(live) {
            assert_eq!(covered.get(*id), ms.get(*id), "inspected T[{id:?}], {at}");
        }
        for (d, _) in net.topology().devices() {
            let resident = ms.action_classes(net, bdd, d).to_vec();
            let built = fresh.action_classes(net, bdd, d);
            assert_eq!(resident, built, "action classes of {d:?}, {at}");
        }
    }

    /// Severing tor 0's uplinks takes its last rule away and recovery
    /// brings the same answer back; the topology wire errors are mapped.
    fn prologue(&mut self) {
        let (tor, other) = (self.tors[0], self.tors[1]);
        let neighbors = self.engine.network().topology().neighbors(tor);
        let uplinks: Vec<DeviceId> = neighbors.iter().map(|n| n.1).collect();
        let trace = mark_trace(tor, "10.0.0.0/8".parse().unwrap(), None);
        self.add_test("probe".into(), trace);
        let last = self.table_len(tor) - 1;
        let before = self.covers(tor, last);
        assert_eq!(before.status, 200, "{}", before.body);
        self.expect("POST", "/delta", &topo("down", (tor, other)), 404);
        let ghost = DeviceId(999);
        self.expect("POST", "/delta", &topo("down", (ghost, ghost)), 404);
        for &agg in &uplinks {
            self.delta(&topo("down", (tor, agg)));
        }
        let again = self.expect("POST", "/delta", &topo("down", (tor, uplinks[0])), 400);
        assert!(again.body.contains("already down"), "{}", again.body);
        assert_eq!(
            self.covers(tor, last).status,
            404,
            "the severed ToR kept rule {last}"
        );
        for &agg in &uplinks {
            self.delta(&topo("up", (tor, agg)));
        }
        let after = self.covers(tor, last);
        // Everything after the version is the coverage answer.
        let (_, want) = before.body.split_once("\"match").unwrap();
        assert_eq!(after.body.split_once("\"match").unwrap().1, want);

        let mut bare = CoverageEngine::new(self.engine.network().clone(), 1);
        let down = topo("down", (tor, uplinks[0]));
        let resp = handle(&mut bare, &Request::new("POST", "/delta", &down));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("no routing engine"), "{}", resp.body);
        assert_eq!(bare.version(), 0);
    }

    /// Send one seeded request (or collect); returns what it did.
    fn step(&mut self, i: usize) -> String {
        match self.pick(20) {
            0..=2 => {
                let (device, prefix) = (self.device(), self.prefix());
                let ifaces = self.engine.network().topology().neighbors(device);
                let out = ifaces[self.pick(ifaces.len())].0 .0;
                let out = match self.pick(3) {
                    0 => String::new(), // a null route
                    _ => format!(r#","out_ifaces":[{out}]"#),
                };
                self.delta(&insert(device, &format!(r#"{{"dst":"{prefix}"{out}}}"#)));
                self.inserted.push((device, prefix));
                format!("insert {prefix} at {device:?}")
            }
            3 | 4 if !self.inserted.is_empty() => {
                let at = self.pick(self.inserted.len());
                let (device, prefix) = self.inserted.remove(at);
                let table = self.engine.network().device_rules(device);
                let index = table.iter().position(|r| r.matches.dst == Some(prefix));
                self.delta(&withdraw(device, index.unwrap()));
                format!("withdraw {prefix} at {device:?}")
            }
            5 | 6 => {
                let (device, prefix) = (self.device(), self.prefix());
                let len = self.table_len(device);
                let inspect = (self.pick(2) == 0 && len > 0).then(|| self.pick(len) as u32);
                let name = format!("t{i}");
                self.add_test(name.clone(), mark_trace(device, prefix, inspect));
                format!("add {name}: {prefix} at {device:?}, inspecting {inspect:?}")
            }
            7 if !self.tests.is_empty() => {
                let at = self.pick(self.tests.len());
                let (name, _) = self.tests.remove(at);
                self.delta(&format!(r#"{{"kind":"test-remove","name":"{name}"}}"#));
                format!("remove {name}")
            }
            // Half the time, bring back what is down; else flap a ToR
            // uplink on even steps, an aggregation router on odd ones.
            8..=11 => match self.down.first().copied() {
                Some(down) if self.pick(2) == 0 => self.toggle(down),
                _ if i.is_multiple_of(2) => {
                    let tor = self.tor();
                    let aggs = self.engine.network().topology().neighbors(tor);
                    let agg = aggs[self.pick(aggs.len())].1;
                    self.toggle((tor, agg))
                }
                _ => {
                    let at = self.pick(self.aggs.len());
                    self.toggle((self.aggs[at], self.aggs[at]))
                }
            },
            12 => {
                self.engine.gc();
                self.audit(&format!("{}: gc", self.at));
                "gc".into()
            }
            13 => self.read(),
            _ => self.refuse(i),
        }
    }

    /// A `/covers`, `/metrics` or `/delta-since` read.
    fn read(&mut self) -> String {
        match self.pick(3) {
            0 => {
                let device = self.device();
                let index = self.pick(self.table_len(device) + 1);
                self.covers(device, index);
                format!("/covers?rule={}.{index}", device.0)
            }
            1 => {
                self.expect("GET", "/metrics", "", 200);
                "/metrics".into()
            }
            _ => {
                let version = self.engine.version() as usize;
                let since = self.pick(version + 1);
                let target = format!("/delta-since?trace={since}");
                let doc = json::parse(&self.expect("GET", &target, "", 200).body).unwrap();
                let deltas = doc.get("deltas").and_then(Json::as_array).unwrap();
                assert_eq!(since + deltas.len(), version, "{}: {target}", self.at);
                target
            }
        }
    }

    /// A `/covers` read of one rule: a 404 past the end of its table,
    /// else [`CoverageEngine::rule_coverage`] at the current version, and
    /// a repeat read is the same bytes from one query-cache hit.
    fn covers(&mut self, device: DeviceId, index: usize) -> Response {
        let target = format!("/covers?rule={}.{index}", device.0);
        let len = self.table_len(device);
        let resp = self.expect("GET", &target, "", if index < len { 200 } else { 404 });
        if resp.status == 200 {
            let at = format!("{}: {target}", self.at);
            let doc = json::parse(&resp.body).unwrap();
            let num = |key| doc.get(key).and_then(Json::as_f64);
            let exercised = doc.get("exercised").and_then(Json::as_bool);
            let (p, t) = (num("match_probability"), num("covered_probability"));
            let got = (num("version"), p, t, num("coverage"), exercised);
            let version = self.engine.version() as f64;
            let c = self.engine.rule_coverage(RuleId {
                device,
                index: index as u32,
            });
            let c = c.unwrap();
            let (p, t) = (Some(c.match_probability), Some(c.covered_probability));
            let want = (Some(version), p, t, c.coverage, Some(c.exercised));
            assert_eq!(got, want, "answer against rule_coverage, {at}");
            let hits = self.engine.query_cache_stats().hits;
            assert_eq!(
                self.expect("GET", &target, "", 200),
                resp,
                "repeat read, {at}"
            );
            let hits = self.engine.query_cache_stats().hits - hits;
            assert_eq!(hits, 1, "query-cache hits of the repeat read, {at}");
        }
        resp
    }

    /// A `/config-coverage` summary and the drill-down of one link's
    /// session: a 404 when the model took the link or an endpoint down.
    fn config_read(&mut self) {
        self.expect("GET", "/config-coverage", "", 200);
        self.config_reads.0 += 1;
        let links = self.engine.routing().unwrap().link_endpoints();
        let (a, b) = links[(splitmix64(&mut self.config_rng) % links.len() as u64) as usize];
        let dead = [(a, b), (b, a), (a, a), (b, b)]
            .iter()
            .any(|t| self.down.contains(t));
        let session = Construct::session(a, b).wire_id();
        let target = format!("/config-coverage?construct={session}");
        self.expect("GET", &target, "", if dead { 404 } else { 200 });
        self.config_reads.1 += !dead as usize;
    }

    /// Send the next request the daemon must refuse, first applying what
    /// it needs (something down, a registered test) if the model has
    /// none.
    fn refuse(&mut self, i: usize) -> String {
        let (class, status) = REFUSALS[self.refusals % REFUSALS.len()];
        self.refusals += 1;
        let tor = self.tor();
        let name = format!("x{i}");
        let body = match class {
            "unknown device" => {
                let at = DeviceId(20 + self.pick(100) as u32);
                let dst = format!("10.{}.{}.0/31", self.pick(256), self.pick(256));
                test_add(&name, &mark_trace(at, dst.parse().unwrap(), None))
            }
            "unknown rule" => withdraw(tor, self.table_len(tor) + self.pick(3)),
            "unknown test" => format!(r#"{{"kind":"test-remove","name":"{name}"}}"#),
            // No two ToRs are linked.
            "unknown link" => topo("down", (tor, self.tors[(self.tors[0] == tor) as usize])),
            "double down" => {
                if self.down.is_empty() {
                    self.toggle((self.aggs[0], self.aggs[0]));
                }
                topo("down", *self.down.first().unwrap())
            }
            "mixed ingress" => {
                let ingress = self.engine.network().topology().neighbors(tor)[0].0 .0;
                let rule = format!(r#"{{"dst":"{}","in_iface":{ingress}}}"#, self.prefix());
                insert(tor, &rule)
            }
            "duplicate test" => {
                if self.tests.is_empty() {
                    let prefix = self.prefix();
                    self.add_test(name.clone(), mark_trace(tor, prefix, None));
                }
                test_add(&self.tests[0].0, &self.tests[0].1)
            }
            "malformed JSON" => "{nope".into(),
            "unknown kind" => r#"{"kind":"teleport"}"#.into(),
            // Well formed up to its last node, which is out of order.
            "malformed snapshot" => raw_test_add(&name, "[[180,0,1],[170,2,1],[170,0,4]]", 6),
            "off-header variable" => {
                let var = header::NVARS as usize + self.pick(100);
                raw_test_add(&name, &format!("[[{var},0,1]]"), 2)
            }
            "deep nesting" => "[".repeat(100_000),
            // Another ToR's interface, or none at all, under this ToR.
            "foreign interface" => {
                let other = self.tors[(self.tors[0] == tor) as usize];
                let foreign = self.engine.network().topology().neighbors(other)[0].0 .0;
                let iface = [foreign, 999][self.pick(2)];
                let packets = format!(
                    r#"{{"device":{},"iface":{iface},"nodes":[],"root":0}}"#,
                    tor.0
                );
                format!(
                    r#"{{"kind":"test-add","name":"{name}","trace":{{"packets":[{packets}]}}}}"#
                )
            }
            // A well-formed snapshot new to the arena, then the
            // "malformed snapshot" one: nothing may be built for either.
            "malformed second location" => {
                let good = r#"{"device":0,"nodes":[[190,0,1],[185,2,1]],"root":4}"#;
                let bad = r#"{"device":1,"nodes":[[180,0,1],[170,2,1],[170,0,4]],"root":6}"#;
                format!(
                    r#"{{"kind":"test-add","name":"{name}","trace":{{"packets":[{good},{bad}]}}}}"#
                )
            }
            // A route the routing engine installed: a topology delta
            // withdraws it, a rule delta may not.
            "control-plane route" => {
                let routing = self.engine.routing().unwrap();
                let table = self.engine.network().device_rules(tor);
                let managed = |r: &Rule| routing.installed_rule(tor, r.matches.dst.unwrap());
                let index = table.iter().position(|r| managed(r) == Some(r));
                withdraw(tor, index.unwrap())
            }
            other => unreachable!("{other}"),
        };
        let resp = self.expect("POST", "/delta", &body, status);
        let named = resp.body.contains("outside the 201-variable header");
        assert!(named || class != "off-header variable", "{}", resp.body);
        let named = resp.body.contains("installed by the control plane");
        assert!(named || class != "control-plane route", "{}", resp.body);
        self.refused.insert(class);
        format!("refused: {class}")
    }

    /// The engine against a from-scratch batch in a fresh manager and a
    /// control plane rebuilt from scratch.
    fn checkpoint(&mut self, what: &str) {
        let at = format!("{} ({what})", self.at);
        let net = self.engine.network().clone();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let combined = combine(&self.tests, &mut bdd);
        let covered = CoveredSets::compute(&net, &ms, &combined, &mut bdd);
        let batch = Analyzer::with_covered(&net, &ms, &combined, covered.clone());
        let (mut exercised, mut unshadowed) = (0usize, 0usize);
        for (id, _) in net.rules() {
            let (a, ebdd) = self.engine.analyzer();
            let got = ebdd.export(a.covered_sets().get(id));
            assert_eq!(got, bdd.export(covered.get(id)), "T[{id:?}] vs batch, {at}");
            let coverage = self.engine.rule_coverage(id).unwrap().coverage;
            assert_eq!(coverage, batch.rule_coverage(&mut bdd, id), "{id:?}, {at}");
            unshadowed += !ms.get(id).is_false() as usize;
            exercised += covered.is_exercised(id) as usize;
        }
        let want = HeadlineMetrics {
            rule_fractional: batch.aggregate_rules(&mut bdd, Aggregator::Fractional, |_, _| true),
            rule_weighted: batch.aggregate_rules(&mut bdd, Aggregator::Weighted, |_, _| true),
            device_fractional: batch
                .aggregate_devices(&mut bdd, Aggregator::Fractional, |_, _| true),
        };
        assert_eq!(self.engine.headline_metrics(), want, "headline, {at}");
        let counted = (unshadowed > 0).then(|| exercised as f64 / unshadowed as f64);
        assert_eq!(want.rule_fractional, counted, "exercised / live, {at}");
        for role in [Role::Tor, Role::Aggregation, Role::Spine] {
            let want = batch.role_metrics(&mut bdd, role);
            let (a, b) = self.engine.analyzer();
            let got = a.role_metrics(b, role);
            assert_eq!(got, want, "{role:?} role metrics, {at}");
            let flat = flat_role_metrics(&batch, &mut bdd, role);
            let counts = [want.device_fractional, want.rule_fractional];
            assert_eq!(counts, flat[..2], "{role:?} devices and rules, {at}");
            let close = match (want.rule_weighted, flat[2]) {
                (Some(x), Some(y)) => (x - y).abs() < 1e-12,
                (x, y) => x == y,
            };
            assert!(close, "{role:?} weighted {want:?} vs flat {flat:?}, {at}");
        }

        // The served FIB, less the model's own rules, is a rebuilt control plane's,
        // and the config summary is the oracle fold through its provenance.
        let routing = self.engine.routing().unwrap();
        let rebuilt = routing.full_rebuild().unwrap();
        let db = routing
            .degraded_builder()
            .into_engine()
            .unwrap()
            .0
            .config_db();
        let want = config_oracle::compute(&net, &ms, &covered, &mut bdd, &db);
        let want = want.summary_body(self.engine.version());
        let got = self.expect("GET", "/config-coverage", "", 200).body;
        assert_eq!(got, want, "config coverage, {at}");
        for (d, _) in net.topology().devices() {
            let ours = |r: &&Rule| self.inserted.contains(&(d, r.matches.dst.unwrap()));
            let served: Vec<&Rule> = net.device_rules(d).iter().filter(|r| !ours(r)).collect();
            let want: Vec<&Rule> = rebuilt.device_rules(d).iter().collect();
            assert_eq!(served, want, "FIB of {d:?}, {at}");
        }

        // A fresh engine would boot with the batch's match sets.
        let (a, ebdd) = self.engine.analyzer();
        let got = reach_everywhere(a.network(), a.match_sets(), ebdd);
        let want = reach_everywhere(&net, &ms, &mut bdd);
        let keys = got.keys().chain(want.keys());
        let differing: Vec<&String> = keys.filter(|k| got.get(*k) != want.get(*k)).collect();
        assert!(differing.is_empty(), "reach differs at {differing:?}, {at}");
    }
}

fn run(seed: u64) {
    let mut model = Model::boot(seed);
    model.prologue();
    for i in 0..80 {
        model.at = format!("seed {seed:#x} step {i}");
        let what = model.step(i);
        if i % 8 == 7 {
            model.config_read();
        }
        if i % 32 == 31 {
            model.checkpoint(&what);
        }
    }
    let kinds: BTreeSet<String> = KINDS.iter().map(|k| k.to_string()).collect();
    assert_eq!(model.accepted, kinds, "seed {seed:#x}: delta kinds applied");
    let refusals: BTreeSet<&str> = REFUSALS.iter().map(|r| r.0).collect();
    assert_eq!(model.refused, refusals, "seed {seed:#x}: refusals seen");
    assert!(model.engine.gc_collections() > 0, "seed {seed:#x}: no gc");
    let (summaries, drill_downs) = model.config_reads;
    assert!(
        summaries >= 8 && drill_downs >= 2,
        "seed {seed:#x}: config reads {:?}",
        model.config_reads
    );
    assert!(
        model.mixed_diffs > 0,
        "seed {seed:#x}: no router failure mixed all three kinds"
    );
}

#[test]
fn the_engine_matches_its_model_seed_c0ffee() {
    run(0xC0FFEE);
}

#[test]
fn the_engine_matches_its_model_seed_7() {
    run(7);
}

/// The breadth of a proptest over the same machine, at seeds fixed in
/// advance. CI runs it in release.
#[test]
#[ignore = "sixteen seeds; cargo test --release --test engine_model -- --ignored"]
fn the_engine_matches_its_model_seeds_1_to_16() {
    for seed in 1..=16 {
        run(seed);
    }
}

thread_local! {
    /// The engine the raw-bytes cases are served by, booted once.
    static SERVED: RefCell<Model> = RefCell::new(Model::boot(0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes on the socket, half of them as the body of a
    /// well-framed `/delta` (an arbitrary head is almost never UTF-8, and
    /// `read_request` refuses it): whatever request they make, `handle`
    /// does not panic, and an answer other than 200 changes nothing. The
    /// framing answers every case itself or passes it on, unless the
    /// bytes declare a body longer than they carry.
    #[test]
    fn raw_bytes_never_panic_and_a_refusal_changes_nothing(
        framed in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..=4096),
    ) {
        let mut wire = Vec::new();
        if framed {
            let head = format!("POST /delta HTTP/1.1\r\nContent-Length: {}\r\n\r\n", bytes.len());
            wire.extend_from_slice(head.as_bytes());
        }
        wire.extend_from_slice(&bytes);
        match over_loopback(&wire) {
            Ok(Ok(request)) => SERVED.with_borrow_mut(|model| {
                let before = model.state();
                let resp = handle(&mut model.engine, &request);
                let at = format!("{} {:.100}", request.path, request.body);
                assert!(resp.status == 200 || model.state() == before, "{at}: {resp:?}");
            }),
            Ok(Err(rejection)) => {
                assert!(matches!(rejection.status, 400 | 413 | 431), "{rejection:?}")
            }
            Err(e) => assert!(declares_a_longer_body(&wire), "{e}"),
        }
    }
}
