//! Coverage-guided test generation — closing gaps automatically.
//!
//! The gap report ([`crate::gaps`]) tells an engineer *what* to test
//! next; this module removes the engineer from the loop. Following the
//! P4Testgen arc (symbolic witnesses as an extensible test oracle), each
//! round walks the rules whose covered set is still empty, extracts a
//! deterministic witness packet from the rule's residual match set, and
//! synthesizes a concrete test around it:
//!
//! * **FIB-shaped rules** (forward/rewrite, and drops without a port
//!   match) become a [`TestSpec::Traceroute`]: inject the witness at the
//!   rule's device (on the rule's ingress interface when it has one) and
//!   pin the whole observed trace — device path and final outcome — as
//!   the expectation. The healthy network is the oracle, exactly as the
//!   mutation study's behavioural baseline assumes.
//! * **ACL-shaped rules** (drop + destination-port match) become a
//!   [`TestSpec::AclEntry`]: a state-inspection check that the device
//!   holds a deny entry covering the witness's port, mirroring
//!   `testsuite`'s `AclEntryCheck` semantics (and the mutate operator
//!   split: route mutants are caught behaviourally, ACL mutants by
//!   inspection).
//!
//! Each synthesized test is executed against the live network in the
//! engine's own manager, its trace fed back through
//! [`CoverageEngine::add_trace`], and the loop repeats
//! until every remaining gap is closed or known-permanent, or the test
//! budget runs out. Generation is deterministic and order-independent:
//! the witness for a rule depends only on the configured seed and the
//! rule's identity ([`rule_seed`] via [`yardstick::rng::seed_mix`]), so
//! the emitted suite is bit-identical from run to run and independent of
//! the order gaps are visited in.
//!
//! [`yardstick::rng::seed_mix`]: crate::rng::seed_mix

use std::collections::BTreeSet;
use std::fmt;

use dataplane::{traceroute, TraceOutcome, TraceResult};
use netbdd::{Bdd, Ref};
use netmodel::header::{sample_packet_with, Packet};
use netmodel::topology::DeviceId;
use netmodel::{IfaceId, Location, MatchSets, Network, RuleId};

use netmodel::provenance::Construct;

use crate::engine::{CoverageEngine, EngineError, HeadlineMetrics};
use crate::rng::seed_mix;
use crate::tracker::Tracker;

/// Hop budget for generated traceroutes (comfortably above any sane
/// forwarding diameter; loops are reported as [`ExpectedEnd::HopLimit`]).
pub const MAX_HOPS: usize = 32;

/// Base seed for gap-report witnesses ([`crate::gaps`]): a fixed policy
/// constant so batch gap reports are reproducible without configuration.
pub const WITNESS_SEED: u64 = 0x5EED_F00D;

/// Derive the witness seed for one rule: a pure function of `(base,
/// rule identity)`, independent of iteration order and arena layout.
pub fn rule_seed(base: u64, id: RuleId) -> u64 {
    seed_mix(base, (u64::from(id.device.0) << 32) | u64::from(id.index))
}

/// A deterministic member of `set`: witness extraction with every free
/// branch choice steered by bits derived from `seed`.
///
/// Forced branches are unaffected, so the result is always inside `set`;
/// the seed only picks *which* member. Two managers holding the same
/// function return the same packet for the same seed — canonical BDDs
/// have identical node structure — which is what makes gap witnesses
/// backend-invariant.
pub fn seeded_witness(bdd: &Bdd, set: Ref, seed: u64) -> Option<Packet> {
    sample_packet_with(bdd, set, |var| seed_mix(seed, u64::from(var)) & 1 == 1)
}

/// How a generated traceroute is expected to end.
///
/// Mirrors [`TraceOutcome`] minus the matched drop-rule id: rule identity
/// is positional and mutants (or deltas) renumber tables, so pinning the
/// id would fail the test on behaviourally identical networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpectedEnd {
    /// Delivered out a host-facing interface.
    Delivered {
        /// The delivering device.
        device: DeviceId,
        /// The host-facing egress interface.
        iface: IfaceId,
    },
    /// Left the network through an external interface.
    Exited {
        /// The border device.
        device: DeviceId,
        /// The external egress interface.
        iface: IfaceId,
    },
    /// Dropped at this device (by any rule).
    Dropped {
        /// The dropping device.
        device: DeviceId,
    },
    /// Matched no rule at this device.
    Unmatched {
        /// The device with no matching rule.
        device: DeviceId,
    },
    /// Exceeded the hop budget.
    HopLimit,
}

/// The pinned shape of a generated traceroute: the device path hop by
/// hop plus the terminal outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceExpectation {
    /// Devices traversed, in order.
    pub devices: Vec<DeviceId>,
    /// The terminal outcome.
    pub end: ExpectedEnd,
}

impl TraceExpectation {
    /// The expectation a completed trace satisfies.
    pub fn of(res: &TraceResult) -> TraceExpectation {
        let end = match res.outcome {
            TraceOutcome::Delivered { device, iface } => ExpectedEnd::Delivered { device, iface },
            TraceOutcome::Exited { device, iface } => ExpectedEnd::Exited { device, iface },
            TraceOutcome::Dropped { device, .. } => ExpectedEnd::Dropped { device },
            TraceOutcome::Unmatched { device } => ExpectedEnd::Unmatched { device },
            TraceOutcome::HopLimit => ExpectedEnd::HopLimit,
        };
        TraceExpectation {
            devices: res.devices(),
            end,
        }
    }
}

/// One synthesized test, self-contained and re-runnable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TestSpec {
    /// Behavioural: inject `packet` at `start` and require the trace to
    /// match `expect` (captured from the healthy network).
    Traceroute {
        /// Injection point.
        start: Location,
        /// The concrete witness packet.
        packet: Packet,
        /// The pinned healthy-network trace.
        expect: TraceExpectation,
    },
    /// State inspection: `device` must hold a deny entry covering
    /// destination port `port` (the `AclEntryCheck` semantics).
    AclEntry {
        /// The device whose table is inspected.
        device: DeviceId,
        /// The destination port that must be blocked.
        port: u16,
    },
}

impl TestSpec {
    /// Report name of the synthesized test (static, like the hand-written
    /// suite's names, so mutation kill attribution stays allocation-free).
    pub fn test_name(&self) -> &'static str {
        match self {
            TestSpec::Traceroute { .. } => "AutoTraceroute",
            TestSpec::AclEntry { .. } => "AutoAclCheck",
        }
    }

    /// Stable wire name of the spec kind (served by `/autogen`).
    pub fn kind(&self) -> &'static str {
        match self {
            TestSpec::Traceroute { .. } => "traceroute",
            TestSpec::AclEntry { .. } => "acl-entry",
        }
    }
}

impl fmt::Display for TestSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestSpec::Traceroute { start, packet, .. } => {
                write!(f, "traceroute from d{} of {packet}", start.device.0)
            }
            TestSpec::AclEntry { device, port } => {
                write!(f, "acl-entry on d{} blocking dport {port}", device.0)
            }
        }
    }
}

/// Execute one [`TestSpec`] against a network, reporting coverage into
/// `tracker`. `Err` carries the failure message.
///
/// The marking discipline matches the hand-written suite: traceroutes
/// mark each hop's concrete packet at the hop's location (`markPacket`),
/// ACL inspections mark the deny entry they found (`markRule`).
pub fn run_spec(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    tracker: &mut Tracker,
    spec: &TestSpec,
) -> Result<(), String> {
    match spec {
        TestSpec::Traceroute {
            start,
            packet,
            expect,
        } => {
            let res = traceroute(bdd, net, ms, *start, *packet, MAX_HOPS);
            for hop in &res.hops {
                tracker.mark_concrete(bdd, hop.location, &hop.packet);
            }
            let got = TraceExpectation::of(&res);
            if got == *expect {
                Ok(())
            } else {
                Err(format!("trace diverged: expected {expect:?}, got {got:?}"))
            }
        }
        TestSpec::AclEntry { device, port } => {
            let entry = net.device_rule_ids(*device).find(|&id| {
                let r = net.rule(id);
                r.action.is_drop()
                    && r.matches
                        .dport
                        .map(|(lo, hi)| lo <= *port && *port <= hi)
                        .unwrap_or(false)
            });
            match entry {
                Some(id) => {
                    tracker.mark_rule(id);
                    Ok(())
                }
                None => Err(format!(
                    "{}: no ACL entry blocking port {port}",
                    net.topology().device(*device).name
                )),
            }
        }
    }
}

/// Knobs of the generation loop.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Base seed for witness extraction (per-rule seeds derive from it).
    pub seed: u64,
    /// Maximum number of tests the loop may emit.
    pub budget: usize,
    /// Maximum number of generation rounds.
    pub max_rounds: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0xC0FFEE,
            budget: 256,
            max_rounds: 8,
        }
    }
}

/// One emitted test: the engine name it was registered under plus the
/// re-runnable spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneratedTest {
    /// Name registered with [`CoverageEngine::add_trace`]
    /// (`autogen-r<device>.<index>`, after the rule that motivated it).
    pub name: String,
    /// The synthesized test.
    pub spec: TestSpec,
}

/// What a generation run did.
#[derive(Clone, Debug)]
pub struct GenReport {
    /// Tests emitted and registered, in generation order.
    pub tests: Vec<GeneratedTest>,
    /// Generation rounds executed.
    pub rounds: usize,
    /// Whether the loop stopped because no closable gap remained (every
    /// unexercised rule is either shadowed or known-permanent).
    pub converged: bool,
    /// Whether the loop stopped early because the test budget ran out.
    pub budget_exhausted: bool,
    /// Rules no generated test could exercise (e.g. unreachable entries
    /// shadowed at runtime by an earlier deny covering the same port).
    pub permanent_gaps: Vec<RuleId>,
    /// Headline coverage before the run.
    pub before: HeadlineMetrics,
    /// Headline coverage after the run.
    pub after: HeadlineMetrics,
}

/// The open gaps: non-shadowed rules no test exercises yet. Those not
/// already known-permanent are the generation targets.
fn open_gaps(engine: &mut CoverageEngine) -> Vec<RuleId> {
    let (a, _) = engine.analyzer();
    let (ms, covered) = (a.match_sets(), a.covered_sets());
    let ids = a.network().rules().map(|(id, _)| id);
    ids.filter(|&id| !ms.get(id).is_false() && !covered.is_exercised(id))
        .collect()
}

/// Synthesize a test for rule `id` from a seeded witness of its residual
/// match set. `None` when the residual is empty (covered since the
/// target list was built — the mid-loop fast path).
fn synthesize(engine: &mut CoverageEngine, seed: u64, id: RuleId) -> Option<TestSpec> {
    let (a, bdd) = engine.analyzer();
    let (net, ms) = (a.network(), a.match_sets());
    let residual = bdd.diff(ms.get(id), a.covered_sets().get(id));
    let witness = seeded_witness(bdd, residual, rule_seed(seed, id))?;
    let rule = net.rule(id);
    if rule.action.is_drop() && rule.matches.dport.is_some() {
        return Some(TestSpec::AclEntry {
            device: id.device,
            port: witness.dport,
        });
    }
    let start = match rule.matches.in_iface {
        Some(iface) => Location::at(id.device, iface),
        None => Location::device(id.device),
    };
    let res = traceroute(bdd, net, ms, start, witness, MAX_HOPS);
    Some(TestSpec::Traceroute {
        start,
        packet: witness,
        expect: TraceExpectation::of(&res),
    })
}

/// What one generation step did for its target rule.
enum Step {
    /// Nothing to generate: the target is exercised already (closed by a
    /// test emitted earlier this round), or its residual is empty.
    Skipped,
    /// The synthesized test fails on the healthy network (e.g. the deny
    /// entry found first is another rule's), the engine refused it, or it
    /// closed no gap and was removed again: no test of this shape will
    /// exercise the target.
    Dropped,
    /// The test closed at least one gap and stays registered; `hit` says
    /// whether the target was among them.
    Kept { test: GeneratedTest, hit: bool },
}

/// One generation step for rule `id`: synthesize a test from a witness of
/// its residual, run it on the healthy network in the engine's own
/// manager, register its trace as `<prefix>-r<device>.<index>`, and keep
/// it only if it closed a gap.
fn generate(engine: &mut CoverageEngine, seed: u64, id: RuleId, prefix: &str) -> Step {
    if engine.is_exercised(id) {
        return Step::Skipped;
    }
    let Some(spec) = synthesize(engine, seed, id) else {
        return Step::Skipped;
    };
    let mut tracker = Tracker::new();
    let outcome = {
        let (a, bdd) = engine.analyzer();
        run_spec(bdd, a.network(), a.match_sets(), &mut tracker, &spec)
    };
    if outcome.is_err() {
        return Step::Dropped;
    }
    let open_before = open_gaps(engine).len();
    let name = format!("{prefix}-r{}.{}", id.device.0, id.index);
    if engine.add_trace(&name, tracker.into_trace()).is_err() {
        return Step::Dropped;
    }
    let hit = engine.is_exercised(id);
    if hit || open_gaps(engine).len() < open_before {
        Step::Kept {
            test: GeneratedTest { name, spec },
            hit,
        }
    } else {
        let _ = engine.remove_test(&name);
        Step::Dropped
    }
}

/// Run the coverage-guided generation loop until rule coverage converges
/// (no closable gap remains), the budget is exhausted, or `max_rounds`
/// passes have run. Every emitted test is registered on the engine via
/// [`CoverageEngine::add_trace`] and also returned for re-execution
/// elsewhere (the mutation study re-runs them against mutants).
///
/// Per-round progress is published as `testgen.*` netobs gauges.
pub fn autogen(engine: &mut CoverageEngine, cfg: &GenConfig) -> GenReport {
    let before = engine.headline_metrics();
    let mut tests: Vec<GeneratedTest> = Vec::new();
    let mut permanent: BTreeSet<RuleId> = BTreeSet::new();
    let mut rounds = 0;
    let mut converged = false;
    let mut budget_exhausted = false;

    'rounds: while rounds < cfg.max_rounds {
        let mut round_targets = open_gaps(engine);
        round_targets.retain(|id| !permanent.contains(id));
        if round_targets.is_empty() {
            converged = true;
            break;
        }
        rounds += 1;
        for id in round_targets {
            if tests.len() >= cfg.budget {
                budget_exhausted = true;
                break 'rounds;
            }
            match generate(engine, cfg.seed, id, "autogen") {
                Step::Skipped => {}
                Step::Kept { test, hit: true } => tests.push(test),
                Step::Kept { test, hit: false } => {
                    // Missed its target but closed other gaps (the trace
                    // crossed them): keep the test, give up on the target.
                    permanent.insert(id);
                    tests.push(test);
                }
                Step::Dropped => {
                    permanent.insert(id);
                }
            }
        }
        netobs::gauge("testgen.rounds", rounds as f64);
        netobs::gauge("testgen.tests", tests.len() as f64);
        netobs::gauge("testgen.unexercised", open_gaps(engine).len() as f64);
    }
    if !converged && !budget_exhausted && open_gaps(engine).iter().all(|id| permanent.contains(id))
    {
        // max_rounds landed exactly on convergence.
        converged = true;
    }

    let after = engine.headline_metrics();
    if let Some(v) = before.rule_fractional {
        netobs::gauge("testgen.coverage.before", v);
    }
    if let Some(v) = after.rule_fractional {
        netobs::gauge("testgen.coverage.after", v);
    }
    GenReport {
        tests,
        rounds,
        converged,
        budget_exhausted,
        permanent_gaps: permanent.into_iter().collect(),
        before,
        after,
    }
}

/// What a config-coverage-guided generation run did.
#[derive(Clone, Debug)]
pub struct ConfigGenReport {
    /// Tests emitted and registered, in generation order.
    pub tests: Vec<GeneratedTest>,
    /// Generation rounds executed.
    pub rounds: usize,
    /// Coverable constructs (non-empty rule footprint).
    pub coverable: usize,
    /// Covered constructs before the run.
    pub covered_before: usize,
    /// Covered constructs after the run.
    pub covered_after: usize,
    /// Constructs still uncovered when the loop stopped improving.
    pub uncovered: Vec<Construct>,
}

/// Config-coverage convergence mode: generate tests until *config*
/// coverage stops improving.
///
/// Where [`autogen`] chases every unexercised rule, this loop targets
/// only rules in the footprint of an uncovered configuration construct
/// (session, origination, or static with no exercising test — see
/// [`crate::config`]), re-measures config coverage after each round,
/// and stops as soon as a round fails to cover a new construct. One
/// witness per construct footprint is typically enough to flip the
/// construct's bit, so this converges with far fewer tests than full
/// rule-coverage closure. Requires an attached routing engine
/// ([`CoverageEngine::attach_routing`]); emitted tests are registered
/// as `autogen-config-r<device>.<index>`.
pub fn autogen_config(
    engine: &mut CoverageEngine,
    cfg: &GenConfig,
) -> Result<ConfigGenReport, EngineError> {
    let before = engine.config_coverage()?;
    let coverable = before.coverable();
    let covered_before = before.covered_count();
    let mut tests: Vec<GeneratedTest> = Vec::new();
    let mut rounds = 0;
    let mut covered = covered_before;

    while rounds < cfg.max_rounds && tests.len() < cfg.budget {
        let mut round_targets: BTreeSet<RuleId> = BTreeSet::new();
        for c in engine.config_coverage()?.uncovered {
            let footprint = engine.construct_coverage(&c)?;
            round_targets.extend(footprint.into_iter().flat_map(|entry| entry.rules));
        }
        if round_targets.is_empty() {
            break;
        }
        rounds += 1;
        for id in round_targets {
            if tests.len() >= cfg.budget {
                break;
            }
            if let Step::Kept { test, .. } = generate(engine, cfg.seed, id, "autogen-config") {
                tests.push(test);
            }
        }
        let now = engine.config_coverage()?.covered_count();
        netobs::gauge("testgen.config.rounds", rounds as f64);
        netobs::gauge("testgen.config.covered", now as f64);
        if now == covered {
            break; // a full round without a newly covered construct
        }
        covered = now;
    }

    let after = engine.config_coverage()?;
    Ok(ConfigGenReport {
        tests,
        rounds,
        coverable,
        covered_before,
        covered_after: after.covered_count(),
        uncovered: after.uncovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::Prefix;
    use netmodel::rule::{MatchFields, RouteClass, Rule};
    use netmodel::topology::{IfaceKind, Role, Topology};

    /// tor → spine chain: tor forwards 10.0.0.0/24 up, spine delivers it
    /// to hosts and drops telnet (dport 23) to 10.9.0.0/16 first.
    fn chain() -> (Network, DeviceId, DeviceId) {
        let mut t = Topology::new();
        let tor = t.add_device("tor", Role::Tor);
        let spine = t.add_device("spine", Role::Spine);
        let (up, _) = t.add_link(tor, spine);
        let hosts = t.add_iface(spine, "hosts", IfaceKind::Host);
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let mut net = Network::new(t);
        net.add_rule(tor, Rule::forward(p, vec![up], RouteClass::HostSubnet));
        net.add_rule(
            spine,
            Rule {
                matches: MatchFields {
                    dst: Some("10.9.0.0/16".parse().unwrap()),
                    dport: Some((23, 23)),
                    ..MatchFields::default()
                },
                action: netmodel::Action::Drop,
                class: RouteClass::Other,
            },
        );
        net.add_rule(spine, Rule::forward(p, vec![hosts], RouteClass::HostSubnet));
        net.finalize();
        (net, tor, spine)
    }

    #[test]
    fn rule_seed_is_a_pure_function_of_identity() {
        let a = RuleId {
            device: DeviceId(3),
            index: 7,
        };
        let b = RuleId {
            device: DeviceId(7),
            index: 3,
        };
        assert_eq!(rule_seed(1, a), rule_seed(1, a));
        assert_ne!(rule_seed(1, a), rule_seed(1, b));
        assert_ne!(rule_seed(1, a), rule_seed(2, a));
    }

    #[test]
    fn seeded_witness_is_inside_the_set_and_seed_dependent() {
        let mut bdd = Bdd::new();
        // A port range branches inside the diagram, so the walk has free
        // choices for the seed to steer (a bare prefix has one path and
        // every seed would agree).
        let set = netmodel::header::dport_in(&mut bdd, 100, 9000);
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..16 {
            let w = seeded_witness(&bdd, set, seed).unwrap();
            assert!(w.matches(&bdd, set));
            assert!((100..=9000).contains(&w.dport));
            distinct.insert(w);
        }
        assert!(distinct.len() > 1);
    }

    #[test]
    fn autogen_closes_a_simple_network_with_one_trace() {
        // One traceroute from the tor covers the tor rule *and* the
        // spine delivery rule: the spine target is then closed mid-loop
        // (empty residual) without emitting a second traceroute.
        let (net, _, spine) = chain();
        let mut engine = CoverageEngine::new(net, 1);
        let report = autogen(&mut engine, &GenConfig::default());
        assert!(report.converged);
        assert!(!report.budget_exhausted);
        assert_eq!(report.rounds, 1);
        assert!(report.permanent_gaps.is_empty());
        // Exactly two tests: one traceroute closes both FIB rules, one
        // ACL inspection closes the port-23 deny.
        assert_eq!(report.tests.len(), 2);
        assert!(report
            .tests
            .iter()
            .any(|t| matches!(t.spec, TestSpec::Traceroute { .. })));
        assert!(report.tests.iter().any(|t| matches!(
            t.spec,
            TestSpec::AclEntry { device, port: 23 } if device == spine
        )));
        // Coverage is total afterwards.
        let ids: Vec<RuleId> = engine.network().rules().map(|(id, _)| id).collect();
        for id in ids {
            assert!(engine.is_exercised(id));
        }
        assert_eq!(report.after.rule_fractional, Some(1.0));
    }

    #[test]
    fn autogen_is_deterministic_across_runs() {
        let run = || {
            let (net, _, _) = chain();
            let mut engine = CoverageEngine::new(net, 1);
            autogen(&mut engine, &GenConfig::default()).tests
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unreachable_rule_becomes_a_permanent_gap() {
        // Two deny entries for the same port: the second is reachable
        // symbolically (different dst) but any AclEntry inspection finds
        // the first entry, so the second can never be exercised by a
        // generated test. The loop must terminate and report it.
        let mut t = Topology::new();
        let d = t.add_device("fw", Role::Border);
        let out = t.add_iface(d, "out", IfaceKind::External);
        let mut net = Network::new(t);
        net.add_rule(
            d,
            Rule {
                matches: MatchFields {
                    dst: Some("10.0.0.0/8".parse().unwrap()),
                    dport: Some((23, 23)),
                    ..MatchFields::default()
                },
                action: netmodel::Action::Drop,
                class: RouteClass::Other,
            },
        );
        net.add_rule(
            d,
            Rule {
                matches: MatchFields {
                    dst: Some("192.168.0.0/16".parse().unwrap()),
                    dport: Some((23, 23)),
                    ..MatchFields::default()
                },
                action: netmodel::Action::Drop,
                class: RouteClass::Other,
            },
        );
        net.add_rule(
            d,
            Rule::forward(Prefix::v4_default(), vec![out], RouteClass::StaticDefault),
        );
        net.finalize();
        let second = RuleId {
            device: DeviceId(0),
            index: 1,
        };
        let mut engine = CoverageEngine::new(net, 1);
        let report = autogen(&mut engine, &GenConfig::default());
        assert!(report.converged, "loop must terminate");
        assert_eq!(report.permanent_gaps, vec![second]);
        assert!(!engine.is_exercised(second));
        // Everything else did get closed.
        assert!(engine.is_exercised(RuleId {
            device: DeviceId(0),
            index: 0,
        }));
        assert!(engine.is_exercised(RuleId {
            device: DeviceId(0),
            index: 2,
        }));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (net, _, _) = chain();
        let mut engine = CoverageEngine::new(net, 1);
        let report = autogen(
            &mut engine,
            &GenConfig {
                budget: 1,
                ..GenConfig::default()
            },
        );
        assert!(report.budget_exhausted);
        assert!(!report.converged);
        assert_eq!(report.tests.len(), 1);
    }

    #[test]
    fn autogen_config_converges_and_covers_every_construct() {
        // A routed fabric with a dark null static: config-guided
        // generation must cover every construct — including the static,
        // via a traceroute pinning the drop — and then stop.
        let mut topo = Topology::new();
        let tor = topo.add_device("tor", Role::Tor);
        let spine = topo.add_device("spine", Role::Spine);
        let hosts = topo.add_iface(tor, "hosts", IfaceKind::Host);
        topo.add_link(tor, spine);
        let mut rb = routing::RibBuilder::new(topo);
        rb.set_tier(tor, 0);
        rb.set_tier(spine, 1);
        rb.originate(routing::Origination::new(
            tor,
            "10.0.0.0/24".parse().unwrap(),
            RouteClass::HostSubnet,
            Some(hosts),
            routing::Scope::All,
        ));
        rb.add_static(routing::StaticRoute {
            device: spine,
            prefix: "192.0.2.0/24".parse().unwrap(),
            target: routing::StaticTarget::Null,
            class: RouteClass::Other,
        });
        let (rt, net) = rb.into_engine().unwrap();
        let mut engine = CoverageEngine::new(net, 1);
        engine.attach_routing(rt);

        let report = autogen_config(&mut engine, &GenConfig::default()).unwrap();
        assert_eq!(report.covered_before, 0);
        assert_eq!(report.covered_after, report.coverable);
        assert!(report.uncovered.is_empty(), "left {:?}", report.uncovered);
        assert!(!report.tests.is_empty());
        // And it reports through the engine identically.
        let cov = engine.config_coverage().unwrap();
        assert_eq!(cov.fractional(), Some(1.0));

        // Without a routing engine the mode is a named error.
        let (net2, _, _) = chain();
        let mut bare = CoverageEngine::new(net2, 1);
        assert!(matches!(
            autogen_config(&mut bare, &GenConfig::default()),
            Err(EngineError::NoRoutingEngine)
        ));
    }

    #[test]
    fn generated_tests_replay_against_the_same_network() {
        // Emitted specs are self-contained: re-running them against the
        // healthy network passes and reproduces the registered coverage.
        let (net, _, _) = chain();
        let mut engine = CoverageEngine::new(net.clone(), 1);
        let report = autogen(&mut engine, &GenConfig::default());
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        for t in &report.tests {
            let mut tracker = Tracker::new();
            run_spec(&mut bdd, &net, &ms, &mut tracker, &t.spec)
                .unwrap_or_else(|e| panic!("{} failed on the healthy network: {e}", t.name));
            assert!(!tracker.trace().is_empty());
        }
    }
}
