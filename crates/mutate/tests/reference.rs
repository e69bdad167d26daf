//! `mutate::evaluate` against the whole-network, full-suite reference.
//!
//! The evaluator judges a mutant as a one-device edit and re-runs only
//! the jobs whose unmutated trace marks that device. The reference is
//! the definition it must reproduce: clone the network with the mutant
//! applied ([`mutate::apply`]), compute every device's match sets from
//! scratch, decide equivalence over every device
//! ([`dataplane::diff::equivalent`]), and run every job of the suite. The
//! two outcome vectors — id, equivalent, killed, failed tests — must be
//! identical.
//!
//! The study network is the one `mutation_report` builds: a fat-tree
//! with a bogon-filter ACL entry on every core. At k=4 the suite is
//! checked three ways — behavioural jobs, plus `AclEntry` jobs, plus the
//! autogen loop's `Generated` jobs — because the state inspections mark
//! only the rule they read, and selection must still find them. A
//! two-device network adds the one lookup no trace marks: a generated
//! traceroute that ends with no matching rule.

use mutate::{apply, evaluate, generate, Mutant, MutantOutcome, MutationConfig, Operator};
use netbdd::Bdd;
use netmodel::header::Packet;
use netmodel::rule::{RouteClass, Rule};
use netmodel::topology::{IfaceKind, Role, Topology};
use netmodel::{Location, MatchSets, Network, RuleId};
use testsuite::{fattree_suite_jobs, named_test, run_job, NetworkInfo, SuiteJob, SuiteVerdict};
use topogen::acl::{install_acl, AclEntry};
use topogen::fattree::{fattree, FatTree, FatTreeParams};
use yardstick::testgen::{self, ExpectedEnd, GenConfig, TestSpec, TraceExpectation};
use yardstick::{CoverageEngine, Tracker};

const SEED: u64 = 0xC0FFEE;
const BOGON_PORT: u16 = 23;

fn study_network(k: u32) -> (FatTree, NetworkInfo) {
    let mut ft = fattree(FatTreeParams::paper(k));
    let bogon: netmodel::Prefix = "192.0.2.0/24".parse().unwrap();
    for &core in &ft.cores.clone() {
        install_acl(
            &mut ft.net,
            core,
            &[AclEntry::block_tcp_port_to(bogon, BOGON_PORT)],
        );
    }
    let info = NetworkInfo {
        tor_subnets: ft.tors.clone(),
        acls: ft.cores.iter().map(|&core| (core, BOGON_PORT)).collect(),
        ..NetworkInfo::default()
    };
    (ft, info)
}

fn mutants(net: &Network) -> Vec<Mutant> {
    generate(
        net,
        &MutationConfig {
            seed: SEED,
            per_op_cap: 12,
        },
    )
}

/// The whole-network, full-suite evaluation of every mutant.
fn reference(
    net: &Network,
    info: &NetworkInfo,
    jobs: &[SuiteJob],
    mutants: &[Mutant],
) -> Vec<MutantOutcome> {
    let mut bdd = Bdd::new();
    let base_ms = MatchSets::compute(net, &mut bdd);
    let mut tracker = Tracker::disabled();
    mutants
        .iter()
        .map(|m| {
            let mutated = apply(net, m);
            let ms = MatchSets::compute(&mutated, &mut bdd);
            if dataplane::diff::equivalent(&mut bdd, net, &base_ms, &mutated, &ms) {
                return MutantOutcome {
                    id: m.id,
                    equivalent: true,
                    killed: false,
                    failed_tests: Vec::new(),
                };
            }
            let mut verdict = SuiteVerdict::new();
            for job in jobs {
                verdict.record(&run_job(&mut bdd, &mutated, &ms, info, &mut tracker, job));
            }
            MutantOutcome {
                id: m.id,
                equivalent: false,
                killed: !verdict.passed(),
                failed_tests: verdict.failed_tests(),
            }
        })
        .collect()
}

fn assert_matches_reference(ft: &FatTree, info: &NetworkInfo, jobs: &[SuiteJob]) {
    let mutants = mutants(&ft.net);
    let expected = reference(&ft.net, info, jobs, &mutants);
    // Not vacuous: the study has equivalent, killed and non-equivalent
    // mutants on every suite.
    assert!(expected.iter().any(|o| o.equivalent));
    assert!(expected.iter().any(|o| o.killed));
    let got = evaluate(&ft.net, info, jobs, &mutants);
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, e, "mutant {} ({:?})", e.id, mutants[e.id as usize]);
    }
}

#[test]
fn k4_behavioural_suite_matches_the_reference() {
    let (ft, info) = study_network(4);
    let jobs = fattree_suite_jobs(&ft.net, &info, SEED);
    assert_matches_reference(&ft, &info, &jobs);
}

#[test]
fn k4_with_acl_entry_jobs_matches_the_reference() {
    let (ft, info) = study_network(4);
    let mut jobs = fattree_suite_jobs(&ft.net, &info, SEED);
    jobs.extend(
        named_test("AclEntryCheck")
            .jobs(&ft.net, &info, SEED)
            .unwrap(),
    );
    assert_matches_reference(&ft, &info, &jobs);
}

#[test]
fn k4_with_generated_jobs_matches_the_reference() {
    let (ft, info) = study_network(4);
    let mut jobs = fattree_suite_jobs(&ft.net, &info, SEED);
    // The behavioural suite's trace seeds the generation loop, as in
    // `mutation_report --autogen`.
    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&ft.net, &mut bdd);
    let mut tracker = Tracker::new();
    for job in &jobs {
        assert!(run_job(&mut bdd, &ft.net, &ms, &info, &mut tracker, job).passed());
    }
    let mut engine = CoverageEngine::new(ft.net.clone(), 1);
    engine
        .add_test("baseline-suite", &tracker.trace().export(&bdd))
        .expect("baseline trace imports");
    let generated = testgen::autogen(
        &mut engine,
        &GenConfig {
            seed: SEED,
            budget: 4096,
            ..GenConfig::default()
        },
    );
    assert!(!generated.tests.is_empty());
    jobs.extend(generated.tests.iter().map(|t| SuiteJob::Generated {
        spec: t.spec.clone(),
    }));
    assert_matches_reference(&ft, &info, &jobs);
}

/// A walk that matches no rule pushes no hop, so a generated traceroute
/// ending `Unmatched` leaves no mark on the device whose table it read
/// last. Widening that device's route makes the packet match; the
/// reference kills the mutant through the traceroute, and selection must
/// too.
#[test]
fn generated_trace_ending_unmatched_matches_the_reference() {
    // a --(10.1.0.0/16)--> b, and b routes only the lower half, /17.
    let mut topo = Topology::new();
    let a = topo.add_device("a", Role::Tor);
    let b = topo.add_device("b", Role::Tor);
    let (a_up, _) = topo.add_link(a, b);
    let host = topo.add_iface(b, "h", IfaceKind::Host);
    let mut net = Network::new(topo);
    let route = |p: &str, out, class| Rule::forward(p.parse().unwrap(), vec![out], class);
    net.add_rule(a, route("10.1.0.0/16", a_up, RouteClass::Other));
    net.add_rule(b, route("10.1.0.0/17", host, RouteClass::HostSubnet));
    net.finalize();

    let mut bdd = Bdd::new();
    let ms = MatchSets::compute(&net, &mut bdd);
    let jobs: Vec<SuiteJob> = [
        netmodel::addr::ipv4(10, 1, 0, 1),
        netmodel::addr::ipv4(10, 1, 200, 1),
    ]
    .into_iter()
    .map(|dst| {
        let (start, packet) = (Location::device(a), Packet::v4_to(dst));
        let healthy = dataplane::traceroute(&mut bdd, &net, &ms, start, packet, testgen::MAX_HOPS);
        let expect = TraceExpectation::of(&healthy);
        SuiteJob::Generated {
            spec: TestSpec::Traceroute {
                start,
                packet,
                expect,
            },
        }
    })
    .collect();
    let SuiteJob::Generated {
        spec: TestSpec::Traceroute { expect, .. },
    } = &jobs[1]
    else {
        unreachable!()
    };
    assert_eq!(expect.devices, vec![a]);
    assert_eq!(expect.end, ExpectedEnd::Unmatched { device: b });

    let info = NetworkInfo::default();
    let mutants = mutants(&net);
    let expected = reference(&net, &info, &jobs, &mutants);
    assert_eq!(evaluate(&net, &info, &jobs, &mutants), expected);
    // Not vacuous: widening b's /17 to the /16 is killed by the trace
    // that ended unmatched at b.
    let widened = mutants
        .iter()
        .position(|m| {
            m.op == Operator::WidenPrefix
                && m.target
                    == RuleId {
                        device: b,
                        index: 0,
                    }
        })
        .expect("b's /17 is widenable");
    assert!(expected[widened].killed);
    assert_eq!(expected[widened].failed_tests, vec!["AutoTraceroute"]);
}

#[test]
fn k6_behavioural_suite_matches_the_reference() {
    let (ft, info) = study_network(6);
    let jobs = fattree_suite_jobs(&ft.net, &info, SEED);
    assert_matches_reference(&ft, &info, &jobs);
}
