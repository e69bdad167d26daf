//! The named tests as job lists — the one way a test runs.
//!
//! Every named test is a loop over independent units — devices, links,
//! `(origin, prefix)` contracts, WAN prefixes, host ports, source ToRs,
//! ToR pairs, guarded devices. A [`SuiteJob`] names one such unit, and
//! [`run_job`] executes it against any manager and tracker. A test is a
//! row of [`NAMED_TESTS`] that builds its job list from a network and its
//! ground truth; [`NamedTest::run`] runs the list on one tracker and folds
//! the job reports into one. The job is the unit because three consumers
//! need one job at a time: the mutation study re-runs only the jobs that
//! read a mutated table ([`read_devices`]), the resident engine keeps
//! each test's own trace ([`run_job_isolated`]), and the benchmark times
//! fixed job lists.
//!
//! Pingmesh jobs carry their own RNG seed, derived per pair from the
//! suite seed, so a pair samples the same packet whichever other jobs
//! run.

use netbdd::Bdd;
use netmodel::topology::{DeviceId, Role};
use netmodel::{MatchSets, Network, Prefix};
use yardstick::testgen::{ExpectedEnd, TestSpec};
use yardstick::Tracker;

use crate::acl::check_acl_behavior;
use crate::beyond::{check_host_port, check_wan_prefix};
use crate::context::{NetworkInfo, TestContext, TestReport};
use crate::e2e::{check_ping_pair, check_reachability_from, pair_seed};
use crate::inspection::{check_connected_link, check_default_route};
use crate::local::check_contract_prefix;

/// Which device roles a contract job checks at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoleFilter {
    /// Check at every device regardless of role.
    All,
    /// Check only at devices of this role.
    Only(Role),
}

impl RoleFilter {
    /// Whether a device of `role` is in scope for this filter.
    pub fn accepts(&self, role: Role) -> bool {
        match self {
            RoleFilter::All => true,
            RoleFilter::Only(r) => *r == role,
        }
    }
}

/// One independently executable unit of a named test.
#[derive(Clone, Debug)]
pub enum SuiteJob {
    /// DefaultRouteCheck at one device.
    DefaultRoute {
        /// The device whose default route is inspected.
        device: DeviceId,
    },
    /// ConnectedRouteCheck for one link (index into `info.links`).
    ConnectedRoute {
        /// Index into `info.links`.
        link_index: usize,
    },
    /// An RCDC contract sweep for one `(originator, prefix)` pair.
    Contract {
        /// The device originating the prefix.
        origin: DeviceId,
        /// The originated prefix under contract.
        prefix: Prefix,
        /// Which device roles the sweep checks at.
        roles: RoleFilter,
    },
    /// ToRReachability from one source ToR (index into `tor_subnets`).
    Reachability {
        /// Index of the source ToR in `info.tor_subnets`.
        src_index: usize,
    },
    /// ToRPingmesh for one ordered ToR pair, with its derived seed.
    Pingmesh {
        /// Index of the source ToR in `info.tor_subnets`.
        src_index: usize,
        /// Index of the destination ToR in `info.tor_subnets`.
        dst_index: usize,
        /// Deterministic per-pair probe seed.
        seed: u64,
    },
    /// AclEntryCheck at one device: a deny entry for `port` must exist.
    AclEntry {
        /// The device whose ACL is inspected.
        device: DeviceId,
        /// The port the deny entry must cover.
        port: u16,
    },
    /// WanRouteCheck for one WAN prefix, towards `info.wan_routers`.
    WanRoute {
        /// The wide-area prefix under contract.
        prefix: Prefix,
    },
    /// HostPortCheck for one host port (index into
    /// `info.host_port_slices`).
    HostPort {
        /// Index into `info.host_port_slices`.
        slice_index: usize,
    },
    /// AclBehaviorCheck at one device: every TCP packet to `port` drops.
    AclBehavior {
        /// The device whose forwarding is checked.
        device: DeviceId,
        /// The port whose traffic must drop.
        port: u16,
    },
    /// One test emitted by the coverage-guided generation loop
    /// (`yardstick::testgen`): a self-contained spec replayed via
    /// `run_spec`, so autogen suites run as jobs exactly like
    /// hand-written ones (the mutation study's `--autogen` leg relies on
    /// this).
    Generated {
        /// The generated test's self-contained replayable spec.
        spec: yardstick::testgen::TestSpec,
    },
}

impl SuiteJob {
    /// The name of the job's kind, which [`run_job`] names its report and
    /// span after. It is the named test's name, except that the three
    /// contract tests share `Contract`.
    pub fn test_name(&self) -> &'static str {
        match self {
            SuiteJob::DefaultRoute { .. } => "DefaultRouteCheck",
            SuiteJob::ConnectedRoute { .. } => "ConnectedRouteCheck",
            SuiteJob::Contract { .. } => "Contract",
            SuiteJob::Reachability { .. } => "ToRReachability",
            SuiteJob::Pingmesh { .. } => "ToRPingmesh",
            SuiteJob::AclEntry { .. } => "AclEntryCheck",
            SuiteJob::WanRoute { .. } => "WanRouteCheck",
            SuiteJob::HostPort { .. } => "HostPortCheck",
            SuiteJob::AclBehavior { .. } => "AclBehaviorCheck",
            SuiteJob::Generated { spec } => spec.test_name(),
        }
    }
}

/// A named test: its name and how it decomposes into jobs.
#[derive(Clone, Copy)]
pub struct NamedTest {
    /// The test's name in the paper's taxonomy (Figure 2, §7–§8).
    pub name: &'static str,
    build: fn(&Network, &NetworkInfo, u64) -> Option<Vec<SuiteJob>>,
}

impl NamedTest {
    /// The test's jobs on `net`, in order; `seed` drives Pingmesh's
    /// sampling. `None` where the test does not apply: WanRouteCheck
    /// without WAN routers, HostPortCheck without host ports, the ACL
    /// tests without ACLs.
    pub fn jobs(&self, net: &Network, info: &NetworkInfo, seed: u64) -> Option<Vec<SuiteJob>> {
        (self.build)(net, info, seed)
    }

    /// Run every job of the test on `tracker` and fold their reports into
    /// one named after the test; `None` where the test does not apply.
    /// `ms` must have been computed in `bdd`.
    pub fn run(
        &self,
        bdd: &mut Bdd,
        net: &Network,
        ms: &MatchSets,
        info: &NetworkInfo,
        tracker: &mut Tracker,
        seed: u64,
    ) -> Option<TestReport> {
        let mut report = TestReport::new(self.name);
        for job in self.jobs(net, info, seed)? {
            let done = run_job(bdd, net, ms, info, tracker, &job);
            report.checks += done.checks;
            report.failures.extend(done.failures);
        }
        Some(report)
    }
}

/// One job per item of `items`.
fn each<T>(items: impl IntoIterator<Item = T>, job: impl Fn(T) -> SuiteJob) -> Jobs {
    Some(items.into_iter().map(job).collect())
}

type Jobs = Option<Vec<SuiteJob>>;

/// A row of [`NAMED_TESTS`].
const fn test(name: &'static str, build: fn(&Network, &NetworkInfo, u64) -> Jobs) -> NamedTest {
    NamedTest { name, build }
}

/// Contracts for `prefixes` at the devices `roles` accepts.
fn contracts(prefixes: impl IntoIterator<Item = (DeviceId, Prefix)>, roles: RoleFilter) -> Jobs {
    let contract = |(origin, prefix)| SuiteJob::Contract {
        origin,
        prefix,
        roles,
    };
    each(prefixes, contract)
}

/// Every named test. The case study's six come first, in the order its
/// suite grew (§7.3), so its suites and Figure 7's iterations are
/// prefixes; the §8 benchmark's three follow, then Figure 2's two ACL
/// tests.
pub static NAMED_TESTS: [NamedTest; 11] = [
    test("DefaultRouteCheck", |net, _, _| {
        each(net.topology().devices(), |(device, _)| {
            SuiteJob::DefaultRoute { device }
        })
    }),
    test("AggCanReachTorLoopback", |_, info, _| {
        let tors: Vec<DeviceId> = info.tor_subnets.iter().map(|&(d, _, _)| d).collect();
        let loopbacks = info.loopbacks.iter().filter(|(d, _)| tors.contains(d));
        contracts(loopbacks.copied(), RoleFilter::Only(Role::Aggregation))
    }),
    test("InternalRouteCheck", |_, info, _| {
        contracts(info.internal_prefixes(), RoleFilter::All)
    }),
    test("ConnectedRouteCheck", |_, info, _| {
        each(0..info.links.len(), |link_index| SuiteJob::ConnectedRoute {
            link_index,
        })
    }),
    test("WanRouteCheck", |_, info, _| {
        let jobs = each(&info.wan_prefixes, |&prefix| SuiteJob::WanRoute { prefix });
        jobs.filter(|_| !info.wan_routers.is_empty())
    }),
    test("HostPortCheck", |_, info, _| {
        let slices = 0..info.host_port_slices.len();
        each(slices, |slice_index| SuiteJob::HostPort { slice_index }).filter(|j| !j.is_empty())
    }),
    test("ToRContract", |_, info, _| {
        let subnets = info.tor_subnets.iter().map(|&(d, p, _)| (d, p));
        contracts(subnets, RoleFilter::All)
    }),
    test("ToRReachability", |_, info, _| {
        each(0..info.tor_subnets.len(), |src_index| {
            SuiteJob::Reachability { src_index }
        })
    }),
    test("ToRPingmesh", |_, info, seed| {
        let n = info.tor_subnets.len();
        let pairs = (0..n).flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)));
        each(pairs, |(src_index, dst_index)| SuiteJob::Pingmesh {
            src_index,
            dst_index,
            seed: pair_seed(seed, src_index, dst_index),
        })
    }),
    test("AclEntryCheck", |_, info, _| {
        let jobs = each(&info.acls, |&(device, port)| SuiteJob::AclEntry {
            device,
            port,
        });
        jobs.filter(|j| !j.is_empty())
    }),
    test("AclBehaviorCheck", |_, info, _| {
        let jobs = each(&info.acls, |&(device, port)| SuiteJob::AclBehavior {
            device,
            port,
        });
        jobs.filter(|j| !j.is_empty())
    }),
];

/// The §8 suite (Figures 8–9): one test of each taxonomy type.
static S8: [NamedTest; 4] = [
    NAMED_TESTS[0],
    NAMED_TESTS[6],
    NAMED_TESTS[7],
    NAMED_TESTS[8],
];

/// The suite `yardstick --suite` names: `original` and `final` are the
/// case study's suites before and after §7.3, `beyond` adds the two tests
/// §7.3 leaves open, and `s8` is the §8 suite.
pub fn suite(name: &str) -> Option<&'static [NamedTest]> {
    match name {
        "original" => Some(&NAMED_TESTS[..2]),
        "final" => Some(&NAMED_TESTS[..4]),
        "beyond" => Some(&NAMED_TESTS[..6]),
        "s8" => Some(&S8),
        _ => None,
    }
}

/// The row of [`NAMED_TESTS`] called `name`; panics if there is none.
pub fn named_test(name: &str) -> &'static NamedTest {
    NAMED_TESTS
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no named test {name}"))
}

/// The jobs of every test in `tests` that applies to `net`, test by test.
fn suite_jobs(tests: &[NamedTest], net: &Network, info: &NetworkInfo, seed: u64) -> Vec<SuiteJob> {
    tests
        .iter()
        .flat_map(|t| t.jobs(net, info, seed).unwrap_or_default())
        .collect()
}

/// The §8 fat-tree suite (DefaultRouteCheck + ToRContract +
/// ToRReachability + ToRPingmesh) as a flat job list.
pub fn fattree_suite_jobs(net: &Network, info: &NetworkInfo, seed: u64) -> Vec<SuiteJob> {
    suite_jobs(&S8, net, info, seed)
}

/// The §7 regional suite (DefaultRouteCheck + AggCanReachTorLoopback +
/// InternalRouteCheck + ConnectedRouteCheck) as a flat job list.
pub fn regional_suite_jobs(net: &Network, info: &NetworkInfo) -> Vec<SuiteJob> {
    suite_jobs(&NAMED_TESTS[..4], net, info, 0)
}

/// Execute one job against the given manager and tracker. `ms` must have
/// been computed in `bdd`.
pub fn run_job(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    info: &NetworkInfo,
    tracker: &mut Tracker,
    job: &SuiteJob,
) -> TestReport {
    // One span per job, named after its kind: the span tree aggregates
    // all jobs of a kind into one node (count = jobs, total = their
    // wall-clock share).
    let _span = netobs::span(job.test_name());
    let mut ctx = TestContext {
        net,
        ms,
        info,
        tracker: std::mem::take(tracker),
    };
    let mut report = TestReport::new(job.test_name());
    let (cx, rep) = (&mut ctx, &mut report);
    match *job {
        SuiteJob::DefaultRoute { device } => check_default_route(cx, rep, device),
        SuiteJob::ConnectedRoute { link_index } => check_connected_link(cx, rep, link_index),
        SuiteJob::Contract {
            origin,
            prefix,
            roles,
        } => check_contract_prefix(bdd, cx, rep, origin, prefix, roles),
        SuiteJob::Reachability { src_index } => check_reachability_from(bdd, cx, rep, src_index),
        SuiteJob::Pingmesh {
            src_index,
            dst_index,
            seed,
        } => check_ping_pair(bdd, cx, rep, src_index, dst_index, seed),
        SuiteJob::AclEntry { device, port } => {
            check_spec(bdd, cx, rep, &TestSpec::AclEntry { device, port })
        }
        SuiteJob::WanRoute { prefix } => check_wan_prefix(bdd, cx, rep, prefix),
        SuiteJob::HostPort { slice_index } => check_host_port(cx, rep, slice_index),
        SuiteJob::AclBehavior { device, port } => check_acl_behavior(bdd, cx, rep, device, port),
        SuiteJob::Generated { ref spec } => check_spec(bdd, cx, rep, spec),
    }
    *tracker = ctx.tracker;
    report
}

/// Run a [`TestSpec`] as one check that fails with the spec's message.
fn check_spec(bdd: &mut Bdd, cx: &mut TestContext<'_>, rep: &mut TestReport, spec: &TestSpec) {
    let outcome = yardstick::testgen::run_spec(bdd, cx.net, cx.ms, &mut cx.tracker, spec);
    rep.check(outcome.is_ok(), || outcome.unwrap_err());
}

/// Run one job against a private tracker and return its *isolated*
/// coverage trace next to the report.
///
/// This is the suite-delta decomposition: a long-lived engine stores
/// each test's own trace so a `TestRemoved` delta can rebuild the
/// affected devices' coverage from the remaining tests' traces (union,
/// not subtraction — packet-set unions don't invert), and a `TestAdded`
/// delta only touches the devices the new trace marks. Merging every
/// job's isolated trace reproduces the suite trace bit-for-bit, because
/// [`run_job`] marks through the same tracker API either way.
pub fn run_job_isolated(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    info: &NetworkInfo,
    job: &SuiteJob,
) -> (TestReport, yardstick::CoverageTrace) {
    let mut tracker = Tracker::new();
    let report = run_job(bdd, net, ms, info, &mut tracker, job);
    (report, tracker.into_trace())
}

/// Run one job on `net` and return the devices whose tables it read,
/// sorted and deduplicated, or `None` if the job failed there.
///
/// A job that passes on `net` reads no other table, so an edit to any
/// other device cannot change its verdict; the mutation study selects
/// the jobs to re-run per mutant from this alone. The devices are those
/// of the job's own trace, because every check marks what it reads:
/// `DefaultRoute`, `ConnectedRoute`, `HostPort` and `AclEntry` the rule
/// they found, `WanRoute` the rule at each WAN router and the packets at
/// each other router before its lookup, `Contract`, `Reachability` and
/// `AclBehavior` the packets at each device before its lookup,
/// `Pingmesh` and generated traceroutes every hop. One lookup
/// leaves no mark — a walk that matches no rule pushes no hop — so the
/// device where a passing generated traceroute ends `Unmatched` is added
/// from its expectation. A failing check may stop before it marks what
/// it read (a missing default route marks nothing), hence `None`: the
/// caller must assume a failed job reads every table.
pub fn read_devices(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    info: &NetworkInfo,
    job: &SuiteJob,
) -> Option<Vec<DeviceId>> {
    let (report, trace) = run_job_isolated(bdd, net, ms, info, job);
    if !report.passed() {
        return None;
    }
    let mut devices = trace.packets.devices();
    devices.extend(trace.rules.iter().map(|id| id.device));
    if let SuiteJob::Generated {
        spec: TestSpec::Traceroute { expect, .. },
    } = job
    {
        if let ExpectedEnd::Unmatched { device } = expect.end {
            devices.push(device);
        }
    }
    devices.sort_unstable();
    devices.dedup();
    Some(devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::regional_info;
    use topogen::{fattree, FatTreeParams};

    const SEED: u64 = 0xC0FFEE;

    fn setup() -> (topogen::FatTree, NetworkInfo) {
        let ft = fattree(FatTreeParams::paper(4));
        let info = NetworkInfo {
            tor_subnets: ft.tors.clone(),
            ..NetworkInfo::default()
        };
        (ft, info)
    }

    #[test]
    fn isolated_job_traces_union_to_the_suite_trace() {
        let (ft, info) = setup();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let jobs = fattree_suite_jobs(&ft.net, &info, SEED);

        // One shared tracker, as the batch path runs.
        let mut tracker = Tracker::new();
        for job in &jobs {
            run_job(&mut bdd, &ft.net, &ms, &info, &mut tracker, job);
        }
        let combined = tracker.into_trace();

        // Per-job isolation, then merge.
        let mut merged = yardstick::CoverageTrace::new();
        for job in &jobs {
            let (rep, trace) = run_job_isolated(&mut bdd, &ft.net, &ms, &info, job);
            assert!(rep.passed(), "{}: {:?}", rep.name, &rep.failures[..1]);
            merged.merge(&mut bdd, &trace);
        }

        assert_eq!(merged.rules, combined.rules);
        assert_eq!(merged.packets.len(), combined.packets.len());
        for (loc, set) in combined.packets.iter() {
            assert_eq!(merged.packets.at(loc), set, "at {loc:?}");
        }
    }

    #[test]
    fn pingmesh_pair_seeds_are_chunking_invariant() {
        let (ft, info) = setup();
        let jobs = fattree_suite_jobs(&ft.net, &info, SEED);
        let ping_jobs: Vec<_> = jobs
            .iter()
            .filter(|j| matches!(j, SuiteJob::Pingmesh { .. }))
            .cloned()
            .collect();
        assert_eq!(ping_jobs.len(), 8 * 7);

        // Running only the second half of the pairs must sample the same
        // packets for those pairs as running all of them.
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let run_subset = |bdd: &mut Bdd, subset: &[SuiteJob]| {
            let mut tracker = Tracker::new();
            for job in subset {
                run_job(bdd, &ft.net, &ms, &info, &mut tracker, job);
            }
            tracker.into_trace()
        };
        let half = run_subset(&mut bdd, &ping_jobs[28..]);
        let full = run_subset(&mut bdd, &ping_jobs);
        // Everything the half run marked is contained in the full run.
        for (loc, set) in half.packets.iter() {
            assert!(bdd.subset(set, full.packets.at(loc)));
        }
    }

    #[test]
    fn generated_acl_job_is_equivalent_to_acl_entry_check() {
        use topogen::acl::{install_acl, AclEntry};
        let mut ft = fattree(FatTreeParams::paper(4));
        let core = ft.cores[0];
        install_acl(&mut ft.net, core, &[AclEntry::block_tcp_port(23)]);
        let info = NetworkInfo::default();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let run = |bdd: &mut Bdd, job: &SuiteJob| {
            let mut tracker = Tracker::new();
            let rep = run_job(bdd, &ft.net, &ms, &info, &mut tracker, job);
            assert!(rep.passed(), "{}: {:?}", rep.name, &rep.failures[..1]);
            tracker.into_trace()
        };
        let hand = run(
            &mut bdd,
            &SuiteJob::AclEntry {
                device: core,
                port: 23,
            },
        );
        let generated = run(
            &mut bdd,
            &SuiteJob::Generated {
                spec: yardstick::testgen::TestSpec::AclEntry {
                    device: core,
                    port: 23,
                },
            },
        );
        // Same semantics, same marks: the generated flavour finds and
        // marks exactly the deny entry the hand-written check does.
        assert_eq!(generated.rules, hand.rules);
        assert!(!generated.rules.is_empty());
    }

    #[test]
    fn generated_jobs_replay_a_whole_autogen_suite() {
        use yardstick::testgen::{autogen, GenConfig};
        let (ft, info) = setup();
        let mut engine = yardstick::CoverageEngine::new(ft.net.clone(), 1);
        let report = autogen(
            &mut engine,
            &GenConfig {
                budget: 4096,
                ..GenConfig::default()
            },
        );
        assert!(report.converged);
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let mut tracker = Tracker::new();
        for t in &report.tests {
            let job = SuiteJob::Generated {
                spec: t.spec.clone(),
            };
            let rep = run_job(&mut bdd, &ft.net, &ms, &info, &mut tracker, &job);
            assert!(rep.passed(), "{}: {:?}", rep.name, &rep.failures[..1]);
        }
        assert!(!tracker.trace().is_empty());
    }

    #[test]
    fn regional_jobs_cover_the_section7_suite() {
        use topogen::{regional, RegionalParams};
        let r = regional(RegionalParams::default());
        let info = regional_info(&r);
        let jobs = regional_suite_jobs(&r.net, &info);
        let ndev = r.net.topology().device_count();
        assert!(jobs.len() > ndev + info.links.len());

        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&r.net, &mut bdd);
        let mut tracker = Tracker::new();
        for job in &jobs {
            let rep = run_job(&mut bdd, &r.net, &ms, &info, &mut tracker, job);
            assert!(rep.passed(), "{}: {:?}", rep.name, &rep.failures[..1]);
        }
        let trace = tracker.into_trace();
        // Inspection marks rules, contracts mark packets at every device.
        assert!(!trace.rules.is_empty());
        assert_eq!(trace.packets.devices().len(), ndev);
    }

    #[test]
    fn suites_are_rows_of_the_named_test_table() {
        let names = |s: &str| suite(s).unwrap().iter().map(|t| t.name).collect::<Vec<_>>();
        assert_eq!(
            names("original"),
            ["DefaultRouteCheck", "AggCanReachTorLoopback"]
        );
        assert_eq!(
            names("final")[2..],
            ["InternalRouteCheck", "ConnectedRouteCheck"]
        );
        assert_eq!(names("beyond")[4..], ["WanRouteCheck", "HostPortCheck"]);
        assert_eq!(
            names("s8"),
            [
                "DefaultRouteCheck",
                "ToRContract",
                "ToRReachability",
                "ToRPingmesh"
            ]
        );
        assert!(suite("everything").is_none());
        for test in &NAMED_TESTS {
            assert_eq!(named_test(test.name).name, test.name);
        }
    }

    #[test]
    fn beyond_tests_do_not_apply_without_their_facts() {
        let (ft, info) = setup();
        for name in [
            "WanRouteCheck",
            "HostPortCheck",
            "AclEntryCheck",
            "AclBehaviorCheck",
        ] {
            assert!(
                named_test(name).jobs(&ft.net, &info, SEED).is_none(),
                "{name}"
            );
        }
        // A test that applies may still have no units here.
        let connected = named_test("ConnectedRouteCheck").jobs(&ft.net, &info, SEED);
        assert_eq!(connected.map(|jobs| jobs.len()), Some(0));
    }
}
