//! Suite sharding: the named tests decomposed into independent jobs.
//!
//! Every test in this crate is a loop over independent units — devices,
//! links, `(origin, prefix)` contracts, source ToRs, ToR pairs. A
//! [`SuiteJob`] names one such unit, and [`run_job`] executes it against
//! any manager/tracker: running a suite's jobs in order makes the same
//! marks and the same checks as the monolithic test functions, and one
//! job can run alone ([`run_job_isolated`]) to give a resident engine
//! that test's own trace, or to name the tables it reads
//! ([`read_devices`]).
//!
//! Pingmesh jobs carry their own RNG seed, derived per pair from the
//! suite seed (see [`crate::e2e`]); that is what makes the concrete test
//! chunking-invariant.

use netbdd::Bdd;
use netmodel::topology::{DeviceId, Role};
use netmodel::{MatchSets, Network, Prefix};
use yardstick::testgen::{ExpectedEnd, TestSpec};
use yardstick::Tracker;

use crate::acl::acl_entry_check;
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

/// One independently executable unit of a test suite.
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
    /// The name of the test this job belongs to.
    pub fn test_name(&self) -> &'static str {
        match self {
            SuiteJob::DefaultRoute { .. } => "DefaultRouteCheck",
            SuiteJob::ConnectedRoute { .. } => "ConnectedRouteCheck",
            SuiteJob::Contract { .. } => "Contract",
            SuiteJob::Reachability { .. } => "ToRReachability",
            SuiteJob::Pingmesh { .. } => "ToRPingmesh",
            SuiteJob::AclEntry { .. } => "AclEntryCheck",
            SuiteJob::Generated { spec } => spec.test_name(),
        }
    }
}

/// One [`SuiteJob::AclEntry`] job per guarded device — the
/// state-inspection test that covers ACL deny entries (`markRule`),
/// which no behavioural §8 test exercises.
pub fn acl_entry_jobs(devices: &[DeviceId], port: u16) -> Vec<SuiteJob> {
    devices
        .iter()
        .map(|&device| SuiteJob::AclEntry { device, port })
        .collect()
}

/// The §8 fat-tree suite (DefaultRouteCheck + ToRContract +
/// ToRReachability + ToRPingmesh) as a flat job list. Running these jobs
/// in any partition produces the same coverage trace as calling the four
/// test functions in sequence.
pub fn fattree_suite_jobs(net: &Network, info: &NetworkInfo, seed: u64) -> Vec<SuiteJob> {
    let mut jobs = Vec::new();
    for (device, _) in net.topology().devices() {
        jobs.push(SuiteJob::DefaultRoute { device });
    }
    for &(origin, prefix, _) in &info.tor_subnets {
        jobs.push(SuiteJob::Contract {
            origin,
            prefix,
            roles: RoleFilter::All,
        });
    }
    for src_index in 0..info.tor_subnets.len() {
        jobs.push(SuiteJob::Reachability { src_index });
    }
    let n = info.tor_subnets.len();
    for src_index in 0..n {
        for dst_index in 0..n {
            if src_index != dst_index {
                jobs.push(SuiteJob::Pingmesh {
                    src_index,
                    dst_index,
                    seed: pair_seed(seed, src_index, dst_index),
                });
            }
        }
    }
    jobs
}

/// The §7 regional suite (DefaultRouteCheck + AggCanReachTorLoopback +
/// InternalRouteCheck + ConnectedRouteCheck) as a flat job list.
pub fn regional_suite_jobs(net: &Network, info: &NetworkInfo) -> Vec<SuiteJob> {
    let mut jobs = Vec::new();
    for (device, _) in net.topology().devices() {
        jobs.push(SuiteJob::DefaultRoute { device });
    }
    let tor_devices: Vec<DeviceId> = info.tor_subnets.iter().map(|&(d, _, _)| d).collect();
    for &(origin, prefix) in info
        .loopbacks
        .iter()
        .filter(|(d, _)| tor_devices.contains(d))
    {
        jobs.push(SuiteJob::Contract {
            origin,
            prefix,
            roles: RoleFilter::Only(Role::Aggregation),
        });
    }
    for (origin, prefix) in info.internal_prefixes() {
        jobs.push(SuiteJob::Contract {
            origin,
            prefix,
            roles: RoleFilter::All,
        });
    }
    for link_index in 0..info.links.len() {
        jobs.push(SuiteJob::ConnectedRoute { link_index });
    }
    jobs
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
    // One span per job, named after the suite test it belongs to: the
    // span tree aggregates all jobs of a test into one node (count =
    // jobs, total = the test's wall-clock share on this thread).
    let _span = netobs::span(job.test_name());
    let mut ctx = TestContext {
        net,
        ms,
        info,
        tracker: std::mem::take(tracker),
    };
    let mut report = TestReport::new(job.test_name());
    match job {
        SuiteJob::DefaultRoute { device } => {
            check_default_route(&mut ctx, &mut report, *device);
        }
        SuiteJob::ConnectedRoute { link_index } => {
            check_connected_link(&mut ctx, &mut report, *link_index);
        }
        SuiteJob::Contract {
            origin,
            prefix,
            roles,
        } => {
            check_contract_prefix(bdd, &mut ctx, &mut report, *origin, *prefix, |role| {
                roles.accepts(role)
            });
        }
        SuiteJob::Reachability { src_index } => {
            check_reachability_from(bdd, &mut ctx, &mut report, *src_index);
        }
        SuiteJob::Pingmesh {
            src_index,
            dst_index,
            seed,
        } => {
            check_ping_pair(bdd, &mut ctx, &mut report, *src_index, *dst_index, *seed);
        }
        SuiteJob::AclEntry { device, port } => {
            report = acl_entry_check(bdd, &mut ctx, &[*device], *port);
        }
        SuiteJob::Generated { spec } => {
            let outcome =
                yardstick::testgen::run_spec(bdd, ctx.net, ctx.ms, &mut ctx.tracker, spec);
            report.check(outcome.is_ok(), || outcome.unwrap_err());
        }
    }
    *tracker = ctx.tracker;
    report
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
/// `DefaultRoute`, `ConnectedRoute` and `AclEntry` the rule they found,
/// `Contract` and `Reachability` the packets at each device before its
/// lookup, `Pingmesh` and generated traceroutes every hop. One lookup
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
    use crate::e2e::{tor_pingmesh, tor_reachability};
    use crate::inspection::default_route_check;
    use crate::local::tor_contract;
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

    /// The monolithic §8 suite, as `yardstick fig 8` / `fig 9` run it.
    fn run_monolithic(
        bdd: &mut Bdd,
        net: &Network,
        info: &NetworkInfo,
    ) -> yardstick::CoverageTrace {
        let ms = MatchSets::compute(net, bdd);
        let mut ctx = TestContext::new(net, &ms, info);
        let r1 = default_route_check(bdd, &mut ctx, |_| true);
        let r2 = tor_contract(bdd, &mut ctx);
        let r3 = tor_reachability(bdd, &mut ctx);
        let r4 = tor_pingmesh(bdd, &mut ctx, SEED);
        for r in [&r1, &r2, &r3, &r4] {
            assert!(r.passed(), "{}: {:?}", r.name, &r.failures[..1]);
        }
        ctx.tracker.into_trace()
    }

    #[test]
    fn job_decomposition_matches_monolithic_suite() {
        let (ft, info) = setup();
        let mut bdd = Bdd::new();
        let mono = run_monolithic(&mut bdd, &ft.net, &info);

        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let jobs = fattree_suite_jobs(&ft.net, &info, SEED);
        let mut tracker = Tracker::new();
        for job in &jobs {
            let rep = run_job(&mut bdd, &ft.net, &ms, &info, &mut tracker, job);
            assert!(rep.passed(), "{}: {:?}", rep.name, &rep.failures[..1]);
        }
        let sharded = tracker.into_trace();

        assert_eq!(sharded.rules, mono.rules);
        assert_eq!(sharded.packets.len(), mono.packets.len());
        for (loc, set) in mono.packets.iter() {
            assert_eq!(sharded.packets.at(loc), set, "at {loc:?}");
        }
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
        use topogen::{addressing, regional, RegionalParams};
        let r = regional(RegionalParams::default());
        let info = NetworkInfo {
            tor_subnets: r.tors.clone(),
            loopbacks: (0..r.net.topology().device_count())
                .map(|d| (DeviceId(d as u32), addressing::loopback(d as u32)))
                .collect(),
            links: r
                .links
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| {
                    let (p4, _, _) = addressing::p2p_v4(i as u32);
                    let (p6, _, _) = addressing::p2p_v6(i as u32);
                    (a, b, p4, p6)
                })
                .collect(),
        };
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
}
