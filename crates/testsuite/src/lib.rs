//! # testsuite — network tests across the paper's taxonomy (Figure 2)
//!
//! The paper classifies network tests two ways: **state-inspection**
//! versus **behavioural**, and behavioural tests further by **local vs.
//! end-to-end** and **concrete vs. symbolic**. This crate implements the
//! named tests from the case study (§7) and the performance evaluation
//! (§8), one per taxonomy cell, each instrumented with Yardstick's
//! two-call coverage API:
//!
//! | test                    | kind                  | section |
//! |-------------------------|-----------------------|---------|
//! | DefaultRouteCheck       | state inspection      | §7.2/§8 |
//! | AggCanReachTorLoopback  | local symbolic        | §7.2    |
//! | InternalRouteCheck      | local symbolic        | §7.3    |
//! | ConnectedRouteCheck     | state inspection      | §7.3    |
//! | WanRouteCheck           | local symbolic        | §7.3+   |
//! | HostPortCheck           | state inspection      | §7.3+   |
//! | ToRContract (RCDC)      | local symbolic        | §8      |
//! | ToRReachability         | end-to-end symbolic   | §8      |
//! | ToRPingmesh             | end-to-end concrete   | §8      |
//! | AclEntryCheck           | state inspection      | Fig 2   |
//! | AclBehaviorCheck        | local symbolic        | Fig 2   |
//!
//! Each is a row of [`NAMED_TESTS`] that decomposes into [`SuiteJob`]s,
//! and [`run_job`] is the only way a job runs. A job reports into any
//! tracker, enabled or disabled — which is exactly how the Figure-8
//! experiment measures the overhead of coverage tracking.

#![deny(missing_docs)]

mod acl;
mod beyond;
pub mod context;
mod e2e;
mod inspection;
mod local;
pub mod shard;

pub use context::{NetworkInfo, SuiteVerdict, TestReport};
pub use shard::{
    fattree_suite_jobs, named_test, regional_suite_jobs, run_job, suite, NamedTest, RoleFilter,
    SuiteJob, NAMED_TESTS,
};

#[cfg(test)]
mod testing {
    //! What the unit tests share.

    use netbdd::Bdd;
    use netmodel::{DeviceId, MatchSets, Network};
    use topogen::addressing;
    use yardstick::Tracker;

    use crate::{named_test, NetworkInfo, TestReport};

    /// The regional network's ground truth, as `bench::regional_info`
    /// builds it (this crate cannot depend on `bench`).
    pub(crate) fn regional_info(r: &topogen::Regional) -> NetworkInfo {
        NetworkInfo {
            tor_subnets: r.tors.clone(),
            loopbacks: (0..r.net.topology().device_count() as u32)
                .map(|d| (DeviceId(d), addressing::loopback(d)))
                .collect(),
            links: (0..)
                .zip(&r.links)
                .map(|(i, &(a, b))| (a, b, addressing::p2p_v4(i).0, addressing::p2p_v6(i).0))
                .collect(),
            wan_prefixes: r.wan_prefixes.clone(),
            wan_routers: r.wans.clone(),
            host_port_slices: r.host_port_slices.clone(),
            acls: Vec::new(),
        }
    }

    /// Run the named test `name` on `net` into `tracker`.
    pub(crate) fn run_named(
        bdd: &mut Bdd,
        net: &Network,
        info: &NetworkInfo,
        name: &str,
        tracker: &mut Tracker,
    ) -> TestReport {
        let ms = MatchSets::compute(net, bdd);
        named_test(name)
            .run(bdd, net, &ms, info, tracker, 0xC0FFEE)
            .unwrap_or_else(|| panic!("{name} does not apply"))
    }
}
