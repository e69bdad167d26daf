//! Shared context for running network tests with coverage tracking.

use netmodel::topology::{DeviceId, Role};
use netmodel::{IfaceId, MatchSets, Network, Prefix};
use yardstick::Tracker;

/// Ground-truth facts about a generated network that tests validate
/// against. Generators know these by construction; a production
/// deployment would derive them from intent/config sources. The tests
/// beyond the case study's final suite do not apply where their facts
/// are empty (see [`crate::NamedTest::jobs`]).
#[derive(Clone, Debug, Default)]
pub struct NetworkInfo {
    /// ToRs with their hosted prefix and host-facing interface.
    pub tor_subnets: Vec<(DeviceId, Prefix, IfaceId)>,
    /// Per-device loopback prefixes (device, prefix).
    pub loopbacks: Vec<(DeviceId, Prefix)>,
    /// Point-to-point links with their assigned v4 and v6 prefixes.
    pub links: Vec<(IfaceId, IfaceId, Prefix, Prefix)>,
    /// The wide-area prefixes the WAN advertises (WanRouteCheck).
    pub wan_prefixes: Vec<Prefix>,
    /// The WAN routers those prefixes enter through.
    pub wan_routers: Vec<DeviceId>,
    /// ToR host ports with the subnet slice each delivers:
    /// `(ToR, port, slice prefix)` (HostPortCheck).
    pub host_port_slices: Vec<(DeviceId, IfaceId, Prefix)>,
    /// Devices whose ACL must drop TCP traffic to a port: `(device,
    /// port)` (AclEntryCheck, AclBehaviorCheck).
    pub acls: Vec<(DeviceId, u16)>,
}

impl NetworkInfo {
    /// All internal destinations (host subnets + loopbacks) with their
    /// originating device — the input of InternalRouteCheck.
    pub fn internal_prefixes(&self) -> Vec<(DeviceId, Prefix)> {
        let mut out: Vec<(DeviceId, Prefix)> =
            self.tor_subnets.iter().map(|&(d, p, _)| (d, p)).collect();
        out.extend(self.loopbacks.iter().copied());
        out
    }
}

/// Everything a check needs: the network, its match sets, ground truth,
/// and the coverage tracker to report into. [`crate::run_job`] builds
/// one per job.
pub(crate) struct TestContext<'n> {
    pub(crate) net: &'n Network,
    pub(crate) ms: &'n MatchSets,
    pub(crate) info: &'n NetworkInfo,
    pub(crate) tracker: Tracker,
}

impl TestContext<'_> {
    /// Ranking of roles from the bottom of the hierarchy up, used to
    /// decide what "northbound" means for a device.
    pub(crate) fn role_rank(role: Role) -> u8 {
        match role {
            Role::Tor => 0,
            Role::Aggregation => 1,
            Role::Spine => 2,
            Role::RegionalHub | Role::Border => 3,
            Role::Wan => 4,
            Role::Other => 0,
        }
    }
}

/// Outcome of one test run: a pass/fail verdict with details, plus how
/// many individual checks executed.
#[derive(Clone, Debug)]
pub struct TestReport {
    /// The test's name (one of the taxonomy tests).
    pub name: &'static str,
    /// How many individual checks executed.
    pub checks: u64,
    /// Human-readable descriptions of every failed check.
    pub failures: Vec<String>,
}

impl TestReport {
    /// An empty report for the named test.
    pub fn new(name: &'static str) -> TestReport {
        TestReport {
            name,
            checks: 0,
            failures: Vec::new(),
        }
    }

    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Record one check: count it, and log `failure()` when `ok` is false.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(failure());
        }
    }
}

/// Aggregated pass/fail verdicts of a whole suite run, grouped by test
/// name — the per-suite complement of [`TestReport`], used where the
/// *verdict* is the product (mutation kill matrices) rather than the
/// coverage trace.
///
/// [`crate::run_job`] produces one [`TestReport`] per job; feeding them
/// all through [`SuiteVerdict::record`] folds the jobs of each job kind
/// ([`crate::SuiteJob::test_name`]) into one row, in first-recorded
/// order, so the rows do not depend on which subset of jobs ran first.
#[derive(Clone, Debug, Default)]
pub struct SuiteVerdict {
    /// Per test name: total checks and the collected failure messages.
    entries: Vec<(&'static str, u64, Vec<String>)>,
}

impl SuiteVerdict {
    /// An empty verdict; fold reports in with [`SuiteVerdict::record`].
    pub fn new() -> SuiteVerdict {
        SuiteVerdict::default()
    }

    /// Fold one job's report into the verdict.
    pub fn record(&mut self, report: &TestReport) {
        match self.entries.iter_mut().find(|(n, _, _)| *n == report.name) {
            Some((_, checks, failures)) => {
                *checks += report.checks;
                failures.extend(report.failures.iter().cloned());
            }
            None => self
                .entries
                .push((report.name, report.checks, report.failures.clone())),
        }
    }

    /// Whether every recorded check passed.
    pub fn passed(&self) -> bool {
        self.entries.iter().all(|(_, _, f)| f.is_empty())
    }

    /// Names of tests with at least one failing check, in record order.
    pub fn failed_tests(&self) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter(|(_, _, f)| !f.is_empty())
            .map(|(n, _, _)| *n)
            .collect()
    }

    /// Per-test rows: `(name, checks, failure count)`, in record order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, usize)> + '_ {
        self.entries.iter().map(|(n, c, f)| (*n, *c, f.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_tracks_checks_and_failures() {
        let mut r = TestReport::new("t");
        r.check(true, || unreachable!());
        r.check(false, || "boom".to_string());
        assert_eq!(r.checks, 2);
        assert!(!r.passed());
        assert_eq!(r.failures, vec!["boom".to_string()]);
    }

    #[test]
    fn role_ranks_are_ordered_bottom_up() {
        assert!(TestContext::role_rank(Role::Tor) < TestContext::role_rank(Role::Aggregation));
        assert!(TestContext::role_rank(Role::Aggregation) < TestContext::role_rank(Role::Spine));
        assert!(TestContext::role_rank(Role::Spine) < TestContext::role_rank(Role::RegionalHub));
        assert!(TestContext::role_rank(Role::RegionalHub) < TestContext::role_rank(Role::Wan));
    }

    #[test]
    fn internal_prefixes_concatenates_subnets_and_loopbacks() {
        let info = NetworkInfo {
            tor_subnets: vec![(DeviceId(0), "10.0.0.0/24".parse().unwrap(), IfaceId(0))],
            loopbacks: vec![(DeviceId(1), "172.16.0.1/32".parse().unwrap())],
            ..NetworkInfo::default()
        };
        let all = info.internal_prefixes();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, DeviceId(0));
        assert_eq!(all[1].0, DeviceId(1));
    }
}
