//! Mutant evaluation — the kill matrix.
//!
//! Each mutant is judged in two steps. First an **equivalence check**:
//! the mutated device's behaviour is compared against the original with
//! [`dataplane::diff::device_diff`]; mutants that don't change forwarding
//! behaviour at all (e.g. reordering two disjoint rules) are flagged
//! equivalent and excluded from kill-rate math, as is standard in
//! mutation testing. Second, the suite's [`SuiteJob`]s run against the
//! mutated snapshot; any failing test **kills** the mutant.
//!
//! Every operator edits one table, so a mutant is a one-device edit on
//! one working copy of the network and one [`Bdd`]: swap the table in,
//! recompute that device's match sets, judge, swap the original back.
//! Only the jobs that read the device's table on the unmutated network
//! ([`read_devices`], which states the condition) re-run, and
//! `tests/reference.rs` pins the outcomes to the whole-network,
//! full-suite evaluation.

use netbdd::Bdd;
use netmodel::{MatchSetCache, MatchSets, Network};
use testsuite::shard::read_devices;
use testsuite::{run_job, NetworkInfo, SuiteJob};
use yardstick::Tracker;

use crate::engine::{mutated_table, Mutant};

/// The verdict for one mutant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutantOutcome {
    /// The mutant's id (same as its index in the generated list).
    pub id: u32,
    /// True if the mutation did not change forwarding behaviour anywhere;
    /// equivalent mutants never run the suite and are excluded from
    /// kill-rate denominators.
    pub equivalent: bool,
    /// True if at least one suite test failed against the mutant.
    pub killed: bool,
    /// Names of the tests that failed (deduplicated, suite order).
    pub failed_tests: Vec<&'static str>,
}

/// Run every job once on the unmutated network; entry `d` lists, in
/// suite order, the jobs that read device `d`'s table
/// ([`read_devices`]). A job that fails here is listed under every
/// device, so no outcome rests on the suite being green.
fn jobs_by_device(
    bdd: &mut Bdd,
    net: &Network,
    ms: &MatchSets,
    info: &NetworkInfo,
    jobs: &[SuiteJob],
) -> Vec<Vec<usize>> {
    let mut by_device = vec![Vec::new(); net.topology().device_count()];
    for (j, job) in jobs.iter().enumerate() {
        match read_devices(bdd, net, ms, info, job) {
            Some(devices) => devices.iter().for_each(|d| by_device[d.0 as usize].push(j)),
            None => by_device.iter_mut().for_each(|at| at.push(j)),
        }
    }
    by_device
}

/// Evaluate every mutant and return outcomes in mutant order. `jobs` is
/// the suite to run per mutant; it must pass on the unmutated network
/// for kill verdicts to mean anything (the caller checks that — see the
/// `mutation_report` bin).
pub fn evaluate(
    net: &Network,
    info: &NetworkInfo,
    jobs: &[SuiteJob],
    mutants: &[Mutant],
) -> Vec<MutantOutcome> {
    let mut bdd = Bdd::new();
    let mut cache = MatchSetCache::new();
    let base_ms = MatchSets::compute_cached(net, &mut bdd, &mut cache);
    let by_device = jobs_by_device(&mut bdd, net, &base_ms, info, jobs);
    let mut work = net.clone();
    let mut work_ms = base_ms.clone();
    let mut tracker = Tracker::disabled();
    mutants
        .iter()
        .map(|mutant| {
            let _span = netobs::span_owned(format!("mutant-{}", mutant.id));
            let device = mutant.target.device;
            work.set_table(device, mutated_table(net, mutant));
            work_ms.recompute_device(&work, &mut bdd, &mut cache, device);
            let equivalent =
                dataplane::diff::device_diff(&mut bdd, net, &base_ms, &work, &work_ms, device)
                    .is_none();
            let selected: &[usize] = if equivalent {
                &[]
            } else {
                &by_device[device.0 as usize]
            };
            let mut failed: Vec<&'static str> = Vec::new();
            for &j in selected {
                // A failed test's remaining jobs cannot change the
                // outcome, which records names, not check counts.
                let name = jobs[j].test_name();
                if !failed.contains(&name)
                    && !run_job(&mut bdd, &work, &work_ms, info, &mut tracker, &jobs[j]).passed()
                {
                    failed.push(name);
                }
            }
            work.set_table(device, net.table(device).clone());
            work_ms.recompute_device(&work, &mut bdd, &mut cache, device);
            // Suite order: a test ranks by its first job.
            failed.sort_by_key(|&name| jobs.iter().position(|j| j.test_name() == name));
            MutantOutcome {
                id: mutant.id,
                equivalent,
                killed: !failed.is_empty(),
                failed_tests: failed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{generate, MutationConfig};
    use testsuite::fattree_suite_jobs;
    use topogen::fattree::{fattree, FatTreeParams};

    fn setup() -> (Network, NetworkInfo, Vec<SuiteJob>) {
        let ft = fattree(FatTreeParams::paper(4));
        let info = NetworkInfo {
            tor_subnets: ft.tors.clone(),
            ..NetworkInfo::default()
        };
        let jobs = fattree_suite_jobs(&ft.net, &info, 0xC0FFEE);
        (ft.net, info, jobs)
    }

    #[test]
    fn outcomes_do_not_depend_on_the_run_or_the_mutant_order() {
        let (net, info, jobs) = setup();
        let mut mutants = generate(
            &net,
            &MutationConfig {
                seed: 7,
                per_op_cap: 3,
            },
        );
        assert!(!mutants.is_empty());
        let first = evaluate(&net, &info, &jobs, &mutants);
        assert_eq!(evaluate(&net, &info, &jobs, &mutants), first);
        // Every mutant is undone before the next one: judged in reverse,
        // each gets the verdict it got in forward order.
        mutants.reverse();
        let mut reversed = evaluate(&net, &info, &jobs, &mutants);
        reversed.reverse();
        assert_eq!(reversed, first);
    }

    #[test]
    fn deleting_a_tor_subnet_route_is_killed() {
        let (net, info, jobs) = setup();
        // Find the first ToR host-subnet rule and delete it by hand.
        let target = net
            .rules()
            .find(|(_, r)| r.class == netmodel::rule::RouteClass::HostSubnet)
            .map(|(id, _)| id)
            .expect("fat-tree has host-subnet routes");
        let mutant = Mutant {
            id: 0,
            op: crate::operators::Operator::DeleteRule,
            target,
            seed: 0,
        };
        let out = evaluate(&net, &info, &jobs, &[mutant]);
        assert!(!out[0].equivalent);
        assert!(out[0].killed, "losing a subnet route must fail the suite");
        assert!(!out[0].failed_tests.is_empty());
    }

    #[test]
    fn evaluate_handles_empty_mutant_list() {
        let (net, info, jobs) = setup();
        assert!(evaluate(&net, &info, &jobs, &[]).is_empty());
    }
}
