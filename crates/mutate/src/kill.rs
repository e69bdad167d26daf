//! Parallel mutant evaluation — the kill matrix.
//!
//! Each mutant is judged in two steps. First an **equivalence check**:
//! the mutated network's per-device behaviour is compared against the
//! original with [`dataplane::diff::equivalent`]; mutants that don't
//! change forwarding behaviour at all (e.g. reordering two disjoint
//! rules) are flagged equivalent and excluded from kill-rate math, as is
//! standard in mutation testing. Second, the full test suite — the same
//! [`SuiteJob`] list the coverage run uses — executes against the mutated
//! snapshot; any failing test **kills** the mutant.
//!
//! Mutants are independent, so this is the one threaded path in the
//! workspace: the mutant list is split into contiguous ranges, each
//! worker owns a private [`Bdd`] and evaluates its range independently,
//! and results are concatenated in worker order — nothing is merged.
//! Verdicts are semantic booleans (suite pass/fail), so the outcome
//! vector — and therefore the surviving-mutant list — is bit-identical
//! for every thread count.

use std::ops::Range;

use netbdd::Bdd;
use netmodel::{MatchSets, Network};
use testsuite::{run_job, NetworkInfo, SuiteJob, SuiteVerdict};
use yardstick::Tracker;

use crate::engine::{apply, Mutant};

/// The verdict for one mutant.
#[derive(Clone, Debug)]
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

/// Deterministic balanced partition of `0..n` into at most `parts`
/// contiguous *non-empty* ranges whose lengths differ by at most one
/// (front-loaded). With more parts than items every item gets its own
/// range and no empty trailing ranges are produced — [`evaluate`] spawns
/// one worker per range, and a worker with no mutants would pay a manager
/// and a match-set computation to contribute nothing.
fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Evaluate every mutant across `threads` workers and return outcomes in
/// mutant order. `jobs` is the suite to run per mutant; it must pass on
/// the unmutated network for kill verdicts to mean anything (the caller
/// checks that — see the `mutation_report` bin).
pub fn evaluate(
    net: &Network,
    info: &NetworkInfo,
    jobs: &[SuiteJob],
    mutants: &[Mutant],
    threads: usize,
) -> Vec<MutantOutcome> {
    let ranges = chunk_ranges(mutants.len(), threads);
    let mut results: Vec<Vec<MutantOutcome>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (w, range) in ranges.iter().cloned().enumerate() {
            let shard = &mutants[range];
            handles.push(scope.spawn(move || {
                let mut bdd = Bdd::new();
                let base_ms = MatchSets::compute(net, &mut bdd);
                let out: Vec<MutantOutcome> = shard
                    .iter()
                    .map(|m| evaluate_one(&mut bdd, net, &base_ms, info, jobs, m))
                    .collect();
                if netobs::enabled() {
                    netobs::flush(&format!("mutate-worker-{w}"));
                }
                out
            }));
        }
        for h in handles {
            results.push(h.join().expect("mutation worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// Judge a single mutant with a caller-provided manager. The match sets
/// of the *unmutated* network are passed in so workers compute them once
/// per shard, not once per mutant.
fn evaluate_one(
    bdd: &mut Bdd,
    net: &Network,
    base_ms: &MatchSets,
    info: &NetworkInfo,
    jobs: &[SuiteJob],
    mutant: &Mutant,
) -> MutantOutcome {
    let _span = netobs::span_owned(format!("mutant-{}", mutant.id));
    let mutated = apply(net, mutant);
    let mutated_ms = MatchSets::compute(&mutated, bdd);
    if dataplane::diff::equivalent(bdd, net, base_ms, &mutated, &mutated_ms) {
        return MutantOutcome {
            id: mutant.id,
            equivalent: true,
            killed: false,
            failed_tests: Vec::new(),
        };
    }
    let mut verdict = SuiteVerdict::new();
    let mut tracker = Tracker::disabled();
    for job in jobs {
        let report = run_job(bdd, &mutated, &mutated_ms, info, &mut tracker, job);
        verdict.record(&report);
    }
    MutantOutcome {
        id: mutant.id,
        equivalent: false,
        killed: !verdict.passed(),
        failed_tests: verdict.failed_tests(),
    }
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
    fn chunk_ranges_partition_exactly() {
        for n in 0..20 {
            for parts in 1..6 {
                let ranges = chunk_ranges(n, parts);
                assert_eq!(ranges.len(), parts.min(n), "n={n} parts={parts}");
                assert!(
                    ranges.iter().all(|r| !r.is_empty()),
                    "no empty ranges: n={n} parts={parts} {ranges:?}"
                );
                // Contiguous, exhaustive and balanced.
                let mut expect_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect_start);
                    expect_start = r.end;
                }
                assert_eq!(expect_start, n);
                if n > 0 {
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn outcomes_are_bit_identical_across_thread_counts() {
        let (net, info, jobs) = setup();
        let mutants = generate(
            &net,
            &MutationConfig {
                seed: 7,
                per_op_cap: 3,
            },
        );
        assert!(!mutants.is_empty());
        let base = evaluate(&net, &info, &jobs, &mutants, 1);
        for threads in [2, 4] {
            let other = evaluate(&net, &info, &jobs, &mutants, threads);
            assert_eq!(base.len(), other.len());
            for (a, b) in base.iter().zip(&other) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.equivalent, b.equivalent, "mutant {}", a.id);
                assert_eq!(a.killed, b.killed, "mutant {}", a.id);
                assert_eq!(a.failed_tests, b.failed_tests, "mutant {}", a.id);
            }
        }
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
        let out = evaluate(&net, &info, &jobs, &[mutant], 1);
        assert!(!out[0].equivalent);
        assert!(out[0].killed, "losing a subnet route must fail the suite");
        assert!(!out[0].failed_tests.is_empty());
    }

    #[test]
    fn evaluate_handles_empty_mutant_list() {
        let (net, info, jobs) = setup();
        assert!(evaluate(&net, &info, &jobs, &[], 4).is_empty());
    }
}
