//! # mutate — seeded dataplane mutation testing for Yardstick
//!
//! The paper argues that coverage predicts bug-detection ability: a test
//! suite can only catch faults hiding in rules it actually exercises
//! (§2's Azure incident is the canonical miss). This crate closes the
//! loop empirically. It injects deterministic, seeded faults directly
//! into the **concrete dataplane model** — post-routing, the way a
//! firmware bug or a corrupted FIB entry would appear — re-runs the test
//! suite against every mutant, and cross-references the kill matrix with
//! the Algorithm-1 covered sets of the unmutated network. The headline
//! number: kill rate for mutants in covered territory versus mutants the
//! suite never looked at.
//!
//! The pipeline is three stages, one module each:
//!
//! 1. [`engine::generate`] — enumerate [`Mutant`]s: each operator from
//!    the fixed set ([`Operator::ALL`]) applied to every applicable rule,
//!    deterministically thinned to a per-operator cap.
//! 2. [`kill::evaluate`] — per mutant (one netobs span each), a
//!    one-device edit on one BDD manager: equivalence on that device,
//!    then only the [`testsuite`] jobs that read that device's table on
//!    the unmutated network.
//! 3. [`report::cross_reference`] — fold mutants, outcomes, and
//!    [`yardstick::CoveredSets`] into a [`MutationReport`] with
//!    per-operator tallies, the covered/uncovered kill split, and the
//!    surviving-mutant list.
//!
//! ```
//! use mutate::{cross_reference, evaluate, generate, MutationConfig};
//! use netbdd::Bdd;
//! use netmodel::MatchSets;
//! use testsuite::{fattree_suite_jobs, NetworkInfo};
//! use topogen::fattree::{fattree, FatTreeParams};
//! use yardstick::{CoveredSets, Tracker};
//!
//! let ft = fattree(FatTreeParams::paper(4));
//! let info = NetworkInfo { tor_subnets: ft.tors.clone(), ..NetworkInfo::default() };
//! let jobs = fattree_suite_jobs(&ft.net, &info, 7);
//!
//! // Coverage of the unmutated network (normally from a tracked suite
//! // run; empty here to keep the example fast).
//! let mut bdd = Bdd::new();
//! let ms = MatchSets::compute(&ft.net, &mut bdd);
//! let tracker = Tracker::new();
//! let covered = CoveredSets::compute(&ft.net, &ms, tracker.trace(), &mut bdd);
//!
//! let cfg = MutationConfig { seed: 7, per_op_cap: 1 };
//! let mutants = generate(&ft.net, &cfg);
//! let outcomes = evaluate(&ft.net, &info, &jobs, &mutants);
//! let report = cross_reference(cfg.seed, &covered, &mutants, &outcomes);
//! assert_eq!(report.generated(), mutants.len());
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod kill;
pub mod operators;
pub mod report;

pub use engine::{apply, generate, Mutant, MutationConfig};
pub use kill::{evaluate, MutantOutcome};
pub use operators::Operator;
pub use report::{cross_reference, CoverageSplit, MutationReport, OperatorStats};
