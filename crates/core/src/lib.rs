//! # yardstick — test coverage metrics for the network
//!
//! A from-scratch Rust implementation of the coverage framework from
//! *Test Coverage Metrics for the Network* (SIGCOMM 2021). The framework
//! rests on one observation: every network dataplane component decomposes
//! into forwarding rules, and every kind of test ultimately exercises
//! rules with packets. The **atomic testable unit (ATU)** is a pair of
//! one rule and one packet; tests, test suites, and components are all
//! described by the ATU sets they touch, which makes a single machinery
//! able to compute rule, device, interface, path, and flow coverage from
//! state-inspection tests, concrete probes, and symbolic analyses alike.
//!
//! ## Two-phase operation (§5)
//!
//! * **Phase 1 — tracking.** While tests run, a [`Tracker`] records what
//!   they report through two calls: [`Tracker::mark_packet`] (behavioural
//!   tests report the located packets they used, hop by hop) and
//!   [`Tracker::mark_rule`] (state-inspection tests report the rules they
//!   looked at). The trace is kept compact — one packet-set union per
//!   location plus a rule-id set — so tracking stays off the critical
//!   testing path.
//! * **Phase 2 — analysis.** After tests finish, an [`Analyzer`] combines
//!   the trace with the network state: it computes disjoint rule match
//!   sets, derives every rule's covered set (Algorithm 1), and evaluates
//!   whatever metrics are requested — including new ones, long after the
//!   tests ran.
//!
//! ## The metric framework (§4.3)
//!
//! A component's coverage is specified by a *dependency specification*
//! (a set of [`GuardedString`]s), a *measure* µ, and a *combinator* κ;
//! collections aggregate component coverage with an *aggregator* α. The
//! common components (rules, devices, interfaces, paths, flows) are
//! provided in [`components`]; the raw programmable layer is exported for
//! everything else (CoFlows, firewall cones, ...).
//!
//! ```
//! use netbdd::Bdd;
//! use netmodel::{Location, MatchSets};
//! use yardstick::{Analyzer, Tracker};
//! # use netmodel::{Network, Prefix, Role, rule::{Rule, RouteClass}, topology::Topology};
//! # let mut topo = Topology::new();
//! # let d = topo.add_device("r1", Role::Tor);
//! # let h = topo.add_iface(d, "hosts", netmodel::IfaceKind::Host);
//! # let mut net = Network::new(topo);
//! # net.add_rule(d, Rule::forward(Prefix::v4_default(), vec![h], RouteClass::StaticDefault));
//! # net.finalize();
//!
//! let mut bdd = Bdd::new();
//! let mut tracker = Tracker::new();
//! // ... a state-inspection test reports the rule it checked:
//! tracker.mark_rule(net.rules().next().unwrap().0);
//!
//! let ms = MatchSets::compute(&net, &mut bdd);
//! let analyzer = Analyzer::new(&net, &ms, tracker.trace(), &mut bdd);
//! let cov = analyzer.device_coverage(&mut bdd, d).unwrap();
//! assert_eq!(cov, 1.0); // the device's only rule is fully covered
//! ```

#![deny(missing_docs)]

pub mod analyzer;
pub mod atu;
pub mod components;
pub mod config;
pub mod covered;
pub mod daemon;
pub mod engine;
pub mod flowcov;
pub mod framework;
pub mod gaps;
pub mod obs;
pub mod pathcov;
pub mod report;
pub mod rng;
pub mod testgen;
pub mod trace;
pub mod tracker;

pub use analyzer::Analyzer;
pub use atu::Atu;
pub use config::{ConfigCoverage, ConstructCoverage};
pub use covered::CoveredSets;
pub use engine::{
    CoverageEngine, DeltaKind, DeltaRecord, EngineError, HeadlineMetrics, QueryCache,
    QueryCacheStats, RuleCoverage,
};
pub use framework::{Aggregator, Combinator, ComponentSpec, GuardedString, Measure};
pub use gaps::{GapEntry, GapReport};
pub use obs::publish_bdd_gauges;
pub use report::{ClassReport, CoverageReport, ReportRow};
pub use testgen::{
    autogen, autogen_config, ConfigGenReport, GenConfig, GenReport, GeneratedTest, TestSpec,
};
pub use trace::{CoverageTrace, PortableTrace};
pub use tracker::Tracker;
