//! Determinism guarantees of the witness/testgen path on a real
//! (fat-tree) workload.
//!
//! * Gap reports — including the per-rule witness packets — must be
//!   identical whatever the arena looks like underneath: witnesses are
//!   seeded per rule (`testgen::rule_seed`), never drawn from iteration
//!   order or node indices.
//! * The coverage-guided generation loop must emit a bit-identical test
//!   suite from the same logical state — the acceptance bar for
//!   reproducible autogen runs.
//!
//! Both are checked between a freshly booted engine and one that reached
//! the same state the long way round: a test added and removed again
//! (stranding garbage) and a collection (every `Ref` relocated).

use netbdd::Bdd;
use netmodel::topology::DeviceId;
use netmodel::{header, Location, Network};
use topogen::acl::{install_acl, AclEntry};
use topogen::{fattree, FatTreeParams};
use yardstick::testgen::{autogen, GenConfig};
use yardstick::{CoverageEngine, CoverageTrace, GapEntry};

/// Fat-tree k=4 with the §8 bogon ACLs on the cores, so the workload
/// has both FIB-shaped and ACL-shaped gaps.
fn guarded_net() -> Network {
    let mut ft = fattree(FatTreeParams::paper(4));
    for core in ft.cores.clone() {
        install_acl(&mut ft.net, core, &[AclEntry::block_tcp_port(23)]);
    }
    ft.net
}

/// The gap report of a fresh engine, rendered to comparable form:
/// `(rule, rendered entry text, witness debug)` per entry.
fn gap_fingerprint(engine: &mut CoverageEngine) -> Vec<(String, String, String)> {
    let (a, bdd) = engine.analyzer();
    a.gap_report(bdd, usize::MAX, 4, |_, _| true)
        .entries
        .iter()
        .map(|e: &GapEntry| {
            (
                format!("r{}.{}", e.rule.device.0, e.rule.index),
                e.to_string(),
                format!("{:?}", e.witness),
            )
        })
        .collect()
}

/// An engine on [`guarded_net`] in the freshly booted logical state but
/// with a churned, collected arena.
fn churned_engine() -> CoverageEngine {
    let mut engine = CoverageEngine::new(guarded_net(), 1);
    let mut bdd = Bdd::new();
    let mut trace = CoverageTrace::new();
    for d in 0..4 {
        let set = header::dst_in(&mut bdd, &format!("10.{d}.0.0/16").parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(DeviceId(d)), set);
    }
    engine.add_test("churn", &trace.export(&bdd)).unwrap();
    engine.remove_test("churn").unwrap();
    assert!(engine.gc().reclaimed() > 0, "churn must strand garbage");
    engine
}

#[test]
fn gap_reports_are_arena_layout_invariant() {
    let fresh = gap_fingerprint(&mut CoverageEngine::new(guarded_net(), 1));
    assert!(!fresh.is_empty(), "untested network must gap");
    assert_eq!(fresh, gap_fingerprint(&mut churned_engine()));
}

#[test]
fn autogen_suite_is_arena_layout_invariant() {
    let cfg = GenConfig {
        budget: 4096,
        ..GenConfig::default()
    };
    let ids: Vec<_> = guarded_net().rules().map(|(id, _)| id).collect();
    let run = |mut engine: CoverageEngine| {
        let report = autogen(&mut engine, &cfg);
        assert!(report.converged, "loop did not converge");
        assert!(!report.budget_exhausted);
        assert!(!report.tests.is_empty());
        let exercised: Vec<bool> = ids.iter().map(|&id| engine.is_exercised(id)).collect();
        (report.tests, exercised)
    };
    assert_eq!(
        run(CoverageEngine::new(guarded_net(), 1)),
        run(churned_engine())
    );
}

#[test]
fn autogen_covers_every_core_acl_entry() {
    // The §8 study's point: the bogon ACLs start uncovered and hide
    // faults. Autogen must close them with state-inspection tests so the
    // mutation study kills all ACL mutants without hand-written tests.
    let mut ft = fattree(FatTreeParams::paper(4));
    let cores = ft.cores.clone();
    for &core in &cores {
        install_acl(&mut ft.net, core, &[AclEntry::block_tcp_port(23)]);
    }
    let net = ft.net;
    let acl_rules: Vec<_> = net
        .rules()
        .filter(|(_, r)| r.action.is_drop() && r.matches.dport.is_some())
        .map(|(id, _)| id)
        .collect();
    assert_eq!(acl_rules.len(), cores.len());
    let mut engine = CoverageEngine::new(net, 1);
    let report = autogen(
        &mut engine,
        &GenConfig {
            budget: 4096,
            ..GenConfig::default()
        },
    );
    assert!(report.converged);
    for id in acl_rules {
        assert!(
            engine.is_exercised(id),
            "core ACL rule r{}.{} left uncovered",
            id.device.0,
            id.index
        );
    }
}
