//! Gap reports: from "coverage is 62%" to "here is what to test next".
//!
//! The case study's value came from *acting* on coverage data: engineers
//! looked at which rules were untested, recognised the route categories,
//! and wrote tests (§7.2–§7.3). This module automates the first half of
//! that loop: for every under-covered rule it renders the untested
//! packet space as readable header regions and proposes a concrete
//! witness packet that would exercise it — a ready-made traceroute
//! target.

use std::fmt;

use netbdd::Bdd;
use netmodel::header::Packet;
use netmodel::region::{describe_set, Region};
use netmodel::rule::RouteClass;
use netmodel::RuleId;

use crate::analyzer::{ratio, Analyzer};
use crate::testgen::{rule_seed, seeded_witness, WITNESS_SEED};

/// One under-covered rule with its untested space described.
#[derive(Clone, Debug)]
pub struct GapEntry {
    /// The under-covered rule.
    pub rule: RuleId,
    /// Human-readable name of the rule's device.
    pub device_name: String,
    /// The rule's route class (§7.2 phrases gaps in these terms).
    pub class: RouteClass,
    /// The rule's current coverage in `[0, 1)`.
    pub coverage: f64,
    /// Untested share of the whole packet space (the sort weight).
    pub untested_weight: f64,
    /// The untested packet space, as disjoint regions (bounded).
    pub regions: Vec<Region>,
    /// Whether `regions` covers the untested space completely.
    pub regions_complete: bool,
    /// A concrete packet inside the untested space — inject this at the
    /// rule's device and the rule gets exercised.
    pub witness: Option<Packet>,
}

impl fmt::Display for GapEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {:?} ({:?}, covered {:.1}%)",
            self.device_name,
            self.rule,
            self.class,
            self.coverage * 100.0
        )?;
        for r in &self.regions {
            writeln!(f, "    untested: {r}")?;
        }
        if !self.regions_complete {
            writeln!(f, "    … more regions omitted")?;
        }
        if let Some(w) = &self.witness {
            writeln!(f, "    try: packet {w}")?;
        }
        Ok(())
    }
}

/// A ranked list of testing gaps.
#[derive(Clone, Debug, Default)]
pub struct GapReport {
    /// Gap entries, sorted by descending untested weight.
    pub entries: Vec<GapEntry>,
    /// Number of under-covered rules beyond the report limit.
    pub omitted: usize,
}

impl fmt::Display for GapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            write!(f, "{e}")?;
        }
        if self.omitted > 0 {
            writeln!(f, "({} further under-covered rules omitted)", self.omitted)?;
        }
        Ok(())
    }
}

impl Analyzer<'_> {
    /// Build a gap report: the `limit` most under-covered rules (ranked
    /// by untested packet-space weight), each described by at most
    /// `regions_per_rule` regions, restricted to rules passing `filter`.
    pub fn gap_report(
        &self,
        bdd: &mut Bdd,
        limit: usize,
        regions_per_rule: usize,
        filter: impl Fn(RuleId, &netmodel::Rule) -> bool,
    ) -> GapReport {
        // Collect (rule, untested set, weights).
        let mut gaps: Vec<(RuleId, netbdd::Ref, f64, f64)> = Vec::new();
        let ids: Vec<(RuleId, RouteClass)> = self
            .network()
            .rules()
            .filter(|(id, r)| filter(*id, r))
            .map(|(id, r)| (id, r.class))
            .collect();
        for (id, _class) in ids {
            let m = self.match_sets().get(id);
            if m.is_false() {
                continue; // shadowed: untestable, not a gap
            }
            let t = self.covered_sets().get(id);
            let untested = bdd.diff(m, t);
            if untested.is_false() {
                continue;
            }
            let (m_w, t_w) = self.rule_measures(bdd, id);
            let coverage = ratio(m_w, t_w).expect("a non-empty match set has mass");
            gaps.push((id, untested, coverage, bdd.probability(untested)));
        }
        // Most untested weight first; ties by id for determinism.
        gaps.sort_by(|a, b| b.3.partial_cmp(&a.3).unwrap().then(a.0.cmp(&b.0)));
        let omitted = gaps.len().saturating_sub(limit);
        let entries = gaps
            .into_iter()
            .take(limit)
            .map(|(id, untested, coverage, u_w)| {
                let (regions, regions_complete) = describe_set(bdd, untested, regions_per_rule);
                GapEntry {
                    rule: id,
                    device_name: self.network().topology().device(id.device).name.clone(),
                    class: self.network().rule(id).class,
                    coverage,
                    untested_weight: u_w,
                    regions,
                    regions_complete,
                    // Seeded per rule: the witness is a pure function of
                    // the rule's identity and the untested set, never of
                    // report order or arena layout.
                    witness: seeded_witness(bdd, untested, rule_seed(WITNESS_SEED, id)),
                }
            })
            .collect();
        GapReport { entries, omitted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CoverageTrace;
    use netmodel::header;
    use netmodel::{Location, MatchSets};
    use topogen::{fattree, FatTreeParams};

    fn setup() -> (topogen::FatTree, Bdd, MatchSets) {
        let ft = fattree(FatTreeParams::paper(4));
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        (ft, bdd, ms)
    }

    #[test]
    fn untested_network_reports_everything_ranked_by_weight() {
        let (ft, mut bdd, ms) = setup();
        let trace = CoverageTrace::new();
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let report = a.gap_report(&mut bdd, 5, 3, |_, _| true);
        assert_eq!(report.entries.len(), 5);
        assert_eq!(report.omitted, ft.net.rule_count() - 5);
        // Default routes carry the most weight, so they rank first.
        assert!(ft
            .net
            .rule(report.entries[0].rule)
            .matches
            .dst
            .unwrap()
            .is_default());
        // Weights are non-increasing.
        for w in report.entries.windows(2) {
            assert!(w[0].untested_weight >= w[1].untested_weight);
        }
    }

    #[test]
    fn witnesses_actually_exercise_their_rules() {
        let (ft, mut bdd, ms) = setup();
        let trace = CoverageTrace::new();
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let report = a.gap_report(&mut bdd, 10, 2, |_, _| true);
        for entry in &report.entries {
            let w = entry.witness.expect("uncovered rules must have witnesses");
            assert!(
                w.matches(&bdd, ms.get(entry.rule)),
                "witness misses its rule"
            );
        }
    }

    #[test]
    fn partially_tested_rule_reports_the_residue() {
        let (ft, mut bdd, ms) = setup();
        let (tor, prefix, _) = ft.tors[0];
        // Test the low half of the /24.
        let mut trace = CoverageTrace::new();
        let low = header::dst_in(&mut bdd, &netmodel::Prefix::v4(prefix.bits() as u32, 25));
        trace.add_packets(&mut bdd, Location::device(tor), low);
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let report = a.gap_report(&mut bdd, 100, 4, |id, _| id.device == tor);
        let entry = report
            .entries
            .iter()
            .find(|e| ft.net.rule(e.rule).matches.dst == Some(prefix))
            .expect("the half-tested rule is a gap");
        assert!((entry.coverage - 0.5).abs() < 1e-9);
        // The untested region is exactly the high /25.
        assert!(entry.regions_complete);
        let rendered: Vec<String> = entry.regions.iter().map(|r| r.to_string()).collect();
        assert_eq!(rendered, vec![format!("v4 dst 10.0.0.128/25")]);
    }

    #[test]
    fn fully_covered_rules_never_appear() {
        let (ft, mut bdd, ms) = setup();
        let mut trace = CoverageTrace::new();
        let full = bdd.full();
        for (d, _) in ft.net.topology().devices() {
            trace.add_packets(&mut bdd, Location::device(d), full);
        }
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let report = a.gap_report(&mut bdd, 100, 3, |_, _| true);
        assert!(report.entries.is_empty());
        assert_eq!(report.omitted, 0);
    }

    #[test]
    fn display_renders_usable_text() {
        let (ft, mut bdd, ms) = setup();
        let trace = CoverageTrace::new();
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let report = a.gap_report(&mut bdd, 2, 2, |_, _| true);
        let text = report.to_string();
        assert!(text.contains("untested:"));
        assert!(text.contains("try: packet"));
        assert!(text.contains("further under-covered rules omitted"));
    }
}
