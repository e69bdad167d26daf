//! Atomic testable units — the paper's foundational concept, first-class.
//!
//! An **ATU** is a pair of one forwarding rule and one packet: "the
//! minimal unit that any test can exercise" (§1). Everything in this
//! library is defined in terms of ATU *sets*:
//!
//! * a test's impact is the set of ATUs it exercised — represented
//!   compactly as the coverage trace `(P_T, R_T)` rather than pair by
//!   pair;
//! * a component's dependencies are the ATUs that must be exercised to
//!   test it — rule coverage needs `{(r, p) | p ∈ M[r]}`, device
//!   coverage the union over the device's rules, and so on;
//! * covered sets `T[r]` (Algorithm 1) are the per-rule slices of the
//!   suite's ATU set.
//!
//! Materialising individual ATUs is only useful at the edges — sampling
//! witnesses, explaining results to humans, property-testing the
//! machinery — which is what this module provides. The sets themselves
//! always stay symbolic.

use netbdd::Bdd;
use netmodel::header::{sample_packet, Packet};
use netmodel::RuleId;

use crate::analyzer::Analyzer;

/// One atomic testable unit: rule `r` exercised by packet `p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Atu {
    /// The rule being exercised.
    pub rule: RuleId,
    /// The concrete packet exercising it.
    pub packet: Packet,
}

impl std::fmt::Display for Atu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:?}, {})", self.rule, self.packet)
    }
}

impl Analyzer<'_> {
    /// Whether the suite exercised this exact ATU.
    ///
    /// `None` if the pair is not an ATU at all (the packet is outside
    /// the rule's match set — no test could ever exercise it).
    pub fn atu_covered(&self, bdd: &mut Bdd, atu: Atu) -> Option<bool> {
        let m = self.match_sets().get(atu.rule);
        if !atu.packet.matches(bdd, m) {
            return None;
        }
        let t = self.covered_sets().get(atu.rule);
        Some(atu.packet.matches(bdd, t))
    }

    /// A covered ATU of this rule, if any — a concrete example of what
    /// the suite already exercises.
    pub fn sample_covered_atu(&self, bdd: &mut Bdd, rule: RuleId) -> Option<Atu> {
        let t = self.covered_sets().get(rule);
        sample_packet(bdd, t).map(|packet| Atu { rule, packet })
    }

    /// An uncovered ATU of this rule, if any — a concrete example of
    /// what a new test should exercise. The packet is
    /// [`sample_packet`]'s unseeded pick from `M[r] \ T[r]`; the gap
    /// report draws its witness with
    /// [`seeded_witness`](crate::testgen::seeded_witness) instead.
    pub fn sample_uncovered_atu(&self, bdd: &mut Bdd, rule: RuleId) -> Option<Atu> {
        let m = self.match_sets().get(rule);
        let t = self.covered_sets().get(rule);
        let untested = bdd.diff(m, t);
        sample_packet(bdd, untested).map(|packet| Atu { rule, packet })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CoverageTrace;
    use netmodel::header;
    use netmodel::{Location, MatchSets};
    use topogen::{fattree, FatTreeParams};

    fn setup() -> (topogen::FatTree, Bdd, MatchSets, CoverageTrace) {
        let ft = fattree(FatTreeParams::paper(4));
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&ft.net, &mut bdd);
        let mut trace = CoverageTrace::new();
        // Cover half of tor0's own prefix.
        let (tor, prefix, _) = ft.tors[0];
        let half = header::dst_in(&mut bdd, &netmodel::Prefix::v4(prefix.bits() as u32, 25));
        trace.add_packets(&mut bdd, Location::device(tor), half);
        (ft, bdd, ms, trace)
    }

    #[test]
    fn atu_covered_distinguishes_three_cases() {
        let (ft, mut bdd, ms, trace) = setup();
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let (tor, prefix, _) = ft.tors[0];
        let rule = ft
            .net
            .device_rule_ids(tor)
            .find(|&id| ft.net.rule(id).matches.dst == Some(prefix))
            .unwrap();
        // Covered: an address in the low /25.
        let covered = Atu {
            rule,
            packet: Packet::v4_to(prefix.nth_addr(1) as u32),
        };
        assert_eq!(a.atu_covered(&mut bdd, covered), Some(true));
        // Uncovered: an address in the high /25.
        let uncovered = Atu {
            rule,
            packet: Packet::v4_to(prefix.nth_addr(200) as u32),
        };
        assert_eq!(a.atu_covered(&mut bdd, uncovered), Some(false));
        // Not an ATU: a packet the rule can never match.
        let alien = Atu {
            rule,
            packet: Packet::v4_to(1),
        };
        assert_eq!(a.atu_covered(&mut bdd, alien), None);
    }

    #[test]
    fn sampled_atus_are_consistent_with_atu_covered() {
        let (ft, mut bdd, ms, trace) = setup();
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let (tor, prefix, _) = ft.tors[0];
        let rule = ft
            .net
            .device_rule_ids(tor)
            .find(|&id| ft.net.rule(id).matches.dst == Some(prefix))
            .unwrap();
        let cov = a.sample_covered_atu(&mut bdd, rule).expect("half covered");
        assert_eq!(a.atu_covered(&mut bdd, cov), Some(true));
        let unc = a
            .sample_uncovered_atu(&mut bdd, rule)
            .expect("half uncovered");
        assert_eq!(a.atu_covered(&mut bdd, unc), Some(false));
    }

    #[test]
    fn fully_covered_rule_has_no_uncovered_atu() {
        let (ft, mut bdd, ms, _) = setup();
        let (tor, prefix, _) = ft.tors[0];
        let rule = ft
            .net
            .device_rule_ids(tor)
            .find(|&id| ft.net.rule(id).matches.dst == Some(prefix))
            .unwrap();
        let mut trace = CoverageTrace::new();
        trace.add_rule(rule);
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        assert!(a.sample_uncovered_atu(&mut bdd, rule).is_none());
        assert!(a.sample_covered_atu(&mut bdd, rule).is_some());
    }

    #[test]
    fn untested_rule_has_no_covered_atu() {
        let (ft, mut bdd, ms, _) = setup();
        let trace = CoverageTrace::new();
        let a = Analyzer::new(&ft.net, &ms, &trace, &mut bdd);
        let (tor, _, _) = ft.tors[1];
        let rule = ft.net.device_rule_ids(tor).next().unwrap();
        assert!(a.sample_covered_atu(&mut bdd, rule).is_none());
        assert!(a.sample_uncovered_atu(&mut bdd, rule).is_some());
    }

    #[test]
    fn display_is_compact() {
        let atu = Atu {
            rule: RuleId {
                device: netmodel::topology::DeviceId(3),
                index: 7,
            },
            packet: Packet::v4_to(netmodel::addr::ipv4(10, 0, 0, 1)),
        };
        let s = atu.to_string();
        assert!(s.contains("r3.7"));
        assert!(s.contains("10.0.0.1"));
    }
}
