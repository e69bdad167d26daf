//! The coverage trace `(P_T, R_T)` — §5.2.
//!
//! During test execution Yardstick stores the union of everything the
//! testing tool reported: `P_T`, the located packets across all
//! `markPacket` calls, and `R_T`, the rules across all `markRule` calls.
//! Overlapping information is removed on the fly (packet sets are
//! unioned per location; rules are a set), so the trace stays compact no
//! matter how many tests run.

use std::collections::BTreeSet;

use netbdd::{Bdd, PortableBdd, PortableBddError, Ref};
use netmodel::{LocatedPacketSet, Location, RuleId};

/// The compact record of what a test suite exercised.
#[derive(Clone, Debug, Default)]
pub struct CoverageTrace {
    /// `P_T`: union of all packets reported by behavioural tests, per
    /// location.
    pub packets: LocatedPacketSet,
    /// `R_T`: rules reported by state-inspection tests.
    pub rules: BTreeSet<RuleId>,
}

impl CoverageTrace {
    /// An empty trace.
    pub fn new() -> CoverageTrace {
        CoverageTrace::default()
    }

    /// Record located packets (a `markPacket` call).
    pub fn add_packets(&mut self, bdd: &mut Bdd, loc: Location, packets: Ref) {
        self.packets.add(bdd, loc, packets);
    }

    /// Record an inspected rule (a `markRule` call).
    pub fn add_rule(&mut self, rule: RuleId) {
        self.rules.insert(rule);
    }

    /// Merge another trace into this one (e.g. traces collected by
    /// independently running test tools).
    pub fn merge(&mut self, bdd: &mut Bdd, other: &CoverageTrace) {
        self.packets.union(bdd, &other.packets);
        self.rules.extend(other.rules.iter().copied());
    }

    /// True when nothing at all was reported.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty() && self.rules.is_empty()
    }

    /// Append every packet-set ref held by the trace to `roots` (GC root
    /// registration; rule ids carry no refs).
    pub fn collect_refs(&self, roots: &mut Vec<Ref>) {
        self.packets.collect_refs(roots);
    }

    /// Rewrite every held ref through `f` (a GC relocation map).
    pub fn remap_refs(&mut self, f: impl Fn(Ref) -> Ref) {
        self.packets.remap_refs(f);
    }

    /// Snapshot the trace into a manager-independent form, so a trace
    /// collected in one `Bdd` can be rebuilt in another (the wire form
    /// of a test delta).
    pub fn export(&self, bdd: &Bdd) -> PortableTrace {
        PortableTrace {
            packets: self
                .packets
                .iter()
                .map(|(loc, set)| (loc, bdd.export(set)))
                .collect(),
            rules: self.rules.clone(),
        }
    }
}

/// A [`CoverageTrace`] detached from its manager: per-location
/// [`PortableBdd`] snapshots plus the (manager-free) rule-id set. Plain
/// data, so it can cross process and thread boundaries.
#[derive(Clone, Debug, Default)]
pub struct PortableTrace {
    packets: Vec<(Location, PortableBdd)>,
    rules: BTreeSet<RuleId>,
}

impl PortableTrace {
    /// Rebuild the trace inside `bdd`. Because imports are hash-consed,
    /// importing into the manager the trace was exported from restores
    /// exactly the original `Ref`s.
    ///
    /// Panics on malformed packet-set snapshots; use
    /// [`PortableTrace::try_import`] for traces received over the wire.
    pub fn import(&self, bdd: &mut Bdd) -> CoverageTrace {
        self.try_import(bdd)
            .expect("malformed PortableTrace snapshot")
    }

    /// [`PortableTrace::import`] for untrusted traces: validates every
    /// per-location snapshot and reports the first malformed one with
    /// its location instead of panicking. Every snapshot is validated
    /// before the first is built, so a refused trace leaves the arena as
    /// it found it.
    pub fn try_import(&self, bdd: &mut Bdd) -> Result<CoverageTrace, (Location, PortableBddError)> {
        for (loc, p) in &self.packets {
            p.validate().map_err(|e| (*loc, e))?;
        }
        let mut trace = CoverageTrace::new();
        for (loc, p) in &self.packets {
            let set = bdd.import(p);
            trace.packets.add(bdd, *loc, set);
        }
        trace.rules = self.rules.clone();
        Ok(trace)
    }

    /// Assemble a snapshot from raw parts — the decode half of a wire
    /// format. Validation happens in [`PortableTrace::try_import`].
    pub fn from_parts(
        packets: Vec<(Location, PortableBdd)>,
        rules: BTreeSet<RuleId>,
    ) -> PortableTrace {
        PortableTrace { packets, rules }
    }

    /// The per-location packet-set snapshots — the encode half of a wire
    /// format.
    pub fn packets(&self) -> &[(Location, PortableBdd)] {
        &self.packets
    }

    /// The marked rule ids.
    pub fn rules(&self) -> &BTreeSet<RuleId> {
        &self.rules
    }

    /// Number of marked locations in the snapshot.
    pub fn location_count(&self) -> usize {
        self.packets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::topology::DeviceId;

    fn rid(d: u32, i: u32) -> RuleId {
        RuleId {
            device: DeviceId(d),
            index: i,
        }
    }

    #[test]
    fn starts_empty() {
        assert!(CoverageTrace::new().is_empty());
    }

    #[test]
    fn duplicate_rule_marks_collapse() {
        let mut t = CoverageTrace::new();
        t.add_rule(rid(0, 0));
        t.add_rule(rid(0, 0));
        t.add_rule(rid(1, 2));
        assert_eq!(t.rules.len(), 2);
    }

    #[test]
    fn packet_marks_union_per_location() {
        let mut bdd = Bdd::new();
        let mut t = CoverageTrace::new();
        let loc = Location::device(DeviceId(0));
        let a = bdd.var(0);
        let b = bdd.var(1);
        t.add_packets(&mut bdd, loc, a);
        t.add_packets(&mut bdd, loc, b);
        let expect = bdd.or(a, b);
        assert_eq!(t.packets.at(loc), expect);
    }

    #[test]
    fn portable_roundtrip_restores_identical_refs() {
        let mut bdd = Bdd::new();
        let mut t = CoverageTrace::new();
        let a = bdd.var(0);
        let b = bdd.var(3);
        let ab = bdd.or(a, b);
        t.add_packets(&mut bdd, Location::device(DeviceId(0)), a);
        t.add_packets(&mut bdd, Location::device(DeviceId(1)), ab);
        t.add_rule(rid(2, 1));
        let p = t.export(&bdd);
        assert_eq!(p.location_count(), 2);
        let back = p.import(&mut bdd);
        assert_eq!(back.packets.at(Location::device(DeviceId(0))), a);
        assert_eq!(back.packets.at(Location::device(DeviceId(1))), ab);
        assert_eq!(back.rules, t.rules);
    }

    #[test]
    fn portable_trace_crosses_managers() {
        let mut src = Bdd::new();
        let mut t = CoverageTrace::new();
        let f = {
            let x = src.var(1);
            let y = src.nvar(2);
            src.and(x, y)
        };
        t.add_packets(&mut src, Location::device(DeviceId(7)), f);
        let p = t.export(&src);
        let mut dst = Bdd::new();
        let back = p.import(&mut dst);
        let got = back.packets.at(Location::device(DeviceId(7)));
        assert_eq!(dst.probability(got), src.probability(f));
    }

    #[test]
    fn malformed_portable_trace_reports_location() {
        // A trace whose only packet set references a node that does not
        // exist (truncated snapshot) must fail cleanly, naming where.
        let loc = Location::device(DeviceId(3));
        let bad_set = PortableBdd::from_parts(vec![(0, 0, 12)], 2);
        let p = PortableTrace::from_parts(vec![(loc, bad_set)], BTreeSet::new());
        let mut bdd = Bdd::new();
        let err = p.try_import(&mut bdd).unwrap_err();
        assert_eq!(err.0, loc);
        assert!(matches!(err.1, PortableBddError::SlotOutOfRange { .. }));
    }

    #[test]
    fn a_trace_malformed_at_its_second_location_builds_nothing() {
        // The first snapshot is well formed and new to the manager; the
        // second is out of order. Both are validated before either is
        // built.
        let good = PortableBdd::from_parts(vec![(190, 0, 1), (185, 2, 1)], 4);
        let bad = PortableBdd::from_parts(vec![(180, 0, 1), (170, 2, 1), (170, 0, 4)], 6);
        let (l0, l1) = (Location::device(DeviceId(0)), Location::device(DeviceId(1)));
        let p = PortableTrace::from_parts(vec![(l0, good), (l1, bad)], BTreeSet::new());
        let mut bdd = Bdd::new();
        let before = bdd.node_count();
        let err = p.try_import(&mut bdd).unwrap_err();
        assert_eq!(err, (l1, PortableBddError::VarOrdering { node: 2 }));
        assert_eq!(bdd.node_count(), before);
    }

    #[test]
    fn merge_combines_both_halves() {
        let mut bdd = Bdd::new();
        let loc = Location::device(DeviceId(0));
        let a = bdd.var(0);
        let b = bdd.var(1);
        let mut t1 = CoverageTrace::new();
        t1.add_packets(&mut bdd, loc, a);
        t1.add_rule(rid(0, 0));
        let mut t2 = CoverageTrace::new();
        t2.add_packets(&mut bdd, loc, b);
        t2.add_rule(rid(2, 0));
        t1.merge(&mut bdd, &t2);
        let expect = bdd.or(a, b);
        assert_eq!(t1.packets.at(loc), expect);
        assert_eq!(t1.rules.len(), 2);
    }
}
