//! Phase-1 coverage tracking: the two-call API of §5.
//!
//! Testing tools report coverage through exactly two entry points,
//! chosen because the information they need is *readily available* to
//! every kind of test (§5.1):
//!
//! * [`Tracker::mark_packet`] — behavioural tests report the located
//!   packet sets they analysed. Local tests call it once per injection;
//!   end-to-end tests call it once per hop with the packet set at that
//!   hop.
//! * [`Tracker::mark_rule`] — state-inspection tests report which rule
//!   they looked at. The expensive translation from "rule" to "match
//!   set" is deferred to phase 2, keeping the testing path fast.
//!
//! Concrete tests (ping, traceroute) report single packets through
//! [`Tracker::mark_concrete`], which is `mark_packet` of the packet's
//! singleton set without building that set unless it adds something.
//!
//! A tracker can be disabled, which makes every call a no-op that
//! touches no BDD — that is how the Figure-8 experiment measures
//! tracking overhead: same tests, same code path, and "off" is the
//! test's own work alone (for a concrete test: the field-level lookups
//! and one match-set check per hop, no cubes).

use netbdd::{Bdd, Ref};
use netmodel::{LocatedPacketSet, Location, Packet, RuleId};

use crate::trace::CoverageTrace;

/// Collects the coverage trace while tests execute.
#[derive(Clone, Debug)]
pub struct Tracker {
    trace: CoverageTrace,
    enabled: bool,
    /// Number of `mark_packet` calls accepted (diagnostics).
    packet_calls: u64,
    /// Number of `mark_rule` calls accepted (diagnostics).
    rule_calls: u64,
    /// The last packet `mark_concrete` had to build a set for: a
    /// traceroute marks one packet at every hop. Like the trace's own
    /// refs it is only good until the manager's next `collect`.
    last_cube: Option<(Packet, Ref)>,
}

impl Default for Tracker {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracker {
    /// An enabled tracker with an empty trace.
    pub fn new() -> Tracker {
        Tracker {
            trace: CoverageTrace::new(),
            enabled: true,
            packet_calls: 0,
            rule_calls: 0,
            last_cube: None,
        }
    }

    /// A disabled tracker: both marking calls become no-ops. Used to
    /// measure baseline test time without coverage (§8.1).
    pub fn disabled() -> Tracker {
        Tracker {
            enabled: false,
            ..Tracker::new()
        }
    }

    /// `markPacket(P)`: record that a behavioural test analysed `packets`
    /// at `loc`.
    pub fn mark_packet(&mut self, bdd: &mut Bdd, loc: Location, packets: Ref) {
        if !self.enabled || packets.is_false() {
            return;
        }
        self.packet_calls += 1;
        self.trace.add_packets(bdd, loc, packets);
    }

    /// `markPacket({pkt})` for a concrete test: the same trace and the
    /// same call count as `mark_packet(bdd, loc, pkt.to_bdd(bdd))`. A
    /// packet the location's set already holds costs one evaluation; the
    /// singleton set is built only when it has to be unioned in, once
    /// per run of equal packets.
    pub fn mark_concrete(&mut self, bdd: &mut Bdd, loc: Location, pkt: &Packet) {
        if !self.enabled {
            return;
        }
        self.packet_calls += 1;
        if pkt.matches(bdd, self.trace.packets.at(loc)) {
            return;
        }
        let cube = match self.last_cube {
            Some((p, cube)) if p == *pkt => cube,
            _ => {
                let cube = pkt.to_bdd(bdd);
                self.last_cube = Some((*pkt, cube));
                cube
            }
        };
        self.trace.add_packets(bdd, loc, cube);
    }

    /// Bulk variant: record a whole located packet set (e.g. the per-hop
    /// trace of a symbolic reachability run).
    pub fn mark_packet_set(&mut self, bdd: &mut Bdd, packets: &LocatedPacketSet) {
        if !self.enabled {
            return;
        }
        for (loc, set) in packets.iter() {
            self.packet_calls += 1;
            self.trace.add_packets(bdd, loc, set);
        }
    }

    /// `markRule(r)`: record that a state-inspection test examined `rule`.
    pub fn mark_rule(&mut self, rule: RuleId) {
        if !self.enabled {
            return;
        }
        self.rule_calls += 1;
        self.trace.add_rule(rule);
    }

    /// The collected trace (phase-2 input).
    pub fn trace(&self) -> &CoverageTrace {
        &self.trace
    }

    /// Consume the tracker, returning its trace.
    pub fn into_trace(self) -> CoverageTrace {
        self.trace
    }

    /// `(mark_packet calls, mark_rule calls)` accepted so far.
    pub fn call_counts(&self) -> (u64, u64) {
        (self.packet_calls, self.rule_calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::topology::DeviceId;

    #[test]
    fn enabled_tracker_records() {
        let mut bdd = Bdd::new();
        let mut t = Tracker::new();
        let a = bdd.var(0);
        t.mark_packet(&mut bdd, Location::device(DeviceId(0)), a);
        t.mark_rule(RuleId {
            device: DeviceId(0),
            index: 0,
        });
        assert!(!t.trace().is_empty());
        assert_eq!(t.call_counts(), (1, 1));
    }

    #[test]
    fn disabled_tracker_is_a_noop() {
        let mut bdd = Bdd::new();
        let mut t = Tracker::disabled();
        let a = bdd.var(0);
        t.mark_packet(&mut bdd, Location::device(DeviceId(0)), a);
        t.mark_rule(RuleId {
            device: DeviceId(0),
            index: 0,
        });
        assert!(t.trace().is_empty());
        assert_eq!(t.call_counts(), (0, 0));
    }

    #[test]
    fn empty_packet_marks_are_ignored() {
        let mut bdd = Bdd::new();
        let mut t = Tracker::new();
        t.mark_packet(&mut bdd, Location::device(DeviceId(0)), netbdd::Ref::FALSE);
        assert!(t.trace().is_empty());
        assert_eq!(t.call_counts(), (0, 0));
    }

    #[test]
    fn bulk_marking_copies_every_location() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let mut set = LocatedPacketSet::new();
        set.add(&mut bdd, Location::device(DeviceId(0)), a);
        set.add(&mut bdd, Location::device(DeviceId(1)), a);
        let mut t = Tracker::new();
        t.mark_packet_set(&mut bdd, &set);
        assert_eq!(t.trace().packets.len(), 2);
    }
}
