//! Covered-set computation — Algorithm 1 of the paper (§5.2, step 2).
//!
//! From the coverage trace `(P_T, R_T)` and the disjoint match sets
//! `M[r]`, compute each rule's covered set `T[r]`:
//!
//! * if `r ∈ R_T` (a state-inspection test examined it), the rule is
//!   fully covered: `T[r] = M[r]` — the compositionality requirement of
//!   §3.2 (inspecting state counts as analysing every packet that state
//!   can affect);
//! * otherwise `T[r] = P_T|v ∩ M[r]`, the tested packets present at the
//!   rule's device that fall inside its match set.
//!
//! Rules scoped to an ingress interface only intersect packets recorded
//! on that interface, matching the forwarding engine's semantics.

use netbdd::{Bdd, Ref};
use netmodel::topology::DeviceId;
use netmodel::{MatchSets, Network, PrefixTries, RuleId};

use crate::trace::CoverageTrace;

/// The covered sets `T[r]` of every rule in the network.
#[derive(Clone, Debug)]
pub struct CoveredSets {
    /// `covered[device][rule_index]`.
    covered: Vec<Vec<Ref>>,
}

impl CoveredSets {
    /// Run Algorithm 1 over every rule in the network. A device whose
    /// rules all match on the destination alone walks its packets down a
    /// prefix trie ([`PrefixTries`]); every other device runs the
    /// per-rule chain of [`CoveredSets::recompute_device`]. The two give
    /// the same `Ref`s.
    pub fn compute(
        net: &Network,
        ms: &MatchSets,
        trace: &CoverageTrace,
        bdd: &mut Bdd,
    ) -> CoveredSets {
        let _span = netobs::span!("covered_sets");
        let mut tries = PrefixTries::new();
        let mut covered = Vec::with_capacity(net.topology().device_count());
        for (device, _) in net.topology().devices() {
            let shard = device_covered(net, ms, trace, bdd, device, Some(&mut tries));
            covered.push(shard);
        }
        CoveredSets { covered }
    }

    /// Re-run Algorithm 1 for one device in place, leaving every other
    /// device's shard untouched — the unit of invalidation a long-lived
    /// engine uses after a rule or test delta confined to `device`.
    /// Identical math to the per-device body of [`CoveredSets::compute`],
    /// so the refreshed shard is bit-identical to a from-scratch batch
    /// recompute in the same manager.
    pub fn recompute_device(
        &mut self,
        net: &Network,
        ms: &MatchSets,
        trace: &CoverageTrace,
        bdd: &mut Bdd,
        device: DeviceId,
    ) {
        self.covered[device.0 as usize] = device_covered(net, ms, trace, bdd, device, None);
    }

    /// The covered set `T[r]` of one rule.
    pub fn get(&self, id: RuleId) -> Ref {
        self.covered[id.device.0 as usize][id.index as usize]
    }

    /// Whether the rule was exercised at all.
    pub fn is_exercised(&self, id: RuleId) -> bool {
        !self.get(id).is_false()
    }

    /// Whether any of the given rules was exercised — the cross-reference
    /// a mutation study needs: a mutant sits in covered territory iff some
    /// rule it perturbs has a non-empty covered set.
    pub fn any_exercised(&self, ids: impl IntoIterator<Item = RuleId>) -> bool {
        ids.into_iter().any(|id| self.is_exercised(id))
    }

    /// Append every covered-set ref to `roots` (GC root registration).
    pub fn collect_refs(&self, roots: &mut Vec<Ref>) {
        for dev in &self.covered {
            roots.extend(dev.iter().copied());
        }
    }

    /// Rewrite every held ref through `f` (a GC relocation map).
    pub fn remap_refs(&mut self, f: impl Fn(Ref) -> Ref) {
        for dev in &mut self.covered {
            for r in dev.iter_mut() {
                *r = f(*r);
            }
        }
    }
}

/// Algorithm 1 for one device: the shared body of
/// [`CoveredSets::compute`], which passes its `tries`, and
/// [`CoveredSets::recompute_device`], which runs the chain alone. A
/// destination-only device walks its packets down its prefix trie and
/// takes `M[r]` for every rule a state-inspection test examined; any
/// other device intersects per rule.
fn device_covered(
    net: &Network,
    ms: &MatchSets,
    trace: &CoverageTrace,
    bdd: &mut Bdd,
    device: DeviceId,
    tries: Option<&mut PrefixTries>,
) -> Vec<Ref> {
    // The packets the trace recorded anywhere at this device.
    let at_device = trace.packets.at_device(bdd, device);
    if let Some(tries) = tries {
        // A trace may name rules a later withdraw removed: only the table's.
        let index = net.device_rules(device).len() as u32;
        let (first, end) = (RuleId { device, index: 0 }, RuleId { device, index });
        let marked: Vec<u32> = trace.rules.range(first..end).map(|id| id.index).collect();
        if let Some(covered) = tries.covered(net, ms, bdd, device, at_device, &marked) {
            return covered;
        }
    }
    net.device_rule_ids(device)
        .map(|id| rule_covered(net, ms, trace, bdd, id, Some(at_device)))
        .collect()
}

/// Algorithm 1 for one rule, `T[r]` under `trace`: `M[r]` when a
/// state-inspection test examined `r`, else the packets recorded where
/// `r` applies (on its ingress interface when it is scoped, anywhere at
/// its device otherwise) intersected with `M[r]`. `at_device` is the
/// device-wide union when the caller already holds it; without it the
/// union is built here, and only if `r` needs it.
pub(crate) fn rule_covered(
    net: &Network,
    ms: &MatchSets,
    trace: &CoverageTrace,
    bdd: &mut Bdd,
    id: RuleId,
    at_device: Option<Ref>,
) -> Ref {
    let m = ms.get(id);
    if trace.rules.contains(&id) {
        return m;
    }
    let applicable = match net.rule(id).matches.in_iface {
        None => at_device.unwrap_or_else(|| trace.packets.at_device(bdd, id.device)),
        Some(iface) => trace.packets.at_device_iface(id.device, iface),
    };
    bdd.and(applicable, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::Prefix;
    use netmodel::header;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{DeviceId, IfaceId, IfaceKind, Role, Topology};
    use netmodel::Location;

    /// One device: /24 to hosts, default up.
    fn net() -> (Network, DeviceId) {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        t.add_iface(d, "hosts", IfaceKind::Host);
        t.add_iface(d, "up", IfaceKind::External);
        let mut n = Network::new(t);
        n.add_rule(
            d,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![IfaceId(0)],
                RouteClass::HostSubnet,
            ),
        );
        n.add_rule(
            d,
            Rule::forward(
                Prefix::v4_default(),
                vec![IfaceId(1)],
                RouteClass::StaticDefault,
            ),
        );
        n.finalize();
        (n, d)
    }

    #[test]
    fn untested_rules_have_empty_covered_sets() {
        let (n, _) = net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let trace = CoverageTrace::new();
        let cov = CoveredSets::compute(&n, &ms, &trace, &mut bdd);
        for (id, _) in n.rules() {
            assert!(!cov.is_exercised(id));
        }
    }

    #[test]
    fn inspected_rule_is_fully_covered() {
        let (n, d) = net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        let default_id = RuleId {
            device: d,
            index: 1,
        };
        trace.add_rule(default_id);
        let cov = CoveredSets::compute(&n, &ms, &trace, &mut bdd);
        assert_eq!(cov.get(default_id), ms.get(default_id));
        assert!(!cov.is_exercised(RuleId {
            device: d,
            index: 0
        }));
    }

    #[test]
    fn marked_packets_cover_their_rule_portion() {
        let (n, d) = net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        // Mark half of the /24 (a /25).
        let p25 = header::dst_in(&mut bdd, &"10.0.0.0/25".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(d), p25);
        let cov = CoveredSets::compute(&n, &ms, &trace, &mut bdd);
        let specific = RuleId {
            device: d,
            index: 0,
        };
        let default = RuleId {
            device: d,
            index: 1,
        };
        assert_eq!(cov.get(specific), p25);
        assert!(!cov.is_exercised(default));
        // Covered sets never exceed match sets.
        assert!(bdd.subset(cov.get(specific), ms.get(specific)));
    }

    #[test]
    fn packets_crossing_rule_boundaries_split_correctly() {
        let (n, d) = net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let mut trace = CoverageTrace::new();
        // Mark a /8 that includes the /24: covers all of the /24 rule and
        // part of the default.
        let p8 = header::dst_in(&mut bdd, &"10.0.0.0/8".parse().unwrap());
        trace.add_packets(&mut bdd, Location::device(d), p8);
        let cov = CoveredSets::compute(&n, &ms, &trace, &mut bdd);
        let specific = RuleId {
            device: d,
            index: 0,
        };
        let default = RuleId {
            device: d,
            index: 1,
        };
        assert_eq!(cov.get(specific), ms.get(specific)); // /24 fully covered
                                                         // Default covered exactly on p8 minus the /24.
        let expect = bdd.diff(p8, ms.get(specific));
        assert_eq!(cov.get(default), expect);
    }

    #[test]
    fn compositionality_symbolic_equals_union_of_concrete() {
        // §3.2: a symbolic test's coverage must equal the combined
        // coverage of concrete tests that collectively cover the same
        // packets. Here: marking a /30 at once vs. marking its 4
        // addresses individually.
        let (n, d) = net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);

        let mut sym = CoverageTrace::new();
        let p30 = header::dst_in(&mut bdd, &"10.0.0.4/30".parse().unwrap());
        sym.add_packets(&mut bdd, Location::device(d), p30);

        let mut conc = CoverageTrace::new();
        for a in 4..8u32 {
            let pkt = header::Packet::v4_to(netmodel::addr::ipv4(10, 0, 0, a as u8));
            // A concrete mark constrains every header field; union over
            // the full cross product of the remaining fields is what the
            // /30 symbolic mark represents, so mark dst-only cubes here.
            let dst = header::dst_in(
                &mut bdd,
                &Prefix::v4(netmodel::addr::ipv4(10, 0, 0, a as u8), 32),
            );
            let _ = pkt;
            conc.add_packets(&mut bdd, Location::device(d), dst);
        }
        let cov_sym = CoveredSets::compute(&n, &ms, &sym, &mut bdd);
        let cov_conc = CoveredSets::compute(&n, &ms, &conc, &mut bdd);
        for (id, _) in n.rules() {
            assert_eq!(cov_sym.get(id), cov_conc.get(id));
        }
    }

    #[test]
    fn compositionality_inspection_equals_full_symbolic() {
        // §3.2: inspecting a rule must equal a symbolic test over every
        // packet the rule can affect.
        let (n, d) = net();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let id = RuleId {
            device: d,
            index: 0,
        };

        let mut inspect = CoverageTrace::new();
        inspect.add_rule(id);

        let mut sym = CoverageTrace::new();
        let m = ms.get(id);
        sym.add_packets(&mut bdd, Location::device(d), m);

        let a = CoveredSets::compute(&n, &ms, &inspect, &mut bdd);
        let b = CoveredSets::compute(&n, &ms, &sym, &mut bdd);
        assert_eq!(a.get(id), b.get(id));
    }

    #[test]
    fn ingress_scoped_rules_only_see_their_interface() {
        use netmodel::MatchFields;
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        let i0 = t.add_iface(d, "i0", IfaceKind::Host);
        let i1 = t.add_iface(d, "i1", IfaceKind::Host);
        let mut n = Network::new(t);
        n.add_rule(
            d,
            Rule {
                matches: MatchFields {
                    in_iface: Some(i0),
                    ..MatchFields::default()
                },
                action: netmodel::Action::Drop,
                class: RouteClass::Other,
            },
        );
        n.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&n, &mut bdd);
        let id = RuleId {
            device: d,
            index: 0,
        };

        // Packets marked on the other interface do not cover the rule.
        let mut t1 = CoverageTrace::new();
        let full = bdd.full();
        t1.add_packets(&mut bdd, Location::at(d, i1), full);
        let c1 = CoveredSets::compute(&n, &ms, &t1, &mut bdd);
        assert!(!c1.is_exercised(id));

        // Packets marked on the scoped interface do.
        let mut t2 = CoverageTrace::new();
        t2.add_packets(&mut bdd, Location::at(d, i0), full);
        let c2 = CoveredSets::compute(&n, &ms, &t2, &mut bdd);
        assert_eq!(c2.get(id), ms.get(id));
    }
}
