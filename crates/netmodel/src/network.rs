//! The assembled network: `N = (V, I, E, S)`.
//!
//! [`Network`] pairs a [`Topology`] with one forwarding [`Table`] per
//! device and hands out stable, global [`RuleId`]s — the identifiers that
//! coverage traces record (`markRule`) and that every coverage metric is
//! keyed by.

use std::fmt;

use crate::rule::{Rule, Table, TableMode};
use crate::topology::{DeviceId, IfaceId, Topology};

/// Globally unique identifier of a rule: device plus index in the
/// device's (finalized, first-match-ordered) table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId {
    /// Device the rule is installed on.
    pub device: DeviceId,
    /// Index in the device's finalized table order.
    pub index: u32,
}

impl fmt::Debug for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.device.0, self.index)
    }
}

/// The network model: topology plus forwarding state.
#[derive(Clone, Debug)]
pub struct Network {
    topology: Topology,
    /// One table per device, indexed by `DeviceId`.
    state: Vec<Table>,
}

impl Network {
    /// Wrap a topology with empty LPM tables for every device.
    pub fn new(topology: Topology) -> Network {
        let state = (0..topology.device_count())
            .map(|_| Table::new(TableMode::Lpm))
            .collect();
        Network { topology, state }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Add a rule to a device's table.
    pub fn add_rule(&mut self, device: DeviceId, rule: Rule) {
        self.state[device.0 as usize].push(rule);
    }

    /// Replace a device's whole table (used by fault injection and the
    /// mutation engine).
    pub fn set_table(&mut self, device: DeviceId, table: Table) {
        self.state[device.0 as usize] = table;
    }

    /// A device's table, including its ordering mode.
    pub fn table(&self, device: DeviceId) -> &Table {
        &self.state[device.0 as usize]
    }

    /// Finalize every table's ordering. Must be called once after
    /// construction, before rules are enumerated.
    pub fn finalize(&mut self) {
        for t in &mut self.state {
            t.finalize();
        }
    }

    /// The rules of one device, in first-match order (`S[v]` in the
    /// paper's notation).
    pub fn device_rules(&self, device: DeviceId) -> &[Rule] {
        self.state[device.0 as usize].rules_unchecked()
    }

    /// Look up one rule by id.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.device_rules(id.device)[id.index as usize]
    }

    /// Iterate every rule in the network with its global id.
    pub fn rules(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.topology.devices().flat_map(move |(d, _)| {
            self.device_rules(d).iter().enumerate().map(move |(i, r)| {
                (
                    RuleId {
                        device: d,
                        index: i as u32,
                    },
                    r,
                )
            })
        })
    }

    /// Iterate the rule ids of one device.
    pub fn device_rule_ids(&self, device: DeviceId) -> impl Iterator<Item = RuleId> {
        (0..self.device_rules(device).len() as u32).map(move |index| RuleId { device, index })
    }

    /// Total number of rules in the network.
    pub fn rule_count(&self) -> usize {
        (0..self.topology.device_count())
            .map(|d| self.state[d].rules_unchecked().len())
            .sum()
    }

    /// Insert `rule` on an already-finalized device table, restoring the
    /// table's first-match order, and return the id it landed on.
    /// `RuleId`s are positional: indices of the device's later rules
    /// shift up by one, so callers holding per-rule state for the device
    /// must invalidate it.
    pub fn insert_rule(&mut self, device: DeviceId, rule: Rule) -> RuleId {
        let index = self.state[device.0 as usize].insert_sorted(rule) as u32;
        RuleId { device, index }
    }

    /// Insert `rule` on an already-finalized device table at its
    /// *canonical* batch-compile position (see
    /// [`Table::insert_canonical`]) and return the id it landed on.
    /// Incremental routing uses this so a withdrawn-and-recomputed FIB
    /// entry lands exactly where a from-scratch compile would put it.
    /// Same positional-invalidation obligation as
    /// [`Network::insert_rule`].
    pub fn insert_rule_canonical(&mut self, device: DeviceId, rule: Rule) -> RuleId {
        let index = self.state[device.0 as usize].insert_canonical(rule) as u32;
        RuleId { device, index }
    }

    /// Withdraw the rule `id` from its finalized table, returning it.
    /// Indices of the device's later rules shift down by one; same
    /// invalidation obligation as [`Network::insert_rule`].
    pub fn withdraw_rule(&mut self, id: RuleId) -> Rule {
        self.state[id.device.0 as usize].remove(id.index as usize)
    }

    /// Swap the rule `id` for `rule` in place and return the old rule
    /// (see [`Table::replace`]: the match fields must be equal). No
    /// `RuleId` changes meaning and no match set changes, so the only
    /// per-rule state a caller must drop is what it derived from
    /// actions.
    pub fn replace_rule(&mut self, id: RuleId, rule: Rule) -> Rule {
        self.state[id.device.0 as usize].replace(id.index as usize, rule)
    }

    /// All rules on `device` that forward out of `iface` (the rule set of
    /// the paper's *outgoing interface coverage*).
    pub fn rules_out_iface(&self, iface: IfaceId) -> Vec<RuleId> {
        let device = self.topology.iface(iface).device;
        self.device_rule_ids(device)
            .filter(|id| self.rule(*id).action.out_ifaces().contains(&iface))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Prefix;
    use crate::rule::RouteClass;
    use crate::topology::Role;

    fn tiny_network() -> (Network, DeviceId, DeviceId, IfaceId, IfaceId) {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let b = t.add_device("b", Role::Spine);
        let (ai, bi) = t.add_link(a, b);
        let mut n = Network::new(t);
        n.add_rule(
            a,
            Rule::forward(Prefix::v4_default(), vec![ai], RouteClass::StaticDefault),
        );
        n.add_rule(
            a,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![ai],
                RouteClass::HostSubnet,
            ),
        );
        n.add_rule(
            b,
            Rule::forward(
                "10.0.0.0/24".parse().unwrap(),
                vec![bi],
                RouteClass::HostSubnet,
            ),
        );
        n.finalize();
        (n, a, b, ai, bi)
    }

    #[test]
    fn rule_ids_are_global_and_ordered() {
        let (n, a, b, _, _) = tiny_network();
        let ids: Vec<RuleId> = n.rules().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 3);
        assert_eq!(
            ids[0],
            RuleId {
                device: a,
                index: 0
            }
        );
        assert_eq!(
            ids[2],
            RuleId {
                device: b,
                index: 0
            }
        );
        assert_eq!(n.rule_count(), 3);
    }

    #[test]
    fn lpm_order_puts_default_last() {
        let (n, a, _, _, _) = tiny_network();
        let rules = n.device_rules(a);
        assert_eq!(rules[0].matches.dst.unwrap().len(), 24);
        assert!(rules[1].matches.dst.unwrap().is_default());
    }

    #[test]
    fn rules_out_iface_finds_forwarders() {
        let (n, a, _, ai, bi) = tiny_network();
        let out_a = n.rules_out_iface(ai);
        assert_eq!(out_a.len(), 2);
        assert!(out_a.iter().all(|id| id.device == a));
        assert_eq!(n.rules_out_iface(bi).len(), 1);
    }

    #[test]
    fn insert_rule_lands_in_first_match_order() {
        let (mut n, a, _, ai, _) = tiny_network();
        // A /16 slots between the /24 (index 0) and the default (was 1).
        let id = n.insert_rule(
            a,
            Rule::forward("10.0.0.0/16".parse().unwrap(), vec![ai], RouteClass::Other),
        );
        assert_eq!(
            id,
            RuleId {
                device: a,
                index: 1
            }
        );
        let lens: Vec<u8> = n
            .device_rules(a)
            .iter()
            .map(|r| r.matches.dst.unwrap().len())
            .collect();
        assert_eq!(lens, vec![24, 16, 0]);
        // Equal lengths keep insertion order: a second /16 goes after.
        let id2 = n.insert_rule(
            a,
            Rule::forward("10.1.0.0/16".parse().unwrap(), vec![ai], RouteClass::Other),
        );
        assert_eq!(id2.index, 2);
        // The delta order matches a from-scratch finalize of the same rules.
        let mut batch = Table::new(TableMode::Lpm);
        for r in n.device_rules(a) {
            batch.push(r.clone());
        }
        batch.finalize();
        let batch_dsts: Vec<_> = batch
            .rules_unchecked()
            .iter()
            .map(|r| r.matches.dst)
            .collect();
        let delta_dsts: Vec<_> = n.device_rules(a).iter().map(|r| r.matches.dst).collect();
        assert_eq!(batch_dsts, delta_dsts);
    }

    #[test]
    fn withdraw_rule_shifts_later_indices_down() {
        let (mut n, a, _, _, _) = tiny_network();
        assert_eq!(n.device_rules(a).len(), 2);
        let gone = n.withdraw_rule(RuleId {
            device: a,
            index: 0,
        });
        assert_eq!(gone.matches.dst.unwrap().len(), 24);
        assert_eq!(n.device_rules(a).len(), 1);
        assert!(n
            .rule(RuleId {
                device: a,
                index: 0
            })
            .matches
            .dst
            .unwrap()
            .is_default());
    }

    #[test]
    fn replace_rule_swaps_the_action_and_moves_nothing() {
        let (mut n, a, _, ai, _) = tiny_network();
        let before: Vec<Rule> = n.device_rules(a).to_vec();
        let id = RuleId {
            device: a,
            index: 0,
        };
        let dropped = Rule::null_route("10.0.0.0/24".parse().unwrap(), RouteClass::Other);
        let old = n.replace_rule(id, dropped.clone());
        assert_eq!(old, before[0]);
        assert_eq!(old.action.out_ifaces(), [ai]);
        assert_eq!(n.device_rules(a), [dropped, before[1].clone()]);
    }

    #[test]
    #[should_panic(expected = "keeps the match fields")]
    fn replace_rule_refuses_another_match() {
        let (mut n, a, _, ai, _) = tiny_network();
        n.replace_rule(
            RuleId {
                device: a,
                index: 0,
            },
            Rule::forward("10.0.0.0/16".parse().unwrap(), vec![ai], RouteClass::Other),
        );
    }

    #[test]
    #[should_panic]
    fn unfinalized_enumeration_panics() {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let mut n = Network::new(t);
        n.add_rule(a, Rule::null_route(Prefix::v4_default(), RouteClass::Other));
        let _ = n.device_rules(a); // finalize() not called
    }
}
