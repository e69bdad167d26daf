//! Path-universe enumeration (§5.2, step 3).
//!
//! Path coverage needs the set of all paths *imputed by the forwarding
//! state* — topology alone would admit unrealistic zig-zag paths and
//! inflate the denominator, so only rule sequences that carry a non-empty
//! packet set count. The traversal is depth-first and paths are emitted
//! incrementally to a visitor; nothing is materialised (*"there can be
//! 100s of millions of paths in a large network"*).
//!
//! A path, following §4.3.2, ends where its packets end: delivery out an
//! edge interface, exit from the modelled network, an explicit drop rule,
//! or an unmatched lookup. Packets dropped at an intermediate rule `r_j`
//! belong to the shorter `r_1..r_j` path, exactly as the paper specifies.
//!
//! [`explore`] hands each path to a visitor; [`fold_paths`] walks the
//! same paths under the same budget and sums a per-path value over them,
//! folding each subtree that recurs once.

use netbdd::{Bdd, Ref};
use netmodel::{IfaceId, IfaceKind, Location, RuleId};

use crate::forward::{Forwarder, Outcome, StepMemo};

mod fold;

pub use fold::{fold_paths, PathTotals, PathValue};

/// How a path ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// Delivered out a host-facing (or loopback) interface.
    Delivered {
        /// The egress interface.
        iface: IfaceId,
    },
    /// Left the modelled network via an external interface.
    Exited {
        /// The egress interface.
        iface: IfaceId,
    },
    /// Dropped by the final rule of the path (a null route or deny).
    Dropped,
    /// Matched no rule at the final device.
    Unmatched,
    /// Cut off by the hop bound (forwarding loop suspected).
    Truncated,
}

/// One enumerated path, handed to the visitor by reference; the rule
/// slice is only valid during the callback.
#[derive(Debug)]
pub struct PathEvent<'a> {
    /// Where the packets entered the network.
    pub start: Location,
    /// The rule sequence exercised, in order.
    pub rules: &'a [RuleId],
    /// How the path ends.
    pub terminal: Terminal,
    /// The packet set that survives the whole sequence, in its final
    /// (post-rewrite) form.
    pub final_set: Ref,
}

/// Exploration options.
#[derive(Clone, Debug)]
pub struct ExploreOpts {
    /// Maximum path length in rules before declaring truncation.
    pub max_hops: usize,
    /// If false, zero-rule paths (packets unmatched at the injection
    /// device) are suppressed.
    pub emit_empty_paths: bool,
    /// Stop enumerating once this many paths have been emitted. The
    /// Figure-9 experiment uses this as its timeout stand-in: path
    /// coverage on multipath fabrics grows combinatorially, and the
    /// paper itself caps the computation at one hour.
    pub max_paths: u64,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            max_hops: 64,
            emit_empty_paths: false,
            max_paths: u64::MAX,
        }
    }
}

/// Aggregate statistics returned by [`explore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Total paths emitted.
    pub paths: u64,
    /// Paths ending in a delivery.
    pub delivered: u64,
    /// Paths leaving via an external interface.
    pub exited: u64,
    /// Paths ending at an explicit drop rule.
    pub dropped: u64,
    /// Paths whose final device matched no rule.
    pub unmatched: u64,
    /// Paths cut off by the hop bound.
    pub truncated: u64,
    /// Longest emitted path, in rules.
    pub max_len: usize,
}

impl PathStats {
    /// Count one path of `len` rules ending in `terminal`.
    fn record(&mut self, terminal: Terminal, len: usize) {
        self.paths += 1;
        self.max_len = self.max_len.max(len);
        match terminal {
            Terminal::Delivered { .. } => self.delivered += 1,
            Terminal::Exited { .. } => self.exited += 1,
            Terminal::Dropped => self.dropped += 1,
            Terminal::Unmatched => self.unmatched += 1,
            Terminal::Truncated => self.truncated += 1,
        }
    }

    /// Add the counts of `other`, paths disjoint from these.
    fn merge(&mut self, other: &PathStats) {
        self.paths += other.paths;
        self.delivered += other.delivered;
        self.exited += other.exited;
        self.dropped += other.dropped;
        self.unmatched += other.unmatched;
        self.truncated += other.truncated;
        self.max_len = self.max_len.max(other.max_len);
    }
}

/// Enumerate the path universe from the given start locations.
///
/// `starts` supplies `(location, packet set)` injection points; use
/// [`edge_starts`] for the standard "all packets at every edge interface"
/// universe. The `visitor` is invoked once per maximal path.
///
/// Every path prefix that arrives at a device in a state the walk has
/// already stepped — same device, ingress scope and packet set, as ECMP
/// legs that re-converge do — replays that step instead of splitting the
/// packets across the table again. The paths, their order and their
/// final sets are those of stepping every arrival afresh.
pub fn explore(
    bdd: &mut Bdd,
    fwd: &Forwarder<'_>,
    starts: &[(Location, Ref)],
    opts: &ExploreOpts,
    visitor: impl FnMut(&mut Bdd, &PathEvent<'_>),
) -> PathStats {
    let _span = netobs::span!("dataplane_explore");
    let mut walk = Walk {
        opts,
        start: None,
        rules: Vec::new(),
        stats: PathStats::default(),
        memo: StepMemo::new(fwd, Forwarder::step),
        visitor,
    };
    for &(start, packets) in starts {
        if packets.is_false() {
            continue;
        }
        walk.start = Some(start);
        walk.dfs(bdd, start, packets);
        if walk.stats.paths >= opts.max_paths {
            break;
        }
    }
    walk.memo.publish();
    walk.stats
}

/// The standard injection points for the full path universe: the complete
/// header space at every host-facing and external interface.
pub fn edge_starts(bdd: &mut Bdd, fwd: &Forwarder<'_>) -> Vec<(Location, Ref)> {
    let full = bdd.full();
    fwd.network()
        .topology()
        .ifaces()
        .filter(|(_, ifc)| matches!(ifc.kind, IfaceKind::Host | IfaceKind::External))
        .map(|(id, ifc)| (Location::at(ifc.device, id), full))
        .collect()
}

/// One [`explore`] call: the start being walked, the rule stack of the
/// current path prefix, the running totals, the step memo shared by
/// every start, and the visitor.
struct Walk<'w, 'f, 'n, V> {
    opts: &'w ExploreOpts,
    start: Option<Location>,
    rules: Vec<RuleId>,
    stats: PathStats,
    memo: StepMemo<'f, 'n>,
    visitor: V,
}

impl<V: FnMut(&mut Bdd, &PathEvent<'_>)> Walk<'_, '_, '_, V> {
    fn dfs(&mut self, bdd: &mut Bdd, loc: Location, packets: Ref) {
        if self.stats.paths >= self.opts.max_paths {
            return;
        }
        if self.rules.len() >= self.opts.max_hops {
            self.emit(bdd, Terminal::Truncated, packets);
            return;
        }
        let step = self.memo.step(bdd, loc, packets);
        if !step.unmatched.is_false() && (!self.rules.is_empty() || self.opts.emit_empty_paths) {
            self.emit(bdd, Terminal::Unmatched, step.unmatched);
        }
        for t in &step.transitions {
            self.rules.push(t.rule);
            for o in &t.outcomes {
                match *o {
                    Outcome::Hop { next, packets } => self.dfs(bdd, next, packets),
                    Outcome::Delivered { iface, packets } => {
                        self.emit(bdd, Terminal::Delivered { iface }, packets)
                    }
                    Outcome::Exited { iface, packets } => {
                        self.emit(bdd, Terminal::Exited { iface }, packets)
                    }
                    Outcome::Dropped { packets } => self.emit(bdd, Terminal::Dropped, packets),
                }
            }
            self.rules.pop();
        }
    }

    fn emit(&mut self, bdd: &mut Bdd, terminal: Terminal, final_set: Ref) {
        self.stats.record(terminal, self.rules.len());
        let event = PathEvent {
            start: self.start.expect("set before the walk of each start"),
            rules: &self.rules,
            terminal,
            final_set,
        };
        (self.visitor)(bdd, &event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::addr::Prefix;
    use netmodel::header;
    use netmodel::rule::{RouteClass, Rule};
    use netmodel::topology::{Role, Topology};
    use netmodel::{MatchSets, Network};

    /// Diamond: in -> a -> {b, c} -> d -> out (ECMP at a).
    fn diamond() -> (Network, Location, IfaceId) {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let b = t.add_device("b", Role::Spine);
        let c = t.add_device("c", Role::Spine);
        let d = t.add_device("d", Role::Tor);
        let ingress = t.add_iface(a, "in", IfaceKind::Host);
        let egress = t.add_iface(d, "out", IfaceKind::Host);
        let (ab, ba) = t.add_link(a, b);
        let (ac, ca) = t.add_link(a, c);
        let (bd, db) = t.add_link(b, d);
        let (cd, dc) = t.add_link(c, d);
        let _ = (ba, ca, db, dc);
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let mut net = Network::new(t);
        net.add_rule(a, Rule::forward(p, vec![ab, ac], RouteClass::HostSubnet));
        net.add_rule(b, Rule::forward(p, vec![bd], RouteClass::HostSubnet));
        net.add_rule(c, Rule::forward(p, vec![cd], RouteClass::HostSubnet));
        net.add_rule(d, Rule::forward(p, vec![egress], RouteClass::HostSubnet));
        net.finalize();
        (net, Location::at(a, ingress), egress)
    }

    #[test]
    fn ecmp_diamond_has_two_delivered_paths() {
        let (net, start, egress) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let p = header::dst_in(&mut bdd, &"10.0.0.0/24".parse().unwrap());
        let mut lengths = Vec::new();
        let stats = explore(
            &mut bdd,
            &fwd,
            &[(start, p)],
            &ExploreOpts::default(),
            |bdd, ev| {
                if let Terminal::Delivered { iface } = ev.terminal {
                    assert_eq!(iface, egress);
                    assert!(bdd.equal(ev.final_set, p));
                    lengths.push(ev.rules.len());
                }
            },
        );
        assert_eq!(stats.delivered, 2);
        assert_eq!(lengths, vec![3, 3]);
        assert_eq!(stats.truncated, 0);
    }

    #[test]
    fn injecting_full_space_counts_unmatched() {
        let (net, start, _) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let full = bdd.full();
        let opts = ExploreOpts {
            emit_empty_paths: true,
            ..ExploreOpts::default()
        };
        let stats = explore(&mut bdd, &fwd, &[(start, full)], &opts, |_, _| {});
        // Everything outside 10.0.0.0/24 dies at `a` with no rules.
        assert_eq!(stats.unmatched, 1);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn drops_end_paths_early() {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Tor);
        let b = t.add_device("b", Role::Spine);
        let ingress = t.add_iface(a, "in", IfaceKind::Host);
        let (ab, _) = t.add_link(a, b);
        let mut net = Network::new(t);
        net.add_rule(
            a,
            Rule::forward(Prefix::v4_default(), vec![ab], RouteClass::StaticDefault),
        );
        net.add_rule(
            b,
            Rule::null_route(Prefix::v4_default(), RouteClass::StaticDefault),
        );
        net.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let v4 = header::family_is(&mut bdd, netmodel::Family::V4);
        let mut paths = Vec::new();
        let stats = explore(
            &mut bdd,
            &fwd,
            &[(Location::at(a, ingress), v4)],
            &ExploreOpts::default(),
            |_, ev| paths.push((ev.rules.to_vec(), ev.terminal)),
        );
        assert_eq!(stats.paths, 1);
        assert_eq!(paths[0].0.len(), 2); // forward at a, drop at b
        assert_eq!(paths[0].1, Terminal::Dropped);
    }

    #[test]
    fn loops_truncate_at_hop_bound() {
        let mut t = Topology::new();
        let a = t.add_device("a", Role::Spine);
        let b = t.add_device("b", Role::Spine);
        let ingress = t.add_iface(a, "in", IfaceKind::Host);
        let (ab, ba) = t.add_link(a, b);
        let mut net = Network::new(t);
        net.add_rule(
            a,
            Rule::forward(Prefix::v4_default(), vec![ab], RouteClass::StaticDefault),
        );
        net.add_rule(
            b,
            Rule::forward(Prefix::v4_default(), vec![ba], RouteClass::StaticDefault),
        );
        net.finalize();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let v4 = header::family_is(&mut bdd, netmodel::Family::V4);
        let opts = ExploreOpts {
            max_hops: 10,
            ..ExploreOpts::default()
        };
        let stats = explore(
            &mut bdd,
            &fwd,
            &[(Location::at(a, ingress), v4)],
            &opts,
            |_, _| {},
        );
        assert_eq!(stats.truncated, 1);
        assert_eq!(stats.max_len, 10);
    }

    #[test]
    fn edge_starts_cover_host_and_external_ifaces() {
        let (net, _, _) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let starts = edge_starts(&mut bdd, &fwd);
        assert_eq!(starts.len(), 2); // "in" on a, "out" on d
        assert!(starts.iter().all(|&(_, p)| p.is_true()));
    }

    #[test]
    fn stats_paths_equals_sum_of_terminals() {
        let (net, _, _) = diamond();
        let mut bdd = Bdd::new();
        let ms = MatchSets::compute(&net, &mut bdd);
        let fwd = Forwarder::new(&net, &ms);
        let starts = edge_starts(&mut bdd, &fwd);
        let opts = ExploreOpts {
            emit_empty_paths: true,
            ..ExploreOpts::default()
        };
        let stats = explore(&mut bdd, &fwd, &starts, &opts, |_, _| {});
        assert_eq!(
            stats.paths,
            stats.delivered + stats.exited + stats.dropped + stats.unmatched + stats.truncated
        );
    }
}
