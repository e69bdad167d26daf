//! Match-action rules and forwarding tables: the `S` in `N = (V, I, E, S)`.
//!
//! A rule matches a set of packets and applies an action (§4.1): forward
//! out one or more interfaces (ECMP forwards out *all* of them for
//! analysis purposes), drop, or rewrite a header field and forward. Rules
//! carry their provenance ([`RouteClass`]) because the case study (§7.2)
//! groups untested rules by route class — internal, connected, wide-area —
//! and tests like DefaultRouteCheck inspect specific classes.

use netbdd::{Bdd, Ref};

use crate::addr::{Family, Prefix};
use crate::header::{self, HeaderField, Packet};
use crate::topology::IfaceId;

/// The match fields of a rule, compiled to a header-space BDD on demand.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct MatchFields {
    /// Destination prefix (LPM key). `None` matches both families fully.
    pub dst: Option<Prefix>,
    /// IPv4 source prefix filter.
    pub src: Option<Prefix>,
    /// Exact IP protocol.
    pub proto: Option<u8>,
    /// Inclusive destination-port range.
    pub dport: Option<(u16, u16)>,
    /// Inclusive source-port range.
    pub sport: Option<(u16, u16)>,
    /// Restrict to packets that arrived on this interface (ACL-in style).
    pub in_iface: Option<IfaceId>,
}

impl MatchFields {
    /// Match on a destination prefix only — the common FIB case.
    pub fn dst_prefix(p: Prefix) -> MatchFields {
        MatchFields {
            dst: Some(p),
            ..MatchFields::default()
        }
    }

    /// The destination prefix of a destination-only match (a route), or
    /// `None` when there is no `dst` or any other field is set.
    pub fn route_prefix(&self) -> Option<Prefix> {
        match (
            self.dst,
            self.src,
            self.proto,
            self.dport,
            self.sport,
            self.in_iface,
        ) {
            (Some(dst), None, None, None, None, None) => Some(dst),
            _ => None,
        }
    }

    /// Compile the *header* part of the match (everything except
    /// `in_iface`, which is positional, not header bits) to a BDD.
    pub fn to_bdd(&self, bdd: &mut Bdd) -> Ref {
        let mut acc = bdd.full();
        if let Some(p) = &self.dst {
            let f = header::dst_in(bdd, p);
            acc = bdd.and(acc, f);
        }
        if let Some(p) = &self.src {
            let f = header::src_in(bdd, p);
            acc = bdd.and(acc, f);
        }
        if let Some(proto) = self.proto {
            let f = header::proto_is(bdd, proto);
            acc = bdd.and(acc, f);
        }
        if let Some((lo, hi)) = self.dport {
            let f = header::dport_in(bdd, lo, hi);
            acc = bdd.and(acc, f);
        }
        if let Some((lo, hi)) = self.sport {
            let f = header::sport_in(bdd, lo, hi);
            acc = bdd.and(acc, f);
        }
        acc
    }

    /// Whether the *header* part of the match admits one concrete
    /// packet: the field-level twin of
    /// `pkt.matches(bdd, self.to_bdd(bdd))`, for callers that look a
    /// single packet up and need no BDD. Like [`MatchFields::to_bdd`]
    /// it ignores `in_iface`, ties a `dst` prefix to its family, and
    /// ties a `src` filter to IPv4.
    pub fn matches_packet(&self, pkt: &Packet) -> bool {
        // An IPv4 packet only carries its low 32 destination bits.
        let dst = match pkt.family {
            Family::V4 => pkt.dst & u32::MAX as u128,
            Family::V6 => pkt.dst,
        };
        let within = |range: Option<(u16, u16)>, port: u16| {
            range.is_none_or(|(lo, hi)| lo <= port && port <= hi)
        };
        self.dst
            .is_none_or(|p| p.family() == pkt.family && p.contains_addr(dst))
            && self
                .src
                .is_none_or(|p| pkt.family == Family::V4 && p.contains_addr(pkt.src as u128))
            && self.proto.is_none_or(|proto| proto == pkt.proto)
            && within(self.dport, pkt.dport)
            && within(self.sport, pkt.sport)
    }
}

/// A header rewrite applied by a transforming rule: set fields to
/// constants (NAT-style). Destination rewrites take a full field value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rewrite {
    /// `(field, value)` pairs; each field is overwritten with the value.
    pub set: Vec<(HeaderField, u128)>,
}

impl Rewrite {
    /// Apply the rewrite to a packet set: existentially quantify the
    /// field's variables, then constrain them to the constant.
    pub fn apply(&self, bdd: &mut Bdd, set: Ref) -> Ref {
        let mut acc = set;
        for &(field, value) in &self.set {
            let (start, width) = field.var_range();
            let vars: Vec<u32> = (start..start + width).collect();
            acc = bdd.exists(acc, &vars);
            let eq = bdd.bits_eq(start, width, value);
            acc = bdd.and(acc, eq);
        }
        acc
    }

    /// Pre-image: the packets that the rewrite maps *into* `out`.
    ///
    /// For set-to-constant rewrites this is the cofactor of `out` at the
    /// constant, with the rewritten field left free.
    pub fn preimage(&self, bdd: &mut Bdd, out: Ref) -> Ref {
        let mut acc = out;
        // Apply in reverse order so chained rewrites invert correctly.
        for &(field, value) in self.set.iter().rev() {
            let (start, width) = field.var_range();
            for i in 0..width {
                let bit = (value >> (width - 1 - i)) & 1 == 1;
                acc = bdd.restrict(acc, start + i, bit);
            }
        }
        acc
    }
}

/// What a rule does to the packets it matches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Forward out the given interfaces. More than one interface means
    /// ECMP/multicast fan-out: for analysis, the packet set continues out
    /// all of them.
    Forward(Vec<IfaceId>),
    /// Drop matched packets (null route, ACL deny).
    Drop,
    /// Rewrite header fields, then forward out the given interfaces.
    Rewrite(Rewrite, Vec<IfaceId>),
}

impl Action {
    /// Interfaces this action sends packets out of (empty for drops).
    pub fn out_ifaces(&self) -> &[IfaceId] {
        match self {
            Action::Forward(out) | Action::Rewrite(_, out) => out,
            Action::Drop => &[],
        }
    }

    /// Whether this action drops the packet.
    pub fn is_drop(&self) -> bool {
        matches!(self, Action::Drop)
    }
}

/// Provenance of a forwarding rule. The case study's gap analysis (§7.2)
/// is phrased entirely in terms of these classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RouteClass {
    /// Statically configured default route (the fail-safe of §7.1).
    StaticDefault,
    /// BGP-learned default route.
    BgpDefault,
    /// Route to a ToR's host subnet.
    HostSubnet,
    /// Route to a router loopback.
    Loopback,
    /// Connected route for a point-to-point link (/31 or /126).
    Connected,
    /// Route learned from the wide-area network.
    Wan,
    /// Anything else (ACL entries, test fixtures, ...).
    Other,
}

/// One match-action rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Header fields the rule matches on.
    pub matches: MatchFields,
    /// What happens to matching packets.
    pub action: Action,
    /// Where the rule came from (route class, §7.2).
    pub class: RouteClass,
}

impl Rule {
    /// A destination-prefix forwarding rule.
    pub fn forward(p: Prefix, out: Vec<IfaceId>, class: RouteClass) -> Rule {
        Rule {
            matches: MatchFields::dst_prefix(p),
            action: Action::Forward(out),
            class,
        }
    }

    /// A destination-prefix null route.
    pub fn null_route(p: Prefix, class: RouteClass) -> Rule {
        Rule {
            matches: MatchFields::dst_prefix(p),
            action: Action::Drop,
            class,
        }
    }
}

/// How the rules of a table are ordered for first-match semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableMode {
    /// Longest-prefix match on the destination: rules are conceptually
    /// sorted by descending prefix length (ties broken by insertion
    /// order). The table sorts itself lazily.
    Lpm,
    /// Explicit priority order: first inserted wins.
    Priority,
}

/// An ordered rule table. First match wins; [`crate::disjoint`] turns the
/// ordered view into the disjoint match sets of the paper's model.
#[derive(Clone, Debug)]
pub struct Table {
    mode: TableMode,
    rules: Vec<Rule>,
    sorted: bool,
}

impl Table {
    /// An empty table with the given ordering mode.
    pub fn new(mode: TableMode) -> Table {
        Table {
            mode,
            rules: Vec::new(),
            sorted: true,
        }
    }

    /// The table's ordering mode.
    pub fn mode(&self) -> TableMode {
        self.mode
    }

    /// Append a rule; ordering is re-derived lazily at finalization.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
        self.sorted = false;
    }

    /// Number of rules in the table.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Finalize ordering (sorts LPM tables by descending prefix length,
    /// stably). Called automatically by [`Table::rules`].
    pub fn finalize(&mut self) {
        if self.sorted {
            return;
        }
        if self.mode == TableMode::Lpm {
            // `None` dst (match-everything) sorts last, like a /0.
            self.rules
                .sort_by_key(|r| std::cmp::Reverse(r.matches.dst.map(|p| p.len()).unwrap_or(0)));
        }
        self.sorted = true;
    }

    /// The rules in first-match order.
    pub fn rules(&mut self) -> &[Rule] {
        self.finalize();
        &self.rules
    }

    /// The rules in first-match order, for tables already finalized.
    ///
    /// # Panics
    ///
    /// Panics if rules were pushed since the last [`Table::finalize`].
    pub fn rules_unchecked(&self) -> &[Rule] {
        assert!(self.sorted, "table not finalized");
        &self.rules
    }

    /// Insert a rule into a *finalized* table at its first-match
    /// position and return the index it landed on — the delta
    /// counterpart of push-then-[`Table::finalize`], with the same
    /// resulting order (new LPM rules go after existing rules of equal
    /// prefix length, exactly like the stable sort). Indices of later
    /// rules shift up by one.
    ///
    /// # Panics
    ///
    /// Panics if the table is not finalized.
    pub fn insert_sorted(&mut self, rule: Rule) -> usize {
        assert!(self.sorted, "table not finalized");
        let index = match self.mode {
            TableMode::Lpm => {
                let len = rule.matches.dst.map(|p| p.len()).unwrap_or(0);
                self.rules
                    .partition_point(|r| r.matches.dst.map(|p| p.len()).unwrap_or(0) >= len)
            }
            TableMode::Priority => self.rules.len(),
        };
        self.rules.insert(index, rule);
        index
    }

    /// Insert a rule into a *finalized* LPM table at its *canonical*
    /// position — ordered by `(descending prefix length, prefix)` — and
    /// return the index it landed on. This is the order a from-scratch
    /// RIB compile produces (rules are pushed in ascending prefix order,
    /// then stably sorted by descending length), so a
    /// withdraw-then-reinsert through this method restores the exact
    /// batch table layout, which [`Table::insert_sorted`] — equal
    /// lengths go last — cannot. Priority tables append, like
    /// [`Table::insert_sorted`].
    ///
    /// # Panics
    ///
    /// Panics if the table is not finalized.
    pub fn insert_canonical(&mut self, rule: Rule) -> usize {
        assert!(self.sorted, "table not finalized");
        let key = |r: &Rule| {
            (
                std::cmp::Reverse(r.matches.dst.map(|p| p.len()).unwrap_or(0)),
                r.matches.dst,
            )
        };
        let index = match self.mode {
            TableMode::Lpm => {
                let k = key(&rule);
                self.rules.partition_point(|r| key(r) <= k)
            }
            TableMode::Priority => self.rules.len(),
        };
        self.rules.insert(index, rule);
        index
    }

    /// Remove the rule at `index` from a finalized table, returning it.
    /// Removal preserves first-match order (no re-sort needed); indices
    /// of later rules shift down by one.
    ///
    /// # Panics
    ///
    /// Panics if the table is not finalized or `index` is out of range.
    pub fn remove(&mut self, index: usize) -> Rule {
        assert!(self.sorted, "table not finalized");
        self.rules.remove(index)
    }

    /// Swap the rule at `index` of a finalized table for `rule`, which
    /// must match exactly what the old rule matched, and return the old
    /// rule. Only the action and the route class can differ, so no rule
    /// moves and every match set derived from the table stays valid.
    ///
    /// # Panics
    ///
    /// Panics if the table is not finalized, `index` is out of range, or
    /// the two rules' match fields differ.
    pub fn replace(&mut self, index: usize, rule: Rule) -> Rule {
        assert!(self.sorted, "table not finalized");
        assert_eq!(
            self.rules[index].matches, rule.matches,
            "an in-place replacement keeps the match fields"
        );
        std::mem::replace(&mut self.rules[index], rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ipv4;
    use crate::header::Packet;

    #[test]
    fn match_fields_compile_conjunctively() {
        let mut bdd = Bdd::new();
        let m = MatchFields {
            dst: Some("10.0.0.0/8".parse().unwrap()),
            proto: Some(6),
            dport: Some((80, 80)),
            ..MatchFields::default()
        };
        let set = m.to_bdd(&mut bdd);
        let hit = Packet {
            proto: 6,
            dport: 80,
            ..Packet::v4_to(ipv4(10, 1, 1, 1))
        };
        let miss_port = Packet {
            proto: 6,
            dport: 81,
            ..Packet::v4_to(ipv4(10, 1, 1, 1))
        };
        let miss_dst = Packet {
            proto: 6,
            dport: 80,
            ..Packet::v4_to(ipv4(11, 1, 1, 1))
        };
        assert!(hit.matches(&bdd, set));
        assert!(!miss_port.matches(&bdd, set));
        assert!(!miss_dst.matches(&bdd, set));
    }

    #[test]
    fn empty_match_is_universal() {
        let mut bdd = Bdd::new();
        let set = MatchFields::default().to_bdd(&mut bdd);
        assert!(set.is_true());
    }

    #[test]
    fn lpm_table_sorts_longest_first() {
        let mut t = Table::new(TableMode::Lpm);
        t.push(Rule::forward(
            Prefix::v4_default(),
            vec![IfaceId(0)],
            RouteClass::StaticDefault,
        ));
        t.push(Rule::forward(
            "10.0.0.0/8".parse().unwrap(),
            vec![IfaceId(1)],
            RouteClass::Wan,
        ));
        t.push(Rule::forward(
            "10.1.0.0/16".parse().unwrap(),
            vec![IfaceId(2)],
            RouteClass::HostSubnet,
        ));
        let lens: Vec<u8> = t
            .rules()
            .iter()
            .map(|r| r.matches.dst.unwrap().len())
            .collect();
        assert_eq!(lens, vec![16, 8, 0]);
    }

    #[test]
    fn priority_table_preserves_insertion_order() {
        let mut t = Table::new(TableMode::Priority);
        t.push(Rule::null_route(
            "10.0.0.0/8".parse().unwrap(),
            RouteClass::Other,
        ));
        t.push(Rule::forward(
            Prefix::v4_default(),
            vec![IfaceId(0)],
            RouteClass::StaticDefault,
        ));
        assert!(t.rules()[0].action.is_drop());
    }

    #[test]
    fn lpm_sort_is_stable_for_equal_lengths() {
        let mut t = Table::new(TableMode::Lpm);
        t.push(Rule::forward(
            "10.0.0.0/24".parse().unwrap(),
            vec![IfaceId(0)],
            RouteClass::Other,
        ));
        t.push(Rule::forward(
            "10.0.1.0/24".parse().unwrap(),
            vec![IfaceId(1)],
            RouteClass::Other,
        ));
        let outs: Vec<IfaceId> = t.rules().iter().map(|r| r.action.out_ifaces()[0]).collect();
        assert_eq!(outs, vec![IfaceId(0), IfaceId(1)]);
    }

    #[test]
    fn rewrite_sets_field_to_constant() {
        let mut bdd = Bdd::new();
        let rw = Rewrite {
            set: vec![(HeaderField::Dport, 8080)],
        };
        let input = header::dport_in(&mut bdd, 80, 80);
        let out = rw.apply(&mut bdd, input);
        let expect = header::dport_in(&mut bdd, 8080, 8080);
        assert!(bdd.equal(out, expect));
    }

    #[test]
    fn rewrite_preimage_inverts_apply() {
        let mut bdd = Bdd::new();
        let rw = Rewrite {
            set: vec![(HeaderField::Dport, 8080)],
        };
        // Image of the full space is dport=8080; its preimage is everything.
        let full = bdd.full();
        let image = rw.apply(&mut bdd, full);
        assert_eq!(rw.preimage(&mut bdd, image), bdd.full());
        // Preimage of a set that excludes the constant is empty.
        let not8080 = {
            let x = header::dport_in(&mut bdd, 8080, 8080);
            bdd.not(x)
        };
        assert!(rw.preimage(&mut bdd, not8080).is_false());
    }

    #[test]
    fn drop_has_no_out_ifaces() {
        assert!(Action::Drop.out_ifaces().is_empty());
        assert!(Action::Drop.is_drop());
        assert!(!Action::Forward(vec![IfaceId(3)]).is_drop());
    }
}
