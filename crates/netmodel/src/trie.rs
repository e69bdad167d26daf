//! Destination-only tables as binary prefix tries: disjoint match sets
//! (§5.2 step 1) and Algorithm 1's covered sets (step 2) built from node
//! constructions alone.
//!
//! The header layout puts the family bit and then the destination bits,
//! most significant first, at the top of the variable order
//! ([`crate::header::FAMILY_VAR`], [`crate::header::DST_START`]). So a
//! trie node at depth `d` is the cube fixing the first `d` of those
//! variables, and a function confined to the node's cube is that cube's
//! literal chain over a function of the deeper variables alone — its
//! value *relative to* the node. Every set this module returns is built
//! bottom-up from relative values with [`Bdd::branch`] or read off the
//! match sets, and packets are walked top-down with [`Bdd::cofactors`]:
//! no ITE call, no running union, no garbage from intermediate unions.
//! Hash-consing makes each result the same `Ref` the first-match chain
//! in [`crate::disjoint`] builds, which stays the path for every other
//! table and the oracle for this one.
//!
//! [`PrefixTries`] holds one whole-network derivation's results per
//! distinct table: devices with the same table (every device of a
//! fat-tree) share its match sets and each walk made with the same
//! packets. It is built per call and dropped after, and a trie lives
//! only while one derivation runs on it; nothing here is resident.

use std::collections::HashMap;

use netbdd::{Bdd, Ref, Var};

use crate::addr::{Family, Prefix};
use crate::disjoint::MatchSets;
use crate::header::{DST_START, FAMILY_VAR};
use crate::network::Network;
use crate::topology::DeviceId;

/// Child slot value meaning "no child" (the root is nobody's child).
const ABSENT: u32 = 0;
/// Owner value of a node no rule occupies.
const UNOWNED: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    /// Child on the 0 and the 1 branch of this depth's variable.
    children: [u32; 2],
    parent: u32,
    /// Variables fixed above the node: 0 at the root, 1 + prefix length
    /// at a prefix's node.
    depth: u8,
    /// Table index of the rule that matches exactly this node's cube
    /// first, if any: the node is *present*.
    owner: u32,
}

/// One destination-only table as a prefix trie.
///
/// Rules go in in table order. A rule whose node, or any ancestor of it,
/// is already present is shadowed (an earlier rule matches all of its
/// packets): its match set is empty and it adds no node. This is
/// first-match semantics, so `Priority` tables and duplicate prefixes
/// are handled, not only tables sorted longest-prefix first. A present
/// node's present descendants all came earlier, and the packets they
/// match are exactly what the first-match chain takes away from it.
struct PrefixTrie {
    /// Parents before children, so reverse index order is bottom-up.
    nodes: Vec<Node>,
    /// Rules in the table, shadowed ones included.
    rules: usize,
}

/// The prefix-trie derivations of one network's destination-only
/// tables, shared by every device with the same table: its match sets
/// are derived once, and its covered sets once per set of packets and
/// marked rules. A trie is built when a derivation needs it and dropped
/// after, so only the results stay.
///
/// A device takes the trie path when every rule of its table matches on
/// the destination alone: `src`, `proto`, `sport`, `dport` and
/// `in_iface` all unset (a rule with no `dst` sits at the root and
/// matches everything). For any other device the methods return `None`
/// and the caller runs the first-match chain. Results are `Ref`s of the
/// `bdd` they were built in, so one `PrefixTries` serves one manager and
/// is dropped before that manager collects.
#[derive(Debug, Default)]
pub struct PrefixTries {
    /// Each distinct destination table, in rule order, to its slot in
    /// `match_sets`.
    tables: HashMap<Vec<Option<Prefix>>, usize>,
    /// Match sets by table, once derived.
    match_sets: Vec<Option<Vec<Ref>>>,
    /// Covered sets by table, packets and marked rules.
    covered: HashMap<(usize, Ref, Vec<u32>), Vec<Ref>>,
}

impl PrefixTries {
    /// No derivations yet.
    pub fn new() -> PrefixTries {
        PrefixTries::default()
    }

    /// `device`'s table, as its rules' destinations in table order, and
    /// the table's slot; `None` unless the table is destination-only.
    fn table_of(
        &mut self,
        net: &Network,
        device: DeviceId,
    ) -> Option<(usize, Vec<Option<Prefix>>)> {
        let mut table = Vec::with_capacity(net.device_rules(device).len());
        for rule in net.device_rules(device) {
            let m = &rule.matches;
            if m.src.is_some()
                || m.proto.is_some()
                || m.sport.is_some()
                || m.dport.is_some()
                || m.in_iface.is_some()
            {
                return None;
            }
            table.push(m.dst);
        }
        let slot = match self.tables.get(&table) {
            Some(&slot) => slot,
            None => {
                let slot = self.match_sets.len();
                self.match_sets.push(None);
                self.tables.insert(table.clone(), slot);
                slot
            }
        };
        Some((slot, table))
    }

    /// `device`'s match sets `M[r]` in table order (`FALSE` for a
    /// shadowed rule), or `None` when its table is not destination-only.
    pub fn match_sets(
        &mut self,
        net: &Network,
        bdd: &mut Bdd,
        device: DeviceId,
    ) -> Option<Vec<Ref>> {
        let (slot, table) = self.table_of(net, device)?;
        let sets =
            self.match_sets[slot].get_or_insert_with(|| PrefixTrie::new(&table).match_sets(bdd));
        Some(sets.clone())
    }

    /// Algorithm 1 on `device`'s table: `M[r]` for every rule in
    /// `marked` (ascending table indices of the rules a state-inspection
    /// test examined), `packets ∧ M[r]` for every other rule; or `None`
    /// when the table is not destination-only. `ms` holds the device's
    /// match sets.
    pub fn covered(
        &mut self,
        net: &Network,
        ms: &MatchSets,
        bdd: &mut Bdd,
        device: DeviceId,
        packets: Ref,
        marked: &[u32],
    ) -> Option<Vec<Ref>> {
        let (slot, table) = self.table_of(net, device)?;
        let key = (slot, packets, marked.to_vec());
        if let Some(covered) = self.covered.get(&key) {
            return Some(covered.clone());
        }
        let sets: Vec<Ref> = net.device_rule_ids(device).map(|id| ms.get(id)).collect();
        let mut walk = Walk {
            trie: &PrefixTrie::new(&table),
            sets: &sets,
            marked,
            out: vec![Ref::FALSE; sets.len()],
        };
        walk.run(bdd, packets);
        let covered = walk.out;
        self.covered.insert(key, covered.clone());
        Some(covered)
    }
}

/// The variable a trie node at `depth` branches on.
fn depth_var(depth: u8) -> Var {
    match depth {
        0 => FAMILY_VAR,
        d => DST_START + d as Var - 1,
    }
}

/// The branch bits from the root to `prefix`'s node: the family bit,
/// then the address bits most significant first.
fn prefix_path(prefix: &Prefix) -> impl Iterator<Item = usize> + '_ {
    let width = prefix.family().width() as u32;
    let family = std::iter::once(usize::from(prefix.family() == Family::V6));
    let bits =
        (0..prefix.len() as u32).map(move |i| ((prefix.bits() >> (width - 1 - i)) & 1) as usize);
    family.chain(bits)
}

impl PrefixTrie {
    /// The trie of a table given by its rules' destinations in table
    /// order.
    fn new(table: &[Option<Prefix>]) -> PrefixTrie {
        let mut trie = PrefixTrie {
            nodes: vec![Node {
                children: [ABSENT; 2],
                parent: 0,
                depth: 0,
                owner: UNOWNED,
            }],
            rules: table.len(),
        };
        for (index, dst) in table.iter().enumerate() {
            trie.insert(dst.as_ref(), index as u32);
        }
        trie
    }

    fn insert(&mut self, dst: Option<&Prefix>, owner: u32) {
        let mut at = 0usize;
        for bit in dst.into_iter().flat_map(prefix_path) {
            if self.nodes[at].owner != UNOWNED {
                return; // an earlier, shorter rule matches all of it
            }
            let child = self.nodes[at].children[bit];
            at = if child == ABSENT {
                let fresh = self.nodes.len();
                self.nodes.push(Node {
                    children: [ABSENT; 2],
                    parent: at as u32,
                    depth: self.nodes[at].depth + 1,
                    owner: UNOWNED,
                });
                self.nodes[at].children[bit] = fresh as u32;
                fresh
            } else {
                child as usize
            };
        }
        if self.nodes[at].owner == UNOWNED {
            self.nodes[at].owner = owner;
        }
    }

    /// `f`, a function relative to node `at`, conjoined with the literal
    /// chain of `at`'s cube: one [`Bdd::branch`] per level up to the root.
    fn lift(&self, bdd: &mut Bdd, mut at: usize, mut f: Ref) -> Ref {
        while at != 0 && !f.is_false() {
            let parent = &self.nodes[self.nodes[at].parent as usize];
            let var = depth_var(parent.depth);
            f = if parent.children[1] as usize == at {
                bdd.branch(var, Ref::FALSE, f)
            } else {
                bdd.branch(var, f, Ref::FALSE)
            };
            at = self.nodes[at].parent as usize;
        }
        f
    }

    /// Every rule's disjoint match set `M[r]`, in table order (shadowed
    /// rules get `FALSE`).
    ///
    /// Bottom-up, each node gets `¬below`, the complement of the union of
    /// the present nodes at or under it, relative to it (an absent child
    /// contributes `TRUE`). A present node's match set is then its cube
    /// minus its present strict descendants: the `¬below` of its two
    /// children under its own branch, lifted to its cube.
    fn match_sets(&self, bdd: &mut Bdd) -> Vec<Ref> {
        let mut sets = vec![Ref::FALSE; self.rules];
        let mut uncovered = vec![Ref::FALSE; self.nodes.len()];
        for at in (0..self.nodes.len()).rev() {
            let node = self.nodes[at];
            let [lo, hi] = node.children.map(|c| match c {
                ABSENT => Ref::TRUE,
                c => uncovered[c as usize],
            });
            let residual = bdd.branch(depth_var(node.depth), lo, hi);
            if node.owner == UNOWNED {
                uncovered[at] = residual;
            } else {
                sets[node.owner as usize] = self.lift(bdd, at, residual);
            }
        }
        sets
    }

    /// `f` restricted to the cube of node `at`, relative to it: the
    /// inverse of [`PrefixTrie::lift`], one cofactor per level.
    fn relative(&self, bdd: &Bdd, at: usize, f: Ref) -> Ref {
        if at == 0 {
            return f;
        }
        let parent = &self.nodes[self.nodes[at].parent as usize];
        let f = self.relative(bdd, self.nodes[at].parent as usize, f);
        let (lo, hi) = bdd.cofactors(f, depth_var(parent.depth));
        if parent.children[1] as usize == at {
            hi
        } else {
            lo
        }
    }
}

/// One Algorithm 1 walk of a device's packets down its table's trie.
///
/// The packets, relative to each node, are split by cofactors on the
/// way down. At each present child the branch is cut to `FALSE` on the
/// way back up, and the part cut off, completed below the child the
/// same way, is that child's covered set relative to it. Two shortcuts
/// keep the walk from rebuilding what the match sets already hold: where
/// the packets are all of a node's cube, every covered set below is its
/// match set; and a covered set equal to its match set relative to the
/// node is not lifted again.
struct Walk<'a> {
    trie: &'a PrefixTrie,
    /// The table's match sets `M[r]`.
    sets: &'a [Ref],
    /// Rules covered by inspection (ascending): `T[r] = M[r]`, no walk.
    marked: &'a [u32],
    out: Vec<Ref>,
}

impl Walk<'_> {
    fn run(&mut self, bdd: &mut Bdd, packets: Ref) {
        let root = self.trie.nodes[0].owner;
        let m = (root != UNOWNED && !self.is_marked(root)).then(|| self.sets[root as usize]);
        let t = self.node(bdd, 0, packets, m);
        if m.is_some() {
            self.out[root as usize] = t;
        }
        for &index in self.marked {
            self.out[index as usize] = self.sets[index as usize];
        }
    }

    fn is_marked(&self, owner: u32) -> bool {
        self.marked.binary_search(&owner).is_ok()
    }

    /// `p`, relative to node `at`, minus the cubes of `at`'s present
    /// strict descendants; fills `out` for those descendants on the way.
    /// `m` is the match set of the nearest present ancestor-or-self,
    /// relative to `at`, when that rule's covered set is wanted; without
    /// it nothing is built and the result is `FALSE`.
    fn node(&mut self, bdd: &mut Bdd, at: usize, p: Ref, m: Option<Ref>) -> Ref {
        if p.is_false() {
            return Ref::FALSE;
        }
        if p.is_true() {
            self.fill_below(at);
            return m.unwrap_or(Ref::FALSE);
        }
        let node = self.trie.nodes[at];
        if node.children == [ABSENT; 2] {
            return if m.is_some() { p } else { Ref::FALSE };
        }
        let var = depth_var(node.depth);
        let (p0, p1) = bdd.cofactors(p, var);
        let (m0, m1) = match m {
            Some(m) => {
                let (m0, m1) = bdd.cofactors(m, var);
                (Some(m0), Some(m1))
            }
            None => (None, None),
        };
        let mut kept = [p0, p1];
        for (b, m_b) in [(0, m0), (1, m1)] {
            if node.children[b] == ABSENT {
                continue;
            }
            let child = node.children[b] as usize;
            let owner = self.trie.nodes[child].owner;
            if owner == UNOWNED {
                kept[b] = self.node(bdd, child, kept[b], m_b);
                continue;
            }
            if self.is_marked(owner) {
                self.node(bdd, child, kept[b], None);
            } else {
                let set = self.sets[owner as usize];
                let m_c = self.trie.relative(bdd, child, set);
                let t = self.node(bdd, child, kept[b], Some(m_c));
                self.out[owner as usize] = if t == m_c {
                    set
                } else {
                    self.trie.lift(bdd, child, t)
                };
            }
            kept[b] = Ref::FALSE;
        }
        match m {
            Some(_) => bdd.branch(var, kept[0], kept[1]),
            None => Ref::FALSE,
        }
    }

    /// Every packet of node `at`'s cube is present: each present strict
    /// descendant is covered on its whole match set.
    fn fill_below(&mut self, at: usize) {
        let mut stack: Vec<u32> = self.trie.nodes[at].children.to_vec();
        while let Some(n) = stack.pop() {
            if n == ABSENT {
                continue;
            }
            let node = &self.trie.nodes[n as usize];
            if node.owner != UNOWNED {
                self.out[node.owner as usize] = self.sets[node.owner as usize];
            }
            stack.extend(node.children);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header;
    use crate::rule::{Action, MatchFields, RouteClass, Rule, Table, TableMode};
    use crate::topology::{Role, Topology};

    fn one_device(mode: TableMode, matches: Vec<MatchFields>) -> (Network, DeviceId) {
        let mut t = Topology::new();
        let d = t.add_device("r", Role::Tor);
        let mut net = Network::new(t);
        let mut table = Table::new(mode);
        for m in matches {
            table.push(Rule {
                matches: m,
                action: Action::Drop,
                class: RouteClass::Other,
            });
        }
        table.finalize();
        net.set_table(d, table);
        (net, d)
    }

    fn dst(p: &str) -> MatchFields {
        MatchFields::dst_prefix(p.parse().unwrap())
    }

    #[test]
    fn an_earlier_ancestor_or_twin_shadows_a_rule() {
        // First match wins: the /8 takes all of the later /16 and /8.
        let (net, d) = one_device(
            TableMode::Priority,
            vec![dst("10.0.0.0/8"), dst("10.1.0.0/16"), dst("10.0.0.0/8")],
        );
        let mut bdd = Bdd::new();
        let sets = PrefixTries::new().match_sets(&net, &mut bdd, d).unwrap();
        let eight = header::dst_in(&mut bdd, &"10.0.0.0/8".parse().unwrap());
        assert_eq!(sets, vec![eight, Ref::FALSE, Ref::FALSE]);
        // The sets tile the raw matches: /8 ∪ /16 ∪ /8 is the /8.
        assert_eq!(bdd.or_all(sets), eight);
    }

    #[test]
    fn a_rule_without_dst_sits_at_the_root() {
        let (net, d) = one_device(
            TableMode::Priority,
            vec![dst("10.0.0.0/8"), MatchFields::default()],
        );
        let mut bdd = Bdd::new();
        let sets = PrefixTries::new().match_sets(&net, &mut bdd, d).unwrap();
        let eight = header::dst_in(&mut bdd, &"10.0.0.0/8".parse().unwrap());
        assert_eq!(sets[1], bdd.not(eight));
        // The sets tile the raw matches: /8 ∪ everything is everything.
        assert!(bdd.or_all(sets).is_true());
    }

    #[test]
    fn only_destination_only_tables_have_a_trie() {
        let port = MatchFields {
            dport: Some((22, 22)),
            ..dst("10.0.0.0/8")
        };
        let (net, d) = one_device(TableMode::Priority, vec![dst("10.0.0.0/8"), port]);
        assert!(PrefixTries::new()
            .match_sets(&net, &mut Bdd::new(), d)
            .is_none());
    }
}
