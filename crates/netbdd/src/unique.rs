//! The unique table: an index-only, open-addressed hash set over the arena.
//!
//! Hash-consing asks one question per `mk`: is `(var, lo, hi)` already
//! stored, and at which arena index? The arena already holds every
//! triple, so the table holds nothing but arena indices — 4 bytes per
//! slot — and a probe compares the candidate against `nodes[i]`: a
//! node's 12 bytes live once, in the arena.
//!
//! Slots are probed linearly from the high bits of the ITE cache's
//! multiply mix. Slot value 0 means empty: index 0 is the terminal, which
//! is never interned. The load is kept at or below ½; growing rebuilds
//! the table from the arena in index order, which is also how a
//! collection re-interns its survivors ([`UniqueTable::for_arena`]).

use crate::cache::mix;
use crate::node::Node;

/// Slot value marking an empty slot (the terminal's index, never stored).
const EMPTY: u32 = 0;

/// Smallest slot array a non-empty table allocates.
const MIN_SLOTS: usize = 1 << 8;

#[derive(Default)]
pub(crate) struct UniqueTable {
    /// Power-of-two array of arena indices (empty until the first insert).
    slots: Vec<u32>,
    /// Occupied slots: every decision node in the arena.
    len: usize,
}

impl UniqueTable {
    /// A table interning every decision node of `nodes` (index 0, the
    /// terminal, is skipped), sized so the load is at most ½. The nodes
    /// must be pairwise distinct, so insertion never compares them.
    pub fn for_arena(nodes: &[Node]) -> UniqueTable {
        let len = nodes.len() - 1;
        let mut slots = vec![EMPTY; (2 * len).next_power_of_two().max(MIN_SLOTS)];
        let mask = slots.len() - 1;
        for (i, node) in nodes.iter().enumerate().skip(1) {
            let mut s = home(&slots, node);
            while slots[s] != EMPTY {
                s = (s + 1) & mask;
            }
            slots[s] = i as u32;
        }
        UniqueTable { slots, len }
    }

    /// The arena index of the node equal to `node`, or else the empty
    /// slot where it belongs (hand that to [`UniqueTable::insert`]).
    #[inline]
    pub fn find(&self, nodes: &[Node], node: Node) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut s = home(&self.slots, &node);
        loop {
            match self.slots[s] {
                EMPTY => return Err(s),
                i if nodes[i as usize] == node => return Ok(i),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Intern `index`, the node just pushed onto `nodes`, into the `slot`
    /// a failed [`UniqueTable::find`] returned — or, if that would push
    /// the load past ½, rebuild the table (at twice the size) from
    /// `nodes`, which already includes the new node.
    #[inline]
    pub fn insert(&mut self, nodes: &[Node], slot: usize, index: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            *self = UniqueTable::for_arena(nodes);
        } else {
            self.slots[slot] = index;
            self.len += 1;
        }
    }

    /// Bytes allocated for the slot array.
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }

    #[cfg(test)]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

/// A node's home slot: the high bits of the mixed triple (see `cache::mix`
/// for why the high bits).
#[inline]
fn home(slots: &[u32], node: &Node) -> usize {
    let log2 = slots.len().trailing_zeros();
    (mix(node.var, node.lo.0, node.hi.0) >> (64 - log2)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Ref;

    /// A distinct decision-node triple per `k` (the table never looks at
    /// what the edges denote, so they need not form a diagram).
    fn node(k: u32) -> Node {
        Node {
            var: k % 7,
            lo: Ref(2 * (k + 1)),
            hi: Ref(2 * k + 1),
        }
    }

    fn terminal() -> Node {
        Node {
            var: crate::node::TERMINAL_VAR,
            lo: Ref::TRUE,
            hi: Ref::TRUE,
        }
    }

    /// `mk_raw`'s miss path, without the manager around it.
    fn intern(table: &mut UniqueTable, nodes: &mut Vec<Node>, n: Node) -> u32 {
        match table.find(nodes, n) {
            Ok(i) => i,
            Err(slot) => {
                nodes.push(n);
                let i = nodes.len() as u32 - 1;
                table.insert(nodes, slot, i);
                i
            }
        }
    }

    #[test]
    fn growth_keeps_every_entry_findable() {
        let mut table = UniqueTable::default();
        let mut nodes = vec![terminal()];
        assert_eq!(table.bytes(), 0, "an empty table allocates nothing");
        let mut sizes = Vec::new();
        for k in 0..5_000u32 {
            assert_eq!(intern(&mut table, &mut nodes, node(k)), k + 1);
            if sizes.last() != Some(&table.slots.len()) {
                sizes.push(table.slots.len());
                // Right after each growth, every earlier entry is found
                // at its own index.
                for j in 0..=k {
                    assert_eq!(table.find(&nodes, node(j)), Ok(j + 1));
                }
            }
            assert!(2 * table.len <= table.slots.len(), "load above 1/2");
            assert_eq!(table.len, nodes.len() - 1);
        }
        assert!(sizes.len() > 4, "5000 entries must have grown the table");
        assert!(sizes.windows(2).all(|w| w[1] == 2 * w[0]), "{sizes:?}");
        // Re-interning an existing triple is a hit, not a new node.
        assert_eq!(intern(&mut table, &mut nodes, node(1234)), 1235);
        assert_eq!(nodes.len(), 5_001);
        assert_eq!(table.bytes(), 4 * table.slots.len());
    }

    #[test]
    fn probing_wraps_past_the_end_of_the_slot_array() {
        // Two triples whose home is the last slot of a minimum-size
        // table: the second must wrap around to slot 0.
        let probe = UniqueTable::for_arena(&[terminal(), node(0)]);
        let last = probe.slots.len() - 1;
        let mut at_last = (0..).map(node).filter(|n| home(&probe.slots, n) == last);
        let (a, b) = (at_last.next().unwrap(), at_last.next().unwrap());
        let nodes = [terminal(), a, b];
        let table = UniqueTable::for_arena(&nodes);
        assert_eq!(table.slots.len(), probe.slots.len());
        assert_eq!(table.slots[last], 1);
        assert_eq!(table.slots[0], 2, "the colliding entry wrapped to slot 0");
        assert_eq!(table.find(&nodes, a), Ok(1));
        assert_eq!(table.find(&nodes, b), Ok(2));
        // A third triple homed there misses at the first empty slot
        // past the wrap.
        let c = at_last.next().unwrap();
        assert_eq!(table.find(&nodes, c), Err(1));
    }
}
