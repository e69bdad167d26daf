//! The stop-the-world mark-compact collector and what it returns.

use super::Bdd;
use crate::node::{Node, Ref};
use crate::unique::UniqueTable;

impl Bdd {
    /// Stop-the-world mark-compact collection: keep the nodes reachable
    /// from `roots`, slide them down to the front of the arena in their
    /// existing order, and return the [`Relocation`] that rewrites
    /// surviving `Ref`s plus before/after [`GcStats`].
    ///
    /// Long-lived daemons accrete garbage: every delta recomputes covered
    /// sets, and the dead intermediates stay in the arena forever. Index
    /// order is a topological order (children before parents), so the
    /// collection is two linear sweeps over one `Vec<u32>` and no stack
    /// or hash set: a descending sweep marks (every parent is visited
    /// before its children), then an ascending sweep slides each live
    /// node down and rewrites its edges through the forwarding entries
    /// its children already received. Sliding preserves relative order,
    /// so edges still point down, lo edges stay regular, and the triples
    /// stay distinct: the survivors are re-interned into a table sized
    /// for them without a single `mk` or probe of the old table. The
    /// computed caches are cleared. Owners of `Ref`s (match sets, covered
    /// sets, traces) rewrite themselves through the relocation, one array
    /// index per ref.
    ///
    /// Every `Ref` not reachable from `roots` — and every cached result —
    /// is invalid afterwards; callers must rewrite all retained refs
    /// through [`Relocation::relocate`] before touching the manager
    /// again. Complement tags on the roots are irrelevant: a function
    /// and its complement are the same nodes.
    pub fn collect(&mut self, roots: &[Ref]) -> (Relocation, GcStats) {
        let nodes_before = self.node_count();
        // One vector, two roles: first the marks (non-zero = live), then,
        // entry by entry in the slide, the forwarding table (old index →
        // new index). Only the terminal lives at 0, so once its mark is
        // reset, 0 means "reclaimed" and forwards terminal edges as-is.
        let mut forward = vec![0u32; nodes_before];
        for r in roots {
            forward[r.index()] = 1;
        }
        for i in (1..nodes_before).rev() {
            if forward[i] != 0 {
                let n = self.nodes[i];
                forward[n.lo.index()] = 1;
                forward[n.hi.index()] = 1;
            }
        }
        forward[0] = 0;
        let mut live = 1;
        for i in 1..nodes_before {
            if forward[i] == 0 {
                continue;
            }
            let n = self.nodes[i];
            let moved = |r: Ref| Ref::pack(forward[r.index()] as usize, r.is_complemented());
            self.nodes[live] = Node {
                var: n.var,
                lo: moved(n.lo),
                hi: moved(n.hi),
            };
            forward[i] = live as u32;
            live += 1;
        }
        // The arena keeps its capacity: a resident engine refills it up
        // to the watermark before the next collection.
        self.nodes.truncate(live);
        self.unique = UniqueTable::for_arena(&self.nodes);
        // Every cached ref is stale; memos in the scratch/reduce pools
        // are cleared on return, so only these two hold refs across calls.
        self.ite_cache.clear();
        self.prob_cache.clear();
        (
            Relocation {
                forward,
                live: live - 1,
            },
            GcStats {
                nodes_before,
                nodes_after: live,
            },
        )
    }
}

/// The forwarding table produced by a collection ([`Bdd::collect`]):
/// old arena index → new arena index. [`Relocation::relocate`] carries
/// the complement tag across, so both polarities of a function relocate
/// through one entry.
pub struct Relocation {
    /// Indexed by pre-collection arena index; 0 marks a reclaimed node
    /// (no decision node moves to index 0, the terminal's).
    forward: Vec<u32>,
    /// Surviving decision nodes.
    live: usize,
}

impl Relocation {
    /// The post-GC ref denoting the same function as pre-GC `r`.
    ///
    /// `r` must be a terminal or reachable from the root set the
    /// collection ran with; anything else was reclaimed and panics.
    pub fn relocate(&self, r: Ref) -> Ref {
        if r.is_terminal() {
            return r;
        }
        match self.forward.get(r.index()) {
            Some(&to) if to != 0 => Ref::pack(to as usize, r.is_complemented()),
            _ => panic!("ref not reachable from the GC root set"),
        }
    }

    /// Number of relocated (live) decision nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the root set reached no decision nodes at all.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Before/after accounting for one collection, suitable for gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcStats {
    /// Arena node count when the collection started.
    pub nodes_before: usize,
    /// Arena node count after compaction (live nodes + terminal).
    pub nodes_after: usize,
}

impl GcStats {
    /// Nodes reclaimed by the collection.
    pub fn reclaimed(&self) -> usize {
        self.nodes_before.saturating_sub(self.nodes_after)
    }
}
