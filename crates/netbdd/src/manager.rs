//! The BDD manager: arena, unique table, ITE engine, and set algebra.

mod collect;
mod quantify;
mod tests;

pub use collect::{GcStats, Relocation};

use crate::cache::{IteCache, DEFAULT_ITE_CACHE_LOG2};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::node::{Node, Ref, Var, TERMINAL_VAR};
use crate::unique::UniqueTable;

/// Entry bound on the probability memo. Like the match-set cache, the
/// policy is full flush at capacity (between queries, never mid-query):
/// entries are one recomputation away, while an unbounded memo on a
/// long-lived manager can outgrow the arena itself.
pub(crate) const PROB_CACHE_CAPACITY: usize = 1 << 18;

/// A reduced, ordered BDD manager with complement edges.
///
/// One manager owns an arena of hash-consed nodes and the memoisation
/// caches for the operations over them. All functions created by a manager
/// are only meaningful together with that manager; mixing [`Ref`]s across
/// managers is a logic error (but is memory-safe — it just denotes the
/// wrong function).
///
/// Nodes are stored in Brace–Rudell–Bryant complement-edge form: a
/// [`Ref`] carries a complement tag, every stored node's lo edge is
/// regular, and there is a single terminal. Negation is a tag flip —
/// O(1), no arena growth, no cache traffic — and a function and its
/// complement share all their nodes, roughly halving node residency on
/// the negation-heavy workloads coverage computation produces
/// (Algorithm 1 is a `diff`/`or` loop).
///
/// The manager owns its arena exclusively — no synchronisation anywhere
/// on the hot path. It has a single owner: every analysis runs on one
/// manager on one thread.
pub struct Bdd {
    /// Append-only between collections, and a node's children are made
    /// before it: every stored edge points to a smaller index, so index
    /// order is a topological order (what [`Bdd::collect`] sweeps in).
    nodes: Vec<Node>,
    unique: UniqueTable,
    ite_cache: IteCache,
    prob_cache: FxHashMap<Ref, f64>,
    prob_evictions: u64,
    /// Reusable memo tables for `restrict`/`exists`, recycled instead of
    /// allocated per call (the per-call maps showed up in the fig9
    /// profile as pure allocator traffic).
    scratch: Vec<FxHashMap<Ref, Ref>>,
    /// Reusable operand buffers for `or_all`/`and_all`, pooled like the
    /// memo tables so the hot fromRule path reduces without allocating.
    reduce_pool: Vec<Vec<Ref>>,
    // Cumulative lookup/hit counters (survive `clear_caches`).
    unique_lookups: u64,
    unique_hits: u64,
    ops: crate::debug::OpCounts,
}

impl Default for Bdd {
    fn default() -> Self {
        Self::new()
    }
}

impl Bdd {
    /// Create an empty manager containing only the terminal node.
    pub fn new() -> Self {
        Self::with_ite_cache_log2(DEFAULT_ITE_CACHE_LOG2)
    }

    /// A manager whose ITE computed cache holds `2^log2` slots (the slot
    /// array is allocated lazily, on the first cached operation). Smaller
    /// caches trade recomputation for memory; the default suits the
    /// fig6–fig9 workloads.
    pub fn with_ite_cache_log2(log2: u32) -> Self {
        let terminal = Node {
            // The single terminal (TRUE when referenced regular; FALSE is
            // its complement). Never looked up through the unique table;
            // its fields are inert.
            var: TERMINAL_VAR,
            lo: Ref::TRUE,
            hi: Ref::TRUE,
        };
        Bdd {
            nodes: vec![terminal],
            unique: UniqueTable::default(),
            ite_cache: IteCache::new(log2),
            prob_cache: FxHashMap::default(),
            prob_evictions: 0,
            scratch: Vec::new(),
            reduce_pool: Vec::new(),
            unique_lookups: 0,
            unique_hits: 0,
            ops: crate::debug::OpCounts::default(),
        }
    }

    /// Number of live nodes in the arena (including the terminal). A
    /// function and its complement share every node, so this is the
    /// engine's true memory residency.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Drop all operation caches, keeping the node arena intact.
    ///
    /// Useful between analysis phases on very large networks; every `Ref`
    /// remains valid, and the cumulative hit/eviction counters survive.
    pub fn clear_caches(&mut self) {
        self.ite_cache.clear();
        self.prob_cache.clear();
    }

    /// The stored node under `r` (complement tag ignored — the caller is
    /// responsible for applying `r`'s parity to the children, usually via
    /// [`Bdd::expand`]).
    #[inline]
    pub(crate) fn node(&self, r: Ref) -> Node {
        self.nodes[r.index()]
    }

    /// The Shannon children of `r` *as the function `r` denotes*: the
    /// stored node's edges with `r`'s complement tag pushed down. This is
    /// the one place the complement representation is unfolded; every
    /// traversal (counting, cube extraction, export) goes through it.
    #[inline]
    pub(crate) fn expand(&self, r: Ref) -> (Ref, Ref) {
        let n = self.node(r);
        if r.is_complemented() {
            (n.lo.complement(), n.hi.complement())
        } else {
            (n.lo, n.hi)
        }
    }

    /// Variable tested at the root of `r`, or `None` for terminals.
    pub fn root_var(&self, r: Ref) -> Option<Var> {
        if r.is_terminal() {
            None
        } else {
            Some(self.node(r).var)
        }
    }

    /// The reduced, hash-consed constructor ("mk" in the literature).
    ///
    /// Maintains the canonical form: if the lo edge arrives complemented,
    /// the node is stored with both edges flipped and the complement moves
    /// to the returned reference — so every function has exactly one
    /// representation and equality stays a word compare.
    pub(crate) fn mk(&mut self, var: Var, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        if lo.is_complemented() {
            let r = self.mk_raw(var, lo.complement(), hi.complement());
            return r.complement();
        }
        self.mk_raw(var, lo, hi)
    }

    /// The function `if var then hi else lo`, built directly: the reduced,
    /// complement-normalised constructor, with no ITE call and no
    /// operation counted. Structural walks that already know the Shannon
    /// expansion of their result (a prefix-trie descent) build it
    /// bottom-up with this instead of an `and`/`or` chain.
    ///
    /// # Panics
    ///
    /// Panics unless both children's root variables come after `var`
    /// (a terminal qualifies): an out-of-order node would break the
    /// canonical form every `Ref` comparison relies on.
    ///
    /// # Examples
    ///
    /// ```
    /// use netbdd::Bdd;
    ///
    /// let mut bdd = Bdd::new();
    /// let (t, f) = (bdd.full(), bdd.empty());
    /// let x1 = bdd.branch(1, f, t);
    /// let built = bdd.branch(0, f, x1); // x0 ∧ x1
    /// let (x0, x1) = (bdd.var(0), bdd.var(1));
    /// assert_eq!(built, bdd.and(x0, x1));
    /// ```
    pub fn branch(&mut self, var: Var, lo: Ref, hi: Ref) -> Ref {
        assert!(
            var < self.top_var(lo) && var < self.top_var(hi),
            "branch on variable {var} above a child rooted at {} / {}",
            self.top_var(lo),
            self.top_var(hi)
        );
        self.mk(var, lo, hi)
    }

    fn mk_raw(&mut self, var: Var, lo: Ref, hi: Ref) -> Ref {
        debug_assert!(var < TERMINAL_VAR);
        debug_assert!(!lo.is_complemented(), "lo edges must be regular");
        debug_assert!(lo.is_terminal() || self.node(lo).var > var);
        debug_assert!(hi.is_terminal() || self.node(hi).var > var);
        let node = Node { var, lo, hi };
        self.unique_lookups += 1;
        match self.unique.find(&self.nodes, node) {
            Ok(i) => {
                self.unique_hits += 1;
                Ref::pack(i as usize, false)
            }
            Err(slot) => {
                let i = self.nodes.len();
                self.nodes.push(node);
                self.unique.insert(&self.nodes, slot, i as u32);
                Ref::pack(i, false)
            }
        }
    }

    // ----- core operations ------------------------------------------------

    /// The single-variable function `var`.
    pub fn var(&mut self, var: Var) -> Ref {
        self.mk(var, Ref::FALSE, Ref::TRUE)
    }

    /// The negated single-variable function `¬var`.
    pub fn nvar(&mut self, var: Var) -> Ref {
        self.mk(var, Ref::TRUE, Ref::FALSE)
    }

    /// Literal: `var` if `positive`, else `¬var`.
    pub fn literal(&mut self, var: Var, positive: bool) -> Ref {
        if positive {
            self.var(var)
        } else {
            self.nvar(var)
        }
    }

    /// Tie-break rank for ITE argument canonicalization: top variable
    /// first (cheapest recursion leads), then arena index, ignoring
    /// complement tags so `f` and `¬f` rank together.
    #[inline]
    fn rank(&self, r: Ref) -> (Var, u32) {
        (self.node(r).var, r.regular().0)
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`. The workhorse every other
    /// operation reduces to.
    ///
    /// Before probing the computed cache, the call is normalized to a
    /// **standard triple**: arguments equal or complementary to `f`
    /// collapse to constants, commutative forms pick a canonical argument
    /// order, and complement tags are rewritten so `f` and `g` are always
    /// regular (complementing the result instead). Equivalent calls thus
    /// share one cache entry.
    ///
    /// # Examples
    ///
    /// ```
    /// use netbdd::Bdd;
    ///
    /// let mut bdd = Bdd::new();
    /// let (f, g, h) = (bdd.var(0), bdd.var(1), bdd.var(2));
    /// let ite = bdd.ite(f, g, h);
    ///
    /// // Hash-consing makes the hand-built (f ∧ g) ∨ (¬f ∧ h) the
    /// // *same* canonical node, so equality is a pointer check.
    /// let fg = bdd.and(f, g);
    /// let nf = bdd.not(f);
    /// let nfh = bdd.and(nf, h);
    /// let manual = bdd.or(fg, nfh);
    /// assert!(bdd.equal(ite, manual));
    /// ```
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal and absorption cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        let (mut f, mut g, mut h) = (f, g, h);
        // Arguments equal/complementary to f collapse to constants:
        // within the g branch f holds, within the h branch ¬f does.
        if g == f {
            g = Ref::TRUE;
        } else if g == f.complement() {
            g = Ref::FALSE;
        }
        if h == f {
            h = Ref::FALSE;
        } else if h == f.complement() {
            h = Ref::TRUE;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if g.is_false() && h.is_true() {
            return f.complement();
        }

        // Canonical argument order for the commutative forms. Each arm
        // has exactly one non-constant pattern left (the constant pairs
        // all returned above), so the ranks below never see a terminal.
        if g.is_true() {
            // f ∨ h == h ∨ f
            if self.rank(h) < self.rank(f) {
                std::mem::swap(&mut f, &mut h);
            }
        } else if h.is_false() {
            // f ∧ g == g ∧ f
            if self.rank(g) < self.rank(f) {
                std::mem::swap(&mut f, &mut g);
            }
        } else if h.is_true() {
            // f → g == ¬g → ¬f
            if self.rank(g) < self.rank(f) {
                let (nf, ng) = (f.complement(), g.complement());
                f = ng;
                g = nf;
            }
        } else if g.is_false() {
            // ¬f ∧ h == ¬h ∧ f  (as ite: (f,0,h) == (¬h,0,¬f))
            if self.rank(h) < self.rank(f) {
                let (nf, nh) = (f.complement(), h.complement());
                f = nh;
                h = nf;
            }
        } else if h == g.complement() {
            // f XNOR g is symmetric: ite(f,g,¬g) == ite(g,f,¬f)
            if self.rank(g) < self.rank(f) {
                std::mem::swap(&mut f, &mut g);
                h = g.complement();
            }
        }

        // Complement normalization: first argument regular...
        if f.is_complemented() {
            f = f.complement();
            std::mem::swap(&mut g, &mut h);
        }
        // ...then second argument regular, complementing the result.
        let complemented = g.is_complemented();
        if complemented {
            g = g.complement();
            h = h.complement();
        }

        if let Some(r) = self.ite_cache.lookup(f, g, h) {
            return if complemented { r.complement() } else { r };
        }

        let (fv, gv, hv) = (self.top_var(f), self.top_var(g), self.top_var(h));
        let v = fv.min(gv).min(hv);

        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);

        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.ite_cache.insert(f, g, h, r);
        if complemented {
            r.complement()
        } else {
            r
        }
    }

    #[inline]
    fn top_var(&self, r: Ref) -> Var {
        self.node(r).var
    }

    /// Shannon cofactors `(r|v=0, r|v=1)` of `r` with respect to variable
    /// `v`, which must be no deeper than `r`'s root variable: either the
    /// root's two children (complement tag pushed down) or `r` twice.
    /// Reads two edges; makes no node and counts no operation.
    #[inline]
    pub fn cofactors(&self, r: Ref, v: Var) -> (Ref, Ref) {
        debug_assert!(v <= self.top_var(r), "cofactor below the root variable");
        if self.node(r).var == v {
            self.expand(r)
        } else {
            (r, r)
        }
    }

    // ----- derived set algebra (Figure 5 of the paper) ---------------------

    /// The empty packet set.
    pub fn empty(&self) -> Ref {
        Ref::FALSE
    }

    /// The universal packet set.
    pub fn full(&self) -> Ref {
        Ref::TRUE
    }

    /// Set complement (`negate` in the paper's operation table).
    ///
    /// O(1): flips the complement tag. No arena growth, no cache probe —
    /// the former negation cache is gone because there is nothing left to
    /// memoise.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.ops.not += 1;
        f.complement()
    }

    /// Set union.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ops.or += 1;
        self.ite(f, Ref::TRUE, g)
    }

    /// Set intersection.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ops.and += 1;
        self.ite(f, g, Ref::FALSE)
    }

    /// Set difference `f \ g`.
    ///
    /// Counters are call counts, not exclusive classes: a `diff` also
    /// ticks the `not` and `and` it is built from.
    pub fn diff(&mut self, f: Ref, g: Ref) -> Ref {
        self.ops.diff += 1;
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// Symmetric difference.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.ops.xor += 1;
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Union of many sets, combined as a balanced binary tree: operands
    /// meet at O(log n) depth, keeping intermediate diagrams small, where
    /// a linear fold drags one ever-growing accumulator through every
    /// step.
    pub fn or_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        self.tree_reduce(items, Ref::FALSE, Self::or)
    }

    /// Intersection of many sets (the empty intersection is the full
    /// set), combined as a balanced binary tree like [`Bdd::or_all`].
    pub fn and_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        self.tree_reduce(items, Ref::TRUE, Self::and)
    }

    fn tree_reduce<I: IntoIterator<Item = Ref>>(
        &mut self,
        items: I,
        identity: Ref,
        op: fn(&mut Self, Ref, Ref) -> Ref,
    ) -> Ref {
        let mut iter = items.into_iter();
        let Some(first) = iter.next() else {
            return identity;
        };
        let Some(second) = iter.next() else {
            // Single operand: the reduction is the identity map — no
            // buffer, no op, no cache traffic (the hot fromRule path is
            // full of one-action rules that land here).
            return first;
        };
        // Halve in place on one pooled buffer (like the restrict/exists
        // memo pool): each round writes pair results over the front of
        // the same Vec, so a reduction allocates at most once ever.
        let mut layer = self.reduce_pool.pop().unwrap_or_default();
        layer.push(first);
        layer.push(second);
        layer.extend(iter);
        while layer.len() > 1 {
            let mut write = 0;
            let mut read = 0;
            while read + 1 < layer.len() {
                layer[write] = op(self, layer[read], layer[read + 1]);
                write += 1;
                read += 2;
            }
            if read < layer.len() {
                layer[write] = layer[read];
                write += 1;
            }
            layer.truncate(write);
        }
        let result = layer[0];
        layer.clear();
        self.reduce_pool.push(layer);
        result
    }

    /// Set equality. O(1) thanks to canonicity.
    pub fn equal(&self, f: Ref, g: Ref) -> bool {
        f == g
    }

    /// Whether `f ⊆ g` as packet sets.
    pub fn subset(&mut self, f: Ref, g: Ref) -> bool {
        self.diff(f, g).is_false()
    }

    /// Whether the two sets share at least one packet.
    pub fn intersects(&mut self, f: Ref, g: Ref) -> bool {
        !self.and(f, g).is_false()
    }

    /// The set of variables appearing anywhere in `f`, ascending.
    pub fn support(&self, f: Ref) -> Vec<Var> {
        let mut seen = FxHashSet::default();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.regular()];
        while let Some(r) = stack.pop() {
            if r.is_terminal() || !seen.insert(r) {
                continue;
            }
            let n = self.node(r);
            vars.insert(n.var);
            stack.push(n.lo.regular());
            stack.push(n.hi.regular());
        }
        vars.into_iter().collect()
    }

    /// Size (reachable node count) of a single function's diagram,
    /// counting shared arena nodes once: complement tags are ignored, so
    /// `size(f) == size(¬f)` — they are the same nodes.
    pub fn size(&self, f: Ref) -> usize {
        if f.is_terminal() {
            return 1;
        }
        let mut seen = FxHashSet::default();
        let mut stack = vec![f.regular()];
        let mut n = 1usize; // the terminal, reachable from every decision node
        while let Some(r) = stack.pop() {
            if r.is_terminal() || !seen.insert(r) {
                continue;
            }
            n += 1;
            let node = self.node(r);
            stack.push(node.lo.regular());
            stack.push(node.hi.regular());
        }
        n
    }

    pub(crate) fn prob_cache(&mut self) -> &mut FxHashMap<Ref, f64> {
        &mut self.prob_cache
    }

    /// Flush the probability memo if it has reached capacity. Called at
    /// the *start* of a probability query — mid-query the iterative
    /// algorithm relies on its partial entries, so one query may
    /// transiently overshoot the bound by its own reachable-set size.
    pub(crate) fn maybe_flush_prob_cache(&mut self) {
        if self.prob_cache.len() >= PROB_CACHE_CAPACITY {
            self.prob_cache.clear();
            self.prob_evictions += 1;
        }
    }

    pub(crate) fn ite_cache_stats(&self) -> (usize, usize, u64, u64, u64) {
        let (lookups, hits, evictions) = self.ite_cache.counters();
        (
            self.ite_cache.occupied(),
            self.ite_cache.capacity(),
            lookups,
            hits,
            evictions,
        )
    }

    pub(crate) fn prob_cache_len(&self) -> usize {
        self.prob_cache.len()
    }

    pub(crate) fn prob_evictions(&self) -> u64 {
        self.prob_evictions
    }

    pub(crate) fn unique_counters(&self) -> (u64, u64) {
        (self.unique_lookups, self.unique_hits)
    }

    pub(crate) fn op_counts(&self) -> crate::debug::OpCounts {
        self.ops
    }

    /// Allocated bytes of the arena, the unique table, the ITE cache and
    /// the probability memo — capacities, not lengths.
    pub(crate) fn allocated_bytes(&self) -> (usize, usize, usize, usize) {
        (
            self.nodes.capacity() * std::mem::size_of::<Node>(),
            self.unique.bytes(),
            self.ite_cache.bytes(),
            self.prob_cache.capacity() * (std::mem::size_of::<(Ref, f64)>() + 1),
        )
    }
}
