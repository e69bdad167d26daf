//! The BDD manager: arena, unique table, ITE engine, and set algebra.

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

    /// Shannon cofactors of `r` with respect to variable `v` (which must be
    /// no deeper than `r`'s root variable).
    #[inline]
    fn cofactors(&self, r: Ref, v: Var) -> (Ref, Ref) {
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

    /// Logical implication `f → g` as a function (not a test).
    pub fn imp(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::TRUE)
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

    // ----- restriction and quantification ----------------------------------

    /// Pull a recycled memo table for a traversal (cleared before reuse
    /// by [`Bdd::put_scratch`]).
    fn take_scratch(&mut self) -> FxHashMap<Ref, Ref> {
        self.scratch.pop().unwrap_or_default()
    }

    /// Return a memo table to the pool, dropping its entries but keeping
    /// the allocation for the next `restrict`/`exists`.
    fn put_scratch(&mut self, mut memo: FxHashMap<Ref, Ref>) {
        memo.clear();
        self.scratch.push(memo);
    }

    /// Restrict variable `var` to the constant `value` in `f`.
    pub fn restrict(&mut self, f: Ref, var: Var, value: bool) -> Ref {
        self.ops.restrict += 1;
        let mut memo = self.take_scratch();
        let r = self.restrict_rec(f, var, value, &mut memo);
        self.put_scratch(memo);
        r
    }

    fn restrict_rec(
        &mut self,
        f: Ref,
        var: Var,
        value: bool,
        memo: &mut FxHashMap<Ref, Ref>,
    ) -> Ref {
        if f.is_terminal() {
            return f;
        }
        let n = self.node(f);
        if n.var > var {
            return f; // var cannot appear below this node
        }
        // Restriction commutes with complement, so the memo is keyed on
        // the regular node and `f`'s tag is reapplied on the way out —
        // half the entries, double the hits.
        let reg = f.regular();
        let apply = |r: Ref| {
            if f.is_complemented() {
                r.complement()
            } else {
                r
            }
        };
        if let Some(&r) = memo.get(&reg) {
            return apply(r);
        }
        let r = if n.var == var {
            if value {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.restrict_rec(n.lo, var, value, memo);
            let hi = self.restrict_rec(n.hi, var, value, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(reg, r);
        apply(r)
    }

    /// Existential quantification over a set of variables: `∃ vars. f`.
    ///
    /// `vars` must be sorted ascending (debug-asserted).
    pub fn exists(&mut self, f: Ref, vars: &[Var]) -> Ref {
        self.ops.quantify += 1;
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]));
        let mut memo = self.take_scratch();
        let r = self.exists_rec(f, vars, &mut memo);
        self.put_scratch(memo);
        r
    }

    fn exists_rec(&mut self, f: Ref, vars: &[Var], memo: &mut FxHashMap<Ref, Ref>) -> Ref {
        if f.is_terminal() || vars.is_empty() {
            return f;
        }
        let n = self.node(f);
        // Skip quantified variables above this node's variable.
        let pos = vars.partition_point(|&v| v < n.var);
        let vars = &vars[pos..];
        if vars.is_empty() {
            return f;
        }
        // Quantification does NOT commute with complement (∃v.¬f ≠ ¬∃v.f),
        // so the memo key keeps the tag and children expand with parity.
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let (flo, fhi) = self.expand(f);
        let r = if vars[0] == n.var {
            let lo = self.exists_rec(flo, &vars[1..], memo);
            let hi = self.exists_rec(fhi, &vars[1..], memo);
            self.or(lo, hi)
        } else {
            let lo = self.exists_rec(flo, vars, memo);
            let hi = self.exists_rec(fhi, vars, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(f, r);
        r
    }

    /// Universal quantification over a set of variables: `∀ vars. f`.
    pub fn forall(&mut self, f: Ref, vars: &[Var]) -> Ref {
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
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

    // ----- arena lifecycle (GC) --------------------------------------------

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let bdd = Bdd::new();
        assert!(bdd.empty().is_false());
        assert!(bdd.full().is_true());
        // One shared terminal: FALSE is the complement of TRUE.
        assert_eq!(bdd.node_count(), 1);
    }

    #[test]
    fn mk_eliminates_redundant_tests() {
        let mut bdd = Bdd::new();
        let r = bdd.mk(3, Ref::TRUE, Ref::TRUE);
        assert!(r.is_true());
        assert_eq!(bdd.node_count(), 1);
    }

    #[test]
    fn hash_consing_dedups() {
        let mut bdd = Bdd::new();
        let a = bdd.var(5);
        let b = bdd.var(5);
        assert_eq!(a, b);
        assert_eq!(bdd.node_count(), 2);
    }

    #[test]
    fn literal_and_its_negation_share_one_node() {
        let mut bdd = Bdd::new();
        let a = bdd.var(3);
        let na = bdd.nvar(3);
        assert_eq!(na, bdd.not(a));
        assert_eq!(a.index(), na.index(), "one arena node for both polarities");
        assert_eq!(bdd.node_count(), 2); // terminal + the shared node
    }

    #[test]
    fn not_is_a_tag_flip() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let nodes_before = bdd.node_count();
        let (_, _, lookups_before, _, _) = bdd.ite_cache_stats();
        let nf = bdd.not(f);
        // O(1): no arena growth, no cache probe.
        assert_eq!(bdd.node_count(), nodes_before);
        let (_, _, lookups_after, _, _) = bdd.ite_cache_stats();
        assert_eq!(lookups_after, lookups_before);
        assert_eq!(nf.index(), f.index());
        assert_ne!(nf, f);
        assert_eq!(bdd.not(nf), f);
    }

    #[test]
    fn negation_is_involutive() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let nf = bdd.not(f);
        let nnf = bdd.not(nf);
        assert_eq!(f, nnf);
    }

    #[test]
    fn de_morgan() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let lhs = {
            let ab = bdd.and(a, b);
            bdd.not(ab)
        };
        let rhs = {
            let na = bdd.not(a);
            let nb = bdd.not(b);
            bdd.or(na, nb)
        };
        assert!(bdd.equal(lhs, rhs));
    }

    #[test]
    fn xor_and_diff_agree_with_definitions() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let x = bdd.xor(a, b);
        let union = bdd.or(a, b);
        let inter = bdd.and(a, b);
        let alt = bdd.diff(union, inter);
        assert_eq!(x, alt);
    }

    #[test]
    fn subset_and_intersects() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let ab = {
            let b = bdd.var(1);
            bdd.and(a, b)
        };
        assert!(bdd.subset(ab, a));
        assert!(!bdd.subset(a, ab));
        assert!(bdd.intersects(a, ab));
        let na = bdd.not(a);
        assert!(!bdd.intersects(a, na));
    }

    #[test]
    fn restrict_fixes_a_variable() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.ite(a, b, Ref::FALSE); // a ∧ b
        assert_eq!(bdd.restrict(f, 0, true), b);
        assert!(bdd.restrict(f, 0, false).is_false());
        assert_eq!(bdd.restrict(f, 1, true), a);
    }

    #[test]
    fn restrict_commutes_with_complement() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let ab = bdd.and(a, b);
        let f = bdd.or(ab, c);
        let nf = bdd.not(f);
        for (v, val) in [(0, true), (1, false), (2, true)] {
            let r1 = bdd.restrict(nf, v, val);
            let r2 = {
                let r = bdd.restrict(f, v, val);
                bdd.not(r)
            };
            assert_eq!(r1, r2, "restrict(¬f, {v}, {val}) == ¬restrict(f, ...)");
        }
    }

    #[test]
    fn exists_drops_a_variable() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let e = bdd.exists(f, &[0]);
        assert_eq!(e, b);
        let e2 = bdd.exists(f, &[0, 1]);
        assert!(e2.is_true());
    }

    #[test]
    fn exists_respects_polarity() {
        // ∃ is sensitive to complement: ∃a.(a∧b) = b, but ∃a.¬(a∧b) = ⊤.
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let nf = bdd.not(f);
        assert_eq!(bdd.exists(f, &[0]), b);
        assert!(bdd.exists(nf, &[0]).is_true());
    }

    #[test]
    fn forall_is_dual_of_exists() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.or(a, b);
        // ∀a. a∨b  ==  b
        assert_eq!(bdd.forall(f, &[0]), b);
        // ∀a,b. a∨b  ==  false
        assert!(bdd.forall(f, &[0, 1]).is_false());
    }

    #[test]
    fn support_reports_used_variables() {
        let mut bdd = Bdd::new();
        let a = bdd.var(2);
        let b = bdd.var(7);
        let f = bdd.xor(a, b);
        assert_eq!(bdd.support(f), vec![2, 7]);
        assert!(bdd.support(Ref::TRUE).is_empty());
        // Complement shares the diagram, so also the support.
        let nf = bdd.not(f);
        assert_eq!(bdd.support(nf), vec![2, 7]);
    }

    #[test]
    fn size_is_polarity_blind() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        assert_eq!(bdd.size(f), 3); // two decision nodes + terminal
        let nf = bdd.not(f);
        assert_eq!(bdd.size(nf), bdd.size(f));
        assert_eq!(bdd.size(Ref::TRUE), 1);
        assert_eq!(bdd.size(Ref::FALSE), 1);
    }

    #[test]
    fn clear_caches_preserves_functions() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        bdd.clear_caches();
        let g = bdd.and(a, b);
        assert_eq!(f, g);
    }

    #[test]
    fn or_all_and_and_all() {
        let mut bdd = Bdd::new();
        let lits: Vec<Ref> = (0..4).map(|v| bdd.var(v)).collect();
        let any = bdd.or_all(lits.iter().copied());
        let all = bdd.and_all(lits.iter().copied());
        assert!(bdd.subset(all, any));
        assert_eq!(bdd.or_all(std::iter::empty()), Ref::FALSE);
        assert_eq!(bdd.and_all(std::iter::empty()), Ref::TRUE);
    }

    #[test]
    fn tree_reduce_equals_linear_fold() {
        // The balanced reduction must produce the same canonical function
        // as the linear fold it replaced, for every operand count
        // (including odd counts, the single operand, and none).
        let mut bdd = Bdd::new();
        let mut items: Vec<Ref> = Vec::new();
        for v in 0..9u32 {
            // A mildly irregular mix: literals, cubes, and negations.
            let lit = bdd.literal(v, v % 2 == 0);
            let other = bdd.var((v + 3) % 9);
            items.push(match v % 3 {
                0 => lit,
                1 => bdd.and(lit, other),
                _ => bdd.not(other),
            });
        }
        for n in 0..=items.len() {
            let slice = &items[..n];
            let linear_or = slice.iter().fold(Ref::FALSE, |acc, &f| bdd.or(acc, f));
            let linear_and = slice.iter().fold(Ref::TRUE, |acc, &f| bdd.and(acc, f));
            assert_eq!(bdd.or_all(slice.iter().copied()), linear_or, "or n={n}");
            assert_eq!(bdd.and_all(slice.iter().copied()), linear_and, "and n={n}");
        }
    }

    #[test]
    fn commutative_operations_share_cache_entries() {
        // Standard-triple normalization: or(a, b) and or(b, a) (likewise
        // and/xor) must land on the same computed-cache entry.
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        for op in [Bdd::or, Bdd::and, Bdd::xor] {
            let r1 = op(&mut bdd, a, b);
            let (_, _, _, hits_before, _) = bdd.ite_cache_stats();
            let r2 = op(&mut bdd, b, a);
            let (_, _, _, hits_after, _) = bdd.ite_cache_stats();
            assert_eq!(r1, r2);
            assert!(hits_after > hits_before, "swapped arguments must hit");
        }
    }

    #[test]
    fn de_morgan_duals_share_cache_entries() {
        // ¬(a ∧ b) and ¬a ∨ ¬b normalize to the same standard triple, so
        // the second derivation is answered from the cache.
        let mut bdd = Bdd::new();
        let a = bdd.var(4);
        let b = bdd.var(9);
        let _ = bdd.and(a, b);
        let (_, _, _, hits_before, _) = bdd.ite_cache_stats();
        let na = bdd.not(a);
        let nb = bdd.not(b);
        let _ = bdd.or(na, nb);
        let (_, _, _, hits_after, _) = bdd.ite_cache_stats();
        assert!(hits_after > hits_before, "dual forms must share entries");
    }

    #[test]
    fn cache_counters_record_hits() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let s1 = bdd.stats();
        let g = bdd.and(a, b); // pure ITE-cache hit
        assert_eq!(f, g);
        let s2 = bdd.stats();
        assert_eq!(s2.ite_hits, s1.ite_hits + 1);
        assert_eq!(s2.ite_lookups, s1.ite_lookups + 1);
        // Remaking an existing node hits the unique table.
        let a2 = bdd.var(0);
        assert_eq!(a, a2);
        let s3 = bdd.stats();
        assert_eq!(s3.unique_hits, s2.unique_hits + 1);
        assert!(s3.unique_hit_rate() > 0.0 && s3.unique_hit_rate() <= 1.0);
        assert!(s3.ite_hit_rate() > 0.0 && s3.ite_hit_rate() <= 1.0);
    }

    #[test]
    fn bounded_ite_cache_evicts_instead_of_growing() {
        // A tiny cache on a workload with far more distinct calls than
        // slots: entries stay bounded, evictions tick, results stay
        // correct (spot-checked against a fresh default manager).
        let mut small = Bdd::with_ite_cache_log2(4); // 16 slots
        let mut reference = Bdd::new();
        let mut acc_s = Ref::FALSE;
        let mut acc_r = Ref::FALSE;
        for v in 0..64u32 {
            let (ls, lr) = (
                small.literal(v, v % 3 != 0),
                reference.literal(v, v % 3 != 0),
            );
            let (cs, cr) = (small.var((v + 7) % 64), reference.var((v + 7) % 64));
            let (xs, xr) = (small.xor(ls, cs), reference.xor(lr, cr));
            acc_s = small.or(acc_s, xs);
            acc_r = reference.or(acc_r, xr);
        }
        let s = small.stats();
        assert!(s.ite_cache_entries <= s.ite_cache_capacity);
        assert_eq!(s.ite_cache_capacity, 16);
        assert!(s.ite_evictions > 0, "overfull cache must evict");
        // Same canonical function in both managers.
        assert_eq!(small.probability(acc_s), reference.probability(acc_r));
        assert_eq!(small.sat_count(acc_s, 64), reference.sat_count(acc_r, 64));
    }

    /// Forty mixed functions over twelve variables, sharing subterms.
    fn build_mix(bdd: &mut Bdd) -> Vec<Ref> {
        (0..40u32)
            .map(|i| {
                let a = bdd.var(i % 12);
                let b = bdd.nvar((i + 5) % 12);
                let c = bdd.var((i + 9) % 12);
                let ab = bdd.and(a, b);
                bdd.xor(ab, c)
            })
            .collect()
    }

    #[test]
    fn rebuilt_index_table_is_complete() {
        // The collector re-interns its survivors without `mk`; remaking
        // every live triple afterwards must find each one at its own
        // index, as a unique-table hit, without growing the arena.
        let mut bdd = Bdd::new();
        let funcs = build_mix(&mut bdd);
        let roots: Vec<Ref> = funcs.iter().copied().step_by(3).collect();
        let (_, stats) = bdd.collect(&roots);
        assert!(stats.reclaimed() > 0);
        let live = bdd.node_count();
        let hits_before = bdd.unique_hits;
        for i in 1..live {
            let n = bdd.nodes[i];
            assert_eq!(bdd.mk(n.var, n.lo, n.hi), Ref::pack(i, false));
        }
        assert_eq!(bdd.node_count(), live, "a live triple was made again");
        assert_eq!(bdd.unique_hits - hits_before, live as u64 - 1);
    }

    #[test]
    #[should_panic(expected = "not reachable from the GC root set")]
    fn relocating_a_reclaimed_ref_panics() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let ab = bdd.and(a, b);
        let (reloc, _) = bdd.collect(&[a]);
        reloc.relocate(ab);
    }

    #[test]
    fn stats_bytes_follow_the_allocations() {
        let mut bdd = Bdd::new();
        let s = bdd.stats();
        assert_eq!(s.arena_bytes, 12 * bdd.nodes.capacity());
        assert_eq!(
            (s.unique_bytes, s.ite_cache_bytes, s.prob_memo_bytes),
            (0, 0, 0)
        );
        let funcs = build_mix(&mut bdd);
        for &f in &funcs {
            let _ = bdd.probability(f);
        }
        // Enough literals to grow the index table past its minimum.
        for v in 100..400 {
            let _ = bdd.var(v);
        }
        let s = bdd.stats();
        assert_eq!(s.arena_bytes, 12 * bdd.nodes.capacity());
        assert_eq!(s.unique_bytes, 4 * bdd.unique.slot_count());
        assert!(
            bdd.unique.slot_count() >= 2 * (s.nodes - 1),
            "load above 1/2"
        );
        assert_eq!(s.ite_cache_bytes, 16 * s.ite_cache_capacity);
        assert_eq!(s.prob_memo_bytes, 17 * bdd.prob_cache.capacity());
        assert!(s.prob_memo_bytes >= 17 * s.prob_cache_entries);
        // Collecting everything re-sizes the index table for the
        // survivors; the arena and the ITE cache keep their allocations.
        let _ = bdd.collect(&[]);
        let after = bdd.stats();
        assert!(after.unique_bytes < s.unique_bytes);
        assert_eq!(after.unique_bytes, 4 * bdd.unique.slot_count());
        assert_eq!(after.arena_bytes, s.arena_bytes);
        assert_eq!(after.ite_cache_bytes, s.ite_cache_bytes);
    }

    #[test]
    fn prob_cache_is_capacity_bounded() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let _ = bdd.probability(a);
        assert!(bdd.stats().prob_cache_entries >= 1);
        // Simulate a full memo: the next query flushes before computing.
        for i in 0..PROB_CACHE_CAPACITY {
            bdd.prob_cache().insert(Ref::pack(i + 10_000, false), 0.0);
        }
        let before = bdd.stats().prob_evictions;
        let b = bdd.var(1);
        let _ = bdd.probability(b);
        let s = bdd.stats();
        assert_eq!(s.prob_evictions, before + 1);
        assert!(s.prob_cache_entries < PROB_CACHE_CAPACITY);
    }
}
