//! Restriction and existential and universal quantification.

use super::Bdd;
use crate::fxhash::FxHashMap;
use crate::node::{Ref, Var};

impl Bdd {
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
}
