//! Introspection: Graphviz export and manager statistics.
//!
//! These exist for the humans maintaining the system: `dot` renders a
//! function's diagram for debugging match-set construction, and
//! [`Stats`] quantifies arena/cache growth, which is what you watch when
//! a network analysis starts thrashing.

use std::fmt::Write as _;

use crate::manager::Bdd;
use crate::node::Ref;

/// Per-class counts of the public set operations a manager has served
/// (the operation classes of the paper's Figure 5 workload breakdown).
///
/// These are *call* counts, not exclusive classes: derived operations
/// tick their constituents too (`diff` also ticks `not` and `and`,
/// `forall` ticks `not` twice and `quantify` once).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Unions (`or`, including each pairwise step of `or_all`).
    pub or: u64,
    /// Intersections (`and`, including each pairwise step of `and_all`).
    pub and: u64,
    /// Complements (O(1) tag flips; counted for workload breakdowns).
    pub not: u64,
    /// Set differences.
    pub diff: u64,
    /// Symmetric differences.
    pub xor: u64,
    /// Cofactor restrictions.
    pub restrict: u64,
    /// Variable quantifications (`exists`; `forall` desugars to it).
    pub quantify: u64,
}

impl OpCounts {
    /// Total operations served across all classes.
    pub fn total(&self) -> u64 {
        self.or + self.and + self.not + self.diff + self.xor + self.restrict + self.quantify
    }
}

/// Size and cache-behaviour snapshot of a manager.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Nodes in the arena (including the single shared terminal).
    pub nodes: usize,
    /// Occupied slots in the ITE computed cache.
    pub ite_cache_entries: usize,
    /// Total slots in the ITE computed cache (fixed at manager creation;
    /// occupancy can never exceed it).
    pub ite_cache_capacity: usize,
    /// ITE cache entries overwritten by a colliding insert. A high
    /// eviction-to-lookup ratio means the cache is undersized for the
    /// workload and work is being recomputed.
    pub ite_evictions: u64,
    /// Entries in the probability memo.
    pub prob_cache_entries: usize,
    /// Times the probability memo hit capacity and was flushed.
    pub prob_evictions: u64,
    /// Cumulative unique-table lookups (one per non-trivial `mk`).
    pub unique_lookups: u64,
    /// Lookups that found an existing node (hash-consing dedup).
    pub unique_hits: u64,
    /// Cumulative ITE computed-cache lookups (terminal cases excluded).
    pub ite_lookups: u64,
    /// ITE lookups answered from the cache.
    pub ite_hits: u64,
    /// Public set operations served, by class.
    pub ops: OpCounts,
    /// Bytes allocated for the node arena (12 per node of capacity).
    pub arena_bytes: usize,
    /// Bytes allocated for the unique table (4 per slot; it stores arena
    /// indices only, never a second copy of a node).
    pub unique_bytes: usize,
    /// Bytes allocated for the ITE computed cache (16 per slot; 0 until
    /// the first cached operation).
    pub ite_cache_bytes: usize,
    /// Bytes the probability memo's current capacity occupies (one
    /// `(Ref, f64)` entry plus one control byte per entry it can hold).
    pub prob_memo_bytes: usize,
}

impl Stats {
    /// Fraction of `mk` calls answered by the unique table (0 when no
    /// lookups have happened).
    pub fn unique_hit_rate(&self) -> f64 {
        rate(self.unique_hits, self.unique_lookups)
    }

    /// Fraction of ITE lookups answered from the computed cache.
    pub fn ite_hit_rate(&self) -> f64 {
        rate(self.ite_hits, self.ite_lookups)
    }

    /// Fraction of the ITE cache's slots currently holding an entry.
    pub fn ite_cache_occupancy(&self) -> f64 {
        if self.ite_cache_capacity == 0 {
            0.0
        } else {
            self.ite_cache_entries as f64 / self.ite_cache_capacity as f64
        }
    }
}

fn rate(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

impl Bdd {
    /// Current size statistics.
    pub fn stats(&self) -> Stats {
        let (unique_lookups, unique_hits) = self.unique_counters();
        let (ite_entries, ite_capacity, ite_lookups, ite_hits, ite_evictions) =
            self.ite_cache_stats();
        let (arena_bytes, unique_bytes, ite_cache_bytes, prob_memo_bytes) = self.allocated_bytes();
        Stats {
            nodes: self.node_count(),
            ite_cache_entries: ite_entries,
            ite_cache_capacity: ite_capacity,
            ite_evictions,
            prob_cache_entries: self.prob_cache_len(),
            prob_evictions: self.prob_evictions(),
            unique_lookups,
            unique_hits,
            ite_lookups,
            ite_hits,
            ops: self.op_counts(),
            arena_bytes,
            unique_bytes,
            ite_cache_bytes,
            prob_memo_bytes,
        }
    }

    /// Graphviz (`dot`) rendering of one function's diagram.
    ///
    /// Complement-edge conventions: there is a single terminal box `1`
    /// (FALSE is a complemented arc into it); dashed edges are low (0)
    /// branches — by the canonical-form invariant these are never
    /// complemented; solid edges are regular high (1) branches; **dotted**
    /// edges are complemented arcs (a complemented high branch, or the
    /// entry arc when the root reference itself is complemented). Reading
    /// rule: crossing a dotted arc negates everything below it.
    pub fn dot(&self, f: Ref, var_name: impl Fn(u32) -> String) -> String {
        let mut out = String::from("digraph bdd {\n  rankdir=TB;\n");
        out.push_str("  t [label=\"1\", shape=box];\n");
        // Entry arc so the root's own polarity is visible.
        out.push_str("  e [shape=point];\n");
        let target = |r: Ref| {
            if r.is_terminal() {
                "t".to_string()
            } else {
                format!("n{}", r.index())
            }
        };
        let arc_style = |r: Ref, base: &str| {
            if r.is_complemented() {
                "dotted".to_string()
            } else {
                base.to_string()
            }
        };
        let _ = writeln!(
            out,
            "  e -> {} [style={}];",
            target(f),
            arc_style(f, "solid")
        );
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut stack = vec![f.regular()];
        while let Some(r) = stack.pop() {
            if r.is_terminal() || !seen.insert(r) {
                continue;
            }
            let n = self.node(r);
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\", shape=circle];",
                r.index(),
                var_name(n.var)
            );
            for (child, base) in [(n.lo, "dashed"), (n.hi, "solid")] {
                let _ = writeln!(
                    out,
                    "  n{} -> {} [style={}];",
                    r.index(),
                    target(child),
                    arc_style(child, base)
                );
                stack.push(child.regular());
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_growth() {
        let mut bdd = Bdd::new();
        let s0 = bdd.stats();
        assert_eq!(s0.nodes, 1); // the single shared terminal
        let a = bdd.var(0);
        let b = bdd.var(1);
        let _ = bdd.and(a, b);
        let s1 = bdd.stats();
        assert!(s1.nodes > s0.nodes);
        assert!(s1.ite_cache_entries >= 1);
        assert!(s1.ite_cache_entries <= s1.ite_cache_capacity);
        assert!(s1.ite_cache_occupancy() > 0.0);
        bdd.clear_caches();
        let s2 = bdd.stats();
        assert_eq!(s2.ite_cache_entries, 0);
        assert_eq!(s2.nodes, s1.nodes); // arena survives cache clears
        assert_eq!(s2.ite_lookups, s1.ite_lookups); // counters survive too
    }

    #[test]
    fn op_counts_track_operation_classes() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let _ = bdd.and(a, b);
        let _ = bdd.or(a, b);
        let _ = bdd.diff(a, b); // ticks diff + not + and
        let _ = bdd.xor(a, b); // ticks xor + not
        let _ = bdd.restrict(a, 0, true);
        let _ = bdd.exists(a, &[0]); // ticks quantify + the or it desugars to
        let ops = bdd.stats().ops;
        assert_eq!(ops.or, 2);
        assert_eq!(ops.and, 2);
        assert_eq!(ops.not, 2);
        assert_eq!(ops.diff, 1);
        assert_eq!(ops.xor, 1);
        assert_eq!(ops.restrict, 1);
        assert_eq!(ops.quantify, 1);
        assert_eq!(ops.total(), 10);
        // Counters survive cache clears like the lookup counters do.
        bdd.clear_caches();
        assert_eq!(bdd.stats().ops, ops);
    }

    #[test]
    fn dot_renders_reachable_nodes_and_terminal() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let dot = bdd.dot(f, |v| format!("x{v}"));
        assert!(dot.starts_with("digraph bdd {"));
        assert!(dot.contains("label=\"x0\""));
        assert!(dot.contains("label=\"x1\""));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("style=solid"));
        // A conjunction's diagram necessarily carries complement arcs in
        // this representation (FALSE is a complemented terminal arc).
        assert!(dot.contains("style=dotted"));
        assert!(dot.contains("t [label=\"1\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_complement_shares_the_diagram() {
        // ¬f renders the same nodes as f; only the entry arc differs.
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let nf = bdd.not(f);
        let d1 = bdd.dot(f, |v| format!("x{v}"));
        let d2 = bdd.dot(nf, |v| format!("x{v}"));
        let body = |d: &str| {
            d.lines()
                .filter(|l| !l.contains("e ->"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(body(&d1), body(&d2));
        assert_ne!(d1, d2, "entry arcs must differ in polarity");
    }

    #[test]
    fn dot_of_terminal_is_minimal() {
        let bdd = Bdd::new();
        let dot = bdd.dot(Ref::TRUE, |v| v.to_string());
        // Header, terminal, entry point, entry arc, closing brace.
        assert_eq!(dot.lines().count(), 6);
        assert!(dot.contains("e -> t [style=solid]"));
        let dot_false = bdd.dot(Ref::FALSE, |v| v.to_string());
        assert!(dot_false.contains("e -> t [style=dotted]"));
    }
}
