#![cfg(test)]

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

/// A handful of functions over variables `from..from + 4`, both
/// polarities, terminals included.
fn sample_functions(bdd: &mut Bdd, from: Var) -> Vec<Ref> {
    let v: Vec<Ref> = (from..from + 4).map(|i| bdd.var(i)).collect();
    let ab = bdd.and(v[0], v[1]);
    let cd = bdd.xor(v[2], v[3]);
    let f = bdd.or(ab, cd);
    let g = bdd.ite(v[1], v[3], v[2]);
    let mut out = vec![Ref::TRUE, Ref::FALSE, v[0], v[3], ab, cd, f, g];
    let negated: Vec<Ref> = out.iter().map(|&r| bdd.not(r)).collect();
    out.extend(negated);
    out
}

#[test]
fn branch_equals_ite_on_the_variable() {
    let mut bdd = Bdd::new();
    let children = sample_functions(&mut bdd, 3);
    for &lo in &children {
        for &hi in &children {
            for var in [0, 2] {
                let x = bdd.var(var);
                let want = bdd.ite(x, hi, lo);
                let ops = bdd.op_counts().total();
                assert_eq!(
                    bdd.branch(var, lo, hi),
                    want,
                    "branch({var}, {lo:?}, {hi:?})"
                );
                assert_eq!(bdd.op_counts().total(), ops, "branch counts no operation");
            }
        }
    }
}

#[test]
#[should_panic(expected = "branch on variable")]
fn out_of_order_branch_panics() {
    let mut bdd = Bdd::new();
    let deep = bdd.var(2);
    let _ = bdd.branch(2, Ref::FALSE, deep);
}

#[test]
fn cofactors_agree_with_restrict() {
    let mut bdd = Bdd::new();
    for f in sample_functions(&mut bdd, 1) {
        // At the root variable, above it, and (for terminals) anywhere.
        let root = bdd.root_var(f).unwrap_or(1);
        for v in [0, root] {
            let (lo, hi) = bdd.cofactors(f, v);
            assert_eq!(lo, bdd.restrict(f, v, false), "{f:?} at {v}, value 0");
            assert_eq!(hi, bdd.restrict(f, v, true), "{f:?} at {v}, value 1");
        }
    }
}
