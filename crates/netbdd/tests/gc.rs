//! Arena lifecycle: `Bdd::collect` is a mark-compact GC that slides the
//! live nodes down the arena in their existing (topological) order, so
//! the only thing that may change across a collection is where nodes
//! live — never what any surviving or recomputed function denotes.

use std::collections::HashSet;

use netbdd::{Bdd, PortableBdd, Ref};
use oracle::{PacketSet, ToySpace};
use proptest::prelude::*;

/// GC-then-recompute bit-identity: collect the arena down to a
/// few roots, then rebuild every function (dropped ones included) in the
/// compacted arena — every export must be byte-identical to the
/// pre-collection snapshot, and the collection itself must shrink the
/// arena.
#[test]
fn gc_then_recompute_is_bit_identical() {
    let mut bdd = Bdd::new();
    let build_all = |bdd: &mut Bdd| -> Vec<Ref> {
        (0..24u32)
            .map(|i| {
                let a = bdd.var(i % 12);
                let b = bdd.var((i + 5) % 12);
                let c = bdd.var((i + 9) % 12);
                let ab = bdd.and(a, b);
                let abc = bdd.xor(ab, c);
                bdd.or(abc, a)
            })
            .collect()
    };
    let funcs = build_all(&mut bdd);
    let snapshots: Vec<PortableBdd> = funcs.iter().map(|&f| bdd.export(f)).collect();

    // Keep only every fourth function live across the collection.
    let roots: Vec<Ref> = funcs.iter().copied().step_by(4).collect();
    let (reloc, stats) = bdd.collect(&roots);
    assert!(
        stats.nodes_after < stats.nodes_before,
        "dropping 3/4 of the roots must reclaim nodes ({} -> {})",
        stats.nodes_before,
        stats.nodes_after
    );
    for (i, &r) in roots.iter().enumerate() {
        assert_eq!(
            bdd.export(reloc.relocate(r)),
            snapshots[i * 4],
            "surviving root {i} changed across the collection"
        );
    }

    // Recompute everything in the compacted arena: canonical exports
    // must match the pre-GC snapshots bit for bit.
    let again = build_all(&mut bdd);
    for (i, &f) in again.iter().enumerate() {
        assert_eq!(
            bdd.export(f),
            snapshots[i],
            "function {i} diverged when recomputed after GC"
        );
    }
}

fn regular(bdd: &mut Bdd, r: Ref) -> Ref {
    if r.is_complemented() {
        bdd.not(r)
    } else {
        r
    }
}

/// Walk every node reachable from `roots`, asserting the store's
/// invariants on each stored node — its lo edge is regular and both
/// children sit at smaller arena indices — and return how many decision
/// nodes the walk saw. Restricting a regular ref at its own root
/// variable yields the stored edge itself, so this reads the store
/// through the public API only.
fn check_store(bdd: &mut Bdd, roots: &[Ref]) -> usize {
    let mut seen = HashSet::new();
    let mut stack: Vec<Ref> = roots.to_vec();
    while let Some(r) = stack.pop() {
        if r.is_terminal() {
            continue;
        }
        let r = regular(bdd, r);
        if !seen.insert(r) {
            continue;
        }
        let var = bdd.root_var(r).unwrap();
        let lo = bdd.restrict(r, var, false);
        let hi = bdd.restrict(r, var, true);
        assert!(!lo.is_complemented(), "{r:?} has a complemented lo edge");
        for child in [lo, hi] {
            if !child.is_terminal() {
                assert!(
                    child.index() < r.index(),
                    "{r:?} points up the arena to {child:?}"
                );
            }
            stack.push(child);
        }
    }
    seen.len()
}

fn build_mix(bdd: &mut Bdd, n: u32) -> Vec<Ref> {
    (0..n)
        .map(|i| {
            let a = bdd.var(i % 12);
            let b = bdd.nvar((i + 5) % 12);
            let c = bdd.var((i + 9) % 12);
            let ab = bdd.or(a, b);
            let abc = bdd.xor(ab, c);
            bdd.diff(abc, a)
        })
        .collect()
}

/// After a collection every stored node's children have smaller indices
/// and every lo edge is regular — and every stored node is reachable
/// from the roots, so the walk above visits the whole arena.
#[test]
fn collected_arena_keeps_children_below_parents_and_lo_regular() {
    let mut bdd = Bdd::new();
    let funcs = build_mix(&mut bdd, 40);
    let roots: Vec<Ref> = funcs.iter().copied().step_by(3).collect();
    let (reloc, stats) = bdd.collect(&roots);
    assert!(stats.reclaimed() > 0);
    let moved: Vec<Ref> = roots.iter().map(|&r| reloc.relocate(r)).collect();
    assert_eq!(check_store(&mut bdd, &moved), bdd.node_count() - 1);
    assert_eq!(reloc.len(), bdd.node_count() - 1);
}

/// A second collection with the same (relocated) roots has nothing to
/// reclaim and nothing to slide: every root relocates to itself.
#[test]
fn collecting_twice_relocates_every_root_to_itself() {
    let mut bdd = Bdd::new();
    let funcs = build_mix(&mut bdd, 40);
    let roots: Vec<Ref> = funcs.iter().copied().step_by(2).collect();
    let (first, _) = bdd.collect(&roots);
    let roots: Vec<Ref> = roots.iter().map(|&r| first.relocate(r)).collect();
    let (second, stats) = bdd.collect(&roots);
    assert_eq!(stats.reclaimed(), 0);
    for &r in &roots {
        assert_eq!(second.relocate(r), r);
    }
}

/// 6-bit dst + 4-bit src: 10 variables, 1024 packets (the oracle's sets
/// are extensional, so every variable doubles the check's cost).
fn space() -> ToySpace {
    ToySpace::new(6, 4, 0)
}

const NVARS: u32 = 10;

proptest! {
    /// Random expression DAGs over 10 variables (each step combines two
    /// earlier entries, so subterms are shared), collected down to a
    /// random subset of their entries: every surviving root exports the
    /// same canonical diagram as before the collection and counts the
    /// same packets as the oracle's extensional set, and the compacted
    /// store keeps its invariants.
    #[test]
    fn collection_preserves_random_dags(
        steps in prop::collection::vec((0u8..5, any::<usize>(), any::<usize>()), 1..48),
        keep in any::<u64>(),
    ) {
        let s = space();
        let mut bdd = Bdd::new();
        let mut funcs: Vec<Ref> = (0..NVARS).map(|v| bdd.var(v)).collect();
        let mut sets: Vec<PacketSet> = (0..NVARS).map(|v| PacketSet::literal(&s, v, true)).collect();
        for &(op, a, b) in &steps {
            let (a, b) = (a % funcs.len(), b % funcs.len());
            let (fa, fb) = (funcs[a], funcs[b]);
            let (f, set) = match op {
                0 => (bdd.and(fa, fb), sets[a].and(&sets[b])),
                1 => (bdd.or(fa, fb), sets[a].or(&sets[b])),
                2 => (bdd.diff(fa, fb), sets[a].diff(&sets[b])),
                3 => (bdd.xor(fa, fb), sets[a].xor(&sets[b])),
                _ => (bdd.not(fa), sets[a].not(&s)),
            };
            funcs.push(f);
            sets.push(set);
        }
        let snapshots: Vec<PortableBdd> = funcs.iter().map(|&f| bdd.export(f)).collect();
        let kept: Vec<usize> = (0..funcs.len()).filter(|i| keep >> (i % 64) & 1 == 1).collect();
        let roots: Vec<Ref> = kept.iter().map(|&i| funcs[i]).collect();
        let (reloc, stats) = bdd.collect(&roots);
        prop_assert_eq!(stats.nodes_after, bdd.node_count());
        let mut moved = Vec::new();
        for &i in &kept {
            let r = reloc.relocate(funcs[i]);
            prop_assert_eq!(&bdd.export(r), &snapshots[i], "entry {} changed", i);
            prop_assert_eq!(bdd.sat_count(r, NVARS), sets[i].sat_count(), "entry {} count", i);
            moved.push(r);
        }
        prop_assert_eq!(check_store(&mut bdd, &moved), bdd.node_count() - 1);
    }
}
