//! Arena lifecycle: `Bdd::collect` is a copying GC, so the only thing
//! that may change across a collection is where nodes live — never what
//! any surviving or recomputed function denotes.

use netbdd::{Bdd, PortableBdd, Ref};

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
