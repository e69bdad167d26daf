//! Witness-extraction differential tests against the counting oracle.
//!
//! The witness path (gap reports, coverage-guided test generation) leans
//! on one property: every completion of an extracted cube is a member of
//! the source set. On a complement-edge BDD that property dies the
//! moment any walk reads a node's raw children instead of routing
//! through `Bdd::expand` — the returned "witness" then lies in the
//! *negation* of the set whenever the path crosses an odd number of
//! complemented edges. The expression generator here is deliberately
//! negation-heavy (`Not` and `Diff` are over-weighted) so such a parity
//! slip cannot survive: extracted cubes are replayed packet-by-packet
//! against the extensional `oracle::PacketSet` built in lockstep.

use netbdd::{Bdd, Cube, Ref};
use oracle::{PacketSet, ToySpace};
use proptest::prelude::*;

/// 4-bit dst + 1-bit src + 1-bit proto = 6 variables, 64 packets.
fn space() -> ToySpace {
    ToySpace::new(4, 1, 1)
}

const NVARS: u32 = 6;

/// Expression language biased toward complement-heavy shapes.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Diff(Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..NVARS).prop_map(Expr::Var);
    leaf.prop_recursive(6, 96, 2, |inner| {
        // Negation carries triple weight (and Diff double) by entry
        // duplication: parity bugs only show on paths that cross
        // complemented edges, so over-sample them.
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Diff(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Diff(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
        ]
    })
}

/// Build the symbolic and extensional representations in lockstep.
fn build(bdd: &mut Bdd, s: &ToySpace, e: &Expr) -> (Ref, PacketSet) {
    match e {
        Expr::Var(v) => (bdd.var(*v), PacketSet::literal(s, *v, true)),
        Expr::Not(a) => {
            let (fa, sa) = build(bdd, s, a);
            (bdd.not(fa), sa.not(s))
        }
        Expr::And(a, b) => {
            let ((fa, sa), (fb, sb)) = (build(bdd, s, a), build(bdd, s, b));
            (bdd.and(fa, fb), sa.and(&sb))
        }
        Expr::Or(a, b) => {
            let ((fa, sa), (fb, sb)) = (build(bdd, s, a), build(bdd, s, b));
            (bdd.or(fa, fb), sa.or(&sb))
        }
        Expr::Diff(a, b) => {
            let ((fa, sa), (fb, sb)) = (build(bdd, s, a), build(bdd, s, b));
            (bdd.diff(fa, fb), sa.diff(&sb))
        }
    }
}

/// Whether toy packet `p` is a completion of `cube` (agrees with every
/// constrained literal).
fn completes(s: &ToySpace, p: u32, cube: &Cube) -> bool {
    cube.literals().iter().all(|&(v, val)| s.bit(p, v) == val)
}

/// Every completion of `cube` must be a member of the oracle set — the
/// membership half of witness correctness, checked extensionally.
fn assert_completions_inside(
    s: &ToySpace,
    set: &PacketSet,
    cube: &Cube,
) -> Result<(), proptest::TestCaseError> {
    let mut any = false;
    for p in s.packets() {
        if completes(s, p, cube) {
            any = true;
            prop_assert!(
                set.contains(p),
                "cube completion {:#x} is outside the source set",
                p
            );
        }
    }
    prop_assert!(any, "cube admits no completion in the toy space");
    Ok(())
}

proptest! {
    /// `some_cube` on negation-heavy inputs: `None` exactly on empty
    /// sets, and every completion of the extracted cube is a member.
    #[test]
    fn one_sat_cube_lies_inside_the_set(e in arb_expr()) {
        let s = space();
        let mut bdd = Bdd::new();
        let (f, set) = build(&mut bdd, &s, &e);
        match bdd.some_cube(f) {
            None => prop_assert!(s.packets().all(|p| !set.contains(p))),
            Some(cube) => assert_completions_inside(&s, &set, &cube)?,
        }
    }

    /// The steered variant holds the same membership property for every
    /// polarity preference, not just the lo-first default.
    #[test]
    fn steered_cube_lies_inside_the_set(e in arb_expr(), mask in any::<u32>()) {
        let s = space();
        let mut bdd = Bdd::new();
        let (f, set) = build(&mut bdd, &s, &e);
        let cube = bdd.some_cube_with(f, |v| mask & (1 << v) != 0);
        match cube {
            None => prop_assert!(s.packets().all(|p| !set.contains(p))),
            Some(cube) => assert_completions_inside(&s, &set, &cube)?,
        }
    }

    /// Cube enumeration is a disjoint exact cover: completions of the
    /// emitted cubes are members, and every member completes exactly one
    /// cube (so the union rebuilds `f` with no overlap — the property
    /// `gaps.rs` region rendering relies on).
    #[test]
    fn enumerated_cubes_tile_the_set(e in arb_expr()) {
        let s = space();
        let mut bdd = Bdd::new();
        let (f, set) = build(&mut bdd, &s, &e);
        let cubes = bdd.cubes(f, 1 << NVARS);
        for cube in &cubes {
            assert_completions_inside(&s, &set, cube)?;
        }
        for p in s.packets() {
            let owners = cubes.iter().filter(|c| completes(&s, p, c)).count();
            prop_assert_eq!(
                owners,
                usize::from(set.contains(p)),
                "packet {:#x} completes {} cubes",
                p,
                owners
            );
        }
    }

    /// The steered walk is seed-stable and arena-layout-invariant: the
    /// same function built in a fresh manager and in one whose arena
    /// already holds unrelated nodes (so every `Ref` index differs)
    /// yields literal-identical cubes for the same preference.
    #[test]
    fn steered_cube_is_arena_layout_invariant(e in arb_expr(), mask in any::<u32>()) {
        let s = space();
        let mut fresh = Bdd::new();
        let mut warm = Bdd::new();
        let ladder: Vec<_> = (0..NVARS).rev().map(|v| warm.var(v)).collect();
        let _ = ladder.into_iter().fold(warm.empty(), |acc, v| warm.xor(acc, v));
        let (ff, _) = build(&mut fresh, &s, &e);
        let (fw, _) = build(&mut warm, &s, &e);
        let cf = fresh.some_cube_with(ff, |v| mask & (1 << v) != 0);
        let cw = warm.some_cube_with(fw, |v| mask & (1 << v) != 0);
        prop_assert_eq!(
            cf.as_ref().map(Cube::literals),
            cw.as_ref().map(Cube::literals)
        );
    }
}
