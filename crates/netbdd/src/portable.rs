//! Manager-independent snapshots of single functions.
//!
//! A [`Ref`] is only meaningful inside the manager that created it, so
//! a function that leaves its manager — a test's trace sent to the
//! daemon, a job run on an isolated manager — needs a transfer format.
//! [`PortableBdd`] is that format: a topologically sorted copy of one
//! function's reachable nodes, with child references encoded
//! positionally instead of as arena indices. Exporting walks the diagram
//! once; importing replays it bottom-up through `mk`, so the rebuilt
//! function is hash-consed into the target manager and lands on the
//! canonical `Ref` for that function there — imports from different
//! sources that denote the same packet set collapse to the same node.
//!
//! Complement edges travel in the format: each slot carries the edge's
//! complement tag in its low bit, and there is a single terminal slot
//! (`TRUE`; `FALSE` is the complemented terminal slot, mirroring the
//! in-memory representation). Import goes through `mk`, which re-derives
//! the canonical tag placement — so a snapshot whose tags were arranged
//! differently (e.g. a future on-disk format produced by another tool)
//! still lands on the canonical form.

use crate::fxhash::FxHashMap;
use crate::manager::Bdd;
use crate::node::{Ref, Var, TERMINAL_VAR};

/// Child encoding inside a [`PortableBdd`]: bit 0 is the complement tag;
/// the remaining bits select the target — 0 for the terminal, `k + 1` for
/// `nodes[k]`, which always precedes the referencing node (children
/// first). Targets are stored regular; the tag is per-edge, exactly like
/// the in-memory `Ref` (so slot 0 is TRUE and slot 1 is FALSE).
pub type Slot = u32;

/// Why a [`PortableBdd`] failed validation on import.
///
/// Snapshots built by [`Bdd::export`] are well-formed by construction,
/// but a daemon ingesting snapshots over the wire must treat them as
/// untrusted: a malformed snapshot is a client error to report, not a
/// panic to die on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortableBddError {
    /// A child slot of `nodes[node]` (or the root, when `node == len`)
    /// points past the nodes defined before it — a forward reference or
    /// a truncated node array.
    SlotOutOfRange {
        /// Index of the referencing node (`len` for the root slot).
        node: usize,
        /// The offending raw slot value.
        slot: Slot,
    },
    /// `nodes[node]` has a complement tag on its lo edge, violating the
    /// canonical form the exporter guarantees.
    ComplementedLo {
        /// Index of the offending node.
        node: usize,
    },
    /// `nodes[node]` carries the reserved terminal variable id.
    TerminalVar {
        /// Index of the offending node.
        node: usize,
    },
    /// A child of `nodes[node]` does not have a strictly larger variable
    /// id, so the snapshot is not ordered.
    VarOrdering {
        /// Index of the offending node.
        node: usize,
    },
}

impl std::fmt::Display for PortableBddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PortableBddError::SlotOutOfRange { node, slot } => {
                write!(f, "node {node}: slot {slot} references an undefined node")
            }
            PortableBddError::ComplementedLo { node } => {
                write!(f, "node {node}: lo edge carries a complement tag")
            }
            PortableBddError::TerminalVar { node } => {
                write!(f, "node {node}: reserved terminal variable id")
            }
            PortableBddError::VarOrdering { node } => {
                write!(f, "node {node}: child variable not below parent")
            }
        }
    }
}

impl std::error::Error for PortableBddError {}

/// A self-contained, manager-independent copy of one BDD function.
///
/// Plain data (`Send`): build it in one thread's manager, move it across
/// the scope boundary, import it into another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableBdd {
    /// `(var, lo, hi)` triples in children-first order. `lo` slots are
    /// always regular (the exporter's manager maintains the canonical
    /// form); `hi` and the root may carry the complement bit.
    nodes: Vec<(Var, Slot, Slot)>,
    root: Slot,
}

impl PortableBdd {
    /// Number of decision nodes in the snapshot (the terminal excluded).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the snapshot is a bare terminal.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Assemble a snapshot from raw parts — the decode half of a wire
    /// format. No validation happens here; [`PortableBdd::validate`]
    /// (which [`Bdd::try_import`] runs) checks it before use, so a malformed wire payload surfaces as a
    /// [`PortableBddError`] rather than a panic.
    pub fn from_parts(nodes: Vec<(Var, Slot, Slot)>, root: Slot) -> PortableBdd {
        PortableBdd { nodes, root }
    }

    /// The `(var, lo, hi)` triples in children-first order — the encode
    /// half of a wire format.
    pub fn nodes(&self) -> &[(Var, Slot, Slot)] {
        &self.nodes
    }

    /// The root slot.
    pub fn root(&self) -> Slot {
        self.root
    }

    /// Check the snapshot without a manager: children-first references
    /// only, regular lo edges, ordered and non-terminal variables. The
    /// first violation is reported. [`Bdd::try_import`] runs this before
    /// it builds anything; a caller importing several snapshots runs it
    /// on all of them first, so a bad one builds none.
    pub fn validate(&self) -> Result<(), PortableBddError> {
        // Variable of the node a slot targets (terminals order below
        // all); `node` is the index of the referencing node, and only the
        // nodes before it may be referenced.
        let slot_var = |node: usize, s: Slot| -> Result<Var, PortableBddError> {
            match (s >> 1) as usize {
                0 => Ok(TERMINAL_VAR),
                k if k <= node => Ok(self.nodes[k - 1].0),
                _ => Err(PortableBddError::SlotOutOfRange { node, slot: s }),
            }
        };
        for (idx, &(var, lo, hi)) in self.nodes.iter().enumerate() {
            if var == TERMINAL_VAR {
                return Err(PortableBddError::TerminalVar { node: idx });
            }
            if lo & 1 == 1 {
                return Err(PortableBddError::ComplementedLo { node: idx });
            }
            let (lo_var, hi_var) = (slot_var(idx, lo)?, slot_var(idx, hi)?);
            if lo_var <= var || hi_var <= var {
                return Err(PortableBddError::VarOrdering { node: idx });
            }
        }
        slot_var(self.nodes.len(), self.root).map(drop)
    }
}

impl Bdd {
    /// Snapshot the function `f` into a manager-independent form.
    pub fn export(&self, f: Ref) -> PortableBdd {
        // Iterative post-order over *regular* nodes (a node and its
        // complement are one arena entry and one snapshot entry); a node
        // is emitted only after both children, so slots always point
        // backwards.
        let mut slot_of: FxHashMap<Ref, Slot> = FxHashMap::default();
        let mut nodes: Vec<(Var, Slot, Slot)> = Vec::new();
        let slot = |slots: &FxHashMap<Ref, Slot>, r: Ref| -> Slot {
            let tag = r.is_complemented() as Slot;
            if r.is_terminal() {
                tag // SLOT_TRUE or SLOT_FALSE
            } else {
                slots[&r.regular()] | tag
            }
        };
        enum Frame {
            Enter(Ref),
            Emit(Ref),
        }
        let mut stack = vec![Frame::Enter(f.regular())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(r) => {
                    if r.is_terminal() || slot_of.contains_key(&r) {
                        continue;
                    }
                    let n = self.node(r);
                    stack.push(Frame::Emit(r));
                    stack.push(Frame::Enter(n.hi.regular()));
                    stack.push(Frame::Enter(n.lo.regular()));
                }
                Frame::Emit(r) => {
                    if slot_of.contains_key(&r) {
                        continue;
                    }
                    let n = self.node(r);
                    nodes.push((n.var, slot(&slot_of, n.lo), slot(&slot_of, n.hi)));
                    slot_of.insert(r, (nodes.len() as Slot) << 1);
                }
            }
        }
        PortableBdd {
            root: slot(&slot_of, f),
            nodes,
        }
    }

    /// Rebuild a snapshot inside this manager and return its canonical
    /// `Ref` here. Importing the export of a function the manager already
    /// knows yields the original `Ref` exactly.
    ///
    /// Panics on a malformed snapshot; use [`Bdd::try_import`] for
    /// untrusted input.
    pub fn import(&mut self, p: &PortableBdd) -> Ref {
        self.try_import(p).expect("malformed PortableBdd snapshot")
    }

    /// [`Bdd::import`] for untrusted snapshots: [`PortableBdd::validate`]
    /// reports the first violation instead of panicking or silently
    /// building a non-canonical diagram. The whole snapshot is validated
    /// before the first node is built, so a refused one leaves the arena
    /// as it found it.
    pub fn try_import(&mut self, p: &PortableBdd) -> Result<Ref, PortableBddError> {
        p.validate()?;
        let mut refs: Vec<Ref> = Vec::with_capacity(p.nodes.len());
        let resolve = |refs: &[Ref], s: Slot| {
            let base = match s >> 1 {
                0 => Ref::TRUE,
                k => refs[k as usize - 1],
            };
            if s & 1 == 1 {
                base.complement()
            } else {
                base
            }
        };
        for &(var, lo, hi) in &p.nodes {
            let node = self.mk(var, resolve(&refs, lo), resolve(&refs, hi));
            refs.push(node);
        }
        Ok(resolve(&refs, p.root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(bdd: &mut Bdd) -> Ref {
        // (x0 ∧ x2) ∨ (¬x1 ∧ x3) — shares no structure accidentally.
        let a = bdd.var(0);
        let c = bdd.var(2);
        let ac = bdd.and(a, c);
        let nb = bdd.nvar(1);
        let d = bdd.var(3);
        let nbd = bdd.and(nb, d);
        bdd.or(ac, nbd)
    }

    #[test]
    fn roundtrip_in_same_manager_is_identity() {
        let mut bdd = Bdd::new();
        let f = sample(&mut bdd);
        let p = bdd.export(f);
        assert_eq!(bdd.import(&p), f);
        for t in [Ref::FALSE, Ref::TRUE] {
            let pt = bdd.export(t);
            assert!(pt.is_empty());
            assert_eq!(bdd.import(&pt), t);
        }
    }

    #[test]
    fn complement_roundtrips_as_the_same_nodes() {
        // ¬f shares f's diagram, so its export has the same node list;
        // only the root slot's tag differs, and both import exactly.
        let mut bdd = Bdd::new();
        let f = sample(&mut bdd);
        let nf = bdd.not(f);
        let p = bdd.export(f);
        let pn = bdd.export(nf);
        assert_eq!(p.nodes, pn.nodes);
        assert_eq!(p.root ^ 1, pn.root);
        assert_eq!(bdd.import(&pn), nf);
    }

    #[test]
    fn export_len_matches_function_size() {
        let mut bdd = Bdd::new();
        let f = sample(&mut bdd);
        // size() counts the shared terminal too.
        assert_eq!(bdd.export(f).len() + 1, bdd.size(f));
    }

    #[test]
    fn lo_slots_are_regular_in_exports() {
        let mut bdd = Bdd::new();
        let f = sample(&mut bdd);
        let p = bdd.export(f);
        assert!(!p.is_empty());
        for &(_, lo, _) in &p.nodes {
            assert_eq!(lo & 1, 0, "canonical form: lo edges are regular");
        }
    }

    #[test]
    fn cross_manager_transfer_preserves_semantics() {
        let mut src = Bdd::new();
        let f = sample(&mut src);
        let p = src.export(f);

        // Target manager with a different allocation history: the raw
        // indices cannot line up, only the function can.
        let mut dst = Bdd::new();
        let _noise = {
            let x = dst.var(7);
            let y = dst.nvar(5);
            dst.and(x, y)
        };
        let g = dst.import(&p);
        assert_eq!(dst.probability(g), src.probability(f));
        assert_eq!(dst.sat_count(g, 4), src.sat_count(f, 4));
        assert_eq!(dst.support(g), src.support(f));
        // Rebuilding the same function natively lands on the same Ref.
        let native = sample(&mut dst);
        assert_eq!(g, native);
    }

    #[test]
    fn try_import_accepts_every_well_formed_export() {
        let mut bdd = Bdd::new();
        let f = sample(&mut bdd);
        let p = bdd.export(f);
        assert_eq!(bdd.try_import(&p), Ok(f));
    }

    #[test]
    fn truncated_node_array_is_rejected() {
        let mut bdd = Bdd::new();
        let f = sample(&mut bdd);
        let p = bdd.export(f);
        // Drop the last node (the root's definition): the root slot now
        // points past the array.
        let mut nodes = p.nodes().to_vec();
        nodes.pop();
        let bad = PortableBdd::from_parts(nodes, p.root());
        assert!(matches!(
            bdd.try_import(&bad),
            Err(PortableBddError::SlotOutOfRange { .. })
        ));
    }

    #[test]
    fn forward_child_reference_is_rejected() {
        // One node whose hi child claims to be node index 5 of a
        // one-node array (slot (5+1)<<1 = 12).
        let bad = PortableBdd::from_parts(vec![(0, 0, 12)], 2);
        let mut bdd = Bdd::new();
        assert_eq!(
            bdd.try_import(&bad),
            Err(PortableBddError::SlotOutOfRange { node: 0, slot: 12 })
        );
    }

    #[test]
    fn complemented_lo_edge_is_rejected() {
        let mut bdd = Bdd::new();
        let f = sample(&mut bdd);
        let p = bdd.export(f);
        // Tag the first node's lo edge: violates the canonical form.
        let mut nodes = p.nodes().to_vec();
        nodes[0].1 |= 1;
        let bad = PortableBdd::from_parts(nodes, p.root());
        assert_eq!(
            bdd.try_import(&bad),
            Err(PortableBddError::ComplementedLo { node: 0 })
        );
    }

    #[test]
    fn terminal_variable_id_is_rejected() {
        let bad = PortableBdd::from_parts(vec![(Var::MAX, 0, 1)], 2);
        let mut bdd = Bdd::new();
        assert_eq!(
            bdd.try_import(&bad),
            Err(PortableBddError::TerminalVar { node: 0 })
        );
    }

    #[test]
    fn unordered_variables_are_rejected() {
        // nodes[0] splits on var 5; nodes[1] splits on var 5 too and
        // points at nodes[0] — equal vars are not strictly ordered.
        let bad = PortableBdd::from_parts(vec![(5, 0, 1), (5, 0, 2)], 4);
        let mut bdd = Bdd::new();
        assert_eq!(
            bdd.try_import(&bad),
            Err(PortableBddError::VarOrdering { node: 1 })
        );
    }

    #[test]
    fn a_snapshot_malformed_past_its_first_node_builds_nothing() {
        // nodes[0] is well formed and new to the manager; nodes[1] is
        // out of order. Validation must finish before the first `mk`.
        let bad = PortableBdd::from_parts(vec![(7, 0, 1), (9, 0, 2)], 4);
        let mut bdd = Bdd::new();
        let before = bdd.node_count();
        assert_eq!(
            bdd.try_import(&bad),
            Err(PortableBddError::VarOrdering { node: 1 })
        );
        assert_eq!(bdd.node_count(), before);
    }

    #[test]
    fn validate_needs_no_manager_and_agrees_with_try_import() {
        let mut bdd = Bdd::new();
        let f = sample(&mut bdd);
        assert_eq!(bdd.export(f).validate(), Ok(()));
        let bad = PortableBdd::from_parts(vec![(7, 0, 1), (9, 0, 2)], 4);
        assert_eq!(
            bad.validate(),
            Err(PortableBddError::VarOrdering { node: 1 })
        );
        assert_eq!(bdd.try_import(&bad).map(drop), bad.validate());
    }

    #[test]
    fn imports_from_two_sources_collapse_when_equal() {
        let mut a = Bdd::new();
        let mut b = Bdd::new();
        // Same function, built in different orders in different managers.
        let fa = {
            let x = a.var(1);
            let y = a.var(4);
            a.or(x, y)
        };
        let fb = {
            let y = b.var(4);
            let x = b.var(1);
            b.or(y, x)
        };
        let mut dst = Bdd::new();
        let ga = dst.import(&a.export(fa));
        let gb = dst.import(&b.export(fb));
        assert_eq!(ga, gb);
    }
}
