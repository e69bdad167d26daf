//! Node arena primitives: complement-tagged references and the node record.

/// A handle to a BDD function, valid for the lifetime of the [`crate::Bdd`]
/// manager that created it.
///
/// `Ref` is a tagged index in the Brace–Rudell–Bryant style: bit 0 is a
/// **complement tag** and the remaining bits are the arena index of a
/// decision node. A set tag means "the negation of the node's function",
/// so complementing a set is a bit flip — no arena traffic, no cache
/// probe. It is `Copy` and 4 bytes so that forwarding tables can embed one
/// per rule without indirection.
///
/// The manager keeps every stored node's **lo edge regular** (untagged)
/// and hash-conses the `(var, lo, hi)` triples, which together make the
/// representation canonical: two `Ref`s are equal **iff** they denote the
/// same boolean function, and `f == !g` is likewise a single compare. Set
/// equality, emptiness, and complement-of checks are all O(1).
///
/// There is a single terminal node (arena index 0) denoting the constant
/// TRUE; FALSE is its complement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(pub(crate) u32);

impl Ref {
    /// The constant-true function (the full packet set): the untagged
    /// terminal.
    pub const TRUE: Ref = Ref(0);
    /// The constant-false function (the empty packet set): the
    /// complemented terminal.
    pub const FALSE: Ref = Ref(1);

    /// Whether this reference points at the terminal node (either
    /// polarity).
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Whether this is the constant-false (empty set) function.
    #[inline]
    pub fn is_false(self) -> bool {
        self == Ref::FALSE
    }

    /// Whether this is the constant-true (universal set) function.
    #[inline]
    pub fn is_true(self) -> bool {
        self == Ref::TRUE
    }

    /// Whether the complement tag is set. Representation detail: the
    /// *function* a complemented `Ref` denotes is the negation of its
    /// node's function. Exposed for diagnostics (`dot`, stats).
    #[inline]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same node with the complement tag flipped: O(1) negation.
    #[inline]
    pub(crate) fn complement(self) -> Ref {
        Ref(self.0 ^ 1)
    }

    /// The untagged (regular) version of this reference.
    #[inline]
    pub(crate) fn regular(self) -> Ref {
        Ref(self.0 & !1)
    }

    /// The arena index of the underlying node (complement tag stripped).
    /// Exposed for diagnostics and hashing only.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Assemble a reference from an arena index and a complement tag.
    #[inline]
    pub(crate) fn pack(index: usize, complemented: bool) -> Ref {
        Ref(((index as u32) << 1) | complemented as u32)
    }
}

impl std::fmt::Debug for Ref {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Ref::FALSE => write!(f, "⊥"),
            Ref::TRUE => write!(f, "⊤"),
            r if r.is_complemented() => write!(f, "!n{}", r.index()),
            r => write!(f, "n{}", r.index()),
        }
    }
}

/// Variable index type. Variables are ordered by their index: smaller
/// indices are closer to the root of every diagram.
pub type Var = u32;

/// Sentinel variable index used by the terminal node so that it sorts
/// below every decision node during apply-style recursions.
pub(crate) const TERMINAL_VAR: Var = Var::MAX;

/// One decision node: `if var then hi else lo`.
///
/// Canonical-form invariants maintained by the manager:
/// * `lo != hi` (no redundant tests),
/// * `lo` is **regular** — a complemented else-edge is rewritten as the
///   complement of the node with both edges flipped, so each function and
///   its negation share one arena node, and
/// * `(var, lo, hi)` is unique in the arena (hash-consing).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    pub var: Var,
    pub lo: Ref,
    pub hi: Ref,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_polarity() {
        assert!(Ref::TRUE.is_terminal() && Ref::FALSE.is_terminal());
        assert_eq!(Ref::TRUE.complement(), Ref::FALSE);
        assert_eq!(Ref::FALSE.complement(), Ref::TRUE);
        assert!(!Ref::TRUE.is_complemented());
        assert!(Ref::FALSE.is_complemented());
        assert_eq!(Ref::TRUE.index(), 0);
        assert_eq!(Ref::FALSE.index(), 0);
    }

    #[test]
    fn pack_roundtrips() {
        for idx in [0usize, 1, 7, 123_456] {
            for c in [false, true] {
                let r = Ref::pack(idx, c);
                assert_eq!(r.index(), idx);
                assert_eq!(r.is_complemented(), c);
                assert_eq!(r.complement().index(), idx);
                assert_eq!(r.regular(), Ref::pack(idx, false));
            }
        }
    }

    #[test]
    fn debug_shows_polarity() {
        assert_eq!(format!("{:?}", Ref::TRUE), "⊤");
        assert_eq!(format!("{:?}", Ref::FALSE), "⊥");
        assert_eq!(format!("{:?}", Ref::pack(3, false)), "n3");
        assert_eq!(format!("{:?}", Ref::pack(3, true)), "!n3");
    }
}
