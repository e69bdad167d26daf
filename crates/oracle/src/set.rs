//! Packet sets by explicit enumeration: the oracle's answer to `netbdd`.
//!
//! A [`PacketSet`] is literally the set of concrete packets it contains.
//! Every Boolean-algebra and quantification operation the BDD engine
//! implements symbolically is mirrored here by visiting packets one at a
//! time, so each mirror is a direct transcription of the operation's
//! definition.

use std::collections::HashSet;

use crate::space::{ToyPacket, ToySpace};

/// A set of toy packets, stored extensionally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketSet {
    packets: HashSet<ToyPacket>,
}

impl PacketSet {
    /// The empty set.
    pub fn empty() -> PacketSet {
        PacketSet {
            packets: HashSet::new(),
        }
    }

    /// The full space: every packet.
    pub fn full(space: &ToySpace) -> PacketSet {
        PacketSet {
            packets: space.packets().collect(),
        }
    }

    /// The set of packets satisfying `pred`.
    pub fn from_pred(space: &ToySpace, mut pred: impl FnMut(ToyPacket) -> bool) -> PacketSet {
        PacketSet {
            packets: space.packets().filter(|&p| pred(p)).collect(),
        }
    }

    /// The set `{p : bit var of p == value}`.
    pub fn literal(space: &ToySpace, var: u32, value: bool) -> PacketSet {
        PacketSet::from_pred(space, |p| space.bit(p, var) == value)
    }

    /// Add one packet.
    pub fn insert(&mut self, p: ToyPacket) {
        self.packets.insert(p);
    }

    /// Membership test.
    pub fn contains(&self, p: ToyPacket) -> bool {
        self.packets.contains(&p)
    }

    /// Number of packets in the set.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the set holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Iterate over the packets, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = ToyPacket> + '_ {
        self.packets.iter().copied()
    }

    /// Set intersection (the oracle's `Bdd::and`).
    pub fn and(&self, other: &PacketSet) -> PacketSet {
        PacketSet {
            packets: self.packets.intersection(&other.packets).copied().collect(),
        }
    }

    /// Set union (the oracle's `Bdd::or`).
    pub fn or(&self, other: &PacketSet) -> PacketSet {
        PacketSet {
            packets: self.packets.union(&other.packets).copied().collect(),
        }
    }

    /// Set difference (the oracle's `Bdd::diff`).
    pub fn diff(&self, other: &PacketSet) -> PacketSet {
        PacketSet {
            packets: self.packets.difference(&other.packets).copied().collect(),
        }
    }

    /// Symmetric difference (the oracle's `Bdd::xor`).
    pub fn xor(&self, other: &PacketSet) -> PacketSet {
        PacketSet {
            packets: self
                .packets
                .symmetric_difference(&other.packets)
                .copied()
                .collect(),
        }
    }

    /// Complement relative to the full toy space.
    pub fn not(&self, space: &ToySpace) -> PacketSet {
        PacketSet::from_pred(space, |p| !self.contains(p))
    }

    /// Restrict: packets whose variant with bit `var` forced to `value`
    /// is in the set. This is the enumeration reading of the BDD cofactor
    /// `f[var := value]` — the result no longer depends on `var`.
    pub fn restrict(&self, space: &ToySpace, var: u32, value: bool) -> PacketSet {
        PacketSet::from_pred(space, |p| self.contains(space.with_bit(p, var, value)))
    }

    /// Existential quantification: `∃var. f = f[var:=0] ∨ f[var:=1]`.
    pub fn exists(&self, space: &ToySpace, var: u32) -> PacketSet {
        self.restrict(space, var, false)
            .or(&self.restrict(space, var, true))
    }

    /// Universal quantification: `∀var. f = f[var:=0] ∧ f[var:=1]`.
    pub fn forall(&self, space: &ToySpace, var: u32) -> PacketSet {
        self.restrict(space, var, false)
            .and(&self.restrict(space, var, true))
    }

    /// Fraction of the space the set occupies.
    pub fn probability(&self, space: &ToySpace) -> f64 {
        self.len() as f64 / space.size() as f64
    }

    /// Number of satisfying assignments — for a set over `total_bits`
    /// variables this is simply its cardinality.
    pub fn sat_count(&self) -> u128 {
        self.len() as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algebra_on_literals() {
        let s = ToySpace::default();
        let a = PacketSet::literal(&s, 0, true);
        let b = PacketSet::literal(&s, 1, true);
        assert_eq!(a.len() as u32, s.size() / 2);
        assert_eq!(a.and(&b).len() as u32, s.size() / 4);
        assert_eq!(a.or(&b).len() as u32, 3 * s.size() / 4);
        assert_eq!(a.xor(&b).len() as u32, s.size() / 2);
        assert_eq!(a.diff(&b).len() as u32, s.size() / 4);
        assert_eq!(a.not(&s).len() as u32, s.size() / 2);
        assert!(a.and(&a.not(&s)).is_empty());
    }

    #[test]
    fn quantifiers_on_a_conjunction() {
        let s = ToySpace::default();
        // f = bit0 ∧ bit1
        let f = PacketSet::literal(&s, 0, true).and(&PacketSet::literal(&s, 1, true));
        // ∃bit0. f = bit1; ∀bit0. f = ∅
        assert_eq!(f.exists(&s, 0), PacketSet::literal(&s, 1, true));
        assert!(f.forall(&s, 0).is_empty());
        // restrict to bit0=1 leaves bit1; to bit0=0 leaves nothing.
        assert_eq!(f.restrict(&s, 0, true), PacketSet::literal(&s, 1, true));
        assert!(f.restrict(&s, 0, false).is_empty());
    }

    #[test]
    fn restricted_set_is_independent_of_var() {
        let s = ToySpace::default();
        let f = PacketSet::from_pred(&s, |p| s.dst(p) % 3 == 0 && s.bit(p, 5));
        let r = f.restrict(&s, 5, true);
        for p in r.iter() {
            assert!(r.contains(s.with_bit(p, 5, false)));
            assert!(r.contains(s.with_bit(p, 5, true)));
        }
    }

    #[test]
    fn probability_and_sat_count_agree() {
        let s = ToySpace::default();
        let f = PacketSet::from_pred(&s, |p| s.proto(p) == 1);
        assert_eq!(f.probability(&s), 0.25);
        assert_eq!(f.sat_count(), (s.size() / 4) as u128);
    }
}
