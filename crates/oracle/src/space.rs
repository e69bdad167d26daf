//! The shrunken header space the oracle enumerates.
//!
//! A toy packet is a dense bit vector packed into a `u32`, laid out
//! MSB-of-field-first exactly like the real header model lays out BDD
//! variables: destination field first (variables `0..dst_bits`), then
//! source (`dst_bits..dst_bits+src_bits`), then protocol. The default
//! space — 8-bit dst, 4-bit src, 2-bit proto — has 2^14 = 16384 packets,
//! small enough that every operation can afford to visit all of them.

/// A concrete toy packet: `total_bits()` meaningful bits packed in a u32.
pub type ToyPacket = u32;

/// Dimensions of the toy header space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ToySpace {
    /// Width of the destination field (the LPM key), in bits.
    pub dst_bits: u32,
    /// Width of the source field, in bits.
    pub src_bits: u32,
    /// Width of the protocol field, in bits.
    pub proto_bits: u32,
}

impl Default for ToySpace {
    fn default() -> Self {
        ToySpace {
            dst_bits: 8,
            src_bits: 4,
            proto_bits: 2,
        }
    }
}

impl ToySpace {
    /// A space with the given field widths (≤ 24 bits total).
    pub fn new(dst_bits: u32, src_bits: u32, proto_bits: u32) -> ToySpace {
        let s = ToySpace {
            dst_bits,
            src_bits,
            proto_bits,
        };
        assert!(
            s.total_bits() <= 24,
            "toy space too wide to enumerate comfortably"
        );
        assert!(
            (1..=8).contains(&dst_bits),
            "dst field must fit in one v4 octet"
        );
        s
    }

    /// Total number of header bits (= BDD variables `0..total_bits`).
    pub fn total_bits(&self) -> u32 {
        self.dst_bits + self.src_bits + self.proto_bits
    }

    /// Number of packets in the space.
    pub fn size(&self) -> u32 {
        1u32 << self.total_bits()
    }

    /// Every packet in the space, ascending.
    pub fn packets(&self) -> impl Iterator<Item = ToyPacket> {
        0..self.size()
    }

    /// Bit `var` of packet `p`, where `var` indexes the packed layout
    /// MSB-first (var 0 is the most significant bit of the dst field).
    pub fn bit(&self, p: ToyPacket, var: u32) -> bool {
        debug_assert!(var < self.total_bits());
        (p >> (self.total_bits() - 1 - var)) & 1 == 1
    }

    /// The packet equal to `p` except bit `var` is forced to `value`.
    pub fn with_bit(&self, p: ToyPacket, var: u32, value: bool) -> ToyPacket {
        let mask = 1u32 << (self.total_bits() - 1 - var);
        if value {
            p | mask
        } else {
            p & !mask
        }
    }

    /// Destination field of `p`.
    pub fn dst(&self, p: ToyPacket) -> u32 {
        p >> (self.src_bits + self.proto_bits)
    }

    /// Source field of `p`.
    pub fn src(&self, p: ToyPacket) -> u32 {
        (p >> self.proto_bits) & ((1 << self.src_bits) - 1)
    }

    /// Protocol field of `p`.
    pub fn proto(&self, p: ToyPacket) -> u32 {
        p & ((1 << self.proto_bits) - 1)
    }

    /// Assemble a packet from field values.
    pub fn pack(&self, dst: u32, src: u32, proto: u32) -> ToyPacket {
        debug_assert!(dst < (1 << self.dst_bits));
        debug_assert!(src < (1 << self.src_bits));
        debug_assert!(proto < (1 << self.proto_bits));
        (dst << (self.src_bits + self.proto_bits)) | (src << self.proto_bits) | proto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_is_14_bits() {
        let s = ToySpace::default();
        assert_eq!(s.total_bits(), 14);
        assert_eq!(s.size(), 16384);
        assert_eq!(s.packets().count(), 16384);
    }

    #[test]
    fn fields_roundtrip_through_pack() {
        let s = ToySpace::default();
        for dst in [0u32, 1, 200, 255] {
            for src in [0u32, 7, 15] {
                for proto in 0..4 {
                    let p = s.pack(dst, src, proto);
                    assert_eq!(s.dst(p), dst);
                    assert_eq!(s.src(p), src);
                    assert_eq!(s.proto(p), proto);
                }
            }
        }
    }

    #[test]
    fn bit_layout_is_msb_first_dst_then_src_then_proto() {
        let s = ToySpace::default();
        let p = s.pack(0b1000_0000, 0, 0);
        assert!(s.bit(p, 0));
        assert!(!s.bit(p, 1));
        let q = s.pack(0, 0b1000, 0);
        assert!(s.bit(q, 8));
        let r = s.pack(0, 0, 0b10);
        assert!(s.bit(r, 12));
    }

    #[test]
    fn with_bit_flips_one_position() {
        let s = ToySpace::default();
        for var in 0..s.total_bits() {
            let p = s.with_bit(0, var, true);
            assert!(s.bit(p, var));
            assert_eq!(s.with_bit(p, var, false), 0);
        }
    }
}
