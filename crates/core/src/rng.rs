//! Deterministic seed derivation — the workspace's one splitmix64.
//!
//! Several subsystems need reproducible, order-independent pseudo-random
//! streams: Pingmesh derives one RNG seed per ToR pair so concrete
//! sampling is chunking-invariant (PR 2), the mutation engine derives one
//! seed per mutant so operator parameters are a function of the mutant
//! alone, and the `netbdd_micro` workload generator synthesizes rules
//! from a fixed seed. All of them bottom out in the two functions here,
//! so the constants live in exactly one place.
//!
//! The algorithm is splitmix64 (Steele, Lea, Flood — public domain): a
//! 64-bit Weyl sequence step followed by a bijective finalizer. It is not
//! cryptographic; it is a *mixer*, chosen because every output bit
//! depends on every input bit, which is what makes per-key derived seeds
//! ([`seed_mix`]) statistically independent even for adjacent keys.

/// Advance a splitmix64 generator and return the next value.
///
/// `state` is the generator's whole state; seeding it is just assigning
/// the seed. The sequence for a fixed starting state is stable across
/// platforms and releases — benchmark workloads and committed baselines
/// depend on that.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent seed from a base seed and a per-unit key.
///
/// This is the splitmix64 finalizer applied to `seed ^ (key · γ)`: a pure
/// function of `(seed, key)`, so work units (ToR pairs, mutants) can be
/// executed in any order — or sharded across any number of threads — and
/// still see bit-identical pseudo-random choices. The exact bit pattern
/// is load-bearing: Pingmesh pair seeds recorded in committed baselines
/// were produced by this function.
pub fn seed_mix(seed: u64, key: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs for seed 0 from the public-domain
        // implementation (Vigna's splitmix64.c).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn seed_mix_is_pure_and_key_sensitive() {
        assert_eq!(seed_mix(7, 42), seed_mix(7, 42));
        assert_ne!(seed_mix(7, 42), seed_mix(7, 43));
        assert_ne!(seed_mix(7, 42), seed_mix(8, 42));
        // Adjacent keys decorrelate: no shared high bits.
        let a = seed_mix(0xC0FFEE, 1);
        let b = seed_mix(0xC0FFEE, 2);
        assert!((a ^ b).count_ones() > 16);
    }
}
