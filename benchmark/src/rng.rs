//! Seeded input generation: SplitMix64 plus Fisher–Yates.
//!
//! The benchmark owns its stream, although `compat/rand` has a seeded
//! generator: the inputs of a seed must stay the same from one revision of
//! the repository to the next, or a change to `compat/rand` would change
//! the workloads it is measured on. The program under test receives only
//! the generated vectors.

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// the sizes used here, and the same on every host.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A uniformly shuffled `0..n`.
pub fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_permutation_other_seed_differs() {
        let a = permutation(&mut SplitMix64::new(7), 1000);
        let b = permutation(&mut SplitMix64::new(7), 1000);
        let c = permutation(&mut SplitMix64::new(8), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
    }
}
