//! The workspace's one integrity function.
//!
//! Checkpoint images, checkpoint deltas, reliable-delivery message seals
//! and the barrier-time segment audit all seal bytes with [`checksum64`].
//! Seals are computed and verified inside one process and never stored or
//! sent anywhere else, so the function is free to change between builds.

/// Odd (in fact prime) multiplier of every mixing step.
const PRIME: u64 = 0x9E37_79B1_85EB_CA87;

/// Distinct lane seeds, so runs of equal words still evolve the lanes
/// differently.
const SEEDS: [u64; 4] = [
    0xcbf2_9ce4_8422_2325,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];

/// One mixing step: fold `word` into the running seal `h`.
///
/// Xor, multiplication by an odd constant and rotation are each
/// bijections of a 64-bit word, so for a fixed `h` two different `word`s
/// give different results, and for a fixed `word` two different `h`s do.
/// Used on its own to seal a few header words on top of a payload seal.
#[inline]
pub fn fold64(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME).rotate_left(31)
}

/// 64-bit seal of `bytes`, one pass, eight bytes per step.
///
/// Four independent lanes walk the input in 32-byte blocks (lane `i`
/// takes the block's `i`-th little-endian word through [`fold64`]); the
/// lanes are then folded into one word, the up-to-31 tail bytes are
/// folded in one at a time, and the length goes in last.
///
/// Guarantee: every step is a bijection of the running state, so a change
/// confined to one 8-byte word (or one tail byte) of an input of unchanged
/// length **always** changes the result — in particular every single-bit
/// flip is detected, as by a byte-serial hash. Anything wider is detected
/// with probability about 1 − 2⁻⁶⁴. Not a cryptographic hash.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = fold64(*lane, word);
        }
    }
    let mut h = lanes[1..].iter().fold(lanes[0], |h, &lane| fold64(h, lane));
    for &b in blocks.remainder() {
        h = fold64(h, b as u64);
    }
    fold64(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn every_single_bit_flip_at_every_position_changes_the_seal() {
        // 0..=130 covers: empty, tail only, exactly one/four blocks, and
        // blocks followed by every tail length.
        for n in 0..=130usize {
            let clean = input(n);
            let seal = checksum64(&clean);
            for pos in 0..n {
                for bit in 0..8 {
                    let mut bad = clean.clone();
                    bad[pos] ^= 1 << bit;
                    assert_ne!(checksum64(&bad), seal, "len {n} byte {pos} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_seal() {
        for n in 0..=130usize {
            // both an input ending in data and one that is all zeros
            for base in [input(n), vec![0u8; n]] {
                let seal = checksum64(&base);
                let mut longer = base.clone();
                for extra in 1..=40 {
                    longer.push(0);
                    assert_ne!(checksum64(&longer), seal, "len {n} + {extra} zero bytes");
                }
                if n > 0 {
                    assert_ne!(checksum64(&base[..n - 1]), seal, "len {n} - 1");
                }
            }
        }
    }

    #[test]
    fn fold_is_injective_in_each_argument() {
        let h = checksum64(b"payload");
        assert_ne!(fold64(h, 1), fold64(h, 2));
        assert_ne!(fold64(h, 7), fold64(h ^ 1, 7));
        // order matters: (a, b) and (b, a) seal differently
        assert_ne!(fold64(fold64(h, 1), 2), fold64(fold64(h, 2), 1));
    }

    #[test]
    fn lanes_are_not_interchangeable() {
        // the same word moved to another lane of the block is a different input
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        a[0] = 0x5A;
        b[8] = 0x5A;
        assert_ne!(checksum64(&a), checksum64(&b));
    }
}
