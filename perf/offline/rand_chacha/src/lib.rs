//! Offline stand-in for `rand_chacha` 0.3: the ChaCha stream cipher as a
//! seedable generator (`ChaCha8Rng`, `ChaCha12Rng`, `ChaCha20Rng`). See
//! `perf/README.md` for why it exists.
//!
//! The block function, the key/counter layout (256-bit key, 64-bit block
//! counter, 64-bit stream id of zero) and the word order follow the
//! published crate, so `next_u32` yields the same stream for the same seed.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;

#[derive(Clone, PartialEq, Eq)]
struct ChaCha<const ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    block: [u32; BLOCK_WORDS],
    /// Next unread word of `block`; `BLOCK_WORDS` means "generate first".
    index: usize,
}

fn quarter_round(s: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl<const ROUNDS: usize> ChaCha<ROUNDS> {
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        ChaCha {
            key,
            counter: 0,
            block: [0; BLOCK_WORDS],
            index: BLOCK_WORDS,
        }
    }

    fn refill(&mut self) {
        let mut state = [0u32; BLOCK_WORDS];
        // "expand 32-byte k"
        state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        let input = state;
        for _ in 0..ROUNDS / 2 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, start) in state.iter_mut().zip(input) {
            *word = word.wrapping_add(start);
        }
        self.block = state;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    fn next_word(&mut self) -> u32 {
        if self.index == BLOCK_WORDS {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }
}

macro_rules! chacha_rng {
    ($(#[$doc:meta])* $name:ident, $rounds:literal) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq)]
        pub struct $name(ChaCha<$rounds>);

        impl std::fmt::Debug for $name {
            /// Never prints the key or the stream position.
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }

        impl SeedableRng for $name {
            type Seed = [u8; 32];
            fn from_seed(seed: [u8; 32]) -> Self {
                $name(ChaCha::from_seed(seed))
            }
        }

        impl RngCore for $name {
            fn next_u32(&mut self) -> u32 {
                self.0.next_word()
            }
            fn next_u64(&mut self) -> u64 {
                let low = u64::from(self.0.next_word());
                let high = u64::from(self.0.next_word());
                (high << 32) | low
            }
        }
    };
}

chacha_rng!(
    /// ChaCha with 8 rounds.
    ChaCha8Rng,
    8
);
chacha_rng!(
    /// ChaCha with 12 rounds.
    ChaCha12Rng,
    12
);
chacha_rng!(
    /// ChaCha with 20 rounds.
    ChaCha20Rng,
    20
);

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.3.2 fixes the ChaCha20 block function; with an all-zero
    /// key and counter the first keystream words are well known.
    #[test]
    fn chacha20_zero_key_matches_the_reference_keystream() {
        let mut rng = ChaCha20Rng::from_seed([0; 32]);
        assert_eq!(rng.next_u32(), 0xade0_b876);
        assert_eq!(rng.next_u32(), 0x903d_f1a0);
        assert_eq!(rng.next_u32(), 0xe56a_5d40);
    }

    #[test]
    fn same_seed_same_stream_and_clone_resumes() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let first: Vec<u64> = (0..40).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..40).map(|_| b.next_u64()).collect();
        assert_eq!(first, second);
        let mut c = a.clone();
        assert_eq!(a.next_u64(), c.next_u64());
        assert_ne!(ChaCha8Rng::seed_from_u64(8).next_u64(), first[0]);
    }
}
