//! ChaCha12 keyed PRNG, bit-compatible with `rand_chacha 0.3`'s
//! `ChaCha12Rng` (which is `rand 0.8`'s `StdRng`).
//!
//! Layout notes that matter for compatibility:
//!
//! * The state is the standard ChaCha matrix: 4 constant words, 8 key
//!   words (the seed, little-endian), a 64-bit block counter in words
//!   12–13 and a 64-bit stream id in words 14–15 (zero for `from_seed`).
//! * The output is blocks `0, 1, 2, …` read as one word stream, consumed
//!   by a verbatim port of `rand_core 0.6`'s `BlockRng`: `next_u32` takes
//!   the next word, `next_u64` the next two, low half first. At the end of
//!   a buffer `next_u64` takes its low half from the buffer's last word
//!   and its high half from the first word of the next buffer, which are
//!   again the next two words of the stream. So the buffer length never
//!   shows in the output: `rand_chacha` refills four blocks (64 words),
//!   this shim refills eight (128 words, blocks `c..c+8` block-major), and
//!   both hand out the same words in the same order.
//! * On x86_64 with AVX2 a refill computes the eight blocks at once: lane
//!   `l` of state vector `i` is word `i` of block `c + l`, each lane with
//!   its own 64-bit counter, and the result is transposed into
//!   block-major order. Elsewhere the scalar `chacha_block` computes
//!   them one at a time; it is also the oracle the lane-parallel refill is
//!   tested against.

use crate::{RngCore, SeedableRng};

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
const ROUNDS: usize = 12;
/// Blocks per refill: one per 32-bit lane of a 256-bit vector.
const BLOCKS: usize = 8;
const BUF_WORDS: usize = BLOCKS * 16;

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One ChaCha block: input state -> 16 output words (input + permuted).
fn chacha_block(input: &[u32; 16], rounds: usize) -> [u32; 16] {
    let mut x = *input;
    debug_assert!(rounds.is_multiple_of(2));
    for _ in 0..rounds / 2 {
        // Column round.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    let mut out = [0u32; 16];
    for i in 0..16 {
        out[i] = x[i].wrapping_add(input[i]);
    }
    out
}

/// The input state of block `counter`.
fn block_input(key: &[u32; 8], stream: u64, counter: u64) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    state[14] = stream as u32;
    state[15] = (stream >> 32) as u32;
    state
}

/// Fills `buf` with blocks `counter..counter + BLOCKS`, one at a time: the
/// refill without AVX2, and the oracle of the lane-parallel one.
fn refill_scalar(key: &[u32; 8], stream: u64, counter: u64, buf: &mut [u32; BUF_WORDS]) {
    for (block, out) in (0u64..).zip(buf.chunks_exact_mut(16)) {
        let input = block_input(key, stream, counter.wrapping_add(block));
        out.copy_from_slice(&chacha_block(&input, ROUNDS));
    }
}

/// Fills `buf` with blocks `counter..counter + BLOCKS`, all eight at once
/// when the CPU has AVX2.
fn refill(key: &[u32; 8], stream: u64, counter: u64, buf: &mut [u32; BUF_WORDS]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU has AVX2, the only feature the kernel enables.
        unsafe { avx2::refill(key, stream, counter, buf) };
        return;
    }
    refill_scalar(key, stream, counter, buf);
}

/// The eight-lane refill: state vector `i` holds word `i` of all eight
/// blocks, lane `l` being block `counter + l`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BUF_WORDS, CONSTANTS, ROUNDS};
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl16(v: __m256i) -> __m256i {
        // Each word's bytes [b0 b1 b2 b3] become [b2 b3 b0 b1]; the byte
        // shuffle works within each 128-bit half.
        let bytes = _mm_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
        _mm256_shuffle_epi8(v, _mm256_broadcastsi128_si256(bytes))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl8(v: __m256i) -> __m256i {
        // Each word's bytes [b0 b1 b2 b3] become [b3 b0 b1 b2].
        let bytes = _mm_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
        _mm256_shuffle_epi8(v, _mm256_broadcastsi128_si256(bytes))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl12(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<12>(v), _mm256_srli_epi32::<20>(v))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl7(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<7>(v), _mm256_srli_epi32::<25>(v))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotl16(_mm256_xor_si256(x[d], x[a]));
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl12(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotl8(_mm256_xor_si256(x[d], x[a]));
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl7(_mm256_xor_si256(x[b], x[c]));
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn from_lanes(w: [u32; 8]) -> __m256i {
        let w = w.map(|w| w as i32);
        _mm256_setr_epi32(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
    }

    /// An 8×8 transpose of 32-bit words: row `i` of the input, lane `l`
    /// becomes row `l`, lane `i` of the output.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(r: [__m256i; 8]) -> [__m256i; 8] {
        // Pairs of rows interleaved word by word, per 128-bit half.
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        // Lanes `l` and `l + 4` of rows 0..4 (u0..u3) and rows 4..8 (u4..u7).
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        // Low 128-bit halves give lanes 0..4, high halves lanes 4..8.
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// Fills `buf` with blocks `counter..counter + 8`, as `refill_scalar`.
    ///
    /// # Safety
    ///
    /// Outside AVX2 code a call needs `unsafe`: the CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn refill(key: &[u32; 8], stream: u64, counter: u64, buf: &mut [u32; BUF_WORDS]) {
        let lanes: [u64; 8] = core::array::from_fn(|l| counter.wrapping_add(l as u64));
        let mut input = [_mm256_setzero_si256(); 16];
        for (v, &w) in input.iter_mut().zip(CONSTANTS.iter().chain(key)) {
            *v = _mm256_set1_epi32(w as i32);
        }
        input[12] = from_lanes(lanes.map(|c| c as u32));
        input[13] = from_lanes(lanes.map(|c| (c >> 32) as u32));
        input[14] = _mm256_set1_epi32(stream as i32);
        input[15] = _mm256_set1_epi32((stream >> 32) as i32);

        let mut x = input;
        for _ in 0..ROUNDS / 2 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (v, i) in x.iter_mut().zip(input) {
            *v = _mm256_add_epi32(*v, i);
        }

        // Words 0..8, then 8..16, of each block.
        for half in 0..2 {
            let words: [__m256i; 8] = core::array::from_fn(|i| x[half * 8 + i]);
            for (block, row) in transpose(words).into_iter().enumerate() {
                let out = &mut buf[block * 16 + half * 8..][..8];
                // SAFETY: `out` is 8 words (32 bytes) of `buf`, and the
                // store has no alignment requirement.
                unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), row) };
            }
        }
    }
}

/// `rand 0.8`'s `StdRng`: ChaCha12 behind a `BlockRng`-equivalent buffer.
#[derive(Clone, Debug)]
pub struct StdRng {
    key: [u32; 8],
    stream: u64,
    /// Counter of the *next* block batch to generate.
    counter: u64,
    buf: [u32; BUF_WORDS],
    /// Next unconsumed word in `buf`; `BUF_WORDS` means "refill needed".
    index: usize,
}

impl StdRng {
    fn generate(&mut self) {
        refill(&self.key, self.stream, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
    }

    fn generate_and_set(&mut self, index: usize) {
        self.generate();
        self.index = index;
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> StdRng {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        StdRng {
            key,
            stream: 0,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.generate_and_set(0);
        }
        let value = self.buf[self.index];
        self.index += 1;
        value
    }

    fn next_u64(&mut self) -> u64 {
        // Verbatim port of rand_core 0.6 BlockRng::next_u64.
        let read_u64 = |buf: &[u32; BUF_WORDS], index: usize| {
            (u64::from(buf[index + 1]) << 32) | u64::from(buf[index])
        };
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            read_u64(&self.buf, index)
        } else if index >= BUF_WORDS {
            self.generate_and_set(2);
            read_u64(&self.buf, 0)
        } else {
            // Straddle: high half comes from the next buffer.
            let x = u64::from(self.buf[BUF_WORDS - 1]);
            self.generate_and_set(1);
            let y = u64::from(self.buf[0]);
            (y << 32) | x
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        // Byte-level fill (rand's fill_via_u32_chunks). Not on the hot
        // path; word-aligned consumption keeps the stream compatible.
        let mut filled = 0;
        while filled < dest.len() {
            let word = self.next_u32().to_le_bytes();
            let n = (dest.len() - filled).min(4);
            dest[filled..filled + n].copy_from_slice(&word[..n]);
            filled += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.1.1 quarter-round test vector.
    #[test]
    fn rfc8439_quarter_round() {
        let mut state = [0u32; 16];
        state[0] = 0x11111111;
        state[1] = 0x01020304;
        state[2] = 0x9b8d6f43;
        state[3] = 0x01234567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a92f4);
        assert_eq!(state[1], 0xcb1cf8ce);
        assert_eq!(state[2], 0x4581472e);
        assert_eq!(state[3], 0x5881c4bb);
    }

    /// RFC 8439 §2.3.2: full 20-round block function test vector. The
    /// round/permutation machinery is shared with the 12-round variant, so
    /// this pins the core.
    #[test]
    fn rfc8439_block_function() {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        // Key 00 01 02 ... 1f, little-endian words.
        for i in 0..8u32 {
            let b = 4 * i;
            state[4 + i as usize] =
                u32::from_le_bytes([b as u8, (b + 1) as u8, (b + 2) as u8, (b + 3) as u8]);
        }
        state[12] = 1; // block counter
        state[13] = 0x09000000; // nonce 00 00 00 09
        state[14] = 0x4a000000; // nonce 00 00 00 4a
        state[15] = 0x00000000;
        let out = chacha_block(&state, 20);
        let expected: [u32; 16] = [
            0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033, 0x9aaa2204,
            0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9, 0xd19c12b5, 0xb94e16de,
            0xe883d0cb, 0x4e3c50a2,
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(123);
        let mut b = StdRng::seed_from_u64(123);
        let mut c = StdRng::seed_from_u64(124);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    /// FNV-1a-64 over the little-endian bytes of the first `words` words
    /// of `seed_from_u64(seed)`.
    fn stream_digest(seed: u64, words: usize) -> u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..words {
            for byte in rng.next_u32().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The first 2^20 words of two seeds, pinned to the digests of the
    /// one-block-at-a-time scalar refill: any change to the stream fails
    /// here, not only in the golden files.
    #[test]
    fn first_mebiword_of_seeds_12800_and_0_is_pinned() {
        assert_eq!(stream_digest(12800, 1 << 20), 0x3b38_f87f_3a64_25be);
        assert_eq!(stream_digest(0, 1 << 20), 0x67d9_c26b_ca97_bf71);
    }

    #[test]
    fn u64_straddles_buffer_boundary() {
        // Consume all but the last word, then a u64 must take the last word
        // as the low half and the first word of the fresh buffer as the
        // high half.
        let mut rng = StdRng::seed_from_u64(9);
        let mut words = Vec::new();
        let mut probe = StdRng::seed_from_u64(9);
        for _ in 0..(2 * BUF_WORDS) {
            words.push(probe.next_u32());
        }
        for _ in 0..BUF_WORDS - 1 {
            rng.next_u32();
        }
        let straddled = rng.next_u64();
        assert_eq!(
            straddled,
            (u64::from(words[BUF_WORDS]) << 32) | u64::from(words[BUF_WORDS - 1])
        );
        // And the next u32 continues at word index 1 of the new buffer.
        assert_eq!(rng.next_u32(), words[BUF_WORDS + 1]);
    }
}

/// The lane-parallel refill held to the scalar one, word for word.
#[cfg(test)]
mod lane_oracle {
    use super::*;
    use proptest::prelude::*;

    /// Random counters, and counters within 8 blocks of a carry into the
    /// high word (`hi << 32`) or of the `u64` wrap (`hi == 0`).
    fn counter() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            (any::<u32>(), 0u64..16)
                .prop_map(|(hi, off)| (u64::from(hi) << 32).wrapping_sub(8).wrapping_add(off)),
            (0u64..16).prop_map(|off| 0u64.wrapping_sub(8).wrapping_add(off)),
        ]
    }

    fn key() -> impl Strategy<Value = [u32; 8]> {
        proptest::collection::vec(any::<u32>(), 8).prop_map(|k| k.try_into().unwrap())
    }

    /// `words` words of the stream from block `counter` on, one block at a
    /// time through the scalar block function.
    fn scalar_words(key: &[u32; 8], stream: u64, counter: u64, words: usize) -> Vec<u32> {
        (0u64..)
            .flat_map(|b| chacha_block(&block_input(key, stream, counter.wrapping_add(b)), ROUNDS))
            .take(words)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One refill (on AVX2 hosts, the eight-lane kernel) equals the
        /// scalar refill of the same eight blocks.
        #[test]
        fn refill_matches_scalar(key in key(), stream in any::<u64>(), counter in counter()) {
            let mut fast = [0u32; BUF_WORDS];
            let mut slow = [0u32; BUF_WORDS];
            refill(&key, stream, counter, &mut fast);
            refill_scalar(&key, stream, counter, &mut slow);
            prop_assert_eq!(fast.to_vec(), slow.to_vec());
        }

        /// Mixed `next_u32`/`next_u64`/`fill_bytes` draws, after a skip
        /// that puts them anywhere against the 64- and 128-word marks, read
        /// the scalar blocks as one contiguous word stream.
        #[test]
        fn mixed_draws_read_one_contiguous_stream(
            key in key(),
            stream in any::<u64>(),
            counter in counter(),
            skip in 0usize..=140,
            ops in proptest::collection::vec((0u8..3, 1usize..=20), 1..=120),
        ) {
            let mut rng = StdRng { key, stream, counter, buf: [0; BUF_WORDS], index: BUF_WORDS };
            let words = scalar_words(&key, stream, counter, skip + 5 * ops.len() + 2);
            for &word in &words[..skip] {
                prop_assert_eq!(rng.next_u32(), word);
            }
            let mut at = skip;
            for &(op, len) in &ops {
                match op {
                    0 => {
                        prop_assert_eq!(rng.next_u32(), words[at]);
                        at += 1;
                    }
                    1 => {
                        let want = u64::from(words[at]) | (u64::from(words[at + 1]) << 32);
                        prop_assert_eq!(rng.next_u64(), want, "u64 at word {}", at);
                        at += 2;
                    }
                    _ => {
                        let mut got = vec![0u8; len];
                        rng.fill_bytes(&mut got);
                        let used = len.div_ceil(4);
                        let want: Vec<u8> =
                            words[at..at + used].iter().flat_map(|w| w.to_le_bytes()).collect();
                        prop_assert_eq!(&got[..], &want[..len]);
                        at += used;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod isolation_tests {
    use super::*;

    #[test]
    fn chacha20_zero_seed_first_block() {
        // rand_chacha 0.3 test_chacha_true_values_a (IETF draft vectors):
        // ChaCha20Rng::from_seed([0;32]) first 16 next_u32 values.
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        let out = chacha_block(&state, 20);
        let expected: [u32; 16] = [
            0xade0b876, 0x903df1a0, 0xe56a5d40, 0x28bd8653, 0xb819d2bd, 0x1aed8da0, 0xccef36a8,
            0xc70d778b, 0x7c5941da, 0x8d485751, 0x3fe02477, 0x374ad8b8, 0xf4b8436a, 0x1ca11815,
            0x69b687c3, 0x8665eeb2,
        ];
        assert_eq!(out, expected);
    }
}
