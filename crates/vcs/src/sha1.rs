//! From-scratch SHA-1 (RFC 3174) used for content addressing.
//!
//! Git addresses objects by SHA-1 of a typed header plus payload; this
//! substrate does the same. SHA-1's cryptographic weakness is irrelevant
//! here — we need a stable, collision-resistant-in-practice content address,
//! exactly as git itself still uses.

use std::fmt;

/// A 160-bit SHA-1 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// Render as 40 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(40);
        for b in self.0 {
            s.push(HEX[usize::from(b >> 4)] as char);
            s.push(HEX[usize::from(b & 15)] as char);
        }
        s
    }

    /// Parse from 40 hex characters.
    pub fn from_hex(hex: &str) -> Option<Digest> {
        if hex.len() != 40 {
            return None;
        }
        let mut out = [0u8; 20];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// Short 8-character prefix, as shown in logs.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Streaming SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    len_bytes: u64,
    buf: [u8; 64],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Sha1 {
    /// A fresh hasher with the RFC 3174 initial state, compressing with
    /// the fastest kernel this CPU supports.
    pub fn new() -> Self {
        Sha1::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len_bytes: 0,
            buf: [0; 64],
            buf_len: 0,
            kernel,
        }
    }

    /// Feed bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len_bytes = self.len_bytes.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            self.kernel.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Every whole block goes to the kernel in one call; only the tail
        // is buffered.
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            self.kernel.compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, then the 8-byte big-endian bit length,
        // which spills into a second block when fewer than 9 bytes of the
        // buffered one are free.
        let mut last = [0u8; 128];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        last[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        last[end - 8..end].copy_from_slice(&self.len_bytes.wrapping_mul(8).to_be_bytes());
        self.kernel.compress(&mut self.state, &last[..end]);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The compression function implementation a hasher runs. Both kernels
/// produce bit-identical digests; [`Kernel::detect`] picks one from CPU
/// features alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Unrolled scalar code; runs everywhere.
    Portable,
    /// The x86-64 SHA extensions (SHA-NI).
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Portable
    }

    /// Compress `blocks` (a whole number of 64-byte blocks) into `state`.
    fn compress(self, state: &mut [u32; 5], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Portable => compress_portable(state, blocks),
            // SAFETY: `ShaNi` is only chosen by `detect` after the CPU
            // reported every feature the kernel is compiled for.
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => unsafe { sha_ni::compress(state, blocks) },
        }
    }
}

#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// Message word `i` of the 80-word schedule, kept in a 16-word ring:
/// words 0..16 are the block itself, later ones overwrite the slot of
/// the word 16 rounds back.
#[inline(always)]
fn word(w: &mut [u32; 16], i: usize) -> u32 {
    if i >= 16 {
        w[i & 15] =
            (w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15]).rotate_left(1);
    }
    w[i & 15]
}

/// One round. Instead of shifting `a..e` down, the callers rotate the
/// variable names: the round's result lands in `e`, which is the next
/// round's `a`.
macro_rules! round {
    ($f:ident, $k:expr, $w:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add($f($b, $c, $d))
            .wrapping_add($k)
            .wrapping_add($w);
        $b = $b.rotate_left(30);
    };
}

/// Five rounds from word `i`, after which every name holds its role again.
macro_rules! rounds5 {
    ($f:ident, $k:expr, $w:ident, $i:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        round!($f, $k, word(&mut $w, $i), $a, $b, $c, $d, $e);
        round!($f, $k, word(&mut $w, $i + 1), $e, $a, $b, $c, $d);
        round!($f, $k, word(&mut $w, $i + 2), $d, $e, $a, $b, $c);
        round!($f, $k, word(&mut $w, $i + 3), $c, $d, $e, $a, $b);
        round!($f, $k, word(&mut $w, $i + 4), $b, $c, $d, $e, $a);
    };
}

/// The portable kernel: all 80 rounds unrolled, with the round function
/// and constant fixed per 20-round stage instead of chosen per round.
fn compress_portable(state: &mut [u32; 5], blocks: &[u8]) {
    const K: [u32; 4] = [0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6];
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        rounds5!(ch, K[0], w, 0, a, b, c, d, e);
        rounds5!(ch, K[0], w, 5, a, b, c, d, e);
        rounds5!(ch, K[0], w, 10, a, b, c, d, e);
        rounds5!(ch, K[0], w, 15, a, b, c, d, e);
        rounds5!(parity, K[1], w, 20, a, b, c, d, e);
        rounds5!(parity, K[1], w, 25, a, b, c, d, e);
        rounds5!(parity, K[1], w, 30, a, b, c, d, e);
        rounds5!(parity, K[1], w, 35, a, b, c, d, e);
        rounds5!(maj, K[2], w, 40, a, b, c, d, e);
        rounds5!(maj, K[2], w, 45, a, b, c, d, e);
        rounds5!(maj, K[2], w, 50, a, b, c, d, e);
        rounds5!(maj, K[2], w, 55, a, b, c, d, e);
        rounds5!(parity, K[3], w, 60, a, b, c, d, e);
        rounds5!(parity, K[3], w, 65, a, b, c, d, e);
        rounds5!(parity, K[3], w, 70, a, b, c, d, e);
        rounds5!(parity, K[3], w, 75, a, b, c, d, e);
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel. `sha1rnds4` runs four rounds on `abcd` (A in the
/// top lane) given the four message words with E already added to the
/// first; `sha1nexte` derives that E from the `abcd` of four rounds
/// earlier. `sha1msg1`/`sha1msg2` extend the schedule four words at a
/// time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::*;

    /// Four rounds with stage function `$f`: `$prev` holds the `abcd` of
    /// four rounds back and receives the new one.
    macro_rules! rounds4 {
        ($cur:ident, $prev:ident, $w:expr, $f:literal) => {
            $prev = _mm_sha1rnds4_epu32($cur, _mm_sha1nexte_epu32($prev, $w), $f);
        };
    }

    /// The next four schedule words from the previous sixteen.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3)
        };
    }

    /// # Safety
    ///
    /// The CPU must support SHA, SSSE3 and SSE4.1 (SSE2 is part of
    /// x86-64). A trailing partial block is ignored, as in the portable
    /// kernel.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 5], blocks: &[u8]) {
        // Reverses all 16 bytes: big-endian words, first word on top.
        let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let mut abcd = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[2] as i32,
            state[3] as i32,
        );
        let mut e = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        for block in blocks.chunks_exact(64) {
            let p = block.as_ptr().cast::<__m128i>();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap);
            // `h0`/`h1` alternate as the current and previous `abcd`.
            let mut h0 = abcd;
            let mut h1 = _mm_sha1rnds4_epu32(h0, _mm_add_epi32(e, w0), 0);
            rounds4!(h1, h0, w1, 0);
            rounds4!(h0, h1, w2, 0);
            rounds4!(h1, h0, w3, 0);
            let mut w4 = schedule!(w0, w1, w2, w3);
            rounds4!(h0, h1, w4, 0);
            w0 = schedule!(w1, w2, w3, w4);
            rounds4!(h1, h0, w0, 1);
            w1 = schedule!(w2, w3, w4, w0);
            rounds4!(h0, h1, w1, 1);
            w2 = schedule!(w3, w4, w0, w1);
            rounds4!(h1, h0, w2, 1);
            w3 = schedule!(w4, w0, w1, w2);
            rounds4!(h0, h1, w3, 1);
            w4 = schedule!(w0, w1, w2, w3);
            rounds4!(h1, h0, w4, 1);
            w0 = schedule!(w1, w2, w3, w4);
            rounds4!(h0, h1, w0, 2);
            w1 = schedule!(w2, w3, w4, w0);
            rounds4!(h1, h0, w1, 2);
            w2 = schedule!(w3, w4, w0, w1);
            rounds4!(h0, h1, w2, 2);
            w3 = schedule!(w4, w0, w1, w2);
            rounds4!(h1, h0, w3, 2);
            w4 = schedule!(w0, w1, w2, w3);
            rounds4!(h0, h1, w4, 2);
            w0 = schedule!(w1, w2, w3, w4);
            rounds4!(h1, h0, w0, 3);
            w1 = schedule!(w2, w3, w4, w0);
            rounds4!(h0, h1, w1, 3);
            w2 = schedule!(w3, w4, w0, w1);
            rounds4!(h1, h0, w2, 3);
            w3 = schedule!(w4, w0, w1, w2);
            rounds4!(h0, h1, w3, 3);
            w4 = schedule!(w0, w1, w2, w3);
            rounds4!(h1, h0, w4, 3);
            // After 20 groups `h0` is the final `abcd` and `h1` the one
            // before it, whose rotated A is the final E.
            abcd = _mm_add_epi32(abcd, h0);
            e = _mm_sha1nexte_epu32(h1, e);
        }
        state[0] = _mm_extract_epi32(abcd, 3) as u32;
        state[1] = _mm_extract_epi32(abcd, 2) as u32;
        state[2] = _mm_extract_epi32(abcd, 1) as u32;
        state[3] = _mm_extract_epi32(abcd, 0) as u32;
        state[4] = _mm_extract_epi32(e, 3) as u32;
    }
}

/// One-shot convenience.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every kernel this CPU runs: the portable reference always, SHA-NI
    /// when the CPU has it.
    fn kernels() -> Vec<Kernel> {
        let mut out = vec![Kernel::Portable];
        if Kernel::detect() != Kernel::Portable {
            out.push(Kernel::detect());
        }
        out
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> String {
        let mut h = Sha1::with_kernel(kernel);
        h.update(data);
        h.finalize().to_hex()
    }

    // Reference vectors from RFC 3174 and FIPS 180-1, through every kernel.
    #[test]
    fn rfc3174_test_vectors() {
        let repeated = b"01234567".repeat(80);
        let vectors: [(&[u8], &str); 4] = [
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (&repeated, "dea356a2cddd90c7a7ecedc5ebb563934f460452"),
        ];
        for kernel in kernels() {
            for (input, expected) in vectors {
                assert_eq!(digest_with(kernel, input), expected, "{kernel:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        for kernel in kernels() {
            let mut h = Sha1::with_kernel(kernel);
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                h.finalize().to_hex(),
                "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn detected_kernel_matches_cpu() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            Kernel::detect() == Kernel::ShaNi,
            std::is_x86_feature_detected!("sha")
                && std::is_x86_feature_detected!("ssse3")
                && std::is_x86_feature_detected!("sse4.1")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(Kernel::detect(), Kernel::Portable);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every kernel, fed any chunking of any input up to 8 KB, gives
        /// the portable kernel's one-shot digest.
        #[test]
        fn kernels_agree_over_lengths_and_chunkings(
            data in prop::collection::vec(any::<u8>(), 0..8192),
            cuts in prop::collection::vec(0usize..8192, 0..12),
        ) {
            let reference = digest_with(Kernel::Portable, &data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            for kernel in kernels() {
                let mut h = Sha1::with_kernel(kernel);
                let mut from = 0;
                for &cut in cuts.iter().chain([data.len()].iter()) {
                    h.update(&data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(h.finalize().to_hex(), reference.clone(), "{:?}", kernel);
            }
            prop_assert_eq!(sha1(&data).to_hex(), reference);
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let one = sha1(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        let mut h = Sha1::new();
        let mut rest = &data[..];
        let sizes = [1usize, 63, 64, 65, 127, 128, 1000];
        let mut i = 0;
        while !rest.is_empty() {
            let n = sizes[i % sizes.len()].min(rest.len());
            h.update(&rest[..n]);
            rest = &rest[n..];
            i += 1;
        }
        assert_eq!(h.finalize(), one);
    }

    #[test]
    fn git_style_blob_address() {
        // `echo -n 'hello' | git hash-object --stdin` = b6fc4c620b67d95f953a5c1c1230aaab5db5a1b0
        let mut h = Sha1::new();
        h.update(b"blob 5\0");
        h.update(b"hello");
        assert_eq!(
            h.finalize().to_hex(),
            "b6fc4c620b67d95f953a5c1c1230aaab5db5a1b0"
        );
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha1(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(40)), None);
    }

    #[test]
    fn short_prefix() {
        let d = sha1(b"abc");
        assert_eq!(d.short(), "a9993e36");
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha1(b"a"), sha1(b"b"));
        assert_ne!(sha1(b""), sha1(b"\0"));
    }
}
