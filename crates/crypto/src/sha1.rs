//! SHA-1 (FIPS 180-4 §6.1).
//!
//! SHA-1 is deprecated for signatures; implemented here because the study
//! measures certificates still signed with `sha1WithRSAEncryption`.

use crate::digest::{BlockBuffer, Digest};

/// Streaming SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buf: BlockBuffer<64>,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0],
            buf: BlockBuffer::default(),
        }
    }
}

impl Sha1 {
    /// Compress a run of whole 64-byte blocks into `state`.
    fn compress(state: &mut [u32; 5], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        for block in blocks.chunks_exact(64) {
            let mut w = [0u32; 80];
            for (i, word) in w.iter_mut().take(16).enumerate() {
                *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let [mut a, mut b, mut c, mut d, mut e] = *state;
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i / 20 {
                    0 => ((b & c) | (!b & d), 0x5a827999),
                    1 => (b ^ c ^ d, 0x6ed9eba1),
                    2 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
                    _ => (b ^ c ^ d, 0xca62c1d6),
                };
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
            state[0] = state[0].wrapping_add(a);
            state[1] = state[1].wrapping_add(b);
            state[2] = state[2].wrapping_add(c);
            state[3] = state[3].wrapping_add(d);
            state[4] = state[4].wrapping_add(e);
        }
    }
}

impl Digest for Sha1 {
    const OUT: usize = 20;
    const BLOCK: usize = 64;
    type Output = [u8; 20];

    fn update(&mut self, data: &[u8]) {
        self.buf
            .update(data, |blocks| Self::compress(&mut self.state, blocks));
    }

    fn finalize_fixed(mut self) -> [u8; 20] {
        let length = (self.buf.bit_len() as u64).to_be_bytes();
        self.buf
            .finish(&length, |blocks| Self::compress(&mut self.state, blocks));
        let mut out = [0; 20];
        for (bytes, w) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn sha1_hex(data: &[u8]) -> String {
        hex::encode(&Sha1::digest(data))
    }

    /// FIPS 180-4 / NIST CAVS short-message vectors.
    #[test]
    fn nist_vectors() {
        assert_eq!(sha1_hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(sha1_hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            sha1_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        for split in [0usize, 1, 64, 65, 400, 777] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "split={split}");
        }
    }
}
