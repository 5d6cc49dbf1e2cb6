//! SHA-256 compression on the x86 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`), the crate's only module with `unsafe`
//! code.
//!
//! [`try_compress_blocks`] is the safe entry point: it checks the CPU at
//! run time and runs the kernel only where every instruction it uses
//! exists. The kernel keeps the state in two registers in the order the
//! round instruction wants, `ABEF` and `CDGH`, across a whole run of
//! blocks read straight from the caller's slice.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use crate::sha256::K;

/// Whether this CPU has every instruction set [`compress_blocks`]
/// enables. The standard library caches the answer after the first call.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compress the whole 64-byte blocks of `blocks` into `state` and
/// return `true`, or return `false` with `state` untouched when the CPU
/// lacks the SHA extensions.
pub(crate) fn try_compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available` has just confirmed that the CPU supports sha,
    // ssse3 and sse4.1, every feature `compress_blocks` enables (sse2 is
    // part of the x86_64 baseline).
    unsafe { compress_blocks(state, blocks) };
    true
}

/// Four rounds: add the round constants `K[4 * $quad..][..4]` to the
/// message words `$w`, then two `sha256rnds2`, each doing two rounds.
/// After the pair, the registers have traded roles: the old `ABEF` is
/// the new `CDGH`.
macro_rules! quad_round {
    ($abef:ident, $cdgh:ident, $w:expr, $quad:expr) => {{
        // SAFETY: `$quad` is below 16, so the four words `K[4 * $quad..]`
        // lie inside `K`'s 64, and the 16-byte unaligned load reads only
        // them.
        let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $quad).cast::<__m128i>()) };
        let wk = _mm_add_epi32($w, k);
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }};
}

/// The next four message-schedule words `W[t..t + 4]` from the sixteen
/// before them, held as `$w0 = W[t - 16..]` up to `$w3 = W[t - 4..]`:
/// `sha256msg1` adds σ0, the byte shift supplies `W[t - 7..]`, and
/// `sha256msg2` adds σ1.
macro_rules! schedule {
    ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
        _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
            $w3,
        )
    };
}

/// Compress every whole 64-byte block of `blocks` into `state` with the
/// SHA extensions; a trailing partial block is ignored.
///
/// # Safety
///
/// The CPU must support the `sha`, `ssse3` and `sse4.1` target
/// features, as [`available`] reports.
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // Reverses the bytes of each 32-bit lane: the message words are
    // big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is eight `u32`s, 32 bytes, so the two unaligned
    // 16-byte loads at byte offsets 0 and 16 stay inside it.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    // Lanes are listed high to low: (D C B A) and (H G F E) become
    // (A B E F) and (C D G H).
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `chunks_exact(64)` yields 64-byte blocks, so the four
        // unaligned 16-byte loads at byte offsets 0, 16, 32 and 48 stay
        // inside `block`.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        w0 = _mm_shuffle_epi8(w0, bswap);
        w1 = _mm_shuffle_epi8(w1, bswap);
        w2 = _mm_shuffle_epi8(w2, bswap);
        w3 = _mm_shuffle_epi8(w3, bswap);
        quad_round!(abef, cdgh, w0, 0);
        quad_round!(abef, cdgh, w1, 1);
        quad_round!(abef, cdgh, w2, 2);
        quad_round!(abef, cdgh, w3, 3);
        // Rounds 16..64 in three passes of four quads; each quad's words
        // replace the oldest of the four held.
        for pass in 1..4 {
            w0 = schedule!(w0, w1, w2, w3);
            quad_round!(abef, cdgh, w0, 4 * pass);
            w1 = schedule!(w1, w2, w3, w0);
            quad_round!(abef, cdgh, w1, 4 * pass + 1);
            w2 = schedule!(w2, w3, w0, w1);
            quad_round!(abef, cdgh, w2, 4 * pass + 2);
            w3 = schedule!(w3, w0, w1, w2);
            quad_round!(abef, cdgh, w3, 4 * pass + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Back from (A B E F) and (C D G H) to (D C B A) and (H G F E).
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above, the two unaligned 16-byte stores
    // at byte offsets 0 and 16 stay inside `state`'s 32 bytes.
    unsafe {
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgfe);
    }
}
