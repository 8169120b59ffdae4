//! Hardware SHA-256 via `std::arch::x86_64` — the `ShaBackend::ShaNi` engine.
//!
//! Compiled only with the `aesni` cargo feature on x86-64 (the one feature
//! that opts the crate into CPU intrinsics), and selected only after
//! runtime detection of `sha`, `ssse3` and `sse4.1`. The engine is a
//! drop-in for the portable compression function in [`crate::sha256`]:
//! same state words in, same state words out, pinned bit-identical by the
//! differential oracle in `tests/sha256_backend_oracle.rs`.
//!
//! The instructions work on a transposed state: `SHA256RNDS2` wants the
//! eight working variables split as `ABEF` / `CDGH`, so the state is
//! shuffled into that form once per [`compress_blocks`] call, kept in
//! registers across every block of the run (a whole 4 KiB page is 64
//! blocks), and shuffled back once at the end. Each group of four rounds
//! is two `SHA256RNDS2` on `W + K`; the message schedule for the next
//! groups is `SHA256MSG1` → add `W[t-7]` → `SHA256MSG2`.
//!
//! Like `aes_ni`, this module may use `unsafe` (the crate root forbids it
//! unless the feature is on): the intrinsics require it, and every call is
//! guarded by the construction-time CPU detection.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use crate::sha256::K;

/// Whether the host CPU exposes the SHA extensions and the SSSE3/SSE4.1
/// shuffles the state transposition needs.
pub(crate) fn available() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Runs the compression function over every 64-byte block of `blocks`,
/// updating `state` in place.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    debug_assert!(available(), "ShaNi selected without CPU support");
    // SAFETY: `ShaBackend::ShaNi` is only ever stored in a hasher after
    // `ShaBackend::available()` — i.e. `available()` above — returned true,
    // so the `sha`/`ssse3`/`sse4.1` target features are present.
    #[allow(unsafe_code)]
    unsafe {
        compress_impl(state, blocks)
    }
}

/// The register-resident compression loop.
///
/// # Safety
///
/// Caller must ensure the `sha`, `ssse3` and `sse4.1` target features are
/// present at runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_impl(state: &mut [u32; 8], blocks: &[u8]) {
    // Big-endian word loads: byte-reverse each 32-bit lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let sp = state.as_mut_ptr().cast::<__m128i>();
    // SAFETY: `state` is 32 bytes; the two unaligned loads cover it exactly.
    let (dcba, hgfe) = unsafe { (_mm_loadu_si128(sp), _mm_loadu_si128(sp.add(1))) };
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    // Four rounds on message vector `$w` (words 4g..4g+3) with `K[4g..]`.
    macro_rules! quad {
        ($g:expr, $w:expr) => {{
            // SAFETY: `$g < 16`, so the 16-byte load stays inside `K`.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $g).cast::<__m128i>()) };
            let wk = _mm_add_epi32($w, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }
    // Replaces `$w0` (words t-16..t-13) with words t..t+3.
    macro_rules! schedule {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            $w0 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            );
        };
    }

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let bp = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is exactly 64 bytes: four unaligned 16-byte loads.
        let (mut w0, mut w1, mut w2, mut w3) = unsafe {
            (
                _mm_shuffle_epi8(_mm_loadu_si128(bp), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(bp.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(bp.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(bp.add(3)), bswap),
            )
        };
        quad!(0, w0);
        quad!(1, w1);
        quad!(2, w2);
        quad!(3, w3);
        for g in [4, 8, 12] {
            schedule!(w0, w1, w2, w3);
            quad!(g, w0);
            schedule!(w1, w2, w3, w0);
            quad!(g + 1, w1);
            schedule!(w2, w3, w0, w1);
            quad!(g + 2, w2);
            schedule!(w3, w0, w1, w2);
            quad!(g + 3, w3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above — 32 bytes, two unaligned stores.
    unsafe {
        _mm_storeu_si128(sp, dcba);
        _mm_storeu_si128(sp.add(1), hgfe);
    }
}
