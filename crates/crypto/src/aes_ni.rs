//! Hardware AES via `std::arch::x86_64` — the `AesBackend::AesNi` engine.
//!
//! Compiled only with the `aesni` cargo feature on x86-64, and selected
//! only after runtime detection of `aes` (plus `ssse3`, for the counter
//! byte swap). The round keys come from the one expansion
//! [`crate::aes::KeySchedule`] already did:
//!
//! - encryption feeds the straight schedule to `AESENC`/`AESENCLAST`;
//! - decryption feeds the existing equivalent-inverse-cipher schedule to
//!   `AESDEC`/`AESDECLAST` — the hardware round is exactly
//!   `InvShiftRows → InvSubBytes → InvMixColumns → AddRoundKey`, which is
//!   what the InvMixColumns-transformed inner keys were built for, so the
//!   same `dec` vector the T-table core uses drops straight in. It is
//!   stored here in application order (the untransformed `dec[rounds]`
//!   first as the whitening key, `dec[0]` last in the `AESDECLAST` round),
//!   so one loop serves both directions.
//!
//! Eight blocks are kept in flight per loop iteration: `AESENC` has a
//! multi-cycle latency but pipelines one per cycle, so independent states
//! are what turn ~4 cycles/byte into ~0.3. This mirrors the eight-state
//! interleave of the T-table core and the eight-lane batch of the
//! bitsliced core, so every backend digests the same 128-byte batches.
//!
//! # Fused mode kernels
//!
//! Besides plain ECB batches, the engine runs the two block modes the
//! simulated platform streams through, each over a whole buffer in one
//! call with the round keys loaded once:
//!
//! - **counter mode** ([`NiKeys::ctr_xor`]): counter blocks
//!   `prefix_be ‖ (first + i)_be`, formed in registers — the counter is
//!   kept native-endian in the high 64-bit lane, advanced with a lane add
//!   (so it wraps within the low half of the block, exactly like the
//!   portable counter), and byte-swapped into place with one shuffle;
//! - **XEX** ([`NiKeys::xex_blocks`]): a per-block tweak XORed before and
//!   after the cipher, the tweak supplied by the caller as a
//!   `Fn(address) -> (lo, hi)` so its definition stays in one place
//!   (`modes::PaTweakCipher`).
//!
//! Each kernel has two bodies, picked once per schedule by runtime
//! detection ([`Body`]): a 128-bit body (eight blocks in flight, the
//! AES-NI-only hosts SEV first shipped on) and an AVX-512F + VAES body
//! (four blocks per `zmm`, sixteen in flight). The wide body hands its
//! sub-16-block tail to the 128-bit body. Both are pinned byte-identical
//! to each other and to the T-table engine by this module's tests and by
//! `tests/aes_interleave_oracle.rs`.
//!
//! This is one of two modules in the crate allowed to use `unsafe` (the
//! crate root forbids it unless this feature is on): the intrinsics require
//! it, and every call site is guarded by the construction-time CPU
//! detection.

use std::arch::x86_64::{
    __m128i, __m256i, __m512i, _mm256_broadcastsi128_si256, _mm256_shuffle_epi8, _mm512_add_epi64,
    _mm512_aesdec_epi128, _mm512_aesdeclast_epi128, _mm512_aesenc_epi128, _mm512_aesenclast_epi128,
    _mm512_broadcast_i32x4, _mm512_castsi256_si512, _mm512_castsi512_si256,
    _mm512_extracti64x4_epi64, _mm512_inserti64x4, _mm512_loadu_si512, _mm512_permutex2var_epi64,
    _mm512_set_epi64, _mm512_setzero_si512, _mm512_storeu_si512, _mm512_xor_si512, _mm_add_epi64,
    _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8, _mm_setzero_si128, _mm_shuffle_epi8,
    _mm_storeu_si128, _mm_xor_si128,
};

/// Maximum round keys for any AES key size (AES-256: 14 rounds + 1).
const MAX_RK: usize = 15;

/// Bytes per iteration of the 128-bit body (eight blocks).
const XMM_RUN: usize = 128;

/// Bytes per iteration of the VAES body (four `zmm` of four blocks).
const ZMM_RUN: usize = 256;

/// Whether the host CPU exposes the AES instructions (and the SSSE3
/// shuffle the counter kernel swaps bytes with; every AES-NI part has it).
pub(crate) fn available() -> bool {
    std::arch::is_x86_feature_detected!("aes") && std::arch::is_x86_feature_detected!("ssse3")
}

/// The kernel body a schedule's mode calls run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Body {
    /// 128-bit AES-NI, eight blocks in flight.
    Xmm8,
    /// AVX-512F + VAES, four blocks per `zmm`, sixteen in flight.
    Zmm16,
}

impl Body {
    /// Whether this host can run the body.
    pub(crate) fn available(self) -> bool {
        match self {
            Body::Xmm8 => available(),
            Body::Zmm16 => {
                available()
                    && std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("vaes")
            }
        }
    }

    /// The widest body this host runs.
    fn detect() -> Body {
        if Body::Zmm16.available() {
            Body::Zmm16
        } else {
            Body::Xmm8
        }
    }
}

/// Byte-form round keys for the AES instructions, derived from the already
/// expanded schedule (no re-expansion), plus the kernel body detected for
/// this host.
#[derive(Clone)]
pub(crate) struct NiKeys {
    /// Encryption round keys, in application order.
    enc: Vec<[u8; 16]>,
    /// Equivalent-inverse-cipher round keys, in application order.
    dec: Vec<[u8; 16]>,
    body: Body,
}

impl std::fmt::Debug for NiKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("NiKeys")
            .field("rounds", &(self.enc.len() - 1))
            .field("body", &self.body)
            .finish()
    }
}

impl NiKeys {
    /// Converts the column-word schedules into the 16-byte round keys the
    /// instructions consume. `enc` is the straight schedule, `dec` the
    /// equivalent-inverse-cipher schedule, both as built by
    /// [`crate::aes::KeySchedule`].
    pub(crate) fn from_words(enc: &[[u32; 4]], dec: &[[u32; 4]]) -> Self {
        let to_bytes = |words: &[[u32; 4]]| {
            words
                .iter()
                .map(|w| {
                    let mut rk = [0u8; 16];
                    for (c, word) in w.iter().enumerate() {
                        rk[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
                    }
                    rk
                })
                .collect::<Vec<_>>()
        };
        let enc = to_bytes(enc);
        let mut dec = to_bytes(dec);
        dec.reverse();
        NiKeys { enc, dec, body: Body::detect() }
    }

    /// Encrypts consecutive 16-byte blocks in place.
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [u8]) {
        debug_assert_eq!(blocks.len() % 16, 0);
        debug_assert!(available(), "NiKeys constructed without CPU support");
        // SAFETY: `NiKeys` is only constructed through
        // `KeySchedule::with_backend(_, AesBackend::AesNi)`, which checks
        // `available()` first.
        #[allow(unsafe_code)]
        unsafe {
            ecb_xmm::<false>(&self.enc, blocks)
        }
    }

    /// Decrypts consecutive 16-byte blocks in place.
    pub(crate) fn decrypt_blocks(&self, blocks: &mut [u8]) {
        debug_assert_eq!(blocks.len() % 16, 0);
        debug_assert!(available(), "NiKeys constructed without CPU support");
        // SAFETY: as in `encrypt_blocks` — construction implies detection.
        #[allow(unsafe_code)]
        unsafe {
            ecb_xmm::<true>(&self.dec, blocks)
        }
    }

    /// XORs `data` with the keystream of counter blocks
    /// `prefix_be ‖ (first + i)_be` (the 64-bit counter wraps within the
    /// low half); the final chunk may be short.
    pub(crate) fn ctr_xor(&self, prefix: u64, first: u64, data: &mut [u8]) {
        self.ctr_xor_on(self.body, prefix, first, data);
    }

    /// XEX over whole 16-byte blocks: the block at offset `16 * i` is
    /// whitened before and after the cipher with `tweak(base + 16 * i)`,
    /// whose `(lo, hi)` halves XOR little-endian into bytes `0..8` and
    /// `8..16`. `DECRYPT` picks the direction.
    pub(crate) fn xex_blocks<const DECRYPT: bool>(
        &self,
        base: u64,
        tweak: impl Fn(u64) -> (u64, u64),
        data: &mut [u8],
    ) {
        self.xex_on::<DECRYPT>(self.body, base, &tweak, data);
    }

    /// [`NiKeys::ctr_xor`] on an explicit body. Callers pass `self.body`
    /// (detected at construction) or a body they checked is available.
    fn ctr_xor_on(&self, body: Body, prefix: u64, first: u64, data: &mut [u8]) {
        debug_assert!(body.available(), "kernel body {body:?} not available");
        // SAFETY: `Xmm8` needs `aes`+`ssse3`, which construction checked;
        // `Zmm16` is only ever `self.body` after `Body::detect` found it,
        // or a body the (test) caller checked with `Body::available`.
        #[allow(unsafe_code)]
        unsafe {
            // A buffer shorter than one wide run would only pay the wide
            // key broadcast before its 128-bit tail.
            match body {
                Body::Zmm16 if data.len() >= ZMM_RUN => ctr_zmm(&self.enc, prefix, first, data),
                _ => ctr_xmm(&self.enc, prefix, first, data),
            }
        }
    }

    /// [`NiKeys::xex_blocks`] on an explicit body; see
    /// [`NiKeys::ctr_xor_on`].
    fn xex_on<const DECRYPT: bool>(
        &self,
        body: Body,
        base: u64,
        tweak: &impl Fn(u64) -> (u64, u64),
        data: &mut [u8],
    ) {
        debug_assert_eq!(data.len() % 16, 0);
        debug_assert!(body.available(), "kernel body {body:?} not available");
        let keys = if DECRYPT { &self.dec } else { &self.enc };
        // SAFETY: the bodies as in `ctr_xor_on`; whole blocks are asserted
        // by `KeySchedule::xex_blocks`, the only production caller.
        #[allow(unsafe_code)]
        unsafe {
            match body {
                Body::Zmm16 if data.len() >= ZMM_RUN => {
                    xex_zmm::<DECRYPT, _>(keys, base, tweak, data)
                }
                _ => xex_xmm::<DECRYPT, _>(keys, base, tweak, data),
            }
        }
    }
}

/// Loads the round keys into registers once per batch call.
///
/// # Safety
///
/// Caller must ensure the `aes` (and implied `sse2`) target features are
/// present at runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "aes")]
unsafe fn load_keys(keys: &[[u8; 16]]) -> ([__m128i; MAX_RK], usize) {
    let mut rk = [_mm_setzero_si128(); MAX_RK];
    for (dst, src) in rk.iter_mut().zip(keys.iter()) {
        *dst = _mm_loadu_si128(src.as_ptr().cast::<__m128i>());
    }
    (rk, keys.len() - 1)
}

/// [`load_keys`], each key broadcast to all four lanes of a `zmm`.
///
/// # Safety
///
/// Caller must ensure the `avx512f` target feature is present at runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "aes,avx512f")]
unsafe fn load_keys_zmm(keys: &[[u8; 16]]) -> ([__m512i; MAX_RK], usize) {
    let mut rk = [_mm512_setzero_si512(); MAX_RK];
    for (dst, src) in rk.iter_mut().zip(keys.iter()) {
        *dst = _mm512_broadcast_i32x4(_mm_loadu_si128(src.as_ptr().cast::<__m128i>()));
    }
    (rk, keys.len() - 1)
}

/// One block through every round. `rk` is in application order: whitening
/// key first, last-round key at `rk[rounds]`.
///
/// # Safety
///
/// Caller must ensure the `aes` target feature is present at runtime.
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "aes")]
unsafe fn cipher1<const DECRYPT: bool>(
    rk: &[__m128i; MAX_RK],
    rounds: usize,
    s: __m128i,
) -> __m128i {
    let mut s = _mm_xor_si128(s, rk[0]);
    for &k in &rk[1..rounds] {
        s = if DECRYPT { _mm_aesdec_si128(s, k) } else { _mm_aesenc_si128(s, k) };
    }
    if DECRYPT {
        _mm_aesdeclast_si128(s, rk[rounds])
    } else {
        _mm_aesenclast_si128(s, rk[rounds])
    }
}

/// Eight independent states through every round; the states arrive
/// already whitened with `rk[0]`.
///
/// # Safety
///
/// As for [`cipher1`].
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "aes")]
unsafe fn rounds8<const DECRYPT: bool>(
    rk: &[__m128i; MAX_RK],
    rounds: usize,
    s: &mut [__m128i; 8],
) {
    for &k in &rk[1..rounds] {
        for st in s.iter_mut() {
            *st = if DECRYPT { _mm_aesdec_si128(*st, k) } else { _mm_aesenc_si128(*st, k) };
        }
    }
    let last = rk[rounds];
    for st in s.iter_mut() {
        *st =
            if DECRYPT { _mm_aesdeclast_si128(*st, last) } else { _mm_aesenclast_si128(*st, last) };
    }
}

/// Four independent `zmm` states (sixteen blocks) through every round; the
/// states arrive already whitened with `rk[0]`.
///
/// # Safety
///
/// Caller must ensure the `avx512f` and `vaes` target features are present
/// at runtime.
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "aes,avx512f,vaes")]
unsafe fn rounds16<const DECRYPT: bool>(
    rk: &[__m512i; MAX_RK],
    rounds: usize,
    s: &mut [__m512i; 4],
) {
    for &k in &rk[1..rounds] {
        for st in s.iter_mut() {
            *st = if DECRYPT { _mm512_aesdec_epi128(*st, k) } else { _mm512_aesenc_epi128(*st, k) };
        }
    }
    let last = rk[rounds];
    for st in s.iter_mut() {
        *st = if DECRYPT {
            _mm512_aesdeclast_epi128(*st, last)
        } else {
            _mm512_aesenclast_epi128(*st, last)
        };
    }
}

/// The pipelined ECB loop: eight independent states per iteration,
/// single-block tail. `keys` is `enc` or `dec` to match `DECRYPT`.
///
/// # Safety
///
/// Caller must ensure the `aes` target feature is present at runtime and
/// `blocks.len() % 16 == 0`.
#[allow(unsafe_code)]
#[target_feature(enable = "aes")]
unsafe fn ecb_xmm<const DECRYPT: bool>(keys: &[[u8; 16]], blocks: &mut [u8]) {
    let (rk, rounds) = load_keys(keys);
    let mut wide = blocks.chunks_exact_mut(XMM_RUN);
    for chunk in &mut wide {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        let mut s = [_mm_setzero_si128(); 8];
        for (b, st) in s.iter_mut().enumerate() {
            *st = _mm_xor_si128(_mm_loadu_si128(p.add(b)), rk[0]);
        }
        rounds8::<DECRYPT>(&rk, rounds, &mut s);
        for (b, st) in s.iter().enumerate() {
            _mm_storeu_si128(p.add(b), *st);
        }
    }
    for chunk in wide.into_remainder().chunks_exact_mut(16) {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, cipher1::<DECRYPT>(&rk, rounds, _mm_loadu_si128(p)));
    }
}

/// Shuffle control that byte-reverses the high 64-bit lane of a block and
/// leaves the low lane alone: turns a native-endian counter in the high
/// lane into the big-endian half of a counter block.
///
/// # Safety
///
/// Caller must ensure `sse2` (implied by `aes`) is present at runtime.
#[allow(unsafe_code)]
#[inline]
#[target_feature(enable = "aes")]
unsafe fn swap_high_lane() -> __m128i {
    _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15, 7, 6, 5, 4, 3, 2, 1, 0)
}

/// Counter mode, 128-bit body: counter blocks `prefix_be ‖ (first + i)_be`
/// built in registers, eight in flight; the final chunk may be short.
///
/// # Safety
///
/// Caller must ensure the `aes` and `ssse3` target features are present at
/// runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "aes,ssse3")]
unsafe fn ctr_xmm(keys: &[[u8; 16]], prefix: u64, first: u64, data: &mut [u8]) {
    let (rk, rounds) = load_keys(keys);
    let swap = swap_high_lane();
    // Low lane: the prefix already in memory order; high lane: the native
    // counter, byte-swapped per block by `swap`.
    let mut ctr = _mm_set_epi64x(first as i64, prefix.swap_bytes() as i64);
    let one = _mm_set_epi64x(1, 0);
    let mut wide = data.chunks_exact_mut(XMM_RUN);
    for chunk in &mut wide {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        let mut s = [_mm_setzero_si128(); 8];
        for st in s.iter_mut() {
            *st = _mm_xor_si128(_mm_shuffle_epi8(ctr, swap), rk[0]);
            ctr = _mm_add_epi64(ctr, one);
        }
        rounds8::<false>(&rk, rounds, &mut s);
        for (b, st) in s.iter().enumerate() {
            _mm_storeu_si128(p.add(b), _mm_xor_si128(_mm_loadu_si128(p.add(b)), *st));
        }
    }
    for chunk in wide.into_remainder().chunks_mut(16) {
        let ks = cipher1::<false>(&rk, rounds, _mm_shuffle_epi8(ctr, swap));
        ctr = _mm_add_epi64(ctr, one);
        let mut block = [0u8; 16];
        _mm_storeu_si128(block.as_mut_ptr().cast::<__m128i>(), ks);
        for (d, k) in chunk.iter_mut().zip(block.iter()) {
            *d ^= *k;
        }
    }
}

/// Counter mode, VAES body: sixteen counter blocks per iteration, four per
/// `zmm`; the sub-256-byte tail goes to [`ctr_xmm`].
///
/// # Safety
///
/// Caller must ensure the `aes`, `ssse3`, `avx2`, `avx512f` and `vaes`
/// target features are present at runtime.
#[allow(unsafe_code)]
#[target_feature(enable = "aes,ssse3,avx2,avx512f,vaes")]
unsafe fn ctr_zmm(keys: &[[u8; 16]], prefix: u64, first: u64, data: &mut [u8]) {
    let (rk, rounds) = load_keys_zmm(keys);
    let swap: __m256i = _mm256_broadcastsi128_si256(swap_high_lane());
    let pre = prefix.swap_bytes() as i64;
    let c = |i: u64| first.wrapping_add(i) as i64;
    let mut ctr = _mm512_set_epi64(c(3), pre, c(2), pre, c(1), pre, c(0), pre);
    let step = _mm512_set_epi64(4, 0, 4, 0, 4, 0, 4, 0);
    let done = (data.len() / ZMM_RUN * (ZMM_RUN / 16)) as u64;
    let mut wide = data.chunks_exact_mut(ZMM_RUN);
    for chunk in &mut wide {
        let p = chunk.as_mut_ptr().cast::<__m512i>();
        let mut s = [_mm512_setzero_si512(); 4];
        for st in s.iter_mut() {
            // `vpshufb` on `zmm` needs AVX-512BW; two `ymm` halves keep
            // the body on AVX-512F.
            let lo = _mm256_shuffle_epi8(_mm512_castsi512_si256(ctr), swap);
            let hi = _mm256_shuffle_epi8(_mm512_extracti64x4_epi64::<1>(ctr), swap);
            *st = _mm512_xor_si512(_mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi), rk[0]);
            ctr = _mm512_add_epi64(ctr, step);
        }
        rounds16::<false>(&rk, rounds, &mut s);
        for (b, st) in s.iter().enumerate() {
            _mm512_storeu_si512(p.add(b), _mm512_xor_si512(_mm512_loadu_si512(p.add(b)), *st));
        }
    }
    let tail = wide.into_remainder();
    if !tail.is_empty() {
        ctr_xmm(keys, prefix, first.wrapping_add(done), tail);
    }
}

/// XEX, 128-bit body: eight blocks in flight, each whitened with its own
/// tweak before and after the cipher; single-block tail.
///
/// # Safety
///
/// Caller must ensure the `aes` target feature is present at runtime and
/// `data.len() % 16 == 0`.
#[allow(unsafe_code)]
#[target_feature(enable = "aes")]
unsafe fn xex_xmm<const DECRYPT: bool, T: Fn(u64) -> (u64, u64)>(
    keys: &[[u8; 16]],
    base: u64,
    tweak: &T,
    data: &mut [u8],
) {
    let (rk, rounds) = load_keys(keys);
    let tweak_at = |pa: u64| {
        let (lo, hi) = tweak(pa);
        _mm_set_epi64x(hi as i64, lo as i64)
    };
    let mut pa = base;
    let mut wide = data.chunks_exact_mut(XMM_RUN);
    for chunk in &mut wide {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        let mut t = [_mm_setzero_si128(); 8];
        let mut s = [_mm_setzero_si128(); 8];
        for (b, (tb, st)) in t.iter_mut().zip(s.iter_mut()).enumerate() {
            *tb = tweak_at(pa.wrapping_add(16 * b as u64));
            *st = _mm_xor_si128(_mm_xor_si128(_mm_loadu_si128(p.add(b)), *tb), rk[0]);
        }
        rounds8::<DECRYPT>(&rk, rounds, &mut s);
        for (b, (tb, st)) in t.iter().zip(s.iter()).enumerate() {
            _mm_storeu_si128(p.add(b), _mm_xor_si128(*st, *tb));
        }
        pa = pa.wrapping_add(XMM_RUN as u64);
    }
    for chunk in wide.into_remainder().chunks_exact_mut(16) {
        let p = chunk.as_mut_ptr().cast::<__m128i>();
        let t = tweak_at(pa);
        let s = cipher1::<DECRYPT>(&rk, rounds, _mm_xor_si128(_mm_loadu_si128(p), t));
        _mm_storeu_si128(p, _mm_xor_si128(s, t));
        pa = pa.wrapping_add(16);
    }
}

/// XEX, VAES body: sixteen blocks per iteration, four per `zmm`. The
/// sixteen tweaks are computed as a row of low halves and a row of high
/// halves — a shape the compiler vectorizes across blocks — then
/// interleaved into per-block lanes with one two-source permute per `zmm`;
/// the sub-256-byte tail goes to [`xex_xmm`].
///
/// # Safety
///
/// Caller must ensure the `aes`, `avx512f` and `vaes` target features are
/// present at runtime and `data.len() % 16 == 0`.
#[allow(unsafe_code)]
#[target_feature(enable = "aes,avx512f,vaes")]
unsafe fn xex_zmm<const DECRYPT: bool, T: Fn(u64) -> (u64, u64)>(
    keys: &[[u8; 16]],
    base: u64,
    tweak: &T,
    data: &mut [u8],
) {
    const BLOCKS: usize = ZMM_RUN / 16;
    let (rk, rounds) = load_keys_zmm(keys);
    // Lane picks for blocks 0..4 and 4..8 of an 8-block lo/hi row pair.
    let first_half = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    let second_half = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    let mut pa = base;
    let mut wide = data.chunks_exact_mut(ZMM_RUN);
    for chunk in &mut wide {
        let p = chunk.as_mut_ptr().cast::<__m512i>();
        let mut lo = [0u64; BLOCKS];
        let mut hi = [0u64; BLOCKS];
        for (j, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            (*l, *h) = tweak(pa.wrapping_add(16 * j as u64));
        }
        let mut t = [_mm512_setzero_si512(); 4];
        for (half, pair) in t.chunks_exact_mut(2).enumerate() {
            let l = _mm512_loadu_si512(lo.as_ptr().add(8 * half).cast::<__m512i>());
            let h = _mm512_loadu_si512(hi.as_ptr().add(8 * half).cast::<__m512i>());
            pair[0] = _mm512_permutex2var_epi64(l, first_half, h);
            pair[1] = _mm512_permutex2var_epi64(l, second_half, h);
        }
        let mut s = [_mm512_setzero_si512(); 4];
        for (b, (tb, st)) in t.iter().zip(s.iter_mut()).enumerate() {
            *st = _mm512_xor_si512(_mm512_xor_si512(_mm512_loadu_si512(p.add(b)), *tb), rk[0]);
        }
        rounds16::<DECRYPT>(&rk, rounds, &mut s);
        for (b, (tb, st)) in t.iter().zip(s.iter()).enumerate() {
            _mm512_storeu_si512(p.add(b), _mm512_xor_si512(*st, *tb));
        }
        pa = pa.wrapping_add(ZMM_RUN as u64);
    }
    let tail = wide.into_remainder();
    if !tail.is_empty() {
        xex_xmm::<DECRYPT, T>(keys, pa, tweak, tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{AesBackend, KeySchedule};

    fn keys_for(key: &[u8]) -> NiKeys {
        let ks = KeySchedule::new(key).unwrap();
        NiKeys::from_words(ks.enc_words(), ks.dec_words())
    }

    /// The bodies this host can run; one it lacks is logged and skipped,
    /// never substituted.
    fn bodies() -> Vec<Body> {
        let mut out = Vec::new();
        for body in [Body::Xmm8, Body::Zmm16] {
            if body.available() {
                out.push(body);
            } else {
                eprintln!("note: kernel body {body:?} unavailable on this host, skipped");
            }
        }
        out
    }

    /// A keyless tweak shaped like the memory engine's, so the XEX tests
    /// exercise both halves and every address bit.
    fn tweak(pa: u64) -> (u64, u64) {
        let x = pa ^ pa.rotate_left(29) ^ 0x0123_4567_89AB_CDEF;
        (x, x.rotate_left(7) ^ 0xA5A5)
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed)).collect()
    }

    #[test]
    fn hardware_matches_ttable_all_key_sizes() {
        if !available() {
            eprintln!("skipping: host has no AES instructions");
            return;
        }
        for key in [&[0x21u8; 16][..], &[0x5Eu8; 24][..], &[0xA3u8; 32][..]] {
            let ks = KeySchedule::with_backend(key, AesBackend::TTable).unwrap();
            let ni = keys_for(key);
            let mut data = pattern(16 * 11, 0);
            let mut expect = data.clone();
            ni.encrypt_blocks(&mut data);
            ks.encrypt_blocks(&mut expect);
            assert_eq!(data, expect, "AESENC diverged for {}-byte key", key.len());
            ni.decrypt_blocks(&mut data);
            ks.decrypt_blocks(&mut expect);
            assert_eq!(data, expect, "AESDEC diverged for {}-byte key", key.len());
        }
    }

    /// Both counter-mode bodies against the T-table engine, every key size,
    /// lengths around both run widths, and a counter that wraps mid-buffer.
    #[test]
    fn ctr_bodies_match_ttable_and_each_other() {
        if !available() {
            eprintln!("skipping: host has no AES instructions");
            return;
        }
        for key in [&[0x6Bu8; 16][..], &[0x19u8; 24][..], &[0xD2u8; 32][..]] {
            let ks = KeySchedule::with_backend(key, AesBackend::TTable).unwrap();
            let ni = keys_for(key);
            for (prefix, first) in [(0x10_0000_0000_0007, 0), (0xFEED, u64::MAX - 20)] {
                for len in [0usize, 5, 16, 127, 128, 129, 255, 256, 257, 512, 1000, 4096] {
                    let plain = pattern(len, 3);
                    let mut want = plain.clone();
                    ks.ctr_xor(prefix, first, &mut want);
                    for body in bodies() {
                        let mut got = plain.clone();
                        ni.ctr_xor_on(body, prefix, first, &mut got);
                        assert_eq!(got, want, "{body:?} ctr, {}-byte key, {len} bytes", key.len());
                    }
                }
            }
        }
    }

    /// Both XEX bodies against the T-table engine in both directions,
    /// including a base address that wraps mid-buffer.
    #[test]
    fn xex_bodies_match_ttable_and_each_other() {
        if !available() {
            eprintln!("skipping: host has no AES instructions");
            return;
        }
        for key in [&[0x4Cu8; 16][..], &[0x88u8; 24][..], &[0x3Fu8; 32][..]] {
            let ks = KeySchedule::with_backend(key, AesBackend::TTable).unwrap();
            let ni = keys_for(key);
            for base in [0x7_4000u64, u64::MAX - 0x9F] {
                for blocks in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 256] {
                    let plain = pattern(16 * blocks, 9);
                    let mut want = plain.clone();
                    ks.xex_encrypt_blocks(base, tweak, &mut want);
                    for body in bodies() {
                        let mut got = plain.clone();
                        ni.xex_on::<false>(body, base, &tweak, &mut got);
                        assert_eq!(got, want, "{body:?} xex enc, {}-byte key, {blocks}", key.len());
                        ni.xex_on::<true>(body, base, &tweak, &mut got);
                        assert_eq!(
                            got,
                            plain,
                            "{body:?} xex dec, {}-byte key, {blocks}",
                            key.len()
                        );
                    }
                }
            }
        }
    }
}
