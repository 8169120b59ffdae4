//! Constant-time bitsliced AES — the `AesBackend::Bitsliced` engine.
//!
//! The T-table formulation in [`crate::aes`] is fast but performs one
//! 256-entry table load per state byte per round, *indexed by secret
//! data*. On real hardware that index leaks through the data cache: an
//! attacker sharing a cache level can recover AES keys from the access
//! pattern (the classic Osvik–Shamir–Tromer / Bernstein cache-timing
//! attacks — see THREAT_MODEL.md). This module is the branch-free,
//! table-free alternative: Käsper–Schwabe-style bitslicing, where the
//! cipher runs as a fixed sequence of AND/XOR/rotate operations whose
//! addresses and control flow never depend on key or state bytes.
//!
//! # Data layout
//!
//! Eight 16-byte blocks (128 bytes) are processed per pass. The batch is
//! *orthogonalized* into eight bit-planes, each plane packed into one
//! `u128` (two machine `u64`s): bit `8*i + q` of plane `b` holds bit `b`
//! of byte `i` of block `q`. Every AES step then becomes plane algebra:
//!
//! - **AddRoundKey** — eight plane XORs against precomputed key planes
//!   (each key byte replicated across the eight block lanes);
//! - **SubBytes** — the GF(2⁸) inversion `x⁻¹ = x²⁵⁴` computed with an
//!   Itoh–Tsujii addition chain (4 bitsliced multiplies, 7 bitsliced
//!   squarings) followed by the FIPS-197 affine transform as plane XORs.
//!   The multiply is a schoolbook carry-less product of plane vectors
//!   (64 ANDs) reduced by the AES polynomial via compile-time tables
//!   indexed only by loop constants;
//! - **ShiftRows** — a lane permutation: each row mask selects a
//!   32-lane-periodic byte group and a `u128` rotation moves it;
//! - **MixColumns** — byte rotations within each 32-lane column group
//!   plus the `xtime` plane shuffle.
//!
//! All 128 S-box evaluations of a round happen simultaneously, so the
//! per-byte cost of the fat inversion is amortized eight blocks wide.
//! It is still several times slower than the T-table core on the host —
//! that is the price of constant time, and exactly why the backend is
//! selectable rather than mandatory (the simulated *modeled* cycle costs
//! are identical either way; see DESIGN.md "Backend dispatch without
//! changing modeled cycles").
//!
//! Audit note: this module contains **no array indexing by key or state
//! bytes** — the only indices are loop counters and compile-time
//! constants. `grep` for `as usize` here and find nothing derived from
//! data.

/// Blocks per bitsliced pass (the lanes of one plane set).
pub(crate) const BATCH_BLOCKS: usize = 8;
/// Bytes per bitsliced pass.
pub(crate) const BATCH_BYTES: usize = 16 * BATCH_BLOCKS;

/// Multiply by `x` in GF(2⁸) mod the AES polynomial 0x11B (scalar form,
/// used only to build compile-time reduction tables).
const fn xtime_byte(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1B } else { 0 })
}

/// `RED[m] = x^(8+m) mod 0x11B` — how each overflow bit of a carry-less
/// product folds back into the low eight planes.
const RED: [u8; 7] = {
    let mut t = [0u8; 7];
    let mut v = 0x1Bu8; // x^8 mod 0x11B
    let mut m = 0;
    while m < 7 {
        t[m] = v;
        v = xtime_byte(v);
        m += 1;
    }
    t
};

/// `SQ[i] = x^(2i) mod 0x11B` — squaring is GF(2)-linear, so the square
/// of a plane vector is a fixed XOR pattern given by this table.
const SQ: [u8; 8] = {
    let mut t = [0u8; 8];
    let mut v = 1u8; // x^0
    let mut i = 0;
    while i < 8 {
        t[i] = v;
        v = xtime_byte(xtime_byte(v));
        i += 1;
    }
    t
};

/// Mask selecting, within every 4-byte group, the byte lanes whose index
/// satisfies `lo <= i % 4 < hi` (each byte of the state occupies eight
/// consecutive lanes; a column of the AES state is a 32-lane group).
const fn col_mask(lo: usize, hi: usize) -> u128 {
    let mut m = 0u128;
    let mut i = 0;
    while i < 16 {
        if lo <= i % 4 && i % 4 < hi {
            m |= 0xFFu128 << (8 * i);
        }
        i += 1;
    }
    m
}

/// `ROW[r]` selects the lanes of state row `r` (bytes `4c + r`).
const ROW: [u128; 4] = [col_mask(0, 1), col_mask(1, 2), col_mask(2, 3), col_mask(3, 4)];

const SWAP_CL: [u128; 3] = [
    0x55555555_55555555_55555555_55555555,
    0x33333333_33333333_33333333_33333333,
    0x0F0F0F0F_0F0F0F0F_0F0F0F0F_0F0F0F0F,
];
const SWAP_CH: [u128; 3] = [
    0xAAAAAAAA_AAAAAAAA_AAAAAAAA_AAAAAAAA,
    0xCCCCCCCC_CCCCCCCC_CCCCCCCC_CCCCCCCC,
    0xF0F0F0F0_F0F0F0F0_F0F0F0F0_F0F0F0F0,
];

/// One butterfly layer of the 8×8 bit transpose: exchanges bit `s` of
/// the word index with bit `s` of the within-byte bit index.
#[inline(always)]
fn swap_layer(q: &mut [u128; 8], level: usize, a: usize, b: usize) {
    let (cl, ch, s) = (SWAP_CL[level], SWAP_CH[level], 1u32 << level);
    let (x, y) = (q[a], q[b]);
    q[a] = (x & cl) | ((y & cl) << s);
    q[b] = ((x & ch) >> s) | (y & ch);
}

/// Orthogonalizes eight words: afterwards, bit `8i + k` of word `j`
/// holds what bit `8i + j` of word `k` held. Applied to eight
/// little-endian-loaded blocks this produces the bit-planes; it is an
/// involution (the transpose of a transpose), so the same routine
/// converts back.
#[inline]
fn ortho(q: &mut [u128; 8]) {
    swap_layer(q, 0, 0, 1);
    swap_layer(q, 0, 2, 3);
    swap_layer(q, 0, 4, 5);
    swap_layer(q, 0, 6, 7);
    swap_layer(q, 1, 0, 2);
    swap_layer(q, 1, 1, 3);
    swap_layer(q, 1, 4, 6);
    swap_layer(q, 1, 5, 7);
    swap_layer(q, 2, 0, 4);
    swap_layer(q, 2, 1, 5);
    swap_layer(q, 2, 2, 6);
    swap_layer(q, 2, 3, 7);
}

/// Packs 128 bytes (eight blocks) into eight bit-planes.
#[inline]
fn pack(bytes: &[u8; BATCH_BYTES]) -> [u128; 8] {
    let mut q = [0u128; 8];
    for (blk, w) in q.iter_mut().enumerate() {
        *w = u128::from_le_bytes(bytes[16 * blk..16 * blk + 16].try_into().expect("16 bytes"));
    }
    ortho(&mut q);
    q
}

/// Unpacks eight bit-planes back into 128 bytes.
#[inline]
fn unpack(mut q: [u128; 8], bytes: &mut [u8; BATCH_BYTES]) {
    ortho(&mut q);
    for (blk, w) in q.iter().enumerate() {
        bytes[16 * blk..16 * blk + 16].copy_from_slice(&w.to_le_bytes());
    }
}

#[inline(always)]
fn xor_planes(p: &mut [u128; 8], k: &[u128; 8]) {
    for (a, b) in p.iter_mut().zip(k.iter()) {
        *a ^= *b;
    }
}

/// Carry-less schoolbook product of two plane vectors, reduced by the
/// AES polynomial. 64 plane ANDs; the reduction pattern comes from the
/// compile-time [`RED`] table, indexed only by loop constants.
#[inline]
fn gf_mul_planes(a: &[u128; 8], b: &[u128; 8]) -> [u128; 8] {
    let mut t = [0u128; 15];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            t[i + j] ^= ai & bj;
        }
    }
    let mut out = [0u128; 8];
    out.copy_from_slice(&t[..8]);
    for (m, &red) in RED.iter().enumerate() {
        let v = t[8 + m];
        for (j, o) in out.iter_mut().enumerate() {
            if (red >> j) & 1 == 1 {
                *o ^= v;
            }
        }
    }
    out
}

/// Bitsliced squaring: GF(2)-linear, a fixed XOR pattern per output
/// plane from the compile-time [`SQ`] table.
#[inline]
fn gf_square_planes(a: &[u128; 8]) -> [u128; 8] {
    let mut out = [0u128; 8];
    for (i, &sq) in SQ.iter().enumerate() {
        for (j, o) in out.iter_mut().enumerate() {
            if (sq >> j) & 1 == 1 {
                *o ^= a[i];
            }
        }
    }
    out
}

/// Bitsliced GF(2⁸) inversion via the Itoh–Tsujii chain for `x²⁵⁴`
/// (which maps 0 to 0, exactly what the AES S-box needs): four
/// multiplies and seven squarings, all on plane vectors.
#[inline]
fn gf_inv_planes(x: &[u128; 8]) -> [u128; 8] {
    let x2 = gf_square_planes(x);
    let x3 = gf_mul_planes(&x2, x);
    let x6 = gf_square_planes(&x3);
    let x7 = gf_mul_planes(&x6, x);
    let x56 = gf_square_planes(&gf_square_planes(&gf_square_planes(&x7)));
    let x63 = gf_mul_planes(&x56, &x7);
    let x126 = gf_square_planes(&x63);
    let x127 = gf_mul_planes(&x126, x);
    gf_square_planes(&x127) // x^254 = x^(-1) for x != 0, 0 for x = 0
}

/// Bitsliced SubBytes: field inversion then the FIPS-197 affine
/// transform (`out_b = y_b ⊕ y_{b+4} ⊕ y_{b+5} ⊕ y_{b+6} ⊕ y_{b+7} ⊕ c_b`
/// with constant 0x63; adding a constant bit is a plane complement).
#[inline]
fn sub_bytes(p: &[u128; 8]) -> [u128; 8] {
    let y = gf_inv_planes(p);
    let mut out = [0u128; 8];
    for (b, o) in out.iter_mut().enumerate() {
        *o = y[b] ^ y[(b + 4) % 8] ^ y[(b + 5) % 8] ^ y[(b + 6) % 8] ^ y[(b + 7) % 8];
        if (0x63 >> b) & 1 == 1 {
            *o = !*o;
        }
    }
    out
}

/// Bitsliced InvSubBytes: the inverse affine transform
/// (`x_b = p_{b+2} ⊕ p_{b+5} ⊕ p_{b+7} ⊕ d_b` with constant 0x05), then
/// the same self-inverse field inversion.
#[inline]
fn inv_sub_bytes(p: &[u128; 8]) -> [u128; 8] {
    let mut z = [0u128; 8];
    for (b, o) in z.iter_mut().enumerate() {
        *o = p[(b + 2) % 8] ^ p[(b + 5) % 8] ^ p[(b + 7) % 8];
        if (0x05 >> b) & 1 == 1 {
            *o = !*o;
        }
    }
    gf_inv_planes(&z)
}

/// ShiftRows: row `r` (a 32-lane-periodic byte group) rotates left by
/// `r` columns, which in lane space is a rotation by `32r` bits.
#[inline]
fn shift_rows(p: &mut [u128; 8]) {
    for plane in p.iter_mut() {
        let x = *plane;
        *plane = (x & ROW[0])
            | (x & ROW[1]).rotate_right(32)
            | (x & ROW[2]).rotate_right(64)
            | (x & ROW[3]).rotate_right(96);
    }
}

/// InvShiftRows: the opposite rotation per row.
#[inline]
fn inv_shift_rows(p: &mut [u128; 8]) {
    for plane in p.iter_mut() {
        let x = *plane;
        *plane = (x & ROW[0])
            | (x & ROW[1]).rotate_left(32)
            | (x & ROW[2]).rotate_left(64)
            | (x & ROW[3]).rotate_left(96);
    }
}

/// Rotates the bytes of every column group up by `K` positions:
/// `out[r] = in[(r + K) % 4]` for each column, on every plane lane.
#[inline(always)]
fn rot_col<const K: usize>(x: u128) -> u128 {
    let keep = col_mask(0, 4 - K);
    let wrap = col_mask(4 - K, 4);
    ((x >> (8 * K)) & keep) | ((x << (32 - 8 * K)) & wrap)
}

#[inline]
fn rot_planes<const K: usize>(p: &[u128; 8]) -> [u128; 8] {
    let mut out = [0u128; 8];
    for (o, &x) in out.iter_mut().zip(p.iter()) {
        *o = rot_col::<K>(x);
    }
    out
}

/// Multiply every byte by `x` (0x02): a plane shuffle with the AES
/// polynomial's bits folded in.
#[inline]
fn xtime_planes(p: &[u128; 8]) -> [u128; 8] {
    [p[7], p[0] ^ p[7], p[1], p[2] ^ p[7], p[3] ^ p[7], p[4], p[5], p[6]]
}

/// MixColumns on planes, using
/// `new = xtime(a ⊕ rot1(a)) ⊕ rot1(a) ⊕ rot2(a) ⊕ rot3(a)`
/// (the standard 2·(a+b) + b + c + d factoring of the 2,3,1,1 row).
#[inline]
fn mix_columns(p: &[u128; 8]) -> [u128; 8] {
    let r1 = rot_planes::<1>(p);
    let r2 = rot_planes::<2>(p);
    let r3 = rot_planes::<3>(p);
    let mut t = *p;
    xor_planes(&mut t, &r1);
    let mut out = xtime_planes(&t);
    for b in 0..8 {
        out[b] ^= r1[b] ^ r2[b] ^ r3[b];
    }
    out
}

/// InvMixColumns on planes: with `rₖ = rotₖ(a)` and `s = r1 ⊕ r2 ⊕ r3`,
/// `new = 8·(a ⊕ s) ⊕ 4·(a ⊕ r2) ⊕ 2·(a ⊕ r1) ⊕ s` reproduces the
/// 14,11,13,9 coefficient row (14 = 8+4+2, 11 = 8+2+1, 13 = 8+4+1,
/// 9 = 8+1).
#[inline]
fn inv_mix_columns(p: &[u128; 8]) -> [u128; 8] {
    let r1 = rot_planes::<1>(p);
    let r2 = rot_planes::<2>(p);
    let r3 = rot_planes::<3>(p);
    let mut s = r1;
    for b in 0..8 {
        s[b] ^= r2[b] ^ r3[b];
    }
    let mut a_s = *p;
    xor_planes(&mut a_s, &s);
    let mut a_r2 = *p;
    xor_planes(&mut a_r2, &r2);
    let mut a_r1 = *p;
    xor_planes(&mut a_r1, &r1);
    let e8 = xtime_planes(&xtime_planes(&xtime_planes(&a_s)));
    let e4 = xtime_planes(&xtime_planes(&a_r2));
    let e2 = xtime_planes(&a_r1);
    let mut out = e8;
    for b in 0..8 {
        out[b] ^= e4[b] ^ e2[b] ^ s[b];
    }
    out
}

/// The bitsliced key material: one plane set per round, each key byte
/// replicated across the eight block lanes. Derived from the *already
/// expanded* encryption schedule — constructing this never re-runs key
/// expansion (the schedule is expanded once and shared across backends).
#[derive(Clone)]
pub(crate) struct BitslicedKeys {
    rk: Vec<[u128; 8]>,
    rounds: usize,
}

impl std::fmt::Debug for BitslicedKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("BitslicedKeys").field("rounds", &self.rounds).finish()
    }
}

impl BitslicedKeys {
    /// Builds key planes from the expanded encryption round keys (as
    /// big-endian column words, the layout [`crate::aes::KeySchedule`]
    /// stores). Branch-free: key bits are spread with arithmetic masks,
    /// not conditionals.
    pub(crate) fn from_enc_schedule(enc: &[[u32; 4]]) -> Self {
        let rk = enc
            .iter()
            .map(|words| {
                let mut bytes = [0u8; 16];
                for (c, w) in words.iter().enumerate() {
                    bytes[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
                }
                let mut planes = [0u128; 8];
                for (i, &kb) in bytes.iter().enumerate() {
                    for (b, plane) in planes.iter_mut().enumerate() {
                        let bit = u128::from((kb >> b) & 1);
                        *plane |= bit.wrapping_neg() & (0xFFu128 << (8 * i));
                    }
                }
                planes
            })
            .collect::<Vec<_>>();
        BitslicedKeys { rounds: rk.len() - 1, rk }
    }

    /// Encrypts one full 128-byte batch in place.
    fn encrypt_batch(&self, bytes: &mut [u8; BATCH_BYTES]) {
        let mut p = pack(bytes);
        xor_planes(&mut p, &self.rk[0]);
        for r in 1..self.rounds {
            p = sub_bytes(&p);
            shift_rows(&mut p);
            p = mix_columns(&p);
            xor_planes(&mut p, &self.rk[r]);
        }
        p = sub_bytes(&p);
        shift_rows(&mut p);
        xor_planes(&mut p, &self.rk[self.rounds]);
        unpack(p, bytes);
    }

    /// Decrypts one full 128-byte batch in place (the straight inverse
    /// cipher — bitslicing has no use for the equivalent-inverse-cipher
    /// key transform, the untransformed schedule is applied in reverse).
    fn decrypt_batch(&self, bytes: &mut [u8; BATCH_BYTES]) {
        let mut p = pack(bytes);
        xor_planes(&mut p, &self.rk[self.rounds]);
        for r in (1..self.rounds).rev() {
            inv_shift_rows(&mut p);
            p = inv_sub_bytes(&p);
            xor_planes(&mut p, &self.rk[r]);
            p = inv_mix_columns(&p);
        }
        inv_shift_rows(&mut p);
        p = inv_sub_bytes(&p);
        xor_planes(&mut p, &self.rk[0]);
        unpack(p, bytes);
    }

    /// Encrypts consecutive 16-byte blocks in place. Whole eight-block
    /// batches run directly; a shorter tail is widened into a stack
    /// scratch batch (the unused lanes encrypt padding that is thrown
    /// away), keeping even the tail on the constant-time path.
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [u8]) {
        debug_assert_eq!(blocks.len() % 16, 0);
        let mut wide = blocks.chunks_exact_mut(BATCH_BYTES);
        for chunk in &mut wide {
            self.encrypt_batch(chunk.try_into().expect("chunk is BATCH_BYTES"));
        }
        let rem = wide.into_remainder();
        if !rem.is_empty() {
            let mut scratch = [0u8; BATCH_BYTES];
            scratch[..rem.len()].copy_from_slice(rem);
            self.encrypt_batch(&mut scratch);
            rem.copy_from_slice(&scratch[..rem.len()]);
        }
    }

    /// Decrypts consecutive 16-byte blocks in place; tail handling as in
    /// [`BitslicedKeys::encrypt_blocks`].
    pub(crate) fn decrypt_blocks(&self, blocks: &mut [u8]) {
        debug_assert_eq!(blocks.len() % 16, 0);
        let mut wide = blocks.chunks_exact_mut(BATCH_BYTES);
        for chunk in &mut wide {
            self.decrypt_batch(chunk.try_into().expect("chunk is BATCH_BYTES"));
        }
        let rem = wide.into_remainder();
        if !rem.is_empty() {
            let mut scratch = [0u8; BATCH_BYTES];
            scratch[..rem.len()].copy_from_slice(rem);
            self.decrypt_batch(&mut scratch);
            rem.copy_from_slice(&scratch[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive bit-by-bit packer: the readable specification the SWAPN
    /// butterfly network is checked against.
    fn pack_naive(bytes: &[u8; BATCH_BYTES]) -> [u128; 8] {
        let mut planes = [0u128; 8];
        for q in 0..8 {
            for i in 0..16 {
                let byte = bytes[16 * q + i];
                for (b, plane) in planes.iter_mut().enumerate() {
                    if (byte >> b) & 1 == 1 {
                        *plane |= 1u128 << (8 * i + q);
                    }
                }
            }
        }
        planes
    }

    fn batch_from_fn(f: impl Fn(usize) -> u8) -> [u8; BATCH_BYTES] {
        let mut b = [0u8; BATCH_BYTES];
        for (i, v) in b.iter_mut().enumerate() {
            *v = f(i);
        }
        b
    }

    #[test]
    fn ortho_matches_naive_packing_and_inverts() {
        let data = batch_from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(11));
        let fast = pack(&data);
        let naive = pack_naive(&data);
        assert_eq!(fast, naive, "butterfly transpose disagrees with naive bit packing");
        let mut back = [0u8; BATCH_BYTES];
        unpack(fast, &mut back);
        assert_eq!(back, data, "pack/unpack must be an involution");
    }

    #[test]
    fn reduction_tables_match_field_math() {
        // RED[m] must equal x^(8+m) and SQ[i] must equal x^(2i), both
        // reduced mod 0x11B — recompute with the independent GF multiply
        // from the reference oracle.
        use crate::aes_ref::reference::gf_mul;
        let mut pow = 1u8;
        let mut powers = [0u8; 16];
        for p in powers.iter_mut() {
            *p = pow;
            pow = gf_mul(pow, 2);
        }
        for (m, &r) in RED.iter().enumerate() {
            assert_eq!(r, powers[8 + m], "RED[{m}]");
        }
        for (i, &s) in SQ.iter().enumerate() {
            assert_eq!(s, powers[2 * i], "SQ[{i}]");
        }
    }

    /// Every GF(2⁸) element inverted through the bitsliced chain must
    /// match the reference Fermat inversion — 256 values fit in exactly
    /// two batches.
    #[test]
    fn bitsliced_inverse_matches_reference_for_all_bytes() {
        use crate::aes_ref::reference::gf_inv;
        for half in 0..2u16 {
            let data = batch_from_fn(|i| (half * 128 + i as u16) as u8);
            let planes = pack(&data);
            let inv = gf_inv_planes(&planes);
            let mut out = [0u8; BATCH_BYTES];
            unpack(inv, &mut out);
            for (i, &v) in out.iter().enumerate() {
                let x = (half * 128 + i as u16) as u8;
                assert_eq!(v, gf_inv(x), "inverse mismatch at {x:#04x}");
            }
        }
    }

    /// The full bitsliced S-box (inversion + affine) against the
    /// reference per-byte S-box, and its inverse back.
    #[test]
    fn bitsliced_sbox_matches_reference_for_all_bytes() {
        use crate::aes_ref::reference::{inv_sub_byte, sub_byte};
        for half in 0..2u16 {
            let data = batch_from_fn(|i| (half * 128 + i as u16) as u8);
            let forward = sub_bytes(&pack(&data));
            let mut out = [0u8; BATCH_BYTES];
            unpack(forward, &mut out);
            for (i, &v) in out.iter().enumerate() {
                let x = (half * 128 + i as u16) as u8;
                assert_eq!(v, sub_byte(x), "sbox mismatch at {x:#04x}");
            }
            let backward = inv_sub_bytes(&pack(&data));
            let mut out = [0u8; BATCH_BYTES];
            unpack(backward, &mut out);
            for (i, &v) in out.iter().enumerate() {
                let x = (half * 128 + i as u16) as u8;
                assert_eq!(v, inv_sub_byte(x), "inv sbox mismatch at {x:#04x}");
            }
        }
    }

    /// ShiftRows / MixColumns plane forms against the byte-wise forms
    /// from the soft-AES module, block by block.
    #[test]
    fn bitsliced_linear_layers_match_byte_forms() {
        let data = batch_from_fn(|i| (i as u8).wrapping_mul(0x9D).wrapping_add(3));
        // ShiftRows.
        let mut p = pack(&data);
        shift_rows(&mut p);
        let mut got = [0u8; BATCH_BYTES];
        unpack(p, &mut got);
        let mut expect = data;
        for blk in expect.chunks_exact_mut(16) {
            let state: &mut [u8; 16] = blk.try_into().unwrap();
            // Byte-wise ShiftRows: row r of column c takes column c+r.
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[4 * c + r] = s[4 * ((c + r) % 4) + r];
                }
            }
        }
        assert_eq!(got, expect, "shift_rows mismatch");
        let mut p2 = pack(&got);
        inv_shift_rows(&mut p2);
        let mut back = [0u8; BATCH_BYTES];
        unpack(p2, &mut back);
        assert_eq!(back, data, "inv_shift_rows must undo shift_rows");

        // MixColumns, against the 2,3,1,1 GF row evaluated per byte.
        use crate::aes_ref::reference::gf_mul;
        let mixed = mix_columns(&pack(&data));
        let mut got = [0u8; BATCH_BYTES];
        unpack(mixed, &mut got);
        let mut expect = data;
        for blk in expect.chunks_exact_mut(16) {
            for c in 0..4 {
                let col = [blk[4 * c], blk[4 * c + 1], blk[4 * c + 2], blk[4 * c + 3]];
                for r in 0..4 {
                    let coeffs = [[2u8, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 2]];
                    blk[4 * c + r] = (0..4).fold(0u8, |acc, i| acc ^ gf_mul(coeffs[r][i], col[i]));
                }
            }
        }
        assert_eq!(got, expect, "mix_columns mismatch");

        let unmixed = inv_mix_columns(&mix_columns(&pack(&data)));
        let mut back = [0u8; BATCH_BYTES];
        unpack(unmixed, &mut back);
        assert_eq!(back, data, "inv_mix_columns must undo mix_columns");
    }

    #[test]
    fn bitsliced_cipher_matches_reference_all_key_sizes() {
        use crate::aes_ref::reference::RefAes128;
        let key128 = [0x3Cu8; 16];
        let ks =
            crate::aes::KeySchedule::with_backend(&key128, crate::aes::AesBackend::TTable).unwrap();
        let bits = BitslicedKeys::from_enc_schedule(ks.enc_words());
        let slow = RefAes128::new(&key128);
        let mut data = batch_from_fn(|i| (i as u8).wrapping_mul(0x41));
        let mut expect = data;
        bits.encrypt_blocks(&mut data);
        for blk in expect.chunks_exact_mut(16) {
            let block: &mut [u8; 16] = blk.try_into().unwrap();
            slow.encrypt_block(block);
        }
        assert_eq!(data, expect, "bitsliced encrypt diverged from GF-math reference");
        bits.decrypt_blocks(&mut data);
        let original = batch_from_fn(|i| (i as u8).wrapping_mul(0x41));
        assert_eq!(data, original, "bitsliced decrypt must invert encrypt");

        // 192/256-bit schedules run more rounds through the same planes.
        for key in [&[0x17u8; 24][..], &[0xD2u8; 32][..]] {
            let ks = crate::aes::KeySchedule::new(key).unwrap();
            let bits = BitslicedKeys::from_enc_schedule(ks.enc_words());
            let mut wide = batch_from_fn(|i| (i as u8).wrapping_mul(0x67));
            let mut expect = wide;
            bits.encrypt_blocks(&mut wide);
            // The T-table core is the cross-check for the long key sizes
            // (itself pinned to FIPS-197 KATs).
            for blk in expect.chunks_exact_mut(16) {
                let block: &mut [u8; 16] = blk.try_into().unwrap();
                ks.encrypt_block(block);
            }
            assert_eq!(wide, expect, "bitsliced mismatch for {}-byte key", key.len());
            bits.decrypt_blocks(&mut wide);
            assert_eq!(wide, batch_from_fn(|i| (i as u8).wrapping_mul(0x67)));
        }
    }

    #[test]
    fn ragged_tail_lanes_round_trip() {
        let ks = crate::aes::KeySchedule::new(&[0x88u8; 16]).unwrap();
        let bits = BitslicedKeys::from_enc_schedule(ks.enc_words());
        for blocks in 1..=9 {
            let mut data: Vec<u8> = (0..16 * blocks).map(|i| (i as u8).wrapping_mul(7)).collect();
            let original = data.clone();
            bits.encrypt_blocks(&mut data);
            assert_ne!(data, original);
            bits.decrypt_blocks(&mut data);
            assert_eq!(data, original, "tail round trip failed at {blocks} blocks");
        }
    }
}
