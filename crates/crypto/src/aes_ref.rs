//! The GF(2⁸)-math AES-128 oracle.
//!
//! [`reference::RefAes128`] recomputes every field operation from first
//! principles on every call: the S-box by Fermat inversion and a bitwise
//! affine transform, MixColumns by generic shift-and-add multiplication.
//! Its derivation shares nothing with the host engines in [`crate::aes`]
//! (T-tables built by walking the multiplicative group with generator 3, a
//! bitsliced Itoh–Tsujii inversion, the AES instructions), which is what
//! makes it their differential-test oracle: the crate's unit tests and
//! `tests/aes_interleave_oracle.rs` pin every engine and block mode
//! bit-identical to it. It is deliberately slow and runs only in tests.
//!
//! The paper's "software emulated encryption" baseline (>20× in
//! micro-benchmark 3) is a *modeled* cost — `fidelius-hw`'s
//! `CostModel::soft_aes_line` — not a host engine.

/// The textbook per-byte AES-128, evaluated at runtime.
pub mod reference {
    const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

    /// Bit-level GF(2⁸) multiply (no tables).
    pub const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        let mut i = 0;
        while i < 8 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= 0x1B;
            }
            b >>= 1;
            i += 1;
        }
        acc
    }

    /// GF(2⁸) inverse via Fermat's little theorem: a⁻¹ = a^254.
    pub const fn gf_inv(a: u8) -> u8 {
        if a == 0 {
            return 0;
        }
        // Square-and-multiply over the 8-bit exponent 254 = 0b11111110.
        let mut result = 1u8;
        let mut base = a;
        let mut exp = 254u32;
        while exp > 0 {
            if exp & 1 != 0 {
                result = gf_mul(result, base);
            }
            base = gf_mul(base, base);
            exp >>= 1;
        }
        result
    }

    /// The S-box computed from scratch for a single byte.
    pub const fn sub_byte(b: u8) -> u8 {
        let x = gf_inv(b);
        let mut out = 0u8;
        let mut bit = 0u32;
        while bit < 8 {
            let v = ((x >> bit) & 1)
                ^ ((x >> ((bit + 4) % 8)) & 1)
                ^ ((x >> ((bit + 5) % 8)) & 1)
                ^ ((x >> ((bit + 6) % 8)) & 1)
                ^ ((x >> ((bit + 7) % 8)) & 1)
                ^ ((0x63 >> bit) & 1);
            out |= v << bit;
            bit += 1;
        }
        out
    }

    /// Inverse S-box computed from scratch for a single byte.
    pub const fn inv_sub_byte(b: u8) -> u8 {
        // Invert the affine transform bit by bit, then take the field inverse.
        let mut x = 0u8;
        let mut bit = 0u32;
        while bit < 8 {
            let v = ((b >> ((bit + 2) % 8)) & 1)
                ^ ((b >> ((bit + 5) % 8)) & 1)
                ^ ((b >> ((bit + 7) % 8)) & 1)
                ^ ((0x05 >> bit) & 1);
            x |= v << bit;
            bit += 1;
        }
        gf_inv(x)
    }

    /// The slow AES-128: per-byte field inversions each round.
    #[derive(Clone)]
    pub struct RefAes128 {
        round_keys: [[u8; 16]; 11],
    }

    impl RefAes128 {
        /// Expands a 128-bit key with per-byte S-box recomputation.
        pub fn new(key: &[u8; 16]) -> Self {
            let mut w = [[0u8; 4]; 44];
            for i in 0..4 {
                w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
            }
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = sub_byte(*b);
                    }
                    temp[0] ^= RCON[i / 4];
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 11];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
            }
            RefAes128 { round_keys }
        }

        /// Encrypts one block in place (slowly, on purpose).
        pub fn encrypt_block(&self, block: &mut [u8; 16]) {
            xor16(block, &self.round_keys[0]);
            for r in 1..10 {
                for b in block.iter_mut() {
                    *b = sub_byte(*b);
                }
                shift_rows(block);
                mix_columns(block);
                xor16(block, &self.round_keys[r]);
            }
            for b in block.iter_mut() {
                *b = sub_byte(*b);
            }
            shift_rows(block);
            xor16(block, &self.round_keys[10]);
        }

        /// Decrypts one block in place.
        pub fn decrypt_block(&self, block: &mut [u8; 16]) {
            xor16(block, &self.round_keys[10]);
            inv_shift_rows(block);
            for b in block.iter_mut() {
                *b = inv_sub_byte(*b);
            }
            for r in (1..10).rev() {
                xor16(block, &self.round_keys[r]);
                inv_mix_columns(block);
                inv_shift_rows(block);
                for b in block.iter_mut() {
                    *b = inv_sub_byte(*b);
                }
            }
            xor16(block, &self.round_keys[0]);
        }
    }

    fn xor16(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = s[4 * c + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        mix_with(state, [[2, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 2]]);
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        mix_with(state, [[14, 11, 13, 9], [9, 14, 11, 13], [13, 9, 14, 11], [11, 13, 9, 14]]);
    }

    /// Multiplies each column by `coeffs` over GF(2⁸), one product at a time.
    fn mix_with(state: &mut [u8; 16], coeffs: [[u8; 4]; 4]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            for r in 0..4 {
                state[4 * c + r] = (0..4).fold(0u8, |acc, i| acc ^ gf_mul(coeffs[r][i], col[i]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{inv_sub_byte, sub_byte, RefAes128};
    use crate::aes::{Aes128, INV_SBOX, SBOX};
    use crate::rng::Xoshiro256;

    /// FIPS-197 Appendix C.1 (AES-128), on the oracle itself.
    #[test]
    fn fips197_known_answer_encrypts_and_decrypts() {
        let key: [u8; 16] = std::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = std::array::from_fn(|i| (i as u8) * 0x11);
        let cipher = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = RefAes128::new(&key);
        let mut block = plain;
        aes.encrypt_block(&mut block);
        assert_eq!(block, cipher);
        aes.decrypt_block(&mut block);
        assert_eq!(block, plain);
    }

    /// The per-byte S-box math agrees with the engines' compile-time tables.
    #[test]
    fn sub_byte_matches_sbox_tables() {
        for b in 0..=255u8 {
            assert_eq!(sub_byte(b), SBOX[b as usize], "sbox mismatch at {b:#x}");
            assert_eq!(inv_sub_byte(b), INV_SBOX[b as usize], "inv sbox mismatch at {b:#x}");
        }
    }

    /// For random keys and blocks, the oracle and the default host engine
    /// agree on encryption, and each decrypts back to the plaintext.
    #[test]
    fn cross_check_random_blocks() {
        let mut rng = Xoshiro256::new(0x1234_5678_9abc_def0);
        for _ in 0..16 {
            let key = rng.next_key128();
            let block = rng.next_key128();
            let slow = RefAes128::new(&key);
            let fast = Aes128::new(&key);
            let mut a = block;
            let mut b = block;
            slow.encrypt_block(&mut a);
            fast.encrypt_block(&mut b);
            assert_eq!(a, b, "GF-math reference diverged from the host engine");
            slow.decrypt_block(&mut a);
            fast.decrypt_block(&mut b);
            assert_eq!(a, block);
            assert_eq!(b, block);
        }
    }
}
