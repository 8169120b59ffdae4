//! Differential proptest for the interleaved 8-block AES engine: the
//! wide path must be *bit-identical* to the retained per-byte GF-math
//! reference (`aes_ref::reference::RefAes128`) for every width, not
//! just the widths that divide evenly by the interleave factor. The
//! interleaving is a simulator-speed optimization; it is never allowed
//! to change a single output byte.
//!
//! Widths 1..=33 blocks cover all the structurally interesting shapes:
//! pure tail (1..7 blocks, no wide chunk), exactly one wide chunk (8),
//! wide chunk + every tail length (9..15), multiple wide chunks with
//! and without tails (16, 17, 24, 31, 32), and one past four chunks
//! (33). The counter-mode sweep (`KeySchedule::ctr_xor`) additionally
//! runs every ragged byte tail 0..=15 so the final-short-chunk path is
//! hit at each offset.
//!
//! The crate's seeded Xoshiro256** generator stands in for a
//! property-testing framework: every case is reproducible from the fixed
//! seeds, with no external dependencies.
//!
//! Since the backend-dispatch layer landed, the same discipline covers
//! every host engine: each available [`AesBackend`] (T-table, bitsliced,
//! AES-NI when compiled + detected) is swept against the GF-math
//! reference at widths 1..=33 and every ragged byte tail 0..=15, checked
//! for cross-backend ciphertext equality on identical inputs, and pinned
//! to the FIPS-197 known answers for all three key sizes. A backend that
//! is unavailable in this build/host is skipped (and logged), never
//! silently substituted — forcing one is what `FIDELIUS_AES_BACKEND` and
//! the CI matrix legs are for.
//!
//! The block modes get the same treatment, because on the AES-NI backend
//! each is one fused kernel over the whole buffer (counters formed in
//! registers, tweaks computed in vector lanes) rather than a loop around
//! the block engine. Per backend, against per-block references built from
//! the GF-math core, hand-built counter blocks and
//! `PaTweakCipher::tweak_mask`: `Ctr128` at every byte length 0..=1100,
//! `SectorCipher` runs of 1..=64 sectors, `PaTweakCipher` streams of whole
//! blocks up to 64 KiB at random base addresses, and the wrap edges — a
//! block offset or sector number next to `u64::MAX` (the counter wraps in
//! the low half only) and a base address next to `u64::MAX`.

use fidelius::crypto::aes::{Aes128, AesBackend, KeySchedule};
use fidelius::crypto::aes_ref::reference::RefAes128;
use fidelius::crypto::modes::{Ctr128, PaTweakCipher, SectorCipher, SECTOR_SIZE};
use fidelius::crypto::rng::Xoshiro256;

/// The backends this host can actually run (always at least two).
fn available_backends() -> Vec<AesBackend> {
    let backends: Vec<AesBackend> = AesBackend::ALL.into_iter().filter(|b| b.available()).collect();
    for b in AesBackend::ALL {
        if !b.available() {
            eprintln!("note: backend `{}` unavailable in this build/host, skipped", b.name());
        }
    }
    assert!(backends.len() >= 2, "ttable and bitsliced must always be available");
    backends
}

/// Encrypts each whole 16-byte block of `data` with the reference core.
fn reference_encrypt_blocks(aes: &RefAes128, data: &mut [u8]) {
    for chunk in data.chunks_exact_mut(16) {
        let block: &mut [u8; 16] = chunk.try_into().unwrap();
        aes.encrypt_block(block);
    }
}

/// Decrypts each whole 16-byte block of `data` with the reference core.
fn reference_decrypt_blocks(aes: &RefAes128, data: &mut [u8]) {
    for chunk in data.chunks_exact_mut(16) {
        let block: &mut [u8; 16] = chunk.try_into().unwrap();
        aes.decrypt_block(block);
    }
}

/// Reference counter mode: one hand-built `nonce_be ‖ (offset + i)_be`
/// block per 16-byte chunk (the counter wrapping in the low half), each
/// encrypted by the GF-math core and XORed over the chunk's bytes.
fn reference_ctr(aes: &RefAes128, nonce: u64, offset: u64, data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        let mut ks = [0u8; 16];
        ks[..8].copy_from_slice(&nonce.to_be_bytes());
        ks[8..].copy_from_slice(&offset.wrapping_add(i as u64).to_be_bytes());
        aes.encrypt_block(&mut ks);
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= *k;
        }
    }
}

#[test]
fn interleaved_encrypt_matches_reference_for_every_width() {
    let mut rng = Xoshiro256::new(0xA15E_D0E1);
    for blocks in 1usize..=33 {
        let key = rng.next_key128();
        let fast = Aes128::new(&key);
        let slow = RefAes128::new(&key);
        let mut data = vec![0u8; blocks * 16];
        rng.fill_bytes(&mut data);
        let mut expect = data.clone();

        fast.encrypt_blocks(&mut data);
        reference_encrypt_blocks(&slow, &mut expect);
        assert_eq!(data, expect, "encrypt mismatch at {blocks} blocks");
    }
}

#[test]
fn interleaved_decrypt_matches_reference_for_every_width() {
    let mut rng = Xoshiro256::new(0xA15E_D0DE);
    for blocks in 1usize..=33 {
        let key = rng.next_key128();
        let fast = Aes128::new(&key);
        let slow = RefAes128::new(&key);
        let mut data = vec![0u8; blocks * 16];
        rng.fill_bytes(&mut data);
        let mut expect = data.clone();

        fast.decrypt_blocks(&mut data);
        reference_decrypt_blocks(&slow, &mut expect);
        assert_eq!(data, expect, "decrypt mismatch at {blocks} blocks");
    }
}

#[test]
fn interleaved_encrypt_then_decrypt_round_trips_every_width() {
    let mut rng = Xoshiro256::new(0x00A1_5E0D_0B1E);
    for blocks in 1usize..=33 {
        let key = rng.next_key128();
        let fast = Aes128::new(&key);
        let mut data = vec![0u8; blocks * 16];
        rng.fill_bytes(&mut data);
        let original = data.clone();

        fast.encrypt_blocks(&mut data);
        assert_ne!(data, original, "encrypt was a no-op at {blocks} blocks");
        fast.decrypt_blocks(&mut data);
        assert_eq!(data, original, "round trip mismatch at {blocks} blocks");
    }
}

#[test]
fn interleaved_keystream_matches_reference_at_every_ragged_length() {
    let mut rng = Xoshiro256::new(0xA15E_CB57);
    for blocks in 0usize..=33 {
        for tail in [0usize, 1, 7, 15] {
            let len = blocks * 16 + tail;
            let key = rng.next_key128();
            let (prefix, first) = (rng.next_u64(), rng.next_u64());
            let fast = Aes128::new(&key);
            let slow = RefAes128::new(&key);
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let mut expect = data.clone();

            fast.schedule().ctr_xor(prefix, first, &mut data);
            reference_ctr(&slow, prefix, first, &mut expect);
            assert_eq!(data, expect, "keystream mismatch at {blocks} blocks + {tail} bytes");
        }
    }
}

#[test]
fn keystream_applied_twice_is_identity_across_ragged_lengths() {
    let mut rng = Xoshiro256::new(0x00A1_5E2C);
    for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 257, 529] {
        let key = rng.next_key128();
        let (prefix, first) = (rng.next_u64(), rng.next_u64());
        let fast = Aes128::new(&key);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let original = data.clone();

        fast.schedule().ctr_xor(prefix, first, &mut data);
        fast.schedule().ctr_xor(prefix, first, &mut data);
        assert_eq!(data, original, "double XOR not identity at {len} bytes");
    }
}

// ---------------------------------------------------------------------------
// Backend sweep: the same oracle discipline, per host engine.
// ---------------------------------------------------------------------------

#[test]
fn every_backend_encrypts_and_decrypts_like_the_reference_at_every_width() {
    for backend in available_backends() {
        let mut rng = Xoshiro256::new(0xBAC_E0D ^ backend.name().len() as u64);
        for blocks in 1usize..=33 {
            let key = rng.next_key128();
            let fast = Aes128::with_backend(&key, backend).unwrap();
            let slow = RefAes128::new(&key);
            let mut data = vec![0u8; blocks * 16];
            rng.fill_bytes(&mut data);
            let mut expect = data.clone();

            fast.encrypt_blocks(&mut data);
            reference_encrypt_blocks(&slow, &mut expect);
            assert_eq!(data, expect, "encrypt mismatch on `{}` at {blocks} blocks", backend.name());

            fast.decrypt_blocks(&mut data);
            reference_decrypt_blocks(&slow, &mut expect);
            assert_eq!(data, expect, "decrypt mismatch on `{}` at {blocks} blocks", backend.name());
        }
    }
}

#[test]
fn every_backend_keystream_matches_reference_at_every_ragged_tail() {
    for backend in available_backends() {
        let mut rng = Xoshiro256::new(0x0BAC_CB57 ^ backend.name().len() as u64);
        for blocks in 0usize..=33 {
            for tail in 0usize..=15 {
                let len = blocks * 16 + tail;
                let key = rng.next_key128();
                let (prefix, first) = (rng.next_u64(), rng.next_u64());
                let fast = Aes128::with_backend(&key, backend).unwrap();
                let slow = RefAes128::new(&key);
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                let mut expect = data.clone();

                fast.schedule().ctr_xor(prefix, first, &mut data);
                reference_ctr(&slow, prefix, first, &mut expect);
                assert_eq!(
                    data,
                    expect,
                    "keystream mismatch on `{}` at {blocks} blocks + {tail} bytes",
                    backend.name()
                );
            }
        }
    }
}

/// Cross-backend equality without the reference in the middle: every
/// engine must emit the exact ciphertext the T-table engine emits from
/// identical inputs, for batches and single blocks alike.
#[test]
fn backends_produce_identical_ciphertext_on_identical_inputs() {
    let backends = available_backends();
    let mut rng = Xoshiro256::new(0xE0_0A11);
    for blocks in [1usize, 7, 8, 9, 16, 33] {
        let key = rng.next_key128();
        let mut plain = vec![0u8; blocks * 16];
        rng.fill_bytes(&mut plain);

        let reference = Aes128::with_backend(&key, AesBackend::TTable).unwrap();
        let mut want = plain.clone();
        reference.encrypt_blocks(&mut want);

        for &backend in &backends {
            let cipher = Aes128::with_backend(&key, backend).unwrap();
            let mut got = plain.clone();
            cipher.encrypt_blocks(&mut got);
            assert_eq!(
                got,
                want,
                "`{}` ciphertext differs from ttable at {blocks} blocks",
                backend.name()
            );
            cipher.decrypt_blocks(&mut got);
            assert_eq!(got, plain, "`{}` failed to invert", backend.name());
        }
    }
}

/// FIPS-197 Appendix C known answers, per backend, for all three key
/// sizes (via the raw schedule, which is what the memory controller uses
/// for the 256-bit `Kvek`).
#[test]
fn fips197_known_answers_hold_on_every_backend() {
    let plain: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    let cases: [(&[u8], [u8; 16]); 3] = [
        (
            &[
                0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
                0x0e, 0x0f,
            ],
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a,
            ],
        ),
        (
            &[
                0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
                0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17,
            ],
            [
                0xdd, 0xa9, 0x7c, 0xa4, 0x86, 0x4c, 0xdf, 0xe0, 0x6e, 0xaf, 0x70, 0xa0, 0xec, 0x0d,
                0x71, 0x91,
            ],
        ),
        (
            &[
                0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
                0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b,
                0x1c, 0x1d, 0x1e, 0x1f,
            ],
            [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89,
            ],
        ),
    ];
    for backend in available_backends() {
        for (key, want) in &cases {
            let ks = KeySchedule::with_backend(key, backend).unwrap();
            let mut block = plain;
            ks.encrypt_block(&mut block);
            assert_eq!(
                &block,
                want,
                "FIPS-197 KAT failed on `{}` with a {}-byte key",
                backend.name(),
                key.len()
            );
            ks.decrypt_block(&mut block);
            assert_eq!(block, plain, "FIPS-197 inverse failed on `{}`", backend.name());
        }
    }
}

// ---------------------------------------------------------------------------
// Mode sweep: counter mode and the PA-tweak XEX mode, per host engine.
// ---------------------------------------------------------------------------

/// Reference PA-tweak encryption: each block XORed with the public tweak
/// mask of its own address before and after the GF-math core.
fn reference_pa_tweak(aes: &RefAes128, base_pa: u64, data: &mut [u8]) {
    for (i, chunk) in data.chunks_exact_mut(16).enumerate() {
        let mask = PaTweakCipher::tweak_mask(base_pa.wrapping_add(16 * i as u64));
        let block: &mut [u8; 16] = chunk.try_into().unwrap();
        for (b, m) in block.iter_mut().zip(mask.iter()) {
            *b ^= *m;
        }
        aes.encrypt_block(block);
        for (b, m) in block.iter_mut().zip(mask.iter()) {
            *b ^= *m;
        }
    }
}

/// One cipher per available backend, all under `key`.
fn ciphers_for(key: &[u8; 16]) -> Vec<(AesBackend, Aes128)> {
    available_backends().into_iter().map(|b| (b, Aes128::with_backend(key, b).unwrap())).collect()
}

#[test]
fn every_backend_ctr128_matches_reference_at_every_byte_length() {
    let mut rng = Xoshiro256::new(0xC7_0128);
    let key = rng.next_key128();
    let ciphers = ciphers_for(&key);
    let slow = RefAes128::new(&key);
    let mut plain = vec![0u8; 1100];
    rng.fill_bytes(&mut plain);
    for len in 0usize..=1100 {
        let (nonce, offset) = (rng.next_u64(), rng.next_u64());
        let mut want = plain[..len].to_vec();
        reference_ctr(&slow, nonce, offset, &mut want);
        for (backend, cipher) in &ciphers {
            let mut got = plain[..len].to_vec();
            Ctr128::apply_with(cipher, nonce, offset, &mut got);
            assert_eq!(got, want, "Ctr128 on `{}` at {len} bytes", backend.name());
        }
    }
    // The owning context is the same keystream.
    for (backend, cipher) in &ciphers {
        let ctr = Ctr128::from_cipher(cipher.clone(), 0xFEED);
        let mut got = plain.clone();
        ctr.apply(7, &mut got);
        let mut want = plain.clone();
        reference_ctr(&slow, 0xFEED, 7, &mut want);
        assert_eq!(got, want, "Ctr128::apply on `{}`", backend.name());
    }
}

#[test]
fn every_backend_sector_runs_match_reference() {
    let mut rng = Xoshiro256::new(0x5EC7_0125);
    let key = rng.next_key128();
    let ciphers = ciphers_for(&key);
    let slow = RefAes128::new(&key);
    for sectors in 1usize..=64 {
        let first = rng.next_u64();
        let mut plain = vec![0u8; sectors * SECTOR_SIZE];
        rng.fill_bytes(&mut plain);
        let mut want = plain.clone();
        for (s, sector) in want.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            reference_ctr(&slow, first.wrapping_add(s as u64), 0, sector);
        }
        for (backend, cipher) in &ciphers {
            let sc = SectorCipher::from_cipher(cipher.clone());
            let mut got = plain.clone();
            sc.encrypt_sectors(first, &mut got);
            assert_eq!(got, want, "SectorCipher on `{}` at {sectors} sectors", backend.name());
            sc.decrypt_sectors(first, &mut got);
            assert_eq!(got, plain, "SectorCipher round trip on `{}`", backend.name());
        }
    }
}

#[test]
fn every_backend_pa_tweak_stream_matches_reference_up_to_64k() {
    let mut rng = Xoshiro256::new(0x7A_7EA4);
    let key = rng.next_key128();
    let ciphers = ciphers_for(&key);
    let slow = RefAes128::new(&key);
    let wide = [63usize, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 1000, 2047, 2048, 4096];
    for blocks in (0usize..=40).chain(wide) {
        let base_pa = rng.next_u64();
        let mut plain = vec![0u8; 16 * blocks];
        rng.fill_bytes(&mut plain);
        let mut want = plain.clone();
        reference_pa_tweak(&slow, base_pa, &mut want);
        for (backend, cipher) in &ciphers {
            let engine = PaTweakCipher::from_cipher(cipher.clone());
            let mut got = plain.clone();
            engine.encrypt_blocks(base_pa, &mut got);
            assert_eq!(
                got,
                want,
                "PaTweakCipher on `{}` at {blocks} blocks from {base_pa:#x}",
                backend.name()
            );
            engine.decrypt_blocks(base_pa, &mut got);
            assert_eq!(got, plain, "PaTweakCipher round trip on `{}`", backend.name());
        }
    }
}

/// The 64-bit counter wraps within the low half of the counter block
/// (the nonce or sector half never carries), and the tweak address wraps
/// at `u64::MAX` — on every backend, mid-run and across run boundaries.
#[test]
fn every_backend_handles_counter_and_address_wrap() {
    let mut rng = Xoshiro256::new(0x0FF_FFFF);
    let key = rng.next_key128();
    let ciphers = ciphers_for(&key);
    let slow = RefAes128::new(&key);
    let mut plain = vec![0u8; 16 * 80 + 9];
    rng.fill_bytes(&mut plain);
    for back in 0u64..=40 {
        let offset = u64::MAX - back;
        let nonce = rng.next_u64();
        for len in [1usize, 16, 17, 100, 128, 129, 256, 300, 513, plain.len()] {
            let mut want = plain[..len].to_vec();
            reference_ctr(&slow, nonce, offset, &mut want);
            for (backend, cipher) in &ciphers {
                let mut got = plain[..len].to_vec();
                Ctr128::apply_with(cipher, nonce, offset, &mut got);
                assert_eq!(
                    got,
                    want,
                    "Ctr128 wrap on `{}`: offset {offset:#x}, {len} bytes",
                    backend.name()
                );
            }
        }
    }
    let run = &plain[..2 * SECTOR_SIZE];
    for first in [u64::MAX - 1, u64::MAX] {
        let mut want = run.to_vec();
        for (s, sector) in want.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            reference_ctr(&slow, first.wrapping_add(s as u64), 0, sector);
        }
        for (backend, cipher) in &ciphers {
            let mut got = run.to_vec();
            SectorCipher::from_cipher(cipher.clone()).encrypt_sectors(first, &mut got);
            assert_eq!(got, want, "SectorCipher wrap on `{}` from {first:#x}", backend.name());
        }
    }
    for back in 1u64..=40 {
        let base_pa = 0u64.wrapping_sub(16 * back) + (back & 3);
        for blocks in [1usize, 8, 16, 17, 32, 33, 80] {
            let mut want = plain[..16 * blocks].to_vec();
            reference_pa_tweak(&slow, base_pa, &mut want);
            for (backend, cipher) in &ciphers {
                let engine = PaTweakCipher::from_cipher(cipher.clone());
                let mut got = plain[..16 * blocks].to_vec();
                engine.encrypt_blocks(base_pa, &mut got);
                assert_eq!(
                    got,
                    want,
                    "PaTweakCipher wrap on `{}` from {base_pa:#x}, {blocks} blocks",
                    backend.name()
                );
            }
        }
    }
}
