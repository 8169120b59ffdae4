//! Differential oracle for the SHA-256 compression engines: every
//! available [`ShaBackend`] must produce digests *bit-identical* to the
//! portable unrolled core ([`ShaBackend::Portable`], the named oracle) for
//! every message shape the simulator feeds it. The hardware engine is a
//! host-speed optimization of the launch/migration measurement (`Mvm`);
//! attestation depends on those digests, so it is never allowed to change
//! a single output bit.
//!
//! Coverage:
//!
//! - every length 0..=1100 bytes (all padding shapes: empty, one block,
//!   the 55/56-byte spill boundary, many blocks with every ragged tail),
//!   plus seeded random lengths up to 64 KiB;
//! - seeded random `update` split points, always including the
//!   structurally interesting 0/1/55/56/63/64/65;
//! - `clone()`-then-`finalize` mid-stream, the pattern the firmware's
//!   running `measurement.clone().finalize()` relies on;
//! - the FIPS 180-4 vectors (empty, `abc`, the 448-bit two-block message,
//!   a million `a`s) and the RFC 4231 HMAC-SHA-256 cases on each engine.
//!
//! The crate's seeded Xoshiro256** generator stands in for a
//! property-testing framework (no external dependencies). A backend that
//! is unavailable in this build/host is skipped (and logged), never
//! silently substituted: with the `aesni` feature off only the portable
//! core runs; with it on, a host with the SHA extensions runs both.

use fidelius::crypto::hmac::hmac_sha256;
use fidelius::crypto::rng::Xoshiro256;
use fidelius::crypto::sha256::{default_backend, Sha256, ShaBackend};
use fidelius::crypto::CryptoError;

/// `len` bytes from the seeded stream.
fn bytes(rng: &mut Xoshiro256, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// The backends this host can actually run (always at least the oracle).
fn available_backends() -> Vec<ShaBackend> {
    for b in ShaBackend::ALL {
        if !b.available() {
            eprintln!(
                "note: SHA-256 backend `{}` unavailable in this build/host, skipped",
                b.name()
            );
        }
    }
    let backends: Vec<ShaBackend> = ShaBackend::ALL.into_iter().filter(|b| b.available()).collect();
    assert!(backends.contains(&ShaBackend::Portable), "the portable oracle is always available");
    backends
}

fn hasher(backend: ShaBackend) -> Sha256 {
    Sha256::with_backend(backend).expect("filtered to available backends")
}

/// One-shot digest on an explicit engine.
fn digest_on(backend: ShaBackend, data: &[u8]) -> [u8; 32] {
    let mut h = hasher(backend);
    h.update(data);
    h.finalize()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_backend_matches_portable_at_every_length() {
    let backends = available_backends();
    let mut rng = Xoshiro256::new(0x5A56_0001);
    let data = bytes(&mut rng, 1100);
    for len in 0..=1100 {
        let expect = digest_on(ShaBackend::Portable, &data[..len]);
        for &b in &backends {
            assert_eq!(digest_on(b, &data[..len]), expect, "{} diverged at length {len}", b.name());
        }
    }
    for case in 0..24 {
        let len = rng.next_bounded(64 * 1024 + 1) as usize;
        let msg = bytes(&mut rng, len);
        let expect = digest_on(ShaBackend::Portable, &msg);
        for &b in &backends {
            assert_eq!(
                digest_on(b, &msg),
                expect,
                "{} diverged: case {case}, length {len}",
                b.name()
            );
        }
    }
}

#[test]
fn every_backend_matches_portable_under_random_update_splits() {
    let backends = available_backends();
    let mut rng = Xoshiro256::new(0x5A56_0002);
    const EDGES: [usize; 7] = [0, 1, 55, 56, 63, 64, 65];
    for case in 0..200 {
        let len = rng.next_bounded(9000) as usize;
        let msg = bytes(&mut rng, len);
        let expect = digest_on(ShaBackend::Portable, &msg);
        // Piece lengths: the edge sizes in a rotating order, then random
        // sizes (including whole pages), until the message is used up.
        let mut pieces = Vec::new();
        let mut left = len;
        let mut i = case;
        while left > 0 {
            let want = if pieces.len() < EDGES.len() {
                EDGES[i % EDGES.len()]
            } else if rng.next_bounded(8) == 0 {
                4096
            } else {
                rng.next_bounded(300) as usize
            };
            i += 1;
            let take = want.min(left);
            pieces.push(take);
            left -= take;
        }
        for &b in &backends {
            let mut h = hasher(b);
            let mut at = 0;
            for &p in &pieces {
                h.update(&msg[at..at + p]);
                at += p;
            }
            assert_eq!(
                h.finalize(),
                expect,
                "{} diverged: case {case}, pieces {pieces:?}",
                b.name()
            );
        }
    }
}

#[test]
fn clone_then_finalize_mid_stream_matches_portable() {
    let backends = available_backends();
    let mut rng = Xoshiro256::new(0x5A56_0003);
    // The firmware measurement shape: pages into one running hasher, with
    // a snapshot digest taken between updates; plus ragged updates so the
    // snapshot also lands on a partially filled buffer.
    let mut pieces: Vec<Vec<u8>> = (0..12).map(|_| bytes(&mut rng, 4096)).collect();
    for _ in 0..24 {
        let len = rng.next_bounded(200) as usize;
        pieces.push(bytes(&mut rng, len));
    }
    for &b in &backends {
        let mut oracle = hasher(ShaBackend::Portable);
        let mut h = hasher(b);
        for (i, piece) in pieces.iter().enumerate() {
            oracle.update(piece);
            h.update(piece);
            assert_eq!(
                h.clone().finalize(),
                oracle.clone().finalize(),
                "{} snapshot diverged after piece {i}",
                b.name()
            );
        }
        assert_eq!(h.finalize(), oracle.finalize(), "{} final digest diverged", b.name());
    }
}

#[test]
fn fips180_4_vectors_hold_on_every_backend() {
    let million_a = vec![b'a'; 1_000_000];
    let vectors: [(&[u8], &str); 4] = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
    ];
    for b in available_backends() {
        for (msg, expect) in vectors {
            assert_eq!(hex(&digest_on(b, msg)), expect, "{} failed a FIPS 180-4 vector", b.name());
        }
    }
    // The default engine (what every call site gets) agrees too.
    assert_eq!(hex(&Sha256::digest(b"abc")), vectors[1].1);
}

/// HMAC-SHA-256 (RFC 2104) built on an explicitly pinned engine.
fn hmac_on(backend: ShaBackend, key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&digest_on(backend, key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = hasher(backend);
    inner.update(&k.map(|x| x ^ 0x36));
    inner.update(msg);
    let mut outer = hasher(backend);
    outer.update(&k.map(|x| x ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}

#[test]
fn rfc4231_hmac_cases_hold_on_every_backend() {
    let case4_key: Vec<u8> = (0x01..=0x19).collect();
    let cases: [(&[u8], &[u8], &str); 7] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            &case4_key,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        // Case 5 specifies a tag truncated to 128 bits.
        (&[0x0c; 20], b"Test With Truncation", "a3b6167473100ee06e0c796c2955552b"),
        (
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size \
              data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for b in available_backends() {
        for (i, (key, msg, expect)) in cases.iter().enumerate() {
            let tag = hmac_on(b, key, msg);
            assert!(hex(&tag).starts_with(expect), "{} failed RFC 4231 case {}", b.name(), i + 1);
        }
    }
    // The library HMAC (default engine) agrees with every pinned one.
    for (key, msg, expect) in cases {
        assert!(hex(&hmac_sha256(key, msg)).starts_with(expect));
    }
}

#[test]
fn unavailable_backend_is_a_typed_error_not_a_substitute() {
    assert!(default_backend().available());
    for b in ShaBackend::ALL {
        match Sha256::with_backend(b) {
            Ok(h) => assert_eq!(h.backend(), b, "a pinned hasher must run the engine it names"),
            Err(e) => assert_eq!(e, CryptoError::BackendUnavailable { backend: b.name() }),
        }
    }
}
