//! Wall-clock benchmarks of the crypto substrate: the table-based
//! ("AES-NI") cipher vs the deliberately slow software path, plus the
//! key-agreement primitive used by the SEV protocol. SHA-256 throughput
//! is measured (and floored) by `micro_memstream`'s `sha256_page_stream`.

use fidelius_bench::time_ns_per_iter;
use fidelius_crypto::aes::Aes128;
use fidelius_crypto::aes_soft::SoftAes128;
use fidelius_crypto::x25519;
use std::hint::black_box;

fn main() {
    let fast = Aes128::new(&[7; 16]);
    let slow = SoftAes128::new(&[7; 16]);
    let mut block = [0xA5u8; 16];
    let ns = time_ns_per_iter(100_000, || fast.encrypt_block(black_box(&mut block)));
    println!("aes_block/table_aes128: {ns:.1} ns/iter");
    let mut block = [0xA5u8; 16];
    let ns = time_ns_per_iter(10_000, || slow.encrypt_block(black_box(&mut block)));
    println!("aes_block/soft_aes128: {ns:.1} ns/iter");

    let k = [9u8; 32];
    let ns = time_ns_per_iter(100, || x25519::scalar_mult(black_box(&k), &x25519::BASE_POINT));
    println!("x25519/scalar_mult: {ns:.0} ns/iter");
}
