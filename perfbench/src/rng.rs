//! The benchmark's own seeded input generator (SplitMix64). Kept apart
//! from the program's PRNGs so a change to the program can never change
//! the benchmark's inputs.

/// SplitMix64: tiny, fast, and every seed gives a full-period stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream derived from `seed` and a per-use `stream` tag, so the
    /// separate input streams of one workload never overlap.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is irrelevant
    /// at the bounds used here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fills `out` with random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A pool of random 4 KiB pages the workloads draw write payloads from,
/// so no op pays for generating fresh random bytes.
pub fn page_pool(seed: u64, pages: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed, 0x9A6E);
    (0..pages)
        .map(|_| {
            let mut page = vec![0u8; 4096];
            rng.fill(&mut page);
            page
        })
        .collect()
}

/// Bytes of a payload that [`stamp`] overwrites.
pub const STAMP: usize = 16;

/// Writes the op index and a location tag into the first [`STAMP`] bytes
/// of a payload, so data left over from an earlier op never reads as
/// correct.
pub fn stamp(buf: &mut [u8], op: u64, tag: u64) {
    buf[..8].copy_from_slice(&op.to_le_bytes());
    buf[8..STAMP].copy_from_slice(&tag.to_le_bytes());
}
