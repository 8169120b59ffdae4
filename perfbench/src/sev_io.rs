//! `sev_io`: the retrofitted SEV-API I/O-encryption path.
//!
//! One Fidelius-protected guest with an `IoPath::SevApi` block device. One
//! op is a window of 8 × 4 KiB `BatchOp::Write`s through
//! `System::disk_batch`, then a read-back window of the same sectors,
//! verified byte for byte. Window placement is seeded across a 16 MiB
//! disk, far larger than one 32 KiB window.

use fidelius_crypto::modes::SECTOR_SIZE;
use fidelius_xen::blkif::BlkStatus;
use fidelius_xen::system::BatchOp;

use crate::rng::{page_pool, stamp, SplitMix64};
use crate::spans::Spans;
use crate::workload::{boot_guest, digest, Counts, Guest, Workload};

/// Disk size in sectors (16 MiB).
pub const DISK_SECTORS: u64 = 32 * 1024;
/// Requests per window.
pub const WINDOW_OPS: u64 = 8;
/// Sectors per request (one 4 KiB page).
pub const OP_SECTORS: u64 = 8;
/// Sectors per window.
pub const WINDOW_SECTORS: u64 = WINDOW_OPS * OP_SECTORS;

/// The `sev_io` workload.
pub struct SevIo {
    guest: Guest,
    /// Window base sector of each op in the period.
    bases: Vec<u64>,
    pool: Vec<Vec<u8>>,
}

impl SevIo {
    /// Writes op `i`'s payload as one window at `base`, reads it back and
    /// compares. Returns the modeled cycles of both dispatches.
    ///
    /// # Errors
    ///
    /// A failed dispatch, a request not completed `Ok`, or wrong bytes.
    pub fn window(&mut self, i: u64, base: u64, sp: &mut Spans) -> Result<f64, String> {
        let k = i % Self::PERIOD;
        let writes: Vec<BatchOp> = (0..WINDOW_OPS)
            .map(|j| {
                let sector = base + j * OP_SECTORS;
                let mut data = self.pool[((k * WINDOW_OPS + j) as usize) % self.pool.len()].clone();
                stamp(&mut data, i, sector);
                BatchOp::Write { sector, data }
            })
            .collect();
        let reads: Vec<BatchOp> = (0..WINDOW_OPS)
            .map(|j| BatchOp::Read { sector: base + j * OP_SECTORS, count: OP_SECTORS })
            .collect();
        let dom = self.guest.dom;
        let start = self.guest.cycles();
        let sys = &mut self.guest.sys;
        let written = sp
            .span("xen.disk_batch_write", |_| sys.disk_batch(dom, 0, &writes))
            .map_err(|e| format!("op {i}: write window at sector {base}: {e:?}"))?;
        if let Some((j, (status, _))) =
            written.iter().enumerate().find(|(_, (s, _))| *s != BlkStatus::Ok)
        {
            return Err(format!("op {i}: write {j} at sector {base}: {status:?}"));
        }
        let read = sp
            .span("xen.disk_batch_read", |_| sys.disk_batch(dom, 0, &reads))
            .map_err(|e| format!("op {i}: read window at sector {base}: {e:?}"))?;
        for (j, ((status, got), w)) in read.iter().zip(&writes).enumerate() {
            let BatchOp::Write { data, .. } = w else { unreachable!("writes only") };
            if *status != BlkStatus::Ok || got.as_deref() != Some(data.as_slice()) {
                return Err(format!(
                    "op {i}: read-back {j} at sector {base}: {status:?}, wrong bytes"
                ));
            }
        }
        Ok(self.guest.cycles() - start)
    }
}

impl Workload for SevIo {
    const NAME: &'static str = "sev_io";
    const PERIOD: u64 = 256;
    const CHUNK_OPS: u64 = 32;

    fn build(seed: u64, sp: &mut Spans) -> Result<Self, String> {
        let guest = boot_guest(sp, seed, DISK_SECTORS).map_err(|e| format!("boot: {e:?}"))?;
        let mut rng = SplitMix64::new(seed, 0x5E10);
        let slots = DISK_SECTORS / WINDOW_SECTORS;
        let bases = (0..Self::PERIOD).map(|_| rng.below(slots) * WINDOW_SECTORS).collect();
        Ok(SevIo { guest, bases, pool: page_pool(seed, 16) })
    }

    fn op(&mut self, i: u64, sp: &mut Spans) -> Result<f64, String> {
        let base = self.bases[(i % Self::PERIOD) as usize];
        self.window(i, base, sp)
    }

    fn counts(&self) -> Counts {
        self.guest.counts()
    }

    fn payload_bytes(&self) -> u64 {
        2 * WINDOW_SECTORS * SECTOR_SIZE as u64
    }

    fn stream_digest(&self) -> u64 {
        digest(&(&self.bases, &self.pool))
    }

    fn teardown(self, sp: &mut Spans) -> Result<(), String> {
        self.guest.shutdown(sp).map_err(|e| format!("shutdown: {e:?}"))
    }
}
