//! `lifecycle_churn`: whole guest lifetimes, shaped like a fault-matrix
//! case without the injector.
//!
//! One op builds a fresh protected `System`, packages and boots an
//! encrypted guest, attaches a SEV-API block device, writes and reads back
//! [`IO_ROUNDS`] sectors, and then either shuts the guest down or — on one
//! seeded case of every four — migrates it (`migrate_out` → `migrate_in`)
//! into a second fresh `System` and re-reads a guest sentinel there.

use fidelius_core::migrate::{migrate_in, migrate_out};
use fidelius_crypto::modes::SECTOR_SIZE;
use fidelius_hw::{Gpa, PAGE_SIZE};
use fidelius_xen::frontend::gplayout;

use crate::rng::{page_pool, stamp, SplitMix64};
use crate::spans::Spans;
use crate::workload::{boot_guest, digest, drop_system, new_system, Counts, Guest, Workload};

/// Sectors written and read back per case.
pub const IO_ROUNDS: u64 = 4;
/// Disk of each case's block device.
const DISK_SECTORS: u64 = 64;
/// Cases per block; exactly one of them migrates.
const MIGRATE_ONE_IN: u64 = 4;

/// The `lifecycle_churn` workload.
pub struct Lifecycle {
    /// The platform seed of each case in the period.
    case_seeds: Vec<u64>,
    /// Whether each case in the period migrates.
    migrates: Vec<bool>,
    pool: Vec<Vec<u8>>,
    collect: bool,
    counts: Counts,
    /// The guest `build` boots; only `setup_s` uses it.
    setup_guest: Guest,
}

fn sentinel_gpa() -> Gpa {
    Gpa(gplayout::HEAP_PAGE * PAGE_SIZE)
}

impl Lifecycle {
    fn case(&mut self, i: u64, sp: &mut Spans) -> Result<f64, String> {
        let k = (i % Self::PERIOD) as usize;
        let seed = self.case_seeds[k];
        let fail = |what: String| format!("op {i} (platform seed {seed}): {what}");
        let mut g = boot_guest(sp, seed, DISK_SECTORS).map_err(|e| fail(format!("boot: {e:?}")))?;
        let dom = g.dom;
        let mut written = Vec::with_capacity(IO_ROUNDS as usize);
        for r in 0..IO_ROUNDS {
            let page = &self.pool[(k * IO_ROUNDS as usize + r as usize) % self.pool.len()];
            let mut data = page[..SECTOR_SIZE].to_vec();
            stamp(&mut data, i, r);
            sp.span("xen.disk_write", |_| g.sys.disk_write(dom, r, &data))
                .map_err(|e| fail(format!("write sector {r}: {e:?}")))?;
            written.push(data);
        }
        for (r, want) in (0..IO_ROUNDS).zip(&written) {
            let got = sp
                .span("xen.disk_read", |_| g.sys.disk_read(dom, r, 1))
                .map_err(|e| fail(format!("read sector {r}: {e:?}")))?;
            if got != *want {
                return Err(fail(format!("read sector {r}: wrong bytes")));
            }
        }
        if !self.migrates[k] {
            sp.span("xen.shutdown_guest", |_| g.sys.shutdown_guest(dom))
                .map_err(|e| fail(format!("shutdown: {e:?}")))?;
            let cycles = g.cycles();
            if self.collect {
                self.counts.add(&g.counts());
            }
            drop_system(sp, g.sys);
            return Ok(cycles);
        }
        let mut sentinel = [0u8; 16];
        stamp(&mut sentinel, i, seed);
        sp.span("xen.gpa_write", |_| g.sys.gpa_write(dom, sentinel_gpa(), &sentinel, true))
            .map_err(|e| fail(format!("plant sentinel: {e:?}")))?;
        let mut dst = new_system(sp, seed.wrapping_add(1))
            .map_err(|e| fail(format!("destination: {e:?}")))?;
        let pdh = dst.plat.firmware.pdh_public();
        let package = sp
            .span("core.migrate_out", |_| migrate_out(&mut g.sys, dom, &pdh))
            .map_err(|e| fail(format!("migrate_out: {e:?}")))?;
        let moved = sp
            .span("core.migrate_in", |_| migrate_in(&mut dst, &package))
            .map_err(|e| fail(format!("migrate_in: {e:?}")))?;
        let mut back = [0u8; 16];
        sp.span("xen.gpa_read", |_| dst.gpa_read(moved, sentinel_gpa(), &mut back, true))
            .map_err(|e| fail(format!("re-read sentinel: {e:?}")))?;
        if back != sentinel {
            return Err(fail("migrated sentinel: wrong bytes".into()));
        }
        let cycles = g.cycles() + dst.plat.machine.cycles.total_f64();
        if self.collect {
            self.counts.add(&g.counts());
            self.counts.add(&Counts::from_snapshot(&dst.plat.machine.telemetry_snapshot()));
        }
        drop_system(sp, g.sys);
        drop_system(sp, dst);
        Ok(cycles)
    }
}

impl Workload for Lifecycle {
    const NAME: &'static str = "lifecycle_churn";
    const PERIOD: u64 = 16;
    const CHUNK_OPS: u64 = MIGRATE_ONE_IN;

    fn build(seed: u64, sp: &mut Spans) -> Result<Self, String> {
        let setup_guest = boot_guest(sp, seed, DISK_SECTORS).map_err(|e| format!("boot: {e:?}"))?;
        let mut rng = SplitMix64::new(seed, 0x11FE);
        let case_seeds = (0..Self::PERIOD).map(|_| rng.next_u64() >> 1).collect();
        let migrates = (0..Self::PERIOD / MIGRATE_ONE_IN)
            .flat_map(|_| {
                let pick = rng.below(MIGRATE_ONE_IN);
                (0..MIGRATE_ONE_IN).map(move |j| j == pick)
            })
            .collect();
        Ok(Lifecycle {
            case_seeds,
            migrates,
            pool: page_pool(seed, 4),
            collect: false,
            counts: Counts::default(),
            setup_guest,
        })
    }

    fn op(&mut self, i: u64, sp: &mut Spans) -> Result<f64, String> {
        self.case(i, sp)
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn collect_counts(&mut self, on: bool) {
        self.collect = on;
    }

    fn payload_bytes(&self) -> u64 {
        2 * IO_ROUNDS * SECTOR_SIZE as u64
    }

    fn stream_digest(&self) -> u64 {
        digest(&(&self.case_seeds, &self.migrates, &self.pool))
    }

    fn teardown(self, sp: &mut Spans) -> Result<(), String> {
        self.setup_guest.shutdown(sp).map_err(|e| format!("shutdown: {e:?}"))
    }
}
