//! The layer ladder and the calibration kernel.
//!
//! The ladder pushes the same 32 KiB window through each layer alone —
//! `crypto` (`SectorCipher` + `Ctr128`), `hw` (`MemoryController` under
//! `EncSel::Guest`), `sev` (`Firmware::io_encrypt_sectors` /
//! `io_decrypt_sectors` on a standalone machine) and `xen`
//! (`System::disk_batch`, via a short `sev_io` run) — then runs a few ops
//! of the other workloads, so every per-layer call timing is measured in
//! every traced run whatever the workload. The gap between one rung and
//! the next is the cost the upper layer adds: ring, grants, translation
//! and cycle charging on top of the raw crypto.
//!
//! The calibration kernel is a fixed T-table-shaped pass, timed before
//! every chunk of every run: a witness of host speed, not a metric of the
//! program.

use std::hint::black_box;
use std::time::Instant;

use fidelius_crypto::modes::{Ctr128, SectorCipher, SECTOR_SIZE};
use fidelius_hw::cpu::Machine;
use fidelius_hw::mem::Dram;
use fidelius_hw::memctrl::{EncSel, MemoryController};
use fidelius_hw::{Asid, Hpa, PAGE_SIZE};
use fidelius_sev::{Firmware, GuestPolicy};

use crate::exit_mix::ExitMix;
use crate::lifecycle::Lifecycle;
use crate::rng::SplitMix64;
use crate::sev_io::{SevIo, WINDOW_SECTORS};
use crate::spans::Spans;
use crate::workload::Workload;

/// Bytes in one ladder window (= one `sev_io` write window).
const WINDOW_BYTES: usize = WINDOW_SECTORS as usize * SECTOR_SIZE;
/// Windows pushed through each rung.
const WINDOWS: u64 = 64;
/// `exit_mix` ops the ladder runs (64 events each).
const EXIT_OPS: u64 = 16;
/// `lifecycle_churn` cases the ladder runs (two of them migrate).
const LIFECYCLE_OPS: u64 = 8;

/// Runs every rung, recording its spans.
///
/// # Errors
///
/// Any failing call, as text.
pub fn run(sp: &mut Spans, seed: u64) -> Result<(), String> {
    let mut buf = vec![0u8; WINDOW_BYTES];
    SplitMix64::new(seed, 0x1ADD).fill(&mut buf);

    let sectors = SectorCipher::new(&[0x11; 16]);
    let ctr = Ctr128::new(&[0x22; 16], 0xC7C7);
    for _ in 0..WINDOWS {
        sp.span("crypto.sector_window", |_| {
            sectors.encrypt_sectors(0, &mut buf);
            ctr.apply(0, &mut buf);
        });
    }

    let mut mc = MemoryController::new(Dram::new(2 * WINDOW_BYTES as u64));
    mc.install_guest_key(Asid(1), &[0x33; 16]);
    let sel = EncSel::Guest(Asid(1));
    for _ in 0..WINDOWS {
        sp.span("hw.memctrl_window", |_| {
            mc.write(Hpa(0), &buf, sel)?;
            mc.read(Hpa(0), &mut buf, sel)
        })
        .map_err(|e| format!("memctrl window: {e:?}"))?;
    }

    let mut machine = Machine::new(64 * PAGE_SIZE);
    let mut fw = Firmware::new(seed);
    let helpers = (|| {
        fw.init()?;
        let h = fw.launch_start(GuestPolicy::default())?;
        fw.launch_finish(h)?;
        fw.activate(&mut machine, h, Asid(4))?;
        fw.create_io_helpers(h)
    })()
    .map_err(|e| format!("firmware setup: {e:?}"))?;
    let (src, dst, back) = (Hpa(0), Hpa(WINDOW_BYTES as u64), Hpa(2 * WINDOW_BYTES as u64));
    machine.mc.write(src, &buf, EncSel::Guest(Asid(4))).map_err(|e| format!("{e:?}"))?;
    for _ in 0..WINDOWS {
        sp.span("sev.io_window", |_| {
            fw.io_encrypt_sectors(&mut machine, helpers.sdom, src, dst, WINDOW_SECTORS, 0)?;
            fw.io_decrypt_sectors(&mut machine, helpers.rdom, dst, back, WINDOW_SECTORS, 0)
        })
        .map_err(|e| format!("sev io window: {e:?}"))?;
    }

    rung::<SevIo>(sp, seed, WINDOWS)?;
    rung::<ExitMix>(sp, seed, EXIT_OPS)?;
    rung::<Lifecycle>(sp, seed, LIFECYCLE_OPS)
}

fn rung<W: Workload>(sp: &mut Spans, seed: u64, ops: u64) -> Result<(), String> {
    let mut w = W::build(seed, sp)?;
    for i in 0..ops {
        w.op(i, sp)?;
    }
    w.teardown(sp)
}

/// The host-speed witness: a fixed kernel shaped like T-table AES
/// (ten rounds of byte-indexed lookups into four 256-entry `u32` tables,
/// counter-mode over a 16 KiB buffer). It is this benchmark's own code,
/// so no change to the program can move it; a pass is short enough to run
/// before every timed chunk.
pub struct Calibrator {
    tables: Vec<[u32; 256]>,
    buf: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut rng = SplitMix64::new(0xCA1B, 0);
        let tables = (0..4).map(|_| std::array::from_fn(|_| rng.next_u64() as u32)).collect();
        Calibrator { tables, buf: vec![0u32; 4 * 1024] }
    }
}

impl Calibrator {
    /// One timed pass, after an untimed one that brings the tables and
    /// buffer back into cache whatever the program did before; returns
    /// MB/s.
    pub fn pass(&mut self) -> f64 {
        self.kernel();
        let start = Instant::now();
        self.kernel();
        (self.buf.len() * 4) as f64 / start.elapsed().as_secs_f64() / 1e6
    }

    fn kernel(&mut self) {
        let t = &self.tables;
        for (n, block) in self.buf.chunks_exact_mut(4).enumerate() {
            let mut s = [n as u32, 0x9E37_79B9, 0x7F4A_7C15, 0xBF58_476D];
            for round in 0..10u32 {
                s = std::array::from_fn(|j| {
                    t[0][(s[j] & 0xFF) as usize]
                        ^ t[1][((s[(j + 1) % 4] >> 8) & 0xFF) as usize]
                        ^ t[2][((s[(j + 2) % 4] >> 16) & 0xFF) as usize]
                        ^ t[3][(s[(j + 3) % 4] >> 24) as usize]
                        ^ round
                });
            }
            for (b, k) in block.iter_mut().zip(s) {
                *b ^= k;
            }
        }
        black_box(&self.buf);
    }
}
