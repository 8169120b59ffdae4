//! Host wall-clock throughput of the simulated memory/crypto path.
//!
//! Unlike the paper-figure binaries, this measures *our own simulator's*
//! speed, not the modeled system: MB/s of host time for each layer the
//! encrypted-memory traffic crosses. The committed `BENCH_memstream.json`
//! baseline plus the `bench_guard` binary turn these numbers into a CI
//! regression gate.
//!
//! Scenarios:
//! - `memctrl_guest_stream` — full controller path: an aligned buffer
//!   written then read back through [`EncSel::Guest`] (tweaked AES +
//!   DRAM + telemetry accounting per access).
//! - `memctrl_unaligned`    — same, but offset by 5 bytes so every pass
//!   pays the partial-block read-modify-write at both ends.
//! - `pa_tweak_stream`      — the engine cipher alone, streaming
//!   consecutive blocks with an incrementally derived tweak.
//! - `ctr128`               — transport CTR mode (SEND/RECEIVE payloads).
//! - `sector_cipher`        — the `Kblk` disk path, sector by sector.
//! - `soft_aes_ctr`         — CTR over the software AES the paper
//!   charges >20x for. Since the raw-speed pass it delegates its bulk
//!   work to the interleaved T-table engine (same FIPS-197 bytes; the
//!   modeled `soft_aes_line` charge is what stays >20x).
//! - `soft_aes_interleaved` — the 8-way interleaved T-table block path
//!   alone (consecutive blocks, no mode overhead): the ceiling the
//!   interleaving buys every cipher built on it.
//! - `soft_aes_bitsliced`   — the same block stream on the constant-time
//!   bitsliced backend: what the side-channel-free engine costs.
//! - `soft_aes_aesni`       — the same block stream on the hardware AES
//!   backend; present only when the `aesni` feature is compiled in *and*
//!   the host CPU has the instructions.
//! - `sha256_page_stream`   — 4 KiB pages into one running SHA-256
//!   hasher, finalized once per pass: the shape of the SEND/RECEIVE
//!   migration measurement, on the default SHA engine.
//!
//! AES-dominated scenarios carry an `"aes_backend"` field naming the
//! engine they actually ran on (the default backend unless pinned, so an
//! `aesni` build reports `aesni` for the mode scenarios), and the hashing
//! scenario a `"sha_backend"` field the same way. `bench_guard` keys its
//! throughput floors on both: floors recorded on one engine are skipped —
//! not failed — when the current host runs another.
//! - `guest_gpa_stream`     — an SEV guest linearly sweeps a 1 MiB
//!   guest-physical window the way a VM actually touches its RAM: small
//!   accesses through an *identity* virtual mapping, so every access
//!   pays two-stage translation (guest table under the guest key, then
//!   the NPT) unless the TLB's cached payload short-circuits it.
//! - `guest_gpa_stream_walk` — the same stream with the machine pinned to
//!   `walk_always` (the seed's walk-every-access behaviour); the ratio to
//!   `guest_gpa_stream` is the translation-cache speedup.
//! - `guest_virt_stream`     — the same sweep through a *permuted*
//!   virtual mapping: frames are scattered, so cached translations are
//!   never host-contiguous and the pure per-page cached path (no span
//!   coalescing) is what's measured.
//! - `guest_virt_stream_walk` — `walk_always` baseline for the above.
//!
//! Flags: `--json` (JSON lines), `--iters N` (timed iterations per
//! scenario, default 9), `--mb N` (buffer megabytes, default 4),
//! `--threads N` (scenarios measured concurrently; each scenario owns its
//! buffers and results print in scenario order).
//!
//! Unlike the sweep binaries, `--threads` **defaults to 1** here: the
//! scenarios exist to measure wall-clock speed, and co-scheduling them
//! inflates every number they report. Parallel runs are for quick smoke
//! checks, not for regenerating the committed baseline.

use fidelius_bench::{arg_u64, emit_throughput, measure_throughput, note, Throughput};
use fidelius_crypto::aes::{default_backend, Aes128, AesBackend};
use fidelius_crypto::aes_soft::SoftAes128;
use fidelius_crypto::modes::{Ctr128, PaTweakCipher, SectorCipher, SECTOR_SIZE};
use fidelius_crypto::sha256::{self, Sha256};
use fidelius_hw::cpu::{Machine, PrivOp};
use fidelius_hw::mem::{Dram, FrameAllocator};
use fidelius_hw::memctrl::{EncSel, MemoryController};
use fidelius_hw::paging::{Mapper, OffsetPtAccess, PhysPtAccess, PTE_WRITABLE};
use fidelius_hw::regs::{Cr0, Efer};
use fidelius_hw::vmcb::{VmcbField, VmcbImage};
use fidelius_hw::{Asid, Gva, Hpa, Hva, PAGE_SIZE};

/// Full memory-controller path, aligned: write + read through Kvek.
fn memctrl_guest_stream(iters: u32, len: usize) -> Throughput {
    let mut buf = vec![0xA5u8; len];
    let dram_pages = (len as u64 / PAGE_SIZE + 2).next_power_of_two();
    let mut mc = MemoryController::new(Dram::new(dram_pages * PAGE_SIZE));
    mc.install_guest_key(Asid(1), &[0x5C; 16]);
    let sel = EncSel::Guest(Asid(1));
    measure_throughput("memctrl_guest_stream", 2 * len as u64, iters, || {
        mc.write(Hpa(0), &buf, sel).expect("write");
        mc.read(Hpa(0), &mut buf, sel).expect("read");
    })
    .with_aes_backend(default_backend().name())
}

/// Unaligned: every iteration pays head+tail RMW around the stream.
fn memctrl_unaligned(iters: u32, len: usize) -> Throughput {
    let mut buf = vec![0xA5u8; len];
    let dram_pages = (len as u64 / PAGE_SIZE + 2).next_power_of_two();
    let mut mc = MemoryController::new(Dram::new(dram_pages * PAGE_SIZE));
    mc.install_guest_key(Asid(1), &[0x5C; 16]);
    let sel = EncSel::Guest(Asid(1));
    measure_throughput("memctrl_unaligned", 2 * (len as u64 - 32), iters, || {
        mc.write(Hpa(5), &buf[..len - 32], sel).expect("write");
        mc.read(Hpa(5), &mut buf[..len - 32], sel).expect("read");
    })
    .with_aes_backend(default_backend().name())
}

/// Engine cipher alone, streaming tweak.
fn pa_tweak_stream(iters: u32, len: usize) -> Throughput {
    let mut buf = vec![0xA5u8; len];
    let engine = PaTweakCipher::new(&[0x31; 16]);
    measure_throughput("pa_tweak_stream", len as u64, iters, || {
        engine.encrypt_blocks(0x4000, &mut buf);
    })
    .with_aes_backend(default_backend().name())
}

/// Transport CTR.
fn ctr128(iters: u32, len: usize) -> Throughput {
    let mut buf = vec![0xA5u8; len];
    let ctr = Ctr128::new(&[7; 16], 0xFEED);
    measure_throughput("ctr128", len as u64, iters, || {
        ctr.apply(0, &mut buf);
    })
    .with_aes_backend(default_backend().name())
}

/// Disk sectors under Kblk.
fn sector_cipher(iters: u32, len: usize) -> Throughput {
    let mut buf = vec![0xA5u8; len];
    let sc = SectorCipher::new(&[0x11; 16]);
    measure_throughput("sector_cipher", len as u64, iters, || {
        for (i, sector) in buf.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            sc.encrypt_sector(i as u64, sector);
        }
    })
    .with_aes_backend(default_backend().name())
}

/// The software AES the paper's >20x slowdown models.
fn soft_aes_ctr(iters: u32, len: usize) -> Throughput {
    let mut buf = vec![0xA5u8; len];
    let soft = SoftAes128::new(&[7; 16]);
    measure_throughput("soft_aes_ctr", len as u64, iters, || {
        soft.ctr_apply(0x1234, &mut buf);
    })
    .with_aes_backend(default_backend().name())
}

/// The interleaved T-table block path by itself: 8 blocks in flight per
/// round-loop iteration, consecutive blocks, no mode around it. Pinned
/// to the T-table backend so the number stays comparable across builds.
fn soft_aes_interleaved(iters: u32, len: usize) -> Throughput {
    let mut buf = vec![0xA5u8; len];
    let aes = Aes128::with_backend(&[7; 16], AesBackend::TTable).expect("always available");
    measure_throughput("soft_aes_interleaved", len as u64, iters, || {
        aes.encrypt_blocks(&mut buf);
    })
    .with_aes_backend(AesBackend::TTable.name())
}

/// The same block stream on the constant-time bitsliced backend: the
/// price of the no-secret-indexed-loads guarantee, measured.
fn soft_aes_bitsliced(iters: u32, len: usize) -> Throughput {
    let mut buf = vec![0xA5u8; len];
    let aes = Aes128::with_backend(&[7; 16], AesBackend::Bitsliced).expect("always available");
    measure_throughput("soft_aes_bitsliced", len as u64, iters, || {
        aes.encrypt_blocks(&mut buf);
    })
    .with_aes_backend(AesBackend::Bitsliced.name())
}

/// The same block stream on the hardware AES instructions. Only run when
/// the backend is actually available (see `main`).
fn soft_aes_aesni(iters: u32, len: usize) -> Throughput {
    let mut buf = vec![0xA5u8; len];
    let aes = Aes128::with_backend(&[7; 16], AesBackend::AesNi).expect("availability checked");
    measure_throughput("soft_aes_aesni", len as u64, iters, || {
        aes.encrypt_blocks(&mut buf);
    })
    .with_aes_backend(AesBackend::AesNi.name())
}

/// The migration measurement shape: every page of the buffer through one
/// running hasher, then one digest.
fn sha256_page_stream(iters: u32, len: usize) -> Throughput {
    let buf = vec![0xA5u8; len];
    measure_throughput("sha256_page_stream", len as u64, iters, || {
        let mut h = Sha256::new();
        for page in buf.chunks(PAGE_SIZE as usize) {
            h.update(page);
        }
        std::hint::black_box(h.finalize());
    })
    .with_sha_backend(sha256::default_backend().name())
}

/// Host-physical base of the guest's memory for the stream scenarios.
const GUEST_BASE: Hpa = Hpa(0x10_0000);
/// Pages in the streamed guest window (1 MiB of translations).
const STREAM_PAGES: u64 = 256;
/// Bytes per guest access. Deliberately small: each access costs one
/// translation, so the walk-vs-hit difference dominates the data copy.
const STREAM_ACCESS: usize = 32;

/// A running SEV guest whose GPA pages 0..[`STREAM_PAGES`] map onto host
/// memory at [`GUEST_BASE`], with a stage-1 table mapping the same range
/// of GVA pages either identity (`permute == false`) or scattered by a
/// page permutation. The guest page tables live just past the data
/// window; the stage-1 leaves carry no C-bit so the data path itself is
/// raw and only translation cost varies between the cached and
/// walk-always runs — under SEV the *tables* are still read through the
/// guest key, which is exactly what makes a walk expensive.
fn stream_guest_machine(permute: bool) -> Machine {
    let npt_pages = STREAM_PAGES + 16;
    let alloc_base = Hpa(GUEST_BASE.0 + npt_pages * PAGE_SIZE);
    let mut m = Machine::new((alloc_base.0 + 64 * PAGE_SIZE).next_power_of_two());
    let mut alloc = FrameAllocator::new(alloc_base, 64);
    let host_mapper = {
        let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
        let mapper = Mapper::create(&mut acc, &mut alloc).expect("host mapper");
        mapper.map_range(&mut acc, &mut alloc, 0, Hpa(0), 256, PTE_WRITABLE).expect("host map");
        mapper
    };
    m.cpu.cr3 = host_mapper.root();
    m.cpu.cr0 = Cr0::enabled();
    m.cpu.efer = Efer { nxe: true, svme: true };

    let asid = Asid(7);
    m.mc.install_guest_key(asid, &[0x5C; 16]);
    let npt = {
        let mut acc = PhysPtAccess::new(&mut m.mc, EncSel::None);
        let npt = Mapper::create(&mut acc, &mut alloc).expect("npt");
        npt.map_range(&mut acc, &mut alloc, 0, GUEST_BASE, npt_pages, PTE_WRITABLE)
            .expect("npt map");
        npt
    };
    let gcr3 = {
        let mut galloc = FrameAllocator::new(Hpa(STREAM_PAGES * PAGE_SIZE), 16);
        let mut acc = OffsetPtAccess::new(&mut m.mc, GUEST_BASE, EncSel::Guest(asid));
        let gpt = Mapper::create(&mut acc, &mut galloc).expect("guest mapper");
        for page in 0..STREAM_PAGES {
            // 77 is coprime to STREAM_PAGES, so the permuted map is a
            // bijection over the window.
            let frame = if permute { (page * 77 + 13) % STREAM_PAGES } else { page };
            gpt.map(&mut acc, &mut galloc, page * PAGE_SIZE, Hpa(frame * PAGE_SIZE), PTE_WRITABLE)
                .expect("guest map");
        }
        gpt.root().0
    };
    let vmcb_pa = Hpa(0xF000);
    let mut img = VmcbImage::new();
    img.set(VmcbField::Asid, asid.0 as u64)
        .set(VmcbField::SevEnable, 1)
        .set(VmcbField::NCr3, npt.root().0)
        .set(VmcbField::Cr3, gcr3)
        .set(VmcbField::Rip, 0x1000)
        .set(VmcbField::Cr0, Cr0::enabled().to_bits());
    img.store(&mut m.mc, vmcb_pa).expect("vmcb store");
    m.host_write(Hva(0x2100), &[0x0F, 0x01, 0xD8]).expect("plant vmrun");
    m.exec_priv(Hva(0x2100), PrivOp::Vmrun(vmcb_pa)).expect("vmrun");
    m
}

/// Guest write+read sweep through the guest's own page tables; `permute`
/// selects the scattered stage-1 mapping and `walk` pins the seed's
/// walk-every-access oracle mode.
fn run_guest_stream(
    name: &'static str,
    permute: bool,
    walk: bool,
    iters: u32,
    len: usize,
) -> Throughput {
    let mut m = stream_guest_machine(permute);
    m.set_walk_always(walk);
    let window = (STREAM_PAGES * PAGE_SIZE) as usize;
    let wbuf = [0xA5u8; STREAM_ACCESS];
    let mut rbuf = [0u8; STREAM_ACCESS];
    let steps = len / (2 * STREAM_ACCESS);
    let mut pass = |m: &mut fidelius_hw::cpu::Machine| {
        for s in 0..steps {
            let va = Gva(((s * 2 * STREAM_ACCESS) % window) as u64);
            m.guest_write(va, &wbuf).expect("guest write");
            m.guest_read(va, &mut rbuf).expect("guest read");
        }
    };
    // Modeled cost of one steady-state pass (after a warm-up pass settles
    // the TLB): deterministic, so the regression guard holds it to exact
    // equality while the wall numbers below are free to drift.
    pass(&mut m);
    let before = m.cycles.total_f64();
    pass(&mut m);
    let modeled = m.cycles.total_f64() - before;
    measure_throughput(name, len as u64, iters, || pass(&mut m))
        .with_cycles_per_byte(modeled / len as f64)
}

fn guest_gpa_stream(iters: u32, len: usize) -> Throughput {
    run_guest_stream("guest_gpa_stream", false, false, iters, len)
}

fn guest_gpa_stream_walk(iters: u32, len: usize) -> Throughput {
    run_guest_stream("guest_gpa_stream_walk", false, true, iters, len)
}

fn guest_virt_stream(iters: u32, len: usize) -> Throughput {
    run_guest_stream("guest_virt_stream", true, false, iters, len)
}

fn guest_virt_stream_walk(iters: u32, len: usize) -> Throughput {
    run_guest_stream("guest_virt_stream_walk", true, true, iters, len)
}

fn main() {
    let iters = arg_u64("--iters", 9) as u32;
    let mb = arg_u64("--mb", 4).max(1);
    let threads = arg_u64("--threads", 1).max(1) as usize;
    let len = (mb * 1024 * 1024) as usize;
    note!("== Simulator memory-path throughput (host wall-clock, {mb} MiB buffer, {threads} threads) ==");

    let mut scenarios: Vec<fn(u32, usize) -> Throughput> = vec![
        memctrl_guest_stream,
        memctrl_unaligned,
        pa_tweak_stream,
        ctr128,
        sector_cipher,
        soft_aes_ctr,
        soft_aes_interleaved,
        soft_aes_bitsliced,
    ];
    if AesBackend::AesNi.available() {
        scenarios.push(soft_aes_aesni);
    } else {
        note!("  (soft_aes_aesni skipped: hardware AES backend unavailable in this build/host)");
    }
    scenarios.extend([
        sha256_page_stream,
        guest_gpa_stream,
        guest_gpa_stream_walk,
        guest_virt_stream,
        guest_virt_stream_walk,
    ] as [fn(u32, usize) -> Throughput; 5]);
    let results =
        fidelius_par::par_map_ordered(&scenarios, threads, |_, scenario| scenario(iters, len));
    for t in &results {
        emit_throughput(t);
    }
}
