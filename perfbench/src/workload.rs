//! What every workload shares: how a protected guest is built and torn
//! down, the exact model counters read after a run, and the interface the
//! runner drives.

use fidelius_core::lifecycle::boot_encrypted_guest;
use fidelius_core::Fidelius;
use fidelius_crypto::modes::SECTOR_SIZE;
use fidelius_sev::GuestOwner;
use fidelius_telemetry::{CycleCategory, Snapshot};
use fidelius_xen::frontend::IoPath;
use fidelius_xen::{DomainId, System, XenError};

use crate::spans::Spans;

/// DRAM of every simulated platform.
pub const DRAM: u64 = 32 * 1024 * 1024;
/// Populated pages of every guest.
pub const GUEST_PAGES: u64 = 192;
/// The kernel image the guest owner packages.
pub const KERNEL: &[u8] = b"perfbench kernel";

/// A Fidelius-protected platform with one encrypted guest on it.
pub struct Guest {
    /// The platform, hypervisor and Fidelius.
    pub sys: System,
    /// The guest.
    pub dom: DomainId,
}

/// Builds a protected `System`, packages and boots an encrypted guest and
/// attaches a `disk_sectors`-sector SEV-API block device: the sequence
/// `setup_s` times. Every call is wrapped in its layer's span.
///
/// # Errors
///
/// Any failure of the four calls.
pub fn boot_guest(sp: &mut Spans, seed: u64, disk_sectors: u64) -> Result<Guest, XenError> {
    let mut sys = new_system(sp, seed)?;
    let mut owner = GuestOwner::new(seed);
    let pdh = sys.plat.firmware.pdh_public();
    let image = sp.span("sev.package_image", |_| owner.package_image(KERNEL, &pdh));
    let dom = sp.span("core.boot_encrypted_guest", |_| {
        boot_encrypted_guest(&mut sys, &image, GUEST_PAGES)
    })?;
    sp.span("xen.setup_block_device", |_| {
        let disk = vec![0u8; disk_sectors as usize * SECTOR_SIZE];
        sys.setup_block_device(dom, disk, IoPath::SevApi, None)
    })?;
    Ok(Guest { sys, dom })
}

/// A fresh protected platform.
///
/// # Errors
///
/// Platform boot failures.
pub fn new_system(sp: &mut Spans, seed: u64) -> Result<System, XenError> {
    sp.span("xen.system_new", |_| System::new(DRAM, seed, Box::new(Fidelius::new())))
}

/// Frees a platform; its DRAM is large enough that this shows.
pub fn drop_system(sp: &mut Spans, sys: System) {
    sp.span("xen.system_drop", |_| drop(sys));
}

impl Guest {
    /// Shuts the guest down and frees the platform.
    ///
    /// # Errors
    ///
    /// Teardown failures.
    pub fn shutdown(mut self, sp: &mut Spans) -> Result<(), XenError> {
        let dom = self.dom;
        sp.span("xen.shutdown_guest", |_| self.sys.shutdown_guest(dom))?;
        drop_system(sp, self.sys);
        Ok(())
    }

    /// Modeled cycles charged on this platform so far.
    pub fn cycles(&self) -> f64 {
        self.sys.plat.machine.cycles.total_f64()
    }

    /// The model's exact counters so far.
    pub fn counts(&self) -> Counts {
        Counts::from_snapshot(&self.sys.plat.machine.telemetry_snapshot())
    }
}

/// Exact counters of the model: the same ops give the same values, bit
/// for bit, however fast the host runs them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Hardware VM exits.
    pub vmexits: u64,
    /// Fidelius gate crossings (types 1–3).
    pub gates: u64,
    /// VMCB shadow verifications (clean or tampered).
    pub shadow_verifies: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB lookups (hits + misses).
    pub tlb_lookups: u64,
    /// Page-table walks.
    pub pt_walks: u64,
    /// Grant-table operations.
    pub grant_ops: u64,
    /// Telemetry events emitted.
    pub events: u64,
    /// Telemetry events evicted from the ring.
    pub events_dropped: u64,
    /// Modeled cycles per [`CycleCategory`], in `CycleCategory::ALL` order.
    pub cycles: [f64; CycleCategory::COUNT],
}

impl Counts {
    /// Reads the counters out of a telemetry snapshot.
    pub fn from_snapshot(s: &Snapshot) -> Self {
        let m = &s.metrics;
        Counts {
            vmexits: m.vmexits_total(),
            gates: m.gates_total(),
            shadow_verifies: m.shadow_verify_clean + m.shadow_verify_tampered,
            tlb_hits: m.tlb_hits,
            tlb_lookups: m.tlb_hits + m.tlb_misses,
            pt_walks: m.pt_walks,
            grant_ops: m.grant_ops.values().sum(),
            events: s.events_total,
            events_dropped: s.events_dropped,
            cycles: s.cycles.by_category,
        }
    }

    /// Adds `o` in.
    pub fn add(&mut self, o: &Counts) {
        self.vmexits += o.vmexits;
        self.gates += o.gates;
        self.shadow_verifies += o.shadow_verifies;
        self.tlb_hits += o.tlb_hits;
        self.tlb_lookups += o.tlb_lookups;
        self.pt_walks += o.pt_walks;
        self.grant_ops += o.grant_ops;
        self.events += o.events;
        self.events_dropped += o.events_dropped;
        for (c, oc) in self.cycles.iter_mut().zip(o.cycles) {
            *c += oc;
        }
    }

    /// `self - earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut cycles = self.cycles;
        for (c, e) in cycles.iter_mut().zip(earlier.cycles) {
            *c -= e;
        }
        Counts {
            vmexits: self.vmexits - earlier.vmexits,
            gates: self.gates - earlier.gates,
            shadow_verifies: self.shadow_verifies - earlier.shadow_verifies,
            tlb_hits: self.tlb_hits - earlier.tlb_hits,
            tlb_lookups: self.tlb_lookups - earlier.tlb_lookups,
            pt_walks: self.pt_walks - earlier.pt_walks,
            grant_ops: self.grant_ops - earlier.grant_ops,
            events: self.events - earlier.events,
            events_dropped: self.events_dropped - earlier.events_dropped,
            cycles,
        }
    }

    /// Whether every counter, cycles included, is bit-identical.
    pub fn bit_eq(&self, o: &Counts) -> bool {
        let ints = |c: &Counts| {
            [
                c.vmexits,
                c.gates,
                c.shadow_verifies,
                c.tlb_hits,
                c.tlb_lookups,
                c.pt_walks,
                c.grant_ops,
                c.events,
                c.events_dropped,
            ]
        };
        ints(self) == ints(o)
            && self.cycles.iter().zip(o.cycles).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// All modeled cycles, summed in the fixed category order.
    pub fn modeled_cycles(&self) -> f64 {
        self.cycles.iter().sum()
    }

    /// The per-op count metrics: `(name, value, unit)`.
    pub fn per_op(&self, ops: u64) -> Vec<(String, f64, &'static str)> {
        let n = ops as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut out = vec![
            ("hw.vmexits_per_op".to_string(), self.vmexits as f64 / n, "count/op"),
            ("core.gates_per_op".to_string(), self.gates as f64 / n, "count/op"),
            (
                "core.shadow_verifies_per_op".to_string(),
                self.shadow_verifies as f64 / n,
                "count/op",
            ),
            ("hw.tlb_hit_ratio".to_string(), ratio(self.tlb_hits, self.tlb_lookups), "ratio"),
            ("hw.pt_walks_per_op".to_string(), self.pt_walks as f64 / n, "count/op"),
            ("xen.grant_ops_per_op".to_string(), self.grant_ops as f64 / n, "count/op"),
            ("telemetry.events_per_op".to_string(), self.events as f64 / n, "count/op"),
            (
                "telemetry.events_dropped_per_op".to_string(),
                self.events_dropped as f64 / n,
                "count/op",
            ),
        ];
        for cat in CycleCategory::ALL {
            out.push((
                format!("hw.cycles.{}_per_op", cat.as_str()),
                self.cycles[cat.index()] / n,
                "cycles/op",
            ));
        }
        out
    }
}

/// A digest of anything hashable (SipHash with fixed keys, so stable
/// from run to run).
pub fn digest(value: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// One benchmark workload, driven op by op by the runner.
///
/// Op `i` is generated from the seed and `i % PERIOD` alone (the op
/// index is stamped into payloads so stale data never verifies), so the
/// stream repeats with period [`Workload::PERIOD`] and every op of the
/// timed loop has a known modeled cost: that of the same op one period
/// earlier.
pub trait Workload: Sized {
    /// Name on the command line.
    const NAME: &'static str;
    /// Length of the op stream's period.
    const PERIOD: u64;
    /// Ops per timed chunk; throughput is the median over chunks.
    const CHUNK_OPS: u64;

    /// Builds the workload's systems for `seed`: the part `setup_s` times.
    ///
    /// # Errors
    ///
    /// Build or boot failures, as text.
    fn build(seed: u64, sp: &mut Spans) -> Result<Self, String>;

    /// Runs op `i` and checks its outputs. Returns the op's modeled
    /// cycles, or why it failed.
    ///
    /// # Errors
    ///
    /// A returned `Err`, wrong bytes read back, or a refused call.
    fn op(&mut self, i: u64, sp: &mut Spans) -> Result<f64, String>;

    /// The model's counters so far (summed over every platform the
    /// workload ran while counting was on).
    fn counts(&self) -> Counts;

    /// Turns per-op counter collection on or off, for workloads whose
    /// platforms live only as long as one op. Others always count.
    fn collect_counts(&mut self, _on: bool) {}

    /// Guest payload bytes one op moves.
    fn payload_bytes(&self) -> u64;

    /// A digest of one period of the op stream: equal for equal seeds,
    /// and printed so two runs can be told to have run the same ops.
    fn stream_digest(&self) -> u64;

    /// Tears the workload's systems down.
    ///
    /// # Errors
    ///
    /// Teardown failures, as text.
    fn teardown(self, sp: &mut Spans) -> Result<(), String>;
}
