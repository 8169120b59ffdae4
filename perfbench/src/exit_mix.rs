//! `exit_mix`: the per-exit costs of a protected guest.
//!
//! One protected guest issues seeded events through `System::hypercall`,
//! `gpa_read` and `gpa_write`: void and console hypercalls, grant-table
//! `GrantAccess`/`EndAccess` pairs on one pre-shared page, and encrypted
//! 4 KiB reads and writes over the guest's heap pages. One op is a batch
//! of [`EVENTS_PER_OP`] events with a fixed mix in seeded order, so every
//! op costs about the same and its latency is unimodal.

use fidelius_hw::{Gpa, PAGE_SIZE};
use fidelius_xen::frontend::gplayout;
use fidelius_xen::grants::GRANT_TABLE_ENTRIES;
use fidelius_xen::hypercall::{
    GrantOp, HC_CONSOLE_IO, HC_GRANT_TABLE_OP, HC_PRE_SHARING_OP, HC_VOID, RET_OK,
};

use crate::rng::{page_pool, stamp, SplitMix64, STAMP};
use crate::spans::Spans;
use crate::workload::{boot_guest, digest, Counts, Guest, Workload};

/// Events in one op.
pub const EVENTS_PER_OP: usize = 64;
/// Heap pages the encrypted reads and writes cover.
pub const RW_PAGES: u64 = 24;
/// The page granted to dom0 and revoked again by every grant pair.
pub const GRANT_PAGE: u64 = gplayout::HEAP_PAGE + 31;
/// Disk of the (unused) block device every workload's setup attaches.
const DISK_SECTORS: u64 = 64;

/// One guest event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Event {
    Void,
    Console,
    GrantPair,
    Read(u64),
    Write(u64),
}

/// How many of each event one op holds (sums to [`EVENTS_PER_OP`]).
const MIX: [(Event, usize); 5] = [
    (Event::Void, 12),
    (Event::Console, 8),
    (Event::GrantPair, 12),
    (Event::Read(0), 16),
    (Event::Write(0), 16),
];

/// The `exit_mix` workload.
pub struct ExitMix {
    guest: Guest,
    /// The events of each op in the period.
    ops: Vec<Vec<Event>>,
    pool: Vec<Vec<u8>>,
    /// What each heap page holds, once written: the pool page it was
    /// written from and the stamp it carried.
    expected: Vec<Option<(usize, [u8; STAMP])>>,
    scratch: Vec<u8>,
}

fn page_gpa(page: u64) -> Gpa {
    Gpa((gplayout::HEAP_PAGE + page) * PAGE_SIZE)
}

impl ExitMix {
    fn event(&mut self, i: u64, e: usize, ev: Event, sp: &mut Spans) -> Result<(), String> {
        let dom = self.guest.dom;
        let sys = &mut self.guest.sys;
        let fail = |what: &str| format!("op {i} event {e}: {what}");
        match ev {
            Event::Void => {
                let r = sp.span("xen.hypercall_void", |_| sys.hypercall(dom, HC_VOID, [0; 4]));
                match r {
                    Ok(RET_OK) => Ok(()),
                    other => Err(fail(&format!("void hypercall: {other:?}"))),
                }
            }
            Event::Console => {
                let args = [page_gpa(0).0, 16, 0, 0];
                let r =
                    sp.span("xen.hypercall_console", |_| sys.hypercall(dom, HC_CONSOLE_IO, args));
                match r {
                    Ok(RET_OK) => Ok(()),
                    other => Err(fail(&format!("console hypercall: {other:?}"))),
                }
            }
            Event::GrantPair => {
                let r = sp.span("xen.grant_pair", |_| {
                    let gref = sys.hypercall(
                        dom,
                        HC_GRANT_TABLE_OP,
                        [GrantOp::GrantAccess as u64, 0, GRANT_PAGE, 1],
                    )?;
                    if gref >= GRANT_TABLE_ENTRIES {
                        return Ok(Err(gref));
                    }
                    sys.hypercall(dom, HC_GRANT_TABLE_OP, [GrantOp::EndAccess as u64, gref, 0, 0])
                        .map(|end| if end == RET_OK { Ok(()) } else { Err(end) })
                });
                match r {
                    Ok(Ok(())) => Ok(()),
                    other => Err(fail(&format!("grant pair: {other:?}"))),
                }
            }
            Event::Write(page) => {
                // Stamping a pool page in place (not copying it) keeps the
                // benchmark's own work out of the op's time; the rest of
                // the page never changes.
                let slot = ((i as usize) * EVENTS_PER_OP + e) % self.pool.len();
                let data = &mut self.pool[slot];
                stamp(data, i, page);
                let mut stamped = [0u8; STAMP];
                stamped.copy_from_slice(&data[..STAMP]);
                self.expected[page as usize] = Some((slot, stamped));
                let data = data.as_slice();
                sp.span("xen.gpa_write_4k", |_| sys.gpa_write(dom, page_gpa(page), data, true))
                    .map_err(|err| fail(&format!("write page {page}: {err:?}")))
            }
            Event::Read(page) => {
                let buf = &mut self.scratch;
                sp.span("xen.gpa_read_4k", |_| sys.gpa_read(dom, page_gpa(page), buf, true))
                    .map_err(|err| fail(&format!("read page {page}: {err:?}")))?;
                // A page is only checked once this run has written it.
                match self.expected[page as usize] {
                    Some((slot, stamped))
                        if self.scratch[..STAMP] != stamped
                            || self.scratch[STAMP..] != self.pool[slot][STAMP..] =>
                    {
                        Err(fail(&format!("read page {page}: wrong bytes")))
                    }
                    _ => Ok(()),
                }
            }
        }
    }
}

impl Workload for ExitMix {
    const NAME: &'static str = "exit_mix";
    const PERIOD: u64 = 128;
    const CHUNK_OPS: u64 = 32;

    fn build(seed: u64, sp: &mut Spans) -> Result<Self, String> {
        let mut guest = boot_guest(sp, seed, DISK_SECTORS).map_err(|e| format!("boot: {e:?}"))?;
        let dom = guest.dom;
        let shared = sp.span("xen.hypercall_pre_sharing", |_| {
            guest.sys.hypercall(dom, HC_PRE_SHARING_OP, [0, GRANT_PAGE, 1, 1])
        });
        if !matches!(shared, Ok(RET_OK)) {
            return Err(format!("pre-sharing the grant page: {shared:?}"));
        }
        let mut rng = SplitMix64::new(seed, 0xE717);
        let ops = (0..Self::PERIOD)
            .map(|_| {
                let mut events: Vec<Event> = MIX
                    .iter()
                    .flat_map(|&(ev, n)| std::iter::repeat_n(ev, n))
                    .map(|ev| match ev {
                        Event::Read(_) => Event::Read(rng.below(RW_PAGES)),
                        Event::Write(_) => Event::Write(rng.below(RW_PAGES)),
                        other => other,
                    })
                    .collect();
                rng.shuffle(&mut events);
                events
            })
            .collect();
        Ok(ExitMix {
            guest,
            ops,
            pool: page_pool(seed, 16),
            expected: vec![None; RW_PAGES as usize],
            scratch: vec![0u8; PAGE_SIZE as usize],
        })
    }

    fn op(&mut self, i: u64, sp: &mut Spans) -> Result<f64, String> {
        let start = self.guest.cycles();
        let k = (i % Self::PERIOD) as usize;
        for e in 0..EVENTS_PER_OP {
            let ev = self.ops[k][e];
            self.event(i, e, ev, sp)?;
        }
        Ok(self.guest.cycles() - start)
    }

    fn counts(&self) -> Counts {
        self.guest.counts()
    }

    fn payload_bytes(&self) -> u64 {
        let rw: usize = MIX
            .iter()
            .filter(|(ev, _)| matches!(ev, Event::Read(_) | Event::Write(_)))
            .map(|m| m.1)
            .sum();
        rw as u64 * PAGE_SIZE
    }

    fn stream_digest(&self) -> u64 {
        digest(&(&self.ops, &self.pool))
    }

    fn teardown(self, sp: &mut Spans) -> Result<(), String> {
        self.guest.shutdown(sp).map_err(|e| format!("shutdown: {e:?}"))
    }
}
