//! Randomized (deterministic) tests over the hardware substrate: the
//! page-table mapper against a model, the PIT radix tree against a map,
//! the binary scanner, and the BMT. The crate's seeded Xoshiro256**
//! generator replaces the property-testing framework; every case
//! reproduces from the seeds.

use fidelius::core::pit::{Pit, PitEntry, Usage};
use fidelius::core::scanner;
use fidelius::crypto::rng::Xoshiro256;
use fidelius::hw::bmt::IntegrityTree;
use fidelius::hw::mem::{Dram, FrameAllocator};
use fidelius::hw::memctrl::{EncSel, MemoryController};
use fidelius::hw::paging::{walk, Mapper, PhysPtAccess, PTE_WRITABLE};
use fidelius::hw::{Hpa, PAGE_SIZE};
use std::collections::HashMap;

const CASES: usize = 32;

/// The mapper agrees with a HashMap model across arbitrary map/unmap
/// sequences, and the hardware walker agrees with both.
#[test]
fn mapper_matches_model() {
    let mut rng = Xoshiro256::new(0x3A99_0001);
    for _ in 0..CASES {
        let mut mc = MemoryController::new(Dram::new(512 * PAGE_SIZE));
        let mut alloc = FrameAllocator::new(Hpa(0x10_0000), 256);
        let mut acc = PhysPtAccess::new(&mut mc, EncSel::None);
        let mapper = Mapper::create(&mut acc, &mut alloc).unwrap();
        let mut model: HashMap<u64, (Hpa, bool)> = HashMap::new();
        for _ in 0..1 + rng.next_bounded(39) {
            let va = 0x40_0000 + rng.next_bounded(64) * PAGE_SIZE;
            let pa = Hpa(0x4000 + rng.next_bounded(32) * PAGE_SIZE);
            if rng.next_u64() & 1 == 1 {
                mapper.unmap(&mut acc, va).unwrap();
                model.remove(&va);
            } else {
                let flags = if rng.next_u64() & 1 == 1 { PTE_WRITABLE } else { 0 };
                mapper.map(&mut acc, &mut alloc, va, pa, flags).unwrap();
                model.insert(va, (pa, flags == PTE_WRITABLE));
            }
        }
        for (va, (pa, writable)) in &model {
            let t = walk(&mc, mapper.root(), *va + 5, EncSel::None)
                .unwrap()
                .unwrap_or_else(|m| panic!("model says {va:#x} mapped, walker missed: {m:?}"));
            assert_eq!(t.pa, pa.add(5));
            assert_eq!(t.writable, *writable);
        }
        // And some unmapped probe addresses miss.
        for probe in [0x40_0000u64 + 64 * PAGE_SIZE, 0x80_0000] {
            if !model.contains_key(&probe) {
                assert!(walk(&mc, mapper.root(), probe, EncSel::None).unwrap().is_err());
            }
        }
    }
}

/// The PIT radix tree behaves exactly like a map over sparse frames.
#[test]
fn pit_matches_model() {
    let usages = [
        Usage::XenCode,
        Usage::XenData,
        Usage::XenPageTable,
        Usage::NptPage,
        Usage::GuestPage,
        Usage::FideliusCode,
        Usage::FideliusData,
        Usage::GrantTable,
        Usage::Vmcb,
        Usage::WriteOnce,
    ];
    let mut rng = Xoshiro256::new(0x917_0002);
    for _ in 0..CASES {
        let mut pit = Pit::new();
        let mut model: HashMap<u64, PitEntry> = HashMap::new();
        for _ in 0..1 + rng.next_bounded(59) {
            let pfn = rng.next_bounded(1 << 26);
            let frame = Hpa::from_pfn(pfn);
            if rng.next_u64() & 1 == 1 {
                pit.clear(frame);
                model.remove(&pfn);
            } else {
                let e = PitEntry::new(usages[rng.next_bounded(10) as usize], 3, 4, false);
                pit.set(frame, e);
                model.insert(pfn, e);
            }
        }
        for (pfn, e) in &model {
            assert_eq!(pit.peek(Hpa::from_pfn(*pfn)), *e);
        }
        assert_eq!(pit.peek(Hpa::from_pfn(1 << 27)).usage(), Usage::Free);
    }
}

/// After `erase`, no pattern remains anywhere in the region — even when
/// random bytes happened to spell instructions, and even when erasing one
/// occurrence could have created another.
#[test]
fn scanner_erase_is_complete() {
    let mut rng = Xoshiro256::new(0x5CA_0003);
    for _ in 0..CASES {
        let len = rng.next_bounded(2048) as usize;
        let mut code = vec![0u8; len];
        for b in code.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        scanner::erase(&mut code);
        assert!(scanner::scan(&code).is_empty());
    }
}

/// BMT: any single byte change in the protected range is detected.
#[test]
fn bmt_detects_any_byte_change() {
    let mut rng = Xoshiro256::new(0x397_0004);
    for _ in 0..CASES {
        let lines = 1 + rng.next_bounded(31) as usize;
        let flip = 1 + rng.next_bounded(255) as u8;
        let base = Hpa(0x8000);
        let mut dram = Dram::new(64 * PAGE_SIZE);
        let content: Vec<u8> = (0..lines * 64).map(|i| (i % 251) as u8).collect();
        dram.write_raw(base, &content).unwrap();
        let tree = IntegrityTree::build(&dram, base, lines).unwrap();
        let off = rng.next_u64() as usize % (lines * 64);
        let mut b = [0u8; 1];
        dram.read_raw(base.add(off as u64), &mut b).unwrap();
        dram.write_raw(base.add(off as u64), &[b[0] ^ flip]).unwrap();
        assert_eq!(tree.verify_all(&dram).unwrap(), Some(base.add((off / 64 * 64) as u64)));
    }
}
