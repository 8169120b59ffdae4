//! Differential proptest for batched cycle charging: folding a
//! [`ChargeBatch`] into a [`Cycles`] accumulator must leave every
//! per-category f64 *bit-identical* to charging the same operations one
//! at a time through `charge`/`charge_as`. The batch is a
//! simulator-speed optimization for the streaming loops; the figures it
//! produces feed telemetry snapshots that CI diffs byte-for-byte, so
//! "close" is not good enough — the fold must replay the exact same
//! sequence of f64 additions per category.
//!
//! The crate's seeded Xoshiro256** generator stands in for a
//! property-testing framework: every case is reproducible from the fixed
//! seeds, with no external dependencies. The mixes deliberately
//! interleave categories (merging is only allowed for *adjacent*
//! same-category, bit-equal-cost runs), vary unit costs so runs break,
//! include zero counts, and fold at random points mid-stream the way the
//! wrapper functions in `fidelius_hw::cpu` do at every exit edge.

use fidelius::crypto::rng::Xoshiro256;
use fidelius::hw::cycles::{ChargeBatch, CycleCategory, Cycles};

/// Draws a deliberately awkward unit cost: fractional values whose sums
/// are not exactly representable, so any reassociation of the additions
/// (e.g. multiplying `count * cost` instead of adding `count` times)
/// would change the low bits and fail the comparison.
fn draw_cost(rng: &mut Xoshiro256) -> f64 {
    // A small pool keeps bit-equal repeats frequent enough to exercise
    // run merging, while the odd denominators guarantee inexact sums.
    const POOL: [f64; 6] = [0.1, 0.3, 1.0, 7.0 / 3.0, 60.0, 113.0 / 7.0];
    POOL[rng.next_bounded(POOL.len() as u64) as usize]
}

fn draw_category(rng: &mut Xoshiro256) -> CycleCategory {
    CycleCategory::ALL[rng.next_bounded(CycleCategory::ALL.len() as u64) as usize]
}

/// Asserts bit-level equality of every category accumulator and the
/// derived totals.
fn assert_bit_identical(batched: &Cycles, sequential: &Cycles, context: &str) {
    for &cat in &CycleCategory::ALL {
        assert_eq!(
            batched.in_category(cat).to_bits(),
            sequential.in_category(cat).to_bits(),
            "{context}: {cat:?} diverged: batched {} vs sequential {}",
            batched.in_category(cat),
            sequential.in_category(cat),
        );
    }
    assert_eq!(
        batched.total_f64().to_bits(),
        sequential.total_f64().to_bits(),
        "{context}: totals diverged"
    );
}

/// Runs one randomized mix of `ops` charges through both paths. The
/// sequential side charges immediately; the batched side accumulates
/// into a [`ChargeBatch`] and folds at random points (always folding
/// whatever is left at the end, like the wrapper's final fold).
fn run_mix(seed: u64, ops: u64) {
    let mut rng = Xoshiro256::new(seed);
    let mut batched = Cycles::new();
    let mut sequential = Cycles::new();

    // Warm both accumulators with identical history so the fold lands on
    // non-trivial existing values, not zeros.
    for &cat in &CycleCategory::ALL {
        batched.charge_as(cat, 0.7);
        sequential.charge_as(cat, 0.7);
    }

    let mut batch = ChargeBatch::new();
    for _ in 0..ops {
        let cat = draw_category(&mut rng);
        let cost = draw_cost(&mut rng);
        // Zero counts must be a no-op; small counts keep runs short.
        let count = rng.next_bounded(4);
        batch.add(cat, count, cost);
        for _ in 0..count {
            sequential.charge_as(cat, cost);
        }
        // Fold mid-stream about one op in five — a batch's correctness
        // must not depend on where the stream was cut.
        if rng.next_bounded(5) == 0 {
            batched.apply_batch(&batch);
            batch.clear();
            assert_bit_identical(&batched, &sequential, "mid-stream fold");
        }
    }
    batched.apply_batch(&batch);
    assert_bit_identical(&batched, &sequential, "final fold");
}

#[test]
fn batched_charging_is_bit_identical_across_random_mixes() {
    for seed in 1..=32u64 {
        run_mix(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 400);
    }
}

#[test]
fn batched_charging_matches_charge_through_current_category() {
    // The streaming loops also charge through `charge()` (current
    // category) for plain memory accesses while engine costs defer into
    // the batch; cross-category interleaving must not perturb either
    // accumulator because the per-category add order is what matters.
    let mut rng = Xoshiro256::new(0x00C4_A6E0);
    let mut batched = Cycles::new();
    let mut sequential = Cycles::new();
    let mut batch = ChargeBatch::new();
    for _ in 0..500 {
        let span = draw_category(&mut rng);
        let prev_b = batched.enter(span);
        let prev_s = sequential.enter(span);
        for _ in 0..(1 + rng.next_bounded(3)) {
            // Immediate charge to the current category on both sides
            // (models `mem_access` in `host_translate`).
            batched.charge(1.0);
            sequential.charge(1.0);
            // Engine cost: deferred on the batched side only.
            let cost = draw_cost(&mut rng);
            batch.add(CycleCategory::CryptoEngine, 1, cost);
            sequential.charge_as(CycleCategory::CryptoEngine, cost);
        }
        batched.exit(prev_b);
        sequential.exit(prev_s);
        batched.apply_batch(&batch);
        batch.clear();
        assert_bit_identical(&batched, &sequential, "span-interleaved fold");
    }
}

#[test]
fn merged_runs_replay_as_individual_additions() {
    // `count` additions of `c` is NOT the same f64 as one addition of
    // `count * c` — this test pins that apply_batch does the former.
    let mut batch = ChargeBatch::new();
    batch.add(CycleCategory::CryptoEngine, 10, 0.1);
    let mut folded = Cycles::new();
    folded.apply_batch(&batch);

    let mut stepped = Cycles::new();
    for _ in 0..10 {
        stepped.charge_as(CycleCategory::CryptoEngine, 0.1);
    }
    assert_eq!(
        folded.in_category(CycleCategory::CryptoEngine).to_bits(),
        stepped.in_category(CycleCategory::CryptoEngine).to_bits(),
        "fold must replay count individual additions"
    );
    // And the reassociated product really is a different f64, so the
    // assertion above is not vacuous.
    assert_ne!(
        (10.0f64 * 0.1).to_bits(),
        folded.in_category(CycleCategory::CryptoEngine).to_bits(),
        "expected 10 * 0.1 to differ from ten summed 0.1s at the bit level"
    );
}
