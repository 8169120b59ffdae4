//! The runner: set-up, the determinism reference, the timed loop, the
//! traced extras, and the metrics.
//!
//! One run goes through these steps:
//!
//! 1. **Set-up.** The workload's systems are built `SETUP_REPS` times
//!    before the loop and `EXTRA_SETUPS` times spread over it; `setup_s`
//!    is the median at nominal host speed (below). The last build before
//!    the loop is kept.
//! 2. **Reference.** Two periods of the op stream run untraced on the kept
//!    build. The second period gives every op's modeled cost and the exact
//!    per-op counts.
//! 3. **Repeat.** The same two periods run on a fresh build — traced in
//!    the traced run — and must match the reference bit for bit.
//! 4. **Timed loop.** The stream continues on the kept build in chunks of
//!    `CHUNK_OPS` ops for `--seconds`, with a short calibration pass before
//!    every chunk. Every op is checked: an `Err`, wrong bytes, or a modeled
//!    cost that differs from the same op one period earlier is a failure.
//!    In the traced run, every other chunk is traced, so traced and
//!    untraced throughput are measured side by side.
//! 5. **Ladder** (traced run only): see [`crate::ladder`].
//!
//! On a shared host, the speed a run gets changes many times a second and
//! from minute to minute with the load of other tenants. Timings therefore
//! come only from chunks and set-up builds that ran at nominal host speed
//! (the calibration passes on both sides of them ran at least at the
//! run's `NOMINAL_QUANTILE` of calibration speeds), and each is scaled
//! by the speed of its own passes to a host whose calibration kernel runs
//! at `REFERENCE_HOST_MB_PER_S`. Filter and scale look at the host,
//! never at the program, so a slower program still reads slower.

use std::time::Instant;

use crate::ladder::{self, Calibrator};
use crate::spans::{layer_of, Spans, OP_ROOT};
use crate::stats::{beyond, median, quantile};
use crate::workload::{Counts, Workload};

/// Set-up builds before the reference.
const SETUP_REPS: usize = 7;
/// Set-up builds spread evenly over the timed loop.
const EXTRA_SETUPS: usize = 24;

/// A chunk or set-up build counts only if the host ran at least this
/// quantile of the run's calibration speeds around it.
const NOMINAL_QUANTILE: f64 = 0.75;

/// Calibration speed of the reference host every timing is scaled to.
const REFERENCE_HOST_MB_PER_S: f64 = 400.0;
/// Failure messages kept for the report (all are counted).
const MAX_MESSAGES: usize = 20;
/// Layers whose self time the traced run splits op time into.
const SPLIT_LAYERS: [&str; 3] = ["xen", "core", "sev"];

/// One timed chunk of `CHUNK_OPS` ops.
struct Chunk {
    traced: bool,
    /// Ops per second over the chunk.
    rate: f64,
    /// Host speed around the chunk: the slower of the calibration passes
    /// just before and just after it, in MB/s.
    host: f64,
    /// Index of the chunk's first op latency.
    first: usize,
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Everything one run measured.
pub struct Outcome {
    /// Ops attempted (reference, repeat and timed loop).
    pub attempted: u64,
    /// Failed ops plus determinism mismatches.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Metrics of the untraced chunks.
    pub end_to_end: Vec<Metric>,
    /// Metrics of the traced run (empty when untraced).
    pub per_layer: Vec<Metric>,
    /// Exact per-op counts, in both runs.
    pub counts: Vec<Metric>,
    /// Human-readable notes: sample counts, overheads, warnings.
    pub notes: Vec<String>,
    /// The span recorder, for writing out.
    pub spans: Spans,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }
}

fn run_op<W: Workload>(w: &mut W, i: u64, sp: &mut Spans) -> Result<f64, String> {
    sp.begin_op(i + 1);
    sp.span(OP_ROOT, |sp| w.op(i, sp))
}

/// Modeled cost of each op of two periods, and the counts of the second.
struct Reference {
    cycles: Vec<f64>,
    counts: Counts,
}

fn run_reference<W: Workload>(w: &mut W, sp: &mut Spans, tally: &mut Tally) -> Reference {
    w.collect_counts(true);
    let mut before = Counts::default();
    let mut cycles = Vec::with_capacity(2 * W::PERIOD as usize);
    for i in 0..2 * W::PERIOD {
        if i == W::PERIOD {
            before = w.counts();
        }
        tally.attempted += 1;
        match run_op(w, i, sp) {
            Ok(c) => cycles.push(c),
            Err(e) => {
                tally.fail(e);
                cycles.push(f64::NAN);
            }
        }
    }
    let counts = w.counts().since(&before);
    w.collect_counts(false);
    Reference { cycles, counts }
}

/// Builds `W` once, between two calibration passes, and records
/// `(seconds, host speed)`: the host speed is the slower pass.
fn timed_build<W: Workload>(
    seed: u64,
    sp: &mut Spans,
    calibrator: &mut Calibrator,
    samples: &mut Vec<(f64, f64)>,
) -> Result<W, String> {
    let before = calibrator.pass();
    let start = Instant::now();
    let w = W::build(seed, sp)?;
    let secs = start.elapsed().as_secs_f64();
    samples.push((secs, before.min(calibrator.pass())));
    Ok(w)
}

/// The median of the samples taken at nominal host speed (of all of them
/// when none was), each scaled to the reference host.
fn nominal_median(samples: &[(f64, f64)], nominal: f64) -> Option<f64> {
    let scaled = |s: &(f64, f64)| s.0 * s.1 / REFERENCE_HOST_MB_PER_S;
    let at_speed: Vec<f64> = samples.iter().filter(|s| s.1 >= nominal).map(scaled).collect();
    let all: Vec<f64> = samples.iter().map(scaled).collect();
    median(if at_speed.is_empty() { &all } else { &at_speed })
}

/// Per span name: (total ns, self ns), to difference around the loop;
/// the recorder's bookkeeping comes last, under its own name.
fn totals(sp: &Spans) -> Vec<(&'static str, u64, u64)> {
    let names = sp.all_stats().iter().map(|s| (s.name, s.total_ns, s.self_ns));
    names.chain([(BOOKKEEPING, sp.bookkeeping_ns(), sp.bookkeeping_ns())]).collect()
}

/// Name of the recorder's own time in `totals`.
const BOOKKEEPING: &str = "trace.bookkeeping";

/// Runs workload `W` under `cfg`.
///
/// # Errors
///
/// A failed build or teardown: the workload cannot run at all.
pub fn run<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    let mut sp = Spans::new(cfg.trace);
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // 1. Set-up.
    let mut calibrator = Calibrator::default();
    let mut setup = Vec::with_capacity(SETUP_REPS + EXTRA_SETUPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let w: W = timed_build(cfg.seed, &mut sp, &mut calibrator, &mut setup)?;
        if rep + 1 < SETUP_REPS {
            w.teardown(&mut sp)?;
        } else {
            kept = Some(w);
        }
    }
    let mut w = kept.expect("at least one set-up");
    notes.push(format!("op stream digest: {:016x}", w.stream_digest()));

    // 2. Reference, untraced.
    sp.set_on(false);
    let reference = run_reference(&mut w, &mut sp, &mut tally);

    // 3. Repeat on a fresh build; traced in the traced run.
    sp.set_on(cfg.trace);
    let mut again = W::build(cfg.seed, &mut sp)?;
    let repeat = run_reference(&mut again, &mut sp, &mut tally);
    again.teardown(&mut sp)?;
    let mismatches = compare(&reference, &repeat, &mut tally);
    notes.push(format!(
        "determinism: fresh {} repeat of {} ops vs reference: {mismatches} mismatches",
        if cfg.trace { "traced" } else { "untraced" },
        2 * W::PERIOD
    ));

    // Peak memory of the program, read before the timed loop grows the
    // benchmark's own sample buffers by an amount that depends on speed.
    let peak_rss = peak_rss_mb().unwrap_or(f64::NAN);

    // 4. Timed loop.
    let period = W::PERIOD;
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut latency_us = Vec::new();
    let loop_before = totals(&sp);
    let start = Instant::now();
    let mut i = 2 * period;
    let mut extra_setups = 0;
    // A traced run needs at least one chunk of each kind.
    while start.elapsed().as_secs_f64() < cfg.seconds || (cfg.trace && chunks.len() < 2) {
        let now = start.elapsed().as_secs_f64();
        if extra_setups < EXTRA_SETUPS
            && now >= cfg.seconds * (extra_setups as f64 + 0.5) / EXTRA_SETUPS as f64
        {
            // More set-up samples, spread evenly over the run, so that
            // `setup_s` does not hang on the host's speed in one instant.
            sp.set_on(false);
            let extra: W = timed_build(cfg.seed, &mut sp, &mut calibrator, &mut setup)?;
            extra.teardown(&mut sp)?;
            extra_setups += 1;
        }
        let host_before = calibrator.pass();
        let traced = cfg.trace && chunks.len() % 2 == 1;
        sp.set_on(traced);
        let first = latency_us.len();
        let chunk_start = Instant::now();
        for _ in 0..W::CHUNK_OPS {
            let t = Instant::now();
            let result = run_op(&mut w, i, &mut sp);
            latency_us.push(t.elapsed().as_secs_f64() * 1e6);
            tally.attempted += 1;
            let expected = reference.cycles[(period + i % period) as usize];
            match result {
                Ok(c) if c.to_bits() == expected.to_bits() => {}
                Ok(c) => tally.fail(format!("op {i}: modeled cost {c} drifted from {expected}")),
                Err(e) => tally.fail(e),
            }
            i += 1;
        }
        let rate = W::CHUNK_OPS as f64 / chunk_start.elapsed().as_secs_f64();
        chunks.push(Chunk { traced, rate, host: host_before, first });
    }
    sp.set_on(false);
    let loop_after = totals(&sp);
    let payload = w.payload_bytes();
    w.teardown(&mut sp)?;

    // Host speed around each chunk: the slower of the passes on its sides.
    let mut calib: Vec<f64> = chunks.iter().map(|c| c.host).collect();
    calib.push(calibrator.pass());
    for (k, c) in chunks.iter_mut().enumerate() {
        c.host = c.host.min(calib[k + 1]);
    }
    let hosts: Vec<f64> = chunks.iter().map(|c| c.host).collect();
    let nominal = quantile(&hosts, NOMINAL_QUANTILE).unwrap_or(0.0);
    // Rates and op latencies of the traced or untraced chunks at nominal
    // host speed (all of that kind, in a run too short to have any),
    // scaled to the reference host or as measured.
    let pick = |traced: bool, nominal_only: bool, scaled: bool| -> (Vec<f64>, Vec<f64>) {
        let kind = chunks.iter().filter(|c| c.traced == traced);
        let mut sel: Vec<&Chunk> =
            kind.clone().filter(|c| !nominal_only || c.host >= nominal).collect();
        if sel.is_empty() {
            sel = kind.collect();
        }
        let speed = |c: &Chunk| if scaled { REFERENCE_HOST_MB_PER_S / c.host } else { 1.0 };
        let rates = sel.iter().map(|c| c.rate * speed(c)).collect();
        let lat = sel
            .iter()
            .flat_map(|c| {
                let s = speed(c);
                latency_us[c.first..c.first + W::CHUNK_OPS as usize].iter().map(move |l| l / s)
            })
            .collect();
        (rates, lat)
    };
    let (rates, lat) = pick(false, true, true);
    let (raw_rates, raw_lat) = pick(false, false, false);

    // End-to-end metrics, from the untraced chunks at nominal host speed.
    let nan = f64::NAN;
    let ops_per_s = median(&rates).unwrap_or(nan);
    let p99_beyond = beyond(&lat, 0.99);
    notes.push(format!(
        "samples: {} ops in {} of {} untraced chunks at nominal host speed \
         ({p99_beyond} beyond p99); {} chunks in all",
        lat.len(),
        rates.len(),
        raw_rates.len(),
        chunks.len()
    ));
    if p99_beyond < 10 {
        notes.push(format!("warning: only {p99_beyond} samples beyond p99; run longer"));
    }
    let calib_mb_per_s = median(&calib).unwrap_or(nan);
    notes.push(format!(
        "host: calibration kernel median {calib_mb_per_s:.1} MB/s, nominal from {nominal:.1} \
         MB/s; timings are scaled to a {REFERENCE_HOST_MB_PER_S} MB/s host"
    ));
    notes.push(format!(
        "as measured, all untraced chunks: {:.1} ops/s, p50 {:.2} us, p99 {:.2} us",
        median(&raw_rates).unwrap_or(nan),
        quantile(&raw_lat, 0.5).unwrap_or(nan),
        quantile(&raw_lat, 0.99).unwrap_or(nan)
    ));
    let end_to_end = vec![
        metric("setup_s", nominal_median(&setup, nominal).unwrap_or(nan), "s"),
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("op_p50_us", quantile(&lat, 0.5).unwrap_or(nan), "us"),
        metric("op_p99_us", quantile(&lat, 0.99).unwrap_or(nan), "us"),
        metric("mb_per_s", ops_per_s * payload as f64 / 1e6, "MB/s"),
        metric(
            "modeled_cycles_per_op",
            reference.counts.modeled_cycles() / period as f64,
            "cycles",
        ),
        metric("peak_rss_mb", peak_rss, "MiB"),
    ];
    let counts: Vec<Metric> = reference
        .counts
        .per_op(period)
        .into_iter()
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect();

    let mut per_layer = Vec::new();
    if cfg.trace {
        let traced_ops_per_s = median(&pick(true, true, true).0).unwrap_or(nan);
        let overhead_pct = (ops_per_s / traced_ops_per_s - 1.0) * 100.0;
        notes.push(format!(
            "tracing overhead: {ops_per_s:.1} ops/s untraced vs {traced_ops_per_s:.1} traced \
             ({overhead_pct:+.2}%)"
        ));
        per_layer.extend(split(&loop_before, &loop_after, &mut notes));
        per_layer.push(metric("trace.overhead_pct", overhead_pct, "%"));
        sp.set_on(true);
        ladder::run(&mut sp, cfg.seed)?;
        sp.set_on(false);
        per_layer.extend(call_timings(&sp, &mut tally));
        per_layer.push(metric("host.calib_mb_per_s", calib_mb_per_s, "MB/s"));
        per_layer.extend(counts.iter().cloned());
    }

    for m in end_to_end.iter().chain(&per_layer).chain(&counts) {
        if !m.value.is_finite() {
            tally.fail(format!("metric {} is not a number", m.name));
        }
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.messages,
        end_to_end,
        per_layer,
        counts,
        notes,
        spans: sp,
    })
}

/// Compares a repeat with the reference bit for bit; every differing op,
/// and differing counts, is a failure. Returns the number of mismatches.
fn compare(reference: &Reference, repeat: &Reference, tally: &mut Tally) -> u64 {
    let mut mismatches = 0;
    for (i, (a, b)) in reference.cycles.iter().zip(&repeat.cycles).enumerate() {
        // An op that failed outright was already counted.
        if a.is_finite() && b.is_finite() && a.to_bits() != b.to_bits() {
            mismatches += 1;
            tally.fail(format!("op {i}: modeled cost {b} on the repeat, {a} on the reference"));
        }
    }
    if !reference.counts.bit_eq(&repeat.counts) {
        mismatches += 1;
        tally.fail(format!(
            "counts differ on the repeat: {:?} vs reference {:?}",
            repeat.counts, reference.counts
        ));
    }
    mismatches
}

/// The traced loop's op time split by the layer of the span it was spent
/// in (self time), and the unattributed rest: benchmark glue between the
/// calls.
fn split(
    before: &[(&'static str, u64, u64)],
    after: &[(&'static str, u64, u64)],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let delta = |name: &str| -> (u64, u64) {
        let find = |v: &[(&'static str, u64, u64)]| {
            v.iter().find(|t| t.0 == name).map_or((0, 0), |t| (t.1, t.2))
        };
        let (a, b) = (find(after), find(before));
        (a.0 - b.0, a.1 - b.1)
    };
    let (op_total, op_self) = delta(OP_ROOT);
    let layer_ns = |keep: &dyn Fn(&'static str) -> bool| -> u64 {
        after
            .iter()
            .filter(|t| t.0 != OP_ROOT && t.0 != BOOKKEEPING && keep(t.0))
            .map(|t| delta(t.0).1)
            .sum()
    };
    // Shares of op time net of the recorder's own work, which an untraced
    // op does not do.
    let in_layers = layer_ns(&|_| true);
    let net = in_layers + op_self;
    let pct = |ns: u64| if net == 0 { f64::NAN } else { 100.0 * ns as f64 / net as f64 };
    let mut out: Vec<Metric> = SPLIT_LAYERS
        .iter()
        .map(|&layer| {
            let ns = layer_ns(&|name| layer_of(name) == layer);
            metric(format!("split.{layer}_pct"), pct(ns), "%")
        })
        .collect();
    let unattributed = pct(op_self);
    notes.push(format!(
        "traced op time: {:.2}% in layer spans, {unattributed:.2}% benchmark glue; recording \
         the spans took another {:.2}% on top",
        pct(in_layers),
        pct(op_total - net)
    ));
    out.push(metric("split.unattributed_pct", unattributed, "%"));
    out
}

/// Per-call host timings: the median duration of every span of a name.
const CALLS: [(&str, &str, f64, &str); 17] = [
    ("xen.system_new_us", "xen.system_new", 1e3, "us"),
    ("sev.package_image_us", "sev.package_image", 1e3, "us"),
    ("core.boot_encrypted_guest_us", "core.boot_encrypted_guest", 1e3, "us"),
    ("xen.setup_block_device_us", "xen.setup_block_device", 1e3, "us"),
    ("xen.shutdown_guest_us", "xen.shutdown_guest", 1e3, "us"),
    ("core.migrate_out_us", "core.migrate_out", 1e3, "us"),
    ("core.migrate_in_us", "core.migrate_in", 1e3, "us"),
    ("xen.disk_batch_write_us", "xen.disk_batch_write", 1e3, "us"),
    ("xen.disk_batch_read_us", "xen.disk_batch_read", 1e3, "us"),
    ("crypto.sector_window_us", "crypto.sector_window", 1e3, "us"),
    ("hw.memctrl_window_us", "hw.memctrl_window", 1e3, "us"),
    ("sev.io_window_us", "sev.io_window", 1e3, "us"),
    ("xen.hypercall_void_ns", "xen.hypercall_void", 1.0, "ns"),
    ("xen.hypercall_console_ns", "xen.hypercall_console", 1.0, "ns"),
    ("xen.grant_pair_ns", "xen.grant_pair", 1.0, "ns"),
    ("xen.gpa_read_4k_ns", "xen.gpa_read_4k", 1.0, "ns"),
    ("xen.gpa_write_4k_ns", "xen.gpa_write_4k", 1.0, "ns"),
];

fn call_timings(sp: &Spans, tally: &mut Tally) -> Vec<Metric> {
    CALLS
        .iter()
        .map(|&(name, span, scale, unit)| {
            let value = sp.stats(span).and_then(|s| median(&s.durations_ns)).map(|ns| ns / scale);
            if value.is_none() {
                tally.fail(format!("no {span} span was recorded"));
            }
            metric(name, value.unwrap_or(f64::NAN), unit)
        })
        .collect()
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
