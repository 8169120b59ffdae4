//! The benchmark's own tests: every metric `BENCHMARK.json` names is
//! emitted with its unit, failures are counted, and the op stream and the
//! model counts are functions of the seed alone.

use fidelius_perfbench::run::{run, Config, Metric, Outcome};
use fidelius_perfbench::sev_io::{SevIo, DISK_SECTORS};
use fidelius_perfbench::spans::Spans;
use fidelius_perfbench::workload::{Counts, Workload};
use fidelius_perfbench::{exit_mix::ExitMix, lifecycle::Lifecycle, run_named, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> Config {
    Config { seed, seconds: 0.01, trace }
}

/// `(name, unit)` of every metric listed in one section of
/// `BENCHMARK.json` (one metric object per line).
fn listed(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| -> String {
        let at = line.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        line[at..at + line[at..].find('"').expect("string closes")].to_string()
    };
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn assert_emits(outcome: &Outcome, reported: &[Metric], section: &str, workload: &str) {
    assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.failures);
    let want = listed(section);
    assert!(!want.is_empty());
    for (name, unit) in &want {
        let got = reported.iter().find(|m| &m.name == name);
        let got = got.unwrap_or_else(|| panic!("{workload}: {section} metric {name} missing"));
        assert_eq!(got.unit, unit, "{workload}: unit of {name}");
        assert!(got.value.is_finite(), "{workload}: {name} = {}", got.value);
    }
    assert_eq!(reported.len(), want.len(), "{workload}: exactly the listed {section} metrics");
}

#[test]
fn tiny_runs_emit_every_listed_metric_with_its_unit() {
    for workload in WORKLOADS {
        let plain = run_named(workload, &tiny(3, false)).expect("runs");
        assert_emits(&plain, &plain.end_to_end, "end_to_end", workload);
        let traced = run_named(workload, &tiny(3, true)).expect("runs");
        assert_emits(&traced, &traced.per_layer, "per_layer", workload);
    }
}

/// `sev_io` with one window pushed past the end of the disk.
struct OutOfRange(SevIo);

/// The op that goes out of range: inside the first timed chunk.
const BAD_OP: u64 = 2 * SevIo::PERIOD + 3;

impl Workload for OutOfRange {
    const NAME: &'static str = "sev_io_out_of_range";
    const PERIOD: u64 = SevIo::PERIOD;
    const CHUNK_OPS: u64 = SevIo::CHUNK_OPS;

    fn build(seed: u64, sp: &mut Spans) -> Result<Self, String> {
        SevIo::build(seed, sp).map(OutOfRange)
    }
    fn op(&mut self, i: u64, sp: &mut Spans) -> Result<f64, String> {
        if i == BAD_OP {
            self.0.window(i, DISK_SECTORS, sp)
        } else {
            self.0.op(i, sp)
        }
    }
    fn counts(&self) -> Counts {
        self.0.counts()
    }
    fn payload_bytes(&self) -> u64 {
        self.0.payload_bytes()
    }
    fn stream_digest(&self) -> u64 {
        self.0.stream_digest()
    }
    fn teardown(self, sp: &mut Spans) -> Result<(), String> {
        self.0.teardown(sp)
    }
}

#[test]
fn out_of_range_sector_op_counts_as_failed() {
    let outcome = run::<OutOfRange>(&tiny(5, false)).expect("runs");
    assert!(outcome.attempted > BAD_OP);
    assert_eq!(outcome.failed, 1, "{:?}", outcome.failures);
    let message = &outcome.failures[0];
    assert!(message.starts_with(&format!("op {BAD_OP}:")), "{message}");
    assert!(message.contains(&format!("sector {DISK_SECTORS}")), "{message}");
}

/// The model-determined metrics of a run: modeled cost and every count.
fn exact(outcome: &Outcome) -> Vec<(String, u64)> {
    let modeled = outcome.end_to_end.iter().filter(|m| m.name == "modeled_cycles_per_op");
    modeled.chain(&outcome.counts).map(|m| (m.name.clone(), m.value.to_bits())).collect()
}

#[test]
fn same_seed_repeats_the_model_exactly_traced_or_not() {
    for workload in WORKLOADS {
        let a = run_named(workload, &tiny(9, false)).expect("runs");
        let b = run_named(workload, &tiny(9, false)).expect("runs");
        let traced = run_named(workload, &tiny(9, true)).expect("runs");
        assert_eq!(exact(&a), exact(&b), "{workload}: repeat");
        assert_eq!(exact(&a), exact(&traced), "{workload}: traced");
        assert_eq!(a.failed + b.failed + traced.failed, 0, "{workload}");
    }
}

fn digests<W: Workload>(seeds: [u64; 3]) -> [u64; 3] {
    let mut sp = Spans::new(false);
    seeds.map(|seed| {
        let w = W::build(seed, &mut sp).expect("builds");
        let d = w.stream_digest();
        w.teardown(&mut sp).expect("tears down");
        d
    })
}

#[test]
fn op_stream_is_a_function_of_the_seed() {
    for [a, a_again, b] in [
        digests::<SevIo>([1, 1, 2]),
        digests::<ExitMix>([1, 1, 2]),
        digests::<Lifecycle>([1, 1, 2]),
    ] {
        assert_eq!(a, a_again);
        assert_ne!(a, b);
    }
}
