//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints what it ran on, its notes and every metric by name and unit,
//! then, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics in the untraced run (`--trace 0`), the per-layer metrics in the
//! traced run (`--trace 1`). The traced run also writes its spans to
//! `.bench_out/<workload>.spans.csv`.

use std::process::ExitCode;

use fidelius_crypto::aes::{default_backend, AesBackend};
use fidelius_perfbench::run::{Config, Metric};
use fidelius_perfbench::{run_named, WORKLOADS};

/// The AES engine measured unless `FIDELIUS_AES_BACKEND` names another.
/// On the T-table engine `sev_io` is AES-bound and hides every other layer.
const PINNED_BACKEND: &str = "aesni";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed =
                    value.parse().map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                args.seconds =
                    value.parse().map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.len() >= 12 {
        id[..12].to_string()
    } else {
        "unknown".into()
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("#   {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("FIDELIUS_AES_BACKEND").is_none() {
        // Single-threaded here: nothing else reads the environment yet.
        std::env::set_var("FIDELIUS_AES_BACKEND", PINNED_BACKEND);
    }
    // Fails loudly when the pinned engine cannot run on this host.
    let backend = default_backend();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} aes_backend={} \
         features=fidelius-crypto/aesni aesni_available={} threads=1 host_cpus={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        backend.name(),
        AesBackend::AesNi.available(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        commit(),
    );
    let cfg = Config { seed: args.seed, seconds: args.seconds, trace: args.trace };
    let outcome = match run_named(&args.workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} cannot run: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for f in &outcome.failures {
        println!("# FAILED: {f}");
    }
    print_metrics("end-to-end (untraced chunks)", &outcome.end_to_end);
    print_metrics("model counts per op (exact)", &outcome.counts);
    if args.trace {
        print_metrics("per-layer (traced run)", &outcome.per_layer);
        let path = std::path::PathBuf::from(format!(".bench_out/{}.spans.csv", args.workload));
        match outcome.spans.write_csv(&path) {
            Ok(()) => println!(
                "# spans: {} closed, written to {}",
                outcome.spans.closed(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let reported = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
