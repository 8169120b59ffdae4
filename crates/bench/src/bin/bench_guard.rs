//! CI performance regression guard over a multi-bench baseline.
//!
//! Compares fresh `--json` runs against the committed baseline and exits
//! non-zero on a regression. Two entry shapes share the baseline file:
//!
//! * **throughput** entries (`micro_memstream`): lines with `bench` and
//!   `mb_per_s`; a drop of more than `--max-drop-pct` (default 30%)
//!   below the baseline fails. When the entry also carries a
//!   `cycles_per_byte` figure (the *modeled* cost of the same traffic),
//!   it must match the baseline **exactly** — the simulator is
//!   deterministic, so modeled drift is a behaviour change, never noise;
//! * **latency** entries (sweep wall times from `--timing`:
//!   `matrix_wall`, `fig5_wall`, `fig6_wall`, ...): lines with `bench`
//!   and `wall_ns` but no `mb_per_s`; a rise of more than
//!   `--max-rise-pct` (default 200%) above the baseline fails.
//!
//! CI machines are noisy, so both tolerances are wide: the gate exists to
//! catch order-of-magnitude regressions (an accidental `clone()` in the
//! hot loop, a lost batch path, a sweep gone sequential), not
//! single-digit drift.
//!
//! # Backend-keyed floors
//!
//! Throughput entries may carry an `"aes_backend"` field naming the host
//! AES engine that produced them (`ttable`/`bitsliced`/`aesni`). Floors
//! only bind when baseline and current ran the *same* backend: a baseline
//! recorded on hardware AES describes that hardware, and holding a
//! T-table host to it would fail CI for owning the wrong CPU. On a
//! backend mismatch the floor is skipped (loudly), while any
//! `cycles_per_byte` figure is still required to match exactly — modeled
//! cost is backend-independent by construction, so it is precisely the
//! check that must *not* be skipped. A scenario that exists only on
//! hardware AES (`soft_aes_aesni`) may be absent from the current run;
//! that is a skip, not a failure, iff the baseline marked it `aesni`.
//!
//! Hashing scenarios (`sha256_page_stream`) carry a `"sha_backend"` field
//! (`portable`/`shani`) under the same rules: the floor binds only when
//! both engine stamps match, and absence is a skip iff the baseline ran on
//! the SHA extensions.
//!
//! Usage:
//!   bench_guard --baseline BENCH_memstream.json --current current.json \
//!               [--max-drop-pct 30] [--max-rise-pct 200]

use fidelius_telemetry::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// One baseline/current entry.
#[derive(Debug, Clone, PartialEq)]
enum Entry {
    /// MB/s — higher is better, guarded with a floor keyed on the host
    /// engines. The optional modeled cycles-per-byte figure is
    /// deterministic and guarded with *exact* equality: wall clock may
    /// drift, modeled cost may not.
    Throughput {
        /// Measured MB/s.
        mbs: f64,
        /// Modeled cycles per byte, when the scenario drives a machine.
        cpb: Option<f64>,
        /// The recorded `aes_backend` then `sha_backend` stamps (either
        /// may be absent).
        engines: Vec<String>,
    },
    /// Wall nanoseconds — lower is better, guarded with a ceiling.
    Latency(f64),
}

/// Extracts `bench -> entry` from a JSON-lines document, ignoring any
/// non-bench lines (tables, telemetry, per-case records).
fn entries(doc: &str) -> Result<BTreeMap<String, Entry>, String> {
    let lines = Json::parse_lines(doc).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for line in lines {
        let Some(bench) = line.get("bench").and_then(Json::as_str) else { continue };
        if let Some(mbs) = line.get("mb_per_s").and_then(Json::as_f64) {
            let cpb = line.get("cycles_per_byte").and_then(Json::as_f64);
            let engines = ["aes_backend", "sha_backend"]
                .iter()
                .filter_map(|key| line.get(key).and_then(Json::as_str).map(|s| s.to_string()))
                .collect();
            out.insert(bench.to_string(), Entry::Throughput { mbs, cpb, engines });
        } else if let Some(wall) = line.get("wall_ns").and_then(Json::as_f64) {
            out.insert(bench.to_string(), Entry::Latency(wall));
        }
    }
    Ok(out)
}

fn run() -> Result<bool, String> {
    let baseline_path = arg_value("--baseline").ok_or("missing --baseline <file>")?;
    let current_path = arg_value("--current").ok_or("missing --current <file>")?;
    let pct_arg = |name: &str, default: f64| {
        arg_value(name)
            .map(|v| v.parse::<f64>().map_err(|_| format!("bad {name}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let max_drop_pct = pct_arg("--max-drop-pct", 30.0)?;
    let max_rise_pct = pct_arg("--max-rise-pct", 200.0)?;

    let baseline = entries(
        &std::fs::read_to_string(&baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?,
    )?;
    let current = entries(
        &std::fs::read_to_string(&current_path).map_err(|e| format!("{current_path}: {e}"))?,
    )?;
    if baseline.is_empty() {
        return Err(format!("{baseline_path}: no bench entries found"));
    }

    let mut ok = true;
    for (bench, base) in &baseline {
        let Some(cur) = current.get(bench) else {
            // A scenario recorded on a hardware engine is allowed to be
            // absent on a host without the instructions — the scenario
            // itself is hardware-conditional. Anything else missing is a
            // loss.
            if let Entry::Throughput { engines, .. } = base {
                if let Some(hw) = engines.iter().find(|e| *e == "aesni" || *e == "shani") {
                    println!(
                        "skip {bench}: baseline ran on {hw}, scenario absent here \
                         (hardware engine unavailable)"
                    );
                    continue;
                }
            }
            println!("FAIL {bench}: missing from current run");
            ok = false;
            continue;
        };
        match (base, cur) {
            (
                Entry::Throughput { mbs: base_mbs, cpb: base_cpb, engines: base_engines },
                Entry::Throughput { mbs: cur_mbs, cpb: cur_cpb, engines: cur_engines },
            ) => {
                if base_engines == cur_engines {
                    let floor = base_mbs * (1.0 - max_drop_pct / 100.0);
                    let verdict = if *cur_mbs < floor { "FAIL" } else { "ok  " };
                    println!(
                        "{verdict} {bench}: {cur_mbs:.2} MB/s vs baseline {base_mbs:.2} MB/s \
                         (floor {floor:.2} at -{max_drop_pct}%)"
                    );
                    ok &= *cur_mbs >= floor;
                } else {
                    // Different engines are different machines as far as a
                    // wall-clock floor is concerned; the modeled check
                    // below still binds.
                    let name = |engines: &Vec<String>| {
                        if engines.is_empty() {
                            "unrecorded".to_string()
                        } else {
                            engines.join("+")
                        }
                    };
                    println!(
                        "skip {bench}: floor not applied — baseline engine `{}` vs current \
                         `{}` ({cur_mbs:.2} MB/s vs {base_mbs:.2} MB/s, informational)",
                        name(base_engines),
                        name(cur_engines)
                    );
                }
                // Modeled cost is deterministic AND backend-independent:
                // any drift at all is a real behaviour change, not machine
                // noise — exact match required whenever the baseline
                // recorded the figure, even across backend mismatches.
                if let Some(base) = base_cpb {
                    match cur_cpb {
                        Some(cur) if cur == base => {
                            println!("ok   {bench}: modeled {cur} cycles/byte unchanged");
                        }
                        Some(cur) => {
                            println!(
                                "FAIL {bench}: modeled {cur} cycles/byte, baseline {base} \
                                 (exact match required)"
                            );
                            ok = false;
                        }
                        None => {
                            println!("FAIL {bench}: modeled cycles/byte missing from current run");
                            ok = false;
                        }
                    }
                }
            }
            (Entry::Latency(base_ns), Entry::Latency(cur_ns)) => {
                let ceiling = base_ns * (1.0 + max_rise_pct / 100.0);
                let verdict = if *cur_ns > ceiling { "FAIL" } else { "ok  " };
                println!(
                    "{verdict} {bench}: {:.3} ms wall vs baseline {:.3} ms \
                     (ceiling {:.3} at +{max_rise_pct}%)",
                    cur_ns / 1e6,
                    base_ns / 1e6,
                    ceiling / 1e6
                );
                ok &= *cur_ns <= ceiling;
            }
            _ => {
                println!("FAIL {bench}: baseline and current entry kinds disagree");
                ok = false;
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            println!("performance regression beyond the allowed envelope — see FAIL lines above");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_guard: {msg}");
            ExitCode::FAILURE
        }
    }
}
