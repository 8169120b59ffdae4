//! `--json` round trip: run the benchmark binaries in JSON mode and parse
//! every output line back with the telemetry JSON parser.

use fidelius_telemetry::Json;
use std::process::Command;

fn run_json(bin: &str, extra: &[&str]) -> Vec<Json> {
    let mut cmd = Command::new(bin);
    cmd.arg("--json").args(extra);
    let out = cmd.output().unwrap_or_else(|e| panic!("running {bin}: {e}"));
    assert!(out.status.success(), "{bin} failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf8 output");
    let lines: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{bin}: bad JSON line {l:?}: {e}")))
        .collect();
    assert!(!lines.is_empty(), "{bin} produced no JSON output");
    lines
}

fn tables(lines: &[Json]) -> Vec<&Json> {
    lines.iter().filter(|j| j.get("table").is_some()).collect()
}

#[test]
fn micro_gates_json_round_trips() {
    let lines = run_json(env!("CARGO_BIN_EXE_micro_gates"), &["--iters", "50"]);
    let tabs = tables(&lines);
    assert_eq!(tabs.len(), 1);
    let t = tabs[0];
    assert!(t.get("table").unwrap().as_str().unwrap().contains("50 iterations"));
    let headers = t.get("headers").unwrap().as_array().unwrap();
    assert_eq!(headers[0].as_str(), Some("gate"));
    let rows = t.get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 3, "one row per gate type");

    // The appended telemetry snapshot parses and its per-category cycle
    // attribution sums to the reported total.
    let snap =
        lines.iter().find_map(|j| j.get("telemetry")).expect("micro_gates emits a telemetry line");
    let cycles = snap.get("cycles").expect("cycles breakdown");
    let total = cycles.get("total").unwrap().as_f64().unwrap();
    let sum: f64 =
        ["baseline", "world-switch", "gates", "shadow-verify", "crypto-engine", "paging"]
            .iter()
            .map(|c| cycles.get(c).unwrap().as_f64().unwrap())
            .sum();
    assert_eq!(sum, total, "category sums must equal the grand total");
    let gates = snap.get("metrics").unwrap().get("gates_by_type").unwrap();
    assert_eq!(gates.get("type1").unwrap().as_u64(), Some(50));
}

#[test]
fn micro_shadow_json_round_trips() {
    let lines = run_json(env!("CARGO_BIN_EXE_micro_shadow"), &["--iters", "20"]);
    let tabs = tables(&lines);
    assert_eq!(tabs.len(), 1);
    let rows = tabs[0].get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 4);
    // Row cells are strings; the Fidelius row must carry a numeric cost.
    let fid_row = rows[1].as_array().unwrap();
    assert_eq!(fid_row[0].as_str(), Some("Fidelius"));
    assert!(fid_row[1].as_str().unwrap().parse::<f64>().unwrap() > 0.0);
    // The protected system actually entered the guest: its telemetry
    // snapshot counts vmruns, hypercalls and shadow round trips.
    let snap = lines.iter().find_map(|j| j.get("telemetry")).expect("telemetry line");
    let metrics = snap.get("metrics").unwrap();
    assert!(metrics.get("vmruns").unwrap().as_u64().unwrap() >= 20);
    assert!(metrics.get("shadow_captures").unwrap().as_u64().unwrap() >= 20);
    assert!(metrics.get("shadow_verify_clean").unwrap().as_u64().unwrap() >= 20);
}

#[test]
fn table2_json_round_trips() {
    let lines = run_json(env!("CARGO_BIN_EXE_table2_instructions"), &[]);
    let tabs = tables(&lines);
    assert_eq!(tabs.len(), 1);
    let rows = tabs[0].get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 5, "five probed instructions");
    for row in rows {
        let cells = row.as_array().unwrap();
        assert_eq!(cells[2].as_str(), Some("erased/unmapped in Xen"));
        assert_eq!(cells[3].as_str(), Some("denied"));
    }
}

#[test]
fn micro_memstream_json_round_trips() {
    let lines = run_json(env!("CARGO_BIN_EXE_micro_memstream"), &["--iters", "3", "--mb", "1"]);
    let benches: Vec<&str> =
        lines.iter().filter_map(|j| j.get("bench").and_then(Json::as_str)).collect();
    // `soft_aes_aesni` only appears when the binary was built with the
    // `aesni` feature AND the host CPU has the instructions.
    let mut expected = vec![
        "memctrl_guest_stream",
        "memctrl_unaligned",
        "pa_tweak_stream",
        "ctr128",
        "sector_cipher",
        "soft_aes_ctr",
        "soft_aes_interleaved",
        "soft_aes_bitsliced",
    ];
    if fidelius_crypto::aes::AesBackend::AesNi.available() {
        expected.push("soft_aes_aesni");
    }
    expected.extend([
        "sha256_page_stream",
        "guest_gpa_stream",
        "guest_gpa_stream_walk",
        "guest_virt_stream",
        "guest_virt_stream_walk",
    ]);
    assert_eq!(benches, expected, "one throughput line per scenario, in order");
    for line in &lines {
        assert!(line.get("wall_ns").unwrap().as_f64().unwrap() > 0.0);
        assert!(line.get("mb_per_s").unwrap().as_f64().unwrap() > 0.0);
        assert!(line.get("bytes").unwrap().as_u64().unwrap() >= 1024 * 1024);
    }
    // Cipher-backed scenarios record which AES engine produced them so
    // bench_guard can key its floors on the backend.
    for cipher_bench in ["soft_aes_ctr", "soft_aes_interleaved", "soft_aes_bitsliced"] {
        let line = lines
            .iter()
            .find(|j| j.get("bench").and_then(Json::as_str) == Some(cipher_bench))
            .unwrap();
        assert!(
            line.get("aes_backend").and_then(Json::as_str).is_some(),
            "{cipher_bench} must carry an aes_backend tag"
        );
    }
    // The hashing scenario records the SHA-256 engine the same way.
    let sha = lines
        .iter()
        .find(|j| j.get("bench").and_then(Json::as_str) == Some("sha256_page_stream"))
        .unwrap();
    assert_eq!(
        sha.get("sha_backend").and_then(Json::as_str),
        Some(fidelius_crypto::sha256::default_backend().name())
    );
}

#[test]
fn trace_report_json_round_trips_and_writes_perfetto_trace() {
    let out = std::env::temp_dir().join(format!("fidelius_trace_report_{}", std::process::id()));
    let lines = run_json(
        env!("CARGO_BIN_EXE_trace_report"),
        &["--threads", "2", "--out", out.to_str().unwrap()],
    );
    let tabs = tables(&lines);
    assert_eq!(tabs.len(), 1, "one hotspot table");
    let rows = tabs[0].get("rows").unwrap().as_array().unwrap();
    assert!(!rows.is_empty() && rows.len() <= 10, "top-10 hotspots, got {}", rows.len());
    let meta = lines.iter().find(|j| j.get("trace_spans").is_some()).expect("trace meta line");
    assert_eq!(meta.get("trace_dropped").unwrap().as_u64(), Some(0), "ring must not overflow");
    assert!(meta.get("trace_spans").unwrap().as_u64().unwrap() > 100);

    // The Chrome trace parses with the in-tree JSON parser and carries the
    // span events plus per-ASID track names.
    let chrome = std::fs::read_to_string(out.join("fig5_trace.json")).expect("trace written");
    let parsed = Json::parse(&chrome).expect("Perfetto trace is valid JSON");
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    assert!(events.len() > 100, "expected a rich trace, got {} events", events.len());
    assert!(events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
    assert!(events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));

    let folded = std::fs::read_to_string(out.join("fig5_trace.folded")).expect("folded written");
    assert!(folded.lines().count() > 5, "expected folded stacks");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn fig5_telemetry_includes_tlb_counters() {
    let lines = run_json(env!("CARGO_BIN_EXE_fig5_speccpu"), &[]);
    let snap = lines.iter().find_map(|j| j.get("telemetry")).expect("telemetry line");
    let metrics = snap.get("metrics").unwrap();
    // The measurement machine ran real guests, so the TLB saw traffic and
    // every miss walked a table; the default capacity never evicts here.
    assert!(metrics.get("tlb_hits").unwrap().as_u64().unwrap() > 0);
    assert!(metrics.get("tlb_misses").unwrap().as_u64().unwrap() > 0);
    assert!(
        metrics.get("pt_walks").unwrap().as_u64().unwrap()
            >= metrics.get("tlb_misses").unwrap().as_u64().unwrap()
    );
    assert_eq!(metrics.get("tlb_evictions").unwrap().as_u64(), Some(0));
}
