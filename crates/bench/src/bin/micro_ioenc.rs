//! Micro-benchmark 3: 512 MB memory copy under three I/O encryption
//! approaches (paper §7.2: AES-NI +11.49%, SEV/SME engine +8.69%,
//! software-emulated >20x), all three from the modeled per-line costs.

use fidelius_hw::cycles::CostModel;

fn main() {
    let m = CostModel::default();
    // Simulated-cycle account for a 512 MB copy (per 64-byte line).
    let lines = 512.0 * 1024.0 * 1024.0 / 64.0;
    let base = lines * m.memcpy_line;
    let aesni = lines * (m.memcpy_line + m.aesni_line);
    let sme = lines * (m.memcpy_line + m.engine_line_extra);
    let soft = lines * (m.memcpy_line + m.soft_aes_line);
    fidelius_bench::emit_table(
        "Micro 3 — 512 MB copy, simulated cycles",
        &["approach", "cycles", "slowdown", "paper"],
        &[
            vec!["plain copy".into(), format!("{base:.3e}"), "-".into(), "-".into()],
            vec![
                "AES-NI".into(),
                format!("{aesni:.3e}"),
                fidelius_bench::pct(100.0 * (aesni - base) / base),
                "+11.49%".into(),
            ],
            vec![
                "SEV/SME engine".into(),
                format!("{sme:.3e}"),
                fidelius_bench::pct(100.0 * (sme - base) / base),
                "+8.69%".into(),
            ],
            vec![
                "software emulated".into(),
                format!("{soft:.3e}"),
                format!("{:.1}x", soft / base),
                ">20x".into(),
            ],
        ],
    );
}
