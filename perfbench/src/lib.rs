//! End-to-end and per-layer benchmark of the Fidelius stack.
//!
//! Three closed-loop, single-thread workloads drive the stack's public API
//! (see `perfbench/README.md` for why each exists and which layer metric
//! should move which end-to-end metric):
//!
//! - [`sev_io::SevIo`] — encrypted block I/O through the SEV-API path;
//! - [`exit_mix::ExitMix`] — hypercalls, grant pairs and encrypted guest
//!   memory accesses: the per-exit costs;
//! - [`lifecycle::Lifecycle`] — build, boot, I/O, and shutdown or
//!   migration of whole guests.
//!
//! [`run::run`] measures one workload; the binary prints the result.

#![forbid(unsafe_code)]

pub mod exit_mix;
pub mod ladder;
pub mod lifecycle;
pub mod rng;
pub mod run;
pub mod sev_io;
pub mod spans;
pub mod stats;
pub mod workload;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["sev_io", "exit_mix", "lifecycle_churn"];

/// Runs the workload named `name`.
///
/// # Errors
///
/// An unknown name, or a workload that cannot run at all.
pub fn run_named(name: &str, cfg: &run::Config) -> Result<run::Outcome, String> {
    use workload::Workload;
    match name {
        sev_io::SevIo::NAME => run::run::<sev_io::SevIo>(cfg),
        exit_mix::ExitMix::NAME => run::run::<exit_mix::ExitMix>(cfg),
        lifecycle::Lifecycle::NAME => run::run::<lifecycle::Lifecycle>(cfg),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}
