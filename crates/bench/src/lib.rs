//! Experiment harness for the HPCA'14 thread-block-scheduling
//! reproduction: regenerates every table and figure of the (reconstructed)
//! evaluation — see `DESIGN.md` for the experiment index E1–E11 and
//! `EXPERIMENTS.md` for measured results.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p gpgpu-bench --bin exp -- --all
//! ```
//!
//! or a single experiment (`e1` … `e11`), writing CSVs under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod codec;
pub mod engine;
pub mod experiments;
pub mod report;
pub mod service;
pub mod simcheck;
pub mod store;
pub mod table;

pub use engine::{EngineSummary, ReplayMode, RunEngine, RunKey, RunKind, RunProfile, RunResult, RunSpec};
pub use gpgpu_sim::json;
pub use service::ServerStats;
pub use store::ResultStore;
pub use table::Table;

use gpgpu_sim::GpuConfig;
use gpgpu_workloads::Scale;

/// Shared harness settings.
#[derive(Debug, Clone)]
pub struct Harness {
    /// GPU configuration for every run (defaults to Fermi).
    pub gpu: GpuConfig,
    /// Workload scale (defaults to `Small`).
    pub scale: Scale,
    /// Per-run cycle budget.
    pub max_cycles: u64,
    /// Directory CSVs are written to.
    pub out_dir: std::path::PathBuf,
    /// Worker threads the [`RunEngine`] fans unique runs out over
    /// (defaults to [`default_jobs`]).
    pub jobs: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            gpu: GpuConfig::fermi(),
            scale: Scale::Small,
            max_cycles: 400_000_000,
            out_dir: "results".into(),
            jobs: default_jobs(),
        }
    }
}

impl Harness {
    /// A faster configuration for smoke tests (tiny workloads).
    pub fn quick() -> Self {
        Harness {
            scale: Scale::Tiny,
            ..Self::default()
        }
    }

    /// A [`RunEngine`] sized to this harness's worker count.
    pub fn engine(&self) -> RunEngine {
        RunEngine::new(self.jobs)
    }
}

/// Runs closures in parallel on up to `jobs` OS threads, preserving input
/// order in the output. Used to fan experiment sweeps across cores (each
/// simulation itself is single-threaded and deterministic).
pub fn parallel_map<T, F>(inputs: Vec<F>, jobs: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    use std::sync::Mutex;
    let n = inputs.len();
    let work: Mutex<Vec<(usize, F)>> = Mutex::new(inputs.into_iter().enumerate().rev().collect());
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1).min(n.max(1)) {
            s.spawn(|| loop {
                let item = work.lock().expect("not poisoned").pop();
                let Some((i, f)) = item else { break };
                let r = f();
                results.lock().expect("not poisoned")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("not poisoned")
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

/// Default parallelism for sweeps.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
