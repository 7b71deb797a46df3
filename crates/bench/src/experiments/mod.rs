//! The reconstructed evaluation, experiment by experiment (E1–E11).
//!
//! Each experiment regenerates one table/figure of the paper's evaluation
//! (see `DESIGN.md` for the index and `EXPERIMENTS.md` for measured
//! results and the expected shapes). Every experiment returns one or more
//! [`Table`]s; the `exp` binary prints them and writes CSVs.
//!
//! Experiments are two-phase: [`plan_experiment`] contributes the
//! [`RunSpec`]s an experiment needs, a shared [`RunEngine`] executes the
//! combined batch (deduplicating identical specs within and across
//! experiments, in parallel), and [`collect_experiment`] builds the tables
//! from the memoized results.

pub mod e01_config;
pub mod e02_characterization;
pub mod e03_cta_sweep;
pub mod e04_warp_sched;
pub mod e05_lcs;
pub mod e06_lcs_accuracy;
pub mod e07_bcs;
pub mod e08_cke;
pub mod e09_sensitivity;
pub mod e10_cache_size;
pub mod e11_generated;

use crate::{Harness, RunEngine, RunSpec, Table};
use tbs_core::{CtaPolicy, WarpPolicy};

/// All experiment ids, in order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
    ]
}

/// The specs experiment `id` needs executed before it can tabulate.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn plan_experiment(id: &str, h: &Harness) -> Vec<RunSpec> {
    match id {
        "e1" => e01_config::plan(h),
        "e2" => e02_characterization::plan(h),
        "e3" => e03_cta_sweep::plan(h),
        "e4" => e04_warp_sched::plan(h),
        "e5" => e05_lcs::plan(h),
        "e6" => e06_lcs_accuracy::plan(h),
        "e7" => e07_bcs::plan(h),
        "e8" => e08_cke::plan(h),
        "e9" => e09_sensitivity::plan(h),
        "e10" => e10_cache_size::plan(h),
        "e11" => e11_generated::plan(h),
        other => panic!("unknown experiment id {other:?} (expected e1..e11)"),
    }
}

/// Builds experiment `id`'s tables from `engine`'s memoized results
/// (executing any spec a batch did not cover on demand).
///
/// # Panics
///
/// Panics on an unknown id or if an on-demand simulation fails.
pub fn collect_experiment(id: &str, h: &Harness, engine: &RunEngine) -> Vec<Table> {
    match id {
        "e1" => e01_config::collect(h, engine),
        "e2" => e02_characterization::collect(h, engine),
        "e3" => e03_cta_sweep::collect(h, engine),
        "e4" => e04_warp_sched::collect(h, engine),
        "e5" => e05_lcs::collect(h, engine),
        "e6" => e06_lcs_accuracy::collect(h, engine),
        "e7" => e07_bcs::collect(h, engine),
        "e8" => e08_cke::collect(h, engine),
        "e9" => e09_sensitivity::collect(h, engine),
        "e10" => e10_cache_size::collect(h, engine),
        "e11" => e11_generated::collect(h, engine),
        other => panic!("unknown experiment id {other:?} (expected e1..e11)"),
    }
}

/// Representative traced runs for experiment `id` — the runs `exp
/// --trace-dir` records time-resolved telemetry for. Each entry's label
/// becomes the trace file stem (`<label>.events.jsonl` /
/// `<label>.intervals.csv`); experiments without a trace point return
/// nothing.
///
/// Every returned spec matches a run the experiment already plans, so
/// batching these alongside [`plan_experiment`]'s output upgrades the
/// shared runs with telemetry instead of adding simulations (see
/// [`RunEngine::execute_batch`]).
pub fn trace_points(
    id: &str,
    h: &Harness,
    telemetry: gpgpu_sim::TelemetryConfig,
) -> Vec<(String, RunSpec)> {
    let single = |name: &str, warp, cta| {
        RunSpec::single(h, name, warp, cta).with_telemetry(telemetry)
    };
    match id {
        // E2: the characterization baseline for a streaming kernel.
        "e2" => vec![(
            "e2_vecadd_gto_baseline".to_string(),
            single("vecadd", WarpPolicy::Gto, CtaPolicy::Baseline(None)),
        )],
        // E5: baseline vs LCS on the same kernel, so the interval series
        // show the throttle kicking in after the monitoring period.
        "e5" => vec![
            (
                "e5_vecadd_gto_baseline".to_string(),
                single("vecadd", WarpPolicy::Gto, CtaPolicy::Baseline(None)),
            ),
            (
                "e5_vecadd_gto_lcs".to_string(),
                single("vecadd", WarpPolicy::Gto, CtaPolicy::Lcs(0.7)),
            ),
        ],
        // E8: a memory+compute pair under mixed CKE (co-schedule
        // admissions appear as `cke-admit` events).
        "e8" => vec![(
            "e8_vecadd_fmaheavy_mixed_cke".to_string(),
            RunSpec::pair(
                h,
                "vecadd",
                "fmaheavy",
                WarpPolicy::Gto,
                CtaPolicy::MixedCke(0.7),
                false,
            )
            .with_telemetry(telemetry),
        )],
        _ => Vec::new(),
    }
}

/// Formats a ratio like `1.234`.
pub(crate) fn r3(x: f64) -> String {
    format!("{x:.3}")
}

/// The static-limit sweep values used by E3/E5/E6.
pub(crate) const LIMIT_SWEEP: [u32; 6] = [1, 2, 3, 4, 6, 8];

/// Workload names used by the locality-focused experiments.
pub(crate) const LOCALITY_SUITE: [&str; 6] = [
    "stencil2d",
    "hotspot",
    "vecadd",
    "saxpy",
    "transpose",
    "matmul-naive",
];

/// All 14 workload names in suite order.
pub(crate) fn all_names(h: &Harness) -> Vec<String> {
    gpgpu_workloads::suite(h.scale)
        .iter()
        .map(|w| w.name().to_string())
        .collect()
}
