//! The reconstructed evaluation, experiment by experiment (E1–E11).
//!
//! Each experiment regenerates one table/figure of the paper's evaluation
//! (see `DESIGN.md` for the index and `EXPERIMENTS.md` for measured
//! results and the expected shapes).
//!
//! Each experiment names its runs once, in a row helper that returns the
//! [`RunSpec`]s one table row needs. Its plan is the flat list of its
//! rows; its tabulation reads each result back through the same helper.
//! [`plan`] gathers the specs of the selected experiments, one shared
//! [`RunEngine`] executes the combined batch (deduplicating identical
//! specs within and across experiments, in parallel), and [`tabulate`]
//! builds each experiment's tables from the batch's [`Runs`]. Tabulation
//! never simulates: reading a run the experiment did not plan panics.

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

use crate::{Harness, RunEngine, RunKey, RunResult, RunSpec, Table};
use gpgpu_sim::{TelemetryConfig, TelemetryData};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use tbs_core::{CtaPolicy, WarpPolicy};

/// An experiment: its id, the runs it plans, and the tables it builds
/// from their results.
type Experiment = (
    &'static str,
    fn(&Harness) -> Vec<RunSpec>,
    fn(&Harness, &Runs) -> Vec<Table>,
);

/// Every experiment, in order.
const EXPERIMENTS: [Experiment; 11] = [
    ("e1", e01_config::plan, e01_config::tabulate),
    ("e2", e02_characterization::plan, e02_characterization::tabulate),
    ("e3", e03_cta_sweep::plan, e03_cta_sweep::tabulate),
    ("e4", e04_warp_sched::plan, e04_warp_sched::tabulate),
    ("e5", e05_lcs::plan, e05_lcs::tabulate),
    ("e6", e06_lcs_accuracy::plan, e06_lcs_accuracy::tabulate),
    ("e7", e07_bcs::plan, e07_bcs::tabulate),
    ("e8", e08_cke::plan, e08_cke::tabulate),
    ("e9", e09_sensitivity::plan, e09_sensitivity::tabulate),
    ("e10", e10_cache_size::plan, e10_cache_size::tabulate),
    ("e11", e11_generated::plan, e11_generated::tabulate),
];

/// All experiment ids, in order.
pub fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.0).collect()
}

fn experiment(id: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.0 == id)
        .unwrap_or_else(|| panic!("unknown experiment id {id:?} (expected e1..e11)"))
}

/// The specs experiments `ids` need executed before they can tabulate,
/// in order. Specs shared between experiments stay duplicated; the
/// engine simulates each content key once.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn plan(h: &Harness, ids: &[impl AsRef<str>]) -> Vec<RunSpec> {
    ids.iter().flat_map(|id| (experiment(id.as_ref()).1)(h)).collect()
}

/// Experiment `id`'s tables, each with the CSV file name it is written
/// under: `<id>.csv` for one table, `<id>_a.csv`, `<id>_b.csv`, … for
/// several. The tabulation sees only the runs of `runs` that `id` plans.
///
/// # Panics
///
/// Panics on an unknown id, and, naming `id` and the run's key, when the
/// tabulation reads a run that `id` does not plan or that `runs` lacks.
pub fn tabulate(id: &str, h: &Harness, runs: &Runs) -> Vec<(String, Table)> {
    let &(id, plan, tabulate) = experiment(id);
    let planned = Runs {
        reader: id,
        results: plan(h)
            .iter()
            .filter_map(|s| runs.results.get_key_value(&s.key()))
            .map(|(k, r)| (k.clone(), Arc::clone(r)))
            .collect(),
    };
    let tables = tabulate(h, &planned);
    let n = tables.len();
    let name = |i: u8| match n {
        1 => format!("{id}.csv"),
        _ => format!("{id}_{}.csv", (b'a' + i) as char),
    };
    (0..).zip(tables).map(|(i, t)| (name(i), t)).collect()
}

/// Results by content key: what a batch produced, and what a tabulation
/// reads. Reading a run that is not here panics instead of simulating it.
pub struct Runs {
    /// Who reads these results, named when a read misses.
    reader: &'static str,
    results: HashMap<RunKey, Arc<RunResult>>,
}

impl Runs {
    /// Executes `specs` as one batch on `engine` and keeps every result.
    ///
    /// # Panics
    ///
    /// As [`RunEngine::execute_batch`].
    pub fn execute(engine: &RunEngine, specs: &[RunSpec]) -> Runs {
        engine.execute_batch(specs);
        let result = |s: &RunSpec| engine.lookup(s).expect("the batch ran every spec");
        specs.iter().map(|s| (s.key(), result(s))).collect()
    }

    /// The result of `spec`.
    ///
    /// # Panics
    ///
    /// Panics, naming the reader and `spec`'s key, when `spec` was not
    /// run.
    pub fn get(&self, spec: &RunSpec) -> &RunResult {
        let key = spec.key();
        self.results.get(&key).unwrap_or_else(|| {
            panic!(
                "{}: no result for run {} (a tabulation reads only the runs its experiment plans)",
                self.reader,
                key.as_str()
            )
        })
    }
}

impl FromIterator<(RunKey, Arc<RunResult>)> for Runs {
    fn from_iter<I: IntoIterator<Item = (RunKey, Arc<RunResult>)>>(iter: I) -> Self {
        Runs {
            reader: "batch",
            results: iter.into_iter().collect(),
        }
    }
}

/// Representative traced runs for experiment `id` — the runs `exp
/// --trace-dir` records time-resolved telemetry for. Each entry's label
/// becomes the trace file stem (`<label>.events.jsonl` /
/// `<label>.intervals.csv`); experiments without a trace point return
/// nothing.
///
/// Every returned spec comes from a row helper of `id`, so batching these
/// alongside [`plan`]'s output upgrades the shared runs with telemetry
/// instead of adding simulations (see [`RunEngine::execute_batch`]).
pub fn trace_points(
    id: &str,
    h: &Harness,
    telemetry: TelemetryConfig,
) -> Vec<(&'static str, RunSpec)> {
    let points = match id {
        // E2: the characterization baseline for a streaming kernel.
        "e2" => vec![("e2_vecadd_gto_baseline", baseline(h, "vecadd"))],
        // E5: baseline vs LCS on the same kernel, so the interval series
        // show the throttle kicking in after the monitoring period.
        "e5" => {
            let [lcs, ..] = e05_lcs::row(h, "vecadd");
            vec![("e5_vecadd_gto_baseline", baseline(h, "vecadd")), ("e5_vecadd_gto_lcs", lcs)]
        }
        // E8: a memory+compute pair under mixed CKE (co-schedule
        // admissions appear as `cke-admit` events).
        "e8" => {
            let [.., mixed] = e08_cke::row(h, "vecadd", "fmaheavy");
            vec![("e8_vecadd_fmaheavy_mixed_cke", mixed)]
        }
        _ => Vec::new(),
    };
    points
        .into_iter()
        .map(|(label, spec)| (label, spec.with_telemetry(telemetry)))
        .collect()
}

/// Writes trace point `label`'s telemetry under `dir` as
/// `<label>.events.jsonl` (the event trace) and `<label>.intervals.csv`
/// (the interval series).
///
/// # Errors
///
/// Propagates I/O errors from creating or writing either file.
pub fn write_trace(dir: &Path, label: &str, data: &TelemetryData) -> io::Result<()> {
    let mut events = BufWriter::new(File::create(dir.join(format!("{label}.events.jsonl")))?);
    data.write_events_jsonl(&mut events)?;
    events.flush()?;
    let mut samples = BufWriter::new(File::create(dir.join(format!("{label}.intervals.csv")))?);
    data.write_samples_csv(&mut samples)?;
    samples.flush()
}

/// Formats a ratio like `1.234`.
pub(crate) fn r3(x: f64) -> String {
    format!("{x:.3}")
}

/// The reference point of most speedups: `name` under GTO at the
/// hardware-maximum CTA count.
pub(crate) fn baseline(h: &Harness, name: &str) -> RunSpec {
    RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Baseline(None))
}

/// The static per-core CTA limits swept by E3, E5 and E6, after the
/// unlimited baseline (`None`).
pub(crate) const LIMIT_SWEEP: [Option<u32>; 7] =
    [None, Some(1), Some(2), Some(3), Some(4), Some(6), Some(8)];

/// The static-limit sweep of `name` (E3's row, and the oracle E5 and E6
/// read): one GTO run per [`LIMIT_SWEEP`] entry, the [`baseline`] first.
pub(crate) fn limit_sweep(h: &Harness, name: &str) -> [RunSpec; 7] {
    LIMIT_SWEEP.map(|l| RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Baseline(l)))
}

/// The static oracle for `name`: the [`LIMIT_SWEEP`] entry whose run
/// took the fewest cycles (the first on a tie), and those cycles.
pub(crate) fn oracle(h: &Harness, runs: &Runs, name: &str) -> (Option<u32>, u64) {
    let cycles = limit_sweep(h, name).map(|s| runs.get(&s).cycles());
    LIMIT_SWEEP
        .into_iter()
        .zip(cycles)
        .fold((None, u64::MAX), |best, run| if run.1 < best.1 { run } else { best })
}

/// All 14 workload names in suite order.
pub(crate) fn all_names(h: &Harness) -> Vec<String> {
    gpgpu_workloads::suite(h.scale)
        .iter()
        .map(|w| w.name().to_string())
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Experiment `id`'s tables at Tiny scale, through [`plan`] and
    /// [`tabulate`] on a fresh engine.
    pub(crate) fn tables(id: &str) -> Vec<Table> {
        let h = Harness::quick();
        let runs = Runs::execute(&h.engine(), &plan(&h, &[id]));
        tabulate(id, &h, &runs).into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn reading_an_unplanned_run_panics_naming_experiment_and_key() {
        let h = Harness::quick();
        let mut specs = plan(&h, &["e7"]);
        let missing = specs.pop().expect("e7 plans runs");
        assert!(specs.iter().all(|s| s.key() != missing.key()), "the last spec is unique");
        let runs = Runs::execute(&h.engine(), &specs);
        let err = std::panic::catch_unwind(|| tabulate("e7", &h, &runs))
            .expect_err("a tabulation must not read past its runs");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.starts_with("e7: "), "names the experiment: {msg}");
        assert!(msg.contains(missing.key().as_str()), "names the missing run: {msg}");
    }
}
