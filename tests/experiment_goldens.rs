//! Tier-1 owns the experiment goldens:
//! - every Tiny E1–E11 table and E5's trace files are byte-identical to
//!   `ci/golden/tiny/` and `ci/golden/trace_e5/`, and the
//!   cycle-accounting report rendered from those traces to
//!   `ci/golden/report_e5_traces.json`;
//! - the same batch on the reference cycle-by-cycle loop writes the same
//!   bytes, so the fast path (core sleep, idle fast-forward, booked memory
//!   retries) changes no number;
//! - the Small E11 table is byte-identical to `ci/golden/e11_small.csv`.
//!
//! The runs go through the library entry points the `exp` binary uses:
//! every experiment's plan plus E5's trace points execute as one batch on
//! one engine, then each experiment tabulates from the batch's results.
//! What a test produced stays under the cargo target temp directory, and
//! a failure names every file that differs. After an intended change of
//! results, refresh the goldens with:
//!
//! ```text
//! exp --quick --all --jobs 2 --out-dir ci/golden/tiny
//! exp --quick e5 --trace-dir ci/golden/trace_e5
//! exp report --trace-dir ci/golden/trace_e5 --json > ci/golden/report_e5_traces.json
//! exp e11 --scale small --out-dir OUT && cp OUT/e11.csv ci/golden/e11_small.csv
//! ```

use gpgpu_bench::experiments::{all_ids, plan, tabulate, trace_points, write_trace, Runs};
use gpgpu_bench::{report, Harness, RunEngine};
use gpgpu_sim::TelemetryConfig;
use std::fs;
use std::path::{Path, PathBuf};

/// The committed golden directory `name`.
fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("ci/golden").join(name)
}

/// The files of `dir`, by name.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|f| f.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    names.sort();
    names
}

/// Every difference between `produced` and `golden`, in both
/// directions: a file only one side has, or one whose bytes differ.
fn diff_file(golden: &Path, produced: &Path, out: &mut Vec<String>) {
    match (fs::read(golden), fs::read(produced)) {
        (Ok(want), Ok(got)) if want == got => {}
        (Ok(_), Ok(_)) => out.push(format!("{} differs from its golden", produced.display())),
        (Ok(_), Err(_)) => out.push(format!("{} was not produced", golden.display())),
        (Err(_), _) => out.push(format!("{} has no golden", produced.display())),
    }
}

fn diff_dirs(golden: &Path, produced: &Path, out: &mut Vec<String>) {
    let mut names = file_names(golden);
    names.extend(file_names(produced));
    names.sort();
    names.dedup();
    for name in names {
        diff_file(&golden.join(&name), &produced.join(&name), out);
    }
}

/// A fresh directory `name` under the cargo target temp directory.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// Runs every Tiny experiment plus E5's trace points as one batch on
/// `engine`, writes the tables, traces and report under a fresh `name`
/// directory, and asserts they equal the goldens.
fn assert_tiny_batch_matches_the_goldens(engine: &RunEngine, name: &str) {
    let h = Harness::quick();
    let out = fresh_dir(name);
    let (tables_dir, traces_dir) = (out.join("tiny"), out.join("trace_e5"));
    fs::create_dir_all(&tables_dir).expect("create table dir");
    fs::create_dir_all(&traces_dir).expect("create trace dir");

    let ids = all_ids();
    // `exp`'s default `--sample-every` is 1000 cycles.
    let traces = trace_points("e5", &h, TelemetryConfig::new(1000));
    let mut specs = plan(&h, &ids);
    specs.extend(traces.iter().map(|(_, spec)| spec.clone()));
    let runs = Runs::execute(engine, &specs);

    for id in ids {
        for (file, table) in tabulate(id, &h, &runs) {
            table.write_csv(&tables_dir.join(file)).expect("write CSV");
        }
    }
    for (label, spec) in &traces {
        let data = runs.get(spec).telemetry.as_ref().expect("trace point carries telemetry");
        write_trace(&traces_dir, label, data).expect("write trace");
    }
    let rows = report::rows_from_traces(&traces_dir).expect("traces parse");
    let rendered = report::Report::from_rows(rows).render_json().render();
    let report_path = out.join("report_e5_traces.json");
    fs::write(&report_path, format!("{rendered}\n")).expect("write report");

    let mut diffs = Vec::new();
    diff_dirs(&golden("tiny"), &tables_dir, &mut diffs);
    diff_dirs(&golden("trace_e5"), &traces_dir, &mut diffs);
    diff_file(&golden("report_e5_traces.json"), &report_path, &mut diffs);
    assert!(diffs.is_empty(), "results differ from the goldens:\n{}", diffs.join("\n"));
}

#[test]
fn tiny_experiments_and_e5_traces_match_the_goldens() {
    assert_tiny_batch_matches_the_goldens(&Harness::quick().engine(), "experiment_goldens");
}

#[test]
fn reference_loop_matches_the_goldens() {
    // The reference loop re-runs every retry the fast path books and
    // steps every cycle it skips. E4 runs every warp scheduler, E10 sweeps
    // L1 sizes (the 96-set 48 KiB L1 too), E8 runs concurrent pairs.
    let mut engine = Harness::quick().engine();
    engine.set_reference_loop(true);
    assert_tiny_batch_matches_the_goldens(&engine, "experiment_goldens_reference");
}

#[test]
fn small_e11_matches_its_golden() {
    let h = Harness::default();
    let runs = Runs::execute(&h.engine(), &plan(&h, &["e11"]));
    let tables = tabulate("e11", &h, &runs);
    let [(file, table)] = &tables[..] else {
        panic!("E11 writes one table, got {}", tables.len());
    };
    let path = fresh_dir("experiment_goldens_e11_small").join(file);
    table.write_csv(&path).expect("write CSV");
    let mut diffs = Vec::new();
    diff_file(&golden("e11_small.csv"), &path, &mut diffs);
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}
