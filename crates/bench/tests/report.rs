//! `exp report` against the counter registry: both report sources agree
//! on the same run, every registry row (per-core and memory-side) reaches
//! every consumer, and hostile counters are refused instead of
//! overflowing.

use gpgpu_bench::json::Json;
use gpgpu_bench::report::{self, Report, ReportRow};
use gpgpu_bench::{codec, Harness, ResultStore, RunEngine, RunResult, RunSpec};
use gpgpu_mem::{Counter, FabricStats, CACHE_COUNTERS, DRAM_COUNTERS, XBAR_COUNTERS};
use gpgpu_sim::{
    CoreStats, GpuConfig, IntervalSample, KernelId, Sample, SimStats, TelemetryConfig, COUNTERS,
};
use gpgpu_workloads::Scale;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use tbs_core::{CtaPolicy, WarpPolicy};

/// A fresh scratch directory under the test target's tmp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A Tiny vecadd on the two-core test GPU.
fn small_spec() -> RunSpec {
    let mut h = Harness::quick();
    h.gpu = GpuConfig::test_small();
    RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Baseline(None))
}

/// Runs `spec` into a fresh store and returns the store's one entry file
/// and the result.
fn stored_run(name: &str, spec: &RunSpec) -> (PathBuf, Arc<RunResult>) {
    let dir = fresh_dir(name);
    let mut engine = RunEngine::new(1);
    engine.attach_store(Arc::new(ResultStore::open(&dir).expect("open store")));
    engine.execute_batch(std::slice::from_ref(spec));
    let entry = std::fs::read_dir(&dir)
        .expect("store root")
        .flatten()
        .filter(|shard| shard.path().is_dir())
        .flat_map(|shard| std::fs::read_dir(shard.path()).expect("shard").flatten())
        .map(|f| f.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("the run was stored");
    (entry, engine.get(spec))
}

fn exp_report(source: &str, dir: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["report", source, dir.to_str().expect("utf-8 path"), "--json"])
        .output()
        .expect("exp runs")
}

#[test]
fn store_and_trace_sources_agree_on_one_run() {
    // Sampling every cycle on a two-core GPU makes each interval's
    // per-core means exact in the CSV's six decimals, so the trace
    // source's averages match the store's to rounding.
    let spec = small_spec().with_telemetry(TelemetryConfig::new(1));
    let (entry, result) = stored_run("agree-store", &spec);
    let traces = fresh_dir("agree-traces");
    let mut csv = Vec::new();
    let data = result.telemetry.as_ref().expect("telemetry requested");
    data.write_samples_csv(&mut csv).expect("in-memory write");
    std::fs::write(traces.join("vecadd.intervals.csv"), csv).expect("write csv");

    let mut skipped = Vec::new();
    let store_dir = entry.parent().and_then(Path::parent).expect("store root");
    let from_store = report::rows_from_store(store_dir, &mut skipped).expect("store rows");
    assert!(skipped.is_empty(), "{skipped:?}");
    let from_traces = report::rows_from_traces(&traces).expect("trace rows");
    let (s, t): (&ReportRow, &ReportRow) = (&from_store[0], &from_traces[0]);
    assert!(s.has_taxonomy && s.issued_slots > 0, "a real run: {s:?}");
    assert_eq!(s.cycles, t.cycles);
    assert_eq!(s.issued_slots, t.issued_slots);
    assert_eq!(s.stalls, t.stalls);
    assert_eq!(s.lost_slots, t.lost_slots);
    assert!((s.avg_ctas - t.avg_ctas).abs() < 1e-9, "{} vs {}", s.avg_ctas, t.avg_ctas);
    assert!((s.avg_warps - t.avg_warps).abs() < 1e-9, "{} vs {}", s.avg_warps, t.avg_warps);

    // `exp report --store` re-checks the conservation identity on the
    // stored rows and reports it.
    assert!(s.identity_ok(), "{s:?}");
    let out = exp_report("--store", store_dir);
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(json.contains("\"identity_ok\":true"), "{json}");
    assert!(!json.contains("\"identity_ok\":false"), "{json}");
}

#[test]
fn every_registry_row_reaches_every_consumer() {
    // A distinct value per row; one core over one cycle, so a per-core
    // mean equals the value itself.
    let mut core = CoreStats::default();
    for (i, c) in COUNTERS.iter().enumerate() {
        *(c.get_mut)(&mut core) = 1_000 + 17 * i as u64;
    }
    let sample = IntervalSample {
        cycle_end: 1,
        core: core.clone(),
        core_ctas: vec![0],
        core_warps: vec![0],
        ..IntervalSample::default()
    };
    let header = IntervalSample::csv_header();
    let row = sample.csv_row();
    let csv: Vec<(&str, &str)> = header.split(',').zip(row.split(',')).collect();
    // The memory tables too, numbered on from the per-core rows.
    let mut next = 5_000;
    let mut l1 = Default::default();
    number(CACHE_COUNTERS, &mut l1, &mut next);
    let mut fabric = FabricStats::default();
    number(CACHE_COUNTERS, &mut fabric.l2, &mut next);
    number(DRAM_COUNTERS, &mut fabric.dram, &mut next);
    number(XBAR_COUNTERS, &mut fabric.req_xbar, &mut next);
    number(XBAR_COUNTERS, &mut fabric.resp_xbar, &mut next);
    let stats = SimStats {
        cycles: 1,
        instructions: core.issued,
        kernels: Vec::new(),
        l1,
        fabric,
        cores: vec![core.clone()],
        malformed_dispatches: 0,
    };
    let store_text = codec::stats_to_json(&stats).render();
    let store = Json::parse(&store_text).expect("store JSON");
    assert_eq!(codec::stats_from_json(&store).expect("decodes"), stats, "round trip");
    let breakdown = Json::parse(&report::bench_stall_breakdown(Scale::Tiny, [&stats]))
        .expect("stall_breakdown is JSON");
    let report = report_json_of(&stats);

    let at = |path: &[&str]| path.iter().try_fold(&store, |j, k| j.get(k)).expect("object");
    assert_rows(CACHE_COUNTERS, &stats.l1, at(&["l1"]));
    assert_rows(CACHE_COUNTERS, &stats.fabric.l2, at(&["fabric", "l2"]));
    assert_rows(DRAM_COUNTERS, &stats.fabric.dram, at(&["fabric", "dram"]));
    assert_rows(XBAR_COUNTERS, &stats.fabric.req_xbar, at(&["fabric", "req_xbar"]));
    assert_rows(XBAR_COUNTERS, &stats.fabric.resp_xbar, at(&["fabric", "resp_xbar"]));
    for c in COUNTERS {
        let v = (c.get)(&core);
        let stored = store.get("cores").and_then(Json::as_arr).and_then(|a| a[0].get(c.name));
        assert_eq!(stored.and_then(Json::as_u64), Some(v), "{}: store JSON", c.name);
        let (name, text) = match c.sample {
            Sample::No | Sample::Delta => (c.name, v.to_string()),
            Sample::PerCoreMean(name) => (name, format!("{:.6}", v as f64)),
        };
        let in_csv = csv.iter().find(|(h, _)| *h == name).map(|&(_, cell)| cell);
        if c.sample == Sample::No {
            // Not sampled; a lead column under its name must still agree.
            assert!(in_csv.is_none_or(|cell| cell == text), "{}: CSV", c.name);
            continue;
        }
        assert_eq!(in_csv, Some(text.as_str()), "{}: CSV header and row", c.name);
        if let Some(label) = c.stall {
            assert_eq!(breakdown.get(label).and_then(Json::as_u64), Some(v), "{label}: bench");
            let stalls = report.get("rows").and_then(Json::as_arr).and_then(|r| r[0].get("stalls"));
            let in_report = stalls.and_then(|s| s.get(label)).and_then(Json::as_u64);
            assert_eq!(in_report, Some(v), "{label}: report JSON");
        }
    }
}

/// Sets every row of `table` in `s` to a distinct value, counting on
/// from `next`.
fn number<S>(table: &[Counter<S>], s: &mut S, next: &mut u64) {
    for c in table {
        *(c.get_mut)(s) = *next;
        *next += 17;
    }
}

/// Asserts that `obj` holds every row of `table` under its name, with the
/// value `s` has.
fn assert_rows<S>(table: &[Counter<S>], s: &S, obj: &Json) {
    for c in table {
        assert_eq!(obj.get(c.name).and_then(Json::as_u64), Some((c.get)(s)), "{}", c.name);
    }
}

/// `exp report --json` over a store holding one entry with `stats`.
fn report_json_of(stats: &SimStats) -> Json {
    let dir = fresh_dir("walk-store");
    let result = RunResult {
        stats: stats.clone(),
        kernels: vec![KernelId(0)],
        lcs_limits: None,
        telemetry: None,
        via_replay: false,
    };
    let store = ResultStore::open(&dir).expect("open store");
    store.save(&small_spec(), &result, 0).expect("save entry");
    let mut skipped = Vec::new();
    let rows = report::rows_from_store(&dir, &mut skipped).expect("store rows");
    assert!(skipped.is_empty(), "{skipped:?}");
    Report::from_rows(rows).render_json()
}

#[test]
fn overflowing_store_entry_is_skipped_by_path() {
    let (entry, _) = stored_run("overflow-store", &small_spec());
    // Set the two cores' MemPending counters to u64::MAX and 5: their
    // sum does not fit in a u64.
    let text = std::fs::read_to_string(&entry).expect("read entry");
    let key = "\"stall_mem_pending\":";
    let mut parts = text.split(key);
    let mut hostile = parts.next().expect("prefix").to_string();
    for (value, rest) in ["18446744073709551615", "5"].iter().zip(parts.by_ref()) {
        let digits = rest.find(|c: char| !c.is_ascii_digit()).expect("a number");
        hostile += &format!("{key}{value}{}", &rest[digits..]);
    }
    assert!(parts.next().is_none(), "the test GPU has two cores");
    std::fs::write(&entry, hostile).expect("write hostile entry");

    let store_dir = entry.parent().and_then(Path::parent).expect("store root");
    let mut skipped = Vec::new();
    let rows = report::rows_from_store(store_dir, &mut skipped).expect("readable root");
    assert!(rows.is_empty(), "hostile entry reported: {rows:?}");
    assert_eq!(skipped.len(), 1, "{skipped:?}");
    assert!(skipped[0].contains(&entry.display().to_string()), "{skipped:?}");
    assert!(skipped[0].contains("overflow"), "{skipped:?}");

    let out = exp_report("--store", store_dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a runtime error, not a panic: {stderr}");
    assert!(stderr.contains("skipped store entry"), "{stderr}");
    assert!(stderr.contains(&entry.display().to_string()), "names the entry: {stderr}");
}

#[test]
fn overflowing_trace_csv_is_an_error() {
    let dir = fresh_dir("overflow-traces");
    let csv = "cycle_start,cycle_end,issued_slots,stalled_slots,idle_slots,\
               stall_no_resident,stall_scoreboard,stall_mem_pending,stall_exec_busy,\
               stall_barrier,stall_ff_idle,avg_resident_ctas,avg_resident_warps\n\
               0,500,100,18446744073709551615,60,0,0,0,0,0,0,2.0,8.0\n";
    std::fs::write(dir.join("hostile.intervals.csv"), csv).expect("write csv");
    let err = report::rows_from_traces(&dir).expect_err("an overflowing CSV is malformed");
    assert!(err.contains("hostile.intervals.csv") && err.contains("overflow"), "{err}");

    let out = exp_report("--trace-dir", &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a runtime error, not a panic: {stderr}");
    assert!(stderr.contains("overflow"), "{stderr}");
}
