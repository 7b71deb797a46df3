//! Golden outputs of every cycle-accounting counter consumer.
//!
//! One Tiny single run and one Tiny mixed-CKE pair are traced with a
//! short sampling period and stored. The test then pins, byte for byte,
//! every surface that renders the per-core counters: each run's
//! `intervals.csv`, its JSONL stream (events, then samples), its store
//! encoding (`codec::stats_to_json`), the `exp report --json` document
//! built from the store and from the trace directory, and the
//! `stall_breakdown` fragment of `BENCH_sim.json`.
//!
//! The committed store encodings also pin the decoder against outside
//! input: they decode and re-encode to the same bytes, and an entry whose
//! counter object lacks a field or mistypes one is refused by name.
//!
//! On a mismatch the test writes what it produced under the test
//! binary's scratch directory and names the files in the failure
//! message; after an intended change, copy them over
//! `ci/golden/counters/`.

use gpgpu_bench::json::Json;
use gpgpu_bench::report::{self, Report};
use gpgpu_bench::{codec, Harness, ResultStore, RunEngine, RunSpec};
use gpgpu_sim::{JsonlSink, TelemetryConfig, TraceSink};
use std::path::PathBuf;
use std::sync::Arc;
use tbs_core::{CtaPolicy, WarpPolicy};

const SAMPLE_EVERY: u64 = 500;

const GOLDEN: [(&str, &str); 9] = [
    ("single.intervals.csv", include_str!("../../../ci/golden/counters/single.intervals.csv")),
    ("single.jsonl", include_str!("../../../ci/golden/counters/single.jsonl")),
    ("single.stats.json", include_str!("../../../ci/golden/counters/single.stats.json")),
    ("pair.intervals.csv", include_str!("../../../ci/golden/counters/pair.intervals.csv")),
    ("pair.jsonl", include_str!("../../../ci/golden/counters/pair.jsonl")),
    ("pair.stats.json", include_str!("../../../ci/golden/counters/pair.stats.json")),
    ("report_store.json", include_str!("../../../ci/golden/counters/report_store.json")),
    ("report_traces.json", include_str!("../../../ci/golden/counters/report_traces.json")),
    ("stall_breakdown.json", include_str!("../../../ci/golden/counters/stall_breakdown.json")),
];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Renders every pinned output, in [`GOLDEN`] order.
fn outputs() -> Vec<String> {
    let h = Harness::quick();
    let cfg = TelemetryConfig::new(SAMPLE_EVERY);
    let runs = [
        (
            "single",
            RunSpec::single(&h, "matmul-tiled", WarpPolicy::Gto, CtaPolicy::Lcs(0.7)),
        ),
        (
            "pair",
            RunSpec::pair(
                &h,
                "gather",
                "reduction",
                WarpPolicy::Gto,
                CtaPolicy::MixedCke(0.7),
                false,
            ),
        ),
    ];
    let store_dir = fresh_dir("counter-golden-store");
    let trace_dir = fresh_dir("counter-golden-traces");
    let mut engine = RunEngine::new(1);
    engine.attach_store(Arc::new(ResultStore::open(&store_dir).expect("open store")));
    let specs: Vec<RunSpec> = runs.iter().map(|(_, s)| s.clone().with_telemetry(cfg)).collect();
    engine.execute_batch(&specs);

    let mut out = Vec::new();
    let mut all_stats = Vec::new();
    for ((label, _), spec) in runs.iter().zip(&specs) {
        let result = engine.get(spec);
        let data = result.telemetry.as_ref().expect("telemetry requested");
        assert!(data.samples.len() >= 3, "{label}: want several intervals");

        let mut csv = Vec::new();
        data.write_samples_csv(&mut csv).expect("in-memory write");
        std::fs::write(trace_dir.join(format!("{label}.intervals.csv")), &csv)
            .expect("write trace csv");
        out.push(String::from_utf8(csv).expect("utf-8"));

        let mut sink = JsonlSink::new(Vec::new());
        for ev in &data.events {
            sink.event(ev);
        }
        for s in &data.samples {
            sink.sample(s);
        }
        out.push(String::from_utf8(sink.into_inner()).expect("utf-8"));

        out.push(codec::stats_to_json(&result.stats).render() + "\n");
        all_stats.push(result);
    }

    let mut skipped = Vec::new();
    let rows = report::rows_from_store(&store_dir, &mut skipped).expect("read store");
    assert!(skipped.is_empty(), "{skipped:?}");
    assert_eq!(rows.len(), runs.len());
    out.push(Report::from_rows(rows).render_json().render() + "\n");

    let rows = report::rows_from_traces(&trace_dir).expect("read traces");
    out.push(Report::from_rows(rows).render_json().render() + "\n");

    out.push(report::bench_stall_breakdown(h.scale, all_stats.iter().map(|r| &r.stats)) + "\n");
    out
}

#[test]
fn counter_consumers_match_golden() {
    let got = outputs();
    let actual_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("counters");
    let mut differing = Vec::new();
    for ((name, golden), text) in GOLDEN.iter().zip(&got) {
        if text != golden {
            std::fs::create_dir_all(&actual_dir).expect("create actual dir");
            std::fs::write(actual_dir.join(name), text).expect("write actual output");
            differing.push(*name);
        }
    }
    assert!(
        differing.is_empty(),
        "outputs differ from ci/golden/counters/: {differing:?}; actual written to {}",
        actual_dir.display()
    );
}

#[test]
fn committed_store_encodings_decode_and_re_encode_byte_identically() {
    for (name, golden) in [GOLDEN[2], GOLDEN[5]] {
        let stats = codec::stats_from_json(&Json::parse(golden).expect("golden is JSON"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(codec::stats_to_json(&stats).render() + "\n", golden, "{name}");
    }
}

/// `doc` with `field` of the object at `path` removed (`None`) or replaced.
fn with_field(doc: &Json, path: &[&str], field: &str, value: Option<Json>) -> Json {
    let mut doc = doc.clone();
    let mut obj = &mut doc;
    for key in path {
        let Json::Obj(pairs) = obj else { panic!("{key}: not an object") };
        obj = &mut pairs.iter_mut().find(|(k, _)| k == key).expect("key present").1;
    }
    let Json::Obj(pairs) = obj else { panic!("{path:?}: not an object") };
    let i = pairs.iter().position(|(k, _)| k == field).expect("field present");
    match value {
        Some(v) => pairs[i].1 = v,
        None => drop(pairs.remove(i)),
    }
    doc
}

#[test]
fn memory_counter_objects_missing_or_mistyping_a_field_are_refused() {
    let doc = Json::parse(GOLDEN[2].1).expect("golden is JSON");
    let tables: [&[&str]; 5] = [
        &["l1"],
        &["fabric", "l2"],
        &["fabric", "dram"],
        &["fabric", "req_xbar"],
        &["fabric", "resp_xbar"],
    ];
    for path in tables {
        let Some(Json::Obj(fields)) = path.iter().try_fold(&doc, |j, k| j.get(k)) else {
            panic!("{path:?}: no counter object");
        };
        for (field, _) in fields {
            for (how, value) in [("missing", None), ("mistyped", Some(Json::Str("7".into())))] {
                let bad = with_field(&doc, path, field, value);
                let e = codec::stats_from_json(&bad).expect_err(&format!("{path:?}.{field} {how}"));
                assert!(e.0.contains(&format!("{field:?}")), "{path:?}.{field} {how}: {e}");
            }
        }
    }
}
