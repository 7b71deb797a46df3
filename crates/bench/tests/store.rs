//! Integration tests of the persistent result store: round-trip fidelity,
//! corruption eviction, engine wiring (warm batches simulate nothing),
//! and concurrent writers sharing one store directory.

use gpgpu_bench::json::Json;
use gpgpu_bench::store::content_address;
use gpgpu_bench::{Harness, ReplayMode, ResultStore, RunEngine, RunSpec};
use gpgpu_testkit::TempDir;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use tbs_core::{CtaPolicy, WarpPolicy};

fn quick() -> Harness {
    Harness::quick()
}

fn spec(h: &Harness, name: &str) -> RunSpec {
    RunSpec::single(h, name, WarpPolicy::Gto, CtaPolicy::Baseline(None))
}

/// Every file below `root`, recursively.
fn files_under(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).expect("readable dir") {
            let p = entry.expect("entry").path();
            if p.is_dir() {
                dirs.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files
}

fn entry_file(store: &ResultStore, s: &RunSpec) -> PathBuf {
    let addr = content_address(s.key().as_str());
    store.root().join(&addr[..2]).join(format!("{addr}.json"))
}

#[test]
fn store_round_trips_a_result() {
    let dir = TempDir::new("store-roundtrip");
    let store = ResultStore::open(dir.path()).expect("store opens");
    let h = quick();
    let s = spec(&h, "vecadd");

    assert!(store.load(&s).is_none(), "fresh store misses");
    let engine = RunEngine::new(1);
    let result = engine.get(&s);
    store.save(&s, &result, 12_345).expect("save succeeds");

    let hit = store.load(&s).expect("saved entry loads");
    assert_eq!(hit.wall_nanos, 12_345);
    assert_eq!(hit.result.stats, result.stats, "stats survive the disk round trip");
    assert_eq!(hit.result.kernels, result.kernels);
    assert_eq!(hit.result.lcs_limits, result.lcs_limits);
    assert!(hit.result.telemetry.is_none(), "telemetry is never rebuilt");

    let stats = store.stats();
    assert_eq!(stats.stored, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.saved_nanos, 12_345);
}

#[test]
fn corrupt_entries_are_evicted_and_resimulated() {
    let dir = TempDir::new("store-corrupt");
    let store = ResultStore::open(dir.path()).expect("store opens");
    let h = quick();
    let s = spec(&h, "vecadd");
    let engine = RunEngine::new(1);
    let result = engine.get(&s);
    store.save(&s, &result, 1).expect("save succeeds");

    // Truncate the entry mid-document.
    let path = entry_file(&store, &s);
    let text = std::fs::read_to_string(&path).expect("entry exists");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");

    assert!(store.load(&s).is_none(), "corrupt entry is a miss");
    assert_eq!(store.stats().evicted_corrupt, 1);
    assert!(!path.exists(), "the bad file no longer occupies the address");
    assert!(
        path.with_extension("json.corrupt").exists(),
        "evidence is quarantined, not destroyed"
    );

    // The address is clear again: a save and a load work normally.
    store.save(&s, &result, 2).expect("re-save succeeds");
    assert!(store.load(&s).is_some(), "address serves hits again");

    // A whole experiment's store, every entry damaged two ways in turn:
    // truncated to 300 bytes, then replaced by a prefix of itself ending
    // in an invalid byte. Each time `exp e7` re-simulates every run,
    // exits 0 and writes the same tables.
    let store_dir = dir.path().join("e7");
    let exp_e7 = |out: &str| {
        let out_dir = dir.path().join(out);
        let run = Command::new(env!("CARGO_BIN_EXE_exp"))
            .args(["--quick", "e7", "--jobs", "1", "--store"])
            .arg(&store_dir)
            .arg("--out-dir")
            .arg(&out_dir)
            .output()
            .expect("exp runs");
        let stdout = String::from_utf8_lossy(&run.stdout).into_owned();
        assert!(run.status.success(), "{stdout}{}", String::from_utf8_lossy(&run.stderr));
        let count = |what: &str| -> usize {
            let before = &stdout[..stdout.find(what).expect("summary line")];
            before.rsplit([' ', '[']).next().unwrap().parse().expect("a count")
        };
        let tables: Vec<_> = files_under(&out_dir)
            .into_iter()
            .map(|f| (f.file_name().unwrap().to_owned(), std::fs::read(&f).unwrap()))
            .collect();
        (count(" simulated"), count(" from store"), tables)
    };
    let (simulated, _, cold) = exp_e7("cold");
    assert!(cold.iter().any(|(name, _)| name == "e7_a.csv"), "{cold:?}");
    let damages: [fn(&[u8]) -> Vec<u8>; 2] =
        [|b| b[..300].to_vec(), |b| [&b[..40], &[0xff][..]].concat()];
    for (round, damage) in damages.into_iter().enumerate() {
        let entries: Vec<_> = files_under(&store_dir)
            .into_iter()
            .filter(|f| f.extension().is_some_and(|e| e == "json"))
            .collect();
        assert_eq!(entries.len(), simulated, "one entry per run");
        for f in &entries {
            let bytes = std::fs::read(f).expect("entry");
            std::fs::write(f, damage(&bytes)).expect("damage entry");
        }
        let (again, from_store, tables) = exp_e7(&format!("damaged{round}"));
        assert_eq!((again, from_store), (simulated, 0), "round {round}: every run re-simulates");
        assert_eq!(tables, cold, "round {round}: the tables are unchanged");
    }
}

#[test]
fn records_that_do_not_cover_the_launch_are_evicted_and_recaptured() {
    let dir = TempDir::new("store-record-shape");
    let h = quick();
    // One replay group: vecadd under three CTA limits.
    let specs: Vec<RunSpec> = [None, Some(1), Some(2)]
        .into_iter()
        .map(|limit| RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Baseline(limit)))
        .collect();
    let run = |mode| {
        let store = Arc::new(ResultStore::open(dir.path()).expect("store opens"));
        let mut engine = RunEngine::new(1);
        engine.set_replay_mode(mode);
        engine.attach_store(Arc::clone(&store));
        engine.execute_batch(&specs);
        let stats: Vec<_> = specs.iter().map(|s| engine.get(s).stats.clone()).collect();
        (store, engine.runs_replayed(), stats)
    };
    let (_, cold_replayed, cold) = run(ReplayMode::Force);
    assert_eq!(cold_replayed, 2);

    // Drop the results and rewrite the record as a well-formed record of
    // no kernels: the magic, a zero memory hash and a zero kernel count.
    let mut records = 0;
    for f in files_under(dir.path()) {
        if f.extension().is_some_and(|e| e == "json") {
            std::fs::remove_file(&f).expect("remove entry");
        } else if f.to_string_lossy().ends_with(".record.bin") {
            let mut bytes = gpgpu_sim::record::RECORD_MAGIC.to_vec();
            bytes.extend([0; 12]);
            std::fs::write(&f, bytes).expect("rewrite record");
            records += 1;
        }
    }
    assert_eq!(records, 1, "one record per replay group");

    // Replaying it used to index past the record and panic. Now the
    // record is quarantined like undecodable bytes and captured afresh.
    let (store, warm_replayed, warm) = run(ReplayMode::Auto);
    assert_eq!(warm, cold, "same results as the cold run");
    assert_eq!(warm_replayed, 2, "the group replays from a fresh capture");
    assert_eq!(store.stats().evicted_corrupt, 1);
    let files = files_under(dir.path());
    let named = |suffix: &str| {
        files
            .iter()
            .filter(|f| f.to_string_lossy().ends_with(suffix))
            .count()
    };
    assert_eq!(named(".record.bin.corrupt"), 1, "evidence is quarantined");
    assert_eq!(named(".record.bin"), 1, "the recaptured record is stored");
    assert!(store.load_record(&specs[0]).is_some(), "and decodes");
}

#[test]
fn incompatible_schema_majors_are_left_in_place() {
    let dir = TempDir::new("store-major");
    let store = ResultStore::open(dir.path()).expect("store opens");
    let h = quick();
    let s = spec(&h, "vecadd");

    let path = entry_file(&store, &s);
    std::fs::create_dir_all(path.parent().unwrap()).expect("shard dir");
    std::fs::write(&path, "{\"schema_version\":\"99.0\",\"key\":\"x\"}\n").expect("write");

    assert!(store.load(&s).is_none(), "foreign major is a miss");
    let stats = store.stats();
    assert_eq!(stats.incompatible, 1);
    assert_eq!(stats.evicted_corrupt, 0);
    assert!(path.exists(), "the foreign entry is not touched");
}

#[test]
fn warm_engine_batch_simulates_nothing() {
    let dir = TempDir::new("store-warm");
    let h = quick();
    let specs = vec![
        spec(&h, "vecadd"),
        spec(&h, "saxpy"),
        spec(&h, "vecadd"), // duplicate: dedups in-batch
    ];

    // Cold process: everything simulates, results land in the store.
    let cold_stats = {
        let store = Arc::new(ResultStore::open(dir.path()).expect("store opens"));
        let mut engine = RunEngine::new(2);
        engine.attach_store(Arc::clone(&store));
        engine.execute_batch(&specs);
        assert_eq!(engine.runs_executed(), 2);
        assert_eq!(engine.runs_from_store(), 0);
        assert_eq!(store.stats().stored, 2);
        (engine.get(&specs[0]).stats.clone(), engine.get(&specs[1]).stats.clone())
    };

    // Warm "process" (fresh engine, same store): zero simulations.
    let store = Arc::new(ResultStore::open(dir.path()).expect("store reopens"));
    let mut engine = RunEngine::new(2);
    engine.attach_store(Arc::clone(&store));
    engine.execute_batch(&specs);
    assert_eq!(engine.runs_executed(), 0, "warm batch simulates nothing");
    assert_eq!(engine.runs_from_store(), 2);
    assert_eq!(engine.summary().requested(), 3);
    assert_eq!(engine.get(&specs[0]).stats, cold_stats.0, "identical stats");
    assert_eq!(engine.get(&specs[1]).stats, cold_stats.1);
}

#[test]
fn concurrent_writers_share_one_store() {
    let dir = TempDir::new("store-concurrent");
    let h = quick();
    let specs: Vec<RunSpec> = ["vecadd", "saxpy"]
        .iter()
        .map(|n| spec(&h, n))
        .collect();

    // Two engines (as if two processes) race the same batch into one
    // store directory. Atomic write-then-rename means both install
    // identical content; nothing errors, nothing corrupts.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let specs = &specs;
            let root = dir.path();
            scope.spawn(move || {
                let store = Arc::new(ResultStore::open(root).expect("store opens"));
                let mut engine = RunEngine::new(2);
                engine.attach_store(store);
                engine.execute_batch(specs);
            });
        }
    });

    // Every entry on disk is readable and no temp litter is left.
    let store = ResultStore::open(dir.path()).expect("store reopens");
    for s in &specs {
        assert!(store.load(s).is_some(), "entry for {:?} readable", s.key());
    }
    let files = files_under(dir.path());
    assert!(
        files.iter().all(|p| p.extension().is_some_and(|e| e == "json")),
        "no temp or corrupt litter: {files:?}"
    );
    assert_eq!(files.len(), 2, "one entry per unique spec");
}

#[test]
fn traced_saves_write_one_entry_and_pointer_entries_still_load() {
    let dir = TempDir::new("store-telemetry");
    let store = Arc::new(ResultStore::open(dir.path()).expect("store opens"));
    let h = quick();
    let plain = spec(&h, "vecadd");
    let traced = plain.clone().with_telemetry(gpgpu_sim::TelemetryConfig::new(500));

    let mut engine = RunEngine::new(1);
    engine.attach_store(Arc::clone(&store));
    engine.execute_batch(std::slice::from_ref(&traced));
    assert_eq!(engine.runs_executed(), 1);

    // The traced run persisted its result alone: one entry, no sibling
    // files, no `telemetry` key.
    let entry = entry_file(&store, &plain);
    assert_eq!(files_under(dir.path()), vec![entry.clone()]);
    let text = std::fs::read_to_string(&entry).expect("entry readable");
    let doc = Json::parse(&text).expect("entry is JSON");
    assert!(doc.get("telemetry").is_none(), "no telemetry key: {text}");

    // Older builds wrote a pointer object to sibling telemetry files;
    // such an entry still serves its untraced twin from the store.
    let addr = content_address(plain.key().as_str());
    let pointers = format!(
        ",\"telemetry\":{{\"events\":\"{0}/{addr}.events.jsonl\",\
         \"samples\":\"{0}/{addr}.intervals.csv\"}}}}\n",
        &addr[..2]
    );
    let body = text.trim_end().strip_suffix('}').expect("entry is an object");
    let older = format!("{body}{pointers}");
    assert!(Json::parse(&older).expect("older entry is JSON").get("telemetry").is_some());
    std::fs::write(&entry, older).expect("place older entry");
    let mut engine2 = RunEngine::new(1);
    engine2.attach_store(Arc::clone(&store));
    let r = engine2.get(&plain);
    assert!(r.telemetry.is_none());
    assert_eq!(engine2.runs_executed(), 0);
    assert_eq!(engine2.runs_from_store(), 1);

    // A fresh engine requesting telemetry must re-simulate (stored
    // entries cannot rebuild telemetry).
    let mut engine3 = RunEngine::new(1);
    engine3.attach_store(store);
    let r = engine3.get(&traced);
    assert!(r.telemetry.is_some(), "telemetry request is honored");
    assert_eq!(engine3.runs_executed(), 1);
    assert_eq!(engine3.runs_from_store(), 0);
}
