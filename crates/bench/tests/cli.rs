//! CLI-level tests for the `exp` binary: argument validation must fail
//! fast with a pointer to `--help`, and the telemetry trace path must
//! produce parseable, deterministic files.

use gpgpu_sim::TraceEvent;
use std::path::PathBuf;
use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A unique, self-cleaning scratch directory per test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("exp-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn zero_sample_interval_is_rejected_early() {
    let out = exp(&["--sample-every", "0", "e5"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("--sample-every"), "names the bad flag: {err}");
    assert!(err.contains("--help"), "points at --help: {err}");
}

#[test]
fn unwritable_trace_dir_is_rejected_early() {
    // A path under a non-directory can never be created.
    let out = exp(&["--trace-dir", "/dev/null/traces", "--quick", "e5"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("trace dir"), "names the problem: {err}");
    assert!(err.contains("--help"), "points at --help: {err}");
}

#[test]
fn unwritable_out_dir_is_rejected_early() {
    // `run` and `submit` both check --out-dir before simulating or
    // connecting (nothing listens on port 1, so a connection attempt
    // would fail as a runtime error instead).
    for args in [
        &["--quick", "e1", "e2", "--out-dir", "/dev/null/out"][..],
        &["submit", "--quick", "e1", "--addr", "127.0.0.1:1", "--out-dir", "/dev/null/out"][..],
    ] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let err = stderr(&out);
        assert!(err.contains("out dir"), "names the problem: {err}");
        assert!(err.contains("--help"), "points at --help: {err}");
    }
}

#[test]
fn failed_csv_write_exits_nonzero() {
    // The out-dir is writable, but a directory squats on E1's CSV path.
    let dir = Scratch::new("csv-squat");
    std::fs::create_dir_all(dir.0.join("e1.csv")).expect("create squatting dir");
    let out = exp(&["--quick", "e1", "--out-dir", dir.path()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("e1.csv"), "names the file: {}", stderr(&out));
}

#[test]
fn missing_flag_values_are_rejected() {
    for args in [&["--trace-dir"][..], &["--sample-every"][..], &["--jobs"][..]] {
        let out = exp(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr(&out).contains("--help"));
    }
}

#[test]
fn unknown_argument_is_rejected() {
    let out = exp(&["--quick", "bogus"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bogus"));
}

#[test]
fn removed_thread_flags_are_unknown_arguments() {
    // Cores are stepped on one thread; the flags that once chose more
    // are gone and must fail as usage errors, not be silently ignored.
    for args in [
        &["--sim-threads", "2", "e1"][..],
        &["perf", "--thread-sweep", "1,2"][..],
        &["perf", "--sweep-only"][..],
    ] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(stderr(&out).contains("unknown argument"), "{args:?}");
    }
}

#[test]
fn argument_errors_print_the_full_usage_text() {
    // Every malformed invocation must exit nonzero AND reprint the usage
    // block, so a mistyped flag never strands the user with a bare error.
    let bad: &[&[&str]] = &[
        &["--quick", "bogus"],
        &["--jobs", "zero", "e1"],
        &["--scale", "huge", "e1"],
        &["fuzz", "--seeds", "nonsense"],
        &["fuzz", "--seeds", "5..5"],
        &["fuzz", "--seeds", "9..2"],
        &["fuzz", "--budget-cycles", "12"],
        &["fuzz", "--budget-cycles", "many"],
        &["fuzz", "--repro"],
        // The reference loop is chosen only where this process simulates
        // a batch: submit's runs execute on the server, serve takes no
        // per-run setting, fuzz runs both loops and report none.
        &["submit", "--quick", "e1", "--no-fast-forward"],
        &["serve", "--no-fast-forward"],
        &["fuzz", "--no-fast-forward"],
        &["report", "--store", "s", "--no-fast-forward"],
        // The server runs one batch at a time and has no work queue.
        &["serve", "--queue-cap", "4"],
        &[],
    ];
    for args in bad {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let err = stderr(&out);
        assert!(err.contains("error:"), "{args:?} reports an error: {err}");
        assert!(
            err.contains("usage: exp"),
            "{args:?} reprints the usage text: {err}"
        );
    }
}

#[test]
fn fuzz_smoke_reports_a_clean_window() {
    let out = exp(&["fuzz", "--seeds", "0..2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("seeds 0..2 clean"),
        "reports the clean window: {stdout}"
    );
}

#[test]
fn fuzz_replays_a_reproducer_file() {
    use gpgpu_bench::simcheck::FuzzCase;
    let dir = Scratch::new("repro");
    std::fs::create_dir_all(&dir.0).expect("scratch dir");
    let file = dir.0.join("case.repro");
    std::fs::write(&file, FuzzCase::generate(0, 1_000_000).to_repro()).expect("write repro");

    let out = exp(&["fuzz", "--repro", file.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("clean"), "clean reproducer passes: {stdout}");

    // A corrupt file is a hard error, not a silent pass.
    std::fs::write(&file, "# not a reproducer\n").expect("write junk");
    let out = exp(&["fuzz", "--repro", file.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad reproducer"));
}

#[test]
fn trace_smoke_writes_parseable_files() {
    let dir = Scratch::new("smoke");
    let csv = Scratch::new("smoke-csv");
    let out = exp(&["--quick", "e5", "--trace-dir", dir.path(), "--out-dir", csv.path(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.lines().any(|l| l.starts_with('{') && l.contains("\"executed\":")),
        "--json prints a summary object: {stdout}"
    );

    let mut saw_jsonl = 0;
    let mut saw_csv = 0;
    for entry in std::fs::read_dir(&dir.0).expect("trace dir exists") {
        let path = entry.expect("entry").path();
        let text = std::fs::read_to_string(&path).expect("readable trace file");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".events.jsonl") {
            saw_jsonl += 1;
            assert!(!text.is_empty(), "{name} must not be empty");
            for line in text.lines() {
                TraceEvent::from_json(line)
                    .unwrap_or_else(|e| panic!("{name}: unparseable line {line:?}: {e}"));
            }
        } else if name.ends_with(".intervals.csv") {
            saw_csv += 1;
            let mut lines = text.lines();
            let header = lines.next().expect("header row");
            assert!(header.starts_with("cycle_start,cycle_end,ipc,"));
            assert!(lines.next().is_some(), "{name} needs at least one sample");
        }
    }
    assert!(saw_jsonl >= 1, "at least one event trace written");
    assert_eq!(saw_jsonl, saw_csv, "every trace point writes both files");
}

#[test]
fn traces_are_byte_identical_across_worker_counts() {
    let (dir1, dir2) = (Scratch::new("jobs1"), Scratch::new("jobs2"));
    let csv = Scratch::new("jobs-csv");
    let e5 = |jobs, dir: &Scratch| {
        exp(&["--quick", "--jobs", jobs, "e5", "--trace-dir", dir.path(), "--out-dir", csv.path()])
    };
    let out1 = e5("1", &dir1);
    assert!(out1.status.success(), "stderr: {}", stderr(&out1));
    let out2 = e5("4", &dir2);
    assert!(out2.status.success(), "stderr: {}", stderr(&out2));

    let mut names: Vec<String> = std::fs::read_dir(&dir1.0)
        .expect("trace dir exists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(!names.is_empty());
    for name in names {
        let a = std::fs::read(dir1.0.join(&name)).expect("file from jobs=1");
        let b = std::fs::read(dir2.0.join(&name)).expect("file from jobs=4");
        assert_eq!(a, b, "{name} must not depend on the worker count");
    }
}
