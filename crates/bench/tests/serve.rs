//! End-to-end tests of `exp serve`'s job server and its client: an
//! in-process server on an ephemeral port, a `RemoteClient` submitting
//! batches over real TCP, and equality against a purely local run.

use gpgpu_bench::json::Json;
use gpgpu_bench::service::{
    event_from_json, Event, RemoteClient, ServeConfig, Server, Source, MAX_LINE_BYTES,
};
use gpgpu_bench::{Harness, ResultStore, RunEngine, RunSpec};
use gpgpu_testkit::TempDir;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use tbs_core::{CtaPolicy, WarpPolicy};

fn spec(h: &Harness, name: &str, warp: WarpPolicy) -> RunSpec {
    RunSpec::single(h, name, warp, CtaPolicy::Baseline(None))
}

/// A server on 127.0.0.1:<free port> running on a background thread.
/// Returns the bound address and the thread handle (joined after a
/// client-side `shutdown()`).
fn start(cfg: ServeConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(cfg).expect("bind on an ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

#[test]
fn ping_pong() {
    let (addr, handle) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    let client = RemoteClient::new(&addr);
    client.ping().expect("pong");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn remote_batch_matches_local_run() {
    let h = Harness::quick();
    let specs = vec![
        spec(&h, "vecadd", WarpPolicy::Gto),
        spec(&h, "saxpy", WarpPolicy::Gto),
        spec(&h, "vecadd", WarpPolicy::Lrr),
        spec(&h, "vecadd", WarpPolicy::Gto), // duplicate of [0]
    ];

    // Reference: purely local execution.
    let local = RunEngine::new(2);
    local.execute_batch(&specs);

    let (addr, handle) = start(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let remote = RemoteClient::new(&addr);

    let mut events = Vec::new();
    let items = remote
        .run_batch_observed(&specs, &mut |e| events.push(e.clone()))
        .expect("remote batch");

    assert_eq!(items.len(), specs.len());
    for (i, (item, spec)) in items.iter().zip(&specs).enumerate() {
        let want = local.get(spec);
        assert_eq!(item.key, spec.key().as_str(), "key order preserved at index {i}");
        assert_eq!(
            item.result.stats, want.stats,
            "remote stats identical to local at index {i}"
        );
        assert_eq!(item.result.kernels, want.kernels);
    }
    // The duplicate spec shares its twin's key and stats.
    assert_eq!(items[3].key, items[0].key);
    assert_eq!(items[3].result.stats, items[0].result.stats);

    // The event stream is well-formed: accepted first, one run_done per
    // spec in submission order, batch_done last.
    assert!(
        matches!(events.first(), Some(Event::Accepted { runs: 4, unique: 3 })),
        "first event announces the batch: {:?}",
        events.first()
    );
    assert!(matches!(events.last(), Some(Event::BatchDone { runs: 4 })));
    let done_indexes: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::RunDone { index, .. } => Some(*index),
            _ => None,
        })
        .collect();
    assert_eq!(done_indexes, vec![0, 1, 2, 3], "run_done in submission order");

    client_shutdown(&addr);
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn second_submission_is_served_from_memory() {
    let h = Harness::quick();
    let specs = vec![
        spec(&h, "vecadd", WarpPolicy::Gto),
        spec(&h, "saxpy", WarpPolicy::Gto),
    ];

    let (addr, handle) = start(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let remote = RemoteClient::new(&addr);

    let first = remote.run_batch(&specs).expect("first batch");
    assert!(
        first.iter().all(|i| i.source == Source::Simulated),
        "cold server simulates everything: {:?}",
        first.iter().map(|i| i.source).collect::<Vec<_>>()
    );

    let second = remote.run_batch(&specs).expect("second batch");
    assert!(
        second.iter().all(|i| i.source == Source::Cached),
        "warm server simulates nothing: {:?}",
        second.iter().map(|i| i.source).collect::<Vec<_>>()
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.result.stats, b.result.stats, "cached results identical");
    }

    client_shutdown(&addr);
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn server_store_survives_restart() {
    let dir = TempDir::new("serve-store");
    let h = Harness::quick();
    let specs = vec![spec(&h, "vecadd", WarpPolicy::Gto)];

    // First server instance simulates and persists.
    let store = Arc::new(ResultStore::open(dir.path()).expect("store opens"));
    let (addr, handle) = start(ServeConfig {
        jobs: 1,
        store: Some(store),
        ..ServeConfig::default()
    });
    let remote = RemoteClient::new(&addr);
    let first = remote.run_batch(&specs).expect("first batch");
    assert_eq!(first[0].source, Source::Simulated);
    client_shutdown(&addr);
    handle.join().expect("first server exits");

    // A fresh server over the same store dir serves the run as a hit.
    let store = Arc::new(ResultStore::open(dir.path()).expect("store reopens"));
    let (addr, handle) = start(ServeConfig {
        jobs: 1,
        store: Some(store),
        ..ServeConfig::default()
    });
    let remote = RemoteClient::new(&addr);
    let second = remote.run_batch(&specs).expect("second batch");
    assert_eq!(second[0].source, Source::Cached, "store hit after restart");
    assert_eq!(second[0].result.stats, first[0].result.stats);
    client_shutdown(&addr);
    handle.join().expect("second server exits");
}

#[test]
fn replay_mode_serves_policy_variants_from_one_capture() {
    use gpgpu_bench::ReplayMode;

    let h = Harness::quick();
    // Same workload + scale + warp policy, three CTA policies — one
    // replay group, so under `Force` the server captures once and
    // replays twice.
    let specs = vec![
        RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Baseline(None)),
        RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Lcs(0.7)),
        RunSpec::single(&h, "vecadd", WarpPolicy::Gto, CtaPolicy::Bcs(2)),
    ];

    // Reference: a plain local run with replay off.
    let local = RunEngine::new(1);
    local.execute_batch(&specs);

    let (addr, handle) = start(ServeConfig {
        jobs: 1,
        replay: ReplayMode::Force,
        ..ServeConfig::default()
    });
    let remote = RemoteClient::new(&addr);
    let got = remote.run_batch(&specs).expect("replayed batch");

    let replayed = got
        .iter()
        .filter(|i| i.source == Source::Replayed)
        .count();
    let simulated = got
        .iter()
        .filter(|i| i.source == Source::Simulated)
        .count();
    assert!(replayed >= 1, "at least one run served via replay: {got:?}");
    assert_eq!(
        replayed + simulated,
        specs.len(),
        "every run either captured or replayed: {got:?}"
    );
    for (spec, g) in specs.iter().zip(&got) {
        assert_eq!(
            local.get(spec).stats,
            g.result.stats,
            "replayed stats identical to direct execution"
        );
    }

    let stats = RemoteClient::new(&addr).stats().expect("stats");
    assert_eq!(stats.runs_replayed as usize, replayed);
    assert_eq!(stats.runs_executed as usize, simulated);

    client_shutdown(&addr);
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn progress_events_stream_for_long_runs() {
    let h = Harness::quick();
    let specs = vec![spec(&h, "vecadd", WarpPolicy::Gto)];

    let (addr, handle) = start(ServeConfig {
        jobs: 1,
        progress_every: 100, // tiny interval so even a Tiny run reports
        ..ServeConfig::default()
    });
    let remote = RemoteClient::new(&addr);

    let mut started = 0u32;
    let mut progressed = 0u32;
    remote
        .run_batch_observed(&specs, &mut |e| match e {
            Event::RunStarted { .. } => started += 1,
            Event::RunProgress { cycle, .. } => {
                assert!(*cycle > 0);
                progressed += 1;
            }
            _ => {}
        })
        .expect("batch with progress");
    assert_eq!(started, 1, "exactly one run_started");
    assert!(progressed > 0, "at least one run_progress event streamed");

    client_shutdown(&addr);
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn stats_request_reports_server_metrics() {
    let h = Harness::quick();
    let specs = vec![
        spec(&h, "vecadd", WarpPolicy::Gto),
        spec(&h, "saxpy", WarpPolicy::Gto),
    ];

    let (addr, handle) = start(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let client = RemoteClient::new(&addr);

    // Cold server: everything zero, workers idle.
    let cold = client.stats().expect("cold stats");
    assert_eq!(cold.queue_depth, 0);
    assert_eq!(cold.in_flight, 0);
    assert_eq!(cold.jobs_done, 0);
    assert_eq!(cold.runs_executed, 0);
    assert_eq!(cold.workers, 2);
    assert_eq!(cold.p50_wall_nanos, 0, "no profiles yet");
    assert_eq!(cold.hit_rate(), 0.0);

    // A batch, then the same batch again (memo hits).
    let remote = RemoteClient::new(&addr);
    remote.run_batch(&specs).expect("first batch");
    remote.run_batch(&specs).expect("second batch");

    let warm = client.stats().expect("warm stats");
    assert_eq!(warm.queue_depth, 0, "batches drained");
    assert_eq!(warm.in_flight, 0);
    assert_eq!(warm.workers_busy, 0);
    assert_eq!(warm.jobs_done, 2, "one worker job per unique spec");
    assert_eq!(warm.runs_executed, 2);
    assert_eq!(warm.runs_deduped, 2, "the repeat batch hit the memo");
    assert!(warm.hit_rate() > 0.0);
    assert!(warm.p50_wall_nanos > 0, "simulated jobs have wall times");
    assert!(warm.p99_wall_nanos >= warm.p50_wall_nanos);
    assert!(warm.log_line().contains("jobs_done=2"), "{}", warm.log_line());

    client_shutdown(&addr);
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn failed_run_names_its_cause_and_the_server_lives_on() {
    let h = Harness::quick();
    let mut starved = spec(&h, "vecadd", WarpPolicy::Gto);
    starved.max_cycles = 1_000; // far too few for vecadd to finish

    let (addr, handle) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    let remote = RemoteClient::new(&addr);
    let mut errors = Vec::new();
    let err = remote
        .run_batch_observed(&[starved], &mut |e| {
            if let Event::Error { message } = e {
                errors.push(message.clone());
            }
        })
        .expect_err("a run that cannot finish fails the submission");
    assert_eq!(errors.len(), 1, "one error event: {err}");
    assert!(
        errors[0].contains("exceeded the 1000-cycle budget"),
        "the error names the simulator's cause: {}",
        errors[0]
    );

    // The failure killed one job, not the server.
    RemoteClient::new(&addr).ping().expect("server still answers ping");
    let good = remote
        .run_batch(&[spec(&h, "vecadd", WarpPolicy::Gto)])
        .expect("a good submission after the failure");
    assert_eq!(good[0].source, Source::Simulated);

    client_shutdown(&addr);
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn over_long_request_line_gets_one_error_and_the_server_lives_on() {
    let (addr, handle) = start(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    // Exactly one byte over the limit, then a half-close: the server has
    // read every byte when it answers, so closing cannot reset the
    // connection before the error arrives.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(&vec![b'a'; MAX_LINE_BYTES + 1]).expect("send the line");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read until the server closes");
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "one event, then the connection closes: {reply}");
    let event = Json::parse(lines[0]).expect("event is JSON");
    match event_from_json(&event).expect("event decodes") {
        Event::Error { message } => assert!(
            message.contains(&format!("{MAX_LINE_BYTES}-byte limit")),
            "the error names the limit: {message}"
        ),
        other => panic!("expected an error event, got {other:?}"),
    }

    RemoteClient::new(&addr).ping().expect("server still answers ping");
    client_shutdown(&addr);
    handle.join().expect("server thread exits cleanly");
}

fn client_shutdown(addr: &str) {
    RemoteClient::new(addr).shutdown().expect("shutdown ack");
}

#[test]
fn submit_json_counts_the_batch_sources() {
    // `exp submit --json` reports where the server's results came from:
    // all simulated on a cold server, all cached when resubmitted.
    let (addr, handle) = start(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let dir = TempDir::new("submit-json");
    let out_dir = dir.path().to_str().expect("utf-8 temp path");
    let submit = |extra: &[&str]| {
        let args = ["submit", "--quick", "e7", "--addr", &addr, "--out-dir", out_dir, "--json"];
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_exp"))
            .args(args)
            .args(extra)
            .output()
            .expect("exp runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let line = stdout.lines().rev().find(|l| l.starts_with('{')).expect("a JSON line");
        let json = Json::parse(line).expect("JSON parses");
        let count = |key: &str| json.get(key).and_then(Json::as_u64).expect(key);
        ["runs", "simulated", "cached", "coalesced", "replayed"].map(count)
    };
    assert_eq!(submit(&[]), [18, 18, 0, 0, 0], "cold: E7's 18 runs simulate");
    assert_eq!(submit(&["--shutdown"]), [18, 0, 18, 0, 0], "warm: all from memory");
    handle.join().expect("server thread exits cleanly");
}
