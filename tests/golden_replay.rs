//! Golden bit-identity suite for execution-record replay.
//!
//! Replay (`gpgpu_sim::record`) re-times a captured functional execution
//! under a possibly different CTA policy, warp policy, or fast-forward
//! mode. It is a pure wall-clock optimization, so its
//! contract is the same as the fast path's: `SimStats`, the serialized
//! telemetry streams, and the memory content hash (carried by the record)
//! must equal direct execution *byte for byte*. These tests capture each
//! E2/E5/E8 workload shape once — under a policy deliberately different
//! from the replay targets — and replay it across 3 CTA policies,
//! comparing every output against a direct run.

use gpgpu_repro::sim::{ExecRecord, GpuConfig};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::compute::FmaHeavy;
use gpgpu_repro::workloads::streaming::VecAdd;
use gpgpu_repro::workloads::{RunMode, RunOptions, Workload};
use std::sync::Arc;

mod common;
use common::{traced_run, Traced};

const SAMPLE_EVERY: u64 = 500;

/// One complete traced run on the fast path.
fn run_once(
    workloads: &[&dyn Fn() -> Box<dyn Workload>],
    serial: bool,
    warp: WarpPolicy,
    cta: CtaPolicy,
    mode: RunMode,
) -> Traced {
    let opts = RunOptions { mode, serial, ..RunOptions::default() };
    traced_run(GpuConfig::fermi(), workloads, warp, cta, SAMPLE_EVERY, opts)
}

fn vecadd() -> Box<dyn Workload> {
    Box::new(VecAdd::new(8 * 1024))
}

fn fmaheavy() -> Box<dyn Workload> {
    Box::new(FmaHeavy::new(4 * 1024, 32))
}

/// Captures `workloads` once (under `capture_cta`), then replays under
/// every target policy and asserts byte-identity against a direct run
/// under the same policy.
fn assert_replay_identical(
    label: &str,
    workloads: &[&dyn Fn() -> Box<dyn Workload>],
    serial: bool,
    capture_cta: CtaPolicy,
    targets: &[(&str, CtaPolicy)],
) {
    let cap = run_once(
        workloads,
        serial,
        WarpPolicy::Gto,
        capture_cta,
        RunMode::Capture,
    );
    let record = Arc::new(cap.4.expect("capture produced a record"));
    assert!(record.total_steps() > 0, "{label}: empty record proves nothing");

    // Capture is observation-only: a direct run under the capture policy
    // must match the capture run byte for byte.
    let direct_cap = run_once(
        workloads,
        serial,
        WarpPolicy::Gto,
        capture_cta,
        RunMode::Direct,
    );
    assert_eq!(cap.0, direct_cap.0, "{label}: capture perturbed SimStats");
    assert_eq!(cap.1, direct_cap.1, "{label}: capture perturbed events");
    assert_eq!(cap.2, direct_cap.2, "{label}: capture perturbed intervals");
    assert_eq!(cap.3, direct_cap.3, "{label}: capture perturbed memory");
    assert_eq!(record.mem_hash, direct_cap.3, "{label}: record mem_hash wrong");

    for &(cname, cta) in targets {
        let direct = run_once(workloads, serial, WarpPolicy::Gto, cta, RunMode::Direct);
        let replay = run_once(
            workloads,
            serial,
            WarpPolicy::Gto,
            cta,
            RunMode::Replay(Arc::clone(&record)),
        );
        let tag = format!("{label} -> {cname}");
        assert_eq!(replay.0, direct.0, "{tag}: SimStats diverge");
        assert_eq!(replay.1, direct.1, "{tag}: event traces diverge");
        assert_eq!(replay.2, direct.2, "{tag}: interval series diverge");
        assert_eq!(replay.3, direct.3, "{tag}: memory hash diverges");
        assert!(
            direct.0.instructions > 0,
            "{tag}: trivial run proves nothing"
        );
    }
}

#[test]
fn e2_replay_is_bit_identical() {
    // E2 shape: vecadd x gto x baseline. Captured under LCS so the
    // replay targets genuinely cross policies.
    assert_replay_identical(
        "e2: vecadd",
        &[&vecadd],
        false,
        CtaPolicy::Lcs(0.5),
        &[
            ("baseline", CtaPolicy::Baseline(None)),
            ("lcs:0.7", CtaPolicy::Lcs(0.7)),
            ("bcs:2", CtaPolicy::Bcs(2)),
        ],
    );
}

#[test]
fn e5_replay_is_bit_identical() {
    // E5 shape: the LCS throttle sweep point, captured under baseline.
    assert_replay_identical(
        "e5: vecadd",
        &[&vecadd],
        false,
        CtaPolicy::Baseline(None),
        &[
            ("lcs:0.7", CtaPolicy::Lcs(0.7)),
            ("lcs:0.3", CtaPolicy::Lcs(0.3)),
            ("baseline:4", CtaPolicy::Baseline(Some(4))),
        ],
    );
}

#[test]
fn e8_replay_is_bit_identical() {
    // E8 shape: a concurrent pair under mixed CKE — exercises
    // co-scheduled dispatch, multi-kernel record assembly, and CKE
    // admission during replay.
    assert_replay_identical(
        "e8: vecadd+fmaheavy",
        &[&vecadd, &fmaheavy],
        false,
        CtaPolicy::Baseline(None),
        &[
            ("mixed-cke:0.7", CtaPolicy::MixedCke(0.7)),
            ("leftover-cke", CtaPolicy::LeftoverCke),
            ("baseline", CtaPolicy::Baseline(None)),
        ],
    );
}

#[test]
fn serial_pair_replay_is_bit_identical() {
    // launch_after ordering must survive capture/replay: the second
    // kernel's record is keyed by its launch index, not its start cycle.
    assert_replay_identical(
        "serial: vecadd->fmaheavy",
        &[&vecadd, &fmaheavy],
        true,
        CtaPolicy::Baseline(None),
        &[("lcs:0.7", CtaPolicy::Lcs(0.7))],
    );
}

#[test]
fn replay_survives_binary_round_trip() {
    // The record that replays must be the record that persists: replay
    // from a serialize/deserialize round-trip, not just the in-memory
    // capture.
    let cap = run_once(
        &[&vecadd],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
        RunMode::Capture,
    );
    let record = cap.4.expect("capture produced a record");
    let mut buf = Vec::new();
    record.write_to(&mut buf).expect("serialize record");
    let decoded = Arc::new(ExecRecord::read_from(&mut buf.as_slice()).expect("decode record"));
    assert_eq!(*decoded, record, "binary round-trip changed the record");
    let direct = run_once(
        &[&vecadd],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Lcs(0.7),
        RunMode::Direct,
    );
    let replay = run_once(
        &[&vecadd],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Lcs(0.7),
        RunMode::Replay(decoded),
    );
    assert_eq!(replay.0, direct.0, "round-tripped record: SimStats diverge");
    assert_eq!(replay.1, direct.1, "round-tripped record: events diverge");
    assert_eq!(replay.2, direct.2, "round-tripped record: intervals diverge");
}

/// Wall-clock probe backing the EXPERIMENTS.md capture-vs-replay table:
/// per-mode run time of representative workloads at Small scale. Ignored
/// in normal runs (it asserts nothing about timing); run by hand with
///
/// ```text
/// cargo test --release --test golden_replay -- --ignored --nocapture
/// ```
#[test]
#[ignore = "wall-clock probe; run with --ignored --nocapture"]
fn capture_replay_wall_clock_probe() {
    use gpgpu_repro::workloads::{by_name, Scale};
    use std::time::Instant;
    println!("workload      direct_s  capture_s  replay_s  capture/direct  replay/direct");
    for name in ["vecadd", "spmv-ell", "gather", "fmaheavy"] {
        let make = || by_name(name, Scale::Small).expect("suite workload");
        let factories: &[&dyn Fn() -> Box<dyn Workload>] = &[&make];
        let t0 = Instant::now();
        let _ = run_once(
            factories,
            false,
            WarpPolicy::Gto,
            CtaPolicy::Baseline(None),
            RunMode::Direct,
        );
        let direct = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let cap = run_once(
            factories,
            false,
            WarpPolicy::Gto,
            CtaPolicy::Baseline(None),
            RunMode::Capture,
        );
        let capture = t0.elapsed().as_secs_f64();
        let record = Arc::new(cap.4.expect("capture produced a record"));
        let t0 = Instant::now();
        let _ = run_once(
            factories,
            false,
            WarpPolicy::Gto,
            CtaPolicy::Lcs(0.7),
            RunMode::Replay(Arc::clone(&record)),
        );
        let replay = t0.elapsed().as_secs_f64();
        println!(
            "{name:<13} {direct:>8.2}  {capture:>9.2}  {replay:>8.2}  {:>14.2}  {:>13.2}",
            capture / direct,
            replay / direct
        );
    }
}

#[test]
fn replay_composes_with_fast_forward_off() {
    // Replay under the reference cycle-by-cycle loop equals replay under
    // the fast path equals direct execution.
    let cap = run_once(
        &[&vecadd],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
        RunMode::Capture,
    );
    let record = Arc::new(cap.4.expect("capture produced a record"));
    let direct = run_once(
        &[&vecadd],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Bcs(2),
        RunMode::Direct,
    );
    for reference_loop in [true, false] {
        let mode = RunMode::Replay(Arc::clone(&record));
        let opts = RunOptions { reference_loop, mode, ..RunOptions::default() };
        let cta = CtaPolicy::Bcs(2);
        let replay = traced_run(GpuConfig::fermi(), &[&vecadd], WarpPolicy::Gto, cta, SAMPLE_EVERY, opts);
        assert_eq!(replay.0, direct.0, "reference_loop={reference_loop}: SimStats diverge");
    }
}
