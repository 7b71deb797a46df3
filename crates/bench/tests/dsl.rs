//! Capture/replay round-trips for DSL-compiled workloads: a capture pass
//! followed by a replay (the `--replay auto` path) must re-time a suite
//! kernel and a generated family member to the same stats and memory hash
//! as a direct run.

use gpgpu_sim::GpuConfig;
use gpgpu_workloads::streaming::VecAdd;
use gpgpu_workloads::{by_name, run_launches, RunMode, RunOptions, Scale, Workload};
use std::sync::Arc;
use tbs_core::{CtaPolicy, WarpPolicy};

const MAX_CYCLES: u64 = 50_000_000;

/// Capture a DSL workload once, then replay the record: stats and the
/// record's memory hash must match the direct run exactly (the engine's
/// `--replay auto` contract).
fn assert_capture_replay_roundtrip(mut mk: impl FnMut() -> Box<dyn Workload>) {
    let factory = WarpPolicy::Gto.factory();
    let name = mk().name().to_string();

    let mut run = |mode: RunMode, what: &str| {
        run_launches(
            &mut [mk().as_mut()],
            GpuConfig::test_small(),
            factory.as_ref(),
            CtaPolicy::Baseline(None).scheduler(),
            MAX_CYCLES,
            RunOptions {
                mode,
                ..RunOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name} {what}: {e}"))
        .0
    };

    let direct = run(RunMode::Direct, "direct");
    let direct_hash = direct.mem_ref().content_hash();

    let mut captured = run(RunMode::Capture, "capture");
    assert_eq!(direct.stats(), captured.stats(), "{name}: capture perturbs timing");
    assert_eq!(direct_hash, captured.mem_ref().content_hash());
    let record = Arc::new(captured.take_record().expect("capture produced a record"));
    assert_eq!(record.mem_hash, direct_hash, "{name}: record hash drifts");

    let replayed = run(RunMode::Replay(Arc::clone(&record)), "replay");
    assert_eq!(direct.stats(), replayed.stats(), "{name}: replay diverges");
}

#[test]
fn vecadd_capture_replay_roundtrip() {
    assert_capture_replay_roundtrip(|| Box::new(VecAdd::new(2048)));
}

#[test]
fn generated_family_capture_replay_roundtrip() {
    // A gen: family resolved through by_name, like the engine would.
    assert_capture_replay_roundtrip(|| {
        by_name("gen:tile/reuse=16,stride=3,pad=2", Scale::Tiny).expect("valid spec")
    });
}
