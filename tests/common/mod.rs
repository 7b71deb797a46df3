//! The traced run the fast-path and replay golden suites compare.

use gpgpu_repro::sim::{ExecRecord, GpuConfig, SimStats, TelemetryConfig};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::{run_launches, RunMode, RunOptions, Workload};

/// What one traced run produced: the stats, the byte-serialized event
/// trace and interval series, the memory content hash (the record's
/// carried hash on replay runs, which never touch memory data), and the
/// record, when capturing.
pub type Traced = (SimStats, String, String, u64, Option<ExecRecord>);

/// Runs fresh instances of `workloads` to completion through
/// `run_launches`, sampling telemetry every `sample_every` cycles; `opts`
/// picks the loop, the mode and serial launch.
pub fn traced_run(
    cfg: GpuConfig,
    workloads: &[&dyn Fn() -> Box<dyn Workload>],
    warp: WarpPolicy,
    cta: CtaPolicy,
    sample_every: u64,
    opts: RunOptions,
) -> Traced {
    let replayed_hash = match &opts.mode {
        RunMode::Replay(rec) => Some(rec.mem_hash),
        _ => None,
    };
    let mut instances: Vec<_> = workloads.iter().map(|make| make()).collect();
    let mut launches: Vec<_> =
        instances.iter_mut().map(|w| w.as_mut() as &mut dyn Workload).collect();
    let opts = RunOptions { telemetry: Some(TelemetryConfig::new(sample_every)), ..opts };
    let (mut gpu, _) =
        run_launches(&mut launches, cfg, warp.factory().as_ref(), cta.scheduler(), 50_000_000, opts)
            .expect("run completes and verifies");
    let mem_hash = replayed_hash.unwrap_or_else(|| gpu.mem_ref().content_hash());
    let data = gpu.take_telemetry().expect("telemetry attached");
    let (mut events, mut samples) = (Vec::new(), Vec::new());
    data.write_events_jsonl(&mut events).expect("serialize events");
    data.write_samples_csv(&mut samples).expect("serialize samples");
    let utf8 = |bytes| String::from_utf8(bytes).expect("telemetry is utf-8");
    (gpu.stats(), utf8(events), utf8(samples), mem_hash, gpu.take_record())
}
