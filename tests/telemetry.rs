//! End-to-end telemetry tests: a traced run must (1) leave the simulation
//! results untouched, (2) emit a cycle-ordered event trace that round-trips
//! through its JSONL encoding, and (3) produce interval samples whose
//! deltas sum back to the run's cumulative totals, also when telemetry is
//! attached after an earlier run.

use gpgpu_repro::mem::{CacheStats, DramStats};
use gpgpu_repro::sim::{
    CoreStats, GpuConfig, IntervalSample, KernelId, KernelStats, SimStats,
    TelemetryConfig, TelemetryData, TraceEvent,
};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::{by_name, run_launches, run_workload, RunOptions, RunOutcome, Scale};

const MAX_CYCLES: u64 = 50_000_000;

fn traced_run(name: &str, cta: CtaPolicy, sample_every: u64) -> (RunOutcome, TelemetryData) {
    let mut w = by_name(name, Scale::Tiny).expect("suite member");
    let factory = WarpPolicy::Gto.factory();
    let (mut gpu, kernels) = run_launches(
        &mut [w.as_mut()],
        GpuConfig::test_small(),
        factory.as_ref(),
        cta.scheduler(),
        MAX_CYCLES,
        RunOptions {
            telemetry: Some(TelemetryConfig::new(sample_every)),
            ..RunOptions::default()
        },
    )
    .expect("traced run completes");
    let outcome = RunOutcome {
        stats: gpu.stats(),
        kernel: kernels[0],
    };
    (outcome, gpu.take_telemetry().expect("telemetry was enabled"))
}

#[test]
fn telemetry_does_not_change_results() {
    let mut w = by_name("vecadd", Scale::Tiny).expect("suite member");
    let factory = WarpPolicy::Gto.factory();
    let plain = run_workload(
        w.as_mut(),
        GpuConfig::test_small(),
        factory.as_ref(),
        CtaPolicy::Lcs(0.7).scheduler(),
        MAX_CYCLES,
    )
    .expect("plain run completes");
    let (traced, data) = traced_run("vecadd", CtaPolicy::Lcs(0.7), 500);
    assert_eq!(plain.stats, traced.stats, "telemetry must only observe");
    assert!(!data.events.is_empty());
    assert!(!data.samples.is_empty());
}

#[test]
fn real_run_events_round_trip_through_jsonl() {
    let (_, data) = traced_run("vecadd", CtaPolicy::Lcs(0.7), 500);
    for ev in &data.events {
        let line = ev.to_json();
        let back = TraceEvent::from_json(&line)
            .unwrap_or_else(|e| panic!("round-trip failed for {line}: {e}"));
        assert_eq!(&back, ev);
    }
    // The whole-file writer emits exactly one parseable line per event.
    let mut buf = Vec::new();
    data.write_events_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), data.events.len());
    for line in text.lines() {
        TraceEvent::from_json(line).expect("every written line parses");
    }
}

#[test]
fn events_are_cycle_ordered_and_complete() {
    let (outcome, data) = traced_run("vecadd", CtaPolicy::Baseline(None), 500);
    let ctas = outcome
        .stats
        .kernel(outcome.kernel)
        .expect("kernel ran")
        .ctas;
    let mut last = 0;
    for ev in &data.events {
        assert!(ev.cycle() >= last, "events must be cycle-ordered");
        last = ev.cycle();
    }
    let count = |want: &str| {
        data.events
            .iter()
            .filter(|e| e.to_json().contains(&format!("\"type\":\"{want}\"")))
            .count() as u64
    };
    assert_eq!(count("kernel-launch"), 1);
    assert_eq!(count("kernel-complete"), 1);
    assert_eq!(count("cta-dispatch"), ctas, "every CTA dispatch is traced");
    assert_eq!(count("cta-retire"), ctas, "every CTA retirement is traced");
}

/// Every counter table of `samples`, merged: (cores, L1, L2, DRAM).
fn merged(samples: &[IntervalSample]) -> (CoreStats, CacheStats, CacheStats, DramStats) {
    let mut m = <(CoreStats, CacheStats, CacheStats, DramStats)>::default();
    for s in samples {
        m.0.merge(&s.core);
        m.1.merge(&s.l1);
        m.2.merge(&s.l2);
        m.3.merge(&s.dram);
    }
    m
}

/// The same tables of a run's cumulative statistics.
fn tables(stats: &SimStats) -> (CoreStats, CacheStats, CacheStats, DramStats) {
    let mut core = CoreStats::default();
    stats.cores.iter().for_each(|c| core.merge(c));
    (core, stats.l1, stats.fabric.l2, stats.fabric.dram)
}

/// Asserts that `samples` tile `[start, end)`: contiguous, non-empty and
/// non-overlapping.
fn assert_tiles(samples: &[IntervalSample], start: u64, end: u64) {
    let mut expect_start = start;
    for s in samples {
        assert_eq!(s.cycle_start, expect_start, "intervals must be contiguous");
        assert!(s.cycle_end > s.cycle_start);
        expect_start = s.cycle_end;
    }
    assert_eq!(expect_start, end, "final (partial) interval reaches the end of the run");
}

#[test]
fn interval_deltas_sum_to_run_totals() {
    let (outcome, data) = traced_run("vecadd", CtaPolicy::Baseline(None), 300);
    assert!(data.samples.len() >= 2, "run spans several intervals");
    // Every counter of every table: per-core, L1, L2 and DRAM.
    assert_eq!(merged(&data.samples), tables(&outcome.stats));
    let issued: u64 = data.samples.iter().map(|s| s.core.issued).sum();
    assert_eq!(issued, outcome.stats.instructions);
    assert_tiles(&data.samples, 0, outcome.stats.cycles);
}

#[test]
fn telemetry_attached_after_a_run_covers_only_what_follows() {
    // Run vecadd untraced, then attach telemetry and run saxpy on the same
    // device: the intervals must start at the attach cycle and their
    // deltas must sum to what the second run added.
    let (mut gpu, _) = run_launches(
        &mut [by_name("vecadd", Scale::Tiny).expect("suite member").as_mut()],
        GpuConfig::test_small(),
        WarpPolicy::Gto.factory().as_ref(),
        CtaPolicy::Baseline(None).scheduler(),
        MAX_CYCLES,
        RunOptions::default(),
    )
    .expect("first run completes");
    let first = gpu.stats();
    let attach = first.cycles;
    gpu.enable_telemetry(TelemetryConfig::new(500));
    let mut saxpy = by_name("saxpy", Scale::Tiny).expect("suite member");
    let desc = saxpy.prepare(gpu.mem());
    gpu.launch(desc);
    gpu.run(MAX_CYCLES).expect("second run completes");
    let after = gpu.stats();
    let data = gpu.take_telemetry().expect("telemetry was enabled");
    assert!(data.samples.len() >= 2, "second run spans several intervals");
    assert_tiles(&data.samples, attach, after.cycles);
    let (core, l1, l2, dram) = tables(&after);
    let (core0, l1_0, l2_0, dram0) = tables(&first);
    let second = (core.delta(&core0), l1.delta(&l1_0), l2.delta(&l2_0), dram.delta(&dram0));
    assert!(second.1.accesses() > 0, "the second run touches memory");
    assert_eq!(merged(&data.samples), second);
}

#[test]
fn sampling_period_longer_than_run_yields_one_partial_interval() {
    // The sampler only fires on period boundaries AND at run end, so a
    // period far beyond the run length must collapse to a single partial
    // interval covering the whole run — not zero samples.
    let (outcome, data) = traced_run("vecadd", CtaPolicy::Baseline(None), 100_000_000);
    assert_eq!(data.samples.len(), 1, "one interval covers the whole run");
    let s = &data.samples[0];
    assert_eq!(s.cycle_start, 0);
    assert_eq!(s.cycle_end, outcome.stats.cycles);
    assert_eq!(s.core.issued, outcome.stats.instructions);
}

#[test]
fn u64_max_period_yields_one_partial_interval() {
    // A period of u64::MAX puts the first boundary at Cycle::MAX, which
    // must still read as "not yet", not as "sampling off": the final
    // sample covers the whole run, also when telemetry attaches after an
    // earlier run on the same device.
    let (outcome, data) = traced_run("vecadd", CtaPolicy::Baseline(None), u64::MAX);
    assert_eq!(data.samples.len(), 1, "one interval covers the whole run");
    assert_tiles(&data.samples, 0, outcome.stats.cycles);
    assert_eq!(data.samples[0].core.issued, outcome.stats.instructions);

    let (mut gpu, _) = run_launches(
        &mut [by_name("vecadd", Scale::Tiny).expect("suite member").as_mut()],
        GpuConfig::test_small(),
        WarpPolicy::Gto.factory().as_ref(),
        CtaPolicy::Baseline(None).scheduler(),
        MAX_CYCLES,
        RunOptions::default(),
    )
    .expect("first run completes");
    let first = gpu.stats();
    gpu.enable_telemetry(TelemetryConfig::new(u64::MAX));
    let mut saxpy = by_name("saxpy", Scale::Tiny).expect("suite member");
    let desc = saxpy.prepare(gpu.mem());
    gpu.launch(desc);
    gpu.run(MAX_CYCLES).expect("second run completes");
    let after = gpu.stats();
    let data = gpu.take_telemetry().expect("telemetry was enabled");
    assert_eq!(data.samples.len(), 1, "one interval covers the second run");
    assert_tiles(&data.samples, first.cycles, after.cycles);
    assert_eq!(
        data.samples[0].core.issued,
        after.instructions - first.instructions
    );
}

#[test]
fn per_cycle_sampling_tiles_the_run_exactly() {
    // sample_every = 1 is the densest legal period: every interval must be
    // exactly one cycle wide and the tiling must still be exact with no
    // empty trailing interval.
    let (outcome, data) = traced_run("vecadd", CtaPolicy::Baseline(None), 1);
    assert_eq!(data.samples.len() as u64, outcome.stats.cycles);
    for (i, s) in data.samples.iter().enumerate() {
        assert_eq!(s.cycle_start, i as u64);
        assert_eq!(s.cycle_end, i as u64 + 1);
    }
    let issued: u64 = data.samples.iter().map(|s| s.core.issued).sum();
    assert_eq!(issued, outcome.stats.instructions);
}

#[test]
fn sampling_period_dividing_run_length_leaves_no_empty_tail() {
    // When the run length is an exact multiple of the period, the
    // boundary-cycle flush and the end-of-run flush coincide; the sampler
    // must not emit an empty [cycles, cycles) interval. The run is
    // deterministic, so measure the length once, then re-run with a period
    // that divides it.
    let (outcome, _) = traced_run("vecadd", CtaPolicy::Baseline(None), 500);
    let cycles = outcome.stats.cycles;
    let period = if cycles % 2 == 0 { cycles / 2 } else { cycles };
    let (again, data) = traced_run("vecadd", CtaPolicy::Baseline(None), period);
    assert_eq!(again.stats.cycles, cycles, "run is deterministic");
    assert_eq!(data.samples.len() as u64, cycles / period);
    for s in &data.samples {
        assert!(s.cycle_end > s.cycle_start, "no empty intervals");
    }
    assert_eq!(data.samples.last().unwrap().cycle_end, cycles);
}

fn kstats(started: bool, done: bool, start: u64, end: u64, instructions: u64) -> KernelStats {
    KernelStats {
        id: KernelId(0),
        name: "k".into(),
        start_cycle: start,
        end_cycle: end,
        instructions,
        ctas: 1,
        started,
        done,
    }
}

#[test]
fn ipc_at_reports_zero_for_pending_kernels() {
    // A queued kernel has issued nothing: ipc_at must be 0 at every probe
    // cycle, including ones past its (meaningless) start_cycle.
    let k = kstats(false, false, 0, 0, 0);
    for now in [0, 1, 100, u64::MAX] {
        assert_eq!(k.ipc_at(now), 0.0);
    }
}

#[test]
fn ipc_at_tracks_in_flight_kernels() {
    let k = kstats(true, false, 100, 0, 500);
    // Probing at (or before) activation: zero elapsed cycles must give
    // IPC 0, not a division by zero or a huge value from the saturating
    // subtraction wrapping.
    assert_eq!(k.ipc_at(100), 0.0);
    assert_eq!(k.ipc_at(0), 0.0, "probe before start saturates to 0");
    // Mid-flight: instructions over cycles since activation.
    assert_eq!(k.ipc_at(200), 5.0);
    assert_eq!(k.ipc_at(600), 1.0);
    // Plain ipc() stays 0 until completion — ipc_at is the mid-run view.
    assert_eq!(k.ipc(), 0.0);
}

#[test]
fn ipc_at_of_done_kernel_ignores_the_probe_cycle() {
    let k = kstats(true, true, 100, 300, 400);
    assert_eq!(k.ipc(), 2.0);
    for now in [0, 100, 300, 1_000_000] {
        assert_eq!(k.ipc_at(now), k.ipc(), "done kernels pin to final IPC");
    }
}

#[test]
fn ipc_at_matches_final_ipc_after_a_real_run() {
    let (outcome, _) = traced_run("vecadd", CtaPolicy::Baseline(None), 500);
    let k = outcome.stats.kernel(outcome.kernel).expect("kernel ran");
    assert!(k.done);
    assert!(k.ipc() > 0.0);
    assert_eq!(k.ipc_at(outcome.stats.cycles), k.ipc());
    assert_eq!(k.elapsed(outcome.stats.cycles), k.cycles());
}
