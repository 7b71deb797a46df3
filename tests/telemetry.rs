//! End-to-end telemetry tests: a traced run must (1) leave the simulation
//! results untouched, (2) emit a cycle-ordered event trace that round-trips
//! through its JSONL encoding, and (3) produce interval samples whose
//! deltas sum back to the run's cumulative totals.

use gpgpu_repro::sim::{CoreStats, GpuConfig, KernelId, KernelStats, TelemetryConfig, TelemetryData, TraceEvent};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::{by_name, run_workload, run_workload_mode, RunMode, RunOutcome, Scale};

const MAX_CYCLES: u64 = 50_000_000;

fn traced_run(name: &str, cta: CtaPolicy, sample_every: u64) -> (RunOutcome, TelemetryData) {
    let mut w = by_name(name, Scale::Tiny).expect("suite member");
    let factory = WarpPolicy::Gto.factory();
    let (outcome, _gpu, data, _) = run_workload_mode(
        w.as_mut(),
        GpuConfig::test_small(),
        factory.as_ref(),
        cta.scheduler(),
        MAX_CYCLES,
        Some(TelemetryConfig::new(sample_every)),
        RunMode::Direct,
    )
    .expect("traced run completes");
    (outcome, data.expect("telemetry was enabled"))
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

#[test]
fn interval_deltas_sum_to_run_totals() {
    let (outcome, data) = traced_run("vecadd", CtaPolicy::Baseline(None), 300);
    assert!(data.samples.len() >= 2, "run spans several intervals");
    let sum = |f: fn(&gpgpu_repro::sim::IntervalSample) -> u64| -> u64 {
        data.samples.iter().map(f).sum()
    };
    assert_eq!(sum(|s| s.core.issued), outcome.stats.instructions);
    assert_eq!(sum(|s| s.l1_accesses), outcome.stats.l1.accesses());
    assert_eq!(sum(|s| s.l1_hits), outcome.stats.l1.hits());
    assert_eq!(sum(|s| s.l2_accesses), outcome.stats.fabric.l2.accesses());
    assert_eq!(sum(|s| s.l2_hits), outcome.stats.fabric.l2.hits());
    assert_eq!(sum(|s| s.dram_row_hits), outcome.stats.fabric.dram.row_hits);
    assert_eq!(sum(|s| s.dram_rejected), outcome.stats.fabric.dram.rejected);
    // Every registry counter's deltas sum to the per-core totals.
    let mut deltas = CoreStats::default();
    let mut totals = CoreStats::default();
    data.samples.iter().for_each(|s| deltas.add(&s.core));
    outcome.stats.cores.iter().for_each(|c| totals.add(c));
    assert_eq!(deltas, totals);
    // Intervals tile the run: contiguous, non-overlapping, ending at the
    // final cycle.
    let mut expect_start = 0;
    for s in &data.samples {
        assert_eq!(s.cycle_start, expect_start, "intervals must be contiguous");
        assert!(s.cycle_end > s.cycle_start);
        expect_start = s.cycle_end;
    }
    assert_eq!(
        data.samples.last().unwrap().cycle_end,
        outcome.stats.cycles,
        "final (partial) interval reaches the end of the run"
    );
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
