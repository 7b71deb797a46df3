//! Golden bit-identity suite for the simulator fast path.
//!
//! The event-gated dispatch and idle fast-forward in `gpgpu-sim` are pure
//! wall-clock optimizations: every statistic, per-kernel result, memory
//! byte, and telemetry byte must match the reference cycle-by-cycle loop
//! (`GpuDevice::set_fast_forward(false)`). These tests run a matrix of
//! workloads against every named warp and CTA policy — fast path vs
//! reference — and compare `SimStats`, the memory content hash, the
//! serialized event trace, and the serialized interval series for exact
//! equality.

use gpgpu_repro::sim::{GpuConfig, GpuDevice, MemorySink, SimStats, TelemetryConfig};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::compute::FmaHeavy;
use gpgpu_repro::workloads::irregular::RandomGather;
use gpgpu_repro::workloads::streaming::VecAdd;
use gpgpu_repro::workloads::Workload;

const MAX_CYCLES: u64 = 50_000_000;
const SAMPLE_EVERY: u64 = 500;

/// One complete traced run; `fast` selects the optimized or the reference
/// loop. Returns the stats, the byte-serialized telemetry streams, and the
/// memory content hash.
fn run_once(
    workloads: &[&dyn Fn() -> Box<dyn Workload>],
    serial: bool,
    warp: WarpPolicy,
    cta: CtaPolicy,
    fast: bool,
) -> (SimStats, String, String, u64) {
    let factory = warp.factory();
    let mut gpu = GpuDevice::new(GpuConfig::fermi(), factory.as_ref(), cta.scheduler());
    gpu.set_fast_forward(fast);
    gpu.enable_telemetry(TelemetryConfig::new(SAMPLE_EVERY), Box::new(MemorySink::new()));
    let mut instances: Vec<Box<dyn Workload>> = workloads.iter().map(|make| make()).collect();
    let mut prev = None;
    for w in &mut instances {
        let desc = w.prepare(gpu.mem());
        prev = Some(match (serial, prev) {
            (true, Some(dep)) => gpu.launch_after(desc, dep),
            _ => gpu.launch(desc),
        });
    }
    gpu.run(MAX_CYCLES).expect("run completes");
    for w in &instances {
        w.verify(gpu.mem_ref()).expect("output verifies");
    }
    let stats = gpu.stats();
    let mem_hash = gpu.mem_ref().content_hash();
    let data = gpu.take_telemetry_data().expect("telemetry attached");
    let mut events = Vec::new();
    data.write_events_jsonl(&mut events).expect("serialize events");
    let mut samples = Vec::new();
    data.write_samples_csv(&mut samples).expect("serialize samples");
    (
        stats,
        String::from_utf8(events).expect("jsonl is utf-8"),
        String::from_utf8(samples).expect("csv is utf-8"),
        mem_hash,
    )
}

fn assert_identical(
    label: &str,
    workloads: &[&dyn Fn() -> Box<dyn Workload>],
    serial: bool,
    warp: WarpPolicy,
    cta: CtaPolicy,
) {
    let fast = run_once(workloads, serial, warp, cta, true);
    let reference = run_once(workloads, serial, warp, cta, false);
    assert_eq!(fast.0, reference.0, "{label}: SimStats diverge");
    assert_eq!(fast.1, reference.1, "{label}: event traces diverge");
    assert_eq!(fast.2, reference.2, "{label}: interval series diverge");
    assert_eq!(fast.3, reference.3, "{label}: memory contents diverge");
    assert!(fast.0.instructions > 0, "{label}: trivial run proves nothing");
    assert_eq!(fast.0.malformed_dispatches, 0, "{label}: policy misbehaved");
}

fn vecadd() -> Box<dyn Workload> {
    Box::new(VecAdd::new(8 * 1024))
}

fn fmaheavy() -> Box<dyn Workload> {
    Box::new(FmaHeavy::new(4 * 1024, 32))
}

fn gather() -> Box<dyn Workload> {
    Box::new(RandomGather::new(2 * 1024, 8))
}

#[test]
fn cta_policy_matrix_is_bit_identical() {
    let workloads: [(&str, &dyn Fn() -> Box<dyn Workload>); 3] =
        [("vecadd", &vecadd), ("fmaheavy", &fmaheavy), ("gather", &gather)];
    for (wname, make) in workloads {
        for (cname, cta) in CtaPolicy::all_named() {
            assert_identical(
                &format!("{wname} x gto x {cname}"),
                &[make],
                false,
                WarpPolicy::Gto,
                cta,
            );
        }
    }
}

#[test]
fn warp_policy_matrix_is_bit_identical() {
    for (wname, warp) in WarpPolicy::all_named() {
        assert_identical(
            &format!("vecadd x {wname} x baseline"),
            &[&vecadd],
            false,
            warp,
            CtaPolicy::Baseline(None),
        );
    }
}

#[test]
fn concurrent_pair_is_bit_identical() {
    // Two kernels live at once: exercises CKE admission, multi-kernel
    // dispatch gating, and fast-forward with heterogeneous occupancy.
    for (cname, cta) in [
        ("leftover-cke", CtaPolicy::LeftoverCke),
        ("mixed-cke:0.7", CtaPolicy::MixedCke(0.7)),
        ("baseline", CtaPolicy::Baseline(None)),
    ] {
        assert_identical(
            &format!("vecadd+fmaheavy x gto x {cname}"),
            &[&vecadd, &fmaheavy],
            false,
            WarpPolicy::Gto,
            cta,
        );
    }
}

#[test]
fn stall_accounting_is_live_and_bit_identical() {
    // The stall taxonomy and occupancy integrals are observation-only:
    // every counter must be bit-identical with fast-forward on and off,
    // must actually fire (a taxonomy that never
    // attributes anything proves nothing), and must obey the conservation
    // identity `Σ stall_* == idle_slots + stalled_slots` per core. The
    // gather workload keeps loads in flight (MemPending) while the
    // fmaheavy pairing exercises scoreboard pressure.
    let reference = run_once(
        &[&vecadd, &gather],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
        false,
    );
    let bd = reference.0.stall_breakdown();
    assert!(bd.core_cycles > 0, "cycle integrals never advanced");
    assert_eq!(
        bd.core_cycles,
        reference.0.cycles * reference.0.cores.len() as u64,
        "every core must observe every device cycle"
    );
    assert!(bd.mem_pending > 0, "gather never waited on memory?");
    assert!(bd.scoreboard > 0, "no scoreboard stalls at all?");
    assert!(bd.ff_idle > 0, "no quiet cycles in a whole run?");
    assert!(bd.cta_resident_cycles > 0 && bd.warp_resident_cycles > 0);
    for (i, c) in reference.0.cores.iter().enumerate() {
        assert_eq!(
            c.stall_total(),
            c.idle_slots + c.stalled_slots,
            "core {i}: stall taxonomy does not balance the slot counters"
        );
    }
    gpgpu_repro::sim::assert_conservation(&reference.0);
    let fast = run_once(
        &[&vecadd, &gather],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
        true,
    );
    assert_eq!(
        fast.0.cores, reference.0.cores,
        "fast-forward: stall/occupancy counters diverge"
    );
}

#[test]
fn serial_pair_is_bit_identical() {
    // launch_after: the second kernel activates on the first one's
    // completion cycle, which the fast-forward gating must not disturb.
    assert_identical(
        "vecadd->gather serial x gto x baseline",
        &[&vecadd, &gather],
        true,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
}
