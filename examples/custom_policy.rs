//! Writing your own scheduling policy against the simulator's
//! `WarpScheduler`/`CtaScheduler` traits — the extension point the whole
//! reproduction is built around.
//!
//! This example implements two toy policies and races them against GTO +
//! round-robin on a real workload:
//!
//! * `YoungestFirst` — a warp scheduler that always prefers the *youngest*
//!   ready warp (the anti-GTO; usually a bad idea, which makes it a nice
//!   demonstration that policies really change timing).
//! * `FillOneCore` — a CTA scheduler that packs core 0 completely before
//!   touching core 1, and so on (depth-first placement).
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use gpgpu_repro::sim::{
    CtaScheduler, Dispatch, DispatchView, GpuConfig, IssueView, WarpScheduler,
    WarpSchedulerFactory,
};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::{by_name, run_workload, Scale};

/// Always pick the youngest (most recently dispatched) ready warp. Only
/// the list pick is implemented: the core calls `pick_ready`, whose
/// default lists the ready mask and calls `pick`.
#[derive(Debug)]
struct YoungestFirst;

impl WarpScheduler for YoungestFirst {
    fn name(&self) -> &str {
        "youngest-first"
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        candidates
            .iter()
            .copied()
            .max_by_key(|&c| view.warp(c).map(|w| w.age).unwrap_or(0))
    }
}

#[derive(Debug)]
struct YoungestFirstFactory;

impl WarpSchedulerFactory for YoungestFirstFactory {
    fn name(&self) -> &str {
        "youngest-first"
    }
    fn create(&self, _core: usize, _slot: usize) -> Box<dyn WarpScheduler> {
        Box::new(YoungestFirst)
    }
}

/// Depth-first CTA placement: fill core 0, then core 1, ...
#[derive(Debug)]
struct FillOneCore;

impl CtaScheduler for FillOneCore {
    fn name(&self) -> &str {
        "fill-one-core"
    }

    fn select(&mut self, view: &DispatchView<'_>) -> Option<Dispatch> {
        for k in view.kernels() {
            if k.remaining == 0 {
                continue;
            }
            for core in 0..view.num_cores() {
                if view.core(core).capacity_for(k.id) > 0 {
                    return Some(Dispatch {
                        core,
                        kernel: k.id,
                        count: 1,
                    });
                }
            }
        }
        None
    }
}

fn main() {
    let workload = "stencil2d";
    println!("racing schedulers on {workload} (all runs functionally verified):\n");

    // Reference: the paper's baseline.
    let gto = WarpPolicy::Gto.factory();
    let mut w = by_name(workload, Scale::Small).expect("suite member");
    let base = run_workload(
        w.as_mut(),
        GpuConfig::fermi(),
        gto.as_ref(),
        CtaPolicy::Baseline(None).scheduler(),
        200_000_000,
    )
    .expect("baseline runs");
    println!("  gto + round-robin        : {:>8} cycles (ipc {:.2})", base.cycles(), base.ipc());

    // Custom warp scheduler.
    let mut w = by_name(workload, Scale::Small).expect("suite member");
    let yf = run_workload(
        w.as_mut(),
        GpuConfig::fermi(),
        &YoungestFirstFactory,
        CtaPolicy::Baseline(None).scheduler(),
        200_000_000,
    )
    .expect("custom warp scheduler runs");
    println!(
        "  youngest-first + RR      : {:>8} cycles (ipc {:.2})  [{:+.1}% vs baseline]",
        yf.cycles(),
        yf.ipc(),
        (base.cycles() as f64 / yf.cycles() as f64 - 1.0) * 100.0
    );

    // Custom CTA scheduler.
    let mut w = by_name(workload, Scale::Small).expect("suite member");
    let depth = run_workload(
        w.as_mut(),
        GpuConfig::fermi(),
        gto.as_ref(),
        Box::new(FillOneCore),
        200_000_000,
    )
    .expect("custom CTA scheduler runs");
    println!(
        "  gto + fill-one-core      : {:>8} cycles (ipc {:.2})  [{:+.1}% vs baseline]",
        depth.cycles(),
        depth.ipc(),
        (base.cycles() as f64 / depth.cycles() as f64 - 1.0) * 100.0
    );

    println!(
        "\nAll three produced identical (verified) outputs — scheduling \
         policies change timing, never results."
    );
}
