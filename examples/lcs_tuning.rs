//! LCS in action: a cache-sensitive sparse kernel where the hardware
//! maximum CTA count thrashes the L1 — watch LCS find the sweet spot
//! online and compare against a static sweep.
//!
//! ```text
//! cargo run --release --example lcs_tuning
//! ```

use gpgpu_repro::sim::GpuConfig;
use gpgpu_repro::tbs::{CtaPolicy, Lcs, WarpPolicy};
use gpgpu_repro::workloads::irregular::SpmvEll;
use gpgpu_repro::workloads::{run_launches, run_workload, RunOptions, RunOutcome};

const MAX_CYCLES: u64 = 400_000_000;

fn spmv() -> SpmvEll {
    // 96K rows, 16 nonzeros each, banded: each CTA's x-vector working set
    // is ~13 KiB, so the L1 holds it for a couple of resident CTAs — not
    // for the hardware maximum of five.
    SpmvEll::new(96 * 1024, 16)
}

fn main() {
    let warp = WarpPolicy::Gto.factory();

    println!("static per-core CTA limit sweep (GTO):");
    let mut base_cycles = 0;
    for limit in [None, Some(1), Some(2), Some(3), Some(4), Some(6)] {
        let mut w = spmv();
        let out = run_workload(
            &mut w,
            GpuConfig::fermi(),
            warp.as_ref(),
            CtaPolicy::Baseline(limit).scheduler(),
            MAX_CYCLES,
        )
        .expect("runs and verifies");
        if limit.is_none() {
            base_cycles = out.cycles();
        }
        println!(
            "  limit {:>4}: {:>8} cycles  (ipc {:.2}, L1 miss {:.3})",
            limit.map_or("max".into(), |l| l.to_string()),
            out.cycles(),
            out.ipc(),
            out.stats.l1.miss_rate(),
        );
    }

    println!("\nLCS (gamma = 0.7), deciding per core from the monitoring period:");
    let mut w = spmv();
    let (gpu, kernels) = run_launches(
        &mut [&mut w],
        GpuConfig::fermi(),
        warp.as_ref(),
        CtaPolicy::Lcs(0.7).scheduler(),
        MAX_CYCLES,
        RunOptions::default(),
    )
    .expect("runs and verifies");
    let out = RunOutcome {
        stats: gpu.stats(),
        kernel: kernels[0],
    };
    println!(
        "  lcs       : {:>8} cycles  (ipc {:.2}, L1 miss {:.3})  speedup {:.3}x",
        out.cycles(),
        out.ipc(),
        out.stats.l1.miss_rate(),
        base_cycles as f64 / out.cycles() as f64
    );
    let lcs = gpu
        .cta_scheduler()
        .as_any()
        .and_then(|a| a.downcast_ref::<Lcs>())
        .expect("policy is LCS");
    let mut limits: Vec<String> = lcs
        .decisions()
        .map(|(_, l)| {
            if *l == u32::MAX {
                "max".to_string() // utilization guard kept the hw maximum
            } else {
                l.to_string()
            }
        })
        .collect();
    limits.sort_unstable();
    println!("  per-core limits decided online: {limits:?}");
    println!("\n(The kernel output was functionally verified in every run.)");
}
