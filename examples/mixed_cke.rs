//! Mixed concurrent kernel execution: a memory-intensive kernel and a
//! compute-intensive kernel sharing the GPU three ways — serially, with
//! core-exclusive "leftover" CKE, and with the paper's mixed CKE (LCS
//! sizes the memory kernel's per-core share; the compute kernel fills the
//! rest of every core).
//!
//! ```text
//! cargo run --release --example mixed_cke
//! ```

use gpgpu_repro::sim::GpuConfig;
use gpgpu_repro::tbs::CtaPolicy;
use gpgpu_repro::tbs::WarpPolicy;
use gpgpu_repro::workloads::{by_name, run_launches, RunOptions, Scale};

const MAX_CYCLES: u64 = 400_000_000;

fn run_mode(mem: &str, comp: &str, cta: CtaPolicy, serial: bool) -> u64 {
    let mut a = by_name(mem, Scale::Small).expect("suite member");
    let mut b = by_name(comp, Scale::Small).expect("suite member");
    let warp = WarpPolicy::Gto.factory();
    let (gpu, _) = run_launches(
        &mut [a.as_mut(), b.as_mut()],
        GpuConfig::fermi(),
        warp.as_ref(),
        cta.scheduler(),
        MAX_CYCLES,
        RunOptions {
            serial,
            ..RunOptions::default()
        },
    )
    .expect("both kernels run and verify");
    gpu.stats().cycles
}

fn main() {
    for (mem, comp) in [("vecadd", "fmaheavy"), ("spmv-ell", "fmaheavy")] {
        println!("pair: {mem} (memory) + {comp} (compute)");
        let serial = run_mode(mem, comp, CtaPolicy::Baseline(None), true);
        println!("  serial            : {serial:>8} cycles  (1.000x)");
        let leftover = run_mode(mem, comp, CtaPolicy::LeftoverCke, false);
        println!(
            "  leftover CKE      : {leftover:>8} cycles  ({:.3}x)",
            serial as f64 / leftover as f64
        );
        let mixed = run_mode(mem, comp, CtaPolicy::MixedCke(0.7), false);
        println!(
            "  mixed CKE (paper) : {mixed:>8} cycles  ({:.3}x)",
            serial as f64 / mixed as f64
        );
        println!();
    }
    println!("(All outputs functionally verified.)");
}
