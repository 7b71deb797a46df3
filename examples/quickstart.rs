//! Quickstart: write a kernel in the kernel DSL, run it on the simulated
//! Fermi-class GPU, and verify the output.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpgpu_repro::isa::dsl::DslKernel;
use gpgpu_repro::isa::{CmpOp, CmpTy, Dim2, KernelDescriptor};
use gpgpu_repro::sim::{GpuConfig, GpuDevice};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use std::sync::Arc;

fn main() {
    // 1. Write a kernel: c[i] = a[i] * 3 + b[i] for i < n.
    let mut k = DslKernel::new("triad", Dim2::x(256));
    let pa = k.param(0);
    let pb = k.param(1);
    let pc = k.param(2);
    let pn = k.param(3);
    let gid = k.global_tid_x();
    let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
    k.if_then(in_range, |k| {
        let off = k.shl(gid, 2u64);
        let ea = k.iadd(pa, off);
        let eb = k.iadd(pb, off);
        let ec = k.iadd(pc, off);
        let va = k.ld_global_u32(ea, 0);
        let vb = k.ld_global_u32(eb, 0);
        let t = k.imul(va, 3u64);
        let vc = k.iadd(t, vb);
        k.st_global_u32(vc, ec, 0);
    });
    let program = Arc::new(k.compile().expect("well-formed kernel"));
    println!("kernel:\n{}", program.disassemble());

    // 2. Build the GPU with the paper's reference policies (GTO warp
    //    scheduler, round-robin CTA scheduler).
    let warp = WarpPolicy::Gto.factory();
    let mut gpu = GpuDevice::new(
        GpuConfig::fermi(),
        warp.as_ref(),
        CtaPolicy::Baseline(None).scheduler(),
    );

    // 3. Set up device memory.
    let n: u32 = 64 * 1024;
    let bytes = u64::from(n) * 4;
    let a = gpu.alloc(bytes);
    let b = gpu.alloc(bytes);
    let c = gpu.alloc(bytes);
    let av: Vec<u32> = (0..n).collect();
    let bv: Vec<u32> = (0..n).map(|i| 1000 + i).collect();
    gpu.mem().write_u32_slice(a, &av);
    gpu.mem().write_u32_slice(b, &bv);

    // 4. Launch and run.
    let desc = KernelDescriptor::builder(program, Dim2::x(n / 256), Dim2::x(256))
        .params([a, b, c, u64::from(n)])
        .build()
        .expect("valid launch");
    let kernel = gpu.launch(desc);
    gpu.run(100_000_000).expect("kernel completes");

    // 5. Inspect results: timing AND functional output.
    let stats = gpu.stats();
    let ks = stats.kernel(kernel).expect("ran");
    println!(
        "cycles = {}, instructions = {}, IPC = {:.2}",
        ks.cycles(),
        ks.instructions,
        ks.ipc()
    );
    println!(
        "L1 miss rate = {:.3}, DRAM row-hit rate = {:.3}",
        stats.l1.miss_rate(),
        stats.fabric.dram.row_hit_rate()
    );
    let out = gpu.mem_ref().read_u32_vec(c, n as usize);
    for i in 0..n as usize {
        assert_eq!(out[i], av[i] * 3 + bv[i], "element {i}");
    }
    println!("output verified: c[i] == a[i]*3 + b[i] for all {n} elements");
}
