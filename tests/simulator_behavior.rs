//! Behavioural integration tests: the simulator must exhibit the
//! first-order GPU phenomena the paper's mechanisms rely on. Each test
//! constructs kernels that isolate one effect and asserts the *direction*
//! of the timing change.

use gpgpu_repro::isa::dsl::DslKernel;
use gpgpu_repro::isa::{AluOp, Dim2, KernelDescriptor, SpecialReg};
use gpgpu_repro::sim::{GpuConfig, GpuDevice};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use std::sync::Arc;

const MAX_CYCLES: u64 = 50_000_000;

fn gpu(cfg: GpuConfig) -> GpuDevice {
    let warp = WarpPolicy::Gto.factory();
    GpuDevice::new(cfg, warp.as_ref(), CtaPolicy::Baseline(None).scheduler())
}

fn run_kernel(cfg: GpuConfig, desc: KernelDescriptor) -> u64 {
    let mut g = gpu(cfg);
    let k = g.launch(desc);
    g.run(MAX_CYCLES).expect("completes");
    g.stats().kernel(k).expect("ran").cycles()
}

/// A load-chase kernel: each thread performs `n` dependent global loads
/// with the given element stride between threads.
fn load_kernel(stride_bytes: u64, loads: u64, ctas: u32) -> KernelDescriptor {
    let mut k = DslKernel::new("loads", Dim2::x(256));
    let gid = k.global_tid_x();
    let base = k.imul(gid, stride_bytes);
    let addr = k.iadd(base, 0x10_0000u64);
    let v = k.declare();
    k.for_range(0u64, loads, 1u64, |k, _| {
        k.ld_global_u32_to(v, addr, 0);
        // Consume the value so the next iteration depends on it.
        k.alu_to(AluOp::IAdd, addr, addr, 4096u64);
    });
    let prog = Arc::new(k.compile().expect("well-formed"));
    KernelDescriptor::builder(prog, Dim2::x(ctas), Dim2::x(256))
        .build()
        .expect("valid")
}

#[test]
fn more_warps_hide_latency() {
    // Same per-thread work with coalesced (one line per warp) loads whose
    // destinations serialize per warp: each warp has one load in flight,
    // so throughput comes from warp-level parallelism. 6x the CTAs must
    // finish the 6x total workload in well under 4x the time.
    let one = run_kernel(GpuConfig::test_small(), load_kernel(4, 16, 2));
    let many = run_kernel(GpuConfig::test_small(), load_kernel(4, 16, 12));
    assert!(
        many < one * 4,
        "latency hiding failed: 2 CTAs took {one}, 12 CTAs took {many}"
    );
}

#[test]
fn coalescing_saves_time() {
    // Unit-stride threads (4 B apart) vs 128 B apart: identical
    // instruction counts, wildly different transaction counts.
    let coalesced = run_kernel(GpuConfig::test_small(), load_kernel(4, 8, 4));
    let scattered = run_kernel(GpuConfig::test_small(), load_kernel(128, 8, 4));
    assert!(
        scattered > coalesced * 2,
        "coalescing effect too weak: {coalesced} vs {scattered}"
    );
}

#[test]
fn bigger_l1_helps_reuse() {
    // A kernel that re-walks a 24 KiB array: fits a 48 KiB L1, thrashes a
    // 4 KiB one.
    let reuse_kernel = || {
        let mut k = DslKernel::new("reuse", Dim2::x(256));
        let tid = k.special(SpecialReg::TidX);
        let off = k.shl(tid, 2u64);
        let base = k.iadd(off, 0x10_0000u64);
        let v = k.declare();
        let addr = k.declare();
        k.for_range(0u64, 24u64, 1u64, |k, _round| {
            k.mov_to(addr, base);
            // 24 lines per round per warp → ~24 KiB footprint per CTA wave.
            k.for_range(0u64, 8u64, 1u64, |k, _i| {
                k.ld_global_u32_to(v, addr, 0);
                k.alu_to(AluOp::IAdd, addr, addr, 3072u64);
            });
        });
        let prog = Arc::new(k.compile().expect("well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(2), Dim2::x(256))
            .build()
            .expect("valid")
    };
    let mut small_l1 = GpuConfig::test_small();
    small_l1.l1.size_bytes = 4 * 1024;
    let mut big_l1 = GpuConfig::test_small();
    big_l1.l1.size_bytes = 48 * 1024;
    let slow = run_kernel(small_l1, reuse_kernel());
    let fast = run_kernel(big_l1, reuse_kernel());
    assert!(
        fast < slow,
        "a 12x larger L1 must help a reuse-heavy kernel: {fast} vs {slow}"
    );
}

#[test]
fn sfu_ops_cost_more_than_int_ops() {
    let alu_kernel = |op: AluOp| {
        let mut k = DslKernel::new("alu", Dim2::x(256));
        let v = k.movi(3u64);
        for _ in 0..64 {
            k.alu_to(op, v, v, 3u64);
        }
        let prog = Arc::new(k.compile().expect("well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(4), Dim2::x(256))
            .build()
            .expect("valid")
    };
    let int = run_kernel(GpuConfig::test_small(), alu_kernel(AluOp::IAdd));
    let sfu = run_kernel(GpuConfig::test_small(), alu_kernel(AluOp::UDiv));
    assert!(
        sfu > int,
        "dependent SFU chain ({sfu}) must be slower than int chain ({int})"
    );
}

#[test]
fn shared_memory_bank_conflicts_cost_cycles() {
    let shared_kernel = |stride_words: u64| {
        let mut k = DslKernel::new("smem", Dim2::x(256));
        let tid = k.special(SpecialReg::TidX);
        let addr = k.imul(tid, stride_words * 4);
        let v = k.declare();
        k.for_range(0u64, 32u64, 1u64, |k, _| {
            k.ld_shared_u32_to(v, addr, 0);
        });
        let prog = Arc::new(k.compile().expect("well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(2), Dim2::x(256))
            .smem_per_cta(48 * 1024)
            .build()
            .expect("valid")
    };
    // Stride 1 word: conflict-free. Stride 32 words: 32-way conflicts.
    let clean = run_kernel(GpuConfig::test_small(), shared_kernel(1));
    let conflicted = run_kernel(GpuConfig::test_small(), shared_kernel(32));
    assert!(
        conflicted > clean,
        "32-way bank conflicts ({conflicted}) must cost more than none ({clean})"
    );
}

#[test]
fn dram_row_locality_is_faster_than_row_thrash() {
    // Sequential lines walk DRAM rows; 1 MiB-strided lines hit a new row
    // every access.
    let sequential = run_kernel(GpuConfig::test_small(), load_kernel(4, 32, 8));
    let (thrash_cycles, thrash_rowhit) = {
        let mut k = DslKernel::new("thrash", Dim2::x(256));
        let gid = k.global_tid_x();
        let base = k.imul(gid, 4u64);
        let addr = k.iadd(base, 0x10_0000u64);
        let v = k.declare();
        k.for_range(0u64, 32u64, 1u64, |k, _| {
            k.ld_global_u32_to(v, addr, 0);
            k.alu_to(AluOp::IAdd, addr, addr, (1u64 << 20) + 128);
        });
        let prog = Arc::new(k.compile().expect("well-formed"));
        let desc = KernelDescriptor::builder(prog, Dim2::x(8), Dim2::x(256))
            .build()
            .expect("valid");
        let mut g = gpu(GpuConfig::test_small());
        let kid = g.launch(desc);
        g.run(MAX_CYCLES).expect("completes");
        (
            g.stats().kernel(kid).expect("ran").cycles(),
            g.stats().fabric.dram.row_hit_rate(),
        )
    };
    assert!(
        thrash_cycles > sequential,
        "row thrash ({thrash_cycles}) must be slower than sequential ({sequential})"
    );
    // Cross-warp spatial locality keeps some row hits alive even under
    // per-warp thrash, but the rate must drop well below the ~0.93 a
    // sequential stream achieves.
    assert!(
        thrash_rowhit < 0.85,
        "row-hit rate under thrash should drop, got {thrash_rowhit}"
    );
}

#[test]
fn occupancy_limits_resident_ctas() {
    // A kernel demanding 32 KiB of shared memory per CTA can only have one
    // CTA resident per SM; the same kernel with no shared demand gets the
    // full complement — visible as a large runtime difference for a
    // latency-bound workload.
    let kernel = |smem: u32| {
        let mut k = DslKernel::new("occ", Dim2::x(256));
        let gid = k.global_tid_x();
        let base = k.imul(gid, 4096u64);
        let addr = k.iadd(base, 0x10_0000u64);
        let v = k.declare();
        k.for_range(0u64, 8u64, 1u64, |k, _| {
            k.ld_global_u32_to(v, addr, 0);
            k.alu_to(AluOp::IAdd, addr, addr, 4096u64);
        });
        let prog = Arc::new(k.compile().expect("well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(16), Dim2::x(256))
            .smem_per_cta(smem)
            .build()
            .expect("valid")
    };
    let packed = run_kernel(GpuConfig::test_small(), kernel(0));
    let starved = run_kernel(GpuConfig::test_small(), kernel(32 * 1024));
    assert!(
        starved > packed,
        "shared-memory-limited occupancy ({starved}) must underperform full occupancy ({packed})"
    );
}

#[test]
fn same_cycle_global_stores_land_in_core_then_issue_order() {
    // Every thread stores `tag + 1` to one shared word. The kernel is
    // lock-step and branch-free with no loads, so every warp issues its
    // store in the same cycle; the final word shows which store landed
    // last. The rule: cores act in ascending id, and within a core the
    // later issue (scheduler partition 0 issues before partition 1) wins.
    let race = |tag: SpecialReg, shift: u64, ctas: u32, threads: u32| {
        let mut k = DslKernel::new("race", Dim2::x(threads));
        let out = k.param(0);
        let t = k.special(tag);
        let t = k.shr(t, shift);
        let v = k.iadd(t, 1u64);
        k.st_global_u32(v, out, 0);
        let prog = Arc::new(k.compile().expect("well-formed"));
        let mut g = gpu(GpuConfig::test_small());
        let word = g.alloc(4);
        let desc = KernelDescriptor::builder(prog, Dim2::x(ctas), Dim2::x(threads))
            .params([word])
            .build()
            .expect("valid");
        g.launch(desc);
        g.run(MAX_CYCLES).expect("completes");
        let stats = g.stats();
        (g.mem_ref().read_u32(word), stats)
    };

    // Round-robin puts CTA 0 on core 0 and CTA 1 on core 1, one warp each.
    let (word, stats) = race(SpecialReg::CtaLinear, 0, 2, 32);
    assert!(stats.cores.iter().all(|c| c.ctas_completed == 1));
    assert_eq!(
        word, 2,
        "core 1's store (CTA 1 stores 1 + 1) must land last"
    );

    // One CTA of two warps: warp slots 0 and 1 sit on partitions 0 and 1;
    // each thread stores its warp index (tid >> 5) + 1.
    let (word, _) = race(SpecialReg::TidX, 5, 1, 64);
    assert_eq!(
        word, 2,
        "warp 1's store (issued by partition 1) must land last"
    );
}
