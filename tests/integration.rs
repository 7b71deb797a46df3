//! Cross-crate integration tests: the whole stack (ISA → simulator →
//! schedulers → workloads) working together, exercising behaviours no
//! single crate can test alone.

use gpgpu_repro::isa::dsl::DslKernel;
use gpgpu_repro::isa::{CmpOp, CmpTy, Dim2, KernelDescriptor};
use gpgpu_repro::sim::{GpuConfig, GpuDevice, SimError};
use gpgpu_repro::tbs::{CtaPolicy, Lcs, WarpPolicy};
use gpgpu_repro::workloads::{by_name, run_launches, run_workload, RunOptions, Scale};
use std::sync::Arc;

const MAX_CYCLES: u64 = 50_000_000;

fn small_gpu() -> GpuConfig {
    GpuConfig::test_small()
}

/// A kernel that writes each thread's global id — used to assert that
/// every thread of every CTA executed exactly once regardless of the CTA
/// scheduler.
fn id_kernel(n: u32, out: u64) -> KernelDescriptor {
    let mut k = DslKernel::new("ids", Dim2::x(128));
    let pout = k.param(0);
    let pn = k.param(1);
    let gid = k.global_tid_x();
    let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
    k.if_then(in_range, |k| {
        let off = k.shl(gid, 2u64);
        let e = k.iadd(pout, off);
        k.st_global_u32(gid, e, 0);
    });
    let prog = Arc::new(k.compile().expect("well-formed"));
    KernelDescriptor::builder(prog, Dim2::x(n.div_ceil(128)), Dim2::x(128))
        .params([out, u64::from(n)])
        .build()
        .expect("valid")
}

#[test]
fn every_thread_executes_once_under_every_cta_policy() {
    for cta in [
        CtaPolicy::Baseline(None),
        CtaPolicy::Baseline(Some(1)),
        CtaPolicy::Lcs(0.7),
        CtaPolicy::Bcs(2),
        CtaPolicy::LeftoverCke,
        CtaPolicy::MixedCke(0.7),
    ] {
        let warp = WarpPolicy::Gto.factory();
        let mut gpu = GpuDevice::new(small_gpu(), warp.as_ref(), cta.scheduler());
        let n = 10_000u32;
        let out = gpu.alloc(u64::from(n) * 4);
        gpu.launch(id_kernel(n, out));
        gpu.run(MAX_CYCLES).unwrap_or_else(|e| panic!("{cta}: {e}"));
        let got = gpu.mem_ref().read_u32_vec(out, n as usize);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as u32, "thread {i} under {cta}");
        }
    }
}

#[test]
fn serial_launch_order_is_respected() {
    // Kernel B reads what kernel A wrote; correct only if B starts after A
    // finishes.
    let warp = WarpPolicy::Gto.factory();
    let mut gpu = GpuDevice::new(
        small_gpu(),
        warp.as_ref(),
        CtaPolicy::Baseline(None).scheduler(),
    );
    let n = 4096u32;
    let buf_a = gpu.alloc(u64::from(n) * 4);
    let buf_b = gpu.alloc(u64::from(n) * 4);

    // A: buf_a[i] = i + 7
    let mut k = DslKernel::new("writer", Dim2::x(128));
    let pa = k.param(0);
    let gid = k.global_tid_x();
    let v = k.iadd(gid, 7u64);
    let off = k.shl(gid, 2u64);
    let e = k.iadd(pa, off);
    k.st_global_u32(v, e, 0);
    let prog_a = Arc::new(k.compile().expect("well-formed"));
    let desc_a = KernelDescriptor::builder(prog_a, Dim2::x(n / 128), Dim2::x(128))
        .params([buf_a])
        .build()
        .expect("valid");

    // B: buf_b[i] = buf_a[i] * 2
    let mut k = DslKernel::new("reader", Dim2::x(128));
    let pa = k.param(0);
    let pb = k.param(1);
    let gid = k.global_tid_x();
    let off = k.shl(gid, 2u64);
    let ea = k.iadd(pa, off);
    let va = k.ld_global_u32(ea, 0);
    let doubled = k.imul(va, 2u64);
    let eb = k.iadd(pb, off);
    k.st_global_u32(doubled, eb, 0);
    let prog_b = Arc::new(k.compile().expect("well-formed"));
    let desc_b = KernelDescriptor::builder(prog_b, Dim2::x(n / 128), Dim2::x(128))
        .params([buf_a, buf_b])
        .build()
        .expect("valid");

    let ka = gpu.launch(desc_a);
    let _kb = gpu.launch_after(desc_b, ka);
    gpu.run(MAX_CYCLES).expect("both kernels complete");
    let got = gpu.mem_ref().read_u32_vec(buf_b, n as usize);
    for (i, v) in got.iter().enumerate() {
        assert_eq!(*v, (i as u32 + 7) * 2, "element {i}");
    }
    // Stats must show two kernels with non-overlapping execution.
    let stats = gpu.stats();
    assert_eq!(stats.kernels.len(), 2);
    assert!(stats.kernels[1].start_cycle > stats.kernels[0].end_cycle.saturating_sub(1));
}

#[test]
fn concurrent_kernels_share_the_machine() {
    let warp = WarpPolicy::Gto.factory();
    let mut gpu = GpuDevice::new(
        small_gpu(),
        warp.as_ref(),
        CtaPolicy::MixedCke(0.7).scheduler(),
    );
    let n = 8192u32;
    let out_a = gpu.alloc(u64::from(n) * 4);
    let out_b = gpu.alloc(u64::from(n) * 4);
    gpu.launch(id_kernel(n, out_a));
    gpu.launch(id_kernel(n, out_b));
    gpu.run(MAX_CYCLES).expect("both complete");
    let a = gpu.mem_ref().read_u32_vec(out_a, n as usize);
    let b = gpu.mem_ref().read_u32_vec(out_b, n as usize);
    for i in 0..n as usize {
        assert_eq!(a[i], i as u32);
        assert_eq!(b[i], i as u32);
    }
}

#[test]
fn deadlock_detection_fires_on_impossible_barrier() {
    // A kernel where one warp exits before a barrier while another waits
    // would deadlock if barrier bookkeeping were wrong. Construct a
    // *legitimate* deadlock instead: a barrier that thread 0 never reaches
    // cannot exist through the structured DSL, so test the detector
    // through a loop that cannot finish within the budget.
    let mut k = DslKernel::new("spin", Dim2::x(32));
    k.for_range(0u64, u64::MAX, 1u64, |k, _| {
        k.movi(1u64);
    });
    let prog = Arc::new(k.compile().expect("well-formed (but non-terminating)"));
    let desc = KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
        .build()
        .expect("valid");
    let warp = WarpPolicy::Gto.factory();
    let mut cfg = small_gpu();
    cfg.deadlock_cycles = 10_000; // fail fast
    let mut gpu = GpuDevice::new(cfg, warp.as_ref(), CtaPolicy::Baseline(None).scheduler());
    gpu.launch(desc);
    // An infinite loop *issues* forever, so it trips the cycle budget, not
    // the no-progress detector.
    match gpu.run(100_000) {
        Err(SimError::MaxCyclesExceeded { .. }) => {}
        other => panic!("expected MaxCyclesExceeded, got {other:?}"),
    }
}

#[test]
fn lcs_decides_limits_on_real_workload() {
    let mut w = by_name("vecadd", Scale::Tiny).expect("exists");
    let warp = WarpPolicy::Gto.factory();
    let (gpu, _) = run_launches(
        &mut [w.as_mut()],
        small_gpu(),
        warp.as_ref(),
        CtaPolicy::Lcs(0.7).scheduler(),
        MAX_CYCLES,
        RunOptions::default(),
    )
    .expect("runs");
    let lcs = gpu
        .cta_scheduler()
        .as_any()
        .and_then(|a| a.downcast_ref::<Lcs>())
        .expect("policy is LCS");
    let decisions: Vec<u32> = lcs.decisions().map(|(_, l)| *l).collect();
    assert!(!decisions.is_empty(), "LCS must decide on at least one core");
    for d in decisions {
        assert!((1..=8).contains(&d) || d == u32::MAX, "limit {d} out of range");
    }
}

#[test]
fn policies_do_not_change_functional_results() {
    // Same workload, different schedulers: timing differs, output (and
    // therefore verification) must not.
    let mut cycles = Vec::new();
    for (warp, cta) in [
        (WarpPolicy::Lrr, CtaPolicy::Baseline(None)),
        (WarpPolicy::Gto, CtaPolicy::Lcs(0.7)),
        (WarpPolicy::Baws(2), CtaPolicy::Bcs(2)),
    ] {
        let mut w = by_name("reduction", Scale::Tiny).expect("exists");
        let factory = warp.factory();
        let out = run_workload(
            w.as_mut(),
            small_gpu(),
            factory.as_ref(),
            cta.scheduler(),
            MAX_CYCLES,
        )
        .expect("verifies under every policy");
        cycles.push(out.cycles());
    }
    // And timing DID differ across policies (the schedulers are real).
    assert!(
        cycles.windows(2).any(|w| w[0] != w[1]),
        "policies produced identical cycle counts: {cycles:?}"
    );
}

#[test]
fn stats_are_consistent() {
    let mut w = by_name("saxpy", Scale::Tiny).expect("exists");
    let warp = WarpPolicy::Gto.factory();
    let out = run_workload(
        w.as_mut(),
        small_gpu(),
        warp.as_ref(),
        CtaPolicy::Baseline(None).scheduler(),
        MAX_CYCLES,
    )
    .expect("runs");
    let s = &out.stats;
    // Issue accounting balances.
    let core_sum: u64 = s.cores.iter().map(|c| c.issued).sum();
    assert_eq!(core_sum, s.instructions);
    let per_kernel: u64 = s.kernels.iter().map(|k| k.instructions).sum();
    assert_eq!(per_kernel, s.instructions);
    // Memory pyramid: L1 misses generate at most that many L2 accesses
    // (plus write traffic), and loads in equal loads out.
    assert_eq!(s.fabric.loads_in, s.fabric.loads_out);
    assert!(s.l1.hits() <= s.l1.accesses());
    // Issued slots never exceed scheduler-slot cycles.
    for c in &s.cores {
        assert!(c.issued_slots <= s.cycles * 2, "2 schedulers per core");
    }
}
