//! Golden bit-identity suite for the simulator fast path.
//!
//! The event-gated dispatch, core sleep and idle fast-forward in
//! `gpgpu-sim` are pure wall-clock optimizations: every statistic,
//! per-kernel result, memory byte, and telemetry byte must match the
//! reference cycle-by-cycle loop (`RunOptions::reference_loop`).
//! These tests run a matrix of workloads against every named warp and CTA
//! policy — fast path vs reference — and compare `SimStats`, the memory
//! content hash, the serialized event trace, and the serialized interval
//! series for exact equality. A few device setups aim at one way a
//! sleeping core is woken or settled each.

use gpgpu_repro::isa::dsl::DslKernel;
use gpgpu_repro::isa::{AluOp, Dim2, KernelDescriptor, SpecialReg};
use gpgpu_repro::sim::{GlobalMem, GpuConfig, SimStats};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::compute::FmaHeavy;
use gpgpu_repro::workloads::irregular::RandomGather;
use gpgpu_repro::workloads::streaming::{Saxpy, VecAdd};
use gpgpu_repro::workloads::{RunOptions, VerifyError, Workload, WorkloadClass};
use std::sync::Arc;

mod common;
use common::{traced_run, Traced};

/// The device configuration and telemetry sampling period of a run.
struct Setup {
    cfg: GpuConfig,
    sample_every: u64,
}

impl Default for Setup {
    fn default() -> Self {
        Setup {
            cfg: GpuConfig::fermi(),
            sample_every: 500,
        }
    }
}

/// One complete traced run; `fast` selects the optimized or the reference
/// loop.
fn run_once(
    setup: &Setup,
    workloads: &[&dyn Fn() -> Box<dyn Workload>],
    serial: bool,
    warp: WarpPolicy,
    cta: CtaPolicy,
    fast: bool,
) -> Traced {
    let opts = RunOptions { reference_loop: !fast, serial, ..RunOptions::default() };
    traced_run(setup.cfg.clone(), workloads, warp, cta, setup.sample_every, opts)
}

/// Runs the fast path and the reference loop and demands identical
/// outputs; returns the stats for checks that the case did what it aims
/// at.
fn assert_identical(
    label: &str,
    setup: &Setup,
    workloads: &[&dyn Fn() -> Box<dyn Workload>],
    serial: bool,
    warp: WarpPolicy,
    cta: CtaPolicy,
) -> SimStats {
    let fast = run_once(setup, workloads, serial, warp, cta, true);
    let reference = run_once(setup, workloads, serial, warp, cta, false);
    assert_eq!(fast.0, reference.0, "{label}: SimStats diverge");
    assert_eq!(fast.1, reference.1, "{label}: event traces diverge");
    assert_eq!(fast.2, reference.2, "{label}: interval series diverge");
    assert_eq!(fast.3, reference.3, "{label}: memory contents diverge");
    assert!(fast.0.instructions > 0, "{label}: trivial run proves nothing");
    assert_eq!(fast.0.malformed_dispatches, 0, "{label}: policy misbehaved");
    fast.0
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
                &Setup::default(),
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
            &Setup::default(),
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
            &Setup::default(),
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
        &Setup::default(),
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
        &Setup::default(),
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
        &Setup::default(),
        &[&vecadd, &gather],
        true,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
}

fn saxpy() -> Box<dyn Workload> {
    Box::new(Saxpy::new(8 * 1024))
}

/// Two CTAs: a kernel that reaches only a few of the cores.
fn vecadd_two_ctas() -> Box<dyn Workload> {
    Box::new(VecAdd::new(512))
}

fn bank_conflicts() -> Box<dyn Workload> {
    Box::new(BankConflicts::default())
}

const BANK_CTAS: u32 = 30;
const BANK_ROUNDS: u32 = 8;

/// Each thread keeps a counter in shared memory at a 32-word stride, so
/// every warp access replays 32 bank-conflict passes and holds the shared
/// pipe far longer than `int_latency`.
#[derive(Debug, Default)]
struct BankConflicts {
    out: u64,
}

impl Workload for BankConflicts {
    fn name(&self) -> &str {
        "bank-conflicts"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Compute
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        self.out = gmem.alloc(u64::from(BANK_CTAS * 256) * 4);
        let mut k = DslKernel::new("bank-conflicts", Dim2::x(256));
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        let slot = k.imul(tid, 128u64);
        let gid = k.global_tid_x();
        k.st_shared_u32(gid, slot, 0);
        let v = k.declare();
        k.for_range(0u64, u64::from(BANK_ROUNDS), 1u64, |k, _| {
            k.ld_shared_u32_to(v, slot, 0);
            k.alu_to(AluOp::IAdd, v, v, 1u64);
            k.st_shared_u32(v, slot, 0);
        });
        let off = k.shl(gid, 2u64);
        let addr = k.iadd(pout, off);
        k.st_global_u32(v, addr, 0);
        let prog = Arc::new(k.compile().expect("well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(BANK_CTAS), Dim2::x(256))
            .smem_per_cta(256 * 128)
            .params([self.out])
            .build()
            .expect("valid")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let got = gmem.read_u32_vec(self.out, (BANK_CTAS * 256) as usize);
        match (0u32..).zip(got).find(|&(i, g)| g != i + BANK_ROUNDS) {
            None => Ok(()),
            Some((i, g)) => Err(VerifyError {
                workload: self.name().to_string(),
                detail: format!("thread {i}: got {g}, want {}", i + BANK_ROUNDS),
            }),
        }
    }
}

#[test]
fn full_l1_mshr_file_is_bit_identical() {
    // Two L1 MSHRs keep LSQ heads rejected for long runs of cycles: cores
    // sleep blocked, book the rejected retries in closed form, and wake
    // on fills; the odd sampling period settles them mid-sleep.
    let mut setup = Setup {
        sample_every: 97,
        ..Setup::default()
    };
    setup.cfg.l1.mshr_entries = 2;
    let stats = assert_identical(
        "gather x gto x baseline, 2 L1 MSHRs",
        &setup,
        &[&gather],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
    assert!(stats.l1.reservation_fails > 0, "no L1 access was rejected");
}

#[test]
fn full_l2_mshr_file_is_bit_identical() {
    // Two MSHRs per L2 slice keep requests stalled at the slice for long
    // runs of cycles: the fast path books each refused retry until a DRAM
    // fill lands, the reference loop re-runs it.
    let mut setup = Setup::default();
    setup.cfg.fabric.l2.mshr_entries = 2;
    let stats = assert_identical(
        "gather x gto x baseline, 2 L2 MSHRs",
        &setup,
        &[&gather],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
    assert!(stats.fabric.l2.reservation_fails > 0, "no L2 access was rejected");
}

#[test]
fn launch_flush_lands_on_a_booked_lsq_head() {
    // A write-allocate L1 with two MSHRs: vecadd's stores to lines no
    // load brought in allocate on their miss, fill the MSHR file and
    // leave LSQ heads refused and booked when the kernel completes, so
    // the second launch's L1 flush lands on them (on every core).
    let mut setup = Setup::default();
    setup.cfg.l1.write_back = true;
    setup.cfg.l1.write_allocate = true;
    setup.cfg.l1.mshr_entries = 2;
    let stats = assert_identical(
        "vecadd->saxpy serial x gto x baseline, 2-MSHR write-allocate L1",
        &setup,
        &[&vecadd, &saxpy],
        true,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
    assert!(stats.l1.reservation_fails > 0, "no L1 access was rejected");
}

fn store_burst() -> Box<dyn Workload> {
    Box::new(StoreBurst::default())
}

const BURST_CTAS: u32 = 30;
const BURST_STORES: u32 = 8;

/// Each thread loads its word, stores the word plus one back
/// `BURST_STORES` times in a row and exits: every store hits the line the
/// load brought in, and each warp ends on a burst of stores.
#[derive(Debug, Default)]
struct StoreBurst {
    data: u64,
}

impl Workload for StoreBurst {
    fn name(&self) -> &str {
        "store-burst"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::Memory
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let n = BURST_CTAS * 256;
        self.data = gmem.alloc(u64::from(n) * 4);
        for i in 0..n {
            gmem.write_u32(self.data + u64::from(i) * 4, i);
        }
        let mut k = DslKernel::new("store-burst", Dim2::x(256));
        let pdata = k.param(0);
        let gid = k.global_tid_x();
        let off = k.shl(gid, 2u64);
        let addr = k.iadd(pdata, off);
        let v = k.ld_global_u32(addr, 0);
        let v = k.iadd(v, 1u64);
        for _ in 0..BURST_STORES {
            k.st_global_u32(v, addr, 0);
        }
        let prog = Arc::new(k.compile().expect("well-formed"));
        KernelDescriptor::builder(prog, Dim2::x(BURST_CTAS), Dim2::x(256))
            .params([self.data])
            .build()
            .expect("valid")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let got = gmem.read_u32_vec(self.data, (BURST_CTAS * 256) as usize);
        match (0u32..).zip(got).find(|&(i, g)| g != i + 1) {
            None => Ok(()),
            Some((i, g)) => Err(VerifyError {
                workload: self.name().to_string(),
                detail: format!("thread {i}: got {g}, want {}", i + 1),
            }),
        }
    }
}

#[test]
fn launch_flush_lands_on_a_booked_store_hit() {
    // The default write-through L1 with a one-entry miss queue: each
    // warp's closing store burst hits the line its load brought in and is
    // refused with `MissQueueFull`, so LSQ heads are booked when the
    // kernel completes and the second launch's flush invalidates the
    // lines they hit (on every core). Their retries then miss, and still
    // fail on the same full miss queue.
    let mut setup = Setup::default();
    setup.cfg.l1.miss_queue_len = 1;
    let stats = assert_identical(
        "store-burst->vecadd serial x gto x baseline, 1-entry L1 miss queue",
        &setup,
        &[&store_burst, &vecadd],
        true,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
    assert!(stats.l1.reservation_fails > 0, "no L1 access was rejected");
    assert!(stats.l1.store_hits > 0, "no store hit the L1");
}

#[test]
fn shared_pipe_release_is_bit_identical() {
    // Warps wait on a shared pipe that 32-way bank conflicts keep busy
    // for 32 cycles a pass: cores sleep until it frees.
    let stats = assert_identical(
        "bank-conflicts x gto x baseline",
        &Setup::default(),
        &[&bank_conflicts],
        false,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
    let replays: u64 = stats.cores.iter().map(|c| c.shared_replays).sum();
    assert!(replays > 0, "no bank conflicts");
}

#[test]
fn dispatch_into_sleeping_core_is_bit_identical() {
    // Without the launch-time L1 flush (which wakes every core), the
    // second kernel of a serial pair is dispatched straight into cores
    // that have slept since the first kernel's tail.
    let mut setup = Setup::default();
    setup.cfg.flush_l1_on_kernel_launch = false;
    assert_identical(
        "vecadd->gather serial x gto x baseline, no launch flush",
        &setup,
        &[&vecadd, &gather],
        true,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
}

#[test]
fn launch_flush_wakes_sleeping_cores() {
    // A write-back L1 holds the first kernel's dirty lines; the flush at
    // the second launch queues them for writeback, and the cores the
    // two-CTA second kernel never reaches must wake to send them.
    let mut setup = Setup::default();
    setup.cfg.l1.write_back = true;
    let stats = assert_identical(
        "saxpy->vecadd(2 CTAs) serial x gto x baseline, write-back L1",
        &setup,
        &[&saxpy, &vecadd_two_ctas],
        true,
        WarpPolicy::Gto,
        CtaPolicy::Baseline(None),
    );
    assert!(stats.l1.writebacks > 0, "the flush wrote nothing back");
}
