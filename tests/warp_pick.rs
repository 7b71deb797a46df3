//! The list adapter end to end: a warp scheduler that forwards only the
//! list pick (`WarpScheduler::pick`), as a timing or logging wrapper
//! does, must run exactly like the policy it wraps, which the core drives
//! through the ready-mask pick (`pick_ready`). Checked for GTO and BAWS,
//! the two policies that keep per-slot state from `on_warp_start`, on
//! two concurrent kernels so CTA ids repeat across kernels. A core with
//! all 64 warp slots runs every policy on the fast path and the
//! reference loop alike.

use gpgpu_repro::mem::FabricConfig;
use gpgpu_repro::sim::{
    GpuConfig, IssueView, SimStats, WarpMeta, WarpScheduler, WarpSchedulerFactory, MAX_WARP_SLOTS,
};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::irregular::RandomGather;
use gpgpu_repro::workloads::streaming::VecAdd;
use gpgpu_repro::workloads::{run_launches, RunOptions};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Forwards every call but `pick_ready`, so the default `pick_ready`
/// lists the ready slots and the inner policy sees them through `pick`.
#[derive(Debug)]
struct ListOnly {
    inner: Box<dyn WarpScheduler>,
    picks: Arc<AtomicU64>,
}

impl WarpScheduler for ListOnly {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        self.picks.fetch_add(1, Relaxed);
        self.inner.pick(view, candidates)
    }

    fn on_issue(&mut self, slot: usize) {
        self.inner.on_issue(slot);
    }

    fn on_warp_start(&mut self, slot: usize, meta: &WarpMeta) {
        self.inner.on_warp_start(slot, meta);
    }

    fn on_warp_finish(&mut self, slot: usize) {
        self.inner.on_warp_finish(slot);
    }
}

#[derive(Debug)]
struct ListOnlyFactory {
    inner: Box<dyn WarpSchedulerFactory>,
    picks: Arc<AtomicU64>,
}

impl WarpSchedulerFactory for ListOnlyFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn create(&self, core: usize, slot: usize) -> Box<dyn WarpScheduler> {
        Box::new(ListOnly {
            inner: self.inner.create(core, slot),
            picks: Arc::clone(&self.picks),
        })
    }
}

/// Runs vecadd and a random gather concurrently on `cfg`; returns the
/// stats and the memory content hash.
fn run(
    cfg: GpuConfig,
    factory: &dyn WarpSchedulerFactory,
    cta: CtaPolicy,
    fast: bool,
) -> (SimStats, u64) {
    let (mut vecadd, mut gather) = (VecAdd::new(8 * 1024), RandomGather::new(2 * 1024, 8));
    let opts = RunOptions { reference_loop: !fast, ..RunOptions::default() };
    let (gpu, _) =
        run_launches(&mut [&mut vecadd, &mut gather], cfg, factory, cta.scheduler(), 50_000_000, opts)
            .expect("run completes and verifies");
    (gpu.stats(), gpu.mem_ref().content_hash())
}

#[test]
fn list_only_wrapper_matches_the_mask_pick() {
    for (warp, cta) in [
        (WarpPolicy::Gto, CtaPolicy::Lcs(0.7)),
        (WarpPolicy::Baws(2), CtaPolicy::Bcs(2)),
    ] {
        let plain = run(GpuConfig::fermi(), warp.factory().as_ref(), cta, true);
        let picks = Arc::new(AtomicU64::new(0));
        let wrapped = ListOnlyFactory {
            inner: warp.factory(),
            picks: Arc::clone(&picks),
        };
        let listed = run(GpuConfig::fermi(), &wrapped, cta, true);
        assert_eq!(
            plain, listed,
            "{warp:?}: list path diverges from the mask pick"
        );
        assert!(
            picks.load(Relaxed) >= plain.0.instructions,
            "{warp:?}: the list pick did not drive the run"
        );
    }
}

#[test]
fn sixty_four_warp_slots_run_every_policy() {
    // One core with room for eight 8-warp CTAs: slot 63 is in use.
    let mut cfg = GpuConfig::fermi();
    cfg.num_cores = 1;
    cfg.fabric = FabricConfig::fermi_like(1);
    cfg.max_warps_per_core = MAX_WARP_SLOTS;
    cfg.max_threads_per_core = 32 * MAX_WARP_SLOTS;
    cfg.max_ctas_per_core = 16;
    cfg.regfile_per_core *= 2;
    for warp in [
        WarpPolicy::Lrr,
        WarpPolicy::Gto,
        WarpPolicy::TwoLevel(8),
        WarpPolicy::Baws(2),
    ] {
        let fast = run(
            cfg.clone(),
            warp.factory().as_ref(),
            CtaPolicy::Baseline(None),
            true,
        );
        let reference = run(
            cfg.clone(),
            warp.factory().as_ref(),
            CtaPolicy::Baseline(None),
            false,
        );
        assert_eq!(fast, reference, "{warp:?}: fast path diverges");
        let resident = fast.0.stall_breakdown().avg_resident_warps();
        assert!(
            resident > 48.0,
            "{warp:?}: only {resident:.1} warps resident on average"
        );
    }
}
