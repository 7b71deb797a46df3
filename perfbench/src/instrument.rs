//! Observation-only scheduler decorators: they count and time every call
//! into the wrapped policy and change nothing it decides.

use gpgpu_isa::KernelDescriptor;
use gpgpu_sim::{
    CtaCompleteEvent, CtaScheduler, Dispatch, DispatchView, GpuConfig, IssueView, KernelId,
    PolicyDecision, WarpMeta, WarpScheduler, WarpSchedulerFactory,
};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Call counts and busy nanoseconds of the scheduling policies of every
/// device built with the decorators below. The counters publish no other
/// data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct SchedCounters {
    /// Every call into the CTA scheduler (`select` and notifications).
    pub cta_calls: AtomicU64,
    /// `select` calls.
    pub cta_selects: AtomicU64,
    /// `select` calls that returned a dispatch.
    pub cta_dispatches: AtomicU64,
    /// Nanoseconds spent inside CTA-scheduler calls.
    pub cta_busy_ns: AtomicU64,
    /// Warp-scheduler `pick` calls.
    pub warp_picks: AtomicU64,
    /// `on_issue` notifications: picks that issued.
    pub warp_issues: AtomicU64,
    /// Nanoseconds spent inside warp-scheduler calls.
    pub warp_busy_ns: AtomicU64,
}

fn timed<T>(busy: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    busy.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    r
}

/// Wraps a CTA scheduler, forwarding every trait method.
#[derive(Debug)]
pub struct TimedCta {
    inner: Box<dyn CtaScheduler>,
    c: Arc<SchedCounters>,
}

impl TimedCta {
    /// Decorates `inner`, accumulating into `c`.
    pub fn new(inner: Box<dyn CtaScheduler>, c: Arc<SchedCounters>) -> Self {
        TimedCta { inner, c }
    }

    fn call<T>(&mut self, f: impl FnOnce(&mut dyn CtaScheduler) -> T) -> T {
        self.c.cta_calls.fetch_add(1, Relaxed);
        timed(&self.c.cta_busy_ns, || f(self.inner.as_mut()))
    }
}

impl CtaScheduler for TimedCta {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_kernel_launch(&mut self, kernel: KernelId, desc: &KernelDescriptor, hw: &GpuConfig) {
        self.call(|s| s.on_kernel_launch(kernel, desc, hw));
    }

    fn on_kernel_finish(&mut self, kernel: KernelId) {
        self.call(|s| s.on_kernel_finish(kernel));
    }

    fn on_cta_complete(&mut self, ev: &CtaCompleteEvent) {
        self.call(|s| s.on_cta_complete(ev));
    }

    fn select(&mut self, view: &DispatchView<'_>) -> Option<Dispatch> {
        self.c.cta_selects.fetch_add(1, Relaxed);
        let d = self.call(|s| s.select(view));
        if d.is_some() {
            self.c.cta_dispatches.fetch_add(1, Relaxed);
        }
        d
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.inner.as_any()
    }

    fn set_trace_enabled(&mut self, on: bool) {
        self.inner.set_trace_enabled(on);
    }

    fn take_trace_events(&mut self) -> Vec<PolicyDecision> {
        self.inner.take_trace_events()
    }
}

/// Wraps a warp-scheduler factory so every scheduler it creates is timed.
#[derive(Debug)]
pub struct TimedWarpFactory {
    inner: Box<dyn WarpSchedulerFactory>,
    c: Arc<SchedCounters>,
}

impl TimedWarpFactory {
    /// Decorates `inner`, accumulating into `c`.
    pub fn new(inner: Box<dyn WarpSchedulerFactory>, c: Arc<SchedCounters>) -> Self {
        TimedWarpFactory { inner, c }
    }
}

impl WarpSchedulerFactory for TimedWarpFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn create(&self, core: usize, slot: usize) -> Box<dyn WarpScheduler> {
        Box::new(TimedWarp {
            inner: self.inner.create(core, slot),
            c: Arc::clone(&self.c),
        })
    }
}

#[derive(Debug)]
struct TimedWarp {
    inner: Box<dyn WarpScheduler>,
    c: Arc<SchedCounters>,
}

impl WarpScheduler for TimedWarp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        self.c.warp_picks.fetch_add(1, Relaxed);
        timed(&self.c.warp_busy_ns, || self.inner.pick(view, candidates))
    }

    fn on_issue(&mut self, slot: usize) {
        self.c.warp_issues.fetch_add(1, Relaxed);
        timed(&self.c.warp_busy_ns, || self.inner.on_issue(slot));
    }

    fn on_warp_start(&mut self, slot: usize, meta: &WarpMeta) {
        timed(&self.c.warp_busy_ns, || {
            self.inner.on_warp_start(slot, meta)
        });
    }

    fn on_warp_finish(&mut self, slot: usize) {
        timed(&self.c.warp_busy_ns, || self.inner.on_warp_finish(slot));
    }
}
