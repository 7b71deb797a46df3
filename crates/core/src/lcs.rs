//! LCS — lazy CTA scheduling (the paper's first mechanism).
//!
//! Observation: the hardware-maximum number of resident CTAs per core does
//! not necessarily maximize performance; memory-intensive kernels often run
//! faster with fewer CTAs (less L1/MSHR thrashing, shorter DRAM queues).
//!
//! LCS finds a better per-core limit *online*, with no extra hardware
//! sensors, by exploiting its interaction with a **greedy (GTO) warp
//! scheduler**:
//!
//! 1. **Monitoring period** — the kernel starts at the hardware maximum;
//!    each core counts instructions issued per resident CTA until the
//!    *first* CTA on that core completes.
//! 2. **Estimate** — under GTO, issue slots concentrate on the
//!    greedily-prioritized (oldest) CTAs; CTAs that received only a small
//!    share of the completed CTA's issue count were starved of the
//!    bottleneck resource and contribute little. The limit is the number
//!    of CTAs whose issue count is at least `gamma` × the maximum per-CTA
//!    count (default `gamma = 0.7`).
//! 3. **Lazy throttle** — running CTAs are never killed; the core simply
//!    refuses to refill completed CTA slots beyond the estimate.
//!
//! ## Substrate adaptation (documented deviation)
//!
//! On this simulator, a *compute-bound* kernel also skews the issue
//! distribution — the greedy scheduler lets the oldest CTA absorb the
//! issue pipelines themselves — yet throttling a compute-bound kernel
//! sacrifices nothing but risks tail effects. LCS therefore adds two
//! evidence checks before trusting the skew:
//!
//! * a **utilization guard** — if the core's issue-slot utilization over
//!   the monitoring period is at least `util_guard` (default 0.85), the
//!   core is issue-bound, the skew is not evidence of memory starvation,
//!   and the core keeps the hardware maximum; and
//! * a **minimum monitoring window** — if the first CTA completes within
//!   `min_window` cycles (default 3000 ≈ a few DRAM round trips), the
//!   observed distribution is a dispatch-ramp transient, not steady-state
//!   contention, and the core keeps the hardware maximum (such short CTAs
//!   also refill so fast that throttling could only hurt).
//!
//! Both checks need only counters a real SM already has (cycles,
//! instructions issued), keeping the mechanism's minimal-hardware spirit.
//! `DESIGN.md` discusses this reconstruction choice.

use gpgpu_sim::{
    CtaCompleteEvent, CtaIssueSample, CtaScheduler, Cycle, Dispatch, DispatchView, KernelId,
    PolicyDecision,
};
use std::collections::BTreeMap;

/// Pure LCS estimator: given the per-CTA issue counts sampled when the
/// first CTA completed, estimate the per-core CTA limit.
///
/// Returns `max(1, |{c : issued[c] >= gamma * max_c issued[c]}|)`.
pub fn estimate_cta_limit(samples: &[u64], gamma: f64) -> u32 {
    let max = samples.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return 1;
    }
    let threshold = gamma * max as f64;
    let n = samples
        .iter()
        .filter(|&&s| s as f64 >= threshold)
        .count() as u32;
    n.max(1)
}

/// Issue-slot utilization of a core over a monitoring window.
///
/// `issued` is the total instructions issued on the core in the window,
/// `cycles` its length, and `sched_per_core` the number of issue slots
/// per cycle. Returns a value in `[0, 1]` (clamped; 0 for an empty
/// window).
pub fn issue_utilization(issued: u64, cycles: Cycle, sched_per_core: u32) -> f64 {
    if cycles == 0 || sched_per_core == 0 {
        return 0.0;
    }
    (issued as f64 / (cycles as f64 * f64::from(sched_per_core))).min(1.0)
}

/// Per-(core, kernel) LCS state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Still monitoring: dispatch up to the hardware limit.
    Monitoring,
    /// Limit decided (`u32::MAX` = keep the hardware maximum).
    Throttled(u32),
}

/// The LCS CTA scheduler. Wraps round-robin placement with per-core
/// dynamic CTA limits derived from the monitoring period.
///
/// Pair it with the GTO warp scheduler
/// ([`GtoFactory`](crate::warp_sched::GtoFactory)); the estimate degrades
/// under LRR because issue slots are spread evenly regardless of how many
/// CTAs make real progress (the E5 `lcs-lrr` ablation shows this).
#[derive(Debug)]
pub struct Lcs {
    gamma: f64,
    util_guard: f64,
    min_window: Cycle,
    sched_per_core: u32,
    cursor: usize,
    kernel_start: BTreeMap<KernelId, Cycle>,
    phases: BTreeMap<(usize, KernelId), Phase>,
    decisions: BTreeMap<(usize, KernelId), u32>,
    trace: bool,
    trace_buf: Vec<PolicyDecision>,
}

impl Lcs {
    /// LCS with the default threshold `gamma = 0.7` and utilization guard
    /// `0.85`.
    pub fn new() -> Self {
        Self::with_gamma(0.7)
    }

    /// LCS with an explicit threshold (the E9 sensitivity knob).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < gamma <= 1.0`.
    pub fn with_gamma(gamma: f64) -> Self {
        Self::with_params(gamma, 0.85)
    }

    /// LCS with explicit threshold and utilization guard (`util_guard = 1.0`
    /// effectively disables the guard; `0.0` makes every core keep the
    /// hardware maximum). The minimum monitoring window defaults to 3000
    /// cycles; see [`min_window`](Self::min_window).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < gamma <= 1.0` and `0.0 <= util_guard <= 1.0`.
    pub fn with_params(gamma: f64, util_guard: f64) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        assert!(
            (0.0..=1.0).contains(&util_guard),
            "util_guard must be in [0, 1]"
        );
        Lcs {
            gamma,
            util_guard,
            min_window: 3000,
            sched_per_core: 2,
            cursor: 0,
            kernel_start: BTreeMap::new(),
            phases: BTreeMap::new(),
            decisions: BTreeMap::new(),
            trace: false,
            trace_buf: Vec::new(),
        }
    }

    /// The threshold in use.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The utilization guard in use.
    pub fn util_guard(&self) -> f64 {
        self.util_guard
    }

    /// The minimum monitoring window in cycles.
    pub fn min_window(&self) -> Cycle {
        self.min_window
    }

    /// The limits decided so far, as `((core, kernel), limit)` pairs
    /// (`u32::MAX` = guard kept the hardware maximum). For reports and the
    /// E6 experiment.
    pub fn decisions(&self) -> impl Iterator<Item = (&(usize, KernelId), &u32)> {
        self.decisions.iter()
    }

    /// The decided limit for `(core, kernel)`, if the monitoring period has
    /// ended there.
    pub fn limit_of(&self, core: usize, kernel: KernelId) -> Option<u32> {
        self.decisions.get(&(core, kernel)).copied()
    }

    fn phase(&self, core: usize, kernel: KernelId) -> Phase {
        self.phases
            .get(&(core, kernel))
            .copied()
            .unwrap_or(Phase::Monitoring)
    }
}

impl Default for Lcs {
    fn default() -> Self {
        Self::new()
    }
}

impl CtaScheduler for Lcs {
    fn name(&self) -> &str {
        "lcs"
    }

    fn on_kernel_launch(
        &mut self,
        _kernel: KernelId,
        _desc: &gpgpu_isa::KernelDescriptor,
        hw: &gpgpu_sim::GpuConfig,
    ) {
        self.sched_per_core = hw.num_sched_per_core;
    }

    fn on_cta_complete(&mut self, ev: &CtaCompleteEvent) {
        let key = (ev.core, ev.kernel);
        if self.phases.get(&key).is_some() {
            return; // already decided for this core
        }
        // First CTA of this kernel to complete on this core: sample.
        let samples: Vec<u64> = ev
            .slot_snapshot
            .iter()
            .filter(|s: &&CtaIssueSample| s.kernel == ev.kernel)
            .map(|s| s.issued)
            .collect();
        let start = self.kernel_start.get(&ev.kernel).copied().unwrap_or(0);
        let window = ev.cycle.saturating_sub(start);
        let util = issue_utilization(samples.iter().sum(), window, self.sched_per_core);
        let limit = if window < self.min_window {
            // Transient: CTAs this short carry no steady-state evidence
            // (and refill too fast for throttling to pay off).
            u32::MAX
        } else if util >= self.util_guard {
            // Issue-bound: the skew reflects pipeline greediness, not
            // memory starvation. Keep the hardware maximum.
            u32::MAX
        } else {
            estimate_cta_limit(&samples, self.gamma)
        };
        self.phases.insert(key, Phase::Throttled(limit));
        self.decisions.insert(key, limit);
        if self.trace {
            self.trace_buf.push(if limit == u32::MAX {
                PolicyDecision {
                    core: ev.core,
                    kernel: ev.kernel,
                    action: "lcs-keep-max",
                    value: 0,
                }
            } else {
                PolicyDecision {
                    core: ev.core,
                    kernel: ev.kernel,
                    action: "lcs-limit",
                    value: u64::from(limit),
                }
            });
        }
    }

    fn on_kernel_finish(&mut self, kernel: KernelId) {
        self.phases.retain(|(_, k), _| *k != kernel);
        self.kernel_start.remove(&kernel);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn set_trace_enabled(&mut self, on: bool) {
        self.trace = on;
        if !on {
            self.trace_buf.clear();
        }
    }

    fn take_trace_events(&mut self) -> Vec<PolicyDecision> {
        std::mem::take(&mut self.trace_buf)
    }

    fn select(&mut self, view: &DispatchView<'_>) -> Option<Dispatch> {
        // Round-robin placement (same order as the baseline, so measured
        // differences isolate the throttling), but skip cores whose
        // decided limit is already met.
        let n = view.num_cores();
        for k in view.kernels() {
            if k.remaining == 0 {
                continue;
            }
            self.kernel_start.entry(k.id).or_insert_with(|| view.now());
            for i in 0..n {
                let core = (self.cursor + i) % n;
                let info = view.core(core);
                if info.capacity_for(k.id) == 0 {
                    continue;
                }
                if let Phase::Throttled(limit) = self.phase(core, k.id) {
                    if info.ctas_of(k.id) >= limit {
                        continue;
                    }
                }
                self.cursor = (core + 1) % n;
                return Some(Dispatch {
                    core,
                    kernel: k.id,
                    count: 1,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_sim::{CoreDispatchInfo, KernelSummary};

    #[test]
    fn estimator_even_distribution_keeps_all() {
        let samples = vec![100, 95, 90, 105, 98, 97, 102, 99];
        assert_eq!(estimate_cta_limit(&samples, 0.5), 8);
    }

    #[test]
    fn estimator_graded_decay_throttles() {
        // The spmv-like shape: progress decays with greedy priority.
        let samples = vec![1840, 1573, 1304, 1080, 905];
        assert_eq!(estimate_cta_limit(&samples, 0.5), 4);
        assert_eq!(estimate_cta_limit(&samples, 0.6), 3);
    }

    #[test]
    fn estimator_strong_skew_throttles_hard() {
        let samples = vec![3992, 1062, 128, 128, 128, 52];
        assert_eq!(estimate_cta_limit(&samples, 0.5), 1);
    }

    #[test]
    fn estimator_never_below_one() {
        assert_eq!(estimate_cta_limit(&[], 0.5), 1);
        assert_eq!(estimate_cta_limit(&[0, 0, 0], 0.5), 1);
        assert_eq!(estimate_cta_limit(&[7], 0.5), 1);
    }

    #[test]
    fn estimator_gamma_monotonic() {
        let samples = vec![1000, 500, 200, 100, 50, 20];
        let mut last = u32::MAX;
        for gamma in [0.02, 0.05, 0.1, 0.2, 0.5, 1.0] {
            let n = estimate_cta_limit(&samples, gamma);
            assert!(n <= last, "higher gamma must not increase the limit");
            last = n;
        }
        assert_eq!(estimate_cta_limit(&samples, 1.0), 1);
    }

    #[test]
    fn utilization_math() {
        assert_eq!(issue_utilization(0, 0, 2), 0.0);
        assert_eq!(issue_utilization(100, 100, 2), 0.5);
        assert_eq!(issue_utilization(200, 100, 2), 1.0);
        assert_eq!(issue_utilization(400, 100, 2), 1.0, "clamped");
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn invalid_gamma_rejected() {
        let _ = Lcs::with_gamma(0.0);
    }

    fn view_parts(
        caps: &[(u32, u32)], // (resident, capacity) per core
    ) -> (Vec<KernelSummary>, Vec<CoreDispatchInfo>) {
        let kernels = vec![KernelSummary {
            id: KernelId(0),
            next_cta: 0,
            remaining: 1000,
            total_ctas: 1000,
            warps_per_cta: 4,
        }];
        let cores = caps
            .iter()
            .map(|&(ctas, cap)| CoreDispatchInfo {
                cta_count: ctas,
                kernel_ctas: vec![(KernelId(0), ctas)],
                capacity: vec![(KernelId(0), cap)],
                completed: vec![(KernelId(0), 0)],
            })
            .collect();
        (kernels, cores)
    }

    fn complete_event(core: usize, cycle: u64, snapshot: Vec<(u64, u64)>) -> CtaCompleteEvent {
        CtaCompleteEvent {
            core,
            kernel: KernelId(0),
            cta_id: 0,
            cycle,
            completed_on_core: 1,
            core_kernel_issued: 0,
            slot_snapshot: snapshot
                .into_iter()
                .map(|(cta_id, issued)| CtaIssueSample {
                    kernel: KernelId(0),
                    cta_id,
                    issued,
                    running: true,
                })
                .collect(),
        }
    }

    #[test]
    fn monitoring_phase_fills_to_hw_limit() {
        let mut lcs = Lcs::new();
        let (kernels, cores) = view_parts(&[(7, 1)]);
        let view = DispatchView::new(0, &kernels, &cores);
        assert!(lcs.select(&view).is_some());
    }

    #[test]
    fn throttles_after_first_completion() {
        let mut lcs = Lcs::new();
        // Memory-starved snapshot over a long window (low utilization).
        lcs.on_cta_complete(&complete_event(
            0,
            100_000,
            vec![(0, 1000), (1, 900), (2, 10), (3, 8), (4, 4), (5, 2), (6, 1), (7, 1)],
        ));
        assert_eq!(lcs.limit_of(0, KernelId(0)), Some(2));
        // Core 0 already has 2 resident CTAs: no more dispatches there.
        let (kernels, cores) = view_parts(&[(2, 6)]);
        let view = DispatchView::new(0, &kernels, &cores);
        assert_eq!(lcs.select(&view), None);
        // Below the limit: dispatch resumes (lazy refill).
        let (kernels, cores) = view_parts(&[(1, 7)]);
        let view = DispatchView::new(0, &kernels, &cores);
        assert!(lcs.select(&view).is_some());
    }

    #[test]
    fn utilization_guard_keeps_max_for_issue_bound_cores() {
        let mut lcs = Lcs::new();
        // Heavy skew but the window is short: 5490 issued in 2744 cycles
        // at 2 slots/cycle = 100% utilization.
        lcs.on_cta_complete(&complete_event(
            0,
            2744,
            vec![(0, 3992), (1, 1062), (2, 128), (3, 128), (4, 128), (5, 52)],
        ));
        assert_eq!(lcs.limit_of(0, KernelId(0)), Some(u32::MAX));
        // Dispatch is unthrottled.
        let (kernels, cores) = view_parts(&[(6, 2)]);
        let view = DispatchView::new(0, &kernels, &cores);
        assert!(lcs.select(&view).is_some());
    }

    #[test]
    fn decision_is_per_core() {
        let mut lcs = Lcs::new();
        lcs.on_cta_complete(&complete_event(0, 100_000, vec![(0, 100), (1, 1)]));
        assert_eq!(lcs.limit_of(0, KernelId(0)), Some(1));
        assert_eq!(lcs.limit_of(1, KernelId(0)), None);
        // Core 1 still monitoring: dispatch allowed there.
        let (kernels, cores) = view_parts(&[(1, 0), (4, 4)]);
        let view = DispatchView::new(0, &kernels, &cores);
        assert_eq!(lcs.select(&view).unwrap().core, 1);
    }

    #[test]
    fn only_first_completion_decides() {
        let mut lcs = Lcs::new();
        lcs.on_cta_complete(&complete_event(0, 100_000, vec![(0, 100), (1, 90)]));
        assert_eq!(lcs.limit_of(0, KernelId(0)), Some(2));
        lcs.on_cta_complete(&complete_event(0, 200_000, vec![(0, 100), (1, 1)]));
        assert_eq!(lcs.limit_of(0, KernelId(0)), Some(2));
    }

    #[test]
    fn kernel_finish_clears_state() {
        let mut lcs = Lcs::new();
        lcs.on_cta_complete(&complete_event(0, 100_000, vec![(0, 100), (1, 1)]));
        lcs.on_kernel_finish(KernelId(0));
        // Phase cleared (a re-launched kernel id would re-monitor), but the
        // decision log is kept for reporting.
        assert_eq!(lcs.limit_of(0, KernelId(0)), Some(1));
        let (kernels, cores) = view_parts(&[(4, 4)]);
        let view = DispatchView::new(0, &kernels, &cores);
        assert!(lcs.select(&view).is_some(), "monitoring phase restarted");
    }

    #[test]
    fn select_round_robins_across_cores() {
        let mut lcs = Lcs::new();
        let (kernels, cores) = view_parts(&[(0, 8), (0, 8), (0, 8)]);
        let view = DispatchView::new(0, &kernels, &cores);
        let picks: Vec<usize> = (0..6).map(|_| lcs.select(&view).unwrap().core).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }
}
