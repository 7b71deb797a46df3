//! Warp schedulers: the baselines the paper compares against (LRR, GTO,
//! two-level) and the paper's block-aware warp scheduler (BAWS) used with
//! BCS.
//!
//! Each picks from the ready mask (`pick_ready`); its `pick` is the
//! list-to-mask adapter.

use gpgpu_sim::{
    ready_mask, ready_slots, IssueView, KernelId, WarpMeta, WarpScheduler, WarpSchedulerFactory,
    MAX_WARP_SLOTS,
};
use std::collections::VecDeque;

/// Per-slot policy state covers every possible warp slot.
const SLOTS: usize = MAX_WARP_SLOTS as usize;

// ---------------------------------------------------------------------
// LRR — loose round robin.
// ---------------------------------------------------------------------

/// Loose round-robin: rotate through ready warps, starting after the last
/// warp that issued. Spreads issue slots evenly, which maximizes
/// memory-level parallelism but lets all warps reach their long-latency
/// loads at the same time.
#[derive(Debug)]
pub struct Lrr {
    last: Option<usize>,
}

impl Lrr {
    /// A fresh LRR scheduler.
    pub fn new() -> Self {
        Lrr { last: None }
    }
}

impl Default for Lrr {
    fn default() -> Self {
        Self::new()
    }
}

impl WarpScheduler for Lrr {
    fn name(&self) -> &str {
        "lrr"
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        self.pick_ready(view, ready_mask(candidates))
    }

    fn pick_ready(&mut self, _view: &IssueView<'_>, ready: u64) -> Option<usize> {
        let above = |l: usize| ready & (!0u64).checked_shl(l as u32 + 1).unwrap_or(0);
        let after = self.last.map_or(ready, above);
        let pick = ready_slots(if after != 0 { after } else { ready }).next()?;
        self.last = Some(pick);
        Some(pick)
    }
}

/// Factory for [`Lrr`].
#[derive(Debug, Default)]
pub struct LrrFactory;

impl WarpSchedulerFactory for LrrFactory {
    fn name(&self) -> &str {
        "lrr"
    }
    fn create(&self, _core: usize, _slot: usize) -> Box<dyn WarpScheduler> {
        Box::new(Lrr::new())
    }
}

// ---------------------------------------------------------------------
// GTO — greedy-then-oldest.
// ---------------------------------------------------------------------

/// Greedy-then-oldest: keep issuing from the same warp until it stalls,
/// then fall back to the *oldest* ready warp (earliest dispatch stamp).
///
/// GTO is the paper's reference warp scheduler and — crucially — LCS's
/// sensor: because GTO concentrates issue slots on the oldest CTAs,
/// the per-CTA issue distribution measured during the monitoring period
/// reveals how many CTAs the core can usefully sustain.
#[derive(Debug)]
pub struct Gto {
    current: Option<usize>,
    /// Dispatch stamp of each slot's warp, from `on_warp_start`.
    age: [u64; SLOTS],
}

impl Gto {
    /// A fresh GTO scheduler.
    pub fn new() -> Self {
        Gto { current: None, age: [u64::MAX; SLOTS] }
    }
}

impl Default for Gto {
    fn default() -> Self {
        Self::new()
    }
}

impl WarpScheduler for Gto {
    fn name(&self) -> &str {
        "gto"
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        self.pick_ready(view, ready_mask(candidates))
    }

    fn pick_ready(&mut self, _view: &IssueView<'_>, ready: u64) -> Option<usize> {
        if let Some(cur) = self.current {
            if ready >> cur & 1 != 0 {
                return Some(cur);
            }
        }
        // The oldest ready warp; ties go to the lowest slot.
        self.current = ready_slots(ready).min_by_key(|&s| self.age[s]);
        self.current
    }

    fn on_warp_start(&mut self, slot: usize, meta: &WarpMeta) {
        self.age[slot] = meta.age;
    }

    fn on_warp_finish(&mut self, slot: usize) {
        if self.current == Some(slot) {
            self.current = None;
        }
    }
}

/// Factory for [`Gto`].
#[derive(Debug, Default)]
pub struct GtoFactory;

impl WarpSchedulerFactory for GtoFactory {
    fn name(&self) -> &str {
        "gto"
    }
    fn create(&self, _core: usize, _slot: usize) -> Box<dyn WarpScheduler> {
        Box::new(Gto::new())
    }
}

// ---------------------------------------------------------------------
// Two-level scheduler.
// ---------------------------------------------------------------------

/// Two-level scheduling (Narasiman et al., MICRO'11): a small *active set*
/// issues round-robin; a warp that stalls rotates out to the pending pool
/// and the next pending warp rotates in. Keeps a few warps hitting their
/// loads at staggered times.
#[derive(Debug)]
pub struct TwoLevel {
    active: VecDeque<usize>,
    pending: VecDeque<usize>,
    active_size: usize,
}

impl TwoLevel {
    /// A two-level scheduler with the given active-set size.
    pub fn new(active_size: usize) -> Self {
        TwoLevel {
            active: VecDeque::new(),
            pending: VecDeque::new(),
            active_size: active_size.max(1),
        }
    }
}

impl WarpScheduler for TwoLevel {
    fn name(&self) -> &str {
        "two-level"
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        self.pick_ready(view, ready_mask(candidates))
    }

    fn pick_ready(&mut self, _view: &IssueView<'_>, ready: u64) -> Option<usize> {
        let is_ready = |w: usize| ready >> w & 1 != 0;
        // Round-robin within the active set.
        for _ in 0..self.active.len() {
            let w = self.active.pop_front().expect("nonempty");
            self.active.push_back(w);
            if is_ready(w) {
                return Some(w);
            }
        }
        // No active warp is ready: demote the head, promote a ready
        // pending warp.
        for _ in 0..self.pending.len() {
            let w = self.pending.pop_front().expect("nonempty");
            if is_ready(w) {
                if self.active.len() >= self.active_size {
                    if let Some(demoted) = self.active.pop_front() {
                        self.pending.push_back(demoted);
                    }
                }
                self.active.push_back(w);
                return Some(w);
            }
            self.pending.push_back(w);
        }
        None
    }

    fn on_warp_start(&mut self, slot: usize, _meta: &WarpMeta) {
        if self.active.len() < self.active_size {
            self.active.push_back(slot);
        } else {
            self.pending.push_back(slot);
        }
    }

    fn on_warp_finish(&mut self, slot: usize) {
        self.active.retain(|&w| w != slot);
        self.pending.retain(|&w| w != slot);
        if let Some(p) = self.pending.pop_front() {
            if self.active.len() < self.active_size {
                self.active.push_back(p);
            } else {
                self.pending.push_front(p);
            }
        }
    }
}

/// Factory for [`TwoLevel`].
#[derive(Debug)]
pub struct TwoLevelFactory {
    /// Active-set size per scheduler instance.
    pub active_size: usize,
}

impl Default for TwoLevelFactory {
    fn default() -> Self {
        TwoLevelFactory { active_size: 8 }
    }
}

impl WarpSchedulerFactory for TwoLevelFactory {
    fn name(&self) -> &str {
        "two-level"
    }
    fn create(&self, _core: usize, _slot: usize) -> Box<dyn WarpScheduler> {
        Box::new(TwoLevel::new(self.active_size))
    }
}

// ---------------------------------------------------------------------
// BAWS — the paper's block-aware warp scheduler.
// ---------------------------------------------------------------------

/// Block-aware warp scheduling, the warp-scheduler half of BCS.
///
/// BCS places blocks of `block_size` consecutive CTAs on the same core to
/// expose inter-CTA locality; a greedy scheduler would then let one CTA of
/// the block race ahead, pulling the siblings' shared lines through the
/// cache at different times. BAWS instead:
///
/// 1. prioritizes the *oldest block* of CTAs (greedy at block
///    granularity), and
/// 2. round-robins among the warps *within* that block, so sibling CTAs
///    advance together and touch their shared lines close in time.
#[derive(Debug)]
pub struct Baws {
    block_size: u64,
    /// Dispatch stamp and `(kernel, CTA block)` of each slot's warp, from
    /// `on_warp_start`.
    age: [u64; SLOTS],
    block: [(KernelId, u64); SLOTS],
    /// Last-issue stamps for intra-block fairness.
    last_issue: [u64; SLOTS],
    stamp: u64,
}

impl Baws {
    /// A BAWS instance for blocks of `block_size` consecutive CTAs.
    pub fn new(block_size: u32) -> Self {
        Baws {
            block_size: u64::from(block_size.max(1)),
            age: [u64::MAX; SLOTS],
            block: [(KernelId(0), 0); SLOTS],
            last_issue: [0; SLOTS],
            stamp: 0,
        }
    }
}

impl WarpScheduler for Baws {
    fn name(&self) -> &str {
        "baws"
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        self.pick_ready(view, ready_mask(candidates))
    }

    fn pick_ready(&mut self, _view: &IssueView<'_>, ready: u64) -> Option<usize> {
        // Oldest block: the block of the oldest ready warp (ties to the
        // lowest slot).
        let block = self.block[ready_slots(ready).min_by_key(|&s| self.age[s])?];
        // Round-robin within the block: least-recently issued warp.
        let pick = ready_slots(ready)
            .filter(|&s| self.block[s] == block)
            .min_by_key(|&s| self.last_issue[s])?;
        self.stamp += 1;
        self.last_issue[pick] = self.stamp;
        Some(pick)
    }

    fn on_warp_start(&mut self, slot: usize, meta: &WarpMeta) {
        self.age[slot] = meta.age;
        self.block[slot] = (meta.kernel, meta.cta_id / self.block_size);
    }
}

/// Factory for [`Baws`].
#[derive(Debug)]
pub struct BawsFactory {
    /// CTA-block size (must match the BCS dispatch block size).
    pub block_size: u32,
}

impl Default for BawsFactory {
    fn default() -> Self {
        BawsFactory { block_size: 2 }
    }
}

impl WarpSchedulerFactory for BawsFactory {
    fn name(&self) -> &str {
        "baws"
    }
    fn create(&self, _core: usize, _slot: usize) -> Box<dyn WarpScheduler> {
        Box::new(Baws::new(self.block_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(kernel: usize, cta: u64, age: u64) -> WarpMeta {
        WarpMeta {
            kernel: KernelId(kernel),
            cta_id: cta,
            cta_slot: 0,
            warp_in_cta: 0,
            age,
            issued: 0,
        }
    }

    fn view_of(warps: &[Option<WarpMeta>]) -> IssueView<'_> {
        IssueView::new(0, 0, warps)
    }

    /// `s` told that each warp of `warps` started in its slot, as the core
    /// does at dispatch.
    fn started<S: WarpScheduler>(mut s: S, warps: &[Option<WarpMeta>]) -> S {
        for (slot, meta) in warps.iter().enumerate() {
            if let Some(meta) = meta {
                s.on_warp_start(slot, meta);
            }
        }
        s
    }

    #[test]
    fn lrr_rotates() {
        let warps = vec![Some(meta(0, 0, 1)), Some(meta(0, 0, 2)), Some(meta(0, 1, 3))];
        let v = view_of(&warps);
        let mut s = Lrr::new();
        assert_eq!(s.pick(&v, &[0, 1, 2]), Some(0));
        assert_eq!(s.pick(&v, &[0, 1, 2]), Some(1));
        assert_eq!(s.pick(&v, &[0, 1, 2]), Some(2));
        assert_eq!(s.pick(&v, &[0, 1, 2]), Some(0), "wraps around");
        // Skips non-candidates.
        assert_eq!(s.pick(&v, &[2]), Some(2));
        assert_eq!(s.pick(&v, &[]), None);
    }

    #[test]
    fn gto_sticks_with_current_until_it_stalls() {
        let warps = vec![
            Some(meta(0, 0, 10)),
            Some(meta(0, 0, 5)), // oldest
            Some(meta(0, 1, 20)),
        ];
        let v = view_of(&warps);
        let mut s = started(Gto::new(), &warps);
        // First pick: the oldest (slot 1).
        assert_eq!(s.pick(&v, &[0, 1, 2]), Some(1));
        // Greedy: stays on 1 while it remains ready.
        assert_eq!(s.pick(&v, &[0, 1, 2]), Some(1));
        // 1 stalls: falls to the oldest ready (slot 0, age 10 < 20).
        assert_eq!(s.pick(&v, &[0, 2]), Some(0));
        // 1 becomes ready again, but greedy now follows 0.
        assert_eq!(s.pick(&v, &[0, 1, 2]), Some(0));
        s.on_warp_finish(0);
        assert_eq!(s.pick(&v, &[1, 2]), Some(1));
    }

    #[test]
    fn two_level_restricts_to_active_set() {
        let warps: Vec<Option<WarpMeta>> =
            (0..6).map(|i| Some(meta(0, 0, i as u64))).collect();
        let v = view_of(&warps);
        let mut s = TwoLevel::new(2);
        for i in 0..6 {
            s.on_warp_start(i, &meta(0, 0, i as u64));
        }
        let all: Vec<usize> = (0..6).collect();
        // Only warps 0 and 1 (the active set) issue while both are ready.
        let mut picks = std::collections::BTreeSet::new();
        for _ in 0..10 {
            picks.insert(s.pick(&v, &all).unwrap());
        }
        assert_eq!(picks.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        // When the active set stalls, a pending warp is promoted.
        let got = s.pick(&v, &[3, 4]).unwrap();
        assert!(got == 3 || got == 4);
    }

    #[test]
    fn baws_prefers_oldest_block_and_round_robins_within() {
        // Block size 2: CTAs 0,1 form block 0; CTAs 2,3 form block 1.
        let warps = vec![
            Some(meta(0, 0, 1)), // block 0
            Some(meta(0, 1, 2)), // block 0
            Some(meta(0, 2, 3)), // block 1
            Some(meta(0, 3, 4)), // block 1
        ];
        let v = view_of(&warps);
        let mut s = started(Baws::new(2), &warps);
        // All ready: block 0 wins; round-robin alternates its two warps.
        let a = s.pick(&v, &[0, 1, 2, 3]).unwrap();
        let b = s.pick(&v, &[0, 1, 2, 3]).unwrap();
        assert_eq!(
            {
                let mut ab = [a, b];
                ab.sort_unstable();
                ab
            },
            [0, 1],
            "block 0's warps must alternate"
        );
        // Block 0 fully stalled: block 1 proceeds.
        let c = s.pick(&v, &[2, 3]).unwrap();
        assert!(c == 2 || c == 3);
    }

    #[test]
    fn baws_blocks_respect_kernel_boundaries() {
        // Same block index, different kernels: must not be merged.
        let warps = vec![
            Some(meta(0, 0, 5)),
            Some(meta(1, 0, 1)), // older, different kernel
        ];
        let v = view_of(&warps);
        let mut s = started(Baws::new(2), &warps);
        // Oldest block is kernel 1's.
        assert_eq!(s.pick(&v, &[0, 1]), Some(1));
    }

    #[test]
    fn factories_create_named_schedulers() {
        assert_eq!(LrrFactory.create(0, 0).name(), "lrr");
        assert_eq!(GtoFactory.create(0, 1).name(), "gto");
        assert_eq!(TwoLevelFactory::default().create(0, 0).name(), "two-level");
        assert_eq!(BawsFactory::default().create(0, 0).name(), "baws");
    }
}
