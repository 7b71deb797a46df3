//! Each warp policy's mask pick (`pick_ready`) against a spelled-out
//! copy of its list algorithm as it stood before the policies picked
//! from a ready mask: candidates as an ascending slot list, ages and
//! CTAs read through the `IssueView` on every pick.
//!
//! A random sequence of warp starts (random kernel, CTA id and age, ties
//! included), finishes and picks over all 64 slots drives three
//! instances of each policy in lockstep: the reference, the policy
//! through `pick_ready`, and the policy through its `pick` list adapter.
//! Every pick must agree, and each issued slot is reported to all three.

use gpgpu_sim::{ready_slots, IssueView, KernelId, WarpMeta, WarpScheduler, MAX_WARP_SLOTS};
use gpgpu_testkit::Gen;
use std::collections::VecDeque;
use tbs_core::{Baws, Gto, Lrr, TwoLevel};

const SLOTS: usize = MAX_WARP_SLOTS as usize;

#[derive(Debug)]
struct RefLrr {
    last: Option<usize>,
}

impl WarpScheduler for RefLrr {
    fn name(&self) -> &str {
        "ref-lrr"
    }

    fn pick(&mut self, _view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        let pick = match self.last {
            Some(last) => candidates
                .iter()
                .copied()
                .find(|&c| c > last)
                .or_else(|| candidates.first().copied()),
            None => candidates.first().copied(),
        };
        if let Some(p) = pick {
            self.last = Some(p);
        }
        pick
    }
}

#[derive(Debug)]
struct RefGto {
    current: Option<usize>,
}

impl WarpScheduler for RefGto {
    fn name(&self) -> &str {
        "ref-gto"
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        if let Some(cur) = self.current {
            if candidates.contains(&cur) {
                return Some(cur);
            }
        }
        let oldest = candidates
            .iter()
            .copied()
            .min_by_key(|&c| view.warp(c).map(|w| w.age).unwrap_or(u64::MAX));
        self.current = oldest;
        oldest
    }

    fn on_warp_finish(&mut self, slot: usize) {
        if self.current == Some(slot) {
            self.current = None;
        }
    }
}

#[derive(Debug)]
struct RefTwoLevel {
    active: VecDeque<usize>,
    pending: VecDeque<usize>,
    active_size: usize,
}

impl WarpScheduler for RefTwoLevel {
    fn name(&self) -> &str {
        "ref-two-level"
    }

    fn pick(&mut self, _view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        for _ in 0..self.active.len() {
            let w = self.active.pop_front().expect("nonempty");
            self.active.push_back(w);
            if candidates.contains(&w) {
                return Some(w);
            }
        }
        for _ in 0..self.pending.len() {
            let w = self.pending.pop_front().expect("nonempty");
            if candidates.contains(&w) {
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

#[derive(Debug)]
struct RefBaws {
    block_size: u64,
    last_issue: Vec<u64>,
    stamp: u64,
}

impl RefBaws {
    fn block_of(&self, meta: &WarpMeta) -> (KernelId, u64) {
        (meta.kernel, meta.cta_id / self.block_size)
    }
}

impl WarpScheduler for RefBaws {
    fn name(&self) -> &str {
        "ref-baws"
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        let mut best_block: Option<((KernelId, u64), u64)> = None;
        for &c in candidates {
            let Some(meta) = view.warp(c) else { continue };
            let block = self.block_of(meta);
            let entry = best_block.get_or_insert((block, meta.age));
            if meta.age < entry.1 {
                *entry = (block, meta.age);
            }
        }
        let (block, _) = best_block?;
        let pick = candidates
            .iter()
            .copied()
            .filter(|&c| {
                view.warp(c)
                    .map(|m| self.block_of(m) == block)
                    .unwrap_or(false)
            })
            .min_by_key(|&c| self.last_issue.get(c).copied().unwrap_or(0))?;
        self.stamp += 1;
        if self.last_issue.len() <= pick {
            self.last_issue.resize(pick + 1, 0);
        }
        self.last_issue[pick] = self.stamp;
        Some(pick)
    }
}

/// The reference, the mask-picking policy and the same policy through
/// its list adapter, for each of the four policies.
fn trios(block_size: u32, active_size: usize) -> Vec<[Box<dyn WarpScheduler>; 3]> {
    vec![
        [
            Box::new(RefLrr { last: None }),
            Box::new(Lrr::new()),
            Box::new(Lrr::new()),
        ],
        [
            Box::new(RefGto { current: None }),
            Box::new(Gto::new()),
            Box::new(Gto::new()),
        ],
        [
            Box::new(RefTwoLevel {
                active: VecDeque::new(),
                pending: VecDeque::new(),
                active_size,
            }),
            Box::new(TwoLevel::new(active_size)),
            Box::new(TwoLevel::new(active_size)),
        ],
        [
            Box::new(RefBaws {
                block_size: u64::from(block_size),
                last_issue: Vec::new(),
                stamp: 0,
            }),
            Box::new(Baws::new(block_size)),
            Box::new(Baws::new(block_size)),
        ],
    ]
}

#[test]
fn mask_picks_match_the_list_algorithms() {
    let mut g = Gen::new(0x5107);
    let mut picks = 0u64;
    for case in 0..300 {
        let block_size = g.range(1, 5) as u32;
        let active_size = g.range(1, 10) as usize;
        let mut policies = trios(block_size, active_size);
        let mut warps: Vec<Option<WarpMeta>> = vec![None; SLOTS];
        let mut occupied = 0u64;
        // Few distinct ages and CTAs, so ties and shared blocks are common.
        let (ages, ctas) = (g.range(1, 80), g.range(1, 24));
        for _ in 0..400 {
            match g.index(10) {
                0..=2 if occupied != u64::MAX => {
                    let free: Vec<usize> = ready_slots(!occupied).collect();
                    let slot = *g.choose(&free);
                    let meta = WarpMeta {
                        kernel: KernelId(g.index(3)),
                        cta_id: g.range(0, ctas),
                        cta_slot: 0,
                        warp_in_cta: 0,
                        age: g.range(0, ages),
                        issued: 0,
                    };
                    warps[slot] = Some(meta);
                    occupied |= 1 << slot;
                    for p in policies.iter_mut().flatten() {
                        p.on_warp_start(slot, &meta);
                    }
                }
                3 if occupied != 0 => {
                    let live: Vec<usize> = ready_slots(occupied).collect();
                    let slot = *g.choose(&live);
                    warps[slot] = None;
                    occupied &= !(1 << slot);
                    for p in policies.iter_mut().flatten() {
                        p.on_warp_finish(slot);
                    }
                }
                _ => {
                    // The core only offers occupied slots.
                    let ready = occupied & (g.next_u64() | g.next_u64());
                    let list: Vec<usize> = ready_slots(ready).collect();
                    let view = IssueView::new(0, 0, &warps);
                    for [reference, mask, adapter] in &mut policies {
                        let want = reference.pick(&view, &list);
                        let got = mask.pick_ready(&view, ready);
                        let listed = adapter.pick(&view, &list);
                        assert_eq!(
                            (got, listed),
                            (want, want),
                            "case {case}: {} over {ready:#x}",
                            reference.name()
                        );
                        if let Some(slot) = want {
                            for p in [reference, mask, adapter] {
                                p.on_issue(slot);
                            }
                            picks += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(picks > 100_000, "only {picks} picks compared");
}
