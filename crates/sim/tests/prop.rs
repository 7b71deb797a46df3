//! Property-style tests for simulator data structures: the SIMT stack
//! under random structured divergence and against a `Vec`-only
//! reference, and the coalescer's covering property.
//!
//! Cases are drawn from the seeded SplitMix64 generator in
//! `gpgpu-testkit` (shared across the workspace), so the crate builds
//! with no third-party dependencies and every run checks the same cases.

use gpgpu_sim::coalesce::{coalesce, shared_conflict_passes};
use gpgpu_sim::{LaneMask, SimtStack, FULL_MASK};
use gpgpu_testkit::Gen;

/// The SIMT stack as one `Vec` of `(pc, rpc, mask)` entries, top last:
/// the representation `SimtStack` had before its top entry moved inline.
struct VecStack(Vec<(u32, u32, LaneMask)>);

impl VecStack {
    fn sync(&mut self, exited: LaneMask) -> Option<(u32, LaneMask)> {
        while let Some(&(pc, rpc, mask)) = self.0.last() {
            if mask & !exited == 0 || pc == rpc {
                self.0.pop();
                continue;
            }
            return Some((pc, mask & !exited));
        }
        None
    }

    fn branch(&mut self, taken: LaneMask, fall: LaneMask, target: u32, reconv: u32) {
        let top = self.0.last_mut().expect("live stack");
        if fall == 0 {
            top.0 = target;
        } else if taken == 0 {
            top.0 += 1;
        } else {
            let (pc, rpc, mask) = self.0.pop().expect("live stack");
            for e in [(reconv, rpc, mask), (pc + 1, reconv, fall), (target, reconv, taken)] {
                if e.2 != 0 && e.0 != e.1 {
                    self.0.push(e);
                }
            }
        }
    }
}

/// The inline-top stack matches the `Vec`-only reference, pc, mask and
/// depth, under random branches (uniform and divergent), advances,
/// jumps and lane exits. Pcs come from a small range, so entries often
/// land on their reconvergence point.
#[test]
fn inline_top_stack_matches_vec_reference() {
    let mut g = Gen::new(0x5717);
    let mut ops = 0;
    for _ in 0..2000 {
        let init = if g.chance(1, 2) {
            FULL_MASK
        } else {
            g.next_u32()
        };
        let mut s = SimtStack::new(init);
        let mut r = VecStack(vec![(0, u32::MAX, init)]);
        let mut exited: LaneMask = 0;
        for _ in 0..g.range(1, 60) {
            let got = s.sync(exited);
            assert_eq!(got, r.sync(exited));
            assert_eq!(s.depth(), r.0.len());
            let Some((_, eff)) = got else { break };
            match g.index(5) {
                0 => {
                    s.advance();
                    r.0.last_mut().unwrap().0 += 1;
                }
                1 => {
                    let t = g.range(0, 12) as u32;
                    s.jump(t);
                    r.0.last_mut().unwrap().0 = t;
                }
                2 => exited |= eff & g.next_u32() & g.next_u32(),
                _ => {
                    let taken = match g.index(4) {
                        0 => 0,
                        1 => eff,
                        _ => eff & g.next_u32(),
                    };
                    let (target, reconv) = (g.range(0, 12) as u32, g.range(0, 12) as u32);
                    s.branch(taken, eff & !taken, target, reconv);
                    r.branch(taken, eff & !taken, target, reconv);
                }
            }
            assert_eq!(s.depth(), r.0.len());
            ops += 1;
        }
        assert_eq!(s.is_done(exited), r.sync(exited).is_none());
    }
    assert!(ops > 20_000, "only {ops} operations compared");
}

/// An if/else over a random lane partition always reconverges with the
/// original mask, regardless of which side exits lanes.
#[test]
fn if_else_reconverges() {
    let mut g = Gen::new(0x51);
    for i in 0..512 {
        let taken_mask = match i {
            0 => 0,
            1 => FULL_MASK,
            _ => g.next_u32(),
        };
        let exits = match i {
            2 => FULL_MASK,
            _ => g.next_u32(),
        };
        let taken = taken_mask; // lanes taking the branch
        let fall = !taken_mask;
        let mut s = SimtStack::new(FULL_MASK);
        s.branch(taken, fall, 10, 20);
        let exited = exits & taken; // some taken lanes exit
                                    // Run the taken side (if any non-exited lanes remain).
        if let Some((pc, m)) = s.sync(exited) {
            if pc == 10 {
                assert_eq!(m, taken & !exited);
                s.jump(20);
            }
        }
        // Run the fall side.
        if let Some((pc, m)) = s.sync(exited) {
            if pc == 1 {
                assert_eq!(m, fall & !exited);
                s.jump(20);
            }
        }
        // Reconverged: everything alive is back together at 20.
        match s.sync(exited) {
            Some((20, m)) => assert_eq!(m, FULL_MASK & !exited),
            None => assert_eq!(exited, FULL_MASK),
            other => panic!("unexpected state {other:?}"),
        }
    }
}

/// Nested divergence never leaves the stack deeper than 2 entries per
/// nesting level + 1.
#[test]
fn nesting_depth_bounded() {
    let mut g = Gen::new(0xDEB7);
    for _ in 0..256 {
        let masks: Vec<u32> = (0..g.range(1, 6)).map(|_| g.next_u32()).collect();
        let mut s = SimtStack::new(FULL_MASK);
        let mut live = FULL_MASK;
        let mut depth_levels = 0;
        for (i, m) in masks.iter().enumerate() {
            let taken = live & m;
            let fall = live & !m;
            if taken == 0 || fall == 0 {
                continue; // uniform, no divergence
            }
            let base = (i as u32 + 1) * 100;
            s.branch(taken, fall, base, base + 50);
            depth_levels += 1;
            assert!(
                s.depth() <= 2 * depth_levels + 1,
                "depth {} after {} levels",
                s.depth(),
                depth_levels
            );
            // Descend into the taken side.
            let (_, m2) = s.sync(0).expect("live");
            live = m2;
        }
    }
}

/// Coalescing covers every active lane's access and produces sorted,
/// unique, line-aligned addresses.
#[test]
fn coalesce_covers_and_is_canonical() {
    let mut g = Gen::new(0xC0A);
    for i in 0..256 {
        let mut addrs = [0u64; 32];
        for a in &mut addrs {
            *a = g.range(0, 100_000);
        }
        let mask = match i {
            0 => 0,
            1 => FULL_MASK,
            _ => g.next_u32(),
        };
        let wide = i % 2 == 0;
        let width = if wide { 8 } else { 4 };
        let lines = coalesce(&addrs, mask, width, 128);
        // Canonical form.
        for w in lines.as_slice().windows(2) {
            assert!(w[0] < w[1], "sorted and unique");
        }
        for &l in &lines {
            assert_eq!(l % 128, 0, "line aligned");
        }
        // Covering: every active byte belongs to some returned line.
        for lane in 0..32 {
            if mask & (1 << lane) == 0 {
                continue;
            }
            for b in [addrs[lane], addrs[lane] + width - 1] {
                let line = b & !127;
                assert!(lines.as_slice().contains(&line), "byte {b:#x} uncovered");
            }
        }
        // Upper bound: at most 2 lines per active lane.
        let active = mask.count_ones() as usize;
        assert!(lines.len() <= 2 * active);
        if active == 0 {
            assert!(lines.is_empty());
        }
    }
}

/// Bank-conflict passes are between 1 and the active-lane count (when
/// any lane is active), and a uniform broadcast is always 1 pass.
#[test]
fn shared_conflicts_bounded() {
    let mut g = Gen::new(0x5AED);
    for i in 0..256 {
        let mut addrs = [0u64; 32];
        for a in &mut addrs {
            *a = g.range(0, 4096);
        }
        let mask = match i {
            0 => 0,
            1 => FULL_MASK,
            _ => g.next_u32(),
        };
        let passes = shared_conflict_passes(&addrs, mask);
        let active = mask.count_ones();
        if active == 0 {
            assert_eq!(passes, 0);
        } else {
            assert!(passes >= 1);
            assert!(passes <= active);
        }
        // Broadcast.
        let same = [400u64; 32];
        if active > 0 {
            assert_eq!(shared_conflict_passes(&same, mask), 1);
        }
    }
}
