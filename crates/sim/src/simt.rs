//! The per-warp SIMT reconvergence stack.
//!
//! Divergent branches partition a warp's active mask; the stack executes
//! one side at a time and merges the lanes back together at the branch's
//! reconvergence PC. The implementation assumes *structured* control flow
//! (both sides of a divergent branch eventually reach its reconvergence
//! PC), which the `gpgpu-isa` kernel DSL guarantees.

use gpgpu_isa::Pc;

/// A 32-bit lane mask (bit `i` = lane `i` active).
pub type LaneMask = u32;

/// A full warp: all 32 lanes.
pub const FULL_MASK: LaneMask = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    pc: Pc,
    /// Reconvergence PC; `RPC_NONE` for the root entry.
    rpc: Pc,
    mask: LaneMask,
}

const RPC_NONE: Pc = Pc::MAX;

/// The SIMT stack of one warp. `exited` lanes (threads that executed
/// `Exit`) are tracked by the caller and passed into queries, so the stack
/// itself stays a pure control structure.
///
/// The top entry lives inline (`None` once the stack is empty), the rest
/// in `below`, so `sync`, `advance`, `jump` and a uniform `branch` never
/// touch the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimtStack {
    top: Option<Entry>,
    below: Vec<Entry>,
}

impl SimtStack {
    /// A stack starting execution at PC 0 with the given initial mask
    /// (lanes beyond a partial CTA's thread count start inactive).
    pub fn new(initial_mask: LaneMask) -> Self {
        SimtStack {
            top: Some(Entry {
                pc: 0,
                rpc: RPC_NONE,
                mask: initial_mask,
            }),
            below: Vec::new(),
        }
    }

    /// Pops reconverged/empty entries and returns the current `(pc, mask)`
    /// to execute, or `None` when the warp has finished.
    pub fn sync(&mut self, exited: LaneMask) -> Option<(Pc, LaneMask)> {
        while let Some(top) = self.top {
            let eff = top.mask & !exited;
            if eff != 0 && top.pc != top.rpc {
                return Some((top.pc, eff));
            }
            self.top = self.below.pop();
        }
        None
    }

    /// Whether the warp has no live execution left.
    pub fn is_done(&mut self, exited: LaneMask) -> bool {
        self.sync(exited).is_none()
    }

    /// Advances sequentially (`pc += 1`).
    ///
    /// # Panics
    ///
    /// Panics if called on an empty stack.
    pub fn advance(&mut self) {
        self.top.as_mut().expect("live stack").pc += 1;
    }

    /// Unconditional jump of the current entry.
    ///
    /// # Panics
    ///
    /// Panics if called on an empty stack.
    pub fn jump(&mut self, target: Pc) {
        self.top.as_mut().expect("live stack").pc = target;
    }

    /// Executes a (potentially divergent) conditional branch at the current
    /// entry. `taken` is the mask of lanes taking the branch (already
    /// restricted to the current effective mask by the caller), `fall` the
    /// lanes falling through to `pc + 1`.
    ///
    /// Uniform outcomes mutate the top entry in place; divergent outcomes
    /// replace it with a continuation at `reconv` plus one entry per side
    /// (taken side on top, so it executes first).
    ///
    /// # Panics
    ///
    /// Panics if called on an empty stack.
    pub fn branch(&mut self, taken: LaneMask, fall: LaneMask, target: Pc, reconv: Pc) {
        debug_assert_eq!(taken & fall, 0, "taken and fall-through must be disjoint");
        let top = self.top.as_mut().expect("live stack");
        if fall == 0 {
            // Uniformly taken.
            top.pc = target;
            return;
        }
        if taken == 0 {
            // Uniformly not taken.
            top.pc += 1;
            return;
        }
        // Divergent: pop the current entry, push continuation + both sides.
        let top = *top;
        self.top = self.below.pop();
        self.push_if(Entry {
            pc: reconv,
            rpc: top.rpc,
            mask: top.mask,
        });
        self.push_if(Entry {
            pc: top.pc + 1,
            rpc: reconv,
            mask: fall,
        });
        self.push_if(Entry {
            pc: target,
            rpc: reconv,
            mask: taken,
        });
    }

    /// Pushes an entry unless it would pop immediately (empty mask or
    /// already at its reconvergence point — the entry below provides the
    /// continuation in that case).
    fn push_if(&mut self, e: Entry) {
        if e.mask != 0 && e.pc != e.rpc {
            if let Some(t) = self.top.replace(e) {
                self.below.push(t);
            }
        }
    }

    /// Current stack depth (diagnostics).
    pub fn depth(&self) -> usize {
        usize::from(self.top.is_some()) + self.below.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line() {
        let mut s = SimtStack::new(FULL_MASK);
        assert_eq!(s.sync(0), Some((0, FULL_MASK)));
        s.advance();
        assert_eq!(s.sync(0), Some((1, FULL_MASK)));
        s.jump(10);
        assert_eq!(s.sync(0), Some((10, FULL_MASK)));
    }

    #[test]
    fn all_exited_finishes() {
        let mut s = SimtStack::new(FULL_MASK);
        assert!(!s.is_done(0));
        assert!(s.is_done(FULL_MASK));
    }

    #[test]
    fn partial_initial_mask() {
        let mut s = SimtStack::new(0xFF);
        assert_eq!(s.sync(0), Some((0, 0xFF)));
        assert!(s.is_done(0xFF));
    }

    #[test]
    fn uniform_branches_do_not_push() {
        let mut s = SimtStack::new(FULL_MASK);
        s.branch(FULL_MASK, 0, 5, 9);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.sync(0), Some((5, FULL_MASK)));
        s.branch(0, FULL_MASK, 2, 9);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.sync(0), Some((6, FULL_MASK)));
    }

    #[test]
    fn divergent_if_executes_taken_then_fall_then_reconverges() {
        // Program shape: pc0 = branch(target=10, reconv=20).
        let mut s = SimtStack::new(FULL_MASK);
        let taken = 0x0000_FFFF;
        let fall = 0xFFFF_0000;
        s.branch(taken, fall, 10, 20);
        // Taken side first.
        assert_eq!(s.sync(0), Some((10, taken)));
        s.jump(20); // taken side reaches reconv
        // Fall-through side next.
        assert_eq!(s.sync(0), Some((1, fall)));
        s.jump(20);
        // Reconverged with the full mask.
        assert_eq!(s.sync(0), Some((20, FULL_MASK)));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn taken_to_reconv_is_immediate() {
        // if_then shape: lanes failing the condition jump straight to the
        // reconvergence point (target == reconv).
        let mut s = SimtStack::new(FULL_MASK);
        let skip = 0xF0F0_F0F0; // lanes skipping the body
        let body = !skip;
        s.branch(skip, body, 7, 7);
        // Body executes first (fall side is the only pushed side).
        assert_eq!(s.sync(0), Some((1, body)));
        s.jump(7);
        assert_eq!(s.sync(0), Some((7, FULL_MASK)));
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(FULL_MASK);
        // Outer: halves diverge, reconv at 100.
        let top = 0xFFFF_0000;
        let bottom = 0x0000_FFFF;
        s.branch(top, bottom, 50, 100);
        assert_eq!(s.sync(0), Some((50, top)));
        // Inner (within taken side at pc 50): quarters diverge, reconv 80.
        let q1 = 0xFF00_0000;
        let q2 = 0x00FF_0000;
        s.branch(q1, q2, 60, 80);
        assert_eq!(s.sync(0), Some((60, q1)));
        s.jump(80);
        assert_eq!(s.sync(0), Some((51, q2)));
        s.jump(80);
        // Inner reconverged: top half together at 80.
        assert_eq!(s.sync(0), Some((80, top)));
        s.jump(100);
        // Outer: bottom half still to run.
        assert_eq!(s.sync(0), Some((1, bottom)));
        s.jump(100);
        assert_eq!(s.sync(0), Some((100, FULL_MASK)));
    }

    #[test]
    fn divergent_loop_exits_lanes_incrementally() {
        // Loop head at pc 0: branch(exit-lanes -> 10, reconv 10); body
        // 1..=2; pc 3 jumps back to 0.
        let mut s = SimtStack::new(0b1111);
        // Iteration 1: lane 3 leaves.
        s.branch(0b1000, 0b0111, 10, 10);
        assert_eq!(s.sync(0), Some((1, 0b0111)));
        s.advance();
        s.advance();
        s.jump(0);
        // Iteration 2: lane 2 leaves.
        s.branch(0b0100, 0b0011, 10, 10);
        assert_eq!(s.sync(0), Some((1, 0b0011)));
        s.jump(0);
        // Iteration 3: the rest leave (uniform).
        s.branch(0b0011, 0, 10, 10);
        assert_eq!(s.sync(0), Some((10, 0b1111)));
        assert_eq!(s.depth(), 1, "loop must not grow the stack");
    }

    #[test]
    fn stack_depth_bounded_across_many_iterations() {
        let mut s = SimtStack::new(FULL_MASK);
        let mut live = FULL_MASK;
        for i in 0..32 {
            // One lane exits the loop per iteration.
            let leaving = 1 << i;
            let staying = live & !leaving;
            s.branch(leaving, staying, 100, 100);
            live = staying;
            if live != 0 {
                assert_eq!(s.sync(0), Some((1, live)));
                assert!(s.depth() <= 3, "depth {} too deep", s.depth());
                s.jump(0);
            }
        }
        assert_eq!(s.sync(0), Some((100, FULL_MASK)));
    }

    #[test]
    fn exited_lanes_shrink_masks_everywhere() {
        let mut s = SimtStack::new(FULL_MASK);
        s.branch(0x0000_00FF, 0xFFFF_FF00, 10, 20);
        // Lanes 0..8 are on the taken side; they exit.
        assert_eq!(s.sync(0), Some((10, 0xFF)));
        let exited = 0xFF;
        // Taken side's entry is now empty and pops; fall side runs.
        assert_eq!(s.sync(exited), Some((1, 0xFFFF_FF00)));
        s.jump(20);
        assert_eq!(s.sync(exited), Some((20, 0xFFFF_FF00)));
    }
}
