//! Pure functional semantics for ALU and comparison operations.
//!
//! The simulator separates *function* from *timing*: instructions are
//! evaluated functionally (through these helpers) at issue time, while
//! latency is modeled by the scoreboard and memory system. Keeping the
//! semantics pure makes them directly unit- and property-testable.
//!
//! The scalar functions ([`eval_alu`], [`eval_cmp`], [`eval_pbool`]) are
//! the semantics. The warp forms ([`alu_warp`], [`setp_warp`],
//! [`pbool_warp`], [`sel_warp`], [`mov_warp`]) evaluate one instruction
//! over a whole warp: they match on the op once, run a dense 32-lane loop
//! calling the scalar function with that constant op, and blend the
//! results into the destination under the execution mask. Every scalar op
//! is pure and total (no panics, zero divisors defined), so evaluating
//! inactive lanes is safe; the blend keeps their old values.

use crate::types::{AluOp, CmpOp, CmpTy, Operand, PBoolOp, Reg, WARP_SIZE};

/// One register's value in every lane of a warp.
pub type Lanes = [u64; WARP_SIZE];

/// The lanes an operand reads: a register's, or the immediate splatted
/// into `buf` (an `Option`, so a register operand costs no splat).
#[inline(always)]
pub fn operand_lanes<'a>(regs: &'a [Lanes], o: Operand, buf: &'a mut Option<Lanes>) -> &'a Lanes {
    match o {
        Operand::Reg(r) => &regs[r.0 as usize],
        Operand::Imm(v) => buf.insert([v; WARP_SIZE]),
    }
}

/// `f` lane by lane over `a`, `b` and `c`, as a plain indexed loop over
/// its arguments, which the compiler unrolls and vectorizes. (With
/// `array::from_fn`, or with the arrays captured by the closure, the
/// same loop runs two to five times slower.)
#[inline(always)]
fn map3(a: &Lanes, b: &Lanes, c: &Lanes, f: impl Fn(u64, u64, u64) -> u64) -> Lanes {
    let mut out = [0; WARP_SIZE];
    for l in 0..WARP_SIZE {
        out[l] = f(a[l], b[l], c[l]);
    }
    out
}

/// Writes `vals` into the lanes of `dst` set in `mask`; the others keep
/// their values.
#[inline]
pub fn blend_lanes(dst: &mut Lanes, vals: &Lanes, mask: u32) {
    if mask == u32::MAX {
        *dst = *vals;
        return;
    }
    for (l, (d, &v)) in dst.iter_mut().zip(vals).enumerate() {
        *d = if mask >> l & 1 != 0 { v } else { *d };
    }
}

/// Takes the bits of `new` set in `mask` and the bits of `old` elsewhere.
#[inline]
fn blend_bits(old: u32, new: u32, mask: u32) -> u32 {
    (old & !mask) | (new & mask)
}

/// `dst = op(a, b[, c])` in the lanes of `mask`. `c` is read only by
/// ternary ops. A destination may alias any source.
pub fn alu_warp(op: AluOp, regs: &mut [Lanes], dst: Reg, [a, b, c]: [Operand; 3], mask: u32) {
    const ZERO: Lanes = [0; WARP_SIZE];
    let (mut ba, mut bb, mut bc) = (None, None, None);
    let out = {
        let (a, b) = (
            operand_lanes(regs, a, &mut ba),
            operand_lanes(regs, b, &mut bb),
        );
        let c = if op.is_ternary() {
            operand_lanes(regs, c, &mut bc)
        } else {
            &ZERO
        };
        macro_rules! hoisted {
            ($($v:ident)*) => {
                match op {
                    $(AluOp::$v => map3(a, b, c, |x, y, z| eval_alu(AluOp::$v, x, y, z)),)*
                }
            };
        }
        hoisted!(IAdd ISub IMul IMad IMin IMax Shl ShrL ShrA And Or Xor URem UDiv
            FAdd FSub FMul FFma FMin FMax FRcp FSqrt FExp2 FLog2 I2F F2I)
    };
    blend_lanes(&mut regs[dst.0 as usize], &out, mask);
}

/// `dst = src` in the lanes of `mask`.
pub fn mov_warp(regs: &mut [Lanes], dst: Reg, src: Operand, mask: u32) {
    let vals = *operand_lanes(regs, src, &mut None);
    blend_lanes(&mut regs[dst.0 as usize], &vals, mask);
}

/// `dst = if pred { a } else { b }` in the lanes of `mask`, `pred` one bit
/// per lane.
pub fn sel_warp(regs: &mut [Lanes], dst: Reg, pred: u32, [a, b]: [Operand; 2], mask: u32) {
    let mut out = *operand_lanes(regs, b, &mut None);
    blend_lanes(&mut out, operand_lanes(regs, a, &mut None), pred);
    blend_lanes(&mut regs[dst.0 as usize], &out, mask);
}

/// The predicate `cmp(a, b)` over a warp: one bit per lane, taken in the
/// lanes of `mask` and from `old` elsewhere.
pub fn setp_warp(
    cmp: CmpOp,
    ty: CmpTy,
    regs: &[Lanes],
    [a, b]: [Operand; 2],
    old: u32,
    mask: u32,
) -> u32 {
    let (mut ba, mut bb) = (None, None);
    let (a, b) = (
        operand_lanes(regs, a, &mut ba),
        operand_lanes(regs, b, &mut bb),
    );
    macro_rules! hoisted {
        ($ty:ident: $($c:ident)*) => {
            match cmp {
                $(CmpOp::$c => (0..WARP_SIZE).fold(0u32, |m, l| {
                    m | u32::from(eval_cmp(CmpOp::$c, CmpTy::$ty, a[l], b[l])) << l
                }),)*
            }
        };
    }
    let hit = match ty {
        CmpTy::I64 => hoisted!(I64: Eq Ne Lt Le Gt Ge),
        CmpTy::U64 => hoisted!(U64: Eq Ne Lt Le Gt Ge),
        CmpTy::F32 => hoisted!(F32: Eq Ne Lt Le Gt Ge),
    };
    blend_bits(old, hit, mask)
}

/// The predicate `op(a, b)` over a warp, `a` and `b` one bit per lane:
/// taken in the lanes of `mask` and from `old` elsewhere.
pub fn pbool_warp(op: PBoolOp, a: u32, b: u32, old: u32, mask: u32) -> u32 {
    macro_rules! hoisted {
        ($($v:ident)*) => {
            match op {
                $(PBoolOp::$v => (0..WARP_SIZE).fold(0u32, |m, l| {
                    m | u32::from(eval_pbool(PBoolOp::$v, a >> l & 1 != 0, b >> l & 1 != 0)) << l
                }),)*
            }
        };
    }
    blend_bits(old, hoisted!(And Or Xor AndNot), mask)
}

/// Interprets the low 32 bits of a register value as an `f32`.
pub fn to_f32(v: u64) -> f32 {
    f32::from_bits(v as u32)
}

/// Stores an `f32` into a register value (zero-extended).
pub fn from_f32(v: f32) -> u64 {
    u64::from(v.to_bits())
}

/// The canonical quiet NaN: the result of an invalid operation (`inf -
/// inf`, `0 * inf`, `sqrt(-1)`) whose operands are not NaN.
const CANONICAL_NAN: u32 = 0x7fc0_0000;

/// The quiet bit of an `f32` NaN.
const QUIET_BIT: u32 = 0x0040_0000;

/// `r` as a register value, with a NaN result pinned down. IEEE 754
/// leaves a NaN result's sign and payload open, and the compiler may
/// order a commutative op's operands either way, so the same op could
/// give different NaN bits in the scalar and the warp-wide evaluator. A
/// NaN result is instead the first NaN operand in operand order, quieted,
/// or the canonical quiet NaN when no operand is NaN.
#[inline(always)]
fn f32_bits<const N: usize>(r: f32, operands: [f32; N]) -> u64 {
    if !r.is_nan() {
        return from_f32(r);
    }
    let nan = operands.iter().rev().fold(CANONICAL_NAN, |nan, x| {
        if x.is_nan() {
            x.to_bits() | QUIET_BIT
        } else {
            nan
        }
    });
    u64::from(nan)
}

/// The smaller of `x` and `y`: a NaN operand loses to a number, and `-0`
/// is below `+0`, so the result does not depend on operand order.
#[inline(always)]
fn fmin(x: f32, y: f32) -> f32 {
    if y.is_nan() || x < y || (x == y && x.is_sign_negative()) {
        x
    } else {
        y
    }
}

/// The larger of `x` and `y`: a NaN operand loses to a number, and `+0`
/// is above `-0`.
#[inline(always)]
fn fmax(x: f32, y: f32) -> f32 {
    if y.is_nan() || x > y || (x == y && x.is_sign_positive()) {
        x
    } else {
        y
    }
}

/// Evaluates an ALU operation on per-lane values. `c` is ignored unless the
/// op is ternary. Float ops read the low 32 bits as `f32`. A NaN result
/// is the first NaN operand in operand order, quieted, or the canonical
/// quiet NaN (`0x7fc00000`) when no operand is NaN; `FMin`/`FMax` let a
/// number beat a NaN and put `-0` below `+0`. So every op is a pure
/// function of its operand bits, whatever order the compiler evaluates
/// operands in.
#[inline(always)]
pub fn eval_alu(op: AluOp, a: u64, b: u64, c: u64) -> u64 {
    match op {
        AluOp::IAdd => a.wrapping_add(b),
        AluOp::ISub => a.wrapping_sub(b),
        AluOp::IMul => a.wrapping_mul(b),
        AluOp::IMad => a.wrapping_mul(b).wrapping_add(c),
        AluOp::IMin => (a as i64).min(b as i64) as u64,
        AluOp::IMax => (a as i64).max(b as i64) as u64,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::ShrL => a.wrapping_shr((b & 63) as u32),
        AluOp::ShrA => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::URem => {
            if b == 0 {
                0
            } else {
                a % b
            }
        }
        AluOp::UDiv => {
            if b == 0 {
                0
            } else {
                a / b
            }
        }
        AluOp::FAdd => {
            let (x, y) = (to_f32(a), to_f32(b));
            f32_bits(x + y, [x, y])
        }
        AluOp::FSub => {
            let (x, y) = (to_f32(a), to_f32(b));
            f32_bits(x - y, [x, y])
        }
        AluOp::FMul => {
            let (x, y) = (to_f32(a), to_f32(b));
            f32_bits(x * y, [x, y])
        }
        AluOp::FFma => {
            let (x, y, z) = (to_f32(a), to_f32(b), to_f32(c));
            f32_bits(x.mul_add(y, z), [x, y, z])
        }
        AluOp::FMin => {
            let (x, y) = (to_f32(a), to_f32(b));
            f32_bits(fmin(x, y), [x, y])
        }
        AluOp::FMax => {
            let (x, y) = (to_f32(a), to_f32(b));
            f32_bits(fmax(x, y), [x, y])
        }
        AluOp::FRcp => {
            let x = to_f32(a);
            f32_bits(1.0 / x, [x])
        }
        AluOp::FSqrt => {
            let x = to_f32(a);
            f32_bits(x.sqrt(), [x])
        }
        AluOp::FExp2 => {
            let x = to_f32(a);
            f32_bits(x.exp2(), [x])
        }
        AluOp::FLog2 => {
            let x = to_f32(a);
            f32_bits(x.log2(), [x])
        }
        AluOp::I2F => from_f32(a as f32),
        AluOp::F2I => {
            let f = to_f32(a);
            if f.is_nan() || f <= 0.0 {
                0
            } else {
                f as u64
            }
        }
    }
}

/// Evaluates a comparison on per-lane values.
#[inline(always)]
pub fn eval_cmp(cmp: CmpOp, ty: CmpTy, a: u64, b: u64) -> bool {
    match ty {
        CmpTy::U64 => cmp_ord(cmp, a.cmp(&b)),
        CmpTy::I64 => cmp_ord(cmp, (a as i64).cmp(&(b as i64))),
        CmpTy::F32 => {
            let (x, y) = (to_f32(a), to_f32(b));
            match cmp {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
    }
}

#[inline(always)]
fn cmp_ord(cmp: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match cmp {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

/// Evaluates a predicate combinator.
#[inline(always)]
pub fn eval_pbool(op: PBoolOp, a: bool, b: bool) -> bool {
    match op {
        PBoolOp::And => a && b,
        PBoolOp::Or => a || b,
        PBoolOp::Xor => a ^ b,
        PBoolOp::AndNot => a && !b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_ops() {
        assert_eq!(eval_alu(AluOp::IAdd, 3, 4, 0), 7);
        assert_eq!(eval_alu(AluOp::ISub, 3, 4, 0), u64::MAX);
        assert_eq!(eval_alu(AluOp::IMul, 5, 6, 0), 30);
        assert_eq!(eval_alu(AluOp::IMad, 5, 6, 7), 37);
        assert_eq!(eval_alu(AluOp::IMin, (-2i64) as u64, 1, 0), (-2i64) as u64);
        assert_eq!(eval_alu(AluOp::IMax, (-2i64) as u64, 1, 0), 1);
        assert_eq!(eval_alu(AluOp::Shl, 1, 4, 0), 16);
        assert_eq!(eval_alu(AluOp::ShrL, 16, 4, 0), 1);
        assert_eq!(
            eval_alu(AluOp::ShrA, (-16i64) as u64, 2, 0),
            (-4i64) as u64
        );
        assert_eq!(eval_alu(AluOp::URem, 10, 3, 0), 1);
        assert_eq!(eval_alu(AluOp::URem, 10, 0, 0), 0);
        assert_eq!(eval_alu(AluOp::UDiv, 10, 3, 0), 3);
        assert_eq!(eval_alu(AluOp::UDiv, 10, 0, 0), 0);
    }

    #[test]
    fn shift_amount_masked() {
        assert_eq!(eval_alu(AluOp::Shl, 1, 64, 0), 1); // 64 & 63 == 0
        assert_eq!(eval_alu(AluOp::ShrL, 8, 65, 0), 4);
    }

    #[test]
    fn float_ops() {
        let two = from_f32(2.0);
        let three = from_f32(3.0);
        assert_eq!(to_f32(eval_alu(AluOp::FAdd, two, three, 0)), 5.0);
        assert_eq!(to_f32(eval_alu(AluOp::FMul, two, three, 0)), 6.0);
        assert_eq!(
            to_f32(eval_alu(AluOp::FFma, two, three, from_f32(1.0))),
            7.0
        );
        assert_eq!(to_f32(eval_alu(AluOp::FRcp, two, 0, 0)), 0.5);
        assert_eq!(to_f32(eval_alu(AluOp::FSqrt, from_f32(9.0), 0, 0)), 3.0);
        assert_eq!(to_f32(eval_alu(AluOp::I2F, 5, 0, 0)), 5.0);
        assert_eq!(eval_alu(AluOp::F2I, from_f32(5.9), 0, 0), 5);
        assert_eq!(eval_alu(AluOp::F2I, from_f32(f32::NAN), 0, 0), 0);
        assert_eq!(eval_alu(AluOp::F2I, from_f32(-1.0), 0, 0), 0);
    }

    #[test]
    fn comparisons() {
        assert!(eval_cmp(CmpOp::Lt, CmpTy::U64, 1, 2));
        assert!(!eval_cmp(CmpOp::Lt, CmpTy::U64, 2, 1));
        // -1 as unsigned is huge; as signed it is less than 1.
        let neg1 = (-1i64) as u64;
        assert!(!eval_cmp(CmpOp::Lt, CmpTy::U64, neg1, 1));
        assert!(eval_cmp(CmpOp::Lt, CmpTy::I64, neg1, 1));
        assert!(eval_cmp(CmpOp::Ge, CmpTy::U64, 2, 2));
        assert!(eval_cmp(CmpOp::Ne, CmpTy::U64, 2, 3));
        assert!(eval_cmp(
            CmpOp::Lt,
            CmpTy::F32,
            from_f32(1.5),
            from_f32(2.5)
        ));
        // NaN compares false under everything except Ne.
        let nan = from_f32(f32::NAN);
        assert!(!eval_cmp(CmpOp::Eq, CmpTy::F32, nan, nan));
        assert!(eval_cmp(CmpOp::Ne, CmpTy::F32, nan, nan));
        assert!(!eval_cmp(CmpOp::Le, CmpTy::F32, nan, nan));
    }

    #[test]
    fn pbool_ops() {
        assert!(eval_pbool(PBoolOp::And, true, true));
        assert!(!eval_pbool(PBoolOp::And, true, false));
        assert!(eval_pbool(PBoolOp::Or, false, true));
        assert!(eval_pbool(PBoolOp::Xor, true, false));
        assert!(!eval_pbool(PBoolOp::Xor, true, true));
        assert!(eval_pbool(PBoolOp::AndNot, true, false));
        assert!(!eval_pbool(PBoolOp::AndNot, true, true));
    }

    #[test]
    fn nan_results_are_pinned() {
        let (n1, n2) = (0x7fc0_1234u64, 0xffc0_5678u64);
        let snan = 0x7f80_0001u64;
        let (one, inf) = (from_f32(1.0), from_f32(f32::INFINITY));
        // The first NaN operand wins, whatever the op's commutativity.
        for op in [AluOp::FAdd, AluOp::FSub, AluOp::FMul, AluOp::FFma] {
            assert_eq!(eval_alu(op, n1, n2, n2), n1, "{op:?}");
            assert_eq!(eval_alu(op, n2, n1, n1), n2, "{op:?}");
            assert_eq!(eval_alu(op, one, n2, n1), n2, "{op:?}");
            // A signalling NaN comes back quiet.
            assert_eq!(eval_alu(op, snan, one, one), 0x7fc0_0001, "{op:?}");
        }
        assert_eq!(eval_alu(AluOp::FFma, one, one, n1), n1);
        // Invalid operations on numbers give the canonical NaN.
        let neg_inf = from_f32(f32::NEG_INFINITY);
        let canonical = u64::from(CANONICAL_NAN);
        assert_eq!(eval_alu(AluOp::FAdd, inf, neg_inf, 0), canonical);
        assert_eq!(eval_alu(AluOp::FMul, inf, from_f32(0.0), 0), canonical);
        assert_eq!(eval_alu(AluOp::FSqrt, from_f32(-1.0), 0, 0), canonical);
        assert_eq!(eval_alu(AluOp::FRcp, n2, 0, 0), n2);
        // Min and max: a number beats a NaN; two NaNs give the first.
        for op in [AluOp::FMin, AluOp::FMax] {
            assert_eq!(eval_alu(op, n1, one, 0), one, "{op:?}");
            assert_eq!(eval_alu(op, one, n1, 0), one, "{op:?}");
            assert_eq!(eval_alu(op, n1, n2, 0), n1, "{op:?}");
        }
    }

    #[test]
    fn min_max_order_signed_zeros() {
        let (pz, nz) = (from_f32(0.0), from_f32(-0.0));
        for (a, b) in [(pz, nz), (nz, pz)] {
            assert_eq!(eval_alu(AluOp::FMin, a, b, 0), nz);
            assert_eq!(eval_alu(AluOp::FMax, a, b, 0), pz);
        }
        let (two, three) = (from_f32(2.0), from_f32(3.0));
        assert_eq!(eval_alu(AluOp::FMin, three, two, 0), two);
        assert_eq!(eval_alu(AluOp::FMax, two, three, 0), three);
    }

    #[test]
    fn f32_roundtrip() {
        for v in [0.0f32, -1.25, 3.5e10, f32::INFINITY] {
            assert_eq!(to_f32(from_f32(v)), v);
        }
    }
}
