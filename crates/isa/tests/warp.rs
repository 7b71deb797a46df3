//! The warp-wide evaluators against the scalar semantics they hoist.
//!
//! For every ALU op, every comparison at every operand type and every
//! predicate combinator, the warp form must equal a per-lane loop over the
//! scalar `eval_*` bit for bit: in the lanes of the execution mask it
//! writes the scalar result, elsewhere the destination keeps its old
//! value, also when the destination is one of the sources. Cases are drawn
//! from the seeded `gpgpu-testkit` generator.

use gpgpu_isa::sem::{self, Lanes};
use gpgpu_isa::{AluOp, CmpOp, CmpTy, Operand, PBoolOp, Reg, WARP_SIZE};
use gpgpu_testkit::Gen;

const ALU_OPS: [AluOp; 26] = {
    use AluOp::*;
    [
        IAdd, ISub, IMul, IMad, IMin, IMax, Shl, ShrL, ShrA, And, Or, Xor, URem, UDiv, FAdd, FSub,
        FMul, FFma, FMin, FMax, FRcp, FSqrt, FExp2, FLog2, I2F, F2I,
    ]
};
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const CMP_TYS: [CmpTy; 3] = [CmpTy::I64, CmpTy::U64, CmpTy::F32];
const PBOOL_OPS: [PBoolOp; 4] = [PBoolOp::And, PBoolOp::Or, PBoolOp::Xor, PBoolOp::AndNot];

/// Fails to compile when an op is added without joining the lists above.
#[allow(dead_code)]
fn lists_are_exhaustive(a: AluOp, c: CmpOp, t: CmpTy, p: PBoolOp) -> usize {
    use AluOp::*;
    let a = match a {
        IAdd | ISub | IMul | IMad | IMin | IMax | Shl | ShrL | ShrA | And | Or | Xor | URem
        | UDiv | FAdd | FSub | FMul | FFma | FMin | FMax | FRcp | FSqrt | FExp2 | FLog2 | I2F
        | F2I => 0,
    };
    let c = match c {
        CmpOp::Eq | CmpOp::Ne | CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => 0,
    };
    let t = match t {
        CmpTy::I64 | CmpTy::U64 | CmpTy::F32 => 0,
    };
    let p = match p {
        PBoolOp::And | PBoolOp::Or | PBoolOp::Xor | PBoolOp::AndNot => 0,
    };
    a + c + t + p
}

const REGS: usize = 6;
const ROUNDS: usize = 40;

/// f32 values the float ops must agree on: NaN payloads of both signs,
/// signed zeroes, infinities, subnormals and ordinary values.
const F32_EDGES: [u32; 12] = [
    0x7fc0_0000, // canonical quiet NaN
    0xffc0_0001, // negative quiet NaN with a payload
    0x7f80_0001, // signalling NaN
    0x7fbf_ffff, // signalling NaN, full payload
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x3f80_0000, // 1.0
    0xc0a0_0000, // -5.0
];

/// One lane value: integer edge cases, shift amounts at and past 64, zero
/// divisors, f32 bit patterns (with and without high garbage) and raw
/// draws.
fn lane_value(g: &mut Gen) -> u64 {
    match g.range(0, 11) {
        0 => 0,
        1 => *g.choose(&[1, u64::MAX, i64::MIN as u64, i64::MAX as u64]),
        2 => g.range(0, 130), // shift amounts, including >= 64
        3 | 4 => u64::from(*g.choose(&F32_EDGES)),
        5 => u64::from(g.f32().to_bits()),
        6 => u64::from(g.f32().to_bits()) | g.next_u64() << 32,
        7 => g.range(0, 8),
        _ => g.next_u64(),
    }
}

fn mask(g: &mut Gen) -> u32 {
    match g.range(0, 6) {
        0 => 0,
        1 => u32::MAX,
        2 => 1 << g.range(0, 32),
        _ => g.next_u32(),
    }
}

fn regs(g: &mut Gen) -> Vec<Lanes> {
    (0..REGS)
        .map(|_| std::array::from_fn(|_| lane_value(g)))
        .collect()
}

fn operand(g: &mut Gen) -> Operand {
    if g.chance(1, 4) {
        Operand::Imm(lane_value(g))
    } else {
        Operand::Reg(Reg(g.range(0, REGS as u64) as u8))
    }
}

fn read(regs: &[Lanes], o: Operand, lane: usize) -> u64 {
    match o {
        Operand::Reg(r) => regs[r.0 as usize][lane],
        Operand::Imm(v) => v,
    }
}

/// A destination that is, half the time, one of `srcs`' registers.
fn dst(g: &mut Gen, srcs: &[Operand]) -> Reg {
    let aliased: Vec<Reg> = srcs
        .iter()
        .filter_map(|o| match o {
            Operand::Reg(r) => Some(*r),
            Operand::Imm(_) => None,
        })
        .collect();
    if !aliased.is_empty() && g.chance(1, 2) {
        *g.choose(&aliased)
    } else {
        Reg(g.range(0, REGS as u64) as u8)
    }
}

#[test]
fn alu_warp_matches_scalar_per_lane() {
    let mut g = Gen::new(0x5eed_a1);
    for op in ALU_OPS {
        for _ in 0..ROUNDS {
            let before = regs(&mut g);
            let srcs = [operand(&mut g), operand(&mut g), operand(&mut g)];
            let (d, m) = (dst(&mut g, &srcs), mask(&mut g));
            let mut want = before.clone();
            for lane in (0..WARP_SIZE).filter(|l| m >> l & 1 != 0) {
                let [a, b, c] = srcs.map(|o| read(&before, o, lane));
                want[d.0 as usize][lane] = sem::eval_alu(op, a, b, c);
            }
            let mut got = before.clone();
            sem::alu_warp(op, &mut got, d, srcs, m);
            assert_eq!(got, want, "{op:?} {srcs:?} -> {d} mask {m:#010x}");
        }
    }
}

#[test]
fn setp_warp_matches_scalar_per_lane() {
    let mut g = Gen::new(0x5eed_c3);
    for ty in CMP_TYS {
        for cmp in CMP_OPS {
            for _ in 0..ROUNDS {
                let before = regs(&mut g);
                let srcs = [operand(&mut g), operand(&mut g)];
                let (old, m) = (g.next_u32(), mask(&mut g));
                let mut want = old;
                for lane in (0..WARP_SIZE).filter(|l| m >> l & 1 != 0) {
                    let hit = sem::eval_cmp(
                        cmp,
                        ty,
                        read(&before, srcs[0], lane),
                        read(&before, srcs[1], lane),
                    );
                    want = want & !(1 << lane) | u32::from(hit) << lane;
                }
                let got = sem::setp_warp(cmp, ty, &before, srcs, old, m);
                assert_eq!(got, want, "{cmp:?} {ty:?} {srcs:?} mask {m:#010x}");
            }
        }
    }
}

#[test]
fn pbool_warp_matches_scalar_per_lane() {
    let mut g = Gen::new(0x5eed_b0);
    for op in PBOOL_OPS {
        for _ in 0..ROUNDS {
            let (a, b, old, m) = (g.next_u32(), g.next_u32(), g.next_u32(), mask(&mut g));
            // The destination aliases a source: the same word is `a` and `old`.
            let old = if g.chance(1, 2) { a } else { old };
            let mut want = old;
            for lane in (0..WARP_SIZE).filter(|l| m >> l & 1 != 0) {
                let hit = sem::eval_pbool(op, a >> lane & 1 != 0, b >> lane & 1 != 0);
                want = want & !(1 << lane) | u32::from(hit) << lane;
            }
            assert_eq!(
                sem::pbool_warp(op, a, b, old, m),
                want,
                "{op:?} mask {m:#010x}"
            );
        }
    }
}

#[test]
fn sel_and_mov_warp_match_per_lane() {
    let mut g = Gen::new(0x5eed_5e);
    for _ in 0..ROUNDS * 8 {
        let before = regs(&mut g);
        let srcs = [operand(&mut g), operand(&mut g)];
        let (d, m, pred) = (dst(&mut g, &srcs), mask(&mut g), g.next_u32());
        let mut want = before.clone();
        for lane in (0..WARP_SIZE).filter(|l| m >> l & 1 != 0) {
            let pick = if pred >> lane & 1 != 0 {
                srcs[0]
            } else {
                srcs[1]
            };
            want[d.0 as usize][lane] = read(&before, pick, lane);
        }
        let mut got = before.clone();
        sem::sel_warp(&mut got, d, pred, srcs, m);
        assert_eq!(got, want, "sel {srcs:?} -> {d} mask {m:#010x}");

        let mut want = before.clone();
        for lane in (0..WARP_SIZE).filter(|l| m >> l & 1 != 0) {
            want[d.0 as usize][lane] = read(&before, srcs[0], lane);
        }
        let mut got = before.clone();
        sem::mov_warp(&mut got, d, srcs[0], m);
        assert_eq!(got, want, "mov {:?} -> {d} mask {m:#010x}", srcs[0]);
    }
}

#[test]
fn warp_forms_skip_inactive_lanes_entirely() {
    // A zero mask leaves every destination as it was, whatever the op.
    let mut g = Gen::new(0x5eed_00);
    let before = regs(&mut g);
    for op in ALU_OPS {
        let mut got = before.clone();
        sem::alu_warp(
            op,
            &mut got,
            Reg(0),
            [Operand::Reg(Reg(1)), Operand::Imm(0), Operand::Reg(Reg(0))],
            0,
        );
        assert_eq!(got, before, "{op:?}");
    }
    for (ty, cmp) in CMP_TYS.iter().flat_map(|t| CMP_OPS.map(|c| (*t, c))) {
        let srcs = [Operand::Reg(Reg(2)), Operand::Reg(Reg(3))];
        assert_eq!(
            sem::setp_warp(cmp, ty, &before, srcs, 0xdead_beef, 0),
            0xdead_beef
        );
    }
}
