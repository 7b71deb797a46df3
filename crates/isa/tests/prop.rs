//! Property-style tests for the ISA: functional semantics laws and
//! DSL well-formedness over randomly generated structured programs.
//!
//! Cases are drawn from the seeded SplitMix64 generator in
//! `gpgpu-testkit` (shared across the workspace), so the crate builds
//! with no third-party dependencies and every run checks the same cases.

use gpgpu_isa::dsl::DslKernel;
use gpgpu_isa::{sem, AluOp, CmpOp, CmpTy, Dim2, PBoolOp, Pc};
use gpgpu_testkit::Gen;

const CASES: usize = 512;

#[test]
fn iadd_commutes() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let (a, b) = (g.next_u64(), g.next_u64());
        assert_eq!(
            sem::eval_alu(AluOp::IAdd, a, b, 0),
            sem::eval_alu(AluOp::IAdd, b, a, 0)
        );
    }
}

#[test]
fn imad_is_mul_then_add() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let (a, b, c) = (g.next_u64(), g.next_u64(), g.next_u64());
        let mul = sem::eval_alu(AluOp::IMul, a, b, 0);
        let add = sem::eval_alu(AluOp::IAdd, mul, c, 0);
        assert_eq!(sem::eval_alu(AluOp::IMad, a, b, c), add);
    }
}

#[test]
fn sub_is_inverse_of_add() {
    let mut g = Gen::new(3);
    for _ in 0..CASES {
        let (a, b) = (g.next_u64(), g.next_u64());
        let s = sem::eval_alu(AluOp::IAdd, a, b, 0);
        assert_eq!(sem::eval_alu(AluOp::ISub, s, b, 0), a);
    }
}

#[test]
fn shl_then_shr_recovers_low_bits() {
    let mut g = Gen::new(4);
    for _ in 0..CASES {
        let a = g.next_u64();
        let k = g.range(0, 32);
        let x = a & 0xFFFF_FFFF;
        let shifted = sem::eval_alu(AluOp::Shl, x, k, 0);
        let back = sem::eval_alu(AluOp::ShrL, shifted, k, 0);
        // Holds whenever no bits were shifted out.
        if x.leading_zeros() as u64 >= k {
            assert_eq!(back, x);
        }
    }
}

#[test]
fn cmp_trichotomy_unsigned() {
    let mut g = Gen::new(5);
    for i in 0..CASES {
        let (a, mut b) = (g.next_u64(), g.next_u64());
        if i % 4 == 0 {
            b = a; // make sure equality is exercised
        }
        let lt = sem::eval_cmp(CmpOp::Lt, CmpTy::U64, a, b);
        let eq = sem::eval_cmp(CmpOp::Eq, CmpTy::U64, a, b);
        let gt = sem::eval_cmp(CmpOp::Gt, CmpTy::U64, a, b);
        assert_eq!(u8::from(lt) + u8::from(eq) + u8::from(gt), 1);
        assert_eq!(sem::eval_cmp(CmpOp::Le, CmpTy::U64, a, b), lt || eq);
        assert_eq!(sem::eval_cmp(CmpOp::Ge, CmpTy::U64, a, b), gt || eq);
        assert_eq!(sem::eval_cmp(CmpOp::Ne, CmpTy::U64, a, b), !eq);
    }
}

#[test]
fn cmp_signed_consistent_with_i64() {
    let mut g = Gen::new(6);
    for _ in 0..CASES {
        let (a, b) = (g.next_u64() as i64, g.next_u64() as i64);
        assert_eq!(
            sem::eval_cmp(CmpOp::Lt, CmpTy::I64, a as u64, b as u64),
            a < b
        );
    }
}

#[test]
fn pbool_against_reference() {
    for a in [false, true] {
        for b in [false, true] {
            assert_eq!(sem::eval_pbool(PBoolOp::And, a, b), a && b);
            assert_eq!(sem::eval_pbool(PBoolOp::Or, a, b), a || b);
            assert_eq!(sem::eval_pbool(PBoolOp::Xor, a, b), a ^ b);
            assert_eq!(sem::eval_pbool(PBoolOp::AndNot, a, b), a && !b);
        }
    }
}

#[test]
fn division_never_panics() {
    let mut g = Gen::new(7);
    for i in 0..CASES {
        let a = g.next_u64();
        let b = if i % 3 == 0 { 0 } else { g.next_u64() };
        let _ = sem::eval_alu(AluOp::UDiv, a, b, 0);
        let _ = sem::eval_alu(AluOp::URem, a, b, 0);
    }
}

#[test]
fn f32_ops_are_bit_stable() {
    let mut g = Gen::new(8);
    for _ in 0..CASES {
        let (a, b) = (g.f32(), g.f32());
        // Two evaluations give identical bits (determinism).
        let x = sem::eval_alu(AluOp::FAdd, sem::from_f32(a), sem::from_f32(b), 0);
        let y = sem::eval_alu(AluOp::FAdd, sem::from_f32(a), sem::from_f32(b), 0);
        assert_eq!(x, y);
    }
}

/// A recipe for a randomly shaped (but structured) program.
#[derive(Debug, Clone)]
enum Shape {
    Straight(u8),
    IfThen(u8),
    IfThenElse(u8, u8),
    Loop(u8, u8),
}

fn random_shape(g: &mut Gen) -> Shape {
    match g.next_u64() % 4 {
        0 => Shape::Straight(g.range(1, 5) as u8),
        1 => Shape::IfThen(g.range(1, 4) as u8),
        2 => Shape::IfThenElse(g.range(1, 3) as u8, g.range(1, 3) as u8),
        _ => Shape::Loop(g.range(1, 4) as u8, g.range(1, 3) as u8),
    }
}

/// Any sequence of structured control-flow shapes builds a valid
/// program whose branch targets/reconvergence PCs are in range.
#[test]
fn structured_programs_always_validate() {
    let mut g = Gen::new(9);
    for _ in 0..128 {
        let shapes: Vec<Shape> = (0..g.range(1, 6)).map(|_| random_shape(&mut g)).collect();
        let mut k = DslKernel::new("prop", Dim2::x(32));
        let x = k.movi(1u64);
        for s in &shapes {
            match s {
                Shape::Straight(n) => {
                    for _ in 0..*n {
                        k.alu_to(AluOp::IAdd, x, x, 1u64);
                    }
                }
                Shape::IfThen(n) => {
                    let p = k.setp(CmpOp::Lt, CmpTy::U64, x, 100u64);
                    let n = *n;
                    k.if_then(p, |k| {
                        for _ in 0..n {
                            k.alu_to(AluOp::IAdd, x, x, 1u64);
                        }
                    });
                }
                Shape::IfThenElse(a, b) => {
                    let p = k.setp(CmpOp::Lt, CmpTy::U64, x, 50u64);
                    let (a, b) = (*a, *b);
                    k.if_then_else(
                        p,
                        |k| {
                            for _ in 0..a {
                                k.alu_to(AluOp::IAdd, x, x, 1u64);
                            }
                        },
                        |k| {
                            for _ in 0..b {
                                k.alu_to(AluOp::ISub, x, x, 1u64);
                            }
                        },
                    );
                }
                Shape::Loop(trips, body) => {
                    let (trips, body) = (*trips, *body);
                    k.for_range(0u64, u64::from(trips), 1u64, |k, _i| {
                        for _ in 0..body {
                            k.alu_to(AluOp::IAdd, x, x, 1u64);
                        }
                    });
                }
            }
        }
        let prog = k.compile().expect("structured programs always validate");
        let len = prog.len() as Pc;
        for ins in prog.instructions() {
            match ins.op {
                gpgpu_isa::Instr::Bra { target } => assert!(target < len),
                gpgpu_isa::Instr::BraCond { target, reconv, .. } => {
                    assert!(target < len);
                    assert!(reconv < len);
                }
                _ => {}
            }
        }
        // Stats add up.
        let stats = prog.stats();
        assert_eq!(
            stats.total,
            stats.int_alu
                + stats.fp_alu
                + stats.sfu
                + stats.global_loads
                + stats.global_stores
                + stats.shared_mem
                + stats.control
                + stats.barriers
                + stats.exits
        );
    }
}
