//! Parameterized generated-workload families, addressed by name.
//!
//! A family name is a compact spec string:
//!
//! ```text
//! gen:<family>/<knob>=<value>,<knob>=<value>,...
//! ```
//!
//! e.g. `gen:stream/stride=33,ffma=16` or `gen:rand/seed=7,segs=9`. The
//! string is the workload's *name*, so it flows through `RunSpec` content
//! keys unchanged — generated runs dedup, persist in the result store,
//! and record/replay exactly like suite members. Parsing is
//! strict (unknown families or knobs, malformed pairs, and out-of-range
//! values all reject) so a spec either names one deterministic workload
//! or nothing.
//!
//! Four families cover the axes the scheduling experiments sweep:
//!
//! | family    | knobs                  | axis                               |
//! |-----------|------------------------|------------------------------------|
//! | `stream`  | `stride`, `ffma`       | coalescing, compute intensity      |
//! | `tile`    | `reuse`, `stride`, `pad` | reuse distance, smem pressure    |
//! | `diverge` | `frac`, `work`         | divergence fraction, imbalance     |
//! | `rand`    | `seed`, `segs`         | randomized control flow (fuzzing)  |
//!
//! Every family is a [`DslKernel`], so `verify` re-executes the statement
//! tree on the CPU mirror and compares the output region word-for-word —
//! the functional oracle is part of the workload.

use crate::common::{Scale, SplitMix64, VerifyError, Workload, WorkloadClass};
use gpgpu_isa::dsl::{gen_kernel, DslKernel, GenCfg, MirrorMem};
use gpgpu_isa::{AluOp, CmpOp, CmpTy, Dim2, KernelDescriptor, SpecialReg};
use gpgpu_sim::GlobalMem;
use std::sync::Arc;

const BLOCK: u32 = 256;

/// Which parameterized family a spec names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Strided streaming pass with an FFMA chain per element.
    Stream,
    /// Shared-memory tile with configurable reuse and smem padding.
    Tile,
    /// Controlled-divergence kernel: a fraction of each 16-thread band
    /// takes a heavy loop path.
    Diverge,
    /// A seeded random kernel from [`gen_kernel`].
    Rand,
}

/// A parsed family spec: family plus resolved knob values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySpec {
    /// The family.
    pub family: Family,
    /// Element stride (`stream`, `tile`).
    pub stride: u64,
    /// FFMA chain length (`stream`).
    pub ffma: u64,
    /// Tile re-read iterations (`tile`).
    pub reuse: u64,
    /// Shared-memory padding multiplier (`tile`): occupancy pressure.
    pub pad: u64,
    /// Sixteenths of each thread band taking the heavy path (`diverge`).
    pub frac: u64,
    /// Heavy-path loop trips (`diverge`).
    pub work: u64,
    /// Generator seed (`rand`).
    pub seed: u64,
    /// Generator segment count (`rand`).
    pub segs: u64,
}

impl FamilySpec {
    fn defaults(family: Family) -> Self {
        FamilySpec {
            family,
            stride: 1,
            ffma: 0,
            reuse: 8,
            pad: 1,
            frac: 8,
            work: 16,
            seed: 1,
            segs: 6,
        }
    }

    /// Parses `gen:<family>/<k=v,...>`. Returns `None` on any unknown
    /// family, unknown or duplicated knob, malformed pair, or
    /// out-of-range value.
    pub fn parse(name: &str) -> Option<FamilySpec> {
        let rest = name.strip_prefix("gen:")?;
        let (fam, knobs) = match rest.split_once('/') {
            Some((f, k)) => (f, k),
            None => (rest, ""),
        };
        let family = match fam {
            "stream" => Family::Stream,
            "tile" => Family::Tile,
            "diverge" => Family::Diverge,
            "rand" => Family::Rand,
            _ => return None,
        };
        let mut spec = FamilySpec::defaults(family);
        let mut seen: Vec<&str> = Vec::new();
        for pair in knobs.split(',').filter(|p| !p.is_empty()) {
            let (key, val) = pair.split_once('=')?;
            if seen.contains(&key) {
                return None;
            }
            seen.push(key);
            let v: u64 = val.parse().ok()?;
            let allowed: &[&str] = match family {
                Family::Stream => &["stride", "ffma"],
                Family::Tile => &["reuse", "stride", "pad"],
                Family::Diverge => &["frac", "work"],
                Family::Rand => &["seed", "segs"],
            };
            if !allowed.contains(&key) {
                return None;
            }
            match key {
                "stride" if v >= 1 => spec.stride = v,
                "ffma" if v <= 256 => spec.ffma = v,
                "reuse" if v <= 1024 => spec.reuse = v,
                "pad" if (1..=32).contains(&v) => spec.pad = v,
                "frac" if v <= 16 => spec.frac = v,
                "work" if v <= 1024 => spec.work = v,
                "seed" => spec.seed = v,
                "segs" if v <= 16 => spec.segs = v,
                _ => return None,
            }
        }
        Some(spec)
    }
}

/// FNV-1a of the spec string: a stable input-data seed so each spec gets
/// distinct-but-reproducible contents.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the family's kernel. Returns the kernel and its shared-memory
/// bytes per CTA.
fn build_family(spec: &FamilySpec) -> (DslKernel, u64) {
    match spec.family {
        Family::Stream => {
            // out[i] = chain(in[(i*stride) % n]); strided input access
            // shreds coalescing, the FFMA chain dials compute intensity.
            let mut d = DslKernel::new("gen-stream", Dim2::x(BLOCK));
            let pin = d.param(0);
            let pout = d.param(1);
            let pn = d.param(2);
            let gid = d.global_tid_x();
            let scaled = d.imul(gid, spec.stride);
            let idx = d.urem(scaled, pn);
            let soff = d.shl(idx, 2u64);
            let ein = d.iadd(pin, soff);
            let v = d.ld_global_u32(ein, 0);
            let acc = d.movi(1.0f32);
            d.ffma_chain(acc, v, spec.ffma as usize);
            d.alu_to(AluOp::Xor, acc, acc, v);
            let doff = d.shl(gid, 2u64);
            let eout = d.iadd(pout, doff);
            d.st_global_u32(acc, eout, 0);
            (d, 0)
        }
        Family::Tile => {
            // Stage one word per thread into shared memory, then re-read
            // the tile `reuse` times at `stride` distance. `pad` inflates
            // the declared smem footprint without touching behavior —
            // pure occupancy pressure, the paper's central lever.
            let mut d = DslKernel::new("gen-tile", Dim2::x(BLOCK));
            let pin = d.param(0);
            let pout = d.param(1);
            let gid = d.global_tid_x();
            let lid = d.special(SpecialReg::TidX);
            let off = d.shl(gid, 2u64);
            let ein = d.iadd(pin, off);
            let v = d.ld_global_u32(ein, 0);
            let saddr = d.shl(lid, 2u64);
            d.st_shared_u32(v, saddr, 0);
            d.bar();
            let acc = d.movi(0u64);
            d.for_range(0u64, spec.reuse, 1u64, |d, j| {
                let t = d.imad(j, spec.stride, lid);
                let m = d.and(t, u64::from(BLOCK - 1));
                let a4 = d.shl(m, 2u64);
                let sv = d.ld_shared_u32(a4, 0);
                d.alu_to(AluOp::IAdd, acc, acc, sv);
            });
            d.bar();
            let eout = d.iadd(pout, off);
            d.st_global_u32(acc, eout, 0);
            (d, u64::from(BLOCK) * 4 * spec.pad)
        }
        Family::Diverge => {
            // frac/16 of each 16-thread band loops `work` times; the rest
            // take a single cheap op. Intra-warp divergence plus
            // inter-warp progress imbalance.
            let mut d = DslKernel::new("gen-diverge", Dim2::x(BLOCK));
            let pin = d.param(0);
            let pout = d.param(1);
            let gid = d.global_tid_x();
            let off = d.shl(gid, 2u64);
            let ein = d.iadd(pin, off);
            let v = d.ld_global_u32(ein, 0);
            let acc = d.movi(0u64);
            d.alu_to(AluOp::IAdd, acc, acc, v);
            let band = d.and(gid, 15u64);
            let p = d.setp(CmpOp::Lt, CmpTy::U64, band, spec.frac);
            d.if_then_else(
                p,
                |d| {
                    d.for_range(0u64, spec.work, 1u64, |d, j| {
                        d.alu_to(AluOp::IMul, acc, acc, 0x9E37_79B9u64);
                        d.alu_to(AluOp::IAdd, acc, acc, j);
                    });
                },
                |d| d.alu_to(AluOp::Xor, acc, acc, 0x5555_5555u64),
            );
            let eout = d.iadd(pout, off);
            d.st_global_u32(acc, eout, 0);
            (d, 0)
        }
        Family::Rand => {
            let cfg = GenCfg {
                block: Dim2::x(BLOCK),
                segments: spec.segs as usize,
                smem: true,
                divergence: true,
                loops: true,
            };
            let gk = gen_kernel(&mut gpgpu_testkit::Gen::new(spec.seed), &cfg);
            (gk.kernel, gk.smem_bytes)
        }
    }
}

/// A generated workload: a [`FamilySpec`] instantiated at a [`Scale`],
/// verified by the DSL's CPU mirror.
#[derive(Debug)]
pub struct GenWorkload {
    name: String,
    spec: FamilySpec,
    n: u32,
    built: Option<BuiltGen>,
}

#[derive(Debug)]
struct BuiltGen {
    kernel: DslKernel,
    grid: Dim2,
    params: Vec<u64>,
    in_base: u64,
    out_base: u64,
}

impl GenWorkload {
    /// Parses a `gen:` spec string into a workload at the given scale.
    /// Returns `None` if the string is not a valid spec.
    pub fn from_name(name: &str, scale: Scale) -> Option<GenWorkload> {
        let spec = FamilySpec::parse(name)?;
        // One word in, one word out per thread; multiples of the block so
        // every output slot is written (the mirror comparison relies on
        // full coverage).
        let n = match scale {
            Scale::Tiny => 16 * 1024,
            Scale::Small => 192 * 1024,
            Scale::Large => 512 * 1024,
            Scale::Full => 1024 * 1024,
        };
        Some(GenWorkload { name: name.to_string(), spec, n, built: None })
    }

    /// The parsed spec.
    pub fn spec(&self) -> &FamilySpec {
        &self.spec
    }
}

impl Workload for GenWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> WorkloadClass {
        match self.spec.family {
            Family::Stream => WorkloadClass::Memory,
            Family::Tile => WorkloadClass::Cache,
            Family::Diverge | Family::Rand => WorkloadClass::Compute,
        }
    }

    fn prepare(&mut self, gmem: &mut GlobalMem) -> KernelDescriptor {
        let n = self.n;
        let in_base = gmem.alloc(u64::from(n) * 4);
        let out_base = gmem.alloc(u64::from(n) * 4);
        let mut rng = SplitMix64::new(fnv1a(&self.name));
        let iv: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
        gmem.write_u32_slice(in_base, &iv);

        let (kernel, smem) = build_family(&self.spec);
        let prog = Arc::new(kernel.compile().expect("family kernels are well-formed"));
        let grid = Dim2::x(n / BLOCK);
        let params = vec![in_base, out_base, u64::from(n)];
        self.built = Some(BuiltGen {
            kernel,
            grid,
            params: params.clone(),
            in_base,
            out_base,
        });
        KernelDescriptor::builder(prog, grid, Dim2::x(BLOCK))
            .smem_per_cta(smem as u32)
            .params(params)
            .build()
            .expect("valid launch")
    }

    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError> {
        let b = self.built.as_ref().expect("prepare() ran");
        let mut mm = MirrorMem::new();
        mm.write_u32_slice(b.in_base, &gmem.read_u32_vec(b.in_base, self.n as usize));
        b.kernel
            .mirror(b.grid, &b.params, &mut mm)
            .map_err(|e| VerifyError {
                workload: self.name.clone(),
                detail: format!("mirror failed: {e}"),
            })?;
        let got = gmem.read_u32_vec(b.out_base, self.n as usize);
        let expect = mm.read_u32_vec(b.out_base, self.n as usize);
        match expect.iter().zip(&got).position(|(e, g)| e != g) {
            None => Ok(()),
            Some(i) => Err(VerifyError {
                workload: self.name.clone(),
                detail: format!(
                    "out[{i}] = {:#x}, mirror expected {:#x}",
                    got[i], expect[i]
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_workload;
    use gpgpu_sim::GpuConfig;
    use tbs_core::{CtaPolicy, WarpPolicy};

    #[test]
    fn parse_accepts_valid_specs() {
        let s = FamilySpec::parse("gen:stream/stride=33,ffma=16").unwrap();
        assert_eq!(s.family, Family::Stream);
        assert_eq!((s.stride, s.ffma), (33, 16));

        let s = FamilySpec::parse("gen:tile/reuse=64,pad=4").unwrap();
        assert_eq!(s.family, Family::Tile);
        assert_eq!((s.reuse, s.pad, s.stride), (64, 4, 1));

        // Bare family name takes all defaults.
        let s = FamilySpec::parse("gen:diverge").unwrap();
        assert_eq!((s.frac, s.work), (8, 16));

        assert!(FamilySpec::parse("gen:rand/seed=42,segs=9").is_some());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "vecadd",                    // no gen: prefix
            "gen:unknown",               // unknown family
            "gen:stream/bogus=1",        // unknown knob
            "gen:stream/reuse=4",        // knob from another family
            "gen:stream/stride=0",       // out of range
            "gen:tile/pad=33",           // out of range
            "gen:diverge/frac=17",       // out of range
            "gen:stream/stride",         // no value
            "gen:stream/stride=x",       // not a number
            "gen:stream/stride=1,stride=2", // duplicate
        ] {
            assert!(FamilySpec::parse(bad).is_none(), "{bad} should reject");
        }
    }

    fn run_one(name: &str) {
        let mut w = GenWorkload::from_name(name, Scale::Tiny).expect("valid spec");
        // Tiny is still large for a debug-build unit test; shrink.
        w.n = 2048;
        let factory = WarpPolicy::Gto.factory();
        run_workload(
            &mut w,
            GpuConfig::test_small(),
            factory.as_ref(),
            CtaPolicy::Baseline(None).scheduler(),
            50_000_000,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    /// Every family runs on the simulator and passes the CPU-mirror
    /// functional oracle (verify is mirror-based).
    #[test]
    fn families_pass_mirror_oracle_on_device() {
        for name in [
            "gen:stream/stride=33,ffma=8",
            "gen:tile/reuse=16,stride=3,pad=4",
            "gen:diverge/frac=5,work=24",
            "gen:rand/seed=7,segs=8",
        ] {
            run_one(name);
        }
    }

    #[test]
    fn same_spec_same_kernel_and_inputs() {
        let mk = |name: &str| {
            let mut w = GenWorkload::from_name(name, Scale::Tiny).unwrap();
            let mut g = GlobalMem::new();
            let d = w.prepare(&mut g);
            (d.program().as_ref().clone(), g.content_hash())
        };
        let (p1, h1) = mk("gen:rand/seed=42,segs=9");
        let (p2, h2) = mk("gen:rand/seed=42,segs=9");
        assert_eq!(p1, p2);
        assert_eq!(h1, h2);
        let (p3, _) = mk("gen:rand/seed=43,segs=9");
        assert_ne!(p1, p3);
    }
}
