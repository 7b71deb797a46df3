//! Synthetic GPGPU workload suite for the HPCA'14 thread-block-scheduling
//! reproduction.
//!
//! The paper evaluates on Rodinia/Parboil/CUDA-SDK binaries, grouped into
//! compute-intensive (C), memory-intensive (M), and cache-sensitive (X)
//! kernels. Those binaries cannot run on a from-scratch simulator, so this
//! crate provides kernels written in the `gpgpu-isa` kernel DSL
//! ([`DslKernel`](gpgpu_isa::dsl::DslKernel)) reproducing each group's
//! access pattern — and because the simulator executes functionally, every
//! workload *verifies its own output* against a hand-written CPU reference.
//!
//! See [`suite`] for the full list and [`runner`] for one-call execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
pub mod compute;
pub mod dense;
pub mod families;
pub mod irregular;
pub mod reduce;
pub mod runner;
pub mod stencil;
pub mod streaming;

pub use common::{
    f32_close, first_mismatch_f32, first_mismatch_u32, Scale, SplitMix64, VerifyError, Workload,
    WorkloadClass,
};
pub use runner::{
    run_launches, run_workload, RunError, RunMode, RunOptions, RunOutcome, DEFAULT_MAX_CYCLES,
};

use compute::{FmaHeavy, KMeansDist};
use dense::{MatMulNaive, MatMulTiled, Transpose};
use irregular::{RandomGather, SpmvEll};
use reduce::{DotProduct, Reduction};
use stencil::{Hotspot, Stencil2d};
use streaming::{Saxpy, StridedCopy, VecAdd};

/// The full 14-kernel suite at the given scale, in a stable order.
pub fn suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    let (s, m, l) = match scale {
        // (streaming n, matrix dim, per-thread-grid n)
        Scale::Tiny => (16 * 1024, 64, 8 * 1024),
        Scale::Small => (192 * 1024, 192, 96 * 1024),
        Scale::Large => (512 * 1024, 384, 256 * 1024),
        Scale::Full => (1024 * 1024, 512, 512 * 1024),
    };
    vec![
        Box::new(VecAdd::new(s)),
        Box::new(Saxpy::new(s)),
        Box::new(StridedCopy::new(s / 2, 33)),
        Box::new(FmaHeavy::new(l, 96)),
        Box::new(KMeansDist::new(l, 24)),
        Box::new(MatMulTiled::new(m)),
        Box::new(MatMulNaive::new(m)),
        Box::new(Transpose::new(m * 2)),
        Box::new(Stencil2d::new(m * 2)),
        Box::new(Hotspot::new(m)),
        Box::new(Reduction::new(s)),
        Box::new(DotProduct::new(s / 2)),
        Box::new(SpmvEll::new(l, 16)),
        Box::new(RandomGather::new(l / 2, 8)),
    ]
}

/// Constructs one workload by name at the given scale: a suite member, or — for `gen:`-prefixed names — a generated family
/// member (see [`families`]). Because generated workloads are addressed
/// purely by name, they flow through run-spec content keys, the result
/// store, and record/replay exactly like suite members.
pub fn by_name(name: &str, scale: Scale) -> Option<Box<dyn Workload>> {
    if name.starts_with("gen:") {
        return families::GenWorkload::from_name(name, scale)
            .map(|w| Box::new(w) as Box<dyn Workload>);
    }
    suite(scale).into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fourteen_distinct_workloads() {
        let s = suite(Scale::Tiny);
        assert_eq!(s.len(), 14);
        let mut names: Vec<&str> = s.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14, "names must be unique");
    }

    #[test]
    fn suite_covers_all_classes() {
        let s = suite(Scale::Tiny);
        for class in [
            WorkloadClass::Compute,
            WorkloadClass::Memory,
            WorkloadClass::Cache,
        ] {
            assert!(
                s.iter().filter(|w| w.class() == class).count() >= 2,
                "need at least two workloads of class {class}"
            );
        }
    }

    #[test]
    fn by_name_finds_members() {
        assert!(by_name("vecadd", Scale::Tiny).is_some());
        assert!(by_name("matmul-tiled", Scale::Tiny).is_some());
        assert!(by_name("nonexistent", Scale::Tiny).is_none());
    }

    #[test]
    fn by_name_resolves_generated_families() {
        let w = by_name("gen:stream/stride=33,ffma=16", Scale::Tiny).expect("valid spec");
        assert_eq!(w.name(), "gen:stream/stride=33,ffma=16");
        assert!(by_name("gen:rand/seed=7", Scale::Tiny).is_some());
        assert!(by_name("gen:unknown", Scale::Tiny).is_none());
        assert!(by_name("gen:stream/bogus=1", Scale::Tiny).is_none());
    }
}
