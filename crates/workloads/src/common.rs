//! Shared infrastructure for workload definitions.

use gpgpu_sim::GlobalMem;
use std::error::Error;
use std::fmt;

/// The paper's benchmark grouping: compute-intensive kernels keep all CTA
/// slots busy; memory-intensive kernels saturate bandwidth with few CTAs;
/// cache-sensitive kernels lose locality as CTA count grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Compute-intensive (type C): LCS should keep the hardware maximum.
    Compute,
    /// Memory-intensive (type M): LCS should throttle hard.
    Memory,
    /// Cache-sensitive (type X): intermediate CTA counts win.
    Cache,
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadClass::Compute => write!(f, "C"),
            WorkloadClass::Memory => write!(f, "M"),
            WorkloadClass::Cache => write!(f, "X"),
        }
    }
}

/// Problem-size presets. `Tiny` keeps unit tests fast; `Small` is the
/// experiment-harness default (enough CTAs for several waves per core);
/// `Large` is the long-run tier for throughput measurements of a single
/// simulation; `Full` approaches paper-scale grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// A handful of CTAs — seconds of simulation for tests.
    Tiny,
    /// Hundreds of CTAs — the harness default.
    Small,
    /// Around a thousand CTAs per kernel — long enough per simulation
    /// that per-run cost dominates batch-level overheads.
    Large,
    /// Thousands of CTAs.
    Full,
}

// The PRNG seeding workload inputs now lives in `gpgpu-testkit` (shared
// with every crate's property tests); re-exported here so workload code
// and downstream users keep their import paths. The stream is identical
// to the historical in-crate copy, so seeded inputs — and therefore
// simulated cycle counts — are unchanged.
pub use gpgpu_testkit::SplitMix64;

/// A functional-verification failure.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// The workload that failed.
    pub workload: String,
    /// What mismatched.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} verification failed: {}", self.workload, self.detail)
    }
}

impl Error for VerifyError {}

/// A benchmark kernel: allocates and initializes its inputs on a device,
/// produces a launchable [`gpgpu_isa::KernelDescriptor`], and can verify the outputs
/// afterwards (the simulator executes functionally, so outputs are real).
pub trait Workload: fmt::Debug {
    /// Workload name (stable, used in reports).
    fn name(&self) -> &str;

    /// The paper-style class of this workload.
    fn class(&self) -> WorkloadClass;

    /// Allocates and initializes device memory; returns the kernel to
    /// launch. Must be called exactly once before `verify`.
    fn prepare(&mut self, gmem: &mut GlobalMem) -> gpgpu_isa::KernelDescriptor;

    /// Checks the kernel's output in `gmem`.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] describing the first mismatch.
    fn verify(&self, gmem: &GlobalMem) -> Result<(), VerifyError>;
}

/// Compares two `f32` values with a relative/absolute tolerance suited to
/// accumulated FMA chains.
pub fn f32_close(a: f32, b: f32) -> bool {
    let diff = (a - b).abs();
    diff <= 1e-3 || diff <= 1e-3 * a.abs().max(b.abs())
}

/// First mismatch between expected and actual `u32` slices, if any.
pub fn first_mismatch_u32(expect: &[u32], got: &[u32]) -> Option<(usize, u32, u32)> {
    expect
        .iter()
        .zip(got)
        .enumerate()
        .find(|(_, (e, g))| e != g)
        .map(|(i, (e, g))| (i, *e, *g))
}

/// First mismatch between expected and actual `f32` slices (tolerant), if
/// any.
pub fn first_mismatch_f32(expect: &[f32], got: &[f32]) -> Option<(usize, f32, f32)> {
    expect
        .iter()
        .zip(got)
        .enumerate()
        .find(|(_, (e, g))| !f32_close(**e, **g))
        .map(|(i, (e, g))| (i, *e, *g))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_display() {
        assert_eq!(WorkloadClass::Compute.to_string(), "C");
        assert_eq!(WorkloadClass::Memory.to_string(), "M");
        assert_eq!(WorkloadClass::Cache.to_string(), "X");
    }

    #[test]
    fn f32_tolerance() {
        assert!(f32_close(1.0, 1.0005));
        assert!(!f32_close(1.0, 1.5));
        assert!(f32_close(1e6, 1e6 + 500.0));
    }

    #[test]
    fn mismatch_detection() {
        assert_eq!(first_mismatch_u32(&[1, 2, 3], &[1, 9, 3]), Some((1, 2, 9)));
        assert_eq!(first_mismatch_u32(&[1, 2], &[1, 2]), None);
        assert!(first_mismatch_f32(&[1.0], &[2.0]).is_some());
        assert!(first_mismatch_f32(&[1.0], &[1.0001]).is_none());
    }
}
