//! Facade crate for the HPCA'14 reproduction "Improving GPGPU resource
//! utilization through alternative thread block scheduling".
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can `use gpgpu_repro::...`:
//!
//! * [`isa`] — the SIMT mini-ISA and the kernel DSL.
//! * [`mem`] — caches, interconnect, and DRAM substrate.
//! * [`sim`] — the cycle-level GPU simulator.
//! * [`tbs`] — the paper's contribution: LCS, BCS + BAWS, mixed CKE, and
//!   baseline schedulers.
//! * [`workloads`] — the synthetic benchmark suite.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or run:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gpgpu_isa as isa;
pub use gpgpu_mem as mem;
pub use gpgpu_sim as sim;
pub use gpgpu_workloads as workloads;
pub use tbs_core as tbs;
