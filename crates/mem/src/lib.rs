//! Memory-hierarchy substrate for the HPCA'14 thread-block-scheduling
//! reproduction.
//!
//! The paper's mechanisms exploit contention and locality effects in the GPU
//! memory system: LCS throttles CTAs because caches/MSHRs/DRAM saturate, and
//! BCS pairs consecutive CTAs because their accesses share cache lines and
//! DRAM rows. This crate provides those effects:
//!
//! * [`Cache`] — set-associative cache with LRU replacement, MSHRs with
//!   merging, finite miss queues, and both write-through/no-allocate (L1)
//!   and write-back/write-allocate (L2) policies.
//! * [`Crossbar`] — a port-serialized crossbar with fixed latency and
//!   per-port bandwidth, connecting cores to memory partitions.
//! * [`DramChannel`] — a banked GDDR-like channel with open rows and
//!   FR-FCFS arbitration.
//! * [`MemFabric`] — the composition: per-partition L2 slice + DRAM channel
//!   behind a crossbar, with line-interleaved address slicing. This is what
//!   the simulator's cores talk to.
//! * [`counters`](mod@counters) — the counter registry: [`CacheStats`],
//!   [`DramStats`] and [`XbarStats`] are each declared once as a table of
//!   rows, which the store codec and the interval sampler walk instead of
//!   naming fields (the simulator's per-core counters use the same
//!   machinery).
//! * [`config`](mod@config) — the config tables: [`CacheConfig`],
//!   [`DramConfig`] and [`FabricConfig`] are each declared once as a table
//!   of knobs with their docs and valid ranges, which `check`, the store
//!   codec and the E1 table walk (the simulator's `GpuConfig` too).
//!
//! Everything is cycle-driven and deterministic: the caller advances time by
//! calling `tick(now)` once per core cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod counters;
pub mod dram;
pub mod fabric;
pub mod req;
pub mod xbar;

pub use cache::{
    Access, Cache, CacheConfig, CacheStats, FillOutcome, ReservationFailure, CACHE_COUNTERS,
    CACHE_KNOBS,
};
pub use config::{Config, Knob, Value};
pub use counters::{ratio, Counter, Sample};
pub use dram::{DramChannel, DramConfig, DramStats, DRAM_COUNTERS, DRAM_KNOBS};
pub use fabric::{FabricConfig, FabricStats, MemFabric, FABRIC_KNOBS};
pub use req::{AccessKind, Cycle, MemRequest, MemResponse, ReqId};
pub use xbar::{Crossbar, XbarConfig, XbarStats, XBAR_COUNTERS};
