//! Host cost per call of the memory layers, measured outside the device:
//! a run's captured global-memory address stream is replayed standalone
//! through `coalesce`, one L1 `Cache` per core and a `MemFabric`.
//!
//! The replay is a probe, not a timing model: it only drives the public
//! calls with a realistic address stream so their per-call cost can be
//! multiplied by the device's exact operation counts.

use gpgpu_isa::{Instr, MemSpace, Program, WARP_SIZE};
use gpgpu_mem::cache::DownstreamKind;
use gpgpu_mem::{AccessKind, Cache, MemFabric, MemRequest, ReqId};
use gpgpu_sim::coalesce::coalesce;
use gpgpu_sim::{ExecRecord, GpuConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Warp-level global accesses replayed per run at most: enough for the
/// per-call costs to settle, few enough to keep the traced run short.
pub const MAX_ACCESSES: usize = 20_000;

/// Accumulated call counts and host nanoseconds of the probe.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct MemCost {
    /// Warp-level accesses coalesced.
    pub accesses: u64,
    /// Nanoseconds inside `coalesce`.
    pub coalesce_ns: u64,
    /// L1 access attempts (accepted or rejected).
    pub l1_accesses: u64,
    /// Nanoseconds inside L1 calls (accesses, downstream pops, fills).
    pub l1_ns: u64,
    /// Requests the fabric accepted.
    pub fabric_requests: u64,
    /// Nanoseconds inside fabric calls (submits, ticks, response pops).
    pub fabric_ns: u64,
}

impl MemCost {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &MemCost) {
        self.accesses += other.accesses;
        self.coalesce_ns += other.coalesce_ns;
        self.l1_accesses += other.l1_accesses;
        self.l1_ns += other.l1_ns;
        self.fabric_requests += other.fabric_requests;
        self.fabric_ns += other.fabric_ns;
    }
}

struct GlobalAccess<'a> {
    core: usize,
    store: bool,
    width: u64,
    mask: u32,
    addrs: &'a [u64; WARP_SIZE],
}

/// The global-memory instruction at `pc`: `Some(is_store, width)`.
fn global_op(program: &Program, pc: u32) -> Option<(bool, u64)> {
    match program.fetch(pc).op {
        Instr::Ld {
            space: MemSpace::Global,
            width,
            ..
        } => Some((false, width.bytes())),
        Instr::St {
            space: MemSpace::Global,
            width,
            ..
        } => Some((true, width.bytes())),
        _ => None,
    }
}

/// Global-memory warp instructions the record issued: exactly the
/// device's `coalesce` calls for the run. `programs` is indexed by
/// launch order, like the record's kernels.
pub fn global_accesses(record: &ExecRecord, programs: &[Arc<Program>]) -> u64 {
    let mut n = 0;
    for (k, kr) in record.kernels.iter().enumerate() {
        for w in kr.ctas.iter().flat_map(|c| &c.warps) {
            n += w
                .steps
                .iter()
                .filter(|s| global_op(&programs[k], s.pc).is_some())
                .count() as u64;
        }
    }
    n
}

/// Gathers up to [`MAX_ACCESSES`] global accesses in an order that
/// approximates concurrent execution: CTAs are dealt to cores round-robin
/// and taken a device-full window at a time, and within a window every
/// warp advances one memory step per round.
fn gather<'a>(
    record: &'a ExecRecord,
    programs: &[Arc<Program>],
    cfg: &GpuConfig,
) -> Vec<GlobalAccess<'a>> {
    let window = cfg.num_cores * cfg.max_ctas_per_core as usize;
    let mut out = Vec::new();
    for (k, kr) in record.kernels.iter().enumerate() {
        for (w0, chunk) in kr.ctas.chunks(window).enumerate() {
            let warps: Vec<_> = chunk
                .iter()
                .enumerate()
                .flat_map(|(i, c)| {
                    c.warps
                        .iter()
                        .map(move |w| ((w0 * window + i) % cfg.num_cores, w))
                })
                .collect();
            let rounds = warps.iter().map(|(_, w)| w.steps.len()).max().unwrap_or(0);
            for step in 0..rounds {
                for &(core, w) in &warps {
                    let Some(s) = w.steps.get(step) else { continue };
                    let (Some((store, width)), Some(addrs)) =
                        (global_op(&programs[k], s.pc), w.addrs_of(s))
                    else {
                        continue;
                    };
                    out.push(GlobalAccess {
                        core,
                        store,
                        width,
                        mask: s.exec_mask,
                        addrs,
                    });
                    if out.len() == MAX_ACCESSES {
                        return out;
                    }
                }
            }
        }
    }
    out
}

/// Replays `record`'s global accesses standalone and returns the calls
/// made and the host time spent in each layer.
pub fn probe(record: &ExecRecord, programs: &[Arc<Program>], cfg: &GpuConfig) -> MemCost {
    let accesses = gather(record, programs, cfg);
    let line_bytes = u64::from(cfg.l1.line_bytes);
    let mut cost = MemCost {
        accesses: accesses.len() as u64,
        ..MemCost::default()
    };

    let t = Instant::now();
    for a in &accesses {
        black_box(coalesce(black_box(a.addrs), a.mask, a.width, line_bytes));
    }
    cost.coalesce_ns = t.elapsed().as_nanos() as u64;
    let mut queues: Vec<VecDeque<(u64, bool)>> = vec![VecDeque::new(); cfg.num_cores];
    for a in &accesses {
        for &line in &coalesce(a.addrs, a.mask, a.width, line_bytes) {
            queues[a.core].push_back((line, a.store));
        }
    }

    let mut l1: Vec<Cache> = (0..cfg.num_cores)
        .map(|_| Cache::new(cfg.l1.clone()))
        .collect();
    let mut fabric = MemFabric::new(cfg.fabric.clone());
    let mut staged = vec![None; cfg.num_cores];
    let mut responses = Vec::new();
    let mut next_id = 0u64;
    let mut now = 0;
    loop {
        // One L1 port per core: the head transaction of each queue.
        let t = Instant::now();
        for (c, q) in queues.iter_mut().enumerate() {
            let Some(&(line, store)) = q.front() else {
                continue;
            };
            let (kind, id) = if store {
                (AccessKind::Store, None)
            } else {
                next_id += 1;
                (AccessKind::Load, Some(ReqId(next_id)))
            };
            cost.l1_accesses += 1;
            if l1[c].access(line, kind, id, now).accepted() {
                q.pop_front();
            }
        }
        for (c, s) in staged.iter_mut().enumerate() {
            if s.is_none() {
                *s = l1[c].pop_downstream();
            }
        }
        cost.l1_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        for (c, s) in staged.iter_mut().enumerate() {
            let Some(d) = *s else { continue };
            let (kind, size) = match d.kind {
                DownstreamKind::Fetch => (AccessKind::Load, 0),
                DownstreamKind::WriteThrough | DownstreamKind::Writeback => {
                    (AccessKind::Store, d.size)
                }
            };
            next_id += 1;
            let req = MemRequest {
                id: ReqId(next_id),
                addr: d.addr,
                size,
                kind,
                core: c,
            };
            if fabric.try_submit(now, req) {
                cost.fabric_requests += 1;
                *s = None;
            }
        }
        fabric.tick(now);
        for c in 0..cfg.num_cores {
            while let Some(r) = fabric.pop_response(c) {
                responses.push((c, r.addr));
            }
        }
        cost.fabric_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        for (c, addr) in responses.drain(..) {
            l1[c].fill(addr, now);
        }
        let drained = queues.iter().all(VecDeque::is_empty)
            && staged.iter().all(Option::is_none)
            && l1.iter().all(Cache::quiesced);
        cost.l1_ns += t.elapsed().as_nanos() as u64;
        if drained && fabric.quiesced() {
            return cost;
        }
        now += 1;
        assert!(now < 100_000_000, "memory probe did not drain");
    }
}
