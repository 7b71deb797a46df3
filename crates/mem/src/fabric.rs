//! The composed memory system: a request crossbar feeding per-partition L2
//! slices and DRAM channels, and a response crossbar back to the cores.
//!
//! Address map: global lines are interleaved across partitions
//! (`partition = line_id % partitions`); within a partition, consecutive
//! local lines share DRAM rows, so dense access patterns retain row-buffer
//! locality.

use crate::config::rule;
use crate::cache::{Access, Cache, CacheConfig, CacheStats, DownstreamKind, ReservationFailure};
use crate::dram::{DramChannel, DramConfig, DramRequest, DramStats};
use crate::req::{AccessKind, Cycle, MemRequest, MemResponse, ReqId};
use crate::xbar::{Crossbar, XbarConfig, XbarStats};
use std::collections::VecDeque;

crate::config! {
    /// Configuration of the whole off-core memory system.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FabricConfig in FABRIC_KNOBS, rules fabric_rules {
        /// Number of SM cores (request-crossbar input ports).
        cores: usize in 1..=128; // as num_cores: each is a crossbar port with a queue
        /// Number of memory partitions (L2 slice + DRAM channel each).
        partitions: usize in 1..=64; // each allocates an L2 slice and a DRAM channel
        /// Cache-line size in bytes; must match the L2 configuration.
        line_bytes: u32 in 32..=1024; // as the caches' lines
        /// Per-slice L2 configuration.
        l2: CacheConfig;
        /// L2 hit latency in core cycles (lookup pipeline).
        l2_latency: u32 in 1..=1024; // not allocated; 25 times the default
        /// Per-partition DRAM channel configuration.
        dram: DramConfig;
        /// Crossbar traversal latency in cycles.
        xbar_latency: u32 in 1..=1024; // not allocated; 128 times the default
        /// Crossbar flit size in bytes.
        xbar_flit_bytes: u32 in 1..=1024; // divides packet sizes; at most the longest line
        /// Crossbar per-input-port queue depth.
        xbar_queue_len: usize in 1..=1024; // each port's queue grows to its depth
    }
}

fn fabric_rules(f: &FabricConfig) -> Result<(), String> {
    rule(f.l2.line_bytes == f.line_bytes, "l2.line_bytes: L2 line size mismatch")
}

impl FabricConfig {
    /// Fermi GTX480-like defaults for `cores` SMs: 6 partitions, 128 KiB
    /// L2 slices, GDDR5-like channels, 8-cycle crossbar.
    pub fn fermi_like(cores: usize) -> Self {
        FabricConfig {
            cores,
            partitions: 6,
            line_bytes: 128,
            l2: CacheConfig::l2_slice_default(),
            l2_latency: 40,
            dram: DramConfig::gddr5_default(),
            xbar_latency: 8,
            xbar_flit_bytes: 32,
            xbar_queue_len: 8,
        }
    }
}

/// Aggregated fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FabricStats {
    /// L2 counters summed over slices.
    pub l2: CacheStats,
    /// DRAM counters summed over channels.
    pub dram: DramStats,
    /// Request-crossbar counters.
    pub req_xbar: XbarStats,
    /// Response-crossbar counters.
    pub resp_xbar: XbarStats,
    /// Load requests that entered the fabric.
    pub loads_in: u64,
    /// Load responses returned to cores.
    pub loads_out: u64,
    /// Stores that entered the fabric.
    pub stores_in: u64,
}

/// A load in flight inside the fabric: the caller's id and core, restored
/// when its response is queued.
#[derive(Debug, Clone, Copy)]
struct ReqCtx {
    id: ReqId,
    core: usize,
}

#[derive(Debug)]
struct Partition {
    l2: Cache,
    dram: DramChannel,
    /// Request being retried against a structurally-full L2.
    stalled: Option<MemRequest>,
    /// Why `stalled` was refused, while the refusal must stand: until the
    /// slice's next fill, or its next downstream pop for a full miss
    /// queue. Each retry meanwhile is booked with
    /// [`Cache::book_rejected`] instead of re-run (fast path only).
    refused: Option<ReservationFailure>,
    /// Downstream message staged while DRAM is full.
    to_dram: Option<crate::cache::Downstream>,
    /// Load responses ready at a given cycle, FIFO in ready order, with
    /// the core each one returns to.
    responses: VecDeque<(Cycle, MemResponse, usize)>,
}

/// The off-core memory system. Cores inject [`MemRequest`]s with
/// [`try_submit`](Self::try_submit), call [`tick`](Self::tick) once per
/// cycle, and drain [`MemResponse`]s with
/// [`pop_response`](Self::pop_response).
#[derive(Debug)]
pub struct MemFabric {
    cfg: FabricConfig,
    req_xbar: Crossbar<MemRequest>,
    resp_xbar: Crossbar<MemResponse>,
    partitions: Vec<Partition>,
    /// Whether stalled L2 requests book their retries (see
    /// [`set_fast_path`](Self::set_fast_path)).
    fast: bool,
    /// Slab of in-flight loads. A load carries its slot index as its id
    /// from the request crossbar on (the L2 only echoes ids), so a
    /// response finds its caller in O(1) and caller ids need not be
    /// unique across cores. Freed slots are reused LIFO.
    ctx: Vec<ReqCtx>,
    free: Vec<usize>,
    /// Load requests that entered the fabric.
    loads_in: u64,
    /// Load responses returned to cores.
    loads_out: u64,
    /// Stores that entered the fabric.
    stores_in: u64,
}

impl MemFabric {
    /// Builds the fabric.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`Config::check`](crate::Config::check).
    pub fn new(cfg: FabricConfig) -> Self {
        cfg.validate();
        let xc = |inp, outp| XbarConfig {
            in_ports: inp,
            out_ports: outp,
            latency: cfg.xbar_latency,
            flit_bytes: cfg.xbar_flit_bytes,
            queue_len: cfg.xbar_queue_len,
        };
        let partitions = (0..cfg.partitions)
            .map(|_| Partition {
                l2: Cache::new(cfg.l2.clone()),
                dram: DramChannel::new(cfg.dram.clone()),
                stalled: None,
                refused: None,
                to_dram: None,
                responses: VecDeque::new(),
            })
            .collect();
        MemFabric {
            req_xbar: Crossbar::new(xc(cfg.cores, cfg.partitions)),
            resp_xbar: Crossbar::new(xc(cfg.partitions, cfg.cores)),
            partitions,
            fast: true,
            ctx: Vec::new(),
            free: Vec::new(),
            loads_in: 0,
            loads_out: 0,
            stores_in: 0,
            cfg,
        }
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Turns retry booking on (the default) or off. On, a stalled L2
    /// request books each later retry with [`Cache::book_rejected`] while
    /// its refusal must stand; off, every retry re-runs the access, as the
    /// device's reference loop wants. Either way the statistics are
    /// identical.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast = on;
        if !on {
            for p in &mut self.partitions {
                p.refused = None;
            }
        }
    }

    /// The memory partition servicing `addr`.
    pub fn partition_of(&self, addr: u64) -> usize {
        let line = addr / u64::from(self.cfg.line_bytes);
        (line % self.cfg.partitions as u64) as usize
    }

    /// Whether core `core` can inject a request this cycle.
    pub fn can_submit(&self, core: usize) -> bool {
        self.req_xbar.can_send(core)
    }

    /// Injects a request from its core into the request crossbar. Returns
    /// `false` if the core's injection port is full (retry next cycle).
    pub fn try_submit(&mut self, now: Cycle, req: MemRequest) -> bool {
        let dst = self.partition_of(req.addr);
        // Request packets: stores carry data (a line), loads are header-only.
        // A load travels under the slot it takes if accepted.
        let slot = self.free.last().copied().unwrap_or(self.ctx.len());
        let (size, packet) = match req.kind {
            AccessKind::Load => (
                0,
                MemRequest {
                    id: ReqId(slot as u64),
                    ..req
                },
            ),
            AccessKind::Store => (req.size.max(1), req),
        };
        if !self.req_xbar.try_send(now, req.core, dst, size, packet) {
            return false;
        }
        match req.kind {
            AccessKind::Load => {
                self.loads_in += 1;
                let c = ReqCtx {
                    id: req.id,
                    core: req.core,
                };
                if self.free.pop().is_some() {
                    self.ctx[slot] = c;
                } else {
                    self.ctx.push(c);
                }
            }
            AccessKind::Store => self.stores_in += 1,
        }
        true
    }

    /// Advances the entire fabric one cycle: per partition, DRAM
    /// completions fill the L2 slice, one L2 downstream message goes to
    /// DRAM, and one request (a stalled one first) accesses the slice;
    /// then due responses enter the response crossbar and both crossbars
    /// tick. A stalled request is the only access its slice sees, so it
    /// is refused alike until a fill (or, for a full miss queue, a
    /// downstream pop) and on the fast path its retries are booked, not
    /// re-run (see [`set_fast_path`](Self::set_fast_path) and
    /// [`Cache::book_rejected`]).
    pub fn tick(&mut self, now: Cycle) {
        let line_bytes = self.cfg.line_bytes;
        let partitions = self.cfg.partitions as u64;
        let (ctx, free) = (&self.ctx, &mut self.free);
        // Queues a load response under its caller's id and core, freeing
        // the load's slot.
        let mut respond = |out: &mut VecDeque<_>, ready: Cycle, slot: ReqId, addr: u64| {
            let c = ctx[slot.0 as usize];
            free.push(slot.0 as usize);
            out.push_back((ready, MemResponse { id: c.id, addr }, c.core));
        };
        for (pid, p) in self.partitions.iter_mut().enumerate() {
            // 1. DRAM completions: reads fill the L2 slice and wake waiters.
            for c in p.dram.tick(now).iter().filter(|c| c.is_read) {
                p.refused = None;
                // token carries the global line address.
                let ready = p.l2.fill(c.token, now).ready;
                for &slot in &ready {
                    respond(&mut p.responses, now, slot, c.token);
                }
                p.l2.recycle(ready);
            }

            // 2. Drain L2 downstream traffic into DRAM (with staging so a
            //    full DRAM queue exerts backpressure).
            if p.to_dram.is_none() {
                p.to_dram = p.l2.pop_downstream();
                if p.to_dram.is_some() && p.refused == Some(ReservationFailure::MissQueueFull) {
                    p.refused = None;
                }
            }
            if let Some(d) = p.to_dram {
                let local = {
                    let line = d.addr / u64::from(line_bytes);
                    (line / partitions) * u64::from(line_bytes)
                };
                let req = DramRequest {
                    local_addr: local,
                    is_read: matches!(d.kind, DownstreamKind::Fetch),
                    token: d.addr,
                };
                if p.dram.submit(req, now) {
                    p.to_dram = None;
                }
            }

            // 3. One L2 access per cycle, retrying structurally-stalled
            //    requests first.
            if p.refused.is_some() {
                p.l2.book_rejected(1);
                continue;
            }
            let next = p
                .stalled
                .take()
                .or_else(|| self.req_xbar.pop_delivered(pid));
            if let Some(req) = next {
                let id = match req.kind {
                    AccessKind::Load => Some(req.id),
                    AccessKind::Store => None,
                };
                match p.l2.access(req.addr, req.kind, id, now) {
                    Access::Hit => {
                        if req.kind.is_load() {
                            let addr = req.addr & !u64::from(line_bytes - 1);
                            let ready = now + u64::from(self.cfg.l2_latency);
                            respond(&mut p.responses, ready, req.id, addr);
                        }
                    }
                    Access::Miss | Access::MissMerged | Access::MissNoAlloc => {}
                    Access::Fail(why) => {
                        p.refused = self.fast.then_some(why);
                        p.stalled = Some(req);
                    }
                }
            }
        }

        // 4. Send ready responses through the response crossbar.
        for (pid, p) in self.partitions.iter_mut().enumerate() {
            while let Some(&(ready, resp, core)) = p.responses.front() {
                if ready > now {
                    break;
                }
                if self
                    .resp_xbar
                    .try_send(now, pid, core, self.cfg.line_bytes, resp)
                {
                    p.responses.pop_front();
                    self.loads_out += 1;
                } else {
                    break;
                }
            }
        }

        self.req_xbar.tick(now);
        self.resp_xbar.tick(now);
    }

    /// Pops the next response delivered to `core`.
    pub fn pop_response(&mut self, core: usize) -> Option<MemResponse> {
        self.resp_xbar.pop_delivered(core)
    }

    /// Whether a response awaits `core` (O(1)).
    pub fn has_response(&self, core: usize) -> bool {
        self.resp_xbar.has_delivered(core)
    }

    /// The earliest cycle `>= now` at which ticking the fabric can change
    /// state (or deliver a response), or `None` when everything is
    /// quiesced. Conservative — it may name a cycle where nothing visible
    /// happens, but it never skips past one. Retry loops that mutate
    /// statistics on every attempt (stalled L2 accesses, staged DRAM
    /// submissions) pin the next event to `now` so no retry cycle is ever
    /// skipped.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next = Cycle::MAX;
        // Nothing is earlier than `now`, so the search stops as soon as
        // something is due by then; the cheap checks come first.
        let mut due_now = |t: Option<Cycle>| {
            next = next.min(t.unwrap_or(Cycle::MAX));
            next == now
        };
        for p in &self.partitions {
            // These retry every tick and bump failure counters as they do,
            // so skipping any cycle while they are pending would change
            // observable stats.
            if p.stalled.is_some() || p.to_dram.is_some() || p.l2.has_downstream() {
                return Some(now);
            }
            if due_now(p.responses.front().map(|r| r.0.max(now))) {
                return Some(now);
            }
        }
        if due_now(self.req_xbar.next_event(now)) || due_now(self.resp_xbar.next_event(now)) {
            return Some(now);
        }
        for p in &self.partitions {
            if due_now(p.dram.next_event(now)) {
                return Some(now);
            }
        }
        (next != Cycle::MAX).then_some(next)
    }

    /// Whether nothing is in flight anywhere in the fabric.
    pub fn quiesced(&self) -> bool {
        self.free.len() == self.ctx.len()
            && self.req_xbar.quiesced()
            && self.resp_xbar.quiesced()
            && self.partitions.iter().all(|p| {
                p.l2.quiesced()
                    && p.dram.quiesced()
                    && p.stalled.is_none()
                    && p.to_dram.is_none()
                    && p.responses.is_empty()
            })
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> FabricStats {
        let mut s = FabricStats {
            req_xbar: *self.req_xbar.stats(),
            resp_xbar: *self.resp_xbar.stats(),
            loads_in: self.loads_in,
            loads_out: self.loads_out,
            stores_in: self.stores_in,
            ..FabricStats::default()
        };
        for p in &self.partitions {
            s.l2.merge(p.l2.stats());
            s.dram.merge(p.dram.stats());
        }
        s
    }

    /// Invalidates all L2 slices (dirty lines are written back). Used at
    /// kernel boundaries when simulating cold caches.
    pub fn flush_l2(&mut self) {
        for p in &mut self.partitions {
            p.l2.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> MemFabric {
        let mut cfg = FabricConfig::fermi_like(2);
        cfg.partitions = 2;
        MemFabric::new(cfg)
    }

    fn load(id: u64, addr: u64, core: usize) -> MemRequest {
        MemRequest {
            id: ReqId(id),
            addr,
            size: 128,
            kind: AccessKind::Load,
            core,
        }
    }

    fn store(id: u64, addr: u64, core: usize) -> MemRequest {
        MemRequest {
            id: ReqId(id),
            addr,
            size: 128,
            kind: AccessKind::Store,
            core,
        }
    }

    fn run_for(f: &mut MemFabric, start: Cycle, n: u64, core: usize) -> Vec<(Cycle, MemResponse)> {
        let mut got = Vec::new();
        for now in start..start + n {
            f.tick(now);
            while let Some(r) = f.pop_response(core) {
                got.push((now, r));
            }
        }
        got
    }

    #[test]
    fn load_round_trip_miss_then_hit() {
        let mut f = fabric();
        assert!(f.try_submit(0, load(1, 0x1000, 0)));
        let got = run_for(&mut f, 0, 500, 0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.id, ReqId(1));
        let miss_latency = got[0].0;
        assert!(miss_latency > 100, "DRAM round trip expected, got {miss_latency}");
        assert!(f.quiesced());

        // Second load to the same line: L2 hit, much faster.
        let t0 = miss_latency + 1;
        assert!(f.try_submit(t0, load(2, 0x1000, 0)));
        let got = run_for(&mut f, t0, 500, 0);
        assert_eq!(got.len(), 1);
        let hit_latency = got[0].0 - t0;
        assert!(
            hit_latency + 20 < miss_latency,
            "hit ({hit_latency}) should be faster than miss ({miss_latency})"
        );
    }

    #[test]
    fn partition_slicing_by_line() {
        let f = fabric();
        assert_eq!(f.partition_of(0), 0);
        assert_eq!(f.partition_of(128), 1);
        assert_eq!(f.partition_of(256), 0);
        assert_eq!(f.partition_of(127), 0);
    }

    #[test]
    fn responses_route_to_their_core() {
        let mut f = fabric();
        assert!(f.try_submit(0, load(1, 0, 0)));
        assert!(f.try_submit(0, load(2, 128, 1)));
        let mut got0 = Vec::new();
        let mut got1 = Vec::new();
        for now in 0..500 {
            f.tick(now);
            while let Some(r) = f.pop_response(0) {
                got0.push(r);
            }
            while let Some(r) = f.pop_response(1) {
                got1.push(r);
            }
        }
        assert_eq!(got0.len(), 1);
        assert_eq!(got0[0].id, ReqId(1));
        assert_eq!(got1.len(), 1);
        assert_eq!(got1[0].id, ReqId(2));
    }

    #[test]
    fn stores_are_posted_and_quiesce() {
        let mut f = fabric();
        assert!(f.try_submit(0, store(1, 0x2000, 0)));
        let got = run_for(&mut f, 0, 800, 0);
        assert!(got.is_empty(), "stores produce no responses");
        assert!(f.quiesced(), "store must fully drain");
        let s = f.stats();
        assert_eq!(s.stores_in, 1);
        // Write-allocate L2: the store miss fetched its line from DRAM.
        assert_eq!(s.dram.reads, 1);
    }

    #[test]
    fn merged_loads_get_one_dram_read() {
        let mut f = fabric();
        assert!(f.try_submit(0, load(1, 0x40, 0)));
        assert!(f.try_submit(0, load(2, 0x44, 0)));
        let got = run_for(&mut f, 0, 600, 0);
        assert_eq!(got.len(), 2);
        assert_eq!(f.stats().dram.reads, 1, "same line must merge in L2 MSHR");
    }

    #[test]
    fn stats_track_in_out() {
        let mut f = fabric();
        f.try_submit(0, load(1, 0, 0));
        run_for(&mut f, 0, 500, 0);
        let s = f.stats();
        assert_eq!(s.loads_in, 1);
        assert_eq!(s.loads_out, 1);
        assert!(s.req_xbar.packets >= 1);
        assert!(s.resp_xbar.packets >= 1);
    }

    /// Runs until both cores' responses are in, returning `(core, id)` in
    /// delivery order.
    fn collect(f: &mut MemFabric, start: Cycle, want: usize) -> Vec<(usize, ReqId)> {
        let mut got = Vec::new();
        for now in start..start + 2_000 {
            f.tick(now);
            for core in 0..2 {
                while let Some(r) = f.pop_response(core) {
                    got.push((core, r.id));
                }
            }
            if got.len() == want {
                break;
            }
        }
        got
    }

    /// Caller ids are opaque: they need not encode the core or be unique
    /// across cores, and any value, `u64::MAX` included, comes back
    /// unchanged to the core that sent it.
    #[test]
    fn caller_ids_come_back_unchanged_to_their_core() {
        let mut f = fabric();
        let reqs = [(0, 0), (0, 1), (1, 0), (1, u64::MAX), (0, u64::MAX)];
        for (i, &(core, id)) in reqs.iter().enumerate() {
            assert!(f.try_submit(0, load(id, i as u64 * 128, core)));
        }
        let mut got = collect(&mut f, 0, reqs.len());
        got.sort();
        let mut want: Vec<_> = reqs.iter().map(|&(c, id)| (c, ReqId(id))).collect();
        want.sort();
        assert_eq!(got, want);
        assert!(f.quiesced());
    }

    /// Two cores' loads to one line merge in one L2 MSHR (one DRAM read),
    /// yet each core gets its own id back.
    #[test]
    fn merged_loads_from_two_cores_keep_their_ids() {
        let mut f = fabric();
        assert!(f.try_submit(0, load(7, 0x1000, 0)));
        assert!(f.try_submit(0, load(7, 0x1004, 1)));
        assert!(f.try_submit(1, load(9, 0x1008, 1)));
        let mut got = collect(&mut f, 0, 3);
        got.sort();
        assert_eq!(got, vec![(0, ReqId(7)), (1, ReqId(7)), (1, ReqId(9))]);
        let s = f.stats();
        assert_eq!((s.dram.reads, s.l2.mshr_merges), (1, 2));
    }

    /// A load's slot is freed when its response is queued and reused by
    /// the next load, so the slab grows only to the peak number in flight.
    /// The fabric is not quiesced while a load is anywhere in it.
    #[test]
    fn slots_are_reused_and_in_flight_loads_block_quiesce() {
        let mut f = fabric();
        for round in 0..3u64 {
            let t0 = round * 1_000;
            assert!(f.try_submit(t0, load(100 + round, 0x4000 + round * 256, 1)));
            let mut got = None;
            for now in t0..t0 + 1_000 {
                assert!(!f.quiesced(), "load in flight at cycle {now}");
                f.tick(now);
                if let Some(r) = f.pop_response(1) {
                    got = Some(r.id);
                    break;
                }
            }
            assert_eq!(got, Some(ReqId(100 + round)));
            assert!(f.quiesced());
            assert_eq!(f.ctx.len(), 1, "round {round} reuses the freed slot");
        }
    }

    #[test]
    fn deterministic_repeat() {
        let run = || {
            let mut f = fabric();
            let mut submitted = 0u64;
            let mut done = Vec::new();
            for now in 0..2000u64 {
                if submitted < 64 && f.try_submit(now, load(submitted, submitted * 128, 0)) {
                    submitted += 1;
                }
                f.tick(now);
                while let Some(r) = f.pop_response(0) {
                    done.push((now, r.id));
                }
            }
            done
        };
        assert_eq!(run(), run());
    }
}
