//! A banked, open-row DRAM channel with FR-FCFS arbitration.
//!
//! One channel backs each memory partition. The model captures what the
//! paper's mechanisms interact with: row-buffer locality (consecutive CTAs
//! touching neighbouring lines hit the same row) and bank/bus contention
//! (more concurrent CTAs means more row conflicts and longer queues).
//! Timing parameters are expressed in *core* cycles so the whole simulator
//! runs off one clock.

use crate::counters::ratio;
use crate::req::Cycle;
use std::collections::VecDeque;

/// DRAM channel timing and geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks.
    pub banks: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u32,
    /// Line (burst) size in bytes; must divide `row_bytes`.
    pub line_bytes: u32,
    /// Activate latency (row closed -> open), core cycles.
    pub t_rcd: u32,
    /// Precharge latency (close an open row), core cycles.
    pub t_rp: u32,
    /// Column-access latency (CAS), core cycles.
    pub t_cas: u32,
    /// Data-burst occupancy of the shared data bus, core cycles.
    pub t_burst: u32,
    /// Request-queue capacity.
    pub queue_len: u32,
    /// Starvation cap: how many times a serviceable request may be passed
    /// over in favor of a *younger* one (a row hit jumping the queue)
    /// before arbitration falls back to oldest-first until it drains. `0`
    /// disables row-hit reordering entirely (pure FCFS).
    pub max_bypass: u32,
}

impl DramConfig {
    /// GDDR5-like defaults (in core cycles): 16 banks, 2 KiB rows,
    /// tRCD/tRP/tCAS = 40, burst 4, starvation cap 16.
    pub fn gddr5_default() -> Self {
        DramConfig {
            banks: 16,
            row_bytes: 2048,
            line_bytes: 128,
            t_rcd: 40,
            t_rp: 40,
            t_cas: 40,
            t_burst: 4,
            queue_len: 32,
            max_bypass: 16,
        }
    }

    fn validate(&self) {
        assert!(self.banks >= 1);
        assert!(self.line_bytes >= 1 && self.row_bytes % self.line_bytes == 0);
        assert!(self.queue_len >= 1);
        assert!(self.t_burst >= 1);
    }
}

/// A request queued at the channel. `token` is an opaque caller tag
/// returned on completion (the fabric stores the upstream context there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Line-aligned local address (after partition slicing).
    pub local_addr: u64,
    /// Whether a response (read data) is produced.
    pub is_read: bool,
    /// Caller context echoed on completion.
    pub token: u64,
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion {
    /// Caller context from the original request.
    pub token: u64,
    /// Whether it was a read.
    pub is_read: bool,
    /// Local address.
    pub local_addr: u64,
}

crate::counters! {
    /// Channel statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DramStats in DRAM_COUNTERS {
        /// Reads serviced.
        reads: "1.0";
        /// Writes serviced.
        writes: "1.0";
        /// Accesses that hit an open row.
        row_hits: "1.0";
        /// Accesses to a bank with a different row open (precharge+activate).
        row_conflicts: "1.0";
        /// Accesses to a bank with no row open (activate only).
        row_empty: "1.0";
        /// Sum of (completion - enqueue) over serviced requests.
        total_latency: "1.0";
        /// Requests rejected because the queue was full.
        rejected: "1.0";
    }
}

impl DramStats {
    /// Fraction of accesses hitting an open row; 0 when idle.
    pub fn row_hit_rate(&self) -> f64 {
        ratio(self.row_hits, self.row_hits + self.row_conflicts + self.row_empty)
    }

    /// Mean queued-to-complete latency; 0 when idle.
    pub fn avg_latency(&self) -> f64 {
        ratio(self.total_latency, self.reads + self.writes)
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: DramRequest,
    enqueued: Cycle,
    bank: u32,
    row: u64,
    /// Times this request was serviceable but a younger one was issued
    /// instead. At `max_bypass` the arbiter stops letting row hits jump it.
    bypass: u32,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    completion: Cycle,
    out: DramCompletion,
    enqueued: Cycle,
}

/// One DRAM channel: a request queue, per-bank row state, and a shared data
/// bus. Each call to [`tick`](Self::tick) may start one request (FR-FCFS:
/// oldest row-hit first, else oldest).
#[derive(Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    queue: VecDeque<Queued>,
    banks: Vec<Bank>,
    bus_free: Cycle,
    in_flight: Vec<InFlight>,
    /// The earliest in-flight completion or queued request's bank
    /// release (`Cycle::MAX` when idle). Before it a tick would complete
    /// nothing and find every queued request's bank busy, so it would
    /// pick nothing and bump no bypass counter: [`tick`](Self::tick)
    /// returns at once. Only `submit` (which lowers it) and a tick that
    /// runs (which recomputes it) change what it depends on.
    wake: Cycle,
    stats: DramStats,
}

impl DramChannel {
    /// Builds a channel from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero banks, line size
    /// not dividing row size).
    pub fn new(cfg: DramConfig) -> Self {
        cfg.validate();
        let banks = (0..cfg.banks)
            .map(|_| Bank {
                open_row: None,
                busy_until: 0,
            })
            .collect();
        DramChannel {
            cfg,
            queue: VecDeque::new(),
            banks,
            bus_free: 0,
            in_flight: Vec::new(),
            wake: Cycle::MAX,
            stats: DramStats::default(),
        }
    }

    /// The configuration this channel was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn bank_and_row(&self, local_addr: u64) -> (u32, u64) {
        let line = local_addr / u64::from(self.cfg.line_bytes);
        let lines_per_row = u64::from(self.cfg.row_bytes / self.cfg.line_bytes);
        let bank = ((line / lines_per_row) % u64::from(self.cfg.banks)) as u32;
        let row = line / (lines_per_row * u64::from(self.cfg.banks));
        (bank, row)
    }

    /// Whether the queue can accept another request.
    pub fn can_accept(&self) -> bool {
        (self.queue.len() as u32) < self.cfg.queue_len
    }

    /// Enqueues a request. Returns `false` (and counts a rejection) when
    /// the queue is full.
    pub fn submit(&mut self, req: DramRequest, now: Cycle) -> bool {
        if !self.can_accept() {
            self.stats.rejected += 1;
            return false;
        }
        let (bank, row) = self.bank_and_row(req.local_addr);
        self.wake = self.wake.min(self.banks[bank as usize].busy_until);
        self.queue.push_back(Queued {
            req,
            enqueued: now,
            bank,
            row,
            bypass: 0,
        });
        true
    }

    /// Advances the channel one cycle: possibly starts one queued request
    /// and returns any requests completing at `now`.
    pub fn tick(&mut self, now: Cycle) -> Vec<DramCompletion> {
        if now < self.wake {
            return Vec::new();
        }
        // Collect completions first.
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].completion <= now {
                let f = self.in_flight.swap_remove(i);
                self.stats.total_latency += f.completion - f.enqueued;
                if f.out.is_read {
                    self.stats.reads += 1;
                } else {
                    self.stats.writes += 1;
                }
                done.push(f.out);
            } else {
                i += 1;
            }
        }
        // Keep completion order deterministic regardless of in-flight layout.
        done.sort_by_key(|c| (c.local_addr, c.token));

        // FR-FCFS issue with a starvation cap: among requests whose bank
        // is free, prefer the oldest row hit, else the oldest — unless
        // some serviceable request has already been bypassed `max_bypass`
        // times, in which case arbitration falls back to pure oldest-first
        // until the pressure clears. One command per cycle (command bus).
        // Banks overlap; only data bursts serialize on the data bus.
        let mut oldest: Option<usize> = None;
        let mut oldest_hit: Option<usize> = None;
        let mut capped = false;
        for (idx, q) in self.queue.iter().enumerate() {
            let bank = &self.banks[q.bank as usize];
            if bank.busy_until > now {
                continue;
            }
            if oldest.is_none() {
                oldest = Some(idx);
            }
            if q.bypass >= self.cfg.max_bypass {
                capped = true;
                break; // oldest-first from here on; no need to scan further
            }
            if oldest_hit.is_none() && bank.open_row == Some(q.row) {
                oldest_hit = Some(idx);
            }
        }
        let pick = if capped { oldest } else { oldest_hit.or(oldest) };
        if let Some(idx) = pick {
            // Everything older and serviceable is being jumped by a
            // younger request; count the bypass toward the cap.
            for q in self.queue.iter_mut().take(idx) {
                if self.banks[q.bank as usize].busy_until <= now {
                    q.bypass += 1;
                }
            }
            let q = self.queue.remove(idx).expect("index valid");
            let bank = &mut self.banks[q.bank as usize];
            let access_lat = match bank.open_row {
                Some(r) if r == q.row => {
                    self.stats.row_hits += 1;
                    self.cfg.t_cas
                }
                Some(_) => {
                    self.stats.row_conflicts += 1;
                    self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
                }
                None => {
                    self.stats.row_empty += 1;
                    self.cfg.t_rcd + self.cfg.t_cas
                }
            };
            bank.open_row = Some(q.row);
            // The burst begins once the bank access is done AND the data bus
            // is free; the bus is held for exactly the burst.
            let completion =
                (now + u64::from(access_lat)).max(self.bus_free) + u64::from(self.cfg.t_burst);
            bank.busy_until = completion;
            self.bus_free = completion;
            self.in_flight.push(InFlight {
                completion,
                out: DramCompletion {
                    token: q.req.token,
                    is_read: q.req.is_read,
                    local_addr: q.req.local_addr,
                },
                enqueued: q.enqueued,
            });
        }
        let banks = &self.banks;
        self.wake = self
            .in_flight
            .iter()
            .map(|f| f.completion)
            .chain(self.queue.iter().map(|q| banks[q.bank as usize].busy_until))
            .min()
            .unwrap_or(Cycle::MAX);
        done
    }

    /// Whether no requests are queued or in flight.
    pub fn quiesced(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// The earliest cycle `>= now` at which ticking this channel does
    /// something (a completion fires, or a queued request finds its bank
    /// free), or `None` when it is quiesced. O(1): it is the channel's
    /// wake time.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (self.wake != Cycle::MAX).then(|| self.wake.max(now))
    }

    /// Current queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> DramChannel {
        DramChannel::new(DramConfig {
            banks: 4,
            row_bytes: 1024,
            line_bytes: 128,
            t_rcd: 10,
            t_rp: 10,
            t_cas: 10,
            t_burst: 4,
            queue_len: 8,
            max_bypass: 8,
        })
    }

    fn read(addr: u64, token: u64) -> DramRequest {
        DramRequest {
            local_addr: addr,
            is_read: true,
            token,
        }
    }

    fn run_until_done(c: &mut DramChannel, start: Cycle, max: u64) -> Vec<(Cycle, DramCompletion)> {
        let mut out = Vec::new();
        for now in start..start + max {
            for d in c.tick(now) {
                out.push((now, d));
            }
            if c.quiesced() {
                break;
            }
        }
        out
    }

    #[test]
    fn single_read_latency_row_empty() {
        let mut c = chan();
        assert!(c.submit(read(0, 1), 0));
        let done = run_until_done(&mut c, 0, 100);
        assert_eq!(done.len(), 1);
        // Row empty: tRCD + tCAS + burst = 10 + 10 + 4 = 24, started at 0.
        assert_eq!(done[0].0, 24);
        assert_eq!(done[0].1.token, 1);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        // Two requests to the same row.
        let mut c = chan();
        c.submit(read(0, 1), 0);
        c.submit(read(128, 2), 0);
        let done = run_until_done(&mut c, 0, 200);
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats().row_hits, 1);
        let same_row_total = done.last().unwrap().0;

        // Two requests to different rows of the same bank.
        let mut c = chan();
        let stride = 1024 * 4; // row_bytes * banks => same bank, next row
        c.submit(read(0, 1), 0);
        c.submit(read(stride, 2), 0);
        let done = run_until_done(&mut c, 0, 400);
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats().row_conflicts, 1);
        let conflict_total = done.last().unwrap().0;
        assert!(
            conflict_total > same_row_total,
            "row conflict ({conflict_total}) must take longer than row hit ({same_row_total})"
        );
    }

    #[test]
    fn fr_fcfs_prefers_row_hit() {
        let mut c = chan();
        // First request opens row 0 of bank 0.
        c.submit(read(0, 1), 0);
        let mut now = 0;
        while !c.quiesced() {
            c.tick(now);
            now += 1;
        }
        // Queue: a conflict (different row, same bank) ahead of a row hit.
        let conflict_addr = 1024 * 4;
        c.submit(read(conflict_addr, 2), now);
        c.submit(read(128, 3), now);
        let done = run_until_done(&mut c, now, 400);
        assert_eq!(done.len(), 2);
        // The row hit (token 3) must finish first despite arriving later.
        assert_eq!(done[0].1.token, 3);
        assert_eq!(done[1].1.token, 2);
    }

    #[test]
    fn banks_overlap_but_bus_serializes() {
        let mut c = chan();
        // Two different banks: bank stride = row_bytes = 1024.
        c.submit(read(0, 1), 0);
        c.submit(read(1024, 2), 0);
        let done = run_until_done(&mut c, 0, 200);
        assert_eq!(done.len(), 2);
        let t1 = done[0].0;
        let t2 = done[1].0;
        // Bank-parallel: second finishes less than a full access later.
        assert!(t2 - t1 < 24, "bank parallelism expected, got {t1} then {t2}");
        assert!(t2 > t1, "data bus must serialize bursts");
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut c = chan();
        for i in 0..8 {
            assert!(c.submit(read(i * 128, i), 0));
        }
        assert!(!c.can_accept());
        assert!(!c.submit(read(4096, 99), 0));
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn writes_complete_and_count() {
        let mut c = chan();
        c.submit(
            DramRequest {
                local_addr: 0,
                is_read: false,
                token: 7,
            },
            0,
        );
        let done = run_until_done(&mut c, 0, 100);
        assert_eq!(done.len(), 1);
        assert!(!done[0].1.is_read);
        assert_eq!(c.stats().writes, 1);
        assert_eq!(c.stats().reads, 0);
    }

    #[test]
    fn bank_row_mapping_groups_consecutive_lines() {
        let c = chan();
        // All lines of the first 1 KiB map to bank 0, row 0.
        for line in 0..8u64 {
            assert_eq!(c.bank_and_row(line * 128), (0, 0));
        }
        // The next KiB goes to bank 1, row 0.
        assert_eq!(c.bank_and_row(1024), (1, 0));
        // After all banks, row increments.
        assert_eq!(c.bank_and_row(4096), (0, 1));
    }

    #[test]
    fn avg_latency_accounts_queueing() {
        let mut c = chan();
        c.submit(read(0, 1), 0);
        c.submit(read(1024 * 4, 2), 0); // conflict later
        run_until_done(&mut c, 0, 400);
        assert!(c.stats().avg_latency() > 24.0);
        assert!(c.stats().row_hit_rate() < 0.5);
    }
}
