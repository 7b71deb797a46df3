//! Set-associative cache with MSHRs, miss queues, and LRU replacement.
//!
//! One [`Cache`] type serves both levels of the hierarchy:
//!
//! * **L1 data cache** — write-through, no-allocate (Fermi-style global
//!   stores bypass allocation), per-SM.
//! * **L2 slice** — write-back, write-allocate, one slice per memory
//!   partition.
//!
//! The cache is a *timing* model: it tracks which lines are present and
//! which requests are outstanding, but carries no data (functional values
//! live in the simulator's functional memory).

use crate::req::{AccessKind, Cycle, ReqId};
use std::collections::VecDeque;

/// Cache geometry and policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Number of MSHR entries (distinct outstanding miss lines).
    pub mshr_entries: u32,
    /// Maximum requests merged into one MSHR entry.
    pub mshr_max_merge: u32,
    /// Capacity of the queue of messages awaiting the lower level.
    pub miss_queue_len: u32,
    /// `true` for write-back, `false` for write-through.
    pub write_back: bool,
    /// `true` to allocate lines on store misses.
    pub write_allocate: bool,
}

impl CacheConfig {
    /// Fermi-style per-SM L1 data cache: 16 KiB, 4-way, 128 B lines,
    /// 32 MSHRs, write-through/no-allocate.
    pub fn l1_data_default() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 128,
            assoc: 4,
            mshr_entries: 32,
            mshr_max_merge: 8,
            miss_queue_len: 8,
            write_back: false,
            write_allocate: false,
        }
    }

    /// Fermi-style L2 slice: 128 KiB, 8-way, 128 B lines, 64 MSHRs,
    /// write-back/write-allocate.
    pub fn l2_slice_default() -> Self {
        CacheConfig {
            size_bytes: 128 * 1024,
            line_bytes: 128,
            assoc: 8,
            mshr_entries: 64,
            mshr_max_merge: 16,
            miss_queue_len: 16,
            write_back: true,
            write_allocate: true,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(self.assoc >= 1, "associativity must be >= 1");
        assert!(
            self.size_bytes % (self.line_bytes * self.assoc) == 0,
            "capacity must be a whole number of sets"
        );
        // Set indexing is modulo-based, so non-power-of-two set counts
        // (e.g. a 48 KiB 4-way L1) are fine.
        assert!(self.num_sets() >= 1, "need at least one set");
        assert!(self.mshr_entries >= 1 && self.mshr_max_merge >= 1);
        assert!(self.miss_queue_len >= 1);
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line missed; an MSHR was allocated and a fetch enqueued.
    Miss,
    /// The line missed but an MSHR for it already existed; merged.
    MissMerged,
    /// A store that does not allocate (write-through path); it was
    /// forwarded downstream.
    MissNoAlloc,
    /// The access could not be accepted this cycle; retry later.
    Fail(ReservationFailure),
}

impl Access {
    /// Whether the access was accepted (anything but `Fail`).
    pub fn accepted(self) -> bool {
        !matches!(self, Access::Fail(_))
    }

    /// Whether the access hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

/// Why an access could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationFailure {
    /// All MSHR entries are in use.
    MshrFull,
    /// The matching MSHR entry reached its merge limit.
    MergeLimit,
    /// The downstream miss queue is full.
    MissQueueFull,
}

/// What a message to the lower level means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownstreamKind {
    /// Fetch a line (response expected).
    Fetch,
    /// A forwarded write-through store (posted, carries data).
    WriteThrough,
    /// Eviction of a dirty line (posted, carries data).
    Writeback,
}

/// A message for the next-lower level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Downstream {
    /// Line-aligned address.
    pub addr: u64,
    /// Message kind.
    pub kind: DownstreamKind,
    /// Payload size in bytes (0 for fetch requests).
    pub size: u32,
}

/// Result of filling a line: requests that can now complete, plus an
/// optional dirty victim that was queued for writeback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillOutcome {
    /// Load requests waiting on this line, in arrival order.
    pub ready: Vec<ReqId>,
    /// Line address of a dirty victim evicted by this fill, if any (it has
    /// also been enqueued downstream internally).
    pub writeback: Option<u64>,
}

crate::counters! {
    /// Counters accumulated over the cache's lifetime.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats in CACHE_COUNTERS {
        /// Load accesses accepted.
        load_accesses: "1.0";
        /// Load hits.
        load_hits: "1.0";
        /// Store accesses accepted.
        store_accesses: "1.0";
        /// Store hits.
        store_hits: "1.0";
        /// Misses merged into existing MSHRs.
        mshr_merges: "1.0";
        /// Accesses rejected for structural reasons.
        reservation_fails: "1.0";
        /// Lines filled.
        fills: "1.0";
        /// Dirty evictions.
        writebacks: "1.0";
    }
}

impl CacheStats {
    /// Total accepted accesses.
    pub fn accesses(&self) -> u64 {
        self.load_accesses + self.store_accesses
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.load_hits + self.store_hits
    }

    /// Miss rate over accepted accesses, in `[0, 1]`; 0 when idle.
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            1.0 - (self.hits() as f64 / a as f64)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

#[derive(Debug)]
struct MshrEntry {
    waiters: Vec<ReqId>,
    dirty_on_fill: bool,
}

/// A set-associative, LRU, MSHR-backed cache timing model. See the
/// [module docs](self) for the policies it supports.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    /// Line address of each MSHR entry; `mshrs[i]` is its entry. At most
    /// `mshr_entries` lines are outstanding (32 per L1, 64 per L2 slice by
    /// default) and nothing depends on the entries' order, so a linear
    /// scan beats a tree lookup, and `fill` frees an entry with
    /// `swap_remove`.
    mshr_lines: Vec<u64>,
    mshrs: Vec<MshrEntry>,
    miss_queue: VecDeque<Downstream>,
    /// Writebacks generated by fills; unbounded so fills never fail.
    wb_queue: VecDeque<Downstream>,
    use_stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line size or
    /// set count, zero associativity).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let sets = (0..cfg.num_sets())
            .map(|_| {
                (0..cfg.assoc)
                    .map(|_| Line {
                        tag: 0,
                        valid: false,
                        dirty: false,
                        last_use: 0,
                    })
                    .collect()
            })
            .collect();
        Cache {
            cfg,
            sets,
            mshr_lines: Vec::new(),
            mshrs: Vec::new(),
            miss_queue: VecDeque::new(),
            wb_queue: VecDeque::new(),
            use_stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Aligns an address down to its line.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !u64::from(self.cfg.line_bytes - 1)
    }

    fn mshr_of(&self, line: u64) -> Option<usize> {
        self.mshr_lines.iter().position(|&l| l == line)
    }

    fn alloc_mshr(&mut self, line: u64, entry: MshrEntry) {
        self.mshr_lines.push(line);
        self.mshrs.push(entry);
    }

    fn set_index(&self, line: u64) -> usize {
        ((line / u64::from(self.cfg.line_bytes)) % u64::from(self.cfg.num_sets())) as usize
    }

    /// Whether the line containing `addr` is present (no side effects).
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let set = &self.sets[self.set_index(line)];
        set.iter().any(|l| l.valid && l.tag == line)
    }

    /// Attempts an access.
    ///
    /// `id` must be `Some` for loads (the id is returned by a later
    /// [`fill`](Self::fill) when the data arrives) and is ignored for
    /// stores. Rejected accesses ([`Access::Fail`]) leave no side effects
    /// and should be retried on a later cycle.
    pub fn access(&mut self, addr: u64, kind: AccessKind, id: Option<ReqId>, _now: Cycle) -> Access {
        let line = self.line_addr(addr);
        self.use_stamp += 1;
        let stamp = self.use_stamp;
        let set_idx = self.set_index(line);
        let way = self.sets[set_idx]
            .iter()
            .position(|l| l.valid && l.tag == line);

        match kind {
            AccessKind::Load => {
                let id = id.expect("loads must carry a request id");
                if let Some(w) = way {
                    self.sets[set_idx][w].last_use = stamp;
                    self.stats.load_accesses += 1;
                    self.stats.load_hits += 1;
                    return Access::Hit;
                }
                // MSHR hit?
                if let Some(m) = self.mshr_of(line) {
                    let entry = &mut self.mshrs[m];
                    if entry.waiters.len() as u32 >= self.cfg.mshr_max_merge {
                        self.stats.reservation_fails += 1;
                        return Access::Fail(ReservationFailure::MergeLimit);
                    }
                    entry.waiters.push(id);
                    self.stats.load_accesses += 1;
                    self.stats.mshr_merges += 1;
                    return Access::MissMerged;
                }
                // Fresh miss: need MSHR + miss-queue space.
                if self.mshrs.len() as u32 >= self.cfg.mshr_entries {
                    self.stats.reservation_fails += 1;
                    return Access::Fail(ReservationFailure::MshrFull);
                }
                if self.miss_queue.len() as u32 >= self.cfg.miss_queue_len {
                    self.stats.reservation_fails += 1;
                    return Access::Fail(ReservationFailure::MissQueueFull);
                }
                self.alloc_mshr(
                    line,
                    MshrEntry {
                        waiters: vec![id],
                        dirty_on_fill: false,
                    },
                );
                self.miss_queue.push_back(Downstream {
                    addr: line,
                    kind: DownstreamKind::Fetch,
                    size: 0,
                });
                self.stats.load_accesses += 1;
                Access::Miss
            }
            AccessKind::Store => {
                if let Some(w) = way {
                    // Store hit.
                    if self.cfg.write_back {
                        self.sets[set_idx][w].last_use = stamp;
                        self.sets[set_idx][w].dirty = true;
                        self.stats.store_accesses += 1;
                        self.stats.store_hits += 1;
                        return Access::Hit;
                    }
                    // Write-through: also forward downstream.
                    if self.miss_queue.len() as u32 >= self.cfg.miss_queue_len {
                        self.stats.reservation_fails += 1;
                        return Access::Fail(ReservationFailure::MissQueueFull);
                    }
                    self.sets[set_idx][w].last_use = stamp;
                    self.miss_queue.push_back(Downstream {
                        addr: line,
                        kind: DownstreamKind::WriteThrough,
                        size: self.cfg.line_bytes,
                    });
                    self.stats.store_accesses += 1;
                    self.stats.store_hits += 1;
                    return Access::Hit;
                }
                // Store miss.
                if self.cfg.write_allocate {
                    if let Some(m) = self.mshr_of(line) {
                        self.mshrs[m].dirty_on_fill = true;
                        self.stats.store_accesses += 1;
                        self.stats.mshr_merges += 1;
                        return Access::MissMerged;
                    }
                    if self.mshrs.len() as u32 >= self.cfg.mshr_entries {
                        self.stats.reservation_fails += 1;
                        return Access::Fail(ReservationFailure::MshrFull);
                    }
                    if self.miss_queue.len() as u32 >= self.cfg.miss_queue_len {
                        self.stats.reservation_fails += 1;
                        return Access::Fail(ReservationFailure::MissQueueFull);
                    }
                    self.alloc_mshr(
                        line,
                        MshrEntry {
                            waiters: Vec::new(),
                            dirty_on_fill: true,
                        },
                    );
                    self.miss_queue.push_back(Downstream {
                        addr: line,
                        kind: DownstreamKind::Fetch,
                        size: 0,
                    });
                    self.stats.store_accesses += 1;
                    return Access::Miss;
                }
                // No-allocate: forward downstream.
                if self.miss_queue.len() as u32 >= self.cfg.miss_queue_len {
                    self.stats.reservation_fails += 1;
                    return Access::Fail(ReservationFailure::MissQueueFull);
                }
                self.miss_queue.push_back(Downstream {
                    addr: line,
                    kind: DownstreamKind::WriteThrough,
                    size: self.cfg.line_bytes,
                });
                self.stats.store_accesses += 1;
                Access::MissNoAlloc
            }
        }
    }

    /// Books `n` more rejections of an access just rejected for
    /// [`MshrFull`](ReservationFailure::MshrFull) or
    /// [`MergeLimit`](ReservationFailure::MergeLimit): exactly what `n`
    /// identical retries would change before the next fill, since such a
    /// rejection only bumps the LRU use stamp and `reservation_fails`.
    pub fn book_rejected(&mut self, n: u64) {
        self.use_stamp += n;
        self.stats.reservation_fails += n;
    }

    /// Pops the next message destined for the lower level (writebacks drain
    /// first so fills are never blocked).
    pub fn pop_downstream(&mut self) -> Option<Downstream> {
        self.wb_queue.pop_front().or_else(|| self.miss_queue.pop_front())
    }

    /// Whether any downstream message is pending.
    pub fn has_downstream(&self) -> bool {
        !self.wb_queue.is_empty() || !self.miss_queue.is_empty()
    }

    /// Number of MSHR entries currently in use.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// Installs the line containing `addr`, waking its MSHR waiters.
    ///
    /// Chooses an invalid way if available, else the LRU way; a dirty
    /// victim is queued for writeback (internally, never failing) and its
    /// address reported in the outcome.
    pub fn fill(&mut self, addr: u64, _now: Cycle) -> FillOutcome {
        let line = self.line_addr(addr);
        self.use_stamp += 1;
        let stamp = self.use_stamp;
        let set_idx = self.set_index(line);
        self.stats.fills += 1;

        let (ready, dirty_on_fill) = match self.mshr_of(line) {
            Some(m) => {
                self.mshr_lines.swap_remove(m);
                let e = self.mshrs.swap_remove(m);
                (e.waiters, e.dirty_on_fill)
            }
            None => (Vec::new(), false),
        };

        // Already present (e.g. a write-through level receiving a fill for
        // a line a racing fetch installed): refresh and return.
        if let Some(w) = self.sets[set_idx].iter().position(|l| l.valid && l.tag == line) {
            self.sets[set_idx][w].last_use = stamp;
            if dirty_on_fill {
                self.sets[set_idx][w].dirty = true;
            }
            return FillOutcome {
                ready,
                writeback: None,
            };
        }

        // Victim: first invalid way, else LRU.
        let set = &mut self.sets[set_idx];
        let victim = match set.iter().position(|l| !l.valid) {
            Some(w) => w,
            None => set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(w, _)| w)
                .expect("associativity >= 1"),
        };
        let mut writeback = None;
        if set[victim].valid && set[victim].dirty {
            writeback = Some(set[victim].tag);
            self.wb_queue.push_back(Downstream {
                addr: set[victim].tag,
                kind: DownstreamKind::Writeback,
                size: self.cfg.line_bytes,
            });
            self.stats.writebacks += 1;
        }
        set[victim] = Line {
            tag: line,
            valid: true,
            dirty: dirty_on_fill,
            last_use: stamp,
        };
        FillOutcome { ready, writeback }
    }

    /// Invalidates every line. Dirty lines are queued for writeback and
    /// counted; used at kernel boundaries.
    pub fn flush(&mut self) -> u64 {
        let mut dirty = 0;
        for set in &mut self.sets {
            for l in set.iter_mut() {
                if l.valid && l.dirty {
                    dirty += 1;
                    self.wb_queue.push_back(Downstream {
                        addr: l.tag,
                        kind: DownstreamKind::Writeback,
                        size: self.cfg.line_bytes,
                    });
                    self.stats.writebacks += 1;
                }
                l.valid = false;
                l.dirty = false;
            }
        }
        dirty
    }

    /// Whether the cache has no outstanding misses or queued messages.
    pub fn quiesced(&self) -> bool {
        self.mshrs.is_empty() && self.miss_queue.is_empty() && self.wb_queue.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(write_back: bool, write_allocate: bool) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024, // 2 sets x 4 ways x 128B
            line_bytes: 128,
            assoc: 4,
            mshr_entries: 4,
            mshr_max_merge: 2,
            miss_queue_len: 4,
            write_back,
            write_allocate,
        })
    }

    fn id(n: u64) -> Option<ReqId> {
        Some(ReqId(n))
    }

    #[test]
    fn geometry() {
        let c = small(false, false);
        assert_eq!(c.config().num_sets(), 2);
        assert_eq!(c.line_addr(0x1234), 0x1200);
        assert_eq!(c.line_addr(255), 128);
        assert_eq!(c.line_addr(128), 128);
        assert_eq!(c.line_addr(127), 0);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small(false, false);
        assert_eq!(c.access(0, AccessKind::Load, id(1), 0), Access::Miss);
        assert!(!c.probe(0));
        let d = c.pop_downstream().unwrap();
        assert_eq!(d.kind, DownstreamKind::Fetch);
        assert_eq!(d.addr, 0);
        let out = c.fill(0, 10);
        assert_eq!(out.ready, vec![ReqId(1)]);
        assert_eq!(out.writeback, None);
        assert!(c.probe(0));
        assert_eq!(c.access(64, AccessKind::Load, id(2), 11), Access::Hit);
        assert!(c.quiesced());
    }

    #[test]
    fn mshr_merging_and_limit() {
        let mut c = small(false, false);
        assert_eq!(c.access(0, AccessKind::Load, id(1), 0), Access::Miss);
        assert_eq!(c.access(4, AccessKind::Load, id(2), 0), Access::MissMerged);
        // Merge limit is 2; third load to the same line fails.
        assert_eq!(
            c.access(8, AccessKind::Load, id(3), 0),
            Access::Fail(ReservationFailure::MergeLimit)
        );
        let out = c.fill(0, 5);
        assert_eq!(out.ready, vec![ReqId(1), ReqId(2)]);
        assert_eq!(c.stats().mshr_merges, 1);
        assert_eq!(c.stats().reservation_fails, 1);
    }

    #[test]
    fn mshr_capacity_exhaustion() {
        let mut c = small(false, false);
        for i in 0..4u64 {
            assert_eq!(
                c.access(i * 128, AccessKind::Load, id(i), 0),
                Access::Miss
            );
        }
        assert_eq!(c.mshrs_in_use(), 4);
        assert_eq!(
            c.access(4 * 128, AccessKind::Load, id(9), 0),
            Access::Fail(ReservationFailure::MshrFull)
        );
    }

    #[test]
    fn miss_queue_backpressure() {
        let mut c = Cache::new(CacheConfig {
            miss_queue_len: 1,
            ..small(false, false).config().clone()
        });
        assert_eq!(c.access(0, AccessKind::Load, id(1), 0), Access::Miss);
        // Queue is full; a new-line miss fails even though MSHRs are free.
        assert_eq!(
            c.access(128, AccessKind::Load, id(2), 0),
            Access::Fail(ReservationFailure::MissQueueFull)
        );
        c.pop_downstream().unwrap();
        assert_eq!(c.access(128, AccessKind::Load, id(2), 1), Access::Miss);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small(false, false);
        // Fill all 4 ways of set 0 (stride = 2 lines = 256B).
        for i in 0..4u64 {
            c.fill(i * 256, i);
        }
        // Touch line 0 so line 256 becomes LRU.
        assert_eq!(c.access(0, AccessKind::Load, id(1), 10), Access::Hit);
        c.fill(4 * 256, 20);
        assert!(c.probe(0), "recently used line must survive");
        assert!(!c.probe(256), "LRU line must be evicted");
        assert!(c.probe(4 * 256));
    }

    #[test]
    fn write_through_no_allocate_store() {
        let mut c = small(false, false);
        // Store miss: forwarded, not allocated.
        assert_eq!(c.access(0, AccessKind::Store, None, 0), Access::MissNoAlloc);
        assert!(!c.probe(0));
        let d = c.pop_downstream().unwrap();
        assert_eq!(d.kind, DownstreamKind::WriteThrough);
        assert_eq!(d.size, 128);
        // Store hit: stays clean, still forwarded.
        c.fill(0, 1);
        assert_eq!(c.access(0, AccessKind::Store, None, 2), Access::Hit);
        let d = c.pop_downstream().unwrap();
        assert_eq!(d.kind, DownstreamKind::WriteThrough);
        // Eviction produces no writeback because nothing is dirty.
        for i in 1..=4u64 {
            c.fill(i * 256, 10 + i);
        }
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn write_back_allocate_store() {
        let mut c = small(true, true);
        // Store miss allocates (fetch-on-write).
        assert_eq!(c.access(0, AccessKind::Store, None, 0), Access::Miss);
        let d = c.pop_downstream().unwrap();
        assert_eq!(d.kind, DownstreamKind::Fetch);
        let out = c.fill(0, 1);
        assert!(out.ready.is_empty());
        // The filled line is dirty; evicting it writes back.
        for i in 1..=4u64 {
            c.fill(i * 256, 10 + i);
        }
        assert_eq!(c.stats().writebacks, 1);
        let wb = c.pop_downstream().unwrap();
        assert_eq!(wb.kind, DownstreamKind::Writeback);
        assert_eq!(wb.addr, 0);
    }

    #[test]
    fn store_merges_into_pending_fetch() {
        let mut c = small(true, true);
        assert_eq!(c.access(0, AccessKind::Load, id(1), 0), Access::Miss);
        assert_eq!(c.access(0, AccessKind::Store, None, 1), Access::MissMerged);
        let out = c.fill(0, 2);
        assert_eq!(out.ready, vec![ReqId(1)]);
        // Line must be dirty now: evict and expect a writeback.
        for i in 1..=4u64 {
            c.fill(i * 256, 10 + i);
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_invalidates_and_writes_back() {
        let mut c = small(true, true);
        c.fill(0, 0);
        c.access(0, AccessKind::Store, None, 1);
        c.fill(256, 2);
        assert_eq!(c.flush(), 1);
        assert!(!c.probe(0));
        assert!(!c.probe(256));
        let wb = c.pop_downstream().unwrap();
        assert_eq!(wb.kind, DownstreamKind::Writeback);
    }

    #[test]
    fn stats_miss_rate() {
        let mut c = small(false, false);
        c.access(0, AccessKind::Load, id(1), 0);
        c.fill(0, 1);
        c.access(0, AccessKind::Load, id(2), 2);
        let s = c.stats();
        assert_eq!(s.load_accesses, 2);
        assert_eq!(s.load_hits, 1);
        assert!((s.miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fill_of_present_line_is_benign() {
        let mut c = small(false, false);
        c.fill(0, 0);
        let out = c.fill(0, 1);
        assert!(out.ready.is_empty());
        assert!(out.writeback.is_none());
        assert!(c.probe(0));
    }

    /// Filling lines in the reverse of their MSHR allocation order moves
    /// entries around (`swap_remove`); each fill must still return exactly
    /// its own line's waiters, in arrival order, and free one entry.
    #[test]
    fn fills_in_any_order_return_their_own_waiters() {
        let mut c = Cache::new(CacheConfig {
            mshr_max_merge: 3,
            ..small(false, false).config().clone()
        });
        let lines = [0u64, 128, 256, 384];
        // Arrivals interleave across lines: ids 0..12, line = id % 4.
        for n in 0..12u64 {
            let want = if n < 4 {
                Access::Miss
            } else {
                Access::MissMerged
            };
            assert_eq!(
                c.access(lines[(n % 4) as usize] + n, AccessKind::Load, id(n), n),
                want
            );
        }
        assert_eq!(c.mshrs_in_use(), 4);
        for (k, &line) in lines.iter().enumerate().rev() {
            let k = k as u64;
            let out = c.fill(line, 20);
            assert_eq!(out.ready, vec![ReqId(k), ReqId(k + 4), ReqId(k + 8)]);
            assert_eq!(c.mshrs_in_use(), k as usize);
        }
    }

    /// An entry that `swap_remove` moved keeps its merge count: a full
    /// entry still rejects with `MergeLimit` and a fresh line still finds
    /// no entry.
    #[test]
    fn merge_limit_survives_entry_move() {
        let mut c = small(false, false);
        assert_eq!(c.access(0, AccessKind::Load, id(1), 0), Access::Miss);
        assert_eq!(c.access(128, AccessKind::Load, id(2), 0), Access::Miss);
        assert_eq!(c.access(256, AccessKind::Load, id(3), 0), Access::Miss);
        assert_eq!(
            c.access(256, AccessKind::Load, id(4), 0),
            Access::MissMerged
        );
        // Line 0 leaves; line 256's entry moves into its slot.
        assert_eq!(c.fill(0, 1).ready, vec![ReqId(1)]);
        assert_eq!(
            c.access(260, AccessKind::Load, id(5), 2),
            Access::Fail(ReservationFailure::MergeLimit)
        );
        assert_eq!(
            c.access(132, AccessKind::Load, id(6), 2),
            Access::MissMerged
        );
        assert_eq!(c.fill(256, 3).ready, vec![ReqId(3), ReqId(4)]);
        assert_eq!(c.fill(128, 4).ready, vec![ReqId(2), ReqId(6)]);
        assert_eq!(c.mshrs_in_use(), 0);
    }

    #[test]
    fn rejected_access_has_no_side_effects() {
        let mut c = Cache::new(CacheConfig {
            mshr_entries: 1,
            ..small(false, false).config().clone()
        });
        assert_eq!(c.access(0, AccessKind::Load, id(1), 0), Access::Miss);
        let before = c.mshrs_in_use();
        assert!(!c.access(128, AccessKind::Load, id(2), 0).accepted());
        assert_eq!(c.mshrs_in_use(), before);
        assert_eq!(c.stats().load_accesses, 1, "rejected access not counted");
    }
}
