//! Property-style tests for the memory substrate: the cache against a
//! reference LRU model, DRAM conservation laws, and crossbar delivery.
//!
//! Cases are drawn from the seeded SplitMix64 generator in
//! `gpgpu-testkit` (shared across the workspace), so the crate builds
//! with no third-party dependencies and every run checks the same cases.

use gpgpu_mem::cache::DownstreamKind;
use gpgpu_mem::dram::{DramCompletion, DramRequest};
use gpgpu_mem::{
    Access, AccessKind, Cache, CacheConfig, Crossbar, DramChannel, DramConfig, DramStats, ReqId,
    XbarConfig,
};
use gpgpu_testkit::Gen;
use std::collections::VecDeque;

/// A trivially correct reference for hit/miss classification of a
/// fully-drained (always-filled-immediately) LRU cache.
struct RefLru {
    sets: Vec<VecDeque<u64>>,
    line: u64,
    assoc: usize,
}

impl RefLru {
    fn new(sets: usize, assoc: usize, line: u64) -> Self {
        RefLru {
            sets: (0..sets).map(|_| VecDeque::new()).collect(),
            line,
            assoc,
        }
    }

    /// Returns whether `addr` hits, then touches/installs it.
    fn access(&mut self, addr: u64) -> bool {
        let l = addr & !(self.line - 1);
        let set = ((l / self.line) as usize) % self.sets.len();
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&x| x == l) {
            s.remove(pos);
            s.push_back(l);
            true
        } else {
            if s.len() == self.assoc {
                s.pop_front();
            }
            s.push_back(l);
            false
        }
    }
}

/// When every miss is filled before the next access (no overlap), the
/// cache must classify hits/misses exactly like a reference LRU.
#[test]
fn cache_matches_reference_lru() {
    let mut g = Gen::new(0xCACE);
    for _ in 0..64 {
        let addrs = g.vec(0, 4096, 1, 200);
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            assoc: 2,
            mshr_entries: 8,
            mshr_max_merge: 8,
            miss_queue_len: 8,
            write_back: false,
            write_allocate: false,
        };
        let mut cache = Cache::new(cfg);
        let mut reference = RefLru::new(8, 2, 64);
        for (i, &addr) in addrs.iter().enumerate() {
            let expect_hit = reference.access(addr);
            let got = cache.access(addr, AccessKind::Load, Some(ReqId(i as u64)), i as u64);
            match got {
                Access::Hit => assert!(expect_hit, "spurious hit at {addr:#x}"),
                Access::Miss => {
                    assert!(!expect_hit, "spurious miss at {addr:#x}");
                    // Fill immediately to keep the reference in sync.
                    let d = cache.pop_downstream().expect("fetch queued");
                    assert_eq!(d.kind, DownstreamKind::Fetch);
                    cache.fill(addr, i as u64);
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }
}

/// MSHR occupancy never exceeds capacity, and every waiter is returned
/// by exactly one fill.
#[test]
fn cache_mshr_conservation() {
    let mut g = Gen::new(0x5185);
    for _ in 0..64 {
        let addrs = g.vec(0, 2048, 1, 100);
        let cfg = CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
            mshr_entries: 4,
            mshr_max_merge: 4,
            miss_queue_len: 4,
            write_back: false,
            write_allocate: false,
        };
        let mut cache = Cache::new(cfg);
        let mut accepted = Vec::new();
        let mut completed = Vec::new();
        for (i, &addr) in addrs.iter().enumerate() {
            let id = ReqId(i as u64);
            match cache.access(addr, AccessKind::Load, Some(id), i as u64) {
                Access::Hit => completed.push(id),
                Access::Miss | Access::MissMerged => accepted.push(id),
                Access::MissNoAlloc => unreachable!("loads never no-alloc"),
                Access::Fail(_) => {
                    // Drain one fetch to make room, then move on.
                    if let Some(d) = cache.pop_downstream() {
                        let out = cache.fill(d.addr, i as u64);
                        completed.extend(out.ready);
                    }
                }
            }
            assert!(cache.mshrs_in_use() <= 4);
        }
        // Drain everything.
        while let Some(d) = cache.pop_downstream() {
            if d.kind == DownstreamKind::Fetch {
                let out = cache.fill(d.addr, 10_000);
                completed.extend(out.ready);
            }
        }
        assert!(cache.quiesced());
        let mut waited: Vec<u64> = accepted.iter().map(|r| r.0).collect();
        let mut done: Vec<u64> = completed.iter().map(|r| r.0).collect();
        waited.sort_unstable();
        done.sort_unstable();
        // Every accepted (non-hit) id appears exactly once among fills.
        for id in waited {
            assert!(done.binary_search(&id).is_ok(), "request {id} lost");
        }
    }
}

/// DRAM conserves requests and respects the minimum access latency.
#[test]
fn dram_conserves_requests() {
    let mut g = Gen::new(0xD7A);
    for _ in 0..32 {
        let addrs = g.vec(0, 65536, 1, 64);
        let mut chan = DramChannel::new(DramConfig::gddr5_default());
        let min_latency = u64::from(DramConfig::gddr5_default().t_cas);
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut queue: VecDeque<(u64, u64)> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (i as u64, a & !127))
            .collect();
        let mut submit_times = std::collections::HashMap::new();
        for now in 0..100_000u64 {
            if let Some(&(token, addr)) = queue.front() {
                if chan.submit(
                    DramRequest {
                        local_addr: addr,
                        is_read: true,
                        token,
                    },
                    now,
                ) {
                    submit_times.insert(token, now);
                    submitted += 1;
                    queue.pop_front();
                }
            }
            for c in chan.tick(now) {
                completed += 1;
                let t0 = submit_times[&c.token];
                assert!(now >= t0 + min_latency, "completion faster than tCAS");
            }
            if queue.is_empty() && chan.quiesced() {
                break;
            }
        }
        assert_eq!(submitted, completed);
        assert_eq!(submitted, addrs.len() as u64);
    }
}

/// The crossbar delivers every accepted packet exactly once, to the
/// right port.
#[test]
fn crossbar_delivers_everything() {
    let mut g = Gen::new(0xBA2);
    for _ in 0..32 {
        let n = g.range(1, 50);
        let pkts: Vec<(usize, usize, u32)> = (0..n)
            .map(|_| {
                (
                    g.range(0, 4) as usize,
                    g.range(0, 3) as usize,
                    g.range(0, 256) as u32,
                )
            })
            .collect();
        let mut x: Crossbar<(usize, usize)> = Crossbar::new(XbarConfig {
            in_ports: 4,
            out_ports: 3,
            latency: 4,
            flit_bytes: 32,
            queue_len: 4,
        });
        let mut pending: VecDeque<(usize, usize, u32)> = pkts.iter().copied().collect();
        let mut sent = 0usize;
        let mut got = vec![0usize; 3];
        for now in 0..10_000u64 {
            if let Some(&(src, dst, size)) = pending.front() {
                if x.try_send(now, src, dst, size, (src, dst)) {
                    sent += 1;
                    pending.pop_front();
                }
            }
            x.tick(now);
            for d in 0..3 {
                while let Some((_, pdst)) = x.pop_delivered(d) {
                    assert_eq!(pdst, d, "misrouted packet");
                    got[d] += 1;
                }
            }
            if pending.is_empty() && x.quiesced() {
                break;
            }
        }
        assert_eq!(sent, pkts.len());
        assert_eq!(got.iter().sum::<usize>(), sent);
    }
}

/// A single-bank channel so that arbitration decisions are externally
/// observable through completion order alone.
fn one_bank_chan(max_bypass: u32) -> DramChannel {
    DramChannel::new(DramConfig {
        banks: 1,
        row_bytes: 1024,
        line_bytes: 128,
        t_rcd: 10,
        t_rp: 10,
        t_cas: 10,
        t_burst: 4,
        queue_len: 64,
        max_bypass,
    })
}

fn drive(c: &mut DramChannel, start: u64, max: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for now in start..start + max {
        for d in c.tick(now) {
            out.push((now, d.token));
        }
        if c.quiesced() {
            break;
        }
    }
    out
}

/// FR-FCFS: younger row-hit requests are served before an older row-miss
/// request to the same bank, as long as the starvation cap is not hit.
#[test]
fn row_hits_overtake_older_misses_under_cap() {
    let mut g = Gen::new(0xF2FC);
    for _ in 0..64 {
        let mut c = one_bank_chan(1_000);
        // Open row 0.
        assert!(c.submit(
            DramRequest {
                local_addr: 0,
                is_read: true,
                token: 0,
            },
            0,
        ));
        let warm = drive(&mut c, 0, 100);
        let now = warm.last().unwrap().0 + 1;
        // An older miss (row >= 1 of the same, single bank)…
        let miss_row = g.range(1, 8);
        assert!(c.submit(
            DramRequest {
                local_addr: miss_row * 1024,
                is_read: true,
                token: 1_000,
            },
            now,
        ));
        // …followed by younger hits to the still-open row 0.
        let hits = g.range(1, 16);
        for t in 0..hits {
            assert!(c.submit(
                DramRequest {
                    local_addr: (t % 8) * 128,
                    is_read: true,
                    token: t,
                },
                now,
            ));
        }
        let done = drive(&mut c, now, 10_000);
        assert_eq!(done.len() as u64, hits + 1, "everything completes");
        let miss_pos = done.iter().position(|&(_, t)| t == 1_000).unwrap();
        assert_eq!(
            miss_pos as u64, hits,
            "all {hits} younger row hits must overtake the older miss"
        );
    }
}

/// The starvation cap bounds how many younger requests can overtake an
/// older one: under a sustained row-hit stream, a row-miss request is
/// bypassed at most `max_bypass` times before it is forced through.
#[test]
fn no_request_starves_past_the_cap() {
    let mut g = Gen::new(0x57A2);
    for _ in 0..32 {
        let cap = g.range(1, 9) as u32;
        let mut c = one_bank_chan(cap);
        // Open row 0.
        assert!(c.submit(
            DramRequest {
                local_addr: 0,
                is_read: true,
                token: 0,
            },
            0,
        ));
        let warm = drive(&mut c, 0, 100);
        let mut now = warm.last().unwrap().0 + 1;
        // The victim: a miss to another row of the only bank.
        assert!(c.submit(
            DramRequest {
                local_addr: 3 * 1024,
                is_read: true,
                token: 1_000_000,
            },
            now,
        ));
        // Sustained stream of row-0 hits: keep the queue topped up until
        // well past any plausible service point.
        let mut next_token = 1u64;
        let mut done = Vec::new();
        let mut victim_done_at = None;
        for _ in 0..200_000u64 {
            while c.can_accept() && next_token < 4_000 {
                assert!(c.submit(
                    DramRequest {
                        local_addr: (next_token % 8) * 128,
                        is_read: true,
                        token: next_token,
                    },
                    now,
                ));
                next_token += 1;
            }
            for d in c.tick(now) {
                if d.token == 1_000_000 {
                    victim_done_at = Some(done.len());
                }
                done.push(d.token);
            }
            now += 1;
            if victim_done_at.is_some() {
                break;
            }
        }
        let pos = victim_done_at.expect("victim must be serviced");
        // Position 0 is the warm-up-adjacent stream; every completion
        // before the victim (beyond the cap) would be a starvation bug.
        assert!(
            pos as u32 <= cap,
            "victim bypassed {pos} times with cap {cap}"
        );
    }
}

/// `max_bypass: 0` disables reordering entirely: completions follow
/// submission order even when younger row hits are available.
#[test]
fn zero_cap_is_pure_fcfs() {
    let mut g = Gen::new(0xFCF5);
    for _ in 0..32 {
        let mut c = one_bank_chan(0);
        let n = g.range(2, 20);
        let mut submitted = Vec::new();
        for t in 0..n {
            // Random mix of rows in the single bank.
            let row = g.range(0, 4);
            assert!(c.submit(
                DramRequest {
                    local_addr: row * 1024 + (t % 8) * 128,
                    is_read: true,
                    token: t,
                },
                0,
            ));
            submitted.push(t);
        }
        let done: Vec<u64> = drive(&mut c, 0, 50_000).iter().map(|&(_, t)| t).collect();
        assert_eq!(done, submitted, "FCFS must preserve submission order");
    }
}

/// Reference FR-FCFS channel with no wake time: every tick walks the
/// in-flight list and the whole queue.
struct RefDram {
    cfg: DramConfig,
    /// `(request, enqueued, bank, row, bypass)`, oldest first.
    queue: VecDeque<(DramRequest, u64, usize, u64, u32)>,
    /// `(open row, busy until)` per bank.
    banks: Vec<(Option<u64>, u64)>,
    bus_free: u64,
    /// `(completion, enqueued, request)`.
    in_flight: Vec<(u64, u64, DramRequest)>,
    stats: DramStats,
}

impl RefDram {
    fn new(cfg: DramConfig) -> Self {
        RefDram {
            banks: vec![(None, 0); cfg.banks as usize],
            cfg,
            queue: VecDeque::new(),
            bus_free: 0,
            in_flight: Vec::new(),
            stats: DramStats::default(),
        }
    }

    fn submit(&mut self, req: DramRequest, now: u64) -> bool {
        if self.queue.len() as u32 >= self.cfg.queue_len {
            self.stats.rejected += 1;
            return false;
        }
        let line = req.local_addr / u64::from(self.cfg.line_bytes);
        let per_row = u64::from(self.cfg.row_bytes / self.cfg.line_bytes);
        let bank = (line / per_row) % u64::from(self.cfg.banks);
        let row = line / (per_row * u64::from(self.cfg.banks));
        self.queue.push_back((req, now, bank as usize, row, 0));
        true
    }

    fn tick(&mut self, now: u64) -> Vec<DramCompletion> {
        let (due, rest): (Vec<_>, Vec<_>) = self.in_flight.iter().partition(|f| f.0 <= now);
        self.in_flight = rest;
        let mut done = Vec::new();
        for (completion, enqueued, r) in due {
            self.stats.total_latency += completion - enqueued;
            if r.is_read {
                self.stats.reads += 1;
            } else {
                self.stats.writes += 1;
            }
            done.push(DramCompletion {
                token: r.token,
                is_read: r.is_read,
                local_addr: r.local_addr,
            });
        }
        done.sort_by_key(|c| (c.local_addr, c.token));
        let free = |q: &(DramRequest, u64, usize, u64, u32)| self.banks[q.2].1 <= now;
        let serviceable: Vec<usize> = (0..self.queue.len())
            .filter(|&i| free(&self.queue[i]))
            .collect();
        let capped = serviceable
            .iter()
            .any(|&i| self.queue[i].4 >= self.cfg.max_bypass);
        let hit = serviceable
            .iter()
            .copied()
            .find(|&i| self.banks[self.queue[i].2].0 == Some(self.queue[i].3));
        let pick = if capped {
            serviceable.first().copied()
        } else {
            hit.or(serviceable.first().copied())
        };
        if let Some(idx) = pick {
            for &i in serviceable.iter().take_while(|&&i| i < idx) {
                self.queue[i].4 += 1;
            }
            let (req, enqueued, bank, row, _) = self.queue.remove(idx).unwrap();
            let c = &self.cfg;
            let lat = match self.banks[bank].0 {
                Some(r) if r == row => (&mut self.stats.row_hits, c.t_cas),
                Some(_) => (&mut self.stats.row_conflicts, c.t_rp + c.t_rcd + c.t_cas),
                None => (&mut self.stats.row_empty, c.t_rcd + c.t_cas),
            };
            *lat.0 += 1;
            let completion = (now + u64::from(lat.1)).max(self.bus_free) + u64::from(c.t_burst);
            self.banks[bank] = (Some(row), completion);
            self.bus_free = completion;
            self.in_flight.push((completion, enqueued, req));
        }
        done
    }
}

/// A seeded channel configuration and submit stream: `(earliest cycle,
/// request)` in submission order, over a few banks and rows so row hits,
/// conflicts and bank-busy stalls all occur.
fn dram_case(g: &mut Gen) -> (DramConfig, Vec<(u64, DramRequest)>) {
    let cfg = DramConfig {
        banks: *g.choose(&[1, 2, 4, 16]),
        row_bytes: *g.choose(&[256, 1024, 2048]),
        line_bytes: 128,
        t_rcd: g.range(1, 41) as u32,
        t_rp: g.range(1, 41) as u32,
        t_cas: g.range(1, 41) as u32,
        t_burst: g.range(1, 9) as u32,
        queue_len: g.range(4, 33) as u32,
        max_bypass: *g.choose(&[0, 2, 16]),
    };
    let lines = u64::from(cfg.row_bytes / cfg.line_bytes) * u64::from(cfg.banks) * 4;
    let mut t = 0;
    let stream = (0..g.range(1, 300))
        .map(|token| {
            // Zero gaps keep a request waiting every cycle and fill the
            // queue; long gaps let it drain and the banks go idle.
            t += *g.choose(&[0, 0, 1, 1, 2, 5, 30, 150]);
            let req = DramRequest {
                local_addr: g.range(0, lines) * 128,
                is_read: g.chance(3, 4),
                token,
            };
            (t, req)
        })
        .collect();
    (cfg, stream)
}

/// Per-cycle completions, stats, and the cycles each submit was accepted.
type DramTrace = (Vec<(u64, DramCompletion)>, DramStats, Vec<u64>);

/// Drives a channel with `stream`, one submit attempt per cycle (a
/// rejected request is retried on the next), ticking before submitting as
/// the fabric does. `tick_now(chan, now, submitting)` says whether to
/// tick this cycle.
fn drive_stream<C>(
    chan: &mut C,
    stream: &[(u64, DramRequest)],
    tick: impl Fn(&mut C, u64) -> Vec<DramCompletion>,
    submit: impl Fn(&mut C, DramRequest, u64) -> bool,
    stats: impl Fn(&C) -> DramStats,
    tick_now: impl Fn(&C, u64, bool) -> bool,
) -> DramTrace {
    let (mut done, mut accepted) = (Vec::new(), Vec::new());
    let mut next = 0;
    for now in 0..1_000_000u64 {
        let submitting = stream.get(next).is_some_and(|s| s.0 <= now);
        if tick_now(chan, now, submitting) {
            done.extend(tick(chan, now).into_iter().map(|c| (now, c)));
        }
        if submitting && submit(chan, stream[next].1, now) {
            accepted.push(now);
            next += 1;
        }
        if next == stream.len() && done.len() == stream.len() {
            break;
        }
    }
    assert_eq!(done.len(), stream.len(), "every request completes");
    (done, stats(chan), accepted)
}

/// The wake-timed channel is cycle-exact against the walk-every-tick
/// reference: same per-cycle completions, same acceptances, same
/// `DramStats`. Ticking only on submission cycles and cycles where
/// `next_event(now) == Some(now)` gives the same again, which is the
/// contract the device's idle fast-forward relies on.
#[test]
fn dram_matches_walking_reference() {
    let mut g = Gen::new(0xD3A4);
    for case in 0..200 {
        let (cfg, stream) = dram_case(&mut g);
        let want = drive_stream(
            &mut RefDram::new(cfg.clone()),
            &stream,
            RefDram::tick,
            RefDram::submit,
            |c| c.stats,
            |_, _, _| true,
        );
        let stats = |c: &DramChannel| *c.stats();
        let every = drive_stream(
            &mut DramChannel::new(cfg.clone()),
            &stream,
            DramChannel::tick,
            DramChannel::submit,
            stats,
            |_, _, _| true,
        );
        assert_eq!(every, want, "case {case}: every-cycle drive, {cfg:?}");
        let skipping = drive_stream(
            &mut DramChannel::new(cfg.clone()),
            &stream,
            DramChannel::tick,
            DramChannel::submit,
            stats,
            |c, now, submitting| submitting || c.next_event(now) == Some(now),
        );
        assert_eq!(skipping, want, "case {case}: event-driven drive, {cfg:?}");
    }
}
