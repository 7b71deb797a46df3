//! Microbenches of the simulator substrate itself: cache, DRAM,
//! crossbar, coalescer, and SIMT-stack hot paths. These guard the
//! simulator's own performance (simulated cycles per host second), which
//! bounds how large an experiment the harness can run.
//!
//! Plain `Instant`-based timing over a fixed iteration count — no
//! external bench framework, so the crate builds with no third-party
//! dependencies.

use gpgpu_mem::dram::DramRequest;
use gpgpu_mem::{
    AccessKind, Cache, CacheConfig, Crossbar, DramChannel, DramConfig, ReqId, XbarConfig,
};
use gpgpu_sim::coalesce::coalesce;
use gpgpu_sim::{SimtStack, FULL_MASK};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 200_000;

/// Times `iters` calls of `f` and prints ns/iteration.
fn bench(label: &str, iters: u64, mut f: impl FnMut()) {
    for _ in 0..iters / 10 {
        f(); // warmup
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    println!("{label:30} {ns:10.1} ns/iter");
}

fn bench_cache() {
    let mut cache = Cache::new(CacheConfig::l1_data_default());
    cache.fill(0, 0);
    bench("cache/hit-access", ITERS, || {
        black_box(cache.access(black_box(0x40), AccessKind::Load, Some(ReqId(1)), 0));
    });
    let mut cache = Cache::new(CacheConfig::l1_data_default());
    let mut addr = 0u64;
    bench("cache/miss-fill-cycle", ITERS, || {
        addr = addr.wrapping_add(128);
        let _ = cache.access(addr, AccessKind::Load, Some(ReqId(addr)), 0);
        let _ = cache.pop_downstream();
        black_box(cache.fill(addr, 0));
    });
}

fn bench_dram() {
    let mut chan = DramChannel::new(DramConfig::gddr5_default());
    let mut now = 0u64;
    let mut addr = 0u64;
    bench("dram/submit-tick", ITERS, || {
        addr = addr.wrapping_add(128) % (1 << 20);
        let _ = chan.submit(
            DramRequest {
                local_addr: addr,
                is_read: true,
                token: addr,
            },
            now,
        );
        let done = chan.tick(now);
        now += 1;
        black_box(done);
    });
}

/// A saturated channel: a full queue and every bank busy, so a tick can
/// neither complete nor issue anything.
fn bench_dram_saturated() {
    let cfg = DramConfig::gddr5_default();
    let mut chan = DramChannel::new(cfg.clone());
    let req = |local_addr: u64| DramRequest {
        local_addr,
        is_read: true,
        token: local_addr,
    };
    // One request per bank (consecutive rows map to consecutive banks),
    // issued one per cycle, then a full queue behind them.
    let row = u64::from(cfg.row_bytes);
    for b in 0..u64::from(cfg.banks) {
        assert!(chan.submit(req(b * row), 0));
    }
    let now = u64::from(cfg.banks);
    for t in 0..now {
        assert!(chan.tick(t).is_empty());
    }
    for i in 0..u64::from(cfg.queue_len) {
        assert!(chan.submit(req(i * row + 128), now));
    }
    bench("dram/saturated-tick", ITERS, || {
        black_box(chan.tick(black_box(now)));
    });
    assert!(!chan.can_accept(), "the queue stayed full");
}

fn bench_xbar() {
    let mut x: Crossbar<u64> = Crossbar::new(XbarConfig::default_with_ports(15, 6));
    let mut now = 0u64;
    bench("xbar/send-tick-pop", ITERS, || {
        let _ = x.try_send(now, (now % 15) as usize, (now % 6) as usize, 128, now);
        x.tick(now);
        for d in 0..6 {
            while let Some(p) = x.pop_delivered(d) {
                black_box(p);
            }
        }
        now += 1;
    });
}

fn bench_coalesce() {
    let coalesced: [u64; 32] = std::array::from_fn(|l| 0x1000 + 4 * l as u64);
    let scattered: [u64; 32] = std::array::from_fn(|l| (l as u64) * 4096 + 64);
    bench("coalesce/unit-stride", ITERS, || {
        black_box(coalesce(black_box(&coalesced), FULL_MASK, 4, 128));
    });
    bench("coalesce/scattered", ITERS, || {
        black_box(coalesce(black_box(&scattered), FULL_MASK, 4, 128));
    });
}

fn bench_simt() {
    bench("simt/divergent-loop", ITERS / 10, || {
        let mut s = SimtStack::new(FULL_MASK);
        let mut live = FULL_MASK;
        for i in 0..31u32 {
            let leaving = 1u32 << i;
            s.branch(leaving, live & !leaving, 100, 100);
            live &= !leaving;
            let _ = black_box(s.sync(0));
            s.jump(0);
        }
        black_box(s.depth());
    });
}

fn main() {
    bench_cache();
    bench_dram();
    bench_dram_saturated();
    bench_xbar();
    bench_coalesce();
    bench_simt();
}
