//! A port-serialized crossbar with fixed traversal latency.
//!
//! Connects SM cores to memory partitions (and back). Each input port
//! accepts one packet at a time (a packet occupies its input and output
//! ports for `ceil(size / flit_bytes)` cycles, modeling per-port
//! bandwidth), then traverses the switch in `latency` cycles. Arbitration
//! is rotating-priority and deterministic.

use crate::req::Cycle;
use std::collections::VecDeque;

/// Crossbar geometry and timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XbarConfig {
    /// Number of input ports.
    pub in_ports: usize,
    /// Number of output ports.
    pub out_ports: usize,
    /// Switch traversal latency in cycles.
    pub latency: u32,
    /// Flit size in bytes: a packet holds a port for `ceil(size/flit)`
    /// cycles (minimum 1, for header-only packets).
    pub flit_bytes: u32,
    /// Per-input-port queue capacity.
    pub queue_len: usize,
}

impl XbarConfig {
    /// Fermi-like defaults: 8-cycle traversal, 32 B flits, 8-deep input
    /// queues.
    pub fn default_with_ports(in_ports: usize, out_ports: usize) -> Self {
        XbarConfig {
            in_ports,
            out_ports,
            latency: 8,
            flit_bytes: 32,
            queue_len: 8,
        }
    }
}

/// Crossbar statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XbarStats {
    /// Packets delivered.
    pub packets: u64,
    /// Flits transferred.
    pub flits: u64,
    /// Packets rejected at injection (input queue full).
    pub rejected: u64,
    /// Sum over packets of cycles spent waiting in an input queue.
    pub queue_wait: u64,
}

#[derive(Debug)]
struct QueuedPacket<T> {
    dst: usize,
    flits: u64,
    payload: T,
    enqueued: Cycle,
}

#[derive(Debug)]
struct TraversingPacket<T> {
    arrival: Cycle,
    dst: usize,
    seq: u64,
    payload: T,
}

/// A crossbar carrying opaque payloads of type `T`. See the
/// [module docs](self) for the timing model.
#[derive(Debug)]
pub struct Crossbar<T> {
    cfg: XbarConfig,
    queues: Vec<VecDeque<QueuedPacket<T>>>,
    in_free: Vec<Cycle>,
    out_free: Vec<Cycle>,
    traversing: Vec<TraversingPacket<T>>,
    delivered: Vec<VecDeque<T>>,
    seq: u64,
    stats: XbarStats,
}

impl<T> Crossbar<T> {
    /// Builds a crossbar from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(cfg: XbarConfig) -> Self {
        assert!(cfg.in_ports >= 1 && cfg.out_ports >= 1);
        assert!(cfg.flit_bytes >= 1 && cfg.queue_len >= 1);
        Crossbar {
            queues: (0..cfg.in_ports).map(|_| VecDeque::new()).collect(),
            in_free: vec![0; cfg.in_ports],
            out_free: vec![0; cfg.out_ports],
            traversing: Vec::new(),
            delivered: (0..cfg.out_ports).map(|_| VecDeque::new()).collect(),
            seq: 0,
            stats: XbarStats::default(),
            cfg,
        }
    }

    /// The configuration this crossbar was built with.
    pub fn config(&self) -> &XbarConfig {
        &self.cfg
    }

    /// Number of flits a packet of `size` bytes occupies.
    pub fn packet_flits(&self, size: u32) -> u64 {
        u64::from(size.div_ceil(self.cfg.flit_bytes).max(1))
    }

    /// Whether input port `src` can accept a packet.
    pub fn can_send(&self, src: usize) -> bool {
        self.queues[src].len() < self.cfg.queue_len
    }

    /// Injects a packet at input `src` for output `dst`. Returns `false`
    /// (and counts a rejection) if the input queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn try_send(&mut self, now: Cycle, src: usize, dst: usize, size: u32, payload: T) -> bool {
        assert!(dst < self.cfg.out_ports, "destination out of range");
        if !self.can_send(src) {
            self.stats.rejected += 1;
            return false;
        }
        let flits = self.packet_flits(size);
        self.queues[src].push_back(QueuedPacket {
            dst,
            flits,
            payload,
            enqueued: now,
        });
        true
    }

    /// Advances one cycle: arbitrates input queues onto output ports and
    /// moves arrivals into their delivery queues.
    pub fn tick(&mut self, now: Cycle) {
        // Deliver arrivals (sorted for determinism). Remove from highest
        // index down so swap_remove indices stay valid, then order the
        // removed packets by (arrival, seq).
        let arrived: Vec<usize> = (0..self.traversing.len())
            .filter(|&i| self.traversing[i].arrival <= now)
            .collect();
        let mut items: Vec<TraversingPacket<T>> = Vec::with_capacity(arrived.len());
        for &i in arrived.iter().rev() {
            items.push(self.traversing.swap_remove(i));
        }
        items.sort_by_key(|p| (p.arrival, p.seq));
        for p in items {
            self.delivered[p.dst].push_back(p.payload);
            self.stats.packets += 1;
        }

        // Rotating-priority arbitration across input ports.
        let n = self.cfg.in_ports;
        let start = (now % n as u64) as usize;
        for k in 0..n {
            let src = (start + k) % n;
            if self.in_free[src] > now {
                continue;
            }
            let Some(head) = self.queues[src].front() else {
                continue;
            };
            let dst = head.dst;
            if self.out_free[dst] > now {
                continue;
            }
            let pkt = self.queues[src].pop_front().expect("head exists");
            let busy = pkt.flits;
            self.in_free[src] = now + busy;
            self.out_free[dst] = now + busy;
            self.stats.flits += busy;
            self.stats.queue_wait += now - pkt.enqueued;
            self.seq += 1;
            self.traversing.push(TraversingPacket {
                arrival: now + busy + u64::from(self.cfg.latency),
                dst,
                seq: self.seq,
                payload: pkt.payload,
            });
        }
    }

    /// Pops the next packet delivered at output `dst`.
    pub fn pop_delivered(&mut self, dst: usize) -> Option<T> {
        self.delivered[dst].pop_front()
    }

    /// Whether a packet awaits pickup at output `dst`.
    pub fn has_delivered(&self, dst: usize) -> bool {
        !self.delivered[dst].is_empty()
    }

    /// Whether no packets are queued, traversing, or awaiting pickup.
    pub fn quiesced(&self) -> bool {
        self.traversing.is_empty()
            && self.queues.iter().all(VecDeque::is_empty)
            && self.delivered.iter().all(VecDeque::is_empty)
    }

    /// The earliest cycle `>= now` at which this crossbar either changes
    /// state when ticked or has output waiting for a consumer, or `None`
    /// when it is quiesced. Conservative: may return a cycle at which
    /// nothing happens (rotating arbitration makes the exact start cycle
    /// of a queued packet priority-dependent), but never skips past one.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next = Cycle::MAX;
        if self.delivered.iter().any(|q| !q.is_empty()) {
            return Some(now);
        }
        // Nothing is earlier than `now`, so the walks stop at the first
        // packet due by then.
        for (src, q) in self.queues.iter().enumerate() {
            if let Some(head) = q.front() {
                next = next.min(self.in_free[src].max(self.out_free[head.dst]).max(now));
                if next == now {
                    return Some(now);
                }
            }
        }
        for p in &self.traversing {
            next = next.min(p.arrival.max(now));
            if next == now {
                return Some(now);
            }
        }
        (next != Cycle::MAX).then_some(next)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &XbarStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar() -> Crossbar<u64> {
        Crossbar::new(XbarConfig {
            in_ports: 2,
            out_ports: 2,
            latency: 4,
            flit_bytes: 32,
            queue_len: 2,
        })
    }

    fn drain(x: &mut Crossbar<u64>, dst: usize, until: Cycle) -> Vec<(Cycle, u64)> {
        let mut got = Vec::new();
        for now in 0..until {
            x.tick(now);
            while let Some(p) = x.pop_delivered(dst) {
                got.push((now, p));
            }
        }
        got
    }

    #[test]
    fn single_packet_latency() {
        let mut x = xbar();
        assert!(x.try_send(0, 0, 1, 32, 7));
        let got = drain(&mut x, 1, 20);
        assert_eq!(got, vec![(5, 7)]); // 1 flit + 4 latency, accepted at 0
        assert!(x.quiesced());
    }

    #[test]
    fn header_only_packet_is_one_flit() {
        let x = xbar();
        assert_eq!(x.packet_flits(0), 1);
        assert_eq!(x.packet_flits(32), 1);
        assert_eq!(x.packet_flits(33), 2);
        assert_eq!(x.packet_flits(128), 4);
    }

    #[test]
    fn output_port_contention_serializes() {
        let mut x = xbar();
        // Both inputs target output 0 with 4-flit packets.
        assert!(x.try_send(0, 0, 0, 128, 1));
        assert!(x.try_send(0, 1, 0, 128, 2));
        let got = drain(&mut x, 0, 40);
        assert_eq!(got.len(), 2);
        let (t1, t2) = (got[0].0, got[1].0);
        assert!(t2 >= t1 + 4, "4-flit packets must serialize on the output");
    }

    #[test]
    fn distinct_outputs_proceed_in_parallel() {
        let mut x = xbar();
        assert!(x.try_send(0, 0, 0, 128, 1));
        assert!(x.try_send(0, 1, 1, 128, 2));
        let mut done = vec![];
        for now in 0..40 {
            x.tick(now);
            for d in 0..2 {
                while let Some(p) = x.pop_delivered(d) {
                    done.push((now, p));
                }
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, done[1].0, "disjoint ports should not contend");
    }

    #[test]
    fn input_queue_capacity() {
        let mut x = xbar();
        assert!(x.try_send(0, 0, 0, 32, 1));
        assert!(x.try_send(0, 0, 0, 32, 2));
        assert!(!x.can_send(0));
        assert!(!x.try_send(0, 0, 0, 32, 3));
        assert_eq!(x.stats().rejected, 1);
    }

    #[test]
    fn fifo_order_per_input() {
        let mut x = xbar();
        x.try_send(0, 0, 1, 32, 10);
        x.try_send(0, 0, 1, 32, 20);
        let got = drain(&mut x, 1, 30);
        assert_eq!(got.iter().map(|g| g.1).collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    fn stats_accumulate() {
        let mut x = xbar();
        x.try_send(0, 0, 1, 128, 1);
        drain(&mut x, 1, 30);
        assert_eq!(x.stats().packets, 1);
        assert_eq!(x.stats().flits, 4);
    }
}
