//! A port-serialized crossbar with fixed traversal latency.
//!
//! Connects SM cores to memory partitions (and back). Each input port
//! accepts one packet at a time (a packet occupies its input and output
//! ports for `ceil(size / flit_bytes)` cycles, modeling per-port
//! bandwidth), then traverses the switch in `latency` cycles. Arbitration
//! is rotating-priority and deterministic.

use crate::req::Cycle;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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

crate::counters! {
    /// Crossbar statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct XbarStats in XBAR_COUNTERS {
        /// Packets delivered.
        packets: "1.0";
        /// Flits transferred.
        flits: "1.0";
        /// Packets rejected at injection (input queue full).
        rejected: "1.0";
        /// Sum over packets of cycles spent waiting in an input queue.
        queue_wait: "1.0";
    }
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

// Ordered by `(arrival, seq)`, reversed so the max-heap `traversing`
// pops the earliest arrival first. The `seq` tie-break cannot be
// observed: a packet holds its output until `arrival - latency`, so
// `out_free` serializes each output and its arrivals strictly increase;
// equal arrivals go to different outputs, whose delivery queues are
// independent.
impl<T> Ord for TraversingPacket<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.arrival, other.seq).cmp(&(self.arrival, self.seq))
    }
}

impl<T> PartialOrd for TraversingPacket<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for TraversingPacket<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for TraversingPacket<T> {}

/// A crossbar carrying opaque payloads of type `T`. See the
/// [module docs](self) for the timing model.
#[derive(Debug)]
pub struct Crossbar<T> {
    cfg: XbarConfig,
    queues: Vec<VecDeque<QueuedPacket<T>>>,
    in_free: Vec<Cycle>,
    out_free: Vec<Cycle>,
    traversing: BinaryHeap<TraversingPacket<T>>,
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
            traversing: BinaryHeap::new(),
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
        // Deliver arrivals in (arrival, seq) order.
        while self.traversing.peek().is_some_and(|p| p.arrival <= now) {
            let p = self.traversing.pop().expect("peeked");
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
        if self.delivered.iter().any(|q| !q.is_empty()) {
            return Some(now);
        }
        // The earliest arrival is the heap's top. Nothing is earlier than
        // `now`, so the queue walk stops at the first head due by then.
        let mut next = self
            .traversing
            .peek()
            .map_or(Cycle::MAX, |p| p.arrival.max(now));
        for (src, q) in self.queues.iter().enumerate() {
            if let Some(head) = q.front() {
                next = next.min(self.in_free[src].max(self.out_free[head.dst]).max(now));
                if next == now {
                    return Some(now);
                }
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

    /// Mixed 1- and 4-flit packets from three inputs to two shared
    /// outputs: each output delivers at most one packet per cycle (its
    /// arrivals strictly increase, which is why the heap's `seq` tie-break
    /// is unobservable), each input's packets to an output arrive in
    /// injection order, and once every packet has left its input queue
    /// `next_event` names the next delivery exactly.
    #[test]
    fn shared_outputs_deliver_in_order_and_next_event_is_exact() {
        let mut x: Crossbar<(usize, u64)> = Crossbar::new(XbarConfig {
            in_ports: 3,
            out_ports: 2,
            latency: 3,
            flit_bytes: 32,
            queue_len: 4,
        });
        // (src, dst, size) in injection order per source.
        let mut stream: VecDeque<(usize, usize, u32)> = (0..60u64)
            .map(|i| {
                (
                    (i % 3) as usize,
                    (i * 7 % 5 % 2) as usize,
                    [0, 128][(i * 11 % 3 % 2) as usize],
                )
            })
            .collect();
        let mut sent = vec![[0u64; 2]; 3];
        let mut got = vec![[0u64; 2]; 3];
        let mut predicted: Option<Cycle> = None;
        let mut checked = 0;
        for now in 0..2_000 {
            while let Some(&(src, dst, size)) = stream.front() {
                if !x.try_send(now, src, dst, size, (src, sent[src][dst])) {
                    break;
                }
                sent[src][dst] += 1;
                stream.pop_front();
            }
            x.tick(now);
            let mut delivered = false;
            for dst in 0..2 {
                let mut n = 0;
                while let Some((src, k)) = x.pop_delivered(dst) {
                    assert_eq!(k, got[src][dst], "input {src} to output {dst} out of order");
                    got[src][dst] += 1;
                    n += 1;
                }
                assert!(n <= 1, "output {dst} got {n} packets at cycle {now}");
                delivered |= n > 0;
            }
            if delivered {
                if let Some(p) = predicted.take() {
                    assert_eq!(p, now, "next_event missed the delivery");
                    checked += 1;
                }
            }
            if x.quiesced() {
                break;
            }
            if stream.is_empty() && x.queues.iter().all(VecDeque::is_empty) {
                predicted = x.next_event(now + 1);
            }
        }
        assert!(x.quiesced());
        assert_eq!(got, sent);
        assert!(checked >= 2, "only {checked} predictions checked");
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
