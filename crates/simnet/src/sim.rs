//! The discrete-event kernel.
//!
//! Generic over the message type `M`: callers schedule messages between
//! nodes, then pump the event queue with a handler closure. Each node is
//! a serial server — a message is handled at
//! `max(arrival, node_busy_until)` and the handler's returned processing
//! time extends the node's busy horizon — so contention on hot storage
//! units shows up in latency, as it would on the paper's real cluster.

use crate::cost::CostModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// Identifier of a simulated storage-unit server.
pub type NodeId = usize;

/// Network traffic counters (the paper's Fig. 13(b) compares message
/// counts between the on-line and off-line query paths).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

#[derive(Debug)]
struct Event<M> {
    arrival: SimTime,
    seq: u64,
    to: NodeId,
    from: NodeId,
    msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ordered by (arrival, seq) so ties are FIFO and deterministic.
        (self.arrival, self.seq).cmp(&(other.arrival, other.seq))
    }
}

/// A delivered message, handed to the pump handler.
#[derive(Debug)]
pub struct Delivery<M> {
    /// Receiving node.
    pub to: NodeId,
    /// Sending node.
    pub from: NodeId,
    /// Simulated time at which handling starts (arrival + queueing).
    pub at: SimTime,
    /// The message.
    pub msg: M,
}

/// Discrete-event simulator over `n` serial nodes.
#[derive(Debug)]
pub struct Simulator<M> {
    n_nodes: usize,
    cost: CostModel,
    clock: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Event<M>>>,
    busy_until: Vec<SimTime>,
    stats: NetStats,
}

impl<M> Simulator<M> {
    /// Creates a simulator with `n_nodes` nodes and a cost model.
    pub fn new(n_nodes: usize, cost: CostModel) -> Self {
        assert!(n_nodes > 0, "Simulator: need at least one node");
        Self {
            n_nodes,
            cost,
            clock: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            busy_until: vec![0; n_nodes],
            stats: NetStats::default(),
        }
    }

    /// Number of simulated nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The cost model in force.
    pub fn cost(&self) -> CostModel {
        self.cost
    }

    /// Cumulative network statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Sends `msg` of `bytes` payload from `from` to `to`, arriving
    /// after wire latency. A self-send models a local enqueue and skips
    /// the hop charge.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M, bytes: usize) {
        self.send_at(self.clock, from, to, msg, bytes);
    }

    /// Sends with an explicit departure time — used to inject a workload
    /// schedule up front.
    pub fn send_at(&mut self, depart: SimTime, from: NodeId, to: NodeId, msg: M, bytes: usize) {
        assert!(to < self.n_nodes, "send: unknown destination {to}");
        let arrival = if from == to {
            depart
        } else {
            self.stats.messages += 1;
            self.stats.bytes += bytes as u64;
            depart + self.cost.wire_ns(bytes)
        };
        self.seq += 1;
        self.queue.push(Reverse(Event {
            arrival,
            seq: self.seq,
            to,
            from,
            msg,
        }));
    }

    /// Sends a message that departs only after the sender has spent
    /// `processing_ns` of local work (plus dispatch cost) on the
    /// triggering delivery — the normal way for a handler to reply so
    /// that probe work shows up in downstream latency.
    pub fn send_processed(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        bytes: usize,
        processing_ns: u64,
    ) {
        let depart = self.clock + self.cost.per_msg_cpu_ns + processing_ns;
        self.send_at(depart, from, to, msg, bytes);
    }

    /// Multicasts `msg` to every node in `targets` (cloning the
    /// message), charging one message per target — the paper's on-line
    /// query path multicasts to father/sibling R-tree nodes (§3.3.1).
    pub fn multicast(&mut self, from: NodeId, targets: &[NodeId], msg: &M, bytes: usize)
    where
        M: Clone,
    {
        for &t in targets {
            self.send(from, t, msg.clone(), bytes);
        }
    }

    /// Pumps events until the queue drains. For each delivery the
    /// handler returns the local processing duration in ns; message
    /// dispatch cost is added automatically, and the sum extends the
    /// receiving node's busy horizon (serial-server queueing).
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Simulator<M>, Delivery<M>) -> u64,
    {
        while let Some(Reverse(ev)) = self.queue.pop() {
            let to = ev.to;
            // Queueing at the destination: wait until the node is free.
            let start = ev.arrival.max(self.busy_until[to]);
            self.clock = start;
            let delivery = Delivery {
                to,
                from: ev.from,
                at: start,
                msg: ev.msg,
            };
            let processing = handler(self, delivery);
            self.busy_until[to] = start + self.cost.per_msg_cpu_ns + processing;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    fn sim(n: usize) -> Simulator<Msg> {
        Simulator::new(n, CostModel::default())
    }

    #[test]
    fn ping_pong_round_trip_latency() {
        let mut s = sim(2);
        s.send(0, 1, Msg::Ping(1), 64);
        let mut pong_at = 0;
        s.run(|s, d| match d.msg {
            Msg::Ping(x) => {
                s.send_processed(d.to, d.from, Msg::Pong(x), 64, 1_000);
                1_000
            }
            Msg::Pong(_) => {
                pong_at = d.at;
                0
            }
        });
        // Outbound wire + dispatch + processing + return wire.
        let wire = CostModel::default().wire_ns(64);
        let expect = wire + 5_000 + 1_000 + wire;
        assert_eq!(pong_at, expect);
        assert_eq!(s.stats().messages, 2);
        assert_eq!(s.stats().bytes, 128);
    }

    #[test]
    fn self_send_skips_wire_and_counters() {
        let mut s = sim(1);
        s.send(0, 0, Msg::Ping(0), 1024);
        let mut seen = 0;
        s.run(|_, d| {
            assert_eq!(d.at, 0, "self-send delivers immediately");
            seen += 1;
            0
        });
        assert_eq!(seen, 1);
        assert_eq!(s.stats().messages, 0);
    }

    #[test]
    fn serial_server_queues_concurrent_arrivals() {
        let mut s = sim(2);
        // Two pings arrive at node 1 at the same instant.
        s.send(0, 1, Msg::Ping(1), 0);
        s.send(0, 1, Msg::Ping(2), 0);
        let mut starts = Vec::new();
        s.run(|_, d| {
            starts.push(d.at);
            10_000
        });
        assert_eq!(starts.len(), 2);
        let hop = CostModel::default().hop_latency_ns;
        assert_eq!(starts[0], hop);
        // Second message waits for dispatch (5 µs) + processing (10 µs).
        assert_eq!(starts[1], hop + 15_000);
    }

    #[test]
    fn multicast_counts_one_message_per_target() {
        let mut s = sim(5);
        s.multicast(0, &[1, 2, 3, 4], &Msg::Ping(9), 128);
        let mut got = 0;
        s.run(|_, _| {
            got += 1;
            0
        });
        assert_eq!(got, 4);
        assert_eq!(s.stats().messages, 4);
        assert_eq!(s.stats().bytes, 4 * 128);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let order = |seed_msgs: &[(NodeId, u32)]| {
            let mut s = sim(3);
            for &(to, x) in seed_msgs {
                s.send(0, to, Msg::Ping(x), 0);
            }
            let mut seen = Vec::new();
            s.run(|_, d| {
                if let Msg::Ping(x) = d.msg {
                    seen.push(x);
                }
                0
            });
            seen
        };
        let a = order(&[(1, 10), (2, 20), (1, 30)]);
        let b = order(&[(1, 10), (2, 20), (1, 30)]);
        assert_eq!(a, b, "same schedule must replay identically");
        assert_eq!(a, vec![10, 20, 30], "FIFO among simultaneous arrivals");
    }

    #[test]
    fn send_at_schedules_future_departures() {
        let mut s = sim(2);
        s.send_at(1_000_000, 0, 1, Msg::Ping(1), 0);
        s.send_at(0, 0, 1, Msg::Ping(2), 0);
        let mut seen = Vec::new();
        s.run(|_, d| {
            if let Msg::Ping(x) = d.msg {
                seen.push((x, d.at));
            }
            0
        });
        assert_eq!(seen[0].0, 2);
        assert_eq!(seen[1].0, 1);
        assert!(seen[1].1 >= 1_000_000);
    }

    #[test]
    #[should_panic]
    fn unknown_destination_panics() {
        let mut s = sim(2);
        s.send(0, 7, Msg::Ping(0), 0);
    }
}
