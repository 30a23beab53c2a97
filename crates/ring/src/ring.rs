//! The shift-register-insertion ring (Distributed Loop Computer Network,
//! refs \[13,14\] of the paper).
//!
//! DLCN's insertion buffers let every node transmit variable-length
//! messages concurrently — the ring does not require a token or fixed
//! slots. The model here:
//!
//! * each node serializes **its own** transmissions at the ring bit rate
//!   (one insertion buffer per node),
//! * a message travels `hops` node-to-node links, each adding a fixed
//!   shift-register delay,
//! * a **broadcast** is transmitted once and travels the full circle.
//!
//! Link-level contention between distinct senders is not modelled (DLCN's
//! insertion buffers absorb it); the paper's own Figure 4.2 analysis treats
//! the ring as a shared medium whose *average* load must stay under the bit
//! rate, which is exactly what [`Ring::mean_mbps`] reports.

use df_sim::stats::ByteCounter;
use df_sim::{Duration, SimTime};

/// A unidirectional insertion ring with `nodes` stations.
///
/// ```
/// use df_ring::Ring;
/// use df_sim::{Duration, SimTime};
/// let mut ring = Ring::new("outer", 8, 40_000_000.0, Duration::from_micros(1));
/// // 1000 bytes at 40 Mbps = 200 µs serialization + 3 hops of 1 µs.
/// let delivered = ring.send(SimTime::ZERO, 2, 5, 1000);
/// assert_eq!(delivered.as_nanos(), 200_000 + 3_000);
/// // A broadcast is one transmission circling the whole ring.
/// ring.broadcast(SimTime::ZERO, 0, 1000);
/// assert_eq!(ring.traffic.transfers, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    name: &'static str,
    nodes: usize,
    bits_per_sec: f64,
    hop_latency: Duration,
    /// Per-node transmit availability (insertion buffer serialization).
    tx_free: Vec<SimTime>,
    /// Total traffic offered to the ring.
    pub traffic: ByteCounter,
}

impl Ring {
    /// A ring of `nodes` stations at `bits_per_sec` with `hop_latency` per
    /// station-to-station link.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn new(name: &'static str, nodes: usize, bits_per_sec: f64, hop_latency: Duration) -> Ring {
        assert!(nodes > 0, "ring {name:?} needs at least one node");
        Ring {
            name,
            nodes,
            bits_per_sec,
            hop_latency,
            tx_free: vec![SimTime::ZERO; nodes],
            traffic: ByteCounter::new(),
        }
    }

    /// The ring's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of stations.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Hops from `from` to `to` travelling in ring direction.
    fn hops(&self, from: usize, to: usize) -> usize {
        assert!(from < self.nodes && to < self.nodes, "node out of range");
        (to + self.nodes - from) % self.nodes
    }

    /// Serialization time for `bytes` at the ring rate.
    fn transmit_time(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.bits_per_sec)
    }

    /// Send `bytes` from `from` to `to` at (or after) `now`; returns the
    /// delivery time at `to`.
    pub fn send(&mut self, now: SimTime, from: usize, to: usize, bytes: usize) -> SimTime {
        let hops = self.hops(from, to).max(1); // self-send still circles once
        self.transfer(now, from, bytes, hops)
    }

    /// Broadcast `bytes` from `from`; one transmission circles the whole
    /// ring. Returns the time the message has reached *every* station.
    pub fn broadcast(&mut self, now: SimTime, from: usize, bytes: usize) -> SimTime {
        let hops = self.nodes;
        self.transfer(now, from, bytes, hops)
    }

    fn transfer(&mut self, now: SimTime, from: usize, bytes: usize, hops: usize) -> SimTime {
        self.traffic.record(bytes as u64);
        let start = now.max(self.tx_free[from]);
        let tx_done = start + self.transmit_time(bytes);
        self.tx_free[from] = tx_done;
        tx_done + self.hop_latency.saturating_mul(hops as u64)
    }

    /// Average offered load in Mbps over `[0, horizon]` — the Figure 4.2
    /// metric ("total number of bytes transferred divided by the execution
    /// time").
    pub fn mean_mbps(&self, horizon: SimTime) -> f64 {
        self.traffic.mean_bandwidth_mbps(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        Ring::new("outer", 10, 40_000_000.0, Duration::from_micros(1))
    }

    #[test]
    fn hop_arithmetic_wraps() {
        let r = ring();
        assert_eq!(r.hops(2, 5), 3);
        assert_eq!(r.hops(5, 2), 7);
        assert_eq!(r.hops(3, 3), 0);
    }

    #[test]
    fn delivery_time_components() {
        let mut r = ring();
        // 1000 bytes at 40 Mbps = 200 µs; 3 hops = 3 µs.
        let t = r.send(SimTime::ZERO, 2, 5, 1000);
        assert_eq!(t.as_nanos(), 200_000 + 3_000);
        assert_eq!(r.traffic.bytes, 1000);
    }

    #[test]
    fn sender_serializes_its_messages() {
        let mut r = ring();
        let t1 = r.send(SimTime::ZERO, 0, 1, 1000);
        let t2 = r.send(SimTime::ZERO, 0, 1, 1000);
        assert!(t2 > t1, "second message queues behind the first");
        // A different sender is not blocked (insertion ring).
        let t3 = r.send(SimTime::ZERO, 5, 6, 1000);
        assert_eq!(t3, t1);
    }

    #[test]
    fn broadcast_circles_once() {
        let mut r = ring();
        let t = r.broadcast(SimTime::ZERO, 0, 1000);
        assert_eq!(t.as_nanos(), 200_000 + 10_000); // full circle = 10 hops
        assert_eq!(r.traffic.transfers, 1, "broadcast is one transmission");
    }

    #[test]
    fn mean_mbps() {
        let mut r = ring();
        r.send(SimTime::ZERO, 0, 1, 5_000_000); // 40 Mbit
        let horizon = SimTime::from_nanos(2_000_000_000); // 2 s
        assert!((r.mean_mbps(horizon) - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let mut r = ring();
        r.send(SimTime::ZERO, 0, 99, 10);
    }
}
