//! Latency statistics over delivered packets.

use crate::packet::Delivered;
use serde::{Deserialize, Serialize};

/// Summary statistics of packet latencies (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Packets measured.
    pub count: usize,
    /// Minimum latency.
    pub min: u64,
    /// Mean latency.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// Maximum latency.
    pub max: u64,
}

impl LatencyStats {
    /// Computes statistics over `delivered`; `None` when empty.
    #[must_use]
    pub fn compute(delivered: &[Delivered]) -> Option<Self> {
        if delivered.is_empty() {
            return None;
        }
        let mut lats: Vec<u64> = delivered.iter().map(Delivered::latency).collect();
        lats.sort_unstable();
        let count = lats.len();
        let sum: u128 = lats.iter().map(|&l| u128::from(l)).sum();
        Some(LatencyStats {
            count,
            min: lats[0],
            mean: sum as f64 / count as f64,
            p50: lats[count / 2],
            p95: lats[(count * 95 / 100).min(count - 1)],
            max: lats[count - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};
    use crate::topology::NodeId;

    fn delivered(latencies: &[u64]) -> Vec<Delivered> {
        latencies
            .iter()
            .enumerate()
            .map(|(i, &l)| Delivered {
                packet: Packet {
                    id: PacketId(i as u64),
                    src: NodeId::new(0, 0),
                    dst: NodeId::new(1, 0),
                    flits: 1,
                    priority: 0,
                    inject_at: 100,
                },
                delivered_at: 100 + l,
            })
            .collect()
    }

    #[test]
    fn computes_basic_statistics() {
        let s = LatencyStats::compute(&delivered(&[10, 20, 30, 40, 50])).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 50);
        assert_eq!(s.p50, 30);
        assert!((s.mean - 30.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_gives_none() {
        assert_eq!(LatencyStats::compute(&[]), None);
    }

    #[test]
    fn single_packet_degenerate() {
        let s = LatencyStats::compute(&delivered(&[7])).unwrap();
        assert_eq!(s.min, 7);
        assert_eq!(s.max, 7);
        assert_eq!(s.p95, 7);
    }

    #[test]
    fn p95_is_upper_tail() {
        let lats: Vec<u64> = (1..=100).collect();
        let s = LatencyStats::compute(&delivered(&lats)).unwrap();
        assert!(s.p95 >= 95);
    }
}
