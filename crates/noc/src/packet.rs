//! Packets and flits.

use crate::topology::NodeId;
use core::fmt;

/// Unique packet identifier (issue order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A packet to be injected into the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Identifier.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload length in flits (≥ 1; the head flit carries the header).
    pub flits: u32,
    /// Arbitration priority — larger wins (I/O requests typically outrank
    /// background traffic).
    pub priority: u8,
    /// Injection request time (cycle).
    pub inject_at: u64,
}

/// One flit in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Destination (replicated from the header for routing simplicity).
    pub dst: NodeId,
    /// Arbitration priority.
    pub priority: u8,
    /// `true` for the first flit of the packet.
    pub is_head: bool,
    /// `true` for the last flit of the packet.
    pub is_tail: bool,
}

impl Packet {
    /// Expands the packet into its flit sequence.
    ///
    /// # Panics
    /// Panics if the packet has zero flits.
    #[must_use]
    pub fn to_flits(&self) -> Vec<Flit> {
        assert!(self.flits >= 1, "packet needs at least one flit");
        (0..self.flits)
            .map(|i| Flit {
                packet: self.id,
                dst: self.dst,
                priority: self.priority,
                is_head: i == 0,
                is_tail: i == self.flits - 1,
            })
            .collect()
    }
}

/// A delivered packet with its measured latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The packet.
    pub packet: Packet,
    /// Cycle at which the tail flit was ejected at the destination.
    pub delivered_at: u64,
}

impl Delivered {
    /// End-to-end latency in cycles (injection request to tail ejection).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.packet.inject_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flits: u32) -> Packet {
        Packet {
            id: PacketId(1),
            src: NodeId::new(0, 0),
            dst: NodeId::new(1, 1),
            flits,
            priority: 3,
            inject_at: 10,
        }
    }

    #[test]
    fn flit_expansion_marks_head_and_tail() {
        let flits = pkt(3).to_flits();
        assert_eq!(flits.len(), 3);
        assert!(flits[0].is_head && !flits[0].is_tail);
        assert!(!flits[1].is_head && !flits[1].is_tail);
        assert!(flits[2].is_tail && !flits[2].is_head);
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let flits = pkt(1).to_flits();
        assert!(flits[0].is_head && flits[0].is_tail);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_packet_panics() {
        let _ = pkt(0).to_flits();
    }

    #[test]
    fn latency_measures_inject_to_tail() {
        let d = Delivered {
            packet: pkt(2),
            delivered_at: 25,
        };
        assert_eq!(d.latency(), 15);
    }
}
