//! Cycle-based wormhole NoC simulation.
//!
//! Routers are input-buffered with XY routing and per-output priority
//! arbitration: when an output port is free, the competing head flits are
//! compared by packet priority (ties: port order). Once a packet wins an
//! output it holds it until its tail flit passes (wormhole switching);
//! arbitration is therefore priority-ordered at packet boundaries, which is
//! the standard non-preemptive wormhole discipline. One flit crosses one
//! link per cycle; buffers exert backpressure.
//!
//! This substrate exists to quantify the paper's §I motivation: the latency
//! of instigating an I/O request from a remote CPU varies with background
//! mesh contention, which is exactly why the paper moves timing-critical
//! I/O into a dedicated controller clocked by a global timer.

use crate::packet::{Delivered, Flit, Packet, PacketId};
use crate::topology::{Mesh, NodeId, Port};
use std::collections::{HashMap, VecDeque};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Flit capacity of each input buffer.
    pub buffer_capacity: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig { buffer_capacity: 4 }
    }
}

#[derive(Debug, Default)]
struct RouterState {
    /// One FIFO per input port (N, S, E, W, L — indexed by port_index).
    /// Each entry records the cycle the flit entered this buffer, so a flit
    /// crosses at most one link per cycle.
    buffers: [VecDeque<(Flit, u64)>; 5],
    /// Output locks: the input port currently owning each output.
    locks: [Option<usize>; 5],
    /// Round-robin pointer per output for equal-priority ties.
    rr: [usize; 5],
}

fn port_index(p: Port) -> usize {
    match p {
        Port::North => 0,
        Port::South => 1,
        Port::East => 2,
        Port::West => 3,
        Port::Local => 4,
    }
}

const PORTS: [Port; 5] = Port::ALL;

/// The mesh simulator.
///
/// ```
/// use tagio_noc::sim::{NocConfig, NocSim};
/// use tagio_noc::topology::{Mesh, NodeId};
///
/// let mut sim = NocSim::new(Mesh::new(2, 2), NocConfig::default());
/// let id = sim.send(NodeId::new(0, 0), NodeId::new(1, 1), 4, 1, 0);
/// sim.run_until(100);
/// assert_eq!(sim.delivered().len(), 1);
/// assert_eq!(sim.delivered()[0].packet.id, id);
/// ```
#[derive(Debug)]
pub struct NocSim {
    mesh: Mesh,
    config: NocConfig,
    routers: HashMap<NodeId, RouterState>,
    /// Waiting-to-inject packets per source node (FIFO).
    inject_queues: HashMap<NodeId, VecDeque<(Packet, Vec<Flit>)>>,
    delivered: Vec<Delivered>,
    /// Tail-ejection bookkeeping: packet → original packet data.
    in_flight: HashMap<PacketId, Packet>,
    cycle: u64,
    next_id: u64,
}

impl NocSim {
    /// Creates a simulator for `mesh`.
    #[must_use]
    pub fn new(mesh: Mesh, config: NocConfig) -> Self {
        let mut routers = HashMap::new();
        for n in mesh.nodes() {
            routers.insert(n, RouterState::default());
        }
        NocSim {
            mesh,
            config,
            routers,
            inject_queues: HashMap::new(),
            delivered: Vec::new(),
            in_flight: HashMap::new(),
            cycle: 0,
            next_id: 0,
        }
    }

    /// The mesh being simulated.
    #[must_use]
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Queues a packet for injection at `inject_at` (a cycle not earlier
    /// than the current one).
    ///
    /// # Panics
    /// Panics if the endpoints are outside the mesh or `flits == 0`.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        priority: u8,
        inject_at: u64,
    ) -> PacketId {
        assert!(
            self.mesh.contains(src) && self.mesh.contains(dst),
            "endpoint outside mesh"
        );
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let packet = Packet {
            id,
            src,
            dst,
            flits,
            priority,
            inject_at: inject_at.max(self.cycle),
        };
        let flits = packet.to_flits();
        self.inject_queues
            .entry(src)
            .or_default()
            .push_back((packet, flits));
        id
    }

    /// Delivered packets so far, in delivery order.
    #[must_use]
    pub fn delivered(&self) -> &[Delivered] {
        &self.delivered
    }

    /// `true` when nothing is queued or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.inject_queues.values().all(VecDeque::is_empty)
    }

    /// Advances the simulation until `cycle` (inclusive of intermediate
    /// steps, exclusive of `cycle` itself).
    pub fn run_until(&mut self, cycle: u64) {
        while self.cycle < cycle {
            self.step();
        }
    }

    /// Runs until all traffic drains or `max_cycles` elapse; returns `true`
    /// if the network drained.
    pub fn run_to_idle(&mut self, max_cycles: u64) -> bool {
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline {
            if self.is_idle() {
                return true;
            }
            self.step();
        }
        self.is_idle()
    }

    /// Executes one cycle: ejection, switching, then injection.
    pub fn step(&mut self) {
        let nodes: Vec<NodeId> = self.mesh.nodes().collect();

        // 1. Eject flits whose next hop is the local port of their router.
        for &node in &nodes {
            self.eject(node);
        }

        // 2. Switch one flit per output port per router.
        for &node in &nodes {
            for out in PORTS {
                self.switch(node, out);
            }
        }

        // 3. Inject queued packets into local input buffers.
        for &node in &nodes {
            self.inject(node);
        }

        self.cycle += 1;
    }

    fn eject(&mut self, node: NodeId) {
        // A flit at the head of any input buffer destined for this node is
        // consumed through the local output (one per cycle, priority order).
        let out = port_index(Port::Local);
        let router = self.routers.get_mut(&node).expect("router exists");
        let now = self.cycle;
        let chosen = match router.locks[out] {
            Some(input) => {
                let head = router.buffers[input].front().copied();
                head.filter(|(f, entered)| f.dst == node && *entered < now)
                    .map(|_| input)
            }
            None => {
                let mut best: Option<(u8, usize)> = None;
                for (input, buffer) in router.buffers.iter().enumerate() {
                    if let Some((f, entered)) = buffer.front() {
                        if f.dst == node && f.is_head && *entered < now {
                            let better = match best {
                                Some((p, _)) => f.priority > p,
                                None => true,
                            };
                            if better {
                                best = Some((f.priority, input));
                            }
                        }
                    }
                }
                best.map(|(_, input)| input)
            }
        };
        let Some(input) = chosen else { return };
        let (flit, _) = router.buffers[input].pop_front().expect("head exists");
        router.locks[out] = if flit.is_tail { None } else { Some(input) };
        if flit.is_tail {
            let packet = self
                .in_flight
                .remove(&flit.packet)
                .expect("tail of tracked packet");
            self.delivered.push(Delivered {
                packet,
                delivered_at: self.cycle,
            });
        }
    }

    fn switch(&mut self, node: NodeId, out: Port) {
        if out == Port::Local {
            return; // handled by eject()
        }
        let Some(next) = self.mesh.neighbour(node, out) else {
            return;
        };
        let out_idx = port_index(out);
        let next_in = port_index(out.opposite());
        // Capacity check on the downstream buffer.
        let space = {
            let down = self.routers.get(&next).expect("router exists");
            down.buffers[next_in].len() < self.config.buffer_capacity
        };
        if !space {
            return;
        }
        let now = self.cycle;
        let router = self.routers.get_mut(&node).expect("router exists");
        let chosen = match router.locks[out_idx] {
            Some(input) => router.buffers[input]
                .front()
                .filter(|(f, entered)| self.mesh.route_xy(node, f.dst) == out && *entered < now)
                .map(|_| input),
            None => {
                let mut best: Option<(u8, usize)> = None;
                let rr = router.rr[out_idx];
                for offset in 0..5 {
                    let input = (rr + offset) % 5;
                    if let Some((f, entered)) = router.buffers[input].front() {
                        if f.is_head && self.mesh.route_xy(node, f.dst) == out && *entered < now {
                            let better = match best {
                                Some((p, _)) => f.priority > p,
                                None => true,
                            };
                            if better {
                                best = Some((f.priority, input));
                            }
                        }
                    }
                }
                best.map(|(_, input)| input)
            }
        };
        let Some(input) = chosen else { return };
        let (flit, _) = router.buffers[input].pop_front().expect("head exists");
        router.locks[out_idx] = if flit.is_tail { None } else { Some(input) };
        router.rr[out_idx] = (input + 1) % 5;
        let down = self.routers.get_mut(&next).expect("router exists");
        down.buffers[next_in].push_back((flit, now));
    }

    fn inject(&mut self, node: NodeId) {
        let Some(queue) = self.inject_queues.get_mut(&node) else {
            return;
        };
        let Some((packet, _)) = queue.front() else {
            return;
        };
        if packet.inject_at > self.cycle {
            return;
        }
        let router = self.routers.get_mut(&node).expect("router exists");
        let local = port_index(Port::Local);
        // Inject as many flits of the head packet as fit this cycle (the
        // local interface is modelled as wide enough to refill the buffer).
        let (packet, flits) = queue.front_mut().expect("checked above");
        let now = self.cycle;
        while !flits.is_empty() && router.buffers[local].len() < self.config.buffer_capacity {
            router.buffers[local].push_back((flits.remove(0), now));
        }
        self.in_flight.entry(packet.id).or_insert(*packet);
        if flits.is_empty() {
            queue.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(w: u8, h: u8) -> NocSim {
        NocSim::new(Mesh::new(w, h), NocConfig::default())
    }

    #[test]
    fn single_packet_reaches_destination() {
        let mut s = sim(3, 3);
        s.send(NodeId::new(0, 0), NodeId::new(2, 2), 4, 1, 0);
        assert!(s.run_to_idle(200));
        assert_eq!(s.delivered().len(), 1);
        let d = &s.delivered()[0];
        // 4 hops + serialisation of 4 flits: latency >= hops + flits.
        assert!(d.latency() >= 8, "latency {}", d.latency());
    }

    #[test]
    fn local_delivery_works() {
        let mut s = sim(2, 2);
        s.send(NodeId::new(1, 1), NodeId::new(1, 1), 2, 1, 0);
        assert!(s.run_to_idle(50));
        assert_eq!(s.delivered().len(), 1);
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut near = sim(5, 5);
        near.send(NodeId::new(0, 0), NodeId::new(1, 0), 2, 1, 0);
        near.run_to_idle(100);
        let mut far = sim(5, 5);
        far.send(NodeId::new(0, 0), NodeId::new(4, 4), 2, 1, 0);
        far.run_to_idle(100);
        assert!(far.delivered()[0].latency() > near.delivered()[0].latency());
    }

    #[test]
    fn contention_increases_latency() {
        // Alone:
        let mut alone = sim(4, 1);
        alone.send(NodeId::new(0, 0), NodeId::new(3, 0), 4, 1, 0);
        alone.run_to_idle(300);
        let base = alone.delivered()[0].latency();
        // With nine same-priority packets sharing the path:
        let mut busy = sim(4, 1);
        for _ in 0..9 {
            busy.send(NodeId::new(1, 0), NodeId::new(3, 0), 4, 1, 0);
        }
        let probe = busy.send(NodeId::new(0, 0), NodeId::new(3, 0), 4, 1, 0);
        busy.run_to_idle(1000);
        let contended = busy
            .delivered()
            .iter()
            .find(|d| d.packet.id == probe)
            .expect("probe delivered")
            .latency();
        assert!(contended > base, "contended {contended} <= baseline {base}");
    }

    #[test]
    fn high_priority_wins_arbitration() {
        // Two packets contend for the same link; the high-priority one
        // injected at the same time should win and finish first.
        let mut s = sim(3, 1);
        let low = s.send(NodeId::new(0, 0), NodeId::new(2, 0), 6, 1, 0);
        let high = s.send(NodeId::new(1, 0), NodeId::new(2, 0), 6, 9, 0);
        assert!(s.run_to_idle(500));
        let t_low = s
            .delivered()
            .iter()
            .find(|d| d.packet.id == low)
            .unwrap()
            .delivered_at;
        let t_high = s
            .delivered()
            .iter()
            .find(|d| d.packet.id == high)
            .unwrap()
            .delivered_at;
        assert!(t_high < t_low, "high {t_high} vs low {t_low}");
    }

    #[test]
    fn all_packets_eventually_drain() {
        let mut s = sim(4, 4);
        let mut count = 0;
        for x in 0..4u8 {
            for y in 0..4u8 {
                s.send(NodeId::new(x, y), NodeId::new(3 - x, 3 - y), 3, 1, 0);
                count += 1;
            }
        }
        assert!(s.run_to_idle(5000), "network did not drain");
        assert_eq!(s.delivered().len(), count);
    }

    #[test]
    fn wormhole_does_not_interleave_packets() {
        // Deliveries of equal-size packets over a shared link must be
        // separated by at least the serialisation latency of one packet.
        let mut s = sim(2, 1);
        for _ in 0..3 {
            s.send(NodeId::new(0, 0), NodeId::new(1, 0), 5, 1, 0);
        }
        assert!(s.run_to_idle(500));
        let mut times: Vec<u64> = s.delivered().iter().map(|d| d.delivered_at).collect();
        times.sort_unstable();
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= 5, "tails too close: {:?}", times);
        }
    }

    #[test]
    fn injection_respects_schedule() {
        let mut s = sim(2, 1);
        s.send(NodeId::new(0, 0), NodeId::new(1, 0), 1, 1, 50);
        s.run_until(10);
        assert_eq!(s.delivered().len(), 0);
        assert!(s.run_to_idle(200));
        assert!(s.delivered()[0].delivered_at >= 50);
    }

    #[test]
    #[should_panic(expected = "endpoint outside mesh")]
    fn send_outside_mesh_panics() {
        let mut s = sim(2, 2);
        s.send(NodeId::new(5, 5), NodeId::new(0, 0), 1, 1, 0);
    }
}
