//! Analytic latency bounds for the mesh, used to sanity-check the
//! simulator and to reason about the paper's motivation quantitatively.

use crate::topology::{Mesh, NodeId};

/// Zero-load latency (cycles) of a packet of `flits` flits from `src` to
/// `dst` under XY wormhole routing: one cycle per link traversal, one cycle
/// for ejection (injection overlaps the first buffering cycle).
///
/// This is a *lower bound* for any load: contention and backpressure only
/// add cycles. The simulator's measured latency equals this bound on an
/// otherwise-empty mesh (asserted in tests).
#[must_use]
pub fn zero_load_latency(mesh: &Mesh, src: NodeId, dst: NodeId, flits: u32) -> u64 {
    let hops = u64::from(mesh.hops(src, dst));
    // Head flit: `hops` link traversals + 1 ejection cycle; remaining flits
    // pipeline one per cycle behind it.
    hops + 1 + u64::from(flits.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{NocConfig, NocSim};

    #[test]
    fn bound_matches_simulator_on_empty_mesh() {
        let mesh = Mesh::new(4, 4);
        for (src, dst, flits) in [
            (NodeId::new(0, 0), NodeId::new(3, 3), 4u32),
            (NodeId::new(1, 2), NodeId::new(2, 0), 1),
            (NodeId::new(0, 3), NodeId::new(3, 0), 8),
        ] {
            let mut sim = NocSim::new(mesh, NocConfig::default());
            sim.send(src, dst, flits, 1, 0);
            assert!(sim.run_to_idle(10_000));
            let measured = sim.delivered()[0].latency();
            let bound = zero_load_latency(&mesh, src, dst, flits);
            assert_eq!(
                measured, bound,
                "{src}->{dst} x{flits}: measured {measured}, bound {bound}"
            );
        }
    }

    #[test]
    fn bound_is_a_lower_bound_under_load() {
        use crate::traffic::UniformTraffic;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mesh = Mesh::new(4, 4);
        let mut sim = NocSim::new(mesh, NocConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        UniformTraffic {
            injection_rate: 0.1,
            flits: 4,
            priority: 1,
        }
        .schedule(&mut sim, 300, &mut rng);
        let probe = sim.send(NodeId::new(0, 0), NodeId::new(3, 3), 4, 1, 100);
        assert!(sim.run_to_idle(1_000_000));
        let measured = sim
            .delivered()
            .iter()
            .find(|d| d.packet.id == probe)
            .unwrap()
            .latency();
        let bound = zero_load_latency(&mesh, NodeId::new(0, 0), NodeId::new(3, 3), 4);
        assert!(measured >= bound);
    }

    #[test]
    fn single_flit_local_delivery() {
        let mesh = Mesh::new(2, 2);
        let n = NodeId::new(0, 0);
        assert_eq!(zero_load_latency(&mesh, n, n, 1), 1); // eject only
    }
}
