//! # tagio-noc
//!
//! A flit-level 2-D mesh Network-on-Chip simulator: XY wormhole routing,
//! input-buffered routers with priority arbitration and backpressure.
//!
//! This is the substrate behind the paper's motivation (§I, Fig. 3): when a
//! remote CPU instigates an I/O request across the mesh, arbitration and
//! contention make the arrival time at the I/O controller variable — which
//! is precisely why the paper pre-loads timed I/O tasks into a dedicated
//! controller synchronised by a global timer instead. The
//! `noc_latency` experiment binary in `tagio-bench` quantifies that
//! variability.
//!
//! ```
//! use tagio_noc::sim::{NocConfig, NocSim};
//! use tagio_noc::topology::{Mesh, NodeId};
//!
//! let mut sim = NocSim::new(Mesh::new(4, 4), NocConfig::default());
//! sim.send(NodeId::new(0, 0), NodeId::new(3, 3), 4, 7, 0);
//! assert!(sim.run_to_idle(1_000));
//! let delivered = &sim.delivered()[0];
//! assert!(delivered.latency() >= 6); // hops + serialisation
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod packet;
pub mod sim;
pub mod stats;
pub mod topology;
pub mod traffic;

pub use analysis::zero_load_latency;
pub use packet::{Delivered, Flit, Packet, PacketId};
pub use sim::{NocConfig, NocSim};
pub use stats::LatencyStats;
pub use topology::{Mesh, NodeId, Port};
pub use traffic::UniformTraffic;
