//! 2-D mesh topology and dimension-ordered (XY) routing.
//!
//! The paper's Fig. 3 places the I/O controller at the home port of one
//! router of an NoC mesh; I/O requests travel from application CPUs across
//! the mesh. XY routing first corrects the X coordinate, then the Y
//! coordinate — deadlock-free on a mesh.

use core::fmt;

/// Coordinates of a mesh node (router + local port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId {
    /// Column (0-based, grows eastwards).
    pub x: u8,
    /// Row (0-based, grows southwards).
    pub y: u8,
}

impl NodeId {
    /// Convenience constructor.
    #[must_use]
    pub fn new(x: u8, y: u8) -> Self {
        NodeId { x, y }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A router port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Towards smaller y.
    North,
    /// Towards larger y.
    South,
    /// Towards larger x.
    East,
    /// Towards smaller x.
    West,
    /// The node's local (home) port.
    Local,
}

impl Port {
    /// All ports, in a fixed order (used for arbitration fairness).
    pub const ALL: [Port; 5] = [
        Port::North,
        Port::South,
        Port::East,
        Port::West,
        Port::Local,
    ];

    /// The port on the neighbouring router that faces this output.
    #[must_use]
    pub fn opposite(self) -> Port {
        match self {
            Port::North => Port::South,
            Port::South => Port::North,
            Port::East => Port::West,
            Port::West => Port::East,
            Port::Local => Port::Local,
        }
    }
}

/// A rectangular mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    width: u8,
    height: u8,
}

impl Mesh {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: u8, height: u8) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh { width, height }
    }

    /// `true` if `node` lies inside the mesh.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        node.x < self.width && node.y < self.height
    }

    /// Iterates all nodes row-major.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (w, h) = (self.width, self.height);
        (0..h).flat_map(move |y| (0..w).map(move |x| NodeId::new(x, y)))
    }

    /// The neighbouring node through `port`, if any.
    #[must_use]
    pub fn neighbour(&self, node: NodeId, port: Port) -> Option<NodeId> {
        let (x, y) = (node.x, node.y);
        let next = match port {
            Port::North if y > 0 => NodeId::new(x, y - 1),
            Port::South if y + 1 < self.height => NodeId::new(x, y + 1),
            Port::East if x + 1 < self.width => NodeId::new(x + 1, y),
            Port::West if x > 0 => NodeId::new(x - 1, y),
            _ => return None,
        };
        Some(next)
    }

    /// XY routing: the output port a packet at `here` takes towards `dst`.
    ///
    /// Returns [`Port::Local`] when `here == dst`.
    ///
    /// # Panics
    /// Panics if either node is outside the mesh.
    #[must_use]
    pub fn route_xy(&self, here: NodeId, dst: NodeId) -> Port {
        assert!(
            self.contains(here) && self.contains(dst),
            "node outside mesh"
        );
        if here.x < dst.x {
            Port::East
        } else if here.x > dst.x {
            Port::West
        } else if here.y < dst.y {
            Port::South
        } else if here.y > dst.y {
            Port::North
        } else {
            Port::Local
        }
    }

    /// Manhattan hop distance between two nodes.
    #[must_use]
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        u32::from(a.x.abs_diff(b.x)) + u32::from(a.y.abs_diff(b.y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_counts_nodes() {
        let m = Mesh::new(4, 3);
        assert_eq!(m.nodes().count(), 12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = Mesh::new(0, 4);
    }

    #[test]
    fn contains_checks_bounds() {
        let m = Mesh::new(2, 2);
        assert!(m.contains(NodeId::new(1, 1)));
        assert!(!m.contains(NodeId::new(2, 0)));
    }

    #[test]
    fn neighbours_respect_edges() {
        let m = Mesh::new(3, 3);
        let corner = NodeId::new(0, 0);
        assert_eq!(m.neighbour(corner, Port::North), None);
        assert_eq!(m.neighbour(corner, Port::West), None);
        assert_eq!(m.neighbour(corner, Port::East), Some(NodeId::new(1, 0)));
        assert_eq!(m.neighbour(corner, Port::South), Some(NodeId::new(0, 1)));
        assert_eq!(m.neighbour(corner, Port::Local), None);
    }

    #[test]
    fn xy_routes_x_first() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.route_xy(NodeId::new(0, 0), NodeId::new(3, 3)), Port::East);
        assert_eq!(
            m.route_xy(NodeId::new(3, 0), NodeId::new(3, 3)),
            Port::South
        );
        assert_eq!(
            m.route_xy(NodeId::new(3, 3), NodeId::new(3, 3)),
            Port::Local
        );
        assert_eq!(m.route_xy(NodeId::new(2, 2), NodeId::new(0, 2)), Port::West);
        assert_eq!(
            m.route_xy(NodeId::new(2, 2), NodeId::new(2, 0)),
            Port::North
        );
    }

    #[test]
    fn xy_path_terminates_at_destination() {
        let m = Mesh::new(5, 5);
        let (src, dst) = (NodeId::new(0, 4), NodeId::new(4, 0));
        let mut here = src;
        let mut hops = 0;
        loop {
            let port = m.route_xy(here, dst);
            if port == Port::Local {
                break;
            }
            here = m.neighbour(here, port).expect("route stays in mesh");
            hops += 1;
            assert!(hops <= 20, "routing loop");
        }
        assert_eq!(here, dst);
        assert_eq!(hops, m.hops(src, dst));
    }

    #[test]
    fn opposite_ports_roundtrip() {
        for p in Port::ALL {
            assert_eq!(p.opposite().opposite(), p);
        }
    }

    #[test]
    fn hops_is_manhattan() {
        let m = Mesh::new(8, 8);
        assert_eq!(m.hops(NodeId::new(1, 2), NodeId::new(4, 0)), 5);
        assert_eq!(m.hops(NodeId::new(3, 3), NodeId::new(3, 3)), 0);
    }
}
