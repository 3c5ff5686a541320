//! Routing-grid substrate: the grid graph `G(V, E)` the search algorithms
//! explore, plus baseline maze-routing and rendering utilities.
//!
//! Following Hassoun & Alpert §II (and the modelling of Alpert et al.,
//! Cong et al. and Zhou et al. they cite), a uniform grid is laid over the
//! routing area:
//!
//! * each **node** is a potential insertion point for a buffer or
//!   synchronization element;
//! * each **edge** is a piece of potential route of known physical length;
//! * edges overlapping wiring blockages are **deleted**;
//! * nodes overlapping physical obstacles are labelled **blocked**
//!   (`p(v) = 0`) — routes may pass, gates may not be inserted.
//!
//! # Example
//!
//! ```
//! use clockroute_grid::GridGraph;
//! use clockroute_geom::{Point, BlockageMap, units::Length};
//!
//! let mut blk = BlockageMap::new(8, 8);
//! blk.block_node(Point::new(3, 3));
//! let g = GridGraph::new(blk, Length::from_um(125.0), Length::from_um(125.0));
//! assert_eq!(g.node_count(), 64);
//! assert!(!g.is_insertable(g.node(Point::new(3, 3))));
//! assert!(g.is_insertable(g.node(Point::new(0, 0))));
//! ```

pub mod capacity;
pub mod dijkstra;
pub mod graph;
pub mod path;
pub mod render;

pub use capacity::{edge_key, EdgeCapacities, EdgeKey};
pub use dijkstra::{bfs_hops, cheapest_path, shortest_path, ShortestPathError};
pub use graph::{GridGraph, NodeId};
pub use path::{GridPath, ValidatePathError};
pub use render::{render_grid, RenderOptions};
