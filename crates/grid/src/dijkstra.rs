//! Baseline maze routing: physically-shortest paths and hop counts.
//!
//! These are the classic single-criterion routers the paper's algorithms
//! generalise. They serve as baselines in the benchmark harness (a
//! shortest path ignores delay and insertion entirely) and as oracles in
//! tests (on an open grid the fast path route length must match the
//! shortest-path length, since detours only add delay).

use crate::{GridGraph, GridPath, NodeId};
use clockroute_geom::Point;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::convert::Infallible;
use std::error::Error;
use std::fmt;

/// Error returned when no route exists between the requested terminals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPathError;

impl fmt::Display for ShortestPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("no route exists between source and sink")
    }
}

impl Error for ShortestPathError {}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    // Inline across crates: `cheapest_path` is generic, so its heap is
    // instantiated in the caller's crate, where an outlined comparison
    // would slow every sift.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; ties broken by node id for determinism.
        // `total_cmp` keeps the heap invariant even for non-finite
        // distances instead of collapsing them to "equal".
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

// The canonical CR001 pattern: `PartialOrd` delegates to the total
// `Ord` above, so NaN can never corrupt the heap invariant. crlint
// accepts exactly this shape (see crates/lint, rule CR001).
impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra shortest path by physical wire length.
///
/// # Errors
///
/// Returns [`ShortestPathError`] if a terminal is off the grid or the
/// sink is unreachable (wiring blockages disconnect the terminals).
///
/// # Example
///
/// ```
/// use clockroute_grid::{GridGraph, shortest_path};
/// use clockroute_geom::{Point, units::Length};
///
/// let g = GridGraph::open(10, 10, Length::from_um(100.0));
/// let path = shortest_path(&g, Point::new(0, 0), Point::new(9, 9))?;
/// assert_eq!(path.edge_count(), 18);
/// # Ok::<(), clockroute_grid::ShortestPathError>(())
/// ```
pub fn shortest_path(
    graph: &GridGraph,
    source: Point,
    sink: Point,
) -> Result<GridPath, ShortestPathError> {
    let length = |u, v| graph.edge_length(u, v).um();
    cheapest_path(graph, source, sink, length, |_| Ok::<(), Infallible>(()))
        .unwrap_or_else(|never| match never {})
}

/// Dijkstra cheapest path under a caller-supplied edge weight: the one
/// implementation behind [`shortest_path`] and the flow planner's
/// priced geometry oracle.
///
/// `weight(u, v)` is the cost of the edge `u → v`, finite and
/// non-negative. `charge(pop)` runs before every pop (`pop == true`)
/// and every edge relaxation (`pop == false`); an `Err` from it stops
/// the search at once and is returned as the outer error, which lets a
/// caller meter the search against a budget. Ties are broken by node
/// id, so equal inputs give equal paths.
///
/// # Errors
///
/// The outer `Err` is the first error `charge` returned. The inner
/// [`ShortestPathError`] reports a terminal off the grid or an
/// unreachable sink.
pub fn cheapest_path<E>(
    graph: &GridGraph,
    source: Point,
    sink: Point,
    mut weight: impl FnMut(NodeId, NodeId) -> f64,
    mut charge: impl FnMut(bool) -> Result<(), E>,
) -> Result<Result<GridPath, ShortestPathError>, E> {
    if !graph.contains(source) || !graph.contains(sink) {
        return Ok(Err(ShortestPathError));
    }
    let s = graph.node(source);
    let t = graph.node(sink);
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[s.index()] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: s });

    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        charge(true)?;
        if d > dist[u.index()] {
            continue;
        }
        if u == t {
            break;
        }
        for v in graph.neighbors(u) {
            charge(false)?;
            let nd = d + weight(u, v);
            debug_assert!(nd.is_finite(), "non-finite heap key {nd}");
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                prev[v.index()] = Some(u);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }

    if dist[t.index()].is_infinite() {
        return Ok(Err(ShortestPathError));
    }
    let mut points = vec![graph.point(t)];
    let mut cur = t;
    while let Some(p) = prev[cur.index()] {
        points.push(graph.point(p));
        cur = p;
    }
    points.reverse();
    Ok(Ok(GridPath::new(points)))
}

/// Breadth-first hop distances from `source` to every node (`u32::MAX` for
/// unreachable nodes). Useful for wavefront studies and reachability
/// checks.
pub fn bfs_hops(graph: &GridGraph, source: Point) -> Vec<u32> {
    let s = graph.node(source);
    let mut hops = vec![u32::MAX; graph.node_count()];
    let mut queue = std::collections::VecDeque::new();
    hops[s.index()] = 0;
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        let d = hops[u.index()];
        for v in graph.neighbors(u) {
            if hops[v.index()] == u32::MAX {
                hops[v.index()] = d + 1;
                queue.push_back(v);
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::units::Length;
    use clockroute_geom::{BlockageMap, Rect};

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn straight_line_on_open_grid() {
        let g = GridGraph::open(10, 10, Length::from_um(100.0));
        let path = shortest_path(&g, p(0, 5), p(9, 5)).unwrap();
        assert_eq!(path.edge_count(), 9);
        assert!(path.validate(&g).is_ok());
        assert_eq!(path.length(&g), Length::from_um(900.0));
    }

    #[test]
    fn manhattan_optimal_on_open_grid() {
        let g = GridGraph::open(20, 20, Length::from_um(50.0));
        let path = shortest_path(&g, p(2, 3), p(15, 17)).unwrap();
        assert_eq!(path.edge_count() as u32, p(2, 3).manhattan(p(15, 17)));
    }

    #[test]
    fn detours_around_wall() {
        // Vertical wall of blocked edges with a single gap.
        let mut blk = BlockageMap::new(9, 9);
        for y in 0..9 {
            if y != 8 {
                blk.block_edge(p(4, y), p(5, y));
            }
        }
        let g = GridGraph::new(blk, Length::from_um(100.0), Length::from_um(100.0));
        let path = shortest_path(&g, p(0, 0), p(8, 0)).unwrap();
        assert!(path.validate(&g).is_ok());
        // Must climb to row 8 and back: 8 + 8 extra edges over the direct 8.
        assert_eq!(path.edge_count(), 8 + 16);
    }

    #[test]
    fn disconnected_reports_error() {
        let mut blk = BlockageMap::new(5, 5);
        // Sever column 2 completely.
        for y in 0..5 {
            blk.block_edge(p(1, y), p(2, y));
        }
        let g = GridGraph::new(blk, Length::from_um(100.0), Length::from_um(100.0));
        let err = shortest_path(&g, p(0, 0), p(4, 4)).unwrap_err();
        assert_eq!(err, ShortestPathError);
        assert_eq!(err.to_string(), "no route exists between source and sink");
    }

    #[test]
    fn off_grid_terminals_report_an_error() {
        let g = GridGraph::open(4, 4, Length::from_um(100.0));
        assert_eq!(shortest_path(&g, p(0, 0), p(9, 9)), Err(ShortestPathError));
        assert_eq!(shortest_path(&g, p(4, 0), p(0, 0)), Err(ShortestPathError));
    }

    #[test]
    fn weights_steer_the_path_and_charges_stop_it() {
        // Every horizontal edge on row 0 is ruinously expensive: the
        // path must dip to row 1 and come back.
        let g = GridGraph::open(6, 3, Length::from_um(100.0));
        let weight = |u, v| {
            let (a, b) = (g.point(u), g.point(v));
            if a.y == 0 && b.y == 0 {
                1000.0
            } else {
                1.0
            }
        };
        let (mut pops, mut relaxations) = (0, 0);
        let count = |pop: bool| {
            if pop {
                pops += 1;
            } else {
                relaxations += 1;
            }
            Ok::<(), ()>(())
        };
        let path = cheapest_path(&g, p(0, 0), p(5, 0), weight, count)
            .unwrap()
            .unwrap();
        assert!(
            path.points().iter().any(|q| q.y == 1),
            "path stayed on the priced row"
        );
        assert!(pops > 0 && relaxations >= pops - 1);
        // The first charge error stops the search and comes back as is.
        let stop = |pop: bool| if pop { Err("stopped") } else { Ok(()) };
        assert_eq!(
            cheapest_path(&g, p(0, 0), p(5, 0), weight, stop),
            Err("stopped")
        );
    }

    #[test]
    fn source_equals_sink() {
        let g = GridGraph::open(4, 4, Length::from_um(100.0));
        let path = shortest_path(&g, p(1, 1), p(1, 1)).unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(path.edge_count(), 0);
    }

    #[test]
    fn rectangular_pitch_prefers_cheap_axis() {
        // Vertical edges are 4× longer; going around horizontally can win.
        let g = GridGraph::new(
            BlockageMap::new(10, 3),
            Length::from_um(100.0),
            Length::from_um(400.0),
        );
        let path = shortest_path(&g, p(0, 0), p(9, 2)).unwrap();
        // Any monotone path has the same length here (9·100 + 2·400); just
        // confirm optimality value.
        assert_eq!(path.length(&g), Length::from_um(1700.0));
    }

    #[test]
    fn bfs_hops_open_grid() {
        let g = GridGraph::open(5, 5, Length::from_um(100.0));
        let hops = bfs_hops(&g, p(0, 0));
        assert_eq!(hops[g.node(p(0, 0)).index()], 0);
        assert_eq!(hops[g.node(p(4, 4)).index()], 8);
        assert_eq!(hops[g.node(p(2, 1)).index()], 3);
    }

    #[test]
    fn bfs_hops_unreachable() {
        let mut blk = BlockageMap::new(5, 5);
        blk.block_edges(&Rect::new(p(0, 0), p(4, 4)));
        let g = GridGraph::new(blk, Length::from_um(100.0), Length::from_um(100.0));
        let hops = bfs_hops(&g, p(0, 0));
        assert_eq!(hops[g.node(p(4, 4)).index()], u32::MAX);
    }

    #[test]
    fn deterministic_route() {
        let g = GridGraph::open(15, 15, Length::from_um(100.0));
        let a = shortest_path(&g, p(0, 0), p(14, 14)).unwrap();
        let b = shortest_path(&g, p(0, 0), p(14, 14)).unwrap();
        assert_eq!(a, b);
    }
}
