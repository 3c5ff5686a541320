//! One dense index over the undirected edges of a grid: the layout of
//! every per-edge vector the flow planner keeps (prices, capacities,
//! usage).
//!
//! Edge `{a, b}` lives in slot `2·lo + dir`, where `lo` is the
//! row-major node index of the lower endpoint (the one first in `(y, x)`
//! order, i.e. the smaller [`NodeId`]) and `dir` is 0 for the edge going
//! east from it and 1 for the edge going north. Every grid edge gets a
//! distinct slot in `0..2·n`; the slots of the last column's east edges
//! and the top row's north edges simply stay unused. A slot is a pure
//! function of the grid's width, so two runs on the same grid index
//! identically — the determinism a `BTreeMap` over [`EdgeKey`]s gave,
//! without a key build and tree walk per edge relaxation.

use clockroute_geom::Point;
use clockroute_grid::{EdgeKey, GridGraph, NodeId};

/// The slot layout of one grid (its width and node count).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeSlots {
    width: u32,
    nodes: usize,
}

impl EdgeSlots {
    pub(crate) fn new(graph: &GridGraph) -> EdgeSlots {
        EdgeSlots {
            width: graph.width(),
            nodes: graph.node_count(),
        }
    }

    /// Length of a per-slot vector.
    pub(crate) fn len(self) -> usize {
        2 * self.nodes
    }

    /// The slot of the edge between adjacent nodes `a` and `b`.
    #[inline]
    pub(crate) fn of_nodes(self, a: NodeId, b: NodeId) -> usize {
        let (lo, hi) = (a.index().min(b.index()), a.index().max(b.index()));
        // On a one-column grid a north step is also a step of 1, so test
        // against the width, not against 1.
        2 * lo + usize::from(hi - lo == self.width as usize)
    }

    /// The slot of the edge between adjacent points `a` and `b`.
    #[inline]
    pub(crate) fn of_points(self, a: Point, b: Point) -> usize {
        let lo = if (a.y, a.x) <= (b.y, b.x) { a } else { b };
        let index = lo.y as usize * self.width as usize + lo.x as usize;
        2 * index + usize::from(a.x == b.x)
    }

    /// The slots of every edge along `points`.
    pub(crate) fn along(self, points: &[Point]) -> impl Iterator<Item = usize> + '_ {
        points.windows(2).map(move |w| self.of_points(w[0], w[1]))
    }

    /// The canonical key of the edge in `slot`.
    pub(crate) fn key(self, slot: usize) -> EdgeKey {
        let (lo, dir) = ((slot / 2) as u32, slot % 2);
        let (x, y) = (lo % self.width, lo / self.width);
        if dir == 0 {
            (x, y, x + 1, y)
        } else {
            (x, y, x, y + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::units::Length;
    use clockroute_grid::edge_key;
    use std::collections::BTreeSet;

    #[test]
    fn slots_are_distinct_and_round_trip_to_canonical_keys() {
        for (w, h) in [(1, 4), (4, 1), (5, 3), (2, 2)] {
            let g = GridGraph::open(w, h, Length::from_um(100.0));
            let slots = EdgeSlots::new(&g);
            let mut seen = BTreeSet::new();
            for u in g.nodes() {
                for v in g.neighbors(u) {
                    let s = slots.of_nodes(u, v);
                    assert_eq!(s, slots.of_nodes(v, u));
                    assert_eq!(s, slots.of_points(g.point(u), g.point(v)));
                    assert!(s < slots.len());
                    assert_eq!(slots.key(s), edge_key(g.point(u), g.point(v)));
                    seen.insert(s);
                }
            }
            assert_eq!(seen.len(), g.edge_count(), "{w}×{h}");
        }
    }
}
