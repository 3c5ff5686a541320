//! The priced geometry oracle: the grid's Dijkstra
//! ([`cheapest_path`]) with edge weight physical length times a
//! caller-supplied congestion multiplier, charged to the flow budget.
//!
//! This is the min-cost oracle of the fractional multicommodity phase
//! (Albrecht et al., PAPERS.md): the fractional iteration and the
//! rip-up pass both pick *geometry* with it, then hand the chosen
//! corridor to the exact per-net searches for timing legalization —
//! prices steer where a net goes, the Elmore searches decide what gets
//! inserted along the way.
//!
//! Every pop and every relaxation charges the shared flow-phase
//! [`BudgetMeter`], so a blown deadline surfaces as
//! [`RouteError::BudgetExceeded`] from inside the Dijkstra loop (crlint
//! CR005 guards it in `clockroute_grid::dijkstra`) and the caller
//! degrades instead of hanging.
//!
//! The fractional phase does not call the oracle for a net whose last
//! path crosses no edge repriced since that path was found: prices only
//! rise, so the oracle would return the same path (DESIGN.md §17). A
//! skipped net charges no budget — there is no search to meter — so a
//! candidate-capped budget reaches further than one call per net and
//! round would.

use clockroute_core::{BudgetMeter, RouteError};
use clockroute_geom::Point;
use clockroute_grid::{cheapest_path, GridGraph, NodeId};

/// Cheapest source→sink geometry under `multiplier` (a per-edge factor
/// ≥ 1 applied to physical length, given the edge's end nodes).
/// Returns:
///
/// * `Ok(Some(points))` — the priced shortest path;
/// * `Ok(None)` — no route exists (terminals off-grid or disconnected);
///   the caller falls back to the full per-net planner, whose ladder
///   produces the canonical failure result;
/// * `Err(BudgetExceeded)` — the shared flow budget tripped mid-search.
///
/// Deterministic: ties are broken by node id, and the multiplier is a
/// pure function of the edge, so equal inputs give equal paths.
pub(crate) fn priced_path(
    graph: &GridGraph,
    source: Point,
    sink: Point,
    multiplier: impl Fn(NodeId, NodeId) -> f64,
    meter: &mut BudgetMeter,
) -> Result<Option<Vec<Point>>, RouteError> {
    let weight = |u, v| graph.edge_length(u, v).um() * multiplier(u, v);
    let charge = |pop| {
        if pop {
            meter.charge_pop(0)
        } else {
            meter.charge_expand()
        }
    };
    let path = cheapest_path(graph, source, sink, weight, charge)?;
    Ok(path.ok().map(|p| p.points().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_core::{SearchBudget, SearchStage};
    use clockroute_geom::units::Length;
    use std::time::Duration;

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    fn meter() -> BudgetMeter {
        BudgetMeter::new(SearchBudget::unlimited(), SearchStage::Flow)
    }

    #[test]
    fn unit_multiplier_matches_shortest_path() {
        let g = GridGraph::open(10, 10, Length::from_um(100.0));
        let path = priced_path(&g, p(0, 5), p(9, 5), |_, _| 1.0, &mut meter())
            .unwrap()
            .unwrap();
        assert_eq!(path.len(), 10);
        assert_eq!(path[0], p(0, 5));
        assert_eq!(path[9], p(9, 5));
        let unpriced = clockroute_grid::shortest_path(&g, p(2, 1), p(7, 8)).unwrap();
        let priced = priced_path(&g, p(2, 1), p(7, 8), |_, _| 1.0, &mut meter()).unwrap();
        assert_eq!(priced.as_deref(), Some(unpriced.points()));
    }

    #[test]
    fn expensive_row_forces_a_detour() {
        // Make every horizontal edge on row 0 ruinously expensive; the
        // path must dip to row 1 and come back.
        let g = GridGraph::open(6, 3, Length::from_um(100.0));
        let mult = |a, b| {
            if g.point(a).y == 0 && g.point(b).y == 0 {
                1000.0
            } else {
                1.0
            }
        };
        let path = priced_path(&g, p(0, 0), p(5, 0), mult, &mut meter())
            .unwrap()
            .unwrap();
        assert!(path.iter().any(|q| q.y == 1), "path stayed on priced row");
    }

    #[test]
    fn disconnected_and_off_grid_return_none() {
        let g = GridGraph::open(4, 4, Length::from_um(100.0));
        assert_eq!(
            priced_path(&g, p(0, 0), p(9, 9), |_, _| 1.0, &mut meter()).unwrap(),
            None
        );
        let mut g2 = GridGraph::open(4, 1, Length::from_um(100.0));
        g2.blockage_mut().block_edge(p(1, 0), p(2, 0));
        assert_eq!(
            priced_path(&g2, p(0, 0), p(3, 0), |_, _| 1.0, &mut meter()).unwrap(),
            None
        );
    }

    #[test]
    fn zero_deadline_trips_the_budget() {
        let g = GridGraph::open(8, 8, Length::from_um(100.0));
        let budget = SearchBudget::unlimited().with_deadline(Duration::ZERO);
        let mut m = BudgetMeter::new(budget, SearchStage::Flow);
        let err = priced_path(&g, p(0, 0), p(7, 7), |_, _| 1.0, &mut m).unwrap_err();
        assert!(matches!(
            err,
            RouteError::BudgetExceeded {
                stage: SearchStage::Flow,
                ..
            }
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = GridGraph::open(12, 12, Length::from_um(100.0));
        let mult = |a, b| 1.0 + 0.1 * f64::from(g.point(a).x.min(g.point(b).x));
        let a = priced_path(&g, p(0, 0), p(11, 11), mult, &mut meter()).unwrap();
        let b = priced_path(&g, p(0, 0), p(11, 11), mult, &mut meter()).unwrap();
        assert_eq!(a, b);
    }
}
