//! The re-pricing lemma the flow planner's oracle skip relies on:
//! raising the weight of edges *off* the path [`cheapest_path`]
//! returned never changes the path it returns.
//!
//! Why it holds: the returned path's cost is untouched while every
//! other path's cost can only rise (float `+` and `×` are monotone),
//! so each node on the path keeps its distance; and a node's
//! predecessor is the first popped neighbour that reaches that distance
//! (`prev` moves only on strict improvement, pops run in
//! `(distance, node id)` order), which no raised edge can bring forward.
//!
//! The property runs over seeded random grids with random blockages and
//! three weight regimes, one of them all-equal so ties decide nearly
//! every step. A fixed case keeps the converse honest: raising an edge
//! *on* the path can change it.

use clockroute_geom::units::Length;
use clockroute_geom::{BlockageMap, Point};
use clockroute_grid::{cheapest_path, edge_key, EdgeKey, GridGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;

const CASES: u64 = 400;

/// Rounds of raising per case: each raises edges off the current path.
const ROUNDS: usize = 4;

fn path_of(g: &GridGraph, w: &BTreeMap<EdgeKey, f64>, s: Point, t: Point) -> Option<Vec<Point>> {
    let weight = |u, v| w[&edge_key(g.point(u), g.point(v))];
    let free = |_| Ok::<(), Infallible>(());
    match cheapest_path(g, s, t, weight, free) {
        Ok(found) => found.ok().map(|p| p.points().to_vec()),
        Err(never) => match never {},
    }
}

fn usable_edges(g: &GridGraph) -> Vec<EdgeKey> {
    let mut out = Vec::new();
    for y in 0..g.height() {
        for x in 0..g.width() {
            let p = Point::new(x, y);
            for q in [Point::new(x + 1, y), Point::new(x, y + 1)] {
                if g.contains(q) && !g.blockage().is_edge_blocked(p, q) {
                    out.push(edge_key(p, q));
                }
            }
        }
    }
    out
}

#[test]
fn raising_off_path_edges_never_changes_the_path() {
    let mut checked = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1E44_A000 + case);
        let (w, h) = (rng.gen_range(2u32..=12), rng.gen_range(2u32..=12));
        let mut blk = BlockageMap::new(w, h);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w && rng.gen_range(0u32..100) < 15 {
                    blk.block_edge(Point::new(x, y), Point::new(x + 1, y));
                }
                if y + 1 < h && rng.gen_range(0u32..100) < 15 {
                    blk.block_edge(Point::new(x, y), Point::new(x, y + 1));
                }
            }
        }
        let g = GridGraph::new(blk, Length::from_um(250.0), Length::from_um(250.0));
        let mut weights: BTreeMap<EdgeKey, f64> = BTreeMap::new();
        for k in usable_edges(&g) {
            let weight = match case % 3 {
                0 => 250.0,                                      // all equal: ties everywhere
                1 => 250.0 * f64::from(rng.gen_range(1u32..=3)), // few distinct values
                _ => rng.gen_range(250.0f64..2500.0),
            };
            weights.insert(k, weight);
        }
        let pick = |rng: &mut StdRng| Point::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let (s, t) = (pick(&mut rng), pick(&mut rng));
        let Some(path) = path_of(&g, &weights, s, t) else {
            continue;
        };
        let on_path: BTreeSet<EdgeKey> = path.windows(2).map(|e| edge_key(e[0], e[1])).collect();
        for round in 0..ROUNDS {
            for (k, weight) in weights.iter_mut() {
                if on_path.contains(k) || rng.gen_range(0u32..2) == 0 {
                    continue;
                }
                // Mix tiny raises (one ulp-scale step) with large ones.
                *weight = if round % 2 == 0 {
                    *weight * (1.0 + f64::EPSILON)
                } else {
                    (*weight * rng.gen_range(1.0f64..4.0)).min(1e9)
                };
            }
            assert_eq!(
                path_of(&g, &weights, s, t).as_deref(),
                Some(path.as_slice()),
                "case {case} round {round}: raising off-path edges moved the path"
            );
        }
        checked += 1;
    }
    assert!(checked > CASES / 2, "only {checked} connected cases");
}

#[test]
fn raising_an_on_path_edge_can_change_the_path() {
    // All-equal weights on an open grid: several shortest paths tie, and
    // the tie-break picks one. A tiny raise on one of its edges makes
    // an equally short alternative strictly cheaper.
    let g = GridGraph::open(3, 3, Length::from_um(250.0));
    let mut weights: BTreeMap<EdgeKey, f64> =
        usable_edges(&g).into_iter().map(|k| (k, 250.0)).collect();
    let (s, t) = (Point::new(0, 0), Point::new(2, 2));
    let before = path_of(&g, &weights, s, t).expect("open grid is connected");
    let first = edge_key(before[0], before[1]);
    *weights.get_mut(&first).expect("path edge is usable") *= 1.0 + f64::EPSILON;
    let after = path_of(&g, &weights, s, t).expect("open grid is connected");
    assert_ne!(
        before, after,
        "raising an on-path edge left the path in place"
    );
    assert_eq!(
        after.len(),
        before.len(),
        "the detour is another shortest path"
    );
}
