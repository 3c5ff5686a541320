//! The benchmark's own answer checks, run outside the timed window.

use clockroute_core::drc;
use clockroute_elmore::{GateLibrary, Technology};
use clockroute_grid::{edge_key, EdgeCapacities, EdgeKey, GridGraph};
use clockroute_plan::{Degradation, NetKind, NetSpec, Plan};
use std::collections::BTreeMap;

/// Runs `drc::check` on every routed net of `plan` against the
/// pre-reservation grid. Exact routes get the full check for their
/// kind; degraded routes promise geometry only, so they are checked as
/// unconstrained. Returns one message per failing net (unrouted nets
/// included).
pub fn drc_plan(
    plan: &Plan,
    nets: &[NetSpec],
    graph: &GridGraph,
    tech: &Technology,
    lib: &GateLibrary,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (net, result) in nets.iter().zip(plan.results()) {
        let Some(path) = result.path.as_ref() else {
            failures.push(format!("net {}: not routed", net.name));
            continue;
        };
        let rule = match (result.degradation, net.kind) {
            (Degradation::None, NetKind::Registered { period }) => {
                drc::ClockRule::SingleDomain(period)
            }
            (Degradation::None, NetKind::Gals { t_s, t_t }) => {
                drc::ClockRule::TwoDomain { t_s, t_t }
            }
            _ => drc::ClockRule::Unconstrained,
        };
        let mut violations = drc::check(path, graph, tech, lib, rule);
        if result.degradation != Degradation::None {
            // Fallback rungs place no synchronizers of their own.
            violations.retain(|v| !matches!(v, drc::DrcViolation::WrongFifoCount { .. }));
        }
        if !violations.is_empty() {
            failures.push(format!("net {}: {violations:?}", net.name));
        }
    }
    if plan.results().len() != nets.len() {
        failures.push(format!(
            "plan has {} results for {} nets",
            plan.results().len(),
            nets.len()
        ));
    }
    failures
}

/// Total overflow of `plan`'s routes against `caps`, counted here from
/// the route points alone — independent of the flow crate's own
/// bookkeeping.
pub fn recount_overflow(plan: &Plan, graph: &GridGraph, caps: &EdgeCapacities) -> u64 {
    let mut usage: BTreeMap<EdgeKey, u32> = BTreeMap::new();
    for result in plan.routed() {
        if let Some(path) = result.path.as_ref() {
            for w in path.points().windows(2) {
                *usage.entry(edge_key(w[0], w[1])).or_insert(0) += 1;
            }
        }
    }
    caps.capacitated_edges(graph)
        .into_iter()
        .map(|(a, b, cap)| {
            let used = usage.get(&edge_key(a, b)).copied().unwrap_or(0);
            u64::from(used.saturating_sub(cap))
        })
        .sum()
}
