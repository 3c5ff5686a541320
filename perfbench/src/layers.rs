//! Per-layer metrics derived from a trace, and the self-time table.

use crate::stats::{percentile, sorted, tail};
use crate::trace::{Span, Trace};
use crate::Outcome;
use std::collections::BTreeMap;

pub const STAGES: [&str; 3] = ["fastpath", "rbp", "gals"];

/// Search counters, as `core.<stage>.<name>` ← `search.<stage>.<name>`.
const COUNTERS: [&str; 7] = [
    "pops",
    "pushed",
    "pruned",
    "goal_pruned",
    "front_comparisons",
    "arena_bytes",
    "waves",
];

/// Self time per layer of a traced run, with the run's measured total.
#[derive(Debug, Clone)]
pub struct Table {
    /// Layer → self time in ns.
    pub rows: BTreeMap<String, i64>,
    /// Wall time of the traced section.
    pub total_ns: f64,
    /// Summed root-span time: what the rows add up to.
    pub roots_ns: f64,
}

impl Table {
    /// The table as text lines: one row per layer with its share of
    /// the total, then the unaccounted remainder.
    pub fn lines(&self) -> Vec<String> {
        let mut lines = vec![format!("{:<28} {:>12} {:>8}", "layer", "self ms", "share")];
        let mut rows: Vec<(&String, &i64)> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (layer, ns) in rows {
            lines.push(format!(
                "{layer:<28} {:>12.3} {:>7.2}%",
                *ns as f64 / 1e6,
                *ns as f64 / self.total_ns * 100.0
            ));
        }
        let rest = self.total_ns - self.roots_ns;
        lines.push(format!(
            "{:<28} {:>12.3} {:>7.2}%",
            "(unaccounted)",
            rest / 1e6,
            rest / self.total_ns * 100.0
        ));
        lines.push(format!(
            "{:<28} {:>12.3} {:>7.2}%",
            "total",
            self.total_ns / 1e6,
            100.0
        ));
        lines
    }
}

/// The search stage of a `plan.net` span: the stage of its searches.
fn net_stage(spans: &[Span], children: &BTreeMap<usize, Vec<usize>>, net: usize) -> Option<String> {
    children.get(&net)?.iter().find_map(|&c| {
        spans[c]
            .name
            .strip_prefix("search.")
            .and_then(|s| s.strip_suffix(".solve_ns"))
            .map(str::to_owned)
    })
}

/// `core.<stage>.*` for every stage and `plan.net.solve_*_ms`, from
/// the trace's counters and spans.
pub fn search_metrics(out: &mut Outcome, t: &Trace, spans: &[Span]) {
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let mut solve_ns: BTreeMap<String, f64> = BTreeMap::new();
    let mut net_ms = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name != "plan.net.solve_ns" {
            continue;
        }
        net_ms.push(s.dur_ns() as f64 / 1e6);
        if let Some(stage) = net_stage(spans, &children, i) {
            *solve_ns.entry(stage).or_insert(0.0) += s.dur_ns() as f64;
        }
    }
    for stage in STAGES {
        for name in COUNTERS {
            out.set(
                &format!("core.{stage}.{name}"),
                t.counter(&format!("search.{stage}.{name}")) as f64,
            );
        }
        out.set(
            &format!("core.{stage}.max_queue"),
            t.gauge(&format!("search.{stage}.max_queue")) as f64,
        );
        let ns = solve_ns.get(stage).copied().unwrap_or(0.0);
        let pops = t.counter(&format!("search.{stage}.pops"));
        let pushed = t.counter(&format!("search.{stage}.pushed"));
        let goal = t.counter(&format!("search.{stage}.goal_pruned"));
        out.set(&format!("core.{stage}.solve_ms"), ns / 1e6);
        out.set(
            &format!("core.{stage}.ns_per_pop"),
            if pops == 0 { 0.0 } else { ns / pops as f64 },
        );
        out.set(
            &format!("core.{stage}.goal_prune_ratio"),
            if pushed == 0 {
                0.0
            } else {
                goal as f64 / pushed as f64
            },
        );
    }
    let nets = sorted(&net_ms);
    out.set("plan.net.solve_p50_ms", percentile(&nets, 50.0));
    out.set("plan.net.solve_tail_ms", tail(&nets).1);
}
