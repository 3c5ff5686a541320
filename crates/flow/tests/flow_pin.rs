//! Exact pin of the flow planner's output on fixed instances.
//!
//! The three shipped `flow_*.cr` scenarios and two generated congested
//! instances (100 and 120 short nets on 40 and 48 grids at
//! `capacity default 2`, `reserve off`) run through
//! [`PlannerFlowExt::flow`]. Each run is compared against literals
//! recorded from the planner as it stood before its edge state moved to
//! dense per-slot vectors:
//!
//! * a hash of every net's result (route points, inserted gates,
//!   latency, cycles) and of the rendered report with its `congestion:`
//!   section;
//! * every [`FlowSummary`] field;
//! * the `flow.*` counters and gauges, including how many oracle calls
//!   incremental re-pricing skipped.
//!
//! A change to the flow planner's internals that is meant to be exact
//! must leave every literal here untouched.

use clockroute_cli::{report, scenario};
use clockroute_core::canon::CanonHasher;
use clockroute_core::MetricsRecorder;
use clockroute_elmore::GateLibrary;
use clockroute_flow::{FlowConfig, FlowMode, FlowSummary, PlannerFlowExt, RoundStats};
use clockroute_grid::{EdgeKey, GridGraph};
use clockroute_plan::{Planner, SharedTelemetry};
use std::fmt::Write as _;
use std::sync::Arc;

/// SplitMix64, for the generated instances.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// A congested scenario: `nets` short nets on a `g × g` grid at 0.25 mm
/// pitch, capacity 2 on every edge, reservation off. Nets alternate
/// horizontal and vertical, span a quarter to half of the die, and
/// drift up to four tracks, so shortest routes pile onto shared rows
/// and columns; every 25th net is registered.
fn congested(seed: u64, g: u32, nets: usize) -> String {
    let mut rng = Rng(seed);
    let mm = f64::from(g) * 0.25;
    let mut out = format!("die {mm}mm {mm}mm\ngrid {g} {g}\ntech paper\n");
    out.push_str("reserve off\ncapacity default 2\n");
    let at = |frac: f64| (f64::from(g) * frac).round() as u32;
    let (min_len, max_len) = (at(0.25), at(0.5));
    for j in 0..nets {
        let len = rng.range(min_len, max_len);
        let start = rng.range(0, g - 1 - len);
        let lane = rng.range(0, g - 1);
        let lane2 = (lane + rng.range(0, 4)).min(g - 1);
        let (src, dst) = if j % 2 == 0 {
            ((start, lane), (start + len, lane2))
        } else {
            ((lane, start), (lane2, start + len))
        };
        let (kind, period) = if j % 25 == 0 {
            ("reg", " period=400")
        } else {
            ("comb", "")
        };
        let _ = writeln!(
            out,
            "net {kind} name=f{j} src={},{} dst={},{}{period}",
            src.0, src.1, dst.0, dst.1
        );
    }
    out
}

fn shipped(name: &str) -> String {
    let path = format!("{}/../../scenarios/{name}.cr", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Everything one flow run is pinned on.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Hash of every net's `Debug` form, in plan order.
    routes: u64,
    /// Hash of the rendered plan report plus the congestion section.
    report: u64,
    summary: FlowSummary,
    /// `flow.*` counters and gauges by name, in a fixed order.
    counters: Vec<(&'static str, u64)>,
}

/// The `flow.*` names the planner emits, with whether each is a gauge.
const FLOW_METRICS: [(&str, bool); 7] = [
    ("flow.delegated", false),
    ("flow.rounds", false),
    ("flow.price.updates", false),
    ("flow.ripups", false),
    ("flow.budget.exhausted", false),
    ("flow.overflow.total", true),
    ("flow.overflow.max", true),
];

fn observe(text: &str) -> (Observed, Arc<MetricsRecorder>) {
    let s = scenario::parse(text).expect("scenario parses");
    let graph = GridGraph::from_floorplan(&s.floorplan, s.grid.0, s.grid.1);
    let recorder = Arc::new(MetricsRecorder::new());
    let (plan, summary) = Planner::new(graph, s.tech, GateLibrary::paper_library())
        .reserve_routes(s.reserve)
        .jobs(1)
        .telemetry(SharedTelemetry::new(recorder.clone()))
        .flow(&s.nets, &s.capacities, FlowConfig::default())
        .into_parts();
    let mut routes = CanonHasher::new();
    for r in plan.results() {
        routes.write_str(&format!("{r:?}"));
    }
    let mut rendered = CanonHasher::new();
    rendered.write_str(&report::plan_report(&plan));
    rendered.write_str(&summary.render());
    let counters = FLOW_METRICS
        .iter()
        .map(|&(name, gauge)| {
            let v = if gauge {
                recorder.gauge_value(name)
            } else {
                recorder.counter_value(name)
            };
            (name, v)
        })
        .collect();
    let observed = Observed {
        routes: routes.finish(),
        report: rendered.finish(),
        summary,
        counters,
    };
    (observed, recorder)
}

fn rounds(stats: &[(u64, u32)]) -> Vec<RoundStats> {
    stats
        .iter()
        .enumerate()
        .map(|(i, &(total_overflow, max_overflow))| RoundStats {
            round: i as u32,
            total_overflow,
            max_overflow,
        })
        .collect()
}

/// The expected observation of one run, from its recorded literals.
struct Expect {
    routes: u64,
    report: u64,
    rounds: u32,
    price_updates: u64,
    ripups: u64,
    best_fractional_overflow: u64,
    /// `(total_overflow, max_overflow)` of each fractional round.
    round_stats: &'static [(u64, u32)],
    total_overflow: u64,
    max_overflow: u32,
    overloaded: &'static [(EdgeKey, (u32, u32))],
}

impl Expect {
    fn observed(&self) -> Observed {
        Observed {
            routes: self.routes,
            report: self.report,
            summary: FlowSummary {
                mode: FlowMode::Priced,
                rounds: self.rounds,
                price_updates: self.price_updates,
                ripups: self.ripups,
                seed: 0,
                budget_exhausted: false,
                best_fractional_overflow: Some(self.best_fractional_overflow),
                round_stats: rounds(self.round_stats),
                total_overflow: self.total_overflow,
                max_overflow: self.max_overflow,
                overloaded: self.overloaded.iter().copied().collect(),
            },
            counters: vec![
                ("flow.delegated", 0),
                ("flow.rounds", u64::from(self.rounds)),
                ("flow.price.updates", self.price_updates),
                ("flow.ripups", self.ripups),
                ("flow.budget.exhausted", 0),
                ("flow.overflow.total", self.total_overflow),
                ("flow.overflow.max", u64::from(self.max_overflow)),
            ],
        }
    }
}

fn check(label: &str, text: &str, expect: &Expect) -> Arc<MetricsRecorder> {
    let (observed, recorder) = observe(text);
    assert_eq!(observed, expect.observed(), "{label}: flow output moved");
    recorder
}

/// Seeds of the two generated congested instances.
const CONGESTED_100: u64 = 0xC0FFEE;
const CONGESTED_120: u64 = 0xF10E;

#[test]
fn flow_spread_is_pinned() {
    let recorder = check(
        "flow_spread",
        &shipped("flow_spread"),
        &Expect {
            routes: 1919566281953571318,
            report: 12383884708624534693,
            rounds: 12,
            price_updates: 100,
            ripups: 1,
            best_fractional_overflow: 12,
            round_stats: &[
                (12, 2),
                (16, 2),
                (16, 2),
                (12, 2),
                (20, 2),
                (20, 2),
                (16, 2),
                (16, 2),
                (20, 2),
                (20, 2),
                (16, 2),
                (16, 2),
            ],
            total_overflow: 0,
            max_overflow: 0,
            overloaded: &[],
        },
    );
    // Oracle calls skipped by incremental re-pricing.
    assert_eq!(recorder.counter_value("flow.price.skipped"), 0);
}

#[test]
fn flow_bridges_is_pinned() {
    let recorder = check(
        "flow_bridges",
        &shipped("flow_bridges"),
        &Expect {
            routes: 4467310266839380878,
            report: 18229745024370792233,
            rounds: 3,
            price_updates: 3,
            ripups: 0,
            best_fractional_overflow: 0,
            round_stats: &[(3, 2), (2, 2), (0, 0)],
            total_overflow: 0,
            max_overflow: 0,
            overloaded: &[],
        },
    );
    // Oracle calls skipped by incremental re-pricing.
    assert_eq!(recorder.counter_value("flow.price.skipped"), 0);
}

#[test]
fn flow_mesh_is_pinned() {
    let recorder = check(
        "flow_mesh",
        &shipped("flow_mesh"),
        &Expect {
            routes: 17367612977911670606,
            report: 15462369342537630003,
            rounds: 12,
            price_updates: 258,
            ripups: 0,
            best_fractional_overflow: 16,
            round_stats: &[
                (16, 1),
                (20, 1),
                (20, 1),
                (16, 1),
                (24, 1),
                (24, 1),
                (20, 1),
                (20, 1),
                (28, 1),
                (22, 1),
                (24, 1),
                (24, 1),
            ],
            total_overflow: 0,
            max_overflow: 0,
            overloaded: &[],
        },
    );
    // Oracle calls skipped by incremental re-pricing.
    assert_eq!(recorder.counter_value("flow.price.skipped"), 0);
}

#[test]
fn congested_100_nets_on_40_grid_is_pinned() {
    let recorder = check(
        "congested 100/40",
        &congested(CONGESTED_100, 40, 100),
        &Expect {
            routes: 10124776097123674220,
            report: 14794474910168742665,
            rounds: 12,
            price_updates: 1516,
            ripups: 14,
            best_fractional_overflow: 108,
            round_stats: &[
                (108, 3),
                (215, 7),
                (250, 7),
                (296, 8),
                (303, 8),
                (288, 9),
                (241, 8),
                (252, 6),
                (235, 4),
                (283, 6),
                (247, 6),
                (223, 4),
            ],
            total_overflow: 0,
            max_overflow: 0,
            overloaded: &[],
        },
    );
    // Oracle calls skipped by incremental re-pricing.
    assert_eq!(recorder.counter_value("flow.price.skipped"), 434);
}

#[test]
fn congested_120_nets_on_48_grid_is_pinned() {
    let recorder = check(
        "congested 120/48",
        &congested(CONGESTED_120, 48, 120),
        &Expect {
            routes: 6157854285112121224,
            report: 1298101400999279379,
            rounds: 12,
            price_updates: 1983,
            ripups: 14,
            best_fractional_overflow: 100,
            round_stats: &[
                (100, 3),
                (248, 7),
                (312, 5),
                (294, 4),
                (289, 4),
                (369, 6),
                (359, 5),
                (334, 6),
                (339, 7),
                (348, 7),
                (347, 4),
                (326, 6),
            ],
            total_overflow: 6,
            max_overflow: 1,
            overloaded: &[
                ((17, 34, 18, 34), (3, 2)),
                ((22, 36, 23, 36), (3, 2)),
                ((24, 28, 25, 28), (3, 2)),
                ((25, 4, 26, 4), (3, 2)),
                ((29, 27, 29, 28), (3, 2)),
                ((30, 24, 31, 24), (3, 2)),
            ],
        },
    );
    // Oracle calls skipped by incremental re-pricing.
    assert_eq!(recorder.counter_value("flow.price.skipped"), 545);
}
