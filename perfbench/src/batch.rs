//! The two batch workloads, `plan_mixed` and `flow_congested`: seeded
//! scenarios through the public path `crplan` takes — `scenario::parse`
//! → `GridGraph::from_floorplan` → `Planner::plan` (or
//! `PlannerFlowExt::flow`) with one job → `report::plan_report`.

use crate::check;
use crate::gen;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::{self, Trace};
use crate::Outcome;
use clockroute_cli::report;
use clockroute_cli::scenario;
use clockroute_elmore::GateLibrary;
use clockroute_flow::{FlowConfig, FlowSummary, PlannerFlowExt};
use clockroute_grid::GridGraph;
use clockroute_plan::{Plan, Planner, SharedTelemetry};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plan,
    Flow,
}

impl Mode {
    fn text(self, seed: u64, index: u64) -> String {
        match self {
            Mode::Plan => gen::plan_mixed(seed, index),
            Mode::Flow => gen::flow_congested(seed, index),
        }
    }
}

/// Scenarios whose answers make up the quality metrics: always solved,
/// whatever the time limit, so the quality metrics of one seed repeat
/// exactly.
const QUALITY_SET: u64 = 12;

/// Inputs generated ahead of the timed loop; the loop generates more
/// (outside its timed sections) if it outruns them.
const CORPUS: u64 = 48;

/// Set-up samples; `setup_s` is their median. The first runs before
/// the timed loop, the rest are spread evenly over its window (outside
/// the busy clock), so drift of the host over a run reaches `setup_s`
/// the way it reaches the other timings.
const SETUPS: u32 = 21;

/// One solved scenario, for the answer check.
struct Answer {
    index: u64,
    plan: Plan,
    summary: Option<FlowSummary>,
}

/// Runs `f` inside a benchmark span when tracing, bare otherwise.
pub fn in_span<T>(trace: Option<&Arc<Trace>>, name: &str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// The planner pipeline for one scenario text, returning the plan, the
/// flow summary and the rendered report. With `trace`, every call into
/// a layer runs inside a benchmark span and the planner reports to the
/// trace; without it, nothing but the caller's clock runs.
fn solve(
    mode: Mode,
    text: &str,
    lib: &GateLibrary,
    trace: Option<&Arc<Trace>>,
) -> (Plan, Option<FlowSummary>, String) {
    let s = in_span(trace, "cli.scenario", || scenario::parse(text))
        .expect("generated scenarios parse");
    let graph = in_span(trace, "grid", || {
        GridGraph::from_floorplan(&s.floorplan, s.grid.0, s.grid.1)
    });
    let mut planner = Planner::new(graph, s.tech, lib.clone())
        .reserve_routes(s.reserve)
        .jobs(1);
    if let Some(t) = trace {
        planner = planner.telemetry(SharedTelemetry::new(t.clone()));
    }
    let (plan, summary) = match mode {
        Mode::Plan => (in_span(trace, "plan", || planner.plan(&s.nets)), None),
        Mode::Flow => {
            let (plan, summary) = in_span(trace, "flow", || {
                planner.flow(&s.nets, &s.capacities, FlowConfig::default())
            })
            .into_parts();
            (plan, Some(summary))
        }
    };
    let rendered = in_span(trace, "cli.report", || report::plan_report(&plan));
    (plan, summary, black_box(rendered))
}

fn peak_rss_mb(status: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of process `pid` (`self` for this one), in MB.
pub fn process_peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map(|s| peak_rss_mb(&s))
        .unwrap_or(0.0)
}

/// Set-up: generate the run's inputs and solve one fixed warm-up
/// scenario (the same on every seed), so allocator growth and lazy
/// initialisation are paid before timing starts.
fn set_up(mode: Mode, seed: u64, lib: &GateLibrary) -> Vec<String> {
    let texts: Vec<String> = (0..CORPUS).map(|i| mode.text(seed, i)).collect();
    black_box(solve(mode, &mode.text(0, 0), lib, None));
    texts
}

/// Answer checks on every solved scenario; returns one message per
/// failing scenario, and the time `drc::check` took per net in µs.
fn check_answers(
    mode: Mode,
    seed: u64,
    solved: &[Answer],
    lib: &GateLibrary,
) -> (Vec<String>, f64) {
    let mut failures = Vec::new();
    let (mut drc, mut nets) = (Duration::ZERO, 0);
    for s in solved {
        let text = mode.text(seed, s.index);
        let sc = scenario::parse(&text).expect("generated scenarios parse");
        let graph = GridGraph::from_floorplan(&sc.floorplan, sc.grid.0, sc.grid.1);
        let start = Instant::now();
        let mut problems = check::drc_plan(&s.plan, &sc.nets, &graph, &sc.tech, lib);
        drc += start.elapsed();
        nets += sc.nets.len();
        if let Some(summary) = &s.summary {
            let recount = check::recount_overflow(&s.plan, &graph, &sc.capacities);
            if recount != summary.total_overflow {
                problems.push(format!(
                    "overflow recount {recount} != reported {}",
                    summary.total_overflow
                ));
            }
        }
        if !problems.is_empty() {
            failures.push(format!("scenario {}: {}", s.index, problems.join("; ")));
        }
    }
    (failures, drc.as_secs_f64() * 1e6 / nets.max(1) as f64)
}

/// Re-solves the quality set with a recording sink attached, outside
/// the timed window: every report must equal the timed run's, and the
/// effort counters it records are a pure function of the seed, so two
/// runs of one seed must print the same ones.
fn replay_quality(
    mode: Mode,
    seed: u64,
    quality: &[Answer],
    lib: &GateLibrary,
) -> (Vec<String>, Vec<(String, String)>) {
    let recorder = Arc::new(Trace::new());
    let mut mismatches = Vec::new();
    for s in quality {
        let (plan, _, report) = solve(mode, &mode.text(seed, s.index), lib, Some(&recorder));
        if report != report::plan_report(&s.plan) || plan != s.plan {
            mismatches.push(format!(
                "scenario {}: re-solve gave a different answer",
                s.index
            ));
        }
    }
    let mut counters = Vec::new();
    for stage in crate::layers::STAGES {
        for name in ["pops", "front_comparisons"] {
            let key = format!("search.{stage}.{name}");
            counters.push((key.clone(), recorder.counter(&key).to_string()));
        }
    }
    if mode == Mode::Flow {
        for key in ["flow.rounds", "flow.ripups"] {
            counters.push((key.to_owned(), recorder.counter(key).to_string()));
        }
    }
    (mismatches, counters)
}

/// The untraced run: end-to-end metrics.
pub fn run(mode: Mode, seed: u64, seconds: u64) -> Outcome {
    let lib = GateLibrary::paper_library();
    let timed_set_up = || {
        let start = Instant::now();
        let texts = set_up(mode, seed, &lib);
        (texts, start.elapsed().as_secs_f64())
    };
    let (mut texts, first_setup) = timed_set_up();
    let mut setups = vec![first_setup];

    let deadline = Duration::from_secs(seconds);
    let mut scenario_ms = Vec::new();
    let mut quality = Vec::new();
    let mut failures = Vec::new();
    let mut nets = 0u64;
    let mut busy = Duration::ZERO;
    let loop_start = Instant::now();
    let mut index = 0u64;
    while index < QUALITY_SET || loop_start.elapsed() < deadline {
        if index as usize >= texts.len() {
            texts.push(mode.text(seed, index));
        }
        if (setups.len() as u32) < SETUPS
            && loop_start.elapsed() >= deadline * setups.len() as u32 / SETUPS
        {
            setups.push(black_box(timed_set_up()).1);
        }
        let text = &texts[index as usize];
        let start = Instant::now();
        let (plan, summary, _) = solve(mode, text, &lib, None);
        let took = start.elapsed();
        busy += took;
        scenario_ms.push(took.as_secs_f64() * 1e3);
        nets += plan.routed().count() as u64;
        let answer = Answer {
            index,
            plan,
            summary,
        };
        // Checked now, outside the busy clock, and dropped unless it is
        // in the quality set: peak memory must not grow with the number
        // of scenarios a run gets through.
        if index < QUALITY_SET {
            quality.push(answer);
        } else {
            failures.extend(check_answers(mode, seed, std::slice::from_ref(&answer), &lib).0);
        }
        index += 1;
    }
    let rss = process_peak_rss_mb("self");

    failures.extend(check_answers(mode, seed, &quality, &lib).0);
    let (mismatches, deterministic) = replay_quality(mode, seed, &quality, &lib);
    failures.extend(mismatches);
    let degraded: usize = quality.iter().map(|s| s.plan.degraded().count()).sum();
    let wire_mm: f64 = quality.iter().map(|s| s.plan.total_wirelength().mm()).sum();
    let latency_ps: f64 = quality
        .iter()
        .flat_map(|s| s.plan.routed().filter_map(|r| r.latency))
        .map(|t| t.ps())
        .sum();
    let overflow: u64 = quality
        .iter()
        .filter_map(|s| s.summary.as_ref())
        .map(|s| s.total_overflow)
        .sum();

    let scenarios = sorted(&scenario_ms);
    let (tail_p, tail_ms) = tail(&scenarios);
    let mut out = Outcome::new(index, failures.len() as u64);
    out.notes = failures;
    out.deterministic = deterministic;
    out.deterministic
        .push(("wire_mm".to_owned(), wire_mm.to_string()));
    out.deterministic
        .push(("net_latency_ps".to_owned(), latency_ps.to_string()));
    out.deterministic
        .push(("degraded_nets".to_owned(), degraded.to_string()));
    out.deterministic
        .push(("overflow".to_owned(), overflow.to_string()));
    out.set("setup_s", median(&setups));
    out.setup_samples = setups;
    out.set("nets_per_s", nets as f64 / busy.as_secs_f64());
    out.set("req_per_s", index as f64 / busy.as_secs_f64());
    out.set("scenario_p50_ms", percentile(&scenarios, 50.0));
    out.set("scenario_tail_ms", tail_ms);
    out.tail_percentile = tail_p;
    // Every batch scenario is solved from scratch, so the cold-solve
    // median is the scenario median.
    out.set("cold_p50_ms", percentile(&scenarios, 50.0));
    out.set("peak_rss_mb", rss);
    out.set("wire_mm", wire_mm);
    out.set("net_latency_ps", latency_ps);
    out.set("quality.degraded_nets", degraded as f64);
    if mode == Mode::Flow {
        out.set("flow.overflow", overflow as f64);
    }
    out
}

/// The traced run: each scenario twice, once with a span around every
/// layer call and the trace attached to the planner, once untraced,
/// alternating which goes first; the difference is the tracing
/// overhead.
pub fn run_traced(mode: Mode, seed: u64, seconds: u64, trace_path: &std::path::Path) -> Outcome {
    let lib = GateLibrary::paper_library();
    let texts = set_up(mode, seed, &lib);
    let t = Arc::new(Trace::new());
    let deadline = Duration::from_secs(seconds);
    let loop_start = Instant::now();
    let mut index = 0u64;
    let mut solved = Vec::new();
    let (mut traced_total, mut untraced_total) = (Duration::ZERO, Duration::ZERO);
    while index == 0 || loop_start.elapsed() < deadline {
        let text = texts
            .get(index as usize)
            .cloned()
            .unwrap_or_else(|| mode.text(seed, index));
        let untraced = || {
            let start = Instant::now();
            black_box(solve(mode, &text, &lib, None));
            start.elapsed()
        };
        let traced_first = index.is_multiple_of(2);
        if !traced_first {
            untraced_total += untraced();
        }
        t.set_request(index);
        let start = Instant::now();
        let (plan, summary, _) = solve(mode, &text, &lib, Some(&t));
        traced_total += start.elapsed();
        if traced_first {
            untraced_total += untraced();
        }
        solved.push(Answer {
            index,
            plan,
            summary,
        });
        index += 1;
    }

    // The answer check is timed per net: it sizes running the checker
    // in production, and stays outside the table's total.
    let (failures, drc_us) = check_answers(mode, seed, &solved, &lib);

    let spans = t.spans();
    let mut out = Outcome::new(solved.len() as u64, failures.len() as u64);
    out.notes = failures;
    if let Err(e) = t.write_jsonl(trace_path) {
        out.notes
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }
    crate::layers::search_metrics(&mut out, &t, &spans);
    let by_name = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let per = |name: &str| -> f64 {
        let v = by_name(name);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    out.set("cli.scenario.parse_us", per("cli.scenario") / 1e3);
    out.set("grid.build_ms", per("grid") / 1e6);
    out.set("cli.report.render_us", per("cli.report") / 1e3);
    out.set("core.drc.check_us", drc_us);
    if mode == Mode::Flow {
        let flow_ns: f64 = by_name("flow").iter().sum();
        let legalize_ns: f64 = spans
            .iter()
            .filter(|s| s.name == "plan.net.solve_ns")
            .filter(|s| s.parent.is_some_and(|p| spans[p].name == "flow"))
            .map(|s| s.dur_ns() as f64)
            .sum();
        out.set("flow.rounds", t.counter("flow.rounds") as f64);
        out.set("flow.price_updates", t.counter("flow.price.updates") as f64);
        out.set("flow.ripups", t.counter("flow.ripups") as f64);
        out.set("flow.legalize_ms", legalize_ns / 1e6);
        out.set("flow.fractional_ms", (flow_ns - legalize_ns) / 1e6);
        let overflow: u64 = solved
            .iter()
            .filter_map(|s| s.summary.as_ref())
            .map(|s| s.total_overflow)
            .sum();
        out.set("flow.overflow", overflow as f64);
    }
    out.set(
        "quality.degraded_nets",
        solved
            .iter()
            .map(|s| s.plan.degraded().count() as f64)
            .sum(),
    );
    // The total is the traced scenarios' wall time; what no layer span
    // covers (planner construction, glue) is the unaccounted share.
    let total_ns = traced_total.as_nanos() as f64;
    let roots_ns = trace::root_ns(&spans) as f64;
    out.table = Some(crate::layers::Table {
        rows: trace::self_times(&spans),
        total_ns,
        roots_ns,
    });
    out.set("trace.unaccounted_share", 1.0 - roots_ns / total_ns);
    out.set(
        "trace.overhead_share",
        traced_total.as_secs_f64() / untraced_total.as_secs_f64() - 1.0,
    );
    out
}
