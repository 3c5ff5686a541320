//! Differential fuzz suite: production searches vs the exhaustive oracles.
//!
//! Generates 200+ tiny random scenarios (grids up to 4×4 with random node
//! and edge blockages, random pitch, random wire technology, random clock
//! periods) from fixed seeds, then checks that the fast-path, RBP and
//! GALS searches agree *exactly* with the brute-force oracles in
//! `clockroute::core::reference` — same feasibility verdict, same optimal
//! value. Seeds are deterministic (`BASE_SEED + index`), so a failure
//! reproduces by running the suite again; the panic message carries the
//! full scenario dump needed to rebuild the failing instance by hand.

use clockroute::core::{reference, LatchSpec};
use clockroute::geom::units::{CapPerLength, ResPerLength};
use clockroute::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First seed of the suite; instance `i` uses `BASE_SEED + i`.
const BASE_SEED: u64 = 0xC10C_0D1F;

/// Number of random scenarios (the issue floor is 200).
const INSTANCES: u64 = 200;

/// Everything needed to rebuild one fuzz instance by hand.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    width: u32,
    height: u32,
    pitch_um: f64,
    res_ohms_per_um: f64,
    cap_ff_per_um: f64,
    period_ps: f64,
    sink_period_ps: f64,
    source: (u32, u32),
    sink: (u32, u32),
    blocked_nodes: Vec<(u32, u32)>,
    blocked_edges: Vec<((u32, u32), (u32, u32))>,
}

impl Scenario {
    fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(2u32..=4);
        let height = rng.gen_range(2u32..=4);
        let pitch_um = rng.gen_range(300.0f64..2000.0);
        // Sweep the technology around the paper's 0.07 µm point so the
        // oracles are exercised on more than one calibration.
        let res_ohms_per_um = rng.gen_range(0.5f64..3.0);
        let cap_ff_per_um = rng.gen_range(0.005f64..0.03);
        let period_ps = rng.gen_range(60.0f64..800.0);
        let sink_period_ps = rng.gen_range(60.0f64..800.0);

        let pick = |rng: &mut StdRng| (rng.gen_range(0..width), rng.gen_range(0..height));
        let source = pick(&mut rng);
        let sink = loop {
            let p = pick(&mut rng);
            if p != source {
                break p;
            }
        };

        let mut blocked_nodes = Vec::new();
        for _ in 0..rng.gen_range(0usize..=(width * height / 4) as usize) {
            let p = pick(&mut rng);
            if p != source && p != sink {
                blocked_nodes.push(p);
            }
        }
        // Random wiring blockages; these may disconnect the terminals, in
        // which case solver and oracle must both report infeasibility.
        let mut blocked_edges = Vec::new();
        for _ in 0..rng.gen_range(0usize..=(width * height / 4) as usize) {
            let (x, y) = pick(&mut rng);
            let to = if rng.gen_range(0u32..2) == 0 && x + 1 < width {
                (x + 1, y)
            } else if y + 1 < height {
                (x, y + 1)
            } else if x + 1 < width {
                (x + 1, y)
            } else {
                continue;
            };
            blocked_edges.push(((x, y), to));
        }

        Scenario {
            seed,
            width,
            height,
            pitch_um,
            res_ohms_per_um,
            cap_ff_per_um,
            period_ps,
            sink_period_ps,
            source,
            sink,
            blocked_nodes,
            blocked_edges,
        }
    }

    fn graph(&self) -> GridGraph {
        let mut blk = BlockageMap::new(self.width, self.height);
        for &(x, y) in &self.blocked_nodes {
            blk.block_node(Point::new(x, y));
        }
        for &((ax, ay), (bx, by)) in &self.blocked_edges {
            blk.block_edge(Point::new(ax, ay), Point::new(bx, by));
        }
        GridGraph::new(
            blk,
            Length::from_um(self.pitch_um),
            Length::from_um(self.pitch_um),
        )
    }

    fn tech(&self) -> Technology {
        Technology::new(
            ResPerLength::from_ohms_per_um(self.res_ohms_per_um),
            CapPerLength::from_ff_per_um(self.cap_ff_per_um),
        )
    }

    fn source(&self) -> Point {
        Point::new(self.source.0, self.source.1)
    }

    fn sink(&self) -> Point {
        Point::new(self.sink.0, self.sink.1)
    }

    /// Longest simple path on the grid — the oracle bound that makes the
    /// brute force a true global optimum.
    fn max_edges(&self) -> usize {
        (self.width * self.height - 1) as usize
    }
}

/// `Ok(a) ~ Ok(b)` within eps, or both `NoFeasibleRoute`.
fn assert_same_time(
    scenario: &Scenario,
    what: &str,
    got: Result<Time, RouteError>,
    want: Result<Time, RouteError>,
) {
    match (&got, &want) {
        (Ok(a), Ok(b)) if (a.ps() - b.ps()).abs() < 1e-6 => {}
        (Err(RouteError::NoFeasibleRoute), Err(RouteError::NoFeasibleRoute)) => {}
        _ => panic!(
            "{what} diverged: solver {got:?} vs oracle {want:?}\n\
             reproduce with: {scenario:#?}"
        ),
    }
}

#[test]
fn fastpath_matches_oracle_on_random_scenarios() {
    let lib = GateLibrary::paper_library();
    for i in 0..INSTANCES {
        let sc = Scenario::generate(BASE_SEED + i);
        let g = sc.graph();
        let tech = sc.tech();
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(sc.source())
            .sink(sc.sink())
            .solve();
        let oracle = reference::min_delay_exhaustive(
            &g,
            &tech,
            &lib,
            sc.source(),
            sc.sink(),
            sc.max_edges(),
        );
        assert_same_time(&sc, "fastpath", sol.map(|s| s.delay()), oracle);
    }
}

#[test]
fn rbp_matches_oracle_on_random_scenarios() {
    let lib = GateLibrary::paper_library();
    for i in 0..INSTANCES {
        let sc = Scenario::generate(BASE_SEED + i);
        let g = sc.graph();
        let tech = sc.tech();
        let t = Time::from_ps(sc.period_ps);
        let sol = RbpSpec::new(&g, &tech, &lib)
            .source(sc.source())
            .sink(sc.sink())
            .period(t)
            .solve();
        let oracle = reference::min_registers_exhaustive(
            &g,
            &tech,
            &lib,
            sc.source(),
            sc.sink(),
            t,
            sc.max_edges(),
        );
        match (&sol, &oracle) {
            (Ok(s), Ok(best)) if s.register_count() == *best => {}
            (Err(RouteError::NoFeasibleRoute), Err(RouteError::NoFeasibleRoute)) => {}
            _ => panic!(
                "rbp diverged: solver {:?} vs oracle {oracle:?}\n\
                 reproduce with: {sc:#?}",
                sol.map(|s| s.register_count()),
            ),
        }
    }
}

#[test]
fn gals_never_worse_than_oracle_on_random_scenarios() {
    // The GALS oracle enumerates *simple* paths only, but the production
    // search legally routes non-simple detours (out to a FIFO site and
    // back — `GridPath::validate` allows node revisits), which on tiny
    // blocked grids can strictly beat every simple path or rescue an
    // instance with no simple-path solution at all. So the differential
    // contract is one-sided: the solver must never be worse than the
    // oracle, and every strictly-better or rescued solution must be a
    // non-simple path that passes the ground-truth feasibility report.
    let lib = GateLibrary::paper_library();
    let (mut checked, mut exact) = (0u32, 0u32);
    for i in 0..INSTANCES {
        let sc = Scenario::generate(BASE_SEED + i);
        // The GALS oracle also enumerates every MCFIFO position, so keep
        // it to grids where the full bound stays cheap.
        if sc.width * sc.height > 12 {
            continue;
        }
        checked += 1;
        let g = sc.graph();
        let tech = sc.tech();
        let ts = Time::from_ps(sc.period_ps);
        let tt = Time::from_ps(sc.sink_period_ps);
        let sol = GalsSpec::new(&g, &tech, &lib)
            .source(sc.source())
            .sink(sc.sink())
            .periods(ts, tt)
            .solve();
        let oracle = reference::min_gals_latency_exhaustive(
            &g,
            &tech,
            &lib,
            sc.source(),
            sc.sink(),
            ts,
            tt,
            sc.max_edges(),
        );
        match (&sol, &oracle) {
            (Ok(s), Ok(best)) if (s.latency().ps() - best.ps()).abs() < 1e-6 => exact += 1,
            (Ok(s), oracle_out) => {
                let better = match oracle_out {
                    Ok(best) => s.latency().ps() < best.ps() - 1e-6,
                    Err(RouteError::NoFeasibleRoute) => true,
                    Err(e) => panic!("oracle error {e:?}\nreproduce with: {sc:#?}"),
                };
                assert!(
                    better,
                    "gals worse than oracle: solver {:?} vs {oracle_out:?}\n\
                     reproduce with: {sc:#?}",
                    s.latency()
                );
                let points = s.path().grid_path();
                let mut sorted = points.points().to_vec();
                sorted.sort_unstable_by_key(|p| (p.x, p.y));
                sorted.dedup();
                assert!(
                    sorted.len() < points.points().len(),
                    "gals beat the simple-path oracle with a simple path — \
                     the oracle covers that path, so one of them is wrong: \
                     solver {:?} vs {oracle_out:?}\nreproduce with: {sc:#?}",
                    s.latency()
                );
                // Ground truth, independent of the search internals.
                assert!(points.validate(&g).is_ok(), "reproduce with: {sc:#?}");
                let report = s.path().report(&g, &tech, &lib);
                assert!(
                    report.is_feasible_gals(
                        Time::from_ps(ts.ps() + 1e-9),
                        Time::from_ps(tt.ps() + 1e-9)
                    ),
                    "infeasible stages {:?}\nreproduce with: {sc:#?}",
                    report.stages
                );
            }
            (Err(RouteError::NoFeasibleRoute), Err(RouteError::NoFeasibleRoute)) => exact += 1,
            (Err(e), oracle_out) => panic!(
                "gals diverged: solver Err({e:?}) vs oracle {oracle_out:?}\n\
                 reproduce with: {sc:#?}"
            ),
        }
    }
    assert!(checked >= 50, "GALS sample too small: {checked}");
    // The non-simple escape hatch must stay the exception, not the rule.
    assert!(exact * 2 > checked, "only {exact}/{checked} exact matches");
}

/// Old-vs-new equivalence mode: every search re-run on the same 200
/// scenarios under the retained pre-rewrite substrate
/// (`EngineKind::Legacy`) must return byte-identical *results* — same
/// routed path, same optimal value, same feasibility verdict — as the
/// default arena substrate. Stats legitimately differ (that is the
/// point of the rewrite), so only results are compared here; the
/// counter contract is pinned separately below.
#[test]
fn arena_engine_matches_legacy_reference_on_random_scenarios() {
    let lib = GateLibrary::paper_library();
    for i in 0..INSTANCES {
        let sc = Scenario::generate(BASE_SEED + i);
        let g = sc.graph();
        let tech = sc.tech();
        let t = Time::from_ps(sc.period_ps);
        let tt = Time::from_ps(sc.sink_period_ps);

        let fp = |e: EngineKind| {
            FastPathSpec::new(&g, &tech, &lib)
                .source(sc.source())
                .sink(sc.sink())
                .engine(e)
                .solve()
                .map(|s| (s.path().clone(), s.delay()))
        };
        assert_equivalent(&sc, "fastpath", fp(EngineKind::Arena), fp(EngineKind::Legacy));

        let rbp = |e: EngineKind| {
            RbpSpec::new(&g, &tech, &lib)
                .source(sc.source())
                .sink(sc.sink())
                .period(t)
                .engine(e)
                .solve()
                .map(|s| (s.path().clone(), (s.register_count(), s.latency())))
        };
        assert_equivalent(&sc, "rbp", rbp(EngineKind::Arena), rbp(EngineKind::Legacy));

        let gals = |e: EngineKind| {
            GalsSpec::new(&g, &tech, &lib)
                .source(sc.source())
                .sink(sc.sink())
                .periods(t, tt)
                .engine(e)
                .solve()
                .map(|s| (s.path().clone(), s.latency()))
        };
        assert_equivalent(&sc, "gals", gals(EngineKind::Arena), gals(EngineKind::Legacy));

        // Level-sensitive extension, with a deterministic borrow window
        // derived from the scenario so the whole sweep stays seeded.
        let b = Time::from_ps(sc.sink_period_ps * 0.25);
        let latch = |e: EngineKind| {
            LatchSpec::new(&g, &tech, &lib)
                .source(sc.source())
                .sink(sc.sink())
                .period(t)
                .borrow_window(b)
                .engine(e)
                .solve()
                .map(|s| (s.path().clone(), (s.latch_count(), s.latency())))
        };
        assert_equivalent(&sc, "latch", latch(EngineKind::Arena), latch(EngineKind::Legacy));
    }
}

/// `Ok` sides must be identical (paths compare exactly; `RoutedPath`
/// is `PartialEq`), `Err` sides must both be `NoFeasibleRoute`.
fn assert_equivalent<V: PartialEq + std::fmt::Debug>(
    scenario: &Scenario,
    what: &str,
    arena: Result<(RoutedPath, V), RouteError>,
    legacy: Result<(RoutedPath, V), RouteError>,
) {
    match (&arena, &legacy) {
        (Ok(a), Ok(b)) if a == b => {}
        (Err(RouteError::NoFeasibleRoute), Err(RouteError::NoFeasibleRoute)) => {}
        _ => panic!(
            "{what} engines diverged:\narena  {arena:?}\nlegacy {legacy:?}\n\
             reproduce with: {scenario:#?}"
        ),
    }
}

/// Pins the satellite counter contract on a mid-size production grid:
/// with goal pruning off, the arena substrate must generate *exactly*
/// the work the legacy substrate does — same pushes, prunes, and
/// Elmore bound rejections, and no more pops — while the sorted
/// frontiers perform
/// strictly fewer dominance comparisons than the legacy linear scans.
/// This is the regression test for the `PruneTable::is_stale`
/// whole-list walk: if the staircase frontier ever degrades back to
/// linear scanning, `front_comparisons` climbs back to parity and this
/// test fails.
#[test]
fn arena_substrate_reduces_comparisons_with_identical_telemetry() {
    let lib = GateLibrary::paper_library();
    let g = GridGraph::open(40, 40, Length::from_um(500.0));
    let tech = Technology::paper_070nm();
    let run = |e: EngineKind| {
        FastPathSpec::new(&g, &tech, &lib)
            .source(Point::new(4, 4))
            .sink(Point::new(35, 35))
            .engine(e)
            .goal_prune(false)
            .solve()
            .expect("open grid is routable")
    };
    let arena = run(EngineKind::Arena);
    let legacy = run(EngineKind::Legacy);

    assert_eq!(arena.path(), legacy.path());
    assert_eq!(arena.delay(), legacy.delay());
    let (a, l) = (arena.stats(), legacy.stats());
    // The arena kills dominated candidates while they are still queued
    // and skips their corpses at pop time, so its pop count may only
    // drop; every expansion it *does* perform is the same one legacy
    // performs, which is what the exact push/prune/bound counts pin.
    assert!(
        a.configs <= l.configs,
        "arena popped more than legacy: {} vs {}",
        a.configs,
        l.configs
    );
    assert_eq!(a.pushed, l.pushed);
    assert_eq!(a.pruned, l.pruned);
    assert_eq!(
        a.bound_rejected, l.bound_rejected,
        "bound-reject telemetry must be unchanged by the substrate"
    );
    // Strictly fewer on a real routing instance; the asymptotic win on
    // long fronts is pinned by the proptest in `engine.rs`
    // (`sorted_fronts_use_fewer_comparisons_on_long_uniform_fronts`).
    assert!(
        a.front_comparisons < l.front_comparisons,
        "sorted frontiers should reduce dominance comparisons: \
         arena {} vs legacy {}",
        a.front_comparisons,
        l.front_comparisons
    );
}

#[test]
fn scenario_generation_is_deterministic() {
    // The whole suite's reproducibility rests on this: the same seed must
    // always produce the same scenario.
    for seed in [BASE_SEED, BASE_SEED + 77, BASE_SEED + 199] {
        let a = Scenario::generate(seed);
        let b = Scenario::generate(seed);
        assert_eq!(a.seed, seed);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// Exact arena-engine work on fixed instances: every `SearchStats`
/// counter (read back through the telemetry a solve flushes, so failed
/// searches are pinned too), the route and the optimum of fast path,
/// RBP (both queue variants and the slack tie-break), GALS and latch on
/// the first twelve fuzz scenarios and one `scenarios/stress.cr`-style
/// floorplan. The literals were recorded from the arena engine before
/// its four search loops were folded into one driver; any change to the
/// order or amount of work the engine does shows up here as a diff.
#[test]
fn arena_work_is_pinned_exactly() {
    let lib = GateLibrary::paper_library();
    let mut got = Vec::new();
    for i in 0..12 {
        let sc = Scenario::generate(BASE_SEED + i);
        let runs = PinnedRuns {
            graph: sc.graph(),
            tech: sc.tech(),
            source: sc.source(),
            sink: sc.sink(),
            period: Time::from_ps(sc.period_ps),
            sink_period: Time::from_ps(sc.sink_period_ps),
            borrow: Time::from_ps(sc.sink_period_ps * 0.25),
        };
        runs.record(&format!("s{i}"), &lib, i == 0, &mut got);
    }

    // `scenarios/stress.cr` at half scale: hard macros, a wiring-only
    // region and a register keep-out on a 10 mm die.
    let mut fp = Floorplan::new(Length::from_mm(10.0), Length::from_mm(10.0));
    for (x0, y0, x1, y1, kind) in [
        (10, 10, 20, 30, BlockKind::Hard),
        (25, 5, 35, 15, BlockKind::Hard),
        (22, 22, 37, 37, BlockKind::WiringOnly),
        (0, 20, 7, 39, BlockKind::RegisterKeepout),
    ] {
        fp.add_block(Rect::new(Point::new(x0, y0), Point::new(x1, y1)), kind);
    }
    let stress = |source, sink, period| PinnedRuns {
        graph: GridGraph::from_floorplan(&fp, 40, 40),
        tech: Technology::paper_070nm(),
        source,
        sink,
        period: Time::from_ps(period),
        sink_period: Time::from_ps(350.0),
        borrow: Time::from_ps(60.0),
    };
    stress(Point::new(1, 1), Point::new(38, 38), 300.0).record("fast_bus", &lib, true, &mut got);
    stress(Point::new(1, 38), Point::new(38, 1), 45.0).record("too_fast", &lib, false, &mut got);
    stress(Point::new(20, 1), Point::new(20, 38), 250.0).record("bridge", &lib, false, &mut got);
    // Inside the keep-out: RBP runs out of waves, latch borrows through.
    stress(Point::new(3, 38), Point::new(3, 21), 80.0).record("keepout", &lib, false, &mut got);
    stress(Point::new(38, 30), Point::new(1, 30), 70.0).record("crossing", &lib, false, &mut got);

    assert_eq!(
        got.len(),
        PINNED_ARENA_WORK.len(),
        "pinned table out of date; current table:\n{}",
        got.join("\n")
    );
    for (g, want) in got.iter().zip(PINNED_ARENA_WORK) {
        assert_eq!(
            g,
            want,
            "arena work changed; current table:\n{}",
            got.join("\n")
        );
    }
}

/// One instance of [`arena_work_is_pinned_exactly`].
struct PinnedRuns {
    graph: GridGraph,
    tech: Technology,
    source: Point,
    sink: Point,
    period: Time,
    sink_period: Time,
    borrow: Time,
}

impl PinnedRuns {
    fn record(&self, name: &str, lib: &GateLibrary, slack: bool, out: &mut Vec<String>) {
        use clockroute::core::{MetricsRecorder, RbpVariant, TelemetryHandle, TieBreak};
        let (g, tech) = (&self.graph, &self.tech);
        let mut line = |kind: &str, what: &str, rec: &MetricsRecorder, result: String| {
            let c = |suffix: &str| rec.counter_value(&format!("search.{kind}.{suffix}"));
            out.push(format!(
                "{name} {what}: configs={} pushed={} pruned={} stale={} bound={} goal={} \
                 waves={} promoted={} steps={} charges={} comps={} maxq={} | {result}",
                c("pops"),
                c("pushed"),
                c("pruned"),
                c("stale_skipped"),
                c("bound_rejected"),
                c("goal_pruned"),
                c("waves"),
                c("promoted"),
                c("arena_steps"),
                c("budget_charges"),
                c("front_comparisons"),
                rec.gauge_value(&format!("search.{kind}.max_queue")),
            ));
        };

        let rec = MetricsRecorder::new();
        let sol = FastPathSpec::new(g, tech, lib)
            .source(self.source)
            .sink(self.sink)
            .telemetry(TelemetryHandle::new(&rec))
            .solve();
        let result = outcome(sol.map(|s| (s.path().clone(), format!("{:?}", s.delay().ps()))));
        line("fastpath", "fastpath", &rec, result);

        let mut rbp_runs = vec![
            ("rbp/two", RbpVariant::TwoQueue, TieBreak::FirstFound),
            ("rbp/array", RbpVariant::QueueArray, TieBreak::FirstFound),
        ];
        if slack {
            rbp_runs.push((
                "rbp/slack",
                RbpVariant::TwoQueue,
                TieBreak::MaxEndpointSlack,
            ));
        }
        for (what, variant, tie_break) in rbp_runs {
            let rec = MetricsRecorder::new();
            let sol = RbpSpec::new(g, tech, lib)
                .source(self.source)
                .sink(self.sink)
                .period(self.period)
                .variant(variant)
                .tie_break(tie_break)
                .telemetry(TelemetryHandle::new(&rec))
                .solve();
            let result = outcome(sol.map(|s| {
                let opt = format!(
                    "{:?} src_slack={:?} snk_slack={:?}",
                    s.latency().ps(),
                    s.source_slack().ps(),
                    s.sink_slack().ps()
                );
                (s.path().clone(), opt)
            }));
            line("rbp", what, &rec, result);
        }

        let rec = MetricsRecorder::new();
        let sol = GalsSpec::new(g, tech, lib)
            .source(self.source)
            .sink(self.sink)
            .periods(self.period, self.sink_period)
            .telemetry(TelemetryHandle::new(&rec))
            .solve();
        let result = outcome(sol.map(|s| {
            let opt = format!(
                "{:?} regs={}+{}",
                s.latency().ps(),
                s.regs_source_side(),
                s.regs_sink_side()
            );
            (s.path().clone(), opt)
        }));
        line("gals", "gals", &rec, result);

        let rec = MetricsRecorder::new();
        let sol = LatchSpec::new(g, tech, lib)
            .source(self.source)
            .sink(self.sink)
            .period(self.period)
            .borrow_window(self.borrow)
            .telemetry(TelemetryHandle::new(&rec))
            .solve();
        let result = outcome(sol.map(|s| (s.path().clone(), format!("{:?}", s.latency().ps()))));
        line("latch", "latch", &rec, result);
    }
}

/// `route=<FNV-1a of points and labels> len=<points> opt=<optimum>`, or
/// the error.
fn outcome(result: Result<(RoutedPath, String), RouteError>) -> String {
    match result {
        Ok((path, opt)) => {
            let text = format!("{:?}{:?}", path.points(), path.labels());
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in text.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            format!("route={h:016x} len={} opt={opt}", path.points().len())
        }
        Err(e) => format!("err={e:?}"),
    }
}

/// Recorded from the arena engine; see [`arena_work_is_pinned_exactly`].
const PINNED_ARENA_WORK: &[&str] = &[
    "s0 fastpath: configs=3 pushed=3 pruned=0 stale=0 bound=0 goal=4 waves=0 promoted=0 steps=2 charges=8 comps=2 maxq=2 | route=f7ba3fc22cd6a654 len=2 opt=60.140148218827235",
    "s0 rbp/two: configs=4 pushed=9 pruned=2 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=11 charges=14 comps=9 maxq=6 | route=f7ba3fc22cd6a654 len=2 opt=685.5863259559246 src_slack=625.4461777370974 snk_slack=625.4461777370974",
    "s0 rbp/array: configs=4 pushed=9 pruned=2 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=11 charges=14 comps=9 maxq=6 | route=f7ba3fc22cd6a654 len=2 opt=685.5863259559246 src_slack=625.4461777370974 snk_slack=625.4461777370974",
    "s0 rbp/slack: configs=14 pushed=14 pruned=26 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=18 charges=53 comps=69 maxq=6 | route=f7ba3fc22cd6a654 len=2 opt=685.5863259559246 src_slack=625.4461777370974 snk_slack=625.4461777370974",
    "s0 gals: configs=34 pushed=34 pruned=66 stale=0 bound=0 goal=0 waves=1 promoted=8 steps=38 charges=133 comps=149 maxq=12 | route=34e7056ff06c18e2 len=4 opt=894.1866730122941 regs=0+0",
    "s0 latch: configs=4 pushed=9 pruned=2 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=11 charges=14 comps=9 maxq=6 | route=f7ba3fc22cd6a654 len=2 opt=685.5863259559246",
    "s1 fastpath: configs=3 pushed=3 pruned=0 stale=0 bound=0 goal=5 waves=0 promoted=0 steps=2 charges=9 comps=2 maxq=2 | route=11512f75f2c0b192 len=2 opt=65.08470385279796",
    "s1 rbp/two: configs=2 pushed=4 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=4 charges=5 comps=2 maxq=3 | route=11512f75f2c0b192 len=2 opt=253.31251879700648 src_slack=188.22781494420852 snk_slack=188.22781494420852",
    "s1 rbp/array: configs=2 pushed=4 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=4 charges=5 comps=2 maxq=3 | route=11512f75f2c0b192 len=2 opt=253.31251879700648 src_slack=188.22781494420852 snk_slack=188.22781494420852",
    "s1 gals: configs=1 pushed=1 pruned=0 stale=0 bound=3 goal=0 waves=0 promoted=0 steps=1 charges=4 comps=1 maxq=1 | err=NoFeasibleRoute",
    "s1 latch: configs=2 pushed=4 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=4 charges=5 comps=2 maxq=3 | route=11512f75f2c0b192 len=2 opt=253.31251879700648",
    "s2 fastpath: configs=5 pushed=5 pruned=1 stale=0 bound=0 goal=8 waves=0 promoted=0 steps=4 charges=17 comps=5 maxq=3 | route=7283eef8e110af61 len=3 opt=139.67151901544702",
    "s2 rbp/two: configs=8 pushed=8 pruned=1 stale=0 bound=10 goal=3 waves=1 promoted=2 steps=8 charges=29 comps=13 maxq=2 | route=92214fab19e3dc1e len=3 opt=266.10249532296166 src_slack=48.53928435144229 snk_slack=48.53928435144229",
    "s2 rbp/array: configs=8 pushed=8 pruned=1 stale=0 bound=10 goal=3 waves=1 promoted=2 steps=8 charges=29 comps=13 maxq=2 | route=92214fab19e3dc1e len=3 opt=266.10249532296166 src_slack=48.53928435144229 snk_slack=48.53928435144229",
    "s2 gals: configs=39 pushed=47 pruned=63 stale=0 bound=5 goal=0 waves=1 promoted=10 steps=47 charges=153 comps=208 maxq=14 | route=852c1cf3f912cb14 len=3 opt=587.5270703488673 regs=0+0",
    "s2 latch: configs=10 pushed=14 pruned=3 stale=0 bound=10 goal=0 waves=1 promoted=2 steps=14 charges=36 comps=19 maxq=5 | route=33e41a4f01b3e447 len=3 opt=266.10249532296166",
    "s3 fastpath: configs=6 pushed=6 pruned=4 stale=0 bound=0 goal=4 waves=0 promoted=0 steps=5 charges=18 comps=10 maxq=4 | route=11512f75f2c0b192 len=2 opt=52.76730455580083",
    "s3 rbp/two: configs=2 pushed=3 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=3 charges=4 comps=2 maxq=2 | route=11512f75f2c0b192 len=2 opt=252.07987345574912 src_slack=199.3125688999483 snk_slack=199.3125688999483",
    "s3 rbp/array: configs=2 pushed=3 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=3 charges=4 comps=2 maxq=2 | route=11512f75f2c0b192 len=2 opt=252.07987345574912 src_slack=199.3125688999483 snk_slack=199.3125688999483",
    "s3 gals: configs=17 pushed=17 pruned=18 stale=0 bound=8 goal=0 waves=1 promoted=4 steps=19 charges=59 comps=44 maxq=8 | route=a471e7cabdb880da len=4 opt=325.38428439803585 regs=0+0",
    "s3 latch: configs=2 pushed=3 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=3 charges=4 comps=2 maxq=2 | route=11512f75f2c0b192 len=2 opt=252.07987345574912",
    "s4 fastpath: configs=8 pushed=9 pruned=2 stale=0 bound=0 goal=15 waves=0 promoted=0 steps=7 charges=31 comps=18 maxq=5 | route=6662def17d3c552b len=3 opt=301.16345020514376",
    "s4 rbp/two: configs=6 pushed=7 pruned=2 stale=0 bound=0 goal=9 waves=0 promoted=0 steps=9 charges=23 comps=16 maxq=3 | route=6662def17d3c552b len=3 opt=388.32985297436727 src_slack=87.16640276922351 snk_slack=87.16640276922351",
    "s4 rbp/array: configs=6 pushed=7 pruned=2 stale=0 bound=0 goal=9 waves=0 promoted=0 steps=9 charges=23 comps=16 maxq=3 | route=6662def17d3c552b len=3 opt=388.32985297436727 src_slack=87.16640276922351 snk_slack=87.16640276922351",
    "s4 gals: configs=16 pushed=23 pruned=9 stale=0 bound=20 goal=0 waves=1 promoted=6 steps=26 charges=67 comps=29 maxq=10 | route=08788db3fe5e3f26 len=3 opt=566.9210664562713 regs=0+0",
    "s4 latch: configs=10 pushed=16 pruned=8 stale=0 bound=5 goal=0 waves=0 promoted=0 steps=20 charges=38 comps=43 maxq=9 | route=6662def17d3c552b len=3 opt=388.32985297436727",
    "s5 fastpath: configs=3 pushed=3 pruned=0 stale=0 bound=0 goal=3 waves=0 promoted=0 steps=2 charges=7 comps=2 maxq=2 | route=22980354242931ce len=2 opt=59.44722891051193",
    "s5 rbp/two: configs=3 pushed=6 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=7 charges=8 comps=5 maxq=4 | route=22980354242931ce len=2 opt=306.23718222051474 src_slack=246.7899533100028 snk_slack=246.7899533100028",
    "s5 rbp/array: configs=3 pushed=6 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=7 charges=8 comps=5 maxq=4 | route=22980354242931ce len=2 opt=306.23718222051474 src_slack=246.7899533100028 snk_slack=246.7899533100028",
    "s5 gals: configs=20 pushed=21 pruned=28 stale=0 bound=0 goal=0 waves=1 promoted=4 steps=22 charges=68 comps=73 maxq=8 | route=560ab4675433cbfe len=4 opt=470.31312067685997 regs=0+0",
    "s5 latch: configs=3 pushed=6 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=7 charges=8 comps=5 maxq=4 | route=22980354242931ce len=2 opt=306.23718222051474",
    "s6 fastpath: configs=3 pushed=3 pruned=0 stale=0 bound=0 goal=3 waves=0 promoted=0 steps=2 charges=7 comps=2 maxq=2 | route=63e996b108e5350e len=2 opt=64.03579680695638",
    "s6 rbp/two: configs=3 pushed=6 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=7 charges=8 comps=5 maxq=4 | route=63e996b108e5350e len=2 opt=435.0266803837062 src_slack=370.9908835767498 snk_slack=370.9908835767498",
    "s6 rbp/array: configs=3 pushed=6 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=7 charges=8 comps=5 maxq=4 | route=63e996b108e5350e len=2 opt=435.0266803837062 src_slack=370.9908835767498 snk_slack=370.9908835767498",
    "s6 gals: configs=20 pushed=21 pruned=28 stale=0 bound=0 goal=0 waves=1 promoted=4 steps=22 charges=68 comps=73 maxq=8 | route=accf6911a3d2da36 len=4 opt=869.5375939000039 regs=0+0",
    "s6 latch: configs=3 pushed=6 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=7 charges=8 comps=5 maxq=4 | route=63e996b108e5350e len=2 opt=435.0266803837062",
    "s7 fastpath: configs=3 pushed=3 pruned=0 stale=0 bound=0 goal=3 waves=0 promoted=0 steps=2 charges=7 comps=2 maxq=2 | route=635904ac44d65b0a len=2 opt=55.228513711382156",
    "s7 rbp/two: configs=2 pushed=3 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=3 charges=4 comps=2 maxq=2 | route=635904ac44d65b0a len=2 opt=572.1580339035853 src_slack=516.9295201922032 snk_slack=516.9295201922032",
    "s7 rbp/array: configs=2 pushed=3 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=3 charges=4 comps=2 maxq=2 | route=635904ac44d65b0a len=2 opt=572.1580339035853 src_slack=516.9295201922032 snk_slack=516.9295201922032",
    "s7 gals: configs=35 pushed=36 pruned=69 stale=0 bound=0 goal=0 waves=1 promoted=8 steps=39 charges=139 comps=175 maxq=16 | route=546f5a52ce9adc62 len=4 opt=1220.6968653422343 regs=0+0",
    "s7 latch: configs=2 pushed=3 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=3 charges=4 comps=2 maxq=2 | route=635904ac44d65b0a len=2 opt=572.1580339035853",
    "s8 fastpath: configs=3 pushed=3 pruned=0 stale=0 bound=0 goal=4 waves=0 promoted=0 steps=2 charges=8 comps=2 maxq=2 | route=8b91f883aca137f6 len=2 opt=84.3127691678144",
    "s8 rbp/two: configs=3 pushed=7 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=8 charges=9 comps=5 maxq=5 | route=8b91f883aca137f6 len=2 opt=657.257098321765 src_slack=572.9443291539507 snk_slack=572.9443291539507",
    "s8 rbp/array: configs=3 pushed=7 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=8 charges=9 comps=5 maxq=5 | route=8b91f883aca137f6 len=2 opt=657.257098321765 src_slack=572.9443291539507 snk_slack=572.9443291539507",
    "s8 gals: configs=47 pushed=51 pruned=73 stale=0 bound=4 goal=0 waves=1 promoted=12 steps=56 charges=172 comps=216 maxq=18 | route=de15046fa79efcda len=4 opt=970.7530467597692 regs=0+0",
    "s8 latch: configs=3 pushed=7 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=8 charges=9 comps=5 maxq=5 | route=8b91f883aca137f6 len=2 opt=657.257098321765",
    "s9 fastpath: configs=3 pushed=3 pruned=0 stale=0 bound=0 goal=3 waves=0 promoted=0 steps=2 charges=7 comps=2 maxq=2 | route=a17ab6731bf0ecfe len=2 opt=94.7973184821023",
    "s9 rbp/two: configs=3 pushed=5 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=6 charges=7 comps=5 maxq=3 | route=a17ab6731bf0ecfe len=2 opt=365.29083952292 src_slack=270.4935210408177 snk_slack=270.4935210408177",
    "s9 rbp/array: configs=3 pushed=5 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=6 charges=7 comps=5 maxq=3 | route=a17ab6731bf0ecfe len=2 opt=365.29083952292 src_slack=270.4935210408177 snk_slack=270.4935210408177",
    "s9 gals: configs=15 pushed=18 pruned=4 stale=0 bound=6 goal=0 waves=1 promoted=4 steps=18 charges=42 comps=30 maxq=4 | route=5fc3d5ca8241ebc2 len=4 opt=563.4341006048929 regs=0+0",
    "s9 latch: configs=3 pushed=5 pruned=0 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=6 charges=7 comps=5 maxq=3 | route=a17ab6731bf0ecfe len=2 opt=365.29083952292",
    "s10 fastpath: configs=6 pushed=6 pruned=0 stale=0 bound=0 goal=7 waves=0 promoted=0 steps=5 charges=17 comps=7 maxq=2 | route=40308310bfcea009 len=3 opt=499.9221086658107",
    "s10 rbp/two: configs=5 pushed=6 pruned=2 stale=0 bound=0 goal=3 waves=0 promoted=0 steps=7 charges=14 comps=11 maxq=3 | route=40308310bfcea009 len=3 opt=648.4733534718962 src_slack=148.5512448060855 snk_slack=148.5512448060855",
    "s10 rbp/array: configs=5 pushed=6 pruned=2 stale=0 bound=0 goal=3 waves=0 promoted=0 steps=7 charges=14 comps=11 maxq=3 | route=40308310bfcea009 len=3 opt=648.4733534718962 src_slack=148.5512448060855 snk_slack=148.5512448060855",
    "s10 gals: configs=10 pushed=12 pruned=0 stale=0 bound=10 goal=0 waves=1 promoted=2 steps=12 charges=31 comps=13 maxq=4 | route=852c1cf3f912cb14 len=3 opt=1114.8631556974651 regs=0+0",
    "s10 latch: configs=6 pushed=8 pruned=4 stale=0 bound=2 goal=0 waves=0 promoted=0 steps=9 charges=17 comps=18 maxq=4 | route=40308310bfcea009 len=3 opt=648.4733534718962",
    "s11 fastpath: configs=9 pushed=10 pruned=2 stale=0 bound=0 goal=20 waves=0 promoted=0 steps=8 charges=38 comps=16 maxq=4 | route=ea159986ce89ae4f len=4 opt=236.78482832516787",
    "s11 rbp/two: configs=24 pushed=26 pruned=15 stale=0 bound=30 goal=14 waves=1 promoted=3 steps=28 charges=107 comps=79 maxq=9 | route=d00394935b73f2b4 len=4 opt=430.7281622032692 src_slack=125.71413192772636 snk_slack=60.989855819337066",
    "s11 rbp/array: configs=24 pushed=26 pruned=15 stale=0 bound=30 goal=14 waves=1 promoted=3 steps=28 charges=107 comps=79 maxq=9 | route=d00394935b73f2b4 len=4 opt=430.7281622032692 src_slack=125.71413192772636 snk_slack=60.989855819337066",
    "s11 gals: configs=64 pushed=77 pruned=142 stale=0 bound=0 goal=0 waves=1 promoted=16 steps=81 charges=278 comps=378 maxq=28 | route=2915f9836b3e5c66 len=4 opt=684.0930609063455 regs=0+0",
    "s11 latch: configs=27 pushed=40 pruned=26 stale=0 bound=30 goal=0 waves=1 promoted=4 steps=43 charges=119 comps=112 maxq=15 | route=006fed938f00ce89 len=4 opt=430.7281622032692",
    "fast_bus fastpath: configs=6916 pushed=7694 pruned=13200 stale=0 bound=0 goal=11234 waves=0 promoted=0 steps=7686 charges=38264 comps=83742 maxq=212 | route=c42b73d996978a84 len=75 opt=1259.90825",
    "fast_bus rbp/two: configs=12143 pushed=13210 pruned=36041 stale=0 bound=3357 goal=0 waves=4 promoted=855 steps=13241 charges=63858 comps=161755 maxq=500 | route=c19191da2ed7e81c len=75 opt=1500.0 src_slack=190.26149999999998 snk_slack=7.906125000000031",
    "fast_bus rbp/array: configs=12143 pushed=13210 pruned=36041 stale=0 bound=3357 goal=0 waves=4 promoted=855 steps=13241 charges=63858 comps=161755 maxq=500 | route=c19191da2ed7e81c len=75 opt=1500.0 src_slack=190.26149999999998 snk_slack=7.906125000000031",
    "fast_bus rbp/slack: configs=34256 pushed=37224 pruned=92082 stale=0 bound=17158 goal=0 waves=4 promoted=855 steps=37259 charges=177751 comps=1651239 maxq=3262 | route=c19191da2ed7e81c len=75 opt=1500.0 src_slack=190.26149999999998 snk_slack=7.906125000000031",
    "fast_bus gals: configs=26587 pushed=28777 pruned=79736 stale=0 bound=7426 goal=0 waves=5 promoted=1635 steps=29538 charges=140520 comps=371960 maxq=858 | route=d2a0e243f3400e7c len=75 opt=1300.0 regs=1+1",
    "fast_bus latch: configs=38804 pushed=42188 pruned=140239 stale=0 bound=12919 goal=0 waves=4 promoted=1060 steps=42238 charges=206246 comps=1217941 maxq=1352 | route=63d68487bbf0e0c2 len=75 opt=1500.0",
    "too_fast fastpath: configs=6613 pushed=7342 pruned=12328 stale=0 bound=0 goal=10780 waves=0 promoted=0 steps=7334 charges=36332 comps=78117 maxq=210 | route=f602f9b446e30446 len=75 opt=1259.90825",
    "too_fast rbp/two: configs=1 pushed=1 pruned=0 stale=0 bound=4 goal=0 waves=0 promoted=0 steps=1 charges=5 comps=1 maxq=1 | err=NoFeasibleRoute",
    "too_fast rbp/array: configs=1 pushed=1 pruned=0 stale=0 bound=4 goal=0 waves=0 promoted=0 steps=1 charges=5 comps=1 maxq=1 | err=NoFeasibleRoute",
    "too_fast gals: configs=17274 pushed=18480 pruned=48984 stale=0 bound=7959 goal=0 waves=4 promoted=1782 steps=18480 charges=91490 comps=240070 maxq=786 | err=NoFeasibleRoute",
    "too_fast latch: configs=1 pushed=1 pruned=0 stale=0 bound=4 goal=0 waves=0 promoted=0 steps=1 charges=5 comps=1 maxq=1 | err=NoFeasibleRoute",
    "bridge fastpath: configs=8151 pushed=9416 pruned=26107 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=9405 charges=42737 comps=165895 maxq=423 | route=204e26bebc7fccb8 len=40 opt=664.623375",
    "bridge rbp/two: configs=5673 pushed=6466 pruned=16175 stale=0 bound=1692 goal=0 waves=2 promoted=320 steps=6699 charges=29559 comps=71362 maxq=471 | route=469180434fe1a290 len=40 opt=750.0 src_slack=60.432124999999985 snk_slack=2.109499999999997",
    "bridge rbp/array: configs=5673 pushed=6466 pruned=16175 stale=0 bound=1692 goal=0 waves=2 promoted=320 steps=6699 charges=29559 comps=71362 maxq=471 | route=469180434fe1a290 len=40 opt=750.0 src_slack=60.432124999999985 snk_slack=2.109499999999997",
    "bridge gals: configs=10222 pushed=11186 pruned=29139 stale=0 bound=3659 goal=0 waves=2 promoted=858 steps=12047 charges=53519 comps=134485 maxq=542 | route=4e4c2cd53664e140 len=40 opt=850.0 regs=1+0",
    "bridge latch: configs=14475 pushed=17151 pruned=47197 stale=0 bound=4807 goal=0 waves=2 promoted=496 steps=17431 charges=75209 comps=337409 maxq=1334 | route=165dbb1974c23178 len=40 opt=750.0",
    "keepout fastpath: configs=95 pushed=102 pruned=103 stale=0 bound=0 goal=262 waves=0 promoted=0 steps=98 charges=553 comps=564 maxq=16 | route=0e8135736c5d5027 len=18 opt=292.09387499999997",
    "keepout rbp/two: configs=3904 pushed=3904 pruned=8322 stale=0 bound=5248 goal=0 waves=23 promoted=892 steps=3904 charges=21377 comps=13715 maxq=113 | err=NoFeasibleRoute",
    "keepout rbp/array: configs=3904 pushed=3904 pruned=8322 stale=0 bound=5248 goal=0 waves=23 promoted=892 steps=3904 charges=21377 comps=13715 maxq=113 | err=NoFeasibleRoute",
    "keepout gals: configs=22328 pushed=23597 pruned=65113 stale=0 bound=9868 goal=0 waves=15 promoted=2676 steps=23597 charges=119636 comps=276056 maxq=900 | err=NoFeasibleRoute",
    "keepout latch: configs=10650 pushed=11896 pruned=26592 stale=0 bound=14890 goal=0 waves=8 promoted=1117 steps=12182 charges=58907 comps=127900 maxq=612 | route=a301e10b383d4906 len=32 opt=720.0",
    "crossing fastpath: configs=10268 pushed=11536 pruned=33668 stale=0 bound=0 goal=0 waves=0 promoted=0 steps=11524 charges=54343 comps=211058 maxq=363 | route=798b83ce01fda504 len=54 opt=904.2133749999997",
    "crossing rbp/two: configs=13 pushed=13 pruned=7 stale=0 bound=41 goal=0 waves=0 promoted=0 steps=13 charges=73 comps=21 maxq=8 | err=NoFeasibleRoute",
    "crossing rbp/array: configs=13 pushed=13 pruned=7 stale=0 bound=41 goal=0 waves=0 promoted=0 steps=13 charges=73 comps=21 maxq=8 | err=NoFeasibleRoute",
    "crossing gals: configs=15825 pushed=16952 pruned=46653 stale=0 bound=6916 goal=0 waves=11 promoted=2421 steps=16991 charges=85503 comps=187174 maxq=927 | route=dceeac8c690f9011 len=54 opt=1120.0 regs=0+2",
    "crossing latch: configs=13 pushed=13 pruned=7 stale=0 bound=41 goal=0 waves=0 promoted=0 steps=13 charges=73 comps=21 maxq=8 | err=NoFeasibleRoute",
];
