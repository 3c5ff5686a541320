//! Seeded input generators for the three workloads.
//!
//! Every generator is a pure function of `(seed, index)`: the program
//! under test only ever sees the `.cr` text (and, for `serve_mixed`,
//! JSONL request lines built from it). Difficulty is stratified rather
//! than drawn: grid sizes cycle with the index and every net keeps its
//! side-to-side pattern, so two seeds give the same mix of work and the
//! seed only moves blocks and terminals.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and good enough for placing blocks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// `frac` of `g`, for placing things in bands across the die.
fn at(g: u32, frac: f64) -> u32 {
    (f64::from(g) * frac).round() as u32
}

fn header(out: &mut String, g: u32) {
    // 0.25 mm pitch on every grid, so wire per grid step is constant.
    let mm = f64::from(g) * 0.25;
    let _ = writeln!(out, "die {mm}mm {mm}mm\ngrid {g} {g}\ntech paper");
}

/// One `plan_mixed` scenario: a grid of 80, 90 or 100 (by `index`),
/// one block of each kind in the middle band, and four nets that cross
/// it side to side — one GALS, two registered, one combinational —
/// with terminals in disjoint bands on the die edges.
pub fn plan_mixed(seed: u64, index: u64) -> String {
    let g = [80, 90, 100][(index % 3) as usize];
    let mut rng = Rng::new(seed, 0x504C_414E ^ index);
    let mut out = String::new();
    header(&mut out, g);
    for kind in ["hard", "obstacle", "wiring", "regkeepout"] {
        let side = rng.range(at(g, 0.12), at(g, 0.2));
        let x0 = rng.range(at(g, 0.2), at(g, 0.8) - side);
        let y0 = rng.range(at(g, 0.2), at(g, 0.8) - side);
        let _ = writeln!(out, "block {kind} {x0} {y0} {} {}", x0 + side, y0 + side);
    }
    let (lo, hi, mid_lo, mid_hi) = (at(g, 0.1), at(g, 0.4), at(g, 0.6), at(g, 0.9));
    let (e0, e1) = (1, g - 2);
    let mut band = |a: u32, b: u32| rng.range(a, b);
    let nets = [
        format!(
            "net gals name=x0 src={e0},{} dst={e1},{} ts=300 tt=400",
            band(lo, hi),
            band(mid_lo, mid_hi)
        ),
        format!(
            "net reg name=r0 src={},{e0} dst={},{e1} period=400",
            band(lo, hi),
            band(mid_lo, mid_hi)
        ),
        format!(
            "net reg name=r1 src={e1},{} dst={e0},{} period=350",
            band(lo, hi),
            band(mid_lo, mid_hi)
        ),
        format!(
            "net comb name=c0 src={},{e0} dst={},{e1}",
            band(mid_lo, mid_hi),
            band(lo, hi)
        ),
    ];
    for net in nets {
        out.push_str(&net);
        out.push('\n');
    }
    out
}

/// Nets in a `flow_congested` scenario of the given index.
pub fn flow_net_count(index: u64) -> usize {
    [100, 110, 120][(index % 3) as usize]
}

/// One `flow_congested` scenario: a 40, 44 or 48 grid (by `index`) with
/// `capacity default 2`, reservation off, and 100–120 short nets, every
/// 25th registered and the rest combinational, alternating horizontal
/// and vertical. Shortest routes pile onto shared rows and columns, so
/// the sequential planner overflows; spread out, they fit.
pub fn flow_congested(seed: u64, index: u64) -> String {
    let g = [40, 44, 48][(index % 3) as usize];
    let n = flow_net_count(index);
    let mut rng = Rng::new(seed, 0x464C_4F57 ^ index);
    let mut out = String::new();
    header(&mut out, g);
    out.push_str("reserve off\ncapacity default 2\n");
    let (min_len, max_len) = (at(g, 0.25), at(g, 0.5));
    for j in 0..n {
        let len = rng.range(min_len, max_len);
        let start = rng.range(0, g - 1 - len);
        let lane = rng.range(0, g - 1);
        let drift = rng.range(0, 4);
        let lane2 = (lane + drift).min(g - 1);
        let (src, dst) = if j % 2 == 0 {
            ((start, lane), (start + len, lane2))
        } else {
            ((lane, start), (lane2, start + len))
        };
        let kind = if j % 25 == 0 {
            "reg".to_owned()
        } else {
            "comb".to_owned()
        };
        let period = if kind == "reg" { " period=400" } else { "" };
        let _ = writeln!(
            out,
            "net {kind} name=f{j} src={},{} dst={},{}{period}",
            src.0, src.1, dst.0, dst.1
        );
    }
    out
}

/// Grid of every `serve_mixed` scenario.
pub const SERVE_GRID: u32 = 30;

/// One `serve_mixed` scenario: family `family` fixes the four nets
/// (one GALS, one registered, two combinational, terminals on the die
/// edges); `variant` places the one movable 3×3 hard block. Two
/// variants of a family differ only in that block, so the second is a
/// warm-start near-miss of the first.
pub fn serve_scenario(seed: u64, family: u64, variant: u64) -> String {
    let g = SERVE_GRID;
    let mut rng = Rng::new(seed, 0x5345_5256 ^ family);
    let mut out = String::new();
    header(&mut out, g);
    // 8 × 7 block positions inside the terminal ring: variants wrap
    // after 56, far beyond what one family sees in a run.
    let k = variant % 56;
    let bx = 4 + (k % 8) * 3;
    let by = 4 + (k / 8) * 3;
    let _ = writeln!(out, "block hard {bx} {by} {} {}", bx + 2, by + 2);
    let (e0, e1) = (1, g - 2);
    let mut band = |a: u32, b: u32| rng.range(a, b);
    let nets = [
        format!(
            "net gals name=x src={e0},{} dst={e1},{} ts=300 tt=400",
            band(3, 12),
            band(17, 26)
        ),
        format!(
            "net reg name=r src={},{e0} dst={},{e1} period=400",
            band(3, 12),
            band(17, 26)
        ),
        format!(
            "net comb name=a src={e1},{} dst={e0},{}",
            band(3, 12),
            band(17, 26)
        ),
        format!(
            "net comb name=b src={},{e0} dst={},{e1}",
            band(17, 26),
            band(3, 12)
        ),
    ];
    for net in nets {
        out.push_str(&net);
        out.push('\n');
    }
    out
}

/// What one `serve_mixed` request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// A scenario sent before: a cache hit (or coalesced if its first
    /// request is still in flight).
    Repeat,
    /// A known family with its block moved: a warm start.
    NearMiss,
    /// A new family: a cold solve and a fsynced append.
    Fresh,
    /// A new family sent twice back to back: when the clients' turns
    /// line up the second request coalesces on the first's solve,
    /// otherwise it is a hit.
    Duplicate,
}

/// One request of the stream: its intent and the scenario it carries.
#[derive(Debug, Clone)]
pub struct Request {
    pub intent: Intent,
    /// Index into [`Stream::scenarios`].
    pub scenario: usize,
}

/// The seeded `serve_mixed` request stream. Requests are produced in
/// blocks of 20 with a fixed intent pattern, so every prefix has the
/// same mix. DESIGN.md §12 describes the traffic `crserve` serves only
/// by order — most requests are exact repeats, and most of the rest are
/// near repeats — so the shares are an assumption that keeps both:
///
/// - 15 repeats (14 plus the duplicate's second request), 75%. With
///   only 12 (60%), the extra solves made the run's latency tail
///   spread by more than its bound from seed to seed;
/// - 3 near-misses, 3 of the 5 misses;
/// - 2 fresh families (1 fresh plus the duplicate's first request),
///   the rest of the misses: each is a cold solve and an append;
/// - 1 duplicated pair, for the single-flight path (DESIGN.md §14),
///   which §12 does not size; one pair keeps it a small share.
#[derive(Debug, Clone)]
pub struct Stream {
    seed: u64,
    rng: Rng,
    /// Distinct scenario texts, in first-sent order.
    pub scenarios: Vec<String>,
    /// Family of each scenario.
    families: Vec<u64>,
    /// Next block variant per family.
    next_variant: Vec<u64>,
    pending_duplicate: Option<usize>,
    position: u64,
}

const PATTERN: [Intent; 20] = {
    use Intent::{Duplicate as D, Fresh as F, NearMiss as N, Repeat as R};
    [F, R, R, N, R, R, D, D, R, R, N, R, R, R, R, N, R, R, R, R]
};

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            seed,
            rng: Rng::new(seed, 0x5354_524D),
            scenarios: Vec::new(),
            families: Vec::new(),
            next_variant: Vec::new(),
            pending_duplicate: None,
            position: 0,
        }
    }

    fn fresh_family(&mut self) -> usize {
        let family = self.next_variant.len() as u64;
        self.next_variant.push(1);
        self.families.push(family);
        self.scenarios.push(serve_scenario(self.seed, family, 0));
        self.scenarios.len() - 1
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        let intent = PATTERN[(self.position % PATTERN.len() as u64) as usize];
        self.position += 1;
        let scenario = match intent {
            Intent::Fresh => self.fresh_family(),
            Intent::Duplicate => match self.pending_duplicate.take() {
                Some(s) => s,
                None => {
                    let s = self.fresh_family();
                    self.pending_duplicate = Some(s);
                    s
                }
            },
            Intent::NearMiss => {
                let family = self.rng.next_u64() % self.next_variant.len() as u64;
                let variant = self.next_variant[family as usize];
                self.next_variant[family as usize] += 1;
                self.families.push(family);
                self.scenarios
                    .push(serve_scenario(self.seed, family, variant));
                self.scenarios.len() - 1
            }
            Intent::Repeat => (self.rng.next_u64() % self.scenarios.len() as u64) as usize,
        };
        Request { intent, scenario }
    }
}

/// The JSONL `route` request line for a scenario.
pub fn route_line(id: &str, text: &str) -> String {
    format!(
        "{{\"id\":{},\"op\":\"route\",\"scenario\":{}}}",
        clockroute_core::telemetry::json_string(id),
        clockroute_core::telemetry::json_string(text)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_cli::scenario;
    use clockroute_elmore::GateLibrary;
    use clockroute_grid::GridGraph;
    use clockroute_plan::Planner;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [1, 7, 12345] {
            for i in 0..6 {
                assert_eq!(plan_mixed(seed, i), plan_mixed(seed, i));
                assert_eq!(flow_congested(seed, i), flow_congested(seed, i));
            }
            let (mut a, mut b) = (Stream::new(seed), Stream::new(seed));
            for _ in 0..200 {
                let (ra, rb) = (a.next_request(), b.next_request());
                assert_eq!(ra.intent, rb.intent);
                assert_eq!(a.scenarios[ra.scenario], b.scenarios[rb.scenario]);
            }
        }
        assert_ne!(plan_mixed(1, 0), plan_mixed(2, 0));
        assert_ne!(flow_congested(1, 0), flow_congested(2, 0));
    }

    #[test]
    fn every_scenario_parses() {
        for seed in 0..4 {
            for i in 0..6 {
                let s = scenario::parse(&plan_mixed(seed, i)).expect("plan_mixed parses");
                assert_eq!(s.nets.len(), 4);
                let s = scenario::parse(&flow_congested(seed, i)).expect("flow_congested parses");
                assert_eq!(s.nets.len(), flow_net_count(i));
                assert!(!s.capacities.is_unconstrained());
            }
            let mut stream = Stream::new(seed);
            for _ in 0..100 {
                stream.next_request();
            }
            for text in &stream.scenarios {
                scenario::parse(text).expect("serve scenario parses");
            }
        }
    }

    #[test]
    fn stream_keeps_its_mix_and_distinct_scenarios() {
        let mut stream = Stream::new(3);
        let mut fresh_or_near = 0;
        for _ in 0..400 {
            let r = stream.next_request();
            if matches!(r.intent, Intent::Fresh | Intent::NearMiss) {
                fresh_or_near += 1;
            }
        }
        // 1 fresh + 3 near-miss + 1 duplicated pair per block of 20.
        assert_eq!(fresh_or_near, 80);
        assert_eq!(stream.scenarios.len(), 100);
        let distinct: std::collections::BTreeSet<&String> = stream.scenarios.iter().collect();
        assert_eq!(distinct.len(), stream.scenarios.len());
    }

    /// Flow only has work to do if the order-driven planner overflows:
    /// recount the sequential plan's edge usage against the scenario's
    /// capacities.
    #[test]
    fn every_flow_scenario_overflows_sequentially() {
        for i in 0..3 {
            let s = scenario::parse(&flow_congested(11, i)).expect("parses");
            let graph = GridGraph::from_floorplan(&s.floorplan, s.grid.0, s.grid.1);
            let plan = Planner::new(graph.clone(), s.tech, GateLibrary::paper_library())
                .reserve_routes(s.reserve)
                .jobs(1)
                .plan(&s.nets);
            let overflow = crate::check::recount_overflow(&plan, &graph, &s.capacities);
            assert!(overflow > 0, "scenario {i} does not overflow sequentially");
        }
    }
}
