//! The label-correcting search driver behind all four arena searches.
//!
//! Fast path (paper Fig. 1), RBP (Fig. 5), GALS (Fig. 12) and the latch
//! extension are one algorithm: pop the cheapest candidate, drop it if
//! its Pareto front has moved past it, extend it by wire and by gate
//! insertion, and — for the three wave-front searches — promote the
//! synchronizer insertions of a drained wave as the seeds of the next.
//! [`Search`] owns that loop and every structure it runs on (the step
//! [`Arena`], [`CandArena`], [`DialQueue`]s, [`SortedFronts`], the
//! [`BudgetMeter`] and the caller's [`SearchStats`]); a [`Rules`]
//! implementation supplies only what the paper writes down for one
//! search: its candidate extensions and their bounds, its goal test and
//! its wave-ordering policy.
//!
//! The driver is generic over the rules, so each search compiles to its
//! own monomorphised loop with no dynamic dispatch per pop.

use crate::budget::{BudgetMeter, SearchStage};
use crate::ctx::Ctx;
use crate::engine::{Arena, Cand, CandArena, DialQueue, SearchQueue, SortedFronts, NO_PARENT};
use crate::failpoint::{self, FailAction};
use crate::{RouteError, RoutedPath, SearchBudget, SearchStats};
use clockroute_elmore::GateId;
use clockroute_geom::Point;

/// A terminal: the head step of the winning route plus whatever the
/// search reports alongside it.
pub(crate) type Found<F> = (u32, F);

/// What a search does when its current wave drains.
pub(crate) enum WaveEnd<F> {
    /// Promote the next wave's seeds.
    Advance,
    /// Stop with this terminal (RBP's slack tie-break picks its winner
    /// only once the whole winning wave has been explored).
    Found(Found<F>),
    /// Stop without a route.
    Exhausted,
}

/// The paper's rules for one search, plugged into the [`Search`] driver.
pub(crate) trait Rules {
    /// Stage stamped on [`RouteError::BudgetExceeded`].
    const STAGE: SearchStage;
    /// Failpoint site hit at every pop (`"<kind>::pop"`).
    const POP_SITE: &'static str;
    /// Pareto fronts kept per grid node; [`front`](Rules::front) picks
    /// one of them.
    const FRONTS_PER_NODE: usize = 1;
    /// `true` drops a promoted seed its front rejects (counted as
    /// pruned); `false` queues it regardless, so the stale check catches
    /// it at its pop.
    const DROP_DOMINATED_SEEDS: bool = false;
    /// What a terminal reports besides the route.
    type Found;

    /// Which of the node's fronts `c` is compared in.
    fn front(&self, _c: &Cand) -> usize {
        0
    }

    /// Third pruning dimension of `c` (0 when the search prunes on
    /// `(c, d)` alone).
    fn extra(&self, _c: &Cand) -> f64 {
        0.0
    }

    /// Checked at every pop before the stale check: `Some` ends the
    /// search with `c` as the winner.
    fn settled(&self, _c: &Cand) -> Option<Self::Found> {
        None
    }

    /// Extends a live popped candidate through [`Search::offer`],
    /// [`Search::stash`] and [`Search::enqueue`]; `Some` ends the search.
    /// Implementations are `#[inline]`, so each compiles into its
    /// driver loop as one function.
    fn expand(
        &mut self,
        s: &mut Search<'_, '_>,
        c: &Cand,
    ) -> Result<Option<Found<Self::Found>>, RouteError>;

    /// Called when the queue drains, before the next wave is promoted.
    fn wave_end(&mut self, _s: &Search<'_, '_>) -> WaveEnd<Self::Found> {
        WaveEnd::Advance
    }

    /// Scale hint for the next-wave queue's bucket width (the smallest
    /// gap between two wave keys).
    fn wave_scale(&self) -> f64 {
        1.0
    }

    /// `true` drops a next-wave seed before it is charged or filed
    /// (counted as goal-pruned).
    fn seed_doomed(&self, _s: &Search<'_, '_>, _seed: &Cand) -> bool {
        false
    }
}

/// Runs one search from the sink to completion.
///
/// On success returns the labelled route and the rules' report; `stats`
/// holds the search's effort either way. A budget or failpoint error
/// returns at once; an exhausted search records its final arena size
/// and comparison count first.
pub(crate) fn run<R: Rules>(
    ctx: &Ctx<'_>,
    rules: &mut R,
    budget: SearchBudget,
    stats: &mut SearchStats,
) -> Result<(RoutedPath, R::Found), RouteError> {
    let mut s = Search {
        ctx,
        meter: BudgetMeter::new(budget, R::STAGE),
        arena: Arena::new(),
        cands: CandArena::new(),
        queue: DialQueue::new(ctx.queue_scale()),
        qstar: DialQueue::new(rules.wave_scale()),
        fronts: SortedFronts::new(ctx.graph.node_count() * R::FRONTS_PER_NODE),
        stats,
    };
    let found = s.drive(rules)?;
    s.stats.arena_steps = s.arena.len() as u64;
    s.stats.front_comparisons = s.fronts.comparisons();
    let Some((trail, report)) = found else {
        return Err(RouteError::NoFeasibleRoute);
    };
    s.stats.touched = s.arena.touched(ctx.graph);
    let (nodes, mut labels) = s.arena.reconstruct(trail);
    let points: Vec<Point> = nodes.iter().map(|&n| ctx.graph.point(n)).collect();
    labels[0] = Some(ctx.gs);
    let last = labels.len() - 1;
    labels[last] = Some(ctx.gt);
    Ok((RoutedPath::new(points, labels, ctx.lib), report))
}

/// The state of one running search, handed to the [`Rules`] hooks.
pub(crate) struct Search<'s, 'a> {
    /// The pre-resolved terminals, gates and wire parameters.
    pub ctx: &'s Ctx<'a>,
    /// The caller's effort counters.
    pub stats: &'s mut SearchStats,
    meter: BudgetMeter,
    arena: Arena,
    cands: CandArena,
    queue: DialQueue,
    /// Next-wave seeds keyed by their wave key (the paper's `Q*`).
    qstar: DialQueue,
    fronts: SortedFronts,
}

impl Search<'_, '_> {
    /// Charges one expansion step (a wire, buffer or synchronizer move)
    /// to the budget.
    #[inline]
    pub fn charge_expand(&mut self) -> Result<(), RouteError> {
        self.stats.budget_charges += 1;
        self.meter.charge_expand()
    }

    /// Offers a successor whose `trail` is still its parent's: it is
    /// pruned if its front already holds a candidate at least as good;
    /// otherwise the step `(next.node, gate)` is appended to its route
    /// and it joins its front and the queue. Returns the queued
    /// candidate.
    // Forced inline: called per successor, an outlined offer made the
    // wave searches measurably slower than one hand-written loop.
    #[inline(always)]
    pub fn offer<R: Rules>(
        &mut self,
        rules: &R,
        mut next: Cand,
        gate: Option<GateId>,
    ) -> Option<Cand> {
        next.gate_here = gate.is_some();
        if !self.admits(rules, &next) {
            self.stats.pruned += 1;
            return None;
        }
        next.trail = self.arena.push(next.node, gate, next.trail);
        let idx = self.cands.alloc(&next);
        self.insert(rules, idx, &next);
        self.queue.push(next.delay, idx);
        self.stats.record_push(self.queue.len());
        Some(next)
    }

    /// Sets a synchronizer insertion aside as a next-wave seed: the step
    /// `(next.node, gate)` is appended to its route, and it waits in `Q*`
    /// under `wave_key`. When a wave drains, every seed with the smallest
    /// wave key is promoted, in the order stashed.
    pub fn stash(&mut self, mut next: Cand, gate: GateId, wave_key: f64) {
        next.gate_here = true;
        next.trail = self.arena.push(next.node, Some(gate), next.trail);
        let idx = self.cands.alloc(&next);
        self.qstar.push(wave_key, idx);
    }

    /// Queues a candidate at its own delay outside every front, so it is
    /// never pruned (the fast path's completed routes, recognised again
    /// by [`Rules::settled`] at their pop).
    pub fn enqueue(&mut self, c: Cand) {
        let idx = self.cands.alloc(&c);
        self.queue.push(c.delay, idx);
        self.stats.record_push(self.queue.len());
    }

    fn key<R: Rules>(&self, rules: &R, c: &Cand) -> usize {
        c.node.index() * R::FRONTS_PER_NODE + rules.front(c)
    }

    /// `true` if nothing in `c`'s front dominates it.
    fn admits<R: Rules>(&mut self, rules: &R, c: &Cand) -> bool {
        let (key, extra) = (self.key(rules, c), rules.extra(c));
        self.fronts.admits(key, c.cap, c.delay, extra, !c.gate_here)
    }

    /// Files the admitted candidate `idx` into its front, killing the
    /// entries it dominates.
    fn insert<R: Rules>(&mut self, rules: &R, idx: u32, c: &Cand) {
        let (key, extra) = (self.key(rules, c), rules.extra(c));
        self.fronts.insert(
            key,
            c.cap,
            c.delay,
            extra,
            !c.gate_here,
            idx,
            &mut self.cands,
            &mut self.stats.pruned,
        );
    }

    /// `true` if some entry in `c`'s front strictly dominates it.
    fn is_stale<R: Rules>(&mut self, rules: &R, c: &Cand) -> bool {
        let (key, extra) = (self.key(rules, c), rules.extra(c));
        self.fronts
            .is_stale(key, c.cap, c.delay, extra, !c.gate_here)
    }

    /// The search loop: seeds the sink, drains waves until a terminal
    /// or exhaustion (`Ok(None)`).
    fn drive<R: Rules>(&mut self, rules: &mut R) -> Result<Option<Found<R::Found>>, RouteError> {
        let gt = self.ctx.lib.gate(self.ctx.gt);
        let root = self.arena.push(self.ctx.t, None, NO_PARENT);
        let start = Cand::start(gt.input_cap().ff(), gt.setup().ps(), root, self.ctx.t);
        let idx = self.cands.alloc(&start);
        self.insert(rules, idx, &start);
        self.queue.push(start.delay, idx);
        self.stats.record_push(self.queue.len());

        loop {
            while let Some(idx) = self.queue.pop() {
                // Evicted from its front while queued: nothing to do, so
                // skip it before charging anything.
                if self.cands.is_dead(idx) {
                    continue;
                }
                match failpoint::hit(R::POP_SITE) {
                    Some(FailAction::Panic) => panic!("failpoint {}: forced panic", R::POP_SITE),
                    Some(FailAction::BudgetExhausted) => return Err(self.meter.exceeded()),
                    Some(FailAction::NoRoute) => return Err(RouteError::NoFeasibleRoute),
                    // I/O actions only apply at `serve::*` sites; inert here.
                    Some(FailAction::IoError | FailAction::ShortIo) | None => {}
                }
                self.stats.budget_charges += 1;
                self.stats.arena_steps = self.arena.len() as u64;
                self.meter.charge_pop(self.arena.len())?;
                self.stats.configs += 1;
                let c = self.cands.get(idx);
                if let Some(report) = rules.settled(&c) {
                    return Ok(Some((c.trail, report)));
                }
                if self.is_stale(rules, &c) {
                    self.stats.stale_skipped += 1;
                    continue;
                }
                if let Some(found) = rules.expand(self, &c)? {
                    return Ok(Some(found));
                }
            }

            match rules.wave_end(self) {
                WaveEnd::Advance => {}
                WaveEnd::Found(found) => return Ok(Some(found)),
                WaveEnd::Exhausted => return Ok(None),
            }
            // ExtractAllMin(Q*): the seeds of the smallest wave key
            // become the next wave, over fresh fronts.
            let Some(wave) = self.qstar.peek_key() else {
                return Ok(None);
            };
            self.stats.waves += 1;
            self.fronts.advance_wave();
            while self.qstar.peek_key() == Some(wave) {
                let Some(idx) = self.qstar.pop() else { break };
                let seed = self.cands.get(idx);
                if rules.seed_doomed(self, &seed) {
                    self.stats.goal_pruned += 1;
                    continue;
                }
                self.stats.budget_charges += 1;
                self.stats.promoted += 1;
                self.meter.charge_expand()?;
                if self.admits(rules, &seed) {
                    self.insert(rules, idx, &seed);
                } else if R::DROP_DOMINATED_SEEDS {
                    self.stats.pruned += 1;
                    continue;
                }
                self.queue.push(seed.delay, idx);
                self.stats.record_push(self.queue.len());
            }
        }
    }
}
