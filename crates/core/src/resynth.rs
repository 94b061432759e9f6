//! The two-phase resynthesis procedure of Section III-B and the outer `q`
//! sweep of Section I.
//!
//! Phase 1 repeatedly targets the current largest cluster of undetectable
//! faults (`C_sub = G_max`); phase 2 targets all gates with undetectable
//! faults. In every iteration, library cells are considered in decreasing
//! internal-fault order: considering `cell_i` bans `cell_0..=cell_i` from
//! the remap, so the window is rebuilt from cells with fewer internal
//! faults. `PDesign()` (and the expensive ATPG re-run) only happens when a
//! cheap check shows the undetectable-internal-fault weight decreasing.
//! Candidates that meet the acceptance criteria but violate the design
//! constraints go through the backtracking procedure of Section III-C.

use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::time::Instant;

use rsyn_atpg::incremental::PreviousEvaluation;
use rsyn_logic::map::{MapError, MapOptions};
use rsyn_logic::Window;
use rsyn_netlist::{CellClass, CellId, GateId};
use rsyn_pdesign::place::PlaceError;

use crate::backtrack::backtrack;
use crate::constraints::DesignConstraints;
use crate::flow::{DesignState, FlowContext, Score};

/// Section III-B's trend-up termination: a cell scan stops after this
/// many consecutive candidates whose total `U` increased.
const TREND_STOP: usize = 2;

/// Safety bound on accepted iterations per phase; Section III-B's two
/// loops otherwise end on their own termination criteria.
const MAX_ITERATIONS: usize = 25;

/// The area/delay cost blend (`t` of [`MapOptions::blend`]) Section
/// III-B's `Synthesize()` maps every candidate with; only the
/// timing-driven retry before Section III-C backtracking maps with
/// [`MapOptions::delay`] instead.
pub const MAP_BLEND: f64 = 0.35;

/// Options for the resynthesis procedure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResynthOptions {
    /// Phase-1 termination target: stop when `|S_max|` falls below this
    /// percentage of `|F|` (the paper uses 1%).
    pub p1_percent: f64,
}

impl Default for ResynthOptions {
    fn default() -> Self {
        Self { p1_percent: 1.0 }
    }
}

/// Which phase an iteration belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Largest-cluster phase.
    One,
    /// Whole-circuit phase.
    Two,
}

/// Replay information for one accepted iteration: re-applying
/// `window`/`allowed`/`map_options` to the pre-iteration netlist rebuilds
/// the accepted netlist (and its gate/net ids) deterministically — the
/// record checkpoint/resume serialises.
#[derive(Clone, Debug)]
pub struct AcceptedRemap {
    /// Phase the iteration was accepted in.
    pub phase: Phase,
    /// The gates the winning candidate actually replaced (after any
    /// Section III-C shrinking).
    pub window: Vec<GateId>,
    /// The library cells the mapper was allowed to use.
    pub allowed: Vec<CellId>,
    /// The mapping cost blend the winning candidate used.
    pub map_options: MapOptions,
}

/// Position in the two-phase loop — where a resumed run continues.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResynthCursor {
    /// Phase to (re)enter.
    pub phase: Phase,
    /// Accepted iterations already performed in that phase.
    pub iter_in_phase: usize,
    /// Phase 2's cluster-size bound `p2`, fixed at phase entry; `None`
    /// while still in phase 1 (it will be computed on entry).
    pub p2: Option<f64>,
}

impl ResynthCursor {
    /// The cursor of a fresh (non-resumed) run.
    pub fn start() -> Self {
        Self { phase: Phase::One, iter_in_phase: 0, p2: None }
    }
}

/// Callback invoked after every accepted iteration with the accepted
/// state, its replay record, and the cursor of the *next* iteration.
///
/// Returning [`ControlFlow::Break`] stops the loop at this iteration
/// boundary — the accepted state so far becomes the outcome. This is the
/// hook behind cooperative cancellation and checkpoint-backed preemption:
/// the caller has just checkpointed the accepted iteration, so stopping
/// here loses nothing.
pub type OnAccept<'a> =
    dyn FnMut(&DesignState, &AcceptedRemap, &ResynthCursor) -> ControlFlow<()> + 'a;

/// Trace of one accepted (or terminal) iteration, for the Fig. 2 series.
#[derive(Clone, Debug)]
pub struct IterationTrace {
    /// Phase of the iteration.
    pub phase: Phase,
    /// Name of the most-faulty cell still allowed (`cell_{i+1}`), if an
    /// acceptance happened.
    pub banned_through: Option<String>,
    /// Whether backtracking was needed.
    pub used_backtracking: bool,
    /// `U` after the iteration.
    pub undetectable: usize,
    /// `|S_max|` after the iteration.
    pub s_max: usize,
    /// Cluster size distribution (top 10) after the iteration.
    pub cluster_sizes: Vec<usize>,
    /// Delay after the iteration (ps).
    pub delay_ps: f64,
    /// Power after the iteration (µW).
    pub power_uw: f64,
}

/// Result of [`resynthesize`].
#[derive(Clone, Debug)]
pub struct ResynthOutcome {
    /// The final design state.
    pub state: DesignState,
    /// Accepted-iteration trace (phase 1 then phase 2).
    pub trace: Vec<IterationTrace>,
    /// Number of full `PDesign()`+ATPG evaluations performed.
    pub full_evaluations: usize,
}

/// Acceptance criteria closure type.
pub(crate) type Accept<'a> = dyn Fn(&Score) -> bool + 'a;

/// Emits a debug line when the `RSYN_TRACE` environment variable is set.
pub(crate) fn trace_log(msg: impl FnOnce() -> String) {
    if std::env::var_os("RSYN_TRACE").is_some() {
        eprintln!("[rsyn] {}", msg());
    }
}

/// The candidate memo: the [`Score`] of every candidate evaluated against
/// the current design state, keyed by what the evaluation depends on
/// besides that state — the window's gate ids (in order), the allowed
/// cells and the mapping blend.
///
/// The loop meets the same candidates again: phase 2 starts on the design
/// phase 1 ended on, and each step of the `q` sweep re-runs both phases
/// on the design the previous step ended on. An evaluation depends only
/// on the design state, so each candidate is evaluated once per state.
/// Entries hold scores, not states: a hit the loop accepts is rebuilt by
/// one fresh evaluation, which is deterministic (same netlist, placement,
/// verdicts and tests). The loop clears the memo on every acceptance.
#[derive(Debug, Default)]
pub(crate) struct CandidateMemo {
    scores: HashMap<CandidateKey, Option<Score>>,
    /// The scores of the design state the entries were evaluated on. Every
    /// acceptance lowers `|S_max|` (phase 1) or `U` (phase 2), so an entry
    /// kept past an acceptance shows up as a different base score.
    base: Option<Score>,
    /// Full `PDesign()`+ATPG evaluations performed (memo hits excluded,
    /// rebuilds included).
    evaluations: usize,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CandidateKey {
    window: Vec<GateId>,
    allowed: Vec<CellId>,
    map_bits: [u64; 2],
}

/// An evaluated candidate: its scores, and its analysed state unless the
/// scores came from the memo.
pub(crate) struct Candidate {
    pub(crate) score: Score,
    state: Option<DesignState>,
    key: CandidateKey,
}

impl CandidateMemo {
    /// Evaluates one resynthesis candidate against `base`, or recalls its
    /// scores.
    ///
    /// Returns `None` when the remap fails, the quick check rejects, or the
    /// candidate no longer fits the fixed floorplan.
    pub(crate) fn evaluate(
        &mut self,
        ctx: &FlowContext,
        base: &DesignState,
        previous: &PreviousEvaluation<'_>,
        window: &[GateId],
        allowed: &[CellId],
        map_options: &MapOptions,
    ) -> Option<Candidate> {
        if window.is_empty() {
            return None;
        }
        rsyn_observe::add("resynth.candidates", 1);
        let key = CandidateKey {
            window: window.to_vec(),
            allowed: allowed.to_vec(),
            map_bits: [map_options.area_weight.to_bits(), map_options.delay_weight.to_bits()],
        };
        let base_score = base.score();
        let entries_base = *self.base.get_or_insert(base_score);
        assert_eq!(entries_base, base_score, "memo entries belong to another design state");
        if let Some(&score) = self.scores.get(&key) {
            rsyn_observe::add("resynth.memo_hits", 1);
            return score.map(|score| Candidate { score, state: None, key });
        }
        let state = self.analyze(ctx, base, previous, &key);
        let score = state.as_ref().map(DesignState::score);
        self.scores.insert(key.clone(), score);
        Some(Candidate { score: score?, state, key })
    }

    /// The analysed state of a candidate the loop accepts — the one
    /// [`CandidateMemo::evaluate`] built, or a rebuild of a memo hit — with
    /// its tests verified and compacted ([`DesignState::verified`]).
    pub(crate) fn state_of(
        &mut self,
        ctx: &FlowContext,
        base: &DesignState,
        previous: &PreviousEvaluation<'_>,
        cand: Candidate,
    ) -> DesignState {
        let state = cand.state.unwrap_or_else(|| {
            rsyn_observe::add("resynth.memo_rebuilds", 1);
            let state = self
                .analyze(ctx, base, previous, &cand.key)
                .expect("a memoised candidate rebuilds");
            assert_eq!(state.score(), cand.score, "a rebuilt candidate scores as memoised");
            state
        });
        state.verified(ctx)
    }

    /// Drops every entry: the design state they were evaluated on changed.
    fn clear(&mut self) {
        self.scores.clear();
        self.base = None;
    }

    /// Analyses the key's candidate ([`analyze_candidate`]), counting the
    /// full evaluations: every candidate past the pre-check.
    fn analyze(
        &mut self,
        ctx: &FlowContext,
        base: &DesignState,
        previous: &PreviousEvaluation<'_>,
        key: &CandidateKey,
    ) -> Option<DesignState> {
        let map_options = MapOptions {
            area_weight: f64::from_bits(key.map_bits[0]),
            delay_weight: f64::from_bits(key.map_bits[1]),
        };
        let result =
            analyze_candidate(ctx, base, previous, &key.window, &key.allowed, &map_options);
        if matches!(result, Ok(_) | Err(Rejection::Placement(_))) {
            self.evaluations += 1;
        }
        result.ok()
    }
}

/// Why [`analyze_candidate`] built no design state.
pub(crate) enum Rejection {
    /// The mapper could not rebuild the window from the allowed cells.
    Remap(MapError),
    /// The pre-check: the undetectable internal-fault weight did not fall.
    Precheck,
    /// `PDesign()`: the candidate no longer fits the fixed floorplan.
    Placement(PlaceError),
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Remap(e) => write!(f, "remap failed: {e}"),
            Rejection::Precheck => f.write_str("the pre-check rejects it"),
            Rejection::Placement(e) => write!(f, "{e}"),
        }
    }
}

/// Remaps `window` of `base` with the `allowed` cells, runs the quick
/// internal check, and only then the full `PDesign()` + fault extraction
/// + ATPG + clustering in `base`'s floorplan.
///
/// The loop evaluates every candidate through it and a resume replays
/// every recorded remap through it, so the two cannot drift apart.
pub(crate) fn analyze_candidate(
    ctx: &FlowContext,
    base: &DesignState,
    previous: &PreviousEvaluation<'_>,
    window: &[GateId],
    allowed: &[CellId],
    map_options: &MapOptions,
) -> Result<DesignState, Rejection> {
    let mut nl = base.nl.clone();
    let extracted = Window::extract(&nl, window);
    let old_weight: usize = extracted
        .gates
        .iter()
        .map(|&g| ctx.catalog.syndrome_free_count(base.nl.gate(g).expect("live").cell))
        .sum();
    let new_gates = extracted
        .resynthesize_with(&mut nl, &ctx.mapper, allowed, map_options)
        .map_err(Rejection::Remap)?;
    let new_weight: usize = new_gates
        .iter()
        .map(|&g| ctx.catalog.syndrome_free_count(nl.gate(g).expect("live").cell))
        .sum();
    // The paper's gate on PDesign(): the (cheaply computable) undetectable
    // internal fault weight must decrease before physical design is re-run.
    if new_weight >= old_weight {
        rsyn_observe::add("resynth.precheck_rejects", 1);
        trace_log(|| {
            format!(
                "precheck reject: window {} gates, weight {} -> {}",
                window.len(),
                old_weight,
                new_weight
            )
        });
        return Err(Rejection::Precheck);
    }
    let fp = base.pd.placement.floorplan();
    // The incremental fast path: only fault kinds on the remapped window
    // are re-checked; everything else carries its verdict over from
    // `base` (see `rsyn_atpg::incremental`).
    DesignState::analyze_incremental(
        nl,
        ctx,
        Some((fp, Some(&base.pd.placement))),
        previous,
        &new_gates,
    )
    .map_err(|e| {
        rsyn_observe::add("resynth.placement_rejects", 1);
        trace_log(|| format!("placement reject: window {} gates: {e}", window.len()));
        Rejection::Placement(e)
    })
}

/// One pass over the cell order for a given window.
///
/// First every eligible cell prefix is evaluated once (cheap scan); the
/// first candidate meeting both the acceptance criteria and the design
/// constraints wins. If every accepting candidate violates the
/// constraints, the earliest one (the paper's cell order) is retried
/// timing-driven and then handed to the Section III-C backtracking
/// procedure.
#[allow(clippy::too_many_arguments)]
fn try_cells(
    ctx: &FlowContext,
    state: &DesignState,
    window: &[GateId],
    constraints: &DesignConstraints,
    accept: &Accept<'_>,
    phase: Phase,
    memo: &mut CandidateMemo,
    used_backtracking: &mut bool,
    banned_through: &mut Option<String>,
) -> Option<(DesignState, AcceptedRemap)> {
    let order = ctx.catalog.cells_by_internal_faults(&ctx.lib);
    let map_options = MapOptions::blend(MAP_BLEND);
    let window_cells: Vec<CellId> =
        window.iter().map(|&g| state.nl.gate(g).expect("live").cell).collect();
    // Every candidate of this call carries verdicts over from `state`.
    let previous = PreviousEvaluation::new(&state.faults, &state.atpg);
    let mut worse_streak = 0usize;
    // (i, window_i, allowed) of the first accepting-but-violating candidate.
    let mut fallback: Option<(usize, Vec<GateId>, Vec<CellId>)> = None;
    for i in 0..order.len() {
        let cell_i = order[i];
        // Eligibility (1)+(2): cell_i is used by a window gate (window gates
        // all carry undetectable internal faults by construction).
        if !window_cells.contains(&cell_i) {
            continue;
        }
        // Eligibility (3): the remaining cells can synthesize the window.
        let allowed: Vec<CellId> = order[i + 1..]
            .iter()
            .copied()
            .filter(|&c| ctx.lib.cell(c).class == CellClass::Comb)
            .collect();
        let mut mask = vec![false; ctx.lib.len()];
        for &c in &allowed {
            mask[c.index()] = true;
        }
        if !ctx.mapper.is_complete(&mask) {
            continue;
        }
        // The remap window: gates whose cell is banned (`cell_0..=cell_i`).
        // Window gates of still-allowed types act as `G_zero` here — the
        // mapper could only re-pick the same cells for them, so leaving
        // them untouched avoids needless design disruption (Section III-B's
        // "this is important to avoid unnecessary design changes").
        let banned = &order[..=i];
        let window_i: Vec<GateId> = window
            .iter()
            .copied()
            .filter(|&g| banned.contains(&state.nl.gate(g).expect("live").cell))
            .collect();
        if window_i.is_empty() {
            continue;
        }
        let Some(cand) = memo.evaluate(ctx, state, &previous, &window_i, &allowed, &map_options)
        else {
            continue;
        };
        let score = cand.score;
        trace_log(|| {
            format!(
                "candidate ban<={}: U {} -> {}, Smax {} -> {}, delay {:.0} -> {:.0} (max {:.0}), power {:.0} -> {:.0} (max {:.0})",
                ctx.lib.cell(cell_i).name,
                state.undetectable_count(), score.undetectable,
                state.s_max_size(), score.s_max,
                state.delay_ps(), score.delay_ps, constraints.max_delay_ps,
                state.power_uw(), score.power_uw, constraints.max_power_uw,
            )
        });
        if accept(&score) {
            if constraints.admits(&score) {
                *banned_through = Some(ctx.lib.cell(cell_i).name.clone());
                accepted_iteration(i);
                let next = memo.state_of(ctx, state, &previous, cand);
                let remap = AcceptedRemap { phase, window: window_i, allowed, map_options };
                return Some((next, remap));
            }
            if fallback.is_none() {
                fallback = Some((i, window_i, allowed));
            }
        } else if score.undetectable > state.undetectable_count() {
            // Trend-up termination (Section III-B).
            worse_streak += 1;
            if worse_streak >= TREND_STOP {
                rsyn_observe::add("resynth.trend_stops", 1);
                break;
            }
        }
    }

    // No directly-feasible candidate: rescue the earliest accepting one.
    let (i, window_i, allowed) = fallback?;
    let cell_i = order[i];
    // Constraint miss: re-run Synthesize() timing-driven before resorting
    // to backtracking (as an iterative design flow would).
    if let Some(cand2) =
        memo.evaluate(ctx, state, &previous, &window_i, &allowed, &MapOptions::delay())
    {
        if accept(&cand2.score) && constraints.admits(&cand2.score) {
            *banned_through = Some(ctx.lib.cell(cell_i).name.clone());
            accepted_iteration(i);
            let next = memo.state_of(ctx, state, &previous, cand2);
            let remap = AcceptedRemap {
                phase,
                window: window_i,
                allowed,
                map_options: MapOptions::delay(),
            };
            return Some((next, remap));
        }
    }
    let (bt, win) = backtrack(
        ctx,
        state,
        &previous,
        &window_i,
        &order[..=i],
        &allowed,
        constraints,
        accept,
        &map_options,
        memo,
    )?;
    *banned_through = Some(ctx.lib.cell(cell_i).name.clone());
    *used_backtracking = true;
    accepted_iteration(i);
    Some((bt, AcceptedRemap { phase, window: win, allowed, map_options }))
}

/// Counter bookkeeping for one accepted iteration whose winning candidate
/// banned the cell-order prefix `cell_0..=cell_i` (`i + 1` excluded cells).
fn accepted_iteration(i: usize) {
    rsyn_observe::add_many(&[("resynth.accepted", 1), ("resynth.cells_excluded", i as u64 + 1)]);
}

fn trace_of(state: &DesignState, phase: Phase, banned: Option<String>, bt: bool) -> IterationTrace {
    let mut sizes = state.clusters.size_distribution();
    sizes.truncate(10);
    IterationTrace {
        phase,
        banned_through: banned,
        used_backtracking: bt,
        undetectable: state.undetectable_count(),
        s_max: state.s_max_size(),
        cluster_sizes: sizes,
        delay_ps: state.delay_ps(),
        power_uw: state.power_uw(),
    }
}

/// Runs the two-phase procedure under one set of constraints.
pub fn resynthesize(
    original: &DesignState,
    ctx: &FlowContext,
    constraints: &DesignConstraints,
    options: &ResynthOptions,
) -> ResynthOutcome {
    resynthesize_from(
        original,
        ctx,
        constraints,
        options,
        ResynthCursor::start(),
        &mut |_, _, _| ControlFlow::Continue(()),
    )
}

/// [`resynthesize`] with an explicit starting cursor and an accepted-
/// iteration callback — the engine behind checkpoint/resume.
///
/// With [`ResynthCursor::start`] and a no-op callback this is exactly
/// [`resynthesize`]. A resumed run passes the cursor recorded in its
/// checkpoint (and the *replayed* state): phase 1 is skipped when the
/// cursor is already in phase 2, remaining iteration budgets shrink by the
/// iterations already performed, and phase 2 reuses the recorded `p2`
/// instead of recomputing it.
pub fn resynthesize_from(
    start_state: &DesignState,
    ctx: &FlowContext,
    constraints: &DesignConstraints,
    options: &ResynthOptions,
    cursor: ResynthCursor,
    on_accept: &mut OnAccept<'_>,
) -> ResynthOutcome {
    let mut memo = CandidateMemo::default();
    let (state, trace) =
        two_phase(start_state.clone(), ctx, constraints, options, cursor, on_accept, &mut memo);
    ResynthOutcome { state, trace, full_evaluations: memo.evaluations }
}

/// The two-phase loop from `state`, evaluating candidates through `memo`,
/// whose entries must belong to `state`. Returns the final state and the
/// accepted-iteration trace.
fn two_phase(
    mut state: DesignState,
    ctx: &FlowContext,
    constraints: &DesignConstraints,
    options: &ResynthOptions,
    cursor: ResynthCursor,
    on_accept: &mut OnAccept<'_>,
    memo: &mut CandidateMemo,
) -> (DesignState, Vec<IterationTrace>) {
    let _span = rsyn_observe::span("resynth");
    let mut trace = Vec::new();

    // --- phase 1: break up the largest clusters ---------------------------
    if cursor.phase == Phase::One {
        rsyn_observe::events::publish(rsyn_observe::events::FlowEvent::StageEnter {
            stage: "resynth.p1",
        });
        let mut iter = cursor.iter_in_phase;
        while iter < MAX_ITERATIONS {
            let _zone = rsyn_observe::trace::zone("resynth.iter.p1", iter as u64);
            let s_pct = state.s_max_percent_of_f();
            if s_pct <= options.p1_percent || state.s_max_size() == 0 {
                break;
            }
            let c_sub = state.g_max();
            let window = state.gates_with_undetectable_internal(&c_sub);
            if window.is_empty() {
                break;
            }
            rsyn_observe::hist_add("resynth.window_gates", window.len() as u64);
            let old = state.score();
            let accept =
                |cand: &Score| cand.s_max < old.s_max && cand.undetectable <= old.undetectable;
            let mut bt = false;
            let mut banned = None;
            match try_cells(
                ctx,
                &state,
                &window,
                constraints,
                &accept,
                Phase::One,
                memo,
                &mut bt,
                &mut banned,
            ) {
                Some((next, remap)) => {
                    state = next;
                    memo.clear();
                    iter += 1;
                    rsyn_observe::add("resynth.phase1.iterations", 1);
                    trace.push(trace_of(&state, Phase::One, banned, bt));
                    let next_cursor =
                        ResynthCursor { phase: Phase::One, iter_in_phase: iter, p2: None };
                    if on_accept(&state, &remap, &next_cursor).is_break() {
                        return (state, trace);
                    }
                }
                None => break,
            }
        }
        rsyn_observe::events::publish(rsyn_observe::events::FlowEvent::StageExit {
            stage: "resynth.p1",
        });
    }

    // --- phase 2: reduce U across the whole circuit -----------------------
    let p2 = match (cursor.phase, cursor.p2) {
        (Phase::Two, Some(p2)) => p2,
        _ => options.p1_percent.max(state.s_max_percent_of_f()),
    };
    let mut iter = if cursor.phase == Phase::Two { cursor.iter_in_phase } else { 0 };
    rsyn_observe::events::publish(rsyn_observe::events::FlowEvent::StageEnter {
        stage: "resynth.p2",
    });
    while iter < MAX_ITERATIONS {
        let _zone = rsyn_observe::trace::zone("resynth.iter.p2", iter as u64);
        if state.undetectable_count() == 0 {
            break;
        }
        let c_sub = state.g_u();
        let window = state.gates_with_undetectable_internal(&c_sub);
        if window.is_empty() {
            break;
        }
        rsyn_observe::hist_add("resynth.window_gates", window.len() as u64);
        let old = state.score();
        let accept = |cand: &Score| {
            cand.undetectable < old.undetectable && cand.s_max_percent_of_f <= p2 + 1e-9
        };
        let mut bt = false;
        let mut banned = None;
        match try_cells(
            ctx,
            &state,
            &window,
            constraints,
            &accept,
            Phase::Two,
            memo,
            &mut bt,
            &mut banned,
        ) {
            Some((next, remap)) => {
                state = next;
                memo.clear();
                iter += 1;
                rsyn_observe::add("resynth.phase2.iterations", 1);
                trace.push(trace_of(&state, Phase::Two, banned, bt));
                let next_cursor =
                    ResynthCursor { phase: Phase::Two, iter_in_phase: iter, p2: Some(p2) };
                if on_accept(&state, &remap, &next_cursor).is_break() {
                    return (state, trace);
                }
            }
            None => break,
        }
    }
    rsyn_observe::events::publish(rsyn_observe::events::FlowEvent::StageExit {
        stage: "resynth.p2",
    });

    (state, trace)
}

/// Result of the outer `q` sweep.
#[derive(Clone, Debug)]
pub struct QSweepOutcome {
    /// States after each `q` (cumulative: `q` runs on top of `q − 1`).
    pub per_q: Vec<(u32, DesignState)>,
    /// The reported `q` (largest coverage; smallest `q` on ties).
    pub chosen_q: u32,
    /// Combined iteration trace across the sweep.
    pub trace: Vec<IterationTrace>,
    /// Wall-clock seconds spent in the sweep.
    pub sweep_seconds: f64,
    /// Total full `PDesign()`+ATPG candidate evaluations across the sweep.
    pub full_evaluations: usize,
}

impl QSweepOutcome {
    /// The chosen final state.
    ///
    /// # Panics
    ///
    /// Panics if the sweep recorded no states (cannot happen via
    /// [`run_q_sweep`]).
    pub fn final_state(&self) -> &DesignState {
        &self.per_q.iter().find(|(q, _)| *q == self.chosen_q).expect("chosen q was swept").1
    }
}

/// Sweeps `q = 0..=max_q` in steps of 1%, applying each relaxation on top
/// of the previous solution, and picks the `q` with the best coverage.
pub fn run_q_sweep(
    original: &DesignState,
    ctx: &FlowContext,
    options: &ResynthOptions,
    max_q: u32,
) -> QSweepOutcome {
    run_q_sweep_stepped(original, ctx, options, max_q, 1)
}

/// [`run_q_sweep`] with a custom `q` step (used for scale-adjusted budgets
/// where stepping by 1% would be needlessly slow).
///
/// One candidate memo serves the whole sweep: a step that accepts nothing
/// hands the next step the design its memo entries were evaluated on.
pub fn run_q_sweep_stepped(
    original: &DesignState,
    ctx: &FlowContext,
    options: &ResynthOptions,
    max_q: u32,
    step: u32,
) -> QSweepOutcome {
    let _span = rsyn_observe::span("qsweep");
    let step = step.max(1);
    let t0 = Instant::now();
    let mut current = original.clone();
    let mut memo = CandidateMemo::default();
    let mut per_q = Vec::new();
    let mut trace = Vec::new();
    let mut q = 0u32;
    loop {
        let constraints = DesignConstraints::from_original(original, q as f64);
        let (state, steps) = two_phase(
            current,
            ctx,
            &constraints,
            options,
            ResynthCursor::start(),
            &mut |_, _, _| ControlFlow::Continue(()),
            &mut memo,
        );
        current = state;
        trace.extend(steps);
        per_q.push((q, current.clone()));
        if q >= max_q {
            break;
        }
        q = (q + step).min(max_q);
    }
    let sweep_seconds = t0.elapsed().as_secs_f64();
    let mut chosen_q = 0u32;
    let mut best_cov = f64::NEG_INFINITY;
    for (q, s) in &per_q {
        if s.coverage() > best_cov + 1e-12 {
            best_cov = s.coverage();
            chosen_q = *q;
        }
    }
    QSweepOutcome { per_q, chosen_q, trace, sweep_seconds, full_evaluations: memo.evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table2Row;
    use rsyn_atpg::engine::covers;
    use rsyn_atpg::fault::FaultStatus;
    use rsyn_circuits::build_benchmark_with;
    use rsyn_netlist::Library;

    fn setup(name: &str) -> (FlowContext, DesignState) {
        let lib = Library::osu018();
        let ctx = FlowContext::new(lib.clone());
        let nl = build_benchmark_with(name, &ctx.lib, &ctx.mapper).unwrap();
        let state = DesignState::analyze(nl, &ctx, None).unwrap();
        (ctx, state)
    }

    #[test]
    fn resynthesis_reduces_undetectable_faults() {
        let (ctx, original) = setup("sparc_tlu");
        let u0 = original.undetectable_count();
        assert!(u0 > 0, "original must have undetectable faults");
        let constraints = DesignConstraints::from_original(&original, 5.0);
        let out = resynthesize(&original, &ctx, &constraints, &ResynthOptions::default());
        assert!(
            out.state.undetectable_count() < u0,
            "U {} -> {}",
            u0,
            out.state.undetectable_count()
        );
        assert!(out.state.coverage() > original.coverage());
        assert!(!out.trace.is_empty(), "at least one accepted iteration");
        // Constraints hold.
        assert!(constraints.satisfied_by(&out.state));
        // Netlist is still valid and functional structure preserved.
        out.state.nl.validate().unwrap();
    }

    #[test]
    fn resynthesis_shrinks_the_largest_cluster() {
        let (ctx, original) = setup("sparc_ifu");
        let constraints = DesignConstraints::from_original(&original, 5.0);
        let out = resynthesize(&original, &ctx, &constraints, &ResynthOptions::default());
        assert!(
            out.state.s_max_size() <= original.s_max_size(),
            "S_max {} -> {}",
            original.s_max_size(),
            out.state.s_max_size()
        );
    }

    #[test]
    fn trace_is_monotone_in_u_within_phase2() {
        let (ctx, original) = setup("sparc_tlu");
        let constraints = DesignConstraints::from_original(&original, 5.0);
        let out = resynthesize(&original, &ctx, &constraints, &ResynthOptions::default());
        let phase2: Vec<&IterationTrace> =
            out.trace.iter().filter(|t| t.phase == Phase::Two).collect();
        for w in phase2.windows(2) {
            assert!(w[1].undetectable < w[0].undetectable, "phase 2 accepts only U decreases");
        }
    }

    /// Rebuilding a memo hit the loop accepts relies on this: one candidate
    /// evaluated twice against the same base is the same design.
    #[test]
    fn a_candidate_evaluated_twice_is_the_same_design() {
        let (ctx, original) = setup("sparc_ffu");
        let window = original.gates_with_undetectable_internal(&original.g_u());
        let order = ctx.catalog.cells_by_internal_faults(&ctx.lib);
        let map_options = MapOptions::blend(MAP_BLEND);
        let previous = PreviousEvaluation::new(&original.faults, &original.atpg);
        let mut memo = CandidateMemo::default();
        // The first cell prefix whose candidate passes the pre-check and fits.
        let (first, window_i, allowed) = (0..order.len())
            .find_map(|i| {
                let allowed: Vec<CellId> = order[i + 1..]
                    .iter()
                    .copied()
                    .filter(|&c| ctx.lib.cell(c).class == CellClass::Comb)
                    .collect();
                let window_i: Vec<GateId> = window
                    .iter()
                    .copied()
                    .filter(|&g| order[..=i].contains(&original.nl.gate(g).expect("live").cell))
                    .collect();
                let cand =
                    memo.evaluate(&ctx, &original, &previous, &window_i, &allowed, &map_options)?;
                Some((cand, window_i, allowed))
            })
            .expect("some sparc_ffu candidate is analysed");
        assert!(first.state.is_some(), "a memo miss carries its state");
        let hits = rsyn_observe::counter("resynth.memo_hits");
        let again = memo
            .evaluate(&ctx, &original, &previous, &window_i, &allowed, &map_options)
            .expect("hit");
        assert!(again.state.is_none(), "the second evaluation is a memo hit");
        assert_eq!(rsyn_observe::counter("resynth.memo_hits"), hits + 1);
        let first = memo.state_of(&ctx, &original, &previous, first);
        let rebuilt = memo.state_of(&ctx, &original, &previous, again);

        let gates = |s: &DesignState| -> Vec<_> {
            s.nl.gates()
                .map(|(g, gate)| (g, gate.clone(), s.pd.placement.slot(g)))
                .map(|(g, gate, slot)| (g, gate.name, gate.cell, gate.inputs, gate.outputs, slot))
                .collect()
        };
        assert_eq!(gates(&first), gates(&rebuilt), "netlist and placement");
        assert_eq!(first.faults, rebuilt.faults);
        assert_eq!(first.atpg.statuses, rebuilt.atpg.statuses);
        assert_eq!(first.atpg.tests, rebuilt.atpg.tests);
        assert_eq!(first.delay_ps().to_bits(), rebuilt.delay_ps().to_bits());
        assert_eq!(first.power_uw().to_bits(), rebuilt.power_uw().to_bits());
    }

    /// `perf`'s `table2_ffu` sweep meets candidates it evaluated at the
    /// previous `q` again, analyses each once, and still lands on the
    /// committed Table II design.
    #[test]
    fn the_q_sweep_evaluates_each_candidate_once_per_state() {
        let (ctx, original) = setup("sparc_ffu");
        let before = rsyn_observe::counters();
        let sweep = run_q_sweep_stepped(&original, &ctx, &ResynthOptions::default(), 5, 5);
        let delta = |name: &str| rsyn_observe::counter(name) - before.get(name).unwrap_or(&0);
        assert!(delta("resynth.memo_hits") > 0);
        assert!(delta("flow.analyses_incremental") < delta("resynth.candidates"));
        assert_eq!(delta("flow.analyses_incremental"), sweep.full_evaluations as u64);

        // Every column of the committed row but `MaxInc` and `Rtime`.
        let columns = |line: &str| -> Vec<String> {
            let mut cols: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            cols.pop();
            cols.remove(1);
            cols
        };
        let committed = include_str!("../../../results/table2_q5.txt")
            .lines()
            .filter(|l| l.starts_with("sparc_ffu "))
            .nth(1)
            .expect("committed sparc_ffu row");
        let row = Table2Row::resynthesized("sparc_ffu", &original, &sweep, 1.0).to_string();
        assert_eq!(columns(&row), columns(committed));
    }

    /// Every design the sweep returns — each `q` step's and the chosen one
    /// — has tests that detect every fault it reports Detected: accepted
    /// states leave the loop through `DesignState::verified`.
    #[test]
    fn every_swept_state_has_tests_covering_its_detected_faults() {
        let (ctx, original) = setup("sparc_ffu");
        let sweep = run_q_sweep_stepped(&original, &ctx, &ResynthOptions::default(), 5, 5);
        assert!(!sweep.trace.is_empty(), "the sweep accepts a candidate");
        let states = sweep.per_q.iter().map(|(_, s)| s).chain([sweep.final_state()]);
        for (k, state) in states.enumerate() {
            let view = state.nl.comb_view().unwrap();
            let covered = covers(&state.nl, &view, &state.faults, &state.atpg.tests);
            for (i, status) in state.atpg.statuses.iter().enumerate() {
                if *status == FaultStatus::Detected {
                    assert!(covered[i], "state {k}: fault {i} is Detected but no test detects it");
                }
            }
        }
    }

    #[test]
    fn q_sweep_picks_best_coverage() {
        let (ctx, original) = setup("sparc_tlu");
        let sweep = run_q_sweep(&original, &ctx, &ResynthOptions::default(), 2);
        assert_eq!(sweep.per_q.len(), 3);
        let final_cov = sweep.final_state().coverage();
        for (_, s) in &sweep.per_q {
            assert!(final_cov >= s.coverage() - 1e-12);
        }
        assert!(sweep.sweep_seconds > 0.0);
    }
}
