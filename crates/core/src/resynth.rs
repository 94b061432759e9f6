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

use std::ops::ControlFlow;
use std::time::Instant;

use rsyn_logic::map::MapOptions;
use rsyn_logic::Window;
use rsyn_netlist::{CellClass, CellId, GateId};

use crate::backtrack::backtrack;
use crate::constraints::DesignConstraints;
use crate::flow::{DesignState, FlowContext};

/// Options for the resynthesis procedure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResynthOptions {
    /// Phase-1 termination target: stop when `|S_max|` falls below this
    /// percentage of `|F|` (the paper uses 1%).
    pub p1_percent: f64,
    /// Stop a phase after this many consecutive candidates whose total `U`
    /// increased (the paper's trend-up termination).
    pub trend_stop: usize,
    /// Safety bound on accepted iterations per phase.
    pub max_iterations: usize,
    /// Whether the Section III-C backtracking procedure runs when
    /// constraints are violated.
    pub backtracking: bool,
    /// Mapping cost blend used by `Synthesize()`.
    pub map_options: MapOptions,
}

impl Default for ResynthOptions {
    fn default() -> Self {
        Self {
            p1_percent: 1.0,
            trend_stop: 2,
            max_iterations: 25,
            backtracking: true,
            map_options: MapOptions::blend(0.35),
        }
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
#[derive(Clone, Copy, Debug)]
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
type Accept<'a> = dyn Fn(&DesignState) -> bool + 'a;

/// Emits a debug line when the `RSYN_TRACE` environment variable is set.
pub(crate) fn trace_log(msg: impl FnOnce() -> String) {
    if std::env::var_os("RSYN_TRACE").is_some() {
        eprintln!("[rsyn] {}", msg());
    }
}

/// Evaluates one resynthesis candidate: remap `window_gates` with the
/// `allowed` cells, run the quick internal check, and only then the full
/// `PDesign()` + fault extraction + ATPG + clustering.
///
/// Returns `None` when the remap fails, the quick check rejects, or the
/// candidate no longer fits the fixed floorplan.
pub(crate) fn evaluate_candidate(
    ctx: &FlowContext,
    base: &DesignState,
    window_gates: &[GateId],
    allowed: &[CellId],
    map_options: &MapOptions,
    evaluations: &mut usize,
) -> Option<DesignState> {
    if window_gates.is_empty() {
        return None;
    }
    rsyn_observe::add("resynth.candidates", 1);
    let mut nl = base.nl.clone();
    let window = Window::extract(&nl, window_gates);
    let old_weight: usize = window
        .gates
        .iter()
        .map(|&g| ctx.catalog.syndrome_free_count(base.nl.gate(g).expect("live").cell))
        .sum();
    let new_gates = window.resynthesize_with(&mut nl, &ctx.mapper, allowed, map_options).ok()?;
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
                window_gates.len(),
                old_weight,
                new_weight
            )
        });
        return None;
    }
    *evaluations += 1;
    let fp = base.pd.placement.floorplan();
    // The cone-of-influence fast path: only faults the remapped gates can
    // influence are re-simulated; everything else carries its verdict over
    // from `base` (see `rsyn_atpg::incremental`).
    let result = DesignState::analyze_incremental(
        nl,
        ctx,
        Some((fp, Some(&base.pd.placement))),
        base,
        &new_gates,
    );
    if let Err(e) = &result {
        rsyn_observe::add("resynth.placement_rejects", 1);
        trace_log(|| format!("placement reject: window {} gates: {e}", window_gates.len()));
    }
    result.ok()
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
    options: &ResynthOptions,
    phase: Phase,
    evaluations: &mut usize,
    used_backtracking: &mut bool,
    banned_through: &mut Option<String>,
) -> Option<(DesignState, AcceptedRemap)> {
    let order = ctx.catalog.cells_by_internal_faults(&ctx.lib);
    let window_cells: Vec<CellId> =
        window.iter().map(|&g| state.nl.gate(g).expect("live").cell).collect();
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
        let Some(cand) =
            evaluate_candidate(ctx, state, &window_i, &allowed, &options.map_options, evaluations)
        else {
            continue;
        };
        trace_log(|| {
            format!(
                "candidate ban<={}: U {} -> {}, Smax {} -> {}, delay {:.0} -> {:.0} (max {:.0}), power {:.0} -> {:.0} (max {:.0})",
                ctx.lib.cell(cell_i).name,
                state.undetectable_count(), cand.undetectable_count(),
                state.s_max_size(), cand.s_max_size(),
                state.delay_ps(), cand.delay_ps(), constraints.max_delay_ps,
                state.power_uw(), cand.power_uw(), constraints.max_power_uw,
            )
        });
        if accept(&cand) {
            if constraints.satisfied_by(&cand) {
                *banned_through = Some(ctx.lib.cell(cell_i).name.clone());
                accepted_iteration(i);
                let remap = AcceptedRemap {
                    phase,
                    window: window_i,
                    allowed,
                    map_options: options.map_options,
                };
                return Some((cand, remap));
            }
            if fallback.is_none() {
                fallback = Some((i, window_i, allowed));
            }
        } else if cand.undetectable_count() > state.undetectable_count() {
            // Trend-up termination (Section III-B).
            worse_streak += 1;
            if worse_streak >= options.trend_stop {
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
        evaluate_candidate(ctx, state, &window_i, &allowed, &MapOptions::delay(), evaluations)
    {
        if accept(&cand2) && constraints.satisfied_by(&cand2) {
            *banned_through = Some(ctx.lib.cell(cell_i).name.clone());
            accepted_iteration(i);
            let remap = AcceptedRemap {
                phase,
                window: window_i,
                allowed,
                map_options: MapOptions::delay(),
            };
            return Some((cand2, remap));
        }
    }
    if options.backtracking {
        if let Some((bt, win)) = backtrack(
            ctx,
            state,
            &window_i,
            &order[..=i],
            &allowed,
            constraints,
            accept,
            &options.map_options,
            evaluations,
        ) {
            *banned_through = Some(ctx.lib.cell(cell_i).name.clone());
            *used_backtracking = true;
            accepted_iteration(i);
            let remap =
                AcceptedRemap { phase, window: win, allowed, map_options: options.map_options };
            return Some((bt, remap));
        }
    }
    None
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
    let _span = rsyn_observe::span("resynth");
    let mut state = start_state.clone();
    let mut trace = Vec::new();
    let mut evaluations = 0usize;

    // --- phase 1: break up the largest clusters ---------------------------
    if cursor.phase == Phase::One {
        rsyn_observe::events::publish(rsyn_observe::events::FlowEvent::StageEnter {
            stage: "resynth.p1",
        });
        let mut iter = cursor.iter_in_phase;
        while iter < options.max_iterations {
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
            let old = state.clone();
            let accept = |cand: &DesignState| {
                cand.s_max_size() < old.s_max_size()
                    && cand.undetectable_count() <= old.undetectable_count()
            };
            let mut bt = false;
            let mut banned = None;
            match try_cells(
                ctx,
                &state,
                &window,
                constraints,
                &accept,
                options,
                Phase::One,
                &mut evaluations,
                &mut bt,
                &mut banned,
            ) {
                Some((next, remap)) => {
                    state = next;
                    iter += 1;
                    rsyn_observe::add("resynth.phase1.iterations", 1);
                    trace.push(trace_of(&state, Phase::One, banned, bt));
                    let next_cursor =
                        ResynthCursor { phase: Phase::One, iter_in_phase: iter, p2: None };
                    if on_accept(&state, &remap, &next_cursor).is_break() {
                        return ResynthOutcome { state, trace, full_evaluations: evaluations };
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
    while iter < options.max_iterations {
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
        let old = state.clone();
        let accept = |cand: &DesignState| {
            cand.undetectable_count() < old.undetectable_count()
                && cand.s_max_percent_of_f() <= p2 + 1e-9
        };
        let mut bt = false;
        let mut banned = None;
        match try_cells(
            ctx,
            &state,
            &window,
            constraints,
            &accept,
            options,
            Phase::Two,
            &mut evaluations,
            &mut bt,
            &mut banned,
        ) {
            Some((next, remap)) => {
                state = next;
                iter += 1;
                rsyn_observe::add("resynth.phase2.iterations", 1);
                trace.push(trace_of(&state, Phase::Two, banned, bt));
                let next_cursor =
                    ResynthCursor { phase: Phase::Two, iter_in_phase: iter, p2: Some(p2) };
                if on_accept(&state, &remap, &next_cursor).is_break() {
                    return ResynthOutcome { state, trace, full_evaluations: evaluations };
                }
            }
            None => break,
        }
    }
    rsyn_observe::events::publish(rsyn_observe::events::FlowEvent::StageExit {
        stage: "resynth.p2",
    });

    ResynthOutcome { state, trace, full_evaluations: evaluations }
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
    /// Wall-clock seconds of one baseline analysis (synthesis-free
    /// `PDesign()` + test generation), for the paper's `Rtime` column.
    pub baseline_seconds: f64,
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

    /// The paper's `Rtime`: sweep runtime relative to one base iteration.
    pub fn relative_runtime(&self) -> f64 {
        if self.baseline_seconds <= 0.0 {
            return 0.0;
        }
        self.sweep_seconds / self.baseline_seconds
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
pub fn run_q_sweep_stepped(
    original: &DesignState,
    ctx: &FlowContext,
    options: &ResynthOptions,
    max_q: u32,
    step: u32,
) -> QSweepOutcome {
    let _span = rsyn_observe::span("qsweep");
    // Baseline runtime: one re-analysis of the original netlist.
    let t0 = Instant::now();
    let _ = DesignState::analyze(original.nl.clone(), ctx, None);
    let baseline_seconds = t0.elapsed().as_secs_f64();

    let step = step.max(1);
    let t1 = Instant::now();
    let mut current = original.clone();
    let mut per_q = Vec::new();
    let mut trace = Vec::new();
    let mut full_evaluations = 0usize;
    let mut q = 0u32;
    loop {
        let constraints = DesignConstraints::from_original(original, q as f64);
        let out = resynthesize(&current, ctx, &constraints, options);
        current = out.state;
        trace.extend(out.trace);
        full_evaluations += out.full_evaluations;
        per_q.push((q, current.clone()));
        if q >= max_q {
            break;
        }
        q = (q + step).min(max_q);
    }
    let sweep_seconds = t1.elapsed().as_secs_f64();
    let mut chosen_q = 0u32;
    let mut best_cov = f64::NEG_INFINITY;
    for (q, s) in &per_q {
        if s.coverage() > best_cov + 1e-12 {
            best_cov = s.coverage();
            chosen_q = *q;
        }
    }
    QSweepOutcome { per_q, chosen_q, trace, sweep_seconds, baseline_seconds, full_evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn q_sweep_picks_best_coverage() {
        let (ctx, original) = setup("sparc_tlu");
        let sweep = run_q_sweep(&original, &ctx, &ResynthOptions::default(), 2);
        assert_eq!(sweep.per_q.len(), 3);
        let final_cov = sweep.final_state().coverage();
        for (_, s) in &sweep.per_q {
            assert!(final_cov >= s.coverage() - 1e-12);
        }
        assert!(sweep.relative_runtime() > 0.0);
    }
}
