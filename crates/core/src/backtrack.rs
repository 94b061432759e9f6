//! The backtracking procedure of Section III-C.
//!
//! When a resynthesized window satisfies the acceptance criteria but
//! violates the design constraints, replacing *fewer* gates usually lowers
//! the overhead. `G_i` — the window gates whose cell type is banned — is
//! shrunk in groups of √n (gates moved to `G_back` stay untouched); if a
//! shrunken window meets the constraints but no longer the acceptance
//! criteria, the last group is returned one gate at a time. The procedure
//! stops at the first accepted candidate, or reports failure (which
//! terminates the current resynthesis phase, as in the paper).

use rsyn_atpg::incremental::PreviousEvaluation;
use rsyn_logic::map::MapOptions;
use rsyn_netlist::{CellId, GateId};

use crate::constraints::DesignConstraints;
use crate::flow::{DesignState, FlowContext};
use crate::resynth::{Accept, Candidate, CandidateMemo};

/// Runs the backtracking procedure. `banned` is the prefix
/// `cell_0..=cell_i` of the internal-fault cell order; `allowed` the
/// remaining cells.
///
/// On success, returns the accepted state **and the shrunken window** that
/// produced it — the replay information checkpoint/resume needs to rebuild
/// the same netlist deterministically.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backtrack(
    ctx: &FlowContext,
    state: &DesignState,
    previous: &PreviousEvaluation<'_>,
    window: &[GateId],
    banned: &[CellId],
    allowed: &[CellId],
    constraints: &DesignConstraints,
    accept: &Accept<'_>,
    map_options: &MapOptions,
    memo: &mut CandidateMemo,
) -> Option<(DesignState, Vec<GateId>)> {
    rsyn_observe::add("resynth.backtrack.calls", 1);
    let _zone = rsyn_observe::trace::zone("resynth.backtrack", window.len() as u64);
    // G_i: window gates of banned cell types, ordered so that the most
    // timing-critical gates are *removed first* (moved to G_back): the
    // constraint violations come from rebuilding critical-path gates, so
    // sparing those recovers the budgets with the fewest removals.
    let gate_slack = |g: GateId| -> f64 {
        state
            .nl
            .gate(g)
            .expect("live")
            .outputs
            .iter()
            .map(|&o| state.pd.timing.slack(o))
            .fold(f64::INFINITY, f64::min)
    };
    let mut g_i: Vec<GateId> = window
        .iter()
        .copied()
        .filter(|&g| banned.contains(&state.nl.gate(g).expect("live").cell))
        .collect();
    // `pop()` takes from the end, so sort descending by slack.
    g_i.sort_by(|&a, &b| gate_slack(b).total_cmp(&gate_slack(a)).then(a.cmp(&b)));
    let n = g_i.len();
    if n == 0 {
        return None;
    }
    let step = (n as f64).sqrt().ceil() as usize;
    let groups = n.div_ceil(step);
    rsyn_observe::hist_add("resynth.backtrack.group_size", step as u64);

    // The window with the last `k` groups of G_i spared (moved to G_back).
    // Every k ≥ 1 replaces a strictly smaller gate set than the failed full
    // window: `resynth.backtrack.evals` and `resynth.backtrack.group_shrinks`
    // together count exactly these Section III-C shrink attempts.
    let shrunk = |k: usize| &g_i[..n - (k * step).min(n)];

    // The constraint violation shrinks monotonically as more (most-critical
    // first) gates are spared, so bisect for the smallest k whose candidate
    // meets the constraints — this replaces the paper's linear group walk
    // with an equivalent but cheaper search over the same √n grid.
    let mut lo = 1usize; // k = 0 is the already-failed full replacement
    let mut hi = groups;
    let mut best: Option<(usize, Candidate)> = None;
    while lo <= hi {
        let mid = (lo + hi) / 2;
        rsyn_observe::add("resynth.backtrack.evals", 1);
        let cand = memo.evaluate(ctx, state, previous, shrunk(mid), allowed, map_options);
        let ok = cand.as_ref().is_some_and(|c| constraints.admits(&c.score));
        crate::resynth::trace_log(|| {
            format!(
                "backtrack bisect k={mid}/{groups}: {}",
                match &cand {
                    None => "no candidate (pre-check/placement)".to_string(),
                    Some(c) => format!(
                        "U {}, Smax {}, delay {:.0}, power {:.0}, constraints={}",
                        c.score.undetectable, c.score.s_max, c.score.delay_ps, c.score.power_uw, ok
                    ),
                }
            )
        });
        if ok {
            best = Some((mid, cand.expect("ok candidate")));
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    let (k, cand) = best?;
    if accept(&cand.score) {
        rsyn_observe::add("resynth.backtrack.accepted", 1);
        return Some((memo.state_of(ctx, state, previous, cand), shrunk(k).to_vec()));
    }
    // Constraints recovered but the shrunken replacement no longer meets the
    // acceptance criteria: return the last group's gates to G_i one at a
    // time (Section III-C), i.e. reduce the spared count step-wise.
    let spared = (k * step).min(n);
    for spared2 in (spared.saturating_sub(step)..spared).rev() {
        rsyn_observe::add("resynth.backtrack.group_shrinks", 1);
        let win = &g_i[..n - spared2];
        if let Some(c2) = memo.evaluate(ctx, state, previous, win, allowed, map_options) {
            if accept(&c2.score) && constraints.admits(&c2.score) {
                rsyn_observe::add("resynth.backtrack.accepted", 1);
                return Some((memo.state_of(ctx, state, previous, c2), win.to_vec()));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Score;
    use crate::resynth::MAP_BLEND;
    use rsyn_circuits::build_benchmark_with;
    use rsyn_netlist::Library;

    /// Exercises backtracking directly with deliberately tight constraints:
    /// the full-window candidate will usually violate them, forcing the √n
    /// group machinery to run.
    #[test]
    fn backtracking_respects_constraints() {
        let lib = Library::osu018();
        let ctx = FlowContext::new(lib.clone());
        let nl = build_benchmark_with("sparc_tlu", &ctx.lib, &ctx.mapper).unwrap();
        let original = DesignState::analyze(nl, &ctx, None).unwrap();
        let window = original.gates_with_undetectable_internal(&original.g_u());
        if window.is_empty() {
            return; // nothing to do on this seed; covered by other tests
        }
        let order = ctx.catalog.cells_by_internal_faults(&ctx.lib);
        // Ban the top cell only.
        let banned = &order[..1];
        let allowed: Vec<CellId> = order[1..]
            .iter()
            .copied()
            .filter(|&c| ctx.lib.cell(c).class == rsyn_netlist::CellClass::Comb)
            .collect();
        // Impossibly tight power budget forces failure...
        let tight = DesignConstraints {
            max_delay_ps: original.delay_ps(),
            max_power_uw: original.power_uw() * 0.01,
            floorplan: original.pd.placement.floorplan(),
            q_percent: 0.0,
        };
        let u0 = original.undetectable_count();
        let accept = |c: &Score| c.undetectable < u0;
        let map_options = MapOptions::blend(MAP_BLEND);
        let previous = PreviousEvaluation::new(&original.faults, &original.atpg);
        let out = backtrack(
            &ctx,
            &original,
            &previous,
            &window,
            banned,
            &allowed,
            &tight,
            &accept,
            &map_options,
            &mut CandidateMemo::default(),
        );
        assert!(out.is_none(), "1% power budget cannot be met");
        // ...while a loose budget lets some candidate through (if any
        // candidate passes the internal pre-check at all).
        let loose = DesignConstraints {
            max_delay_ps: original.delay_ps() * 2.0,
            max_power_uw: original.power_uw() * 2.0,
            floorplan: original.pd.placement.floorplan(),
            q_percent: 100.0,
        };
        if let Some((s, _win)) = backtrack(
            &ctx,
            &original,
            &previous,
            &window,
            banned,
            &allowed,
            &loose,
            &accept,
            &map_options,
            &mut CandidateMemo::default(),
        ) {
            assert!(s.undetectable_count() < original.undetectable_count());
            assert!(loose.satisfied_by(&s));
        }
    }
}
