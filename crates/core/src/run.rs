//! The resilient flow entry points: [`run`] and [`run_resumed`].
//!
//! [`run`] wraps the two-phase resynthesis procedure with the
//! `rsyn-resilience` guarantees:
//!
//! * every flow-reachable failure maps to a typed
//!   [`FlowError`] instead of a panic — fatal errors (bad input) return
//!   `Err`, recoverable ones are absorbed and listed in
//!   [`FlowReport::recovered`] while the report still carries the
//!   **best-so-far accepted design**;
//! * after every accepted iteration a [`Checkpoint`] is serialised (when
//!   [`FlowOptions::checkpoint_dir`] is set): the decision log of accepted
//!   remaps, the fault-verdict dictionary, the loop cursor, and a counters
//!   snapshot;
//! * [`run_resumed`] rebuilds the state of an interrupted run by
//!   *replaying* the decision log against the deterministically rebuilt
//!   seed netlist — gate and net ids come out identical, so the continued
//!   run produces byte-identical stable manifests and checkpoints.
//!
//! Replay happens under [`rsyn_observe::pause`] (the replayed iterations
//! were already counted when the checkpoint's counter snapshot was taken)
//! and is validated against the checkpoint's verdict dictionary before the
//! loop continues.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rsyn_atpg::engine::AtpgResult;
use rsyn_atpg::fault::FaultStatus;
use rsyn_logic::map::MapOptions;
use rsyn_logic::Window;
use rsyn_netlist::{CellId, GateId, Library, Netlist};
use rsyn_observe::events::{self, FlowEvent};
use rsyn_pdesign::place::PlaceError;
use rsyn_resilience::{Checkpoint, FlowError, RemapRecord, ResumeCursor, RunControl, StopCause};

use crate::constraints::DesignConstraints;
use crate::flow::{DesignState, FlowContext};
use crate::resynth::{
    resynthesize_from, AcceptedRemap, IterationTrace, Phase, ResynthCursor, ResynthOptions,
    ResynthOutcome,
};

/// Options for one resilient flow run.
#[derive(Clone, Debug)]
pub struct FlowOptions {
    /// Delay/power relaxation `q` in percent.
    pub q_percent: f64,
    /// Inner resynthesis options.
    pub resynth: ResynthOptions,
    /// Run name recorded in checkpoints (ties them to a manifest).
    pub run_name: String,
    /// Benchmark/circuit name the seed netlist is rebuilt from on resume.
    pub circuit: String,
    /// Where per-iteration checkpoints go; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Cooperative stop handle, polled at iteration boundaries (right
    /// after each accepted iteration is checkpointed) and once before the
    /// loop starts. The default handle never stops the run.
    pub control: RunControl,
}

impl FlowOptions {
    /// Options with default resynthesis settings, `q = 5`, and
    /// checkpointing disabled.
    pub fn new(circuit: &str, run_name: &str) -> Self {
        Self {
            q_percent: 5.0,
            resynth: ResynthOptions::default(),
            run_name: run_name.to_string(),
            circuit: circuit.to_string(),
            checkpoint_dir: None,
            control: RunControl::default(),
        }
    }
}

/// What a (possibly degraded) flow run produced.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// The final accepted design — best-so-far when a recoverable failure
    /// cut the run short.
    pub state: DesignState,
    /// Accepted-iteration trace (empty when the loop was cut short by a
    /// recovered panic; the accepted states themselves are never lost).
    pub trace: Vec<IterationTrace>,
    /// Total accepted iterations, including replayed ones on resume.
    pub accepted: usize,
    /// Accepted iterations replayed from a checkpoint (0 for [`run`]).
    pub replayed: usize,
    /// Faults ATPG left undecided — a shard that failed twice, or a SAT
    /// test the fault simulator rejected. They are excluded from `U` and
    /// would otherwise vanish from the report; 0 in every committed run.
    pub aborted: usize,
    /// Recoverable failures the run absorbed, in occurrence order.
    pub recovered: Vec<FlowError>,
    /// Checkpoints successfully written.
    pub checkpoints_written: usize,
    /// Full `PDesign()`+ATPG evaluations in the live (non-replayed) part.
    pub full_evaluations: usize,
    /// Why the run stopped early, if [`FlowOptions::control`] requested a
    /// stop at an iteration boundary; `None` means it ran to completion.
    /// A `Preempted` stop left a checkpoint behind (when checkpointing is
    /// enabled) that resumes byte-identically.
    pub stopped: Option<StopCause>,
}

/// Runs the resilient flow from a seed netlist.
///
/// # Errors
///
/// Fatal [`FlowError`]s only: an invalid netlist, or a seed analysis that
/// does not fit its own floorplan. Failures *after* the first successful
/// analysis are absorbed into [`FlowReport::recovered`].
pub fn run(nl: Netlist, ctx: &FlowContext, options: &FlowOptions) -> Result<FlowReport, FlowError> {
    nl.validate().map_err(|e| FlowError::InvalidNetlist { message: e.to_string() })?;
    let original = DesignState::analyze(nl, ctx, None).map_err(place_error)?;
    let constraints = DesignConstraints::from_original(&original, options.q_percent);
    drive(ctx, options, &constraints, original, ResynthCursor::start(), Vec::new())
}

/// Resumes an interrupted run from a [`Checkpoint`].
///
/// `seed_nl` must be the same seed netlist the original run started from
/// (the caller rebuilds it; this crate does not depend on the benchmark
/// generator). The checkpoint's decision log is replayed against it with
/// observability paused, the result is validated against the recorded
/// verdict dictionary, the counter snapshot is restored, and the loop
/// continues from the recorded cursor.
///
/// # Errors
///
/// [`FlowError::Checkpoint`] when the checkpoint does not match the given
/// context/options or the replay diverges; otherwise as [`run`].
pub fn run_resumed(
    seed_nl: Netlist,
    ctx: &FlowContext,
    options: &FlowOptions,
    checkpoint: &Checkpoint,
) -> Result<FlowReport, FlowError> {
    let label = checkpoint.name.clone();
    let cp_err = |message: String| FlowError::Checkpoint { path: label.clone(), message };
    if checkpoint.seed != ctx.seed {
        return Err(cp_err(format!(
            "seed mismatch: checkpoint has {:#x}, context has {:#x}",
            checkpoint.seed, ctx.seed
        )));
    }
    if checkpoint.circuit != options.circuit {
        return Err(cp_err(format!(
            "circuit mismatch: checkpoint is for `{}`, options say `{}`",
            checkpoint.circuit, options.circuit
        )));
    }
    if checkpoint.name != options.run_name {
        return Err(cp_err(format!(
            "run-name mismatch: checkpoint is `{}`, options say `{}`",
            checkpoint.name, options.run_name
        )));
    }
    if checkpoint.q_bits != options.q_percent.to_bits() {
        return Err(cp_err(format!(
            "q mismatch: checkpoint has q = {}, options say {}",
            f64::from_bits(checkpoint.q_bits),
            options.q_percent
        )));
    }
    seed_nl.validate().map_err(|e| FlowError::InvalidNetlist { message: e.to_string() })?;
    let cursor = decode_cursor(&checkpoint.cursor, &label)?;

    // Replay the decision log with counter recording paused: the replayed
    // iterations are already represented in the checkpoint's snapshot.
    let (original, current) = {
        let _paused = rsyn_observe::pause();
        let original = DesignState::analyze(seed_nl, ctx, None).map_err(place_error)?;
        let mut current = original.clone();
        for (i, rec) in checkpoint.remaps.iter().enumerate() {
            current = replay_remap(ctx, &current, rec, i, &label)?;
        }
        (original, current)
    };
    let verdicts = verdict_string(&current.atpg);
    if verdicts != checkpoint.verdicts {
        return Err(cp_err(format!(
            "verdict dictionary mismatch after replaying {} remaps: \
             {} faults now vs {} recorded",
            checkpoint.remaps.len(),
            verdicts.len(),
            checkpoint.verdicts.len()
        )));
    }
    rsyn_observe::restore_counters(&checkpoint.counters);
    let constraints = DesignConstraints::from_original(&original, options.q_percent);
    drive(ctx, options, &constraints, current, cursor, checkpoint.remaps.clone())
}

/// The shared continuation of [`run`] and [`run_resumed`]: drive the
/// resynthesis loop from `start`/`cursor`, recording and checkpointing
/// accepted iterations, absorbing recoverable failures.
fn drive(
    ctx: &FlowContext,
    options: &FlowOptions,
    constraints: &DesignConstraints,
    start: DesignState,
    cursor: ResynthCursor,
    mut log: Vec<RemapRecord>,
) -> Result<FlowReport, FlowError> {
    let _span = rsyn_observe::span("flow.run");
    let replayed = log.len();
    let mut recovered: Vec<FlowError> = Vec::new();
    let mut best: Option<DesignState> = None;
    let mut checkpoints_written = 0usize;
    // Polled once up front (a job may be cancelled or past its deadline
    // before doing any work) and then at every iteration boundary, right
    // after the accepted iteration has been checkpointed — so a
    // `Preempted` stop always leaves a resumable checkpoint behind.
    let mut stopped: Option<StopCause> = options.control.poll();
    let entered = stopped.is_none();

    let outcome = if stopped.is_some() {
        Ok(ResynthOutcome { state: start.clone(), trace: Vec::new(), full_evaluations: 0 })
    } else {
        events::publish(FlowEvent::StageEnter { stage: "flow.run" });
        // The pre-iteration netlist: window gate ids in an `AcceptedRemap`
        // refer to it, so names must be resolved against it, not the
        // accepted state.
        let mut last_nl = start.nl.clone();
        let log = &mut log;
        let recovered = &mut recovered;
        let best = &mut best;
        let checkpoints_written = &mut checkpoints_written;
        let stopped = &mut stopped;
        catch_unwind(AssertUnwindSafe(|| {
            resynthesize_from(
                &start,
                ctx,
                constraints,
                &options.resynth,
                cursor,
                &mut |state, remap, next| {
                    log.push(remap_record(remap, &last_nl, &ctx.lib));
                    events::publish(FlowEvent::Iteration {
                        index: log.len() as u64,
                        phase: match remap.phase {
                            Phase::One => 1,
                            Phase::Two => 2,
                        },
                        undetectable: state.undetectable_count() as u64,
                        clusters: state.clusters.cluster_count() as u64,
                        s_max: state.s_max_size() as u64,
                        delay_ps_bits: state.delay_ps().to_bits(),
                        power_uw_bits: state.power_uw().to_bits(),
                    });
                    last_nl = state.nl.clone();
                    *best = Some(state.clone());
                    if let Some(dir) = &options.checkpoint_dir {
                        match write_checkpoint(dir, ctx, options, constraints, state, next, log) {
                            Ok(()) => {
                                *checkpoints_written += 1;
                                events::publish(FlowEvent::CheckpointWritten {
                                    iteration: log.len() as u64,
                                });
                            }
                            Err(e) => {
                                rsyn_observe::add("flow.checkpoint_errors", 1);
                                recovered.push(e);
                            }
                        }
                    }
                    if let Some(cause) = options.control.poll() {
                        *stopped = Some(cause);
                        return ControlFlow::Break(());
                    }
                    ControlFlow::Continue(())
                },
            )
        }))
    };

    let (state, trace, full_evaluations) = match outcome {
        Ok(out) => (out.state, out.trace, out.full_evaluations),
        Err(payload) => {
            rsyn_observe::add("flow.recovered.internal", 1);
            recovered.push(FlowError::Internal {
                stage: "resynth".to_string(),
                message: panic_message(payload.as_ref()),
            });
            (best.take().unwrap_or_else(|| start.clone()), Vec::new(), 0)
        }
    };

    if entered {
        events::publish(FlowEvent::StageExit { stage: "flow.run" });
    }
    let aborted = state.atpg.aborted_count();
    rsyn_observe::add_many(&[("flow.runs", 1), ("flow.aborted", aborted as u64)]);
    Ok(FlowReport {
        state,
        trace,
        accepted: log.len(),
        replayed,
        aborted,
        recovered,
        checkpoints_written,
        full_evaluations,
        stopped,
    })
}

/// Serialises and atomically writes the checkpoint of the just-accepted
/// iteration `log.len()`, plus the `-latest` convenience copy.
fn write_checkpoint(
    dir: &Path,
    ctx: &FlowContext,
    options: &FlowOptions,
    constraints: &DesignConstraints,
    state: &DesignState,
    next: &ResynthCursor,
    log: &[RemapRecord],
) -> Result<(), FlowError> {
    // Volatile span + zone only: a counted span here would desynchronise
    // the counters of a full run from a resumed run (the resumed run
    // writes fewer checkpoints) and break stable-manifest byte-identity.
    let _span = rsyn_observe::span_volatile("flow.checkpoint");
    let _zone = rsyn_observe::trace::zone("flow.checkpoint.write", log.len() as u64);
    if rsyn_resilience::inject::should_fail_checkpoint_write() {
        return Err(FlowError::Checkpoint {
            path: dir.display().to_string(),
            message: "injected checkpoint write failure".to_string(),
        });
    }
    std::fs::create_dir_all(dir).map_err(|e| FlowError::Checkpoint {
        path: dir.display().to_string(),
        message: format!("create dir failed: {e}"),
    })?;
    let cp = Checkpoint {
        name: options.run_name.clone(),
        seed: ctx.seed,
        circuit: options.circuit.clone(),
        q_bits: constraints.q_percent.to_bits(),
        cursor: encode_cursor(next, log.len() as u64),
        remaps: log.to_vec(),
        verdicts: verdict_string(&state.atpg),
        counters: rsyn_observe::counters(),
    };
    cp.write(&dir.join(format!("checkpoint-{}-{:03}.json", options.run_name, log.len())))?;
    cp.write(&dir.join(format!("checkpoint-{}-latest.json", options.run_name)))
}

/// Replays one accepted remap against `base`, reproducing the exact
/// netlist (including gate/net ids) the original run accepted.
fn replay_remap(
    ctx: &FlowContext,
    base: &DesignState,
    rec: &RemapRecord,
    idx: usize,
    label: &str,
) -> Result<DesignState, FlowError> {
    let cp_err = |message: String| FlowError::Checkpoint { path: label.to_string(), message };
    let mut nl = base.nl.clone();
    let window_gates: Vec<GateId> = rec
        .window
        .iter()
        .map(|name| {
            nl.find_gate(name)
                .ok_or_else(|| cp_err(format!("replay {idx}: window gate `{name}` not found")))
        })
        .collect::<Result<_, _>>()?;
    let allowed: Vec<CellId> = rec
        .allowed
        .iter()
        .map(|name| {
            ctx.lib
                .cell_id(name)
                .ok_or_else(|| cp_err(format!("replay {idx}: cell `{name}` not in library")))
        })
        .collect::<Result<_, _>>()?;
    let map_options = MapOptions {
        area_weight: f64::from_bits(rec.area_weight_bits),
        delay_weight: f64::from_bits(rec.delay_weight_bits),
    };
    let window = Window::extract(&nl, &window_gates);
    let new_gates = window
        .resynthesize_with(&mut nl, &ctx.mapper, &allowed, &map_options)
        .map_err(|e| cp_err(format!("replay {idx}: remap failed: {e}")))?;
    let fp = base.pd.placement.floorplan();
    // Mirror `evaluate_candidate`'s analysis exactly so the replayed state
    // carries the same verdicts the original evaluation produced.
    DesignState::analyze_incremental(
        nl,
        ctx,
        Some((fp, Some(&base.pd.placement))),
        base,
        &new_gates,
    )
    .map_err(|e| cp_err(format!("replay {idx}: analysis failed: {e}")))
}

/// Serialises an [`AcceptedRemap`] by name, resolving window gate ids
/// against the pre-iteration netlist they belong to.
fn remap_record(remap: &AcceptedRemap, before: &Netlist, lib: &Library) -> RemapRecord {
    RemapRecord {
        phase: match remap.phase {
            Phase::One => 1,
            Phase::Two => 2,
        },
        window: remap
            .window
            .iter()
            .map(|&g| before.gate(g).expect("window gate is live pre-iteration").name.clone())
            .collect(),
        allowed: remap.allowed.iter().map(|&c| lib.cell(c).name.clone()).collect(),
        area_weight_bits: remap.map_options.area_weight.to_bits(),
        delay_weight_bits: remap.map_options.delay_weight.to_bits(),
    }
}

fn encode_cursor(c: &ResynthCursor, iterations_done: u64) -> ResumeCursor {
    ResumeCursor {
        phase: match c.phase {
            Phase::One => 1,
            Phase::Two => 2,
        },
        iter_in_phase: c.iter_in_phase as u64,
        iterations_done,
        p2_bits: c.p2.map_or(0, f64::to_bits),
    }
}

fn decode_cursor(c: &ResumeCursor, label: &str) -> Result<ResynthCursor, FlowError> {
    let phase = match c.phase {
        1 => Phase::One,
        2 => Phase::Two,
        p => {
            return Err(FlowError::Checkpoint {
                path: label.to_string(),
                message: format!("cursor phase {p} is not 1 or 2"),
            })
        }
    };
    let p2 = match (phase, c.p2_bits) {
        (Phase::Two, bits) if bits != 0 => Some(f64::from_bits(bits)),
        _ => None,
    };
    Ok(ResynthCursor { phase, iter_in_phase: c.iter_in_phase as usize, p2 })
}

/// The fault-verdict dictionary: one char per fault in fault-list order.
fn verdict_string(atpg: &AtpgResult) -> String {
    atpg.statuses
        .iter()
        .map(|s| match s {
            FaultStatus::Undetected => 'N',
            FaultStatus::Detected => 'D',
            FaultStatus::Undetectable => 'U',
            FaultStatus::Aborted => 'A',
        })
        .collect()
}

fn place_error(e: PlaceError) -> FlowError {
    match e {
        PlaceError::AreaExceeded { needed_sites, free_sites } => {
            FlowError::Placement { needed_sites, free_sites }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_circuits::build_benchmark_with;
    use rsyn_netlist::Library;

    fn context() -> FlowContext {
        FlowContext::new(Library::osu018())
    }

    fn seed_netlist(ctx: &FlowContext, name: &str) -> Netlist {
        build_benchmark_with(name, &ctx.lib, &ctx.mapper).expect("benchmark builds")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rsyn-run-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn run_reports_accepted_iterations_and_aborted_faults() {
        let ctx = context();
        let nl = seed_netlist(&ctx, "sparc_tlu");
        let options = FlowOptions::new("sparc_tlu", "run-basic");
        let report = run(nl, &ctx, &options).expect("flow runs");
        assert!(report.accepted > 0, "sparc_tlu accepts at least one iteration");
        assert_eq!(report.accepted, report.trace.len());
        assert_eq!(report.replayed, 0);
        assert_eq!(report.aborted, report.state.atpg.aborted_count());
        assert!(report.recovered.is_empty(), "{:?}", report.recovered);
        assert_eq!(report.checkpoints_written, 0, "checkpointing disabled");
    }

    #[test]
    fn invalid_netlist_is_a_fatal_typed_error() {
        let ctx = context();
        let lib = &ctx.lib;
        let mut nl = Netlist::new("broken", lib.clone());
        let a = nl.add_input("a");
        let y = nl.add_named_net("y");
        let floating = nl.add_net();
        let nand = lib.cell_id("NAND2X1").expect("cell");
        nl.add_gate("u0", nand, &[a, floating], &[y]).expect("gate");
        nl.mark_output(y);
        let err = run(nl, &ctx, &FlowOptions::new("broken", "run-broken")).unwrap_err();
        assert!(matches!(err, FlowError::InvalidNetlist { .. }), "{err}");
        assert!(!err.is_recoverable());
    }

    #[test]
    fn resume_from_first_checkpoint_matches_uninterrupted_run() {
        let ctx = context();
        let dir = temp_dir("resume");
        let mut options = FlowOptions::new("sparc_tlu", "run-resume");
        options.checkpoint_dir = Some(dir.clone());

        let full = run(seed_netlist(&ctx, "sparc_tlu"), &ctx, &options).expect("full run");
        assert!(full.checkpoints_written >= full.accepted, "one checkpoint per acceptance");
        assert!(full.accepted >= 1, "need at least one checkpoint to resume from");

        // Resume from the FIRST checkpoint: everything after iteration 1 is
        // re-derived and must land on the same design.
        let first = Checkpoint::read(&dir.join("checkpoint-run-resume-001.json")).expect("read");
        assert_eq!(first.remaps.len(), 1);
        let mut resumed_options = options.clone();
        resumed_options.checkpoint_dir = None;
        let resumed = run_resumed(seed_netlist(&ctx, "sparc_tlu"), &ctx, &resumed_options, &first)
            .expect("resumed run");

        assert_eq!(resumed.replayed, 1);
        assert_eq!(resumed.accepted, full.accepted, "same acceptance sequence");
        assert_eq!(
            resumed.state.undetectable_count(),
            full.state.undetectable_count(),
            "same final U"
        );
        assert_eq!(verdict_string(&resumed.state.atpg), verdict_string(&full.state.atpg));
        assert_eq!(resumed.state.delay_ps(), full.state.delay_ps());
        assert_eq!(resumed.state.power_uw(), full.state.power_uw());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_context() {
        let ctx = context();
        let dir = temp_dir("mismatch");
        let mut options = FlowOptions::new("sparc_tlu", "run-mismatch");
        options.checkpoint_dir = Some(dir.clone());
        let report = run(seed_netlist(&ctx, "sparc_tlu"), &ctx, &options).expect("run");
        assert!(report.accepted >= 1);
        let cp =
            Checkpoint::read(&dir.join("checkpoint-run-mismatch-latest.json")).expect("latest");

        let mut wrong_q = options.clone();
        wrong_q.q_percent = 3.0;
        let err = run_resumed(seed_netlist(&ctx, "sparc_tlu"), &ctx, &wrong_q, &cp).unwrap_err();
        assert!(matches!(err, FlowError::Checkpoint { .. }), "{err}");

        let mut wrong_seed_ctx = context();
        wrong_seed_ctx.seed = 1;
        let err =
            run_resumed(seed_netlist(&wrong_seed_ctx, "sparc_tlu"), &wrong_seed_ctx, &options, &cp)
                .unwrap_err();
        assert!(matches!(err, FlowError::Checkpoint { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
