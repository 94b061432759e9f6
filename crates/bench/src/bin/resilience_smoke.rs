//! Failure-injection and checkpoint/resume smoke gate for the resilient
//! flow (`rsyn_core::run`).
//!
//! Modes:
//!
//! * `resilience_smoke [--threads N] [circuit]` — clean run with
//!   per-iteration checkpoints (when `--checkpoint-dir` is set).
//! * `resilience_smoke --inject …` — same run under a deterministic
//!   injection plan: one forced `PDesign()` rejection at the first
//!   candidate evaluation, a stretch of inflated-delay evaluations that
//!   drives the Section III-C backtracking path, and forced PODEM aborts
//!   at faults a probe analysis saw reach PODEM (each then goes straight
//!   to the SAT prover). The run must still
//!   return `Ok` with a best-so-far design, and the manifest must be
//!   byte-identical across `--threads 1` and `--threads 4`.
//! * `resilience_smoke --resume <checkpoint.json> …` — resumes a clean
//!   checkpointed run; the continuation must re-write byte-identical
//!   checkpoints and land on the byte-identical stable manifest.
//!
//! The manifest is always named `resilience` so runs in different
//! `RSYN_MANIFEST_DIR`s can be compared with `check_manifest
//! --determinism`. Exit status: 0 on pass, 1 on a failed smoke assertion.

use std::path::PathBuf;
use std::process::ExitCode;

use rsyn_atpg::FaultStatus;
use rsyn_bench::{context_with_threads, threads_flag, write_manifest};
use rsyn_circuits::build_benchmark_with;
use rsyn_core::flow::{DesignState, FlowContext};
use rsyn_core::run::{run, run_resumed, FlowOptions, FlowReport};
use rsyn_netlist::Netlist;
use rsyn_observe::manifest::Run;
use rsyn_resilience::{inject, Checkpoint};

/// The injection plan of the smoke gate. Ordinal 0 is the seed analysis;
/// ordinal 2 is a candidate whose inflated delay makes it
/// accepting-but-constraint-violating, and inflating ordinal 3 defeats the
/// timing-driven retry, which forces the Section III-C backtracking
/// procedure (and its `resynth.backtrack_shrinks` counter) to run.
/// Ordinal 5, a later evaluation, is rejected outright; the others stay
/// clean so the flow can still converge to an accepted design. The
/// ordinals follow the flow's trajectory on `sparc_tlu`, which depends on
/// its verdicts: a change that moves `U` may need them re-chosen. The first
/// ATPG run (the seed analysis) skips PODEM for `podem_faults`, so the SAT
/// prover decides them.
fn smoke_plan(podem_faults: &[u64]) -> inject::InjectionPlan {
    let mut plan = inject::InjectionPlan::new()
        .reject_pdesign(5)
        .inflation_percent(300)
        .inflate_pdesign(2)
        .inflate_pdesign(3);
    for &fault in podem_faults {
        plan = plan.abort_podem(0, fault);
    }
    plan
}

/// The first eight faults the seed analysis proves undetectable: no random
/// pattern detects them, so each is queried before PODEM runs. The probe
/// analysis runs on a thread of its own, so it records into that thread's
/// recorder, not into the smoke's manifest.
fn podem_sites(nl: &Netlist, ctx: &FlowContext) -> Vec<u64> {
    let probe = || {
        let statuses = DesignState::analyze(nl.clone(), ctx, None).expect("seed").atpg.statuses;
        let proved = (0..statuses.len()).filter(|&i| statuses[i] == FaultStatus::Undetectable);
        proved.take(8).map(|i| i as u64).collect()
    };
    std::thread::scope(|s| s.spawn(probe).join().expect("probe analysis"))
}

fn seed_netlist(ctx: &FlowContext, circuit: &str) -> Netlist {
    build_benchmark_with(circuit, &ctx.lib, &ctx.mapper)
        .unwrap_or_else(|| panic!("unknown benchmark {circuit}"))
}

fn record(manifest: &mut Run, report: &FlowReport) {
    // Only final-state facts: a resumed run must produce the identical
    // result set (so no `replayed` / `checkpoints_written` here).
    manifest.result("accepted", report.accepted.to_string());
    manifest.result("aborted", report.aborted.to_string());
    manifest.result("recovered", report.recovered.len().to_string());
    manifest.result("undetectable", report.state.undetectable_count().to_string());
    manifest.result_f64("coverage", report.state.coverage());
    manifest.result_f64("delay_ps", report.state.delay_ps());
    manifest.result_f64("power_uw", report.state.power_uw());
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_flag(&mut args);
    let mut injected = false;
    let mut resume_from: Option<PathBuf> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    if let Some(i) = args.iter().position(|a| a == "--inject") {
        injected = true;
        args.remove(i);
    }
    if let Some(i) = args.iter().position(|a| a == "--resume") {
        if i + 1 >= args.len() {
            eprintln!("--resume needs a checkpoint path");
            return ExitCode::from(2);
        }
        resume_from = Some(PathBuf::from(&args[i + 1]));
        args.drain(i..=i + 1);
    }
    if let Some(i) = args.iter().position(|a| a == "--checkpoint-dir") {
        if i + 1 >= args.len() {
            eprintln!("--checkpoint-dir needs a path");
            return ExitCode::from(2);
        }
        checkpoint_dir = Some(PathBuf::from(&args[i + 1]));
        args.drain(i..=i + 1);
    }
    let circuit = args.first().map_or("sparc_tlu", String::as_str).to_string();
    if injected && resume_from.is_some() {
        eprintln!(
            "--inject and --resume are mutually exclusive (a resumed run must \
                   replay the uninjected continuation)"
        );
        return ExitCode::from(2);
    }

    let ctx = context_with_threads(threads);
    let mut options = FlowOptions::new(&circuit, "resilience");
    options.checkpoint_dir = checkpoint_dir;
    let mut manifest = Run::start("resilience", ctx.seed);
    manifest.record_threads(threads, ctx.atpg.effective_threads());

    let report = if let Some(path) = &resume_from {
        let checkpoint = match Checkpoint::read(path) {
            Ok(cp) => cp,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        eprintln!(
            "resuming {circuit} from {} ({} replayed remaps)",
            path.display(),
            checkpoint.remaps.len()
        );
        run_resumed(seed_netlist(&ctx, &circuit), &ctx, &options, &checkpoint)
    } else {
        let seed = seed_netlist(&ctx, &circuit);
        let armed = injected.then(|| inject::arm(smoke_plan(&podem_sites(&seed, &ctx))));
        if injected {
            eprintln!("running {circuit} under the smoke injection plan");
        }
        let report = run(seed, &ctx, &options);
        drop(armed);
        report
    };

    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("smoke FAILED: flow returned a fatal error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "flow ok: accepted {} ({} replayed), U {}, coverage {:.4}, aborted {}, \
         recovered {} failures, {} checkpoints",
        report.accepted,
        report.replayed,
        report.state.undetectable_count(),
        report.state.coverage(),
        report.aborted,
        report.recovered.len(),
        report.checkpoints_written,
    );

    let counters = rsyn_observe::counters();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let mut failures = Vec::new();
    if report.accepted == 0 {
        failures.push("no iteration was accepted".to_string());
    }
    if injected {
        for (what, name) in [
            ("the PDesign rejection", "inject.fired.pdesign_reject"),
            ("the delay inflation", "inject.fired.pdesign_inflate"),
            ("the PODEM aborts", "inject.fired.podem_abort"),
        ] {
            if counter(name) == 0 {
                failures.push(format!("{what} never fired ({name} == 0)"));
            }
        }
        if counter("resynth.backtrack_shrinks") == 0 {
            failures.push(
                "inflated candidates did not drive backtracking \
                           (resynth.backtrack_shrinks == 0)"
                    .to_string(),
            );
        }
    }
    if resume_from.is_some() && report.replayed == 0 {
        failures.push("resume replayed nothing".to_string());
    }

    record(&mut manifest, &report);
    write_manifest(manifest);

    if failures.is_empty() {
        println!("resilience smoke ok ({circuit}, threads {threads})");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("smoke FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
