//! Smoke gate for the resilient flow driver (`rsyn_core::run`) and its
//! checkpoint/resume.
//!
//! Modes:
//!
//! * `resilience_smoke [--threads N] [circuit]` — a run through the
//!   driver, with per-iteration checkpoints when `--checkpoint-dir` is
//!   set. It must return `Ok` and accept an iteration, and its manifest
//!   must be byte-identical across `--threads 1` and `--threads 4`.
//! * `resilience_smoke --resume <checkpoint.json> …` — resumes a
//!   checkpointed run; the continuation must re-write byte-identical
//!   checkpoints and land on the byte-identical stable manifest.
//!
//! The manifest is always named `resilience` so runs in different
//! `RSYN_MANIFEST_DIR`s can be compared with `check_manifest
//! --determinism`. Exit status: 0 on pass, 1 on a failed smoke assertion.

use std::path::PathBuf;
use std::process::ExitCode;

use rsyn_bench::{context_with_threads, threads_flag, write_manifest};
use rsyn_circuits::build_benchmark_with;
use rsyn_core::flow::FlowContext;
use rsyn_core::run::{run, run_resumed, Checkpoint, FlowOptions, FlowReport};
use rsyn_netlist::Netlist;
use rsyn_observe::manifest::Run;

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
    let mut resume_from: Option<PathBuf> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
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
        run(seed_netlist(&ctx, &circuit), &ctx, &options)
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

    let mut failures = Vec::new();
    if report.accepted == 0 {
        failures.push("no iteration was accepted".to_string());
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
