//! Four rows of the failure matrix that no storm reaches: a stale or
//! corrupt checkpoint at pickup falls back to a fresh run, a job whose
//! checkpoints cannot be written still completes, a job the flow driver
//! rejects ends `Failed` without a retry, and a job whose every attempt
//! crashes ends `Failed` once its retry budget is spent.
//!
//! Only the last test arms an injection plan, a poison fate keyed by a job
//! no other test submits.

use std::collections::BTreeMap;
use std::sync::Arc;

use rsyn_circuits::build_benchmark_with;
use rsyn_core::{run, Checkpoint, FlowContext, FlowError, FlowOptions, ResynthCursor};
use rsyn_netlist::{Library, Netlist};
use rsyn_server::inject::{self, InjectionPlan};
use rsyn_server::{job_key, report_digest, JobOutcome, JobSpec, Server, ServerConfig};

/// `MAX_ATTEMPTS` in `server.rs`: executions one job may spend on
/// crashes.
const MAX_ATTEMPTS: u64 = 4;

fn sparc_ffu() -> (FlowContext, Netlist) {
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");
    (ctx, nl)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rsyn-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Where the server looks for a job's latest checkpoint.
fn latest_checkpoint(work: &std::path::Path, key: u128) -> std::path::PathBuf {
    let dir = work.join("jobs").join(format!("{key:032x}"));
    std::fs::create_dir_all(&dir).expect("job dir");
    dir.join(format!("checkpoint-job-{key:032x}-latest.json"))
}

#[test]
fn stale_or_corrupt_checkpoints_fall_back_to_a_fresh_run() {
    let (ctx, nl) = sparc_ffu();
    let work = scratch_dir("stale-checkpoint");

    // Job 1 finds garbage where its checkpoint should be.
    let garbage = JobSpec::new(nl.clone(), "sparc_ffu");
    let garbage_key = job_key(&garbage, &ctx.lib).expect("canonical key");
    let path = latest_checkpoint(&work, garbage_key);
    std::fs::write(&path, b"{ not a checkpoint").expect("plant garbage");
    assert!(Checkpoint::read(&path).is_err());

    // Job 2 finds a well-formed checkpoint of its own run name, seed and
    // circuit, written under another q.
    let stale = JobSpec::new(nl.clone(), "sparc_ffu").with_q(4.0);
    let stale_key = job_key(&stale, &ctx.lib).expect("canonical key");
    let path = latest_checkpoint(&work, stale_key);
    let other_q = Checkpoint {
        name: format!("job-{stale_key:032x}"),
        seed: ctx.seed,
        circuit: "sparc_ffu".to_string(),
        q_bits: 6.0f64.to_bits(),
        cursor: ResynthCursor::start(),
        remaps: Vec::new(),
        verdicts: String::new(),
        counters: BTreeMap::new(),
    };
    other_q.write(&path).expect("plant checkpoint");
    assert_eq!(Checkpoint::read(&path).expect("a valid checkpoint"), other_q);

    let server = Server::start(ServerConfig::new(&work), Arc::clone(&ctx.lib));
    let handles: Vec<_> = [garbage, stale]
        .into_iter()
        .map(|spec| (spec.q_percent, server.submit(spec).handle().expect("queued").clone()))
        .collect();
    for (q, handle) in handles {
        let report = match handle.wait() {
            JobOutcome::Completed(report) => report,
            other => panic!("q = {q}: the job runs fresh and completes, got {other:?}"),
        };
        let mut options = FlowOptions::new("sparc_ffu", "direct");
        options.q_percent = q;
        let direct = run(nl.clone(), &ctx, &options).expect("direct run succeeds");
        assert_eq!(report_digest(&report), report_digest(&direct), "q = {q}");
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, 2, "{stats:?}");
    assert_eq!(stats.resumes, 0, "neither checkpoint may be resumed: {stats:?}");
    assert_eq!(stats.retries, 0, "a bad checkpoint costs no attempt: {stats:?}");
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn unwritable_checkpoints_do_not_fail_the_job() {
    let (ctx, nl) = sparc_ffu();
    let work = scratch_dir("unwritable-checkpoint");
    let spec = JobSpec::new(nl.clone(), "sparc_ffu").with_q(3.0);
    let key = job_key(&spec, &ctx.lib).expect("canonical key");
    // The job's checkpoint directory is a regular file: every write fails.
    let jobs = work.join("jobs");
    std::fs::create_dir_all(&jobs).expect("jobs dir");
    std::fs::write(jobs.join(format!("{key:032x}")), b"not a directory").expect("plant file");

    let server = Server::start(ServerConfig::new(&work), Arc::clone(&ctx.lib));
    let handle = server.submit(spec).handle().expect("queued").clone();
    let report = match handle.wait() {
        JobOutcome::Completed(report) => report,
        other => panic!("checkpoint errors are recoverable, got {other:?}"),
    };
    assert!(report.accepted >= 1, "the job must reach a checkpoint boundary");
    assert_eq!(report.recovered.len(), report.accepted, "{:?}", report.recovered);
    assert!(
        report.recovered.iter().all(|e| matches!(e, FlowError::Checkpoint { .. })),
        "{:?}",
        report.recovered
    );
    let mut options = FlowOptions::new("sparc_ffu", "direct");
    options.q_percent = 3.0;
    let direct = run(nl, &ctx, &options).expect("direct run succeeds");
    assert_eq!(report_digest(&report), report_digest(&direct));

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.retries, 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_driver_error_ends_the_job_without_a_retry() {
    let ctx = FlowContext::new(Library::osu018());
    // A gate input on an undriven net: the netlist fails validation.
    let mut nl = Netlist::new("broken", Arc::clone(&ctx.lib));
    let a = nl.add_input("a");
    let y = nl.add_named_net("y");
    let floating = nl.add_net();
    let nand = ctx.lib.cell_id("NAND2X1").expect("cell");
    nl.add_gate("u0", nand, &[a, floating], &[y]).expect("gate");
    nl.mark_output(y);

    let work = scratch_dir("driver-error");
    let server = Server::start(ServerConfig::new(&work), Arc::clone(&ctx.lib));
    let handle = server.submit(JobSpec::new(nl, "broken")).handle().expect("queued").clone();
    match handle.wait() {
        JobOutcome::Failed(FlowError::InvalidNetlist { .. }) => {}
        other => panic!("an invalid netlist fails the job, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.failed, 1, "{stats:?}");
    assert_eq!(stats.retries, 0, "a retry would reproduce the error: {stats:?}");
    assert_eq!(stats.panics, 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn an_exhausted_retry_budget_ends_failed() {
    let (ctx, nl) = sparc_ffu();
    let spec = JobSpec::new(nl, "sparc_ffu").with_q(7.0);
    let key = job_key(&spec, &ctx.lib).expect("canonical key");
    // Every execution panics, and the quarantine waits past the retry
    // budget, so the budget ends the job.
    let armed = inject::arm(InjectionPlan::new().poison_job(key));
    let work = scratch_dir("retry-budget");
    let mut cfg = ServerConfig::new(&work);
    cfg.workers = 1;
    cfg.poison_threshold = MAX_ATTEMPTS as u32 + 1;
    let server = Server::start(cfg, Arc::clone(&ctx.lib));

    let handle = server.submit(spec).handle().expect("queued").clone();
    match handle.wait() {
        JobOutcome::Failed(FlowError::Internal { .. }) => {}
        other => panic!("the last crash fails the job, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.panics, MAX_ATTEMPTS, "{stats:?}");
    assert_eq!(stats.retries, MAX_ATTEMPTS - 1, "{stats:?}");
    assert_eq!(stats.failed, 1, "{stats:?}");
    assert_eq!(stats.completed, 0, "{stats:?}");
    assert_eq!(stats.poisoned, 0, "{stats:?}");
    assert_eq!(
        armed.fired_counts().get("inject.fired.poison_job").copied(),
        Some(MAX_ATTEMPTS),
        "one panic per execution"
    );
    drop(armed);
    let _ = std::fs::remove_dir_all(&work);
}
