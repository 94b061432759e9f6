//! Two rows of the failure matrix that no storm reaches: a stale or
//! corrupt checkpoint at pickup falls back to a fresh run, and a job
//! whose every attempt fails recoverably ends `Failed` once its retry
//! budget is spent.
//!
//! Both tests arm an injection plan (the first an empty one) for their
//! whole body: arming holds the process-wide injection session, so the
//! second test's rejections never reach the first test's flows.

use std::collections::BTreeMap;
use std::sync::Arc;

use rsyn_circuits::build_benchmark_with;
use rsyn_core::{run, FlowContext, FlowOptions};
use rsyn_netlist::{Library, Netlist};
use rsyn_resilience::inject::{self, InjectionPlan};
use rsyn_resilience::{Checkpoint, FlowError, ResumeCursor};
use rsyn_server::{job_key, report_digest, JobOutcome, JobSpec, Server, ServerConfig};

/// `MAX_ATTEMPTS` in `server.rs`: executions one job may spend on
/// recoverable failures.
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
    let _session = inject::arm(InjectionPlan::new());
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
        cursor: ResumeCursor { phase: 1, ..ResumeCursor::default() },
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
fn an_exhausted_retry_budget_ends_failed() {
    let (ctx, nl) = sparc_ffu();
    // Each execution's first `PDesign()` call is its seed analysis, so
    // these ordinals reject every attempt the budget allows.
    let plan = InjectionPlan::new()
        .reject_pdesign(0)
        .reject_pdesign(1)
        .reject_pdesign(2)
        .reject_pdesign(3);
    let armed = inject::arm(plan);
    let work = scratch_dir("retry-budget");
    let mut cfg = ServerConfig::new(&work);
    cfg.workers = 1;
    let server = Server::start(cfg, Arc::clone(&ctx.lib));

    let handle = server.submit(JobSpec::new(nl, "sparc_ffu")).handle().expect("queued").clone();
    match handle.wait() {
        JobOutcome::Failed(FlowError::Placement { .. }) => {}
        other => panic!("the last rejection fails the job, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.retries, MAX_ATTEMPTS - 1, "{stats:?}");
    assert_eq!(stats.failed, 1, "{stats:?}");
    assert_eq!(stats.completed, 0, "{stats:?}");
    assert_eq!(
        armed.fired_counts().get("inject.fired.pdesign_reject").copied(),
        Some(MAX_ATTEMPTS),
        "one rejection per execution"
    );
    drop(armed);
    let _ = std::fs::remove_dir_all(&work);
}
