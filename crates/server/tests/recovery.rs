//! Crash durability: journal-disabled identity, restart recovery of
//! journaled open jobs, poison-job quarantine, and the stuck-worker
//! watchdog.

use std::path::Path;
use std::time::Duration;

use rsyn_circuits::build_benchmark_with;
use rsyn_core::{run, FlowContext, FlowOptions};
use rsyn_netlist::Library;
use rsyn_server::inject::{self, InjectionPlan};
use rsyn_server::{
    job_key, report_digest, AcceptedSpec, JobJournal, JobOutcome, JobSpec, JournalEvent, Server,
    ServerConfig, SubmitVerdict,
};

/// The `Accepted` record the server would journal for `spec` — used to
/// hand-craft journals that look exactly like an interrupted run's.
fn accepted(spec: &JobSpec, key: u128) -> JournalEvent {
    JournalEvent::Accepted {
        key,
        spec: AcceptedSpec {
            circuit: spec.circuit.clone(),
            q_percent: spec.q_percent,
            seed: spec.seed,
            priority: 1, // Normal
            deadline_ms: spec.deadline.map(|d| d.as_millis() as u64),
        },
    }
}

fn temp_work(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rsyn-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// With no journal configured the server must not create any journal
/// files, and the result must stay byte-identical to a direct run.
#[test]
fn journal_disabled_is_identical_to_the_plain_flow() {
    // Injection plans are process-global: hold an empty one so the
    // armed tests in this file cannot fire inside this flow.
    let _session = inject::arm(InjectionPlan::new());
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");

    let work = temp_work("disabled");
    let mut cfg = ServerConfig::new(&work);
    cfg.workers = 1;
    cfg.journal_dir = None;
    let server = Server::start(cfg, ctx.lib.clone());
    let handle = match server.submit(JobSpec::new(nl.clone(), "sparc_ffu")) {
        SubmitVerdict::Queued(h) => h,
        _ => panic!("fresh job queues"),
    };
    let report = match handle.wait() {
        JobOutcome::Completed(report) => report,
        other => panic!("job completes, got {other:?}"),
    };
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.recovered_jobs, 0, "{stats:?}");

    // No journal artefacts anywhere under the work dir.
    fn assert_no_journal(dir: &Path) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                assert_no_journal(&path);
            } else {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                assert!(!name.ends_with(".rsj"), "unexpected journal file {path:?}");
            }
        }
    }
    assert_no_journal(&work);

    let direct =
        run(nl, &ctx, &FlowOptions::new("sparc_ffu", "direct")).expect("direct run succeeds");
    assert_eq!(report_digest(&direct), report_digest(&report), "journal-off == plain flow");
    let _ = std::fs::remove_dir_all(&work);
}

/// A journal holding an accepted-but-unfinished job (the on-disk residue
/// of a crash between acceptance and completion) is re-admitted by
/// `Server::recover` and runs to the same digest as a direct run, while
/// an already-terminal job stays terminal; a second recovery then finds
/// the re-admitted job terminal and re-admits nothing.
#[test]
fn recover_readmits_open_jobs_to_the_direct_result() {
    // Injection plans are process-global: hold an empty one so the
    // armed tests in this file cannot fire inside this flow.
    let _session = inject::arm(InjectionPlan::new());
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");
    let spec = JobSpec::new(nl.clone(), "sparc_ffu").with_q(3.0);
    let key = job_key(&spec, &ctx.lib).expect("canonical key");

    let work = temp_work("readmit");
    let journal_dir = work.join("journal");
    {
        let mut journal = JobJournal::open(&journal_dir).expect("journal opens");
        journal.append(&accepted(&spec, key));
        journal.append(&JournalEvent::Started { key, attempt: 0 });
        // A terminal record for a *different* key: already-finished jobs
        // must not be re-admitted.
        journal.append(&JournalEvent::Accepted { key: key ^ 1, spec: done_spec() });
        journal.append(&JournalEvent::Failed { key: key ^ 1 });
    }

    let mut cfg = ServerConfig::new(&work);
    cfg.workers = 1;
    cfg.journal_dir = Some(journal_dir);
    let lib = ctx.lib.clone();
    let source = move |circuit: &str| {
        let ctx = FlowContext::new(lib.clone());
        build_benchmark_with(circuit, &ctx.lib, &ctx.mapper)
    };
    let (server, recovery) = Server::recover(cfg.clone(), ctx.lib.clone(), &source);
    assert_eq!(recovery.readmitted.len(), 1, "one open job re-admitted");
    assert_eq!(recovery.readmitted[0].key(), key);
    assert_eq!(recovery.terminal, 1, "the finished job stays finished");
    assert_eq!(recovery.lost_spec, 0);
    assert_eq!(recovery.damaged_segments, 0);

    let report = match recovery.readmitted[0].wait() {
        JobOutcome::Completed(report) => report,
        other => panic!("recovered job completes, got {other:?}"),
    };
    let stats = server.shutdown();
    assert_eq!(stats.recovered_jobs, 1, "{stats:?}");
    assert_eq!(stats.recovered_terminal, 1, "{stats:?}");
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.submitted, 0, "recovery is not a submission: {stats:?}");

    let mut options = FlowOptions::new("sparc_ffu", "direct");
    options.q_percent = 3.0;
    let direct = run(nl, &ctx, &options).expect("direct run succeeds");
    assert_eq!(
        report_digest(&direct),
        report_digest(&report),
        "recovered execution is result-equivalent to rsyn_core::run"
    );

    // The completion was journaled after compaction: a second recovery
    // sees the job as terminal and does not run it again.
    let (server2, recovery2) = Server::recover(cfg, ctx.lib.clone(), &source);
    assert_eq!(recovery2.terminal, 1, "the recovered job stays terminal");
    assert!(recovery2.readmitted.is_empty());
    assert_eq!(recovery2.damaged_segments, 0);
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&work);
}

/// Spec body for the already-finished journal entry above; the values
/// are irrelevant (the job is terminal) but must decode.
fn done_spec() -> AcceptedSpec {
    AcceptedSpec {
        circuit: "sparc_ffu".to_string(),
        q_percent: 9.0,
        seed: None,
        priority: 0,
        deadline_ms: None,
    }
}

/// Regression for the unbounded panic->requeue loop: a job whose worker
/// panics on every attempt is quarantined at the poison threshold, before
/// the attempt budget (four attempts) runs out.
#[test]
fn panicking_jobs_quarantine_at_the_poison_threshold() {
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");
    let spec = JobSpec::new(nl, "sparc_ffu");
    let key = job_key(&spec, &ctx.lib).expect("canonical key");

    let armed = inject::arm(InjectionPlan::new().poison_job(key));
    let work = temp_work("poison");
    let mut cfg = ServerConfig::new(&work);
    cfg.workers = 1;
    cfg.journal_dir = None;
    cfg.poison_threshold = 3;
    let server = Server::start(cfg, ctx.lib.clone());

    let handle = match server.submit(spec) {
        SubmitVerdict::Queued(h) => h,
        _ => panic!("job queues"),
    };
    assert!(
        matches!(handle.wait(), JobOutcome::Poisoned { crashes: 3 }),
        "the third crash quarantines the job"
    );
    let stats = server.shutdown();
    assert_eq!(stats.poisoned, 1, "{stats:?}");
    assert_eq!(stats.panics, 3, "{stats:?}");
    assert_eq!(stats.retries, 2, "two requeues before the cap: {stats:?}");
    drop(armed);
    let _ = std::fs::remove_dir_all(&work);
}

/// The watchdog declares a heartbeat-less past-deadline execution lost;
/// the burned attempt requeues, and pickup then sees the expired
/// deadline, so the job terminates instead of wedging a worker forever.
#[test]
fn watchdog_reclaims_a_stalled_worker() {
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");
    let spec = JobSpec::new(nl, "sparc_ffu").with_deadline(Duration::from_millis(150));
    let key = job_key(&spec, &ctx.lib).expect("canonical key");

    let armed = inject::arm(InjectionPlan::new().stall_job(key));
    let work = temp_work("stall");
    let mut cfg = ServerConfig::new(&work);
    cfg.workers = 1;
    cfg.journal_dir = None;
    cfg.poison_threshold = 10; // keep quarantine out of this scenario
    cfg.watchdog_interval = Duration::from_millis(10);
    let server = Server::start(cfg, ctx.lib.clone());

    let handle = match server.submit(spec) {
        SubmitVerdict::Queued(h) => h,
        _ => panic!("job queues"),
    };
    assert!(
        matches!(handle.wait(), JobOutcome::DeadlineExceeded),
        "the reclaimed job terminates on its expired deadline"
    );
    let stats = server.shutdown();
    assert_eq!(stats.lost, 1, "{stats:?}");
    assert_eq!(stats.deadline, 1, "{stats:?}");
    assert_eq!(stats.poisoned, 0, "{stats:?}");
    drop(armed);
    let _ = std::fs::remove_dir_all(&work);
}
