//! Injection-site completeness: one plan arming every fate the
//! deterministic failure-injection registry knows, driven through the
//! server, with each `inject.fired.*` site asserted to fire exactly once.
//!
//! This is the guard against silently dead recovery paths: a refactor
//! that stops calling one of the `should_*` hooks (or stops reaching it
//! on the ordinals real flows produce) turns a containment mechanism
//! into dead code without failing any behavioural test — except this
//! one.

use std::time::Duration;

use rsyn_atpg::fault::FaultStatus;
use rsyn_circuits::build_benchmark_with;
use rsyn_core::{DesignState, FlowContext};
use rsyn_netlist::Library;
use rsyn_resilience::inject::{self, InjectionPlan, FATE_COUNTERS};
use rsyn_resilience::FlowError;
use rsyn_server::{job_key, JobOutcome, JobSpec, Server, ServerConfig, SubmitVerdict};

/// Fates exercised by the flow-path scenario below; the remainder (the
/// durability fates) are covered by `durability_fates_fire_exactly_once`.
const FLOW_FATES: [&str; 7] = [
    "inject.fired.pdesign_reject",
    "inject.fired.pdesign_inflate",
    "inject.fired.podem_abort",
    "inject.fired.shard",
    "inject.fired.worker_crash",
    "inject.fired.checkpoint_write",
    "inject.fired.queue_full",
];

#[test]
fn every_injection_fate_fires_exactly_once() {
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");

    // Disarmed probe: find a fault that certainly reaches PODEM in the
    // seed analysis. A fault whose final status is Undetectable was
    // *proved* so by PODEM or SAT, after the random phase, which means the
    // deterministic re-run inside the server hits `should_abort_podem` for
    // exactly that (run, fault).
    // The empty session keeps the other test's armed plan out of it.
    let probe = {
        let _session = inject::arm(InjectionPlan::new());
        DesignState::analyze(nl.clone(), &ctx, None).expect("seed analysis")
    };
    let podem_fault = probe
        .atpg
        .statuses
        .iter()
        .position(|s| *s == FaultStatus::Undetectable)
        .expect("sparc_ffu has a PODEM-proven undetectable fault") as u64;

    // One site per fate. Ordinals after arming: the first pickup crashes
    // the worker (no flow ordinals consumed), the retry then runs the
    // job: PDesign ordinal 0 is the seed analysis, 1 the first candidate
    // (rejected), 2 the second (delay-inflated); ATPG run ordinal 0 is
    // the seed analysis (PODEM abort + shard failure); checkpoint-write
    // ordinal 0 is the first accepted iteration; submit ordinal 0 is the
    // first submission (shed, client retries).
    let plan = InjectionPlan::new()
        .reject_pdesign(1)
        .inflate_pdesign(2)
        .abort_podem(0, podem_fault)
        .fail_shard(0, 0)
        .crash_worker(0)
        .fail_checkpoint_write(0)
        .reject_submit(0);
    let armed = inject::arm(plan);

    let work = std::env::temp_dir().join(format!("rsyn-server-sites-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let mut cfg = ServerConfig::new(&work);
    cfg.workers = 1;
    let server = Server::start(cfg, ctx.lib.clone());

    let shed = server.submit(JobSpec::new(nl.clone(), "sparc_ffu"));
    assert!(shed.is_shed(), "the armed queue-full fate sheds the first submission");
    let handle = match server.submit(JobSpec::new(nl, "sparc_ffu")) {
        SubmitVerdict::Queued(h) => h,
        SubmitVerdict::Coalesced(_) => panic!("nothing to coalesce with"),
        SubmitVerdict::Shed => panic!("only submit ordinal 0 is armed"),
    };

    let outcome = handle.wait();
    let report = outcome.report().unwrap_or_else(|| panic!("job completes, got {outcome:?}"));
    assert!(report.accepted >= 1, "the injected run still accepts iterations");
    assert!(
        report.recovered.iter().any(|e| matches!(e, FlowError::Checkpoint { .. })),
        "the injected checkpoint-write failure is absorbed, not fatal: {:?}",
        report.recovered
    );

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 2, "{stats:?}");
    assert_eq!(stats.shed, 1, "{stats:?}");
    assert_eq!(stats.panics, 1, "the worker crash was contained: {stats:?}");
    assert_eq!(stats.retries, 1, "the crashed attempt was retried: {stats:?}");
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");

    // Every flow-path fate fired, each exactly once — read through the
    // armed plan's own tally, which is immune to counter pauses.
    let fired = armed.fired_counts();
    for name in FLOW_FATES {
        assert_eq!(
            fired.get(name).copied().unwrap_or(0),
            1,
            "site {name} must fire exactly once, fired map: {fired:?}"
        );
    }
    drop(armed);
    let _ = std::fs::remove_dir_all(&work);
}

/// The durability fates: torn/truncated journal appends, a poison job,
/// and a stalled worker. Together with `FLOW_FATES` this covers every
/// entry of [`FATE_COUNTERS`], which the final assertion enforces so a
/// new fate cannot land without a scenario that reaches it.
#[test]
fn durability_fates_fire_exactly_once() {
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");

    // Two jobs with distinct keys: the poison job panics its worker at
    // pickup, the stall job freezes until the watchdog declares it lost.
    let poison_spec = JobSpec::new(nl.clone(), "sparc_ffu").with_q(3.0);
    let stall_spec =
        JobSpec::new(nl, "sparc_ffu").with_q(4.0).with_deadline(Duration::from_millis(200));
    let poison_key = job_key(&poison_spec, &ctx.lib).expect("canonical key");
    let stall_key = job_key(&stall_spec, &ctx.lib).expect("canonical key");
    assert_ne!(poison_key, stall_key, "distinct q must give distinct keys");

    // Journal append ordinals are deterministic with one worker and
    // serialized submissions: 0 = Accepted(poison), 1 = Started(poison).
    let plan = InjectionPlan::new()
        .tear_journal_write(0)
        .truncate_journal_write(1)
        .poison_job(poison_key)
        .stall_job(stall_key);
    let armed = inject::arm(plan);

    let work = std::env::temp_dir().join(format!("rsyn-server-dfates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let mut cfg = ServerConfig::new(&work);
    cfg.workers = 1;
    cfg.journal_dir = Some(work.join("journal"));
    cfg.poison_threshold = 1;
    cfg.watchdog_interval = Duration::from_millis(20);
    let server = Server::start(cfg, ctx.lib.clone());

    let poisoned = match server.submit(poison_spec) {
        SubmitVerdict::Queued(h) => h,
        _ => panic!("poison job queues"),
    };
    assert!(
        matches!(poisoned.wait(), JobOutcome::Poisoned { crashes: 1 }),
        "threshold 1 quarantines on the first crash"
    );

    let stalled = match server.submit(stall_spec) {
        SubmitVerdict::Queued(h) => h,
        _ => panic!("stall job queues"),
    };
    assert!(
        matches!(stalled.wait(), JobOutcome::Poisoned { crashes: 1 }),
        "the lost worker burns the single allowed crash"
    );

    let stats = server.shutdown();
    assert_eq!(stats.poisoned, 2, "{stats:?}");
    assert_eq!(stats.lost, 1, "the watchdog declared the stalled job lost: {stats:?}");
    assert_eq!(stats.panics, 1, "{stats:?}");

    let fired = armed.fired_counts();
    for name in FATE_COUNTERS {
        if FLOW_FATES.contains(&name) {
            assert_eq!(
                fired.get(name).copied().unwrap_or(0),
                0,
                "flow fate {name} is covered by the other scenario, fired map: {fired:?}"
            );
        } else {
            assert_eq!(
                fired.get(name).copied().unwrap_or(0),
                1,
                "site {name} must fire exactly once, fired map: {fired:?}"
            );
        }
    }
    drop(armed);
    let _ = std::fs::remove_dir_all(&work);
}
