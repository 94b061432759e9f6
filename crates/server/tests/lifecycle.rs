//! End-to-end lifecycle of the flow service: coalescing, deadlines,
//! cancellation, preemption, and result equivalence with a direct
//! `rsyn_core::run`.

use std::time::Duration;

use rsyn_circuits::build_benchmark_with;
use rsyn_core::{run, FlowContext, FlowOptions};
use rsyn_netlist::Library;
use rsyn_observe::events::{self, Delivery, FlowEvent};
use rsyn_server::{
    report_digest, JobOutcome, JobSpec, Priority, Server, ServerConfig, SubmitVerdict,
};

#[test]
fn coalescing_deadlines_cancellation_and_direct_equivalence() {
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");

    let work = std::env::temp_dir().join(format!("rsyn-server-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let mut cfg = ServerConfig::new(&work);
    // One worker: submissions below are queued behind the first job, so
    // the zero-deadline and cancelled jobs are decided at pickup.
    cfg.workers = 1;
    let server = Server::start(cfg, ctx.lib.clone());

    let first = match server.submit(JobSpec::new(nl.clone(), "sparc_ffu")) {
        SubmitVerdict::Queued(h) => h,
        _ => panic!("fresh job queues"),
    };
    // Identical work coalesces onto the first job, whatever its priority.
    let twin = match server.submit(JobSpec::new(nl.clone(), "sparc_ffu")) {
        SubmitVerdict::Coalesced(h) => h,
        _ => panic!("identical in-flight work coalesces"),
    };
    assert_eq!(first.key(), twin.key());
    // Different q is different work: queued, but hopeless deadline.
    let hopeless = server
        .submit(JobSpec::new(nl.clone(), "sparc_ffu").with_q(6.0).with_deadline(Duration::ZERO))
        .handle()
        .expect("queued")
        .clone();
    let doomed = server
        .submit(JobSpec::new(nl.clone(), "sparc_ffu").with_q(7.0))
        .handle()
        .expect("queued")
        .clone();
    doomed.cancel();

    let report = match first.wait() {
        JobOutcome::Completed(report) => report,
        other => panic!("first job completes, got {other:?}"),
    };
    assert!(
        matches!(twin.wait(), JobOutcome::Completed(r) if report_digest(&r) == report_digest(&report)),
        "coalesced handles share the completed report"
    );
    assert!(matches!(hopeless.wait(), JobOutcome::DeadlineExceeded));
    assert!(matches!(doomed.wait(), JobOutcome::Cancelled));

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 4, "{stats:?}");
    assert_eq!(stats.coalesced, 1, "{stats:?}");
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.deadline, 1, "{stats:?}");
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");

    // The service answer must be the answer: byte-equal result digest to
    // a direct, serverless run of the same (netlist, options).
    let direct =
        run(nl, &ctx, &FlowOptions::new("sparc_ffu", "direct")).expect("direct run succeeds");
    assert_eq!(
        report_digest(&direct),
        report_digest(&report),
        "server execution is result-equivalent to rsyn_core::run"
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// A preempted job is counted once: its resumed execution restores the
/// checkpoint's snapshot of everything it counted before the preemption,
/// so the server's flow counters equal those of two direct runs.
#[test]
fn a_preempted_job_counts_once() {
    let ctx = FlowContext::new(Library::osu018());
    let tlu = build_benchmark_with("sparc_tlu", &ctx.lib, &ctx.mapper).expect("benchmark builds");
    let ffu = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");
    let work = std::env::temp_dir().join(format!("rsyn-server-preempt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);

    let (stats, served) = {
        let _scope = rsyn_observe::child_scope();
        let mut cfg = ServerConfig::new(&work);
        cfg.workers = 1;
        let server = Server::start(cfg, ctx.lib.clone());
        let progress = events::subscribe_with_capacity(None, 1 << 16);
        let low = JobSpec::new(tlu.clone(), "sparc_tlu").with_priority(Priority::Low);
        let low = server.submit(low).handle().expect("queued").clone();
        // Once the low job has entered its resynthesis loop, a high-priority
        // arrival finds the only worker busy and preempts it: it stops at
        // its next checkpoint boundary and later resumes from it.
        let entered = FlowEvent::StageEnter { stage: "flow.run" };
        loop {
            match progress.recv_timeout(Duration::from_secs(120)) {
                Some(Delivery::Event(ev)) if ev.job == low.key() && ev.data == entered => break,
                Some(_) => {}
                None => panic!("the low job never entered its resynthesis loop"),
            }
        }
        drop(progress);
        let high = JobSpec::new(ffu.clone(), "sparc_ffu").with_q(3.0).with_priority(Priority::High);
        let high = server.submit(high).handle().expect("queued").clone();
        for handle in [&low, &high] {
            let outcome = handle.wait();
            assert!(matches!(outcome, JobOutcome::Completed(_)), "{outcome:?}");
        }
        (server.shutdown(), rsyn_observe::counters())
    };
    let _ = std::fs::remove_dir_all(&work);
    assert_eq!(stats.preempts, 1, "{stats:?}");
    assert_eq!(stats.resumes, 1, "{stats:?}");

    let direct = {
        let _scope = rsyn_observe::child_scope();
        run(tlu, &ctx, &FlowOptions::new("sparc_tlu", "direct-low")).expect("direct run");
        let mut options = FlowOptions::new("sparc_ffu", "direct-high");
        options.q_percent = 3.0;
        run(ffu, &ctx, &options).expect("direct run");
        rsyn_observe::counters()
    };
    for name in ["flow.runs", "flow.analyses", "resynth.accepted", "atpg.runs"] {
        assert_eq!(served.get(name), direct.get(name), "{name}");
    }
}
