//! End-to-end lifecycle of the flow service: coalescing, deadlines,
//! cancellation, and result equivalence with a direct `rsyn_core::run`.

use std::time::Duration;

use rsyn_circuits::build_benchmark_with;
use rsyn_core::{run, FlowContext, FlowOptions};
use rsyn_netlist::Library;
use rsyn_server::{report_digest, JobOutcome, JobSpec, Server, ServerConfig, SubmitVerdict};

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
