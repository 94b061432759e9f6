//! Event-plane integration: lag accounting, terminal seeding for late
//! subscribers, per-job filter isolation under concurrent publishers,
//! metrics-snapshot delta publication, and stream-digest byte-identity
//! across worker counts.
//!
//! Each test thread records into its own recorder, so unfiltered
//! subscribers see only their own test's traffic and the published-count
//! conservation checks balance without a lock.

use std::time::Duration;

use rsyn_circuits::build_benchmark_with;
use rsyn_core::FlowContext;
use rsyn_netlist::Library;
use rsyn_observe::events::{self, Delivery, FlowEvent, StreamDigest, TerminalOutcome};
use rsyn_server::{JobOutcome, JobSpec, Server, ServerConfig};

fn work_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rsyn-events-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Delivered events plus explicit `Lagged` gap markers must conserve:
/// every publish either reaches the ring or is accounted for in a
/// `dropped` count, even when the subscriber is far too small.
#[test]
fn lag_markers_conserve_published_events() {
    let rx = events::subscribe_with_capacity(None, 8);
    let before = events::published();

    const PUBLISHED: u64 = 1000;
    for i in 0..PUBLISHED {
        events::publish_for(0xabcde, FlowEvent::CheckpointWritten { iteration: i });
    }

    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut gap_markers = 0u64;
    for d in rx.drain() {
        match d {
            Delivery::Event(ev) => {
                assert!(ev.seq > before, "stale event leaked into a fresh subscription");
                delivered += 1;
            }
            Delivery::Lagged { dropped: n } => {
                assert!(n > 0, "empty lag marker");
                dropped += n;
                gap_markers += 1;
            }
        }
    }
    assert_eq!(events::published() - before, PUBLISHED);
    assert_eq!(delivered + dropped, PUBLISHED, "lag accounting must conserve");
    assert!(delivered >= 8, "ring capacity worth of events survives");
    assert!(gap_markers > 0, "a 8-slot ring under 1000 publishes must lag");
}

/// Filtered subscribers see exactly their job's events, in order, with
/// no loss — even while other jobs publish concurrently from many
/// threads.
#[test]
fn per_job_filters_isolate_concurrent_publishers() {
    const JOBS: u128 = 4;
    const EACH: u64 = 500;

    let receivers: Vec<_> = (0..JOBS)
        .map(|job| (0x1000 + job, events::subscribe_with_capacity(Some(0x1000 + job), 4096)))
        .collect();
    let observe = rsyn_observe::Scope::current();
    std::thread::scope(|scope| {
        for job in 0..JOBS {
            let observe = &observe;
            scope.spawn(move || {
                let _observe = observe.enter();
                let _scope = events::job_scope(0x1000 + job);
                for i in 0..EACH {
                    events::publish(FlowEvent::CheckpointWritten { iteration: i });
                }
            });
        }
    });

    for (job, rx) in &receivers {
        let mut next = 0u64;
        for d in rx.drain() {
            let Delivery::Event(ev) = d else {
                panic!("filtered 4096-slot ring lagged under {EACH} events")
            };
            assert_eq!(ev.job, *job, "filter leaked a foreign job's event");
            assert_eq!(
                ev.data,
                FlowEvent::CheckpointWritten { iteration: next },
                "per-job order broken"
            );
            next += 1;
        }
        assert_eq!(next, EACH, "job {job:#x} lost events");
    }
}

/// `Server::subscribe` on a job that already finished seeds the stored
/// terminal, so a late subscriber still observes exactly one terminal.
#[test]
fn subscribe_after_terminal_seeds_the_outcome() {
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");

    let mut cfg = ServerConfig::new(work_dir("late-sub"));
    cfg.workers = 1;
    let server = Server::start(cfg, ctx.lib.clone());
    let handle = server.submit(JobSpec::new(nl, "sparc_ffu")).handle().expect("queued").clone();
    assert!(matches!(handle.wait(), JobOutcome::Completed(_)));

    // Subscribed only now — after the terminal was published live.
    let rx = server.subscribe(handle.key());
    let terminals: Vec<_> = rx
        .drain()
        .into_iter()
        .filter_map(|d| match d {
            Delivery::Event(ev) => Some(ev),
            Delivery::Lagged { .. } => None,
        })
        .collect();
    assert_eq!(terminals.len(), 1, "seeded stream carries exactly the terminal");
    assert_eq!(terminals[0].job, handle.key());
    assert_eq!(terminals[0].data, FlowEvent::Terminal { outcome: TerminalOutcome::Completed });
    server.shutdown();
}

/// A live subscription through `Server::subscribe` sees the job's whole
/// deterministic life — stages, iterations, shards — and the digest
/// over it is clean.
#[test]
fn live_subscription_streams_progress_and_conserves() {
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");

    let mut cfg = ServerConfig::new(work_dir("live-sub"));
    cfg.workers = 1;
    let server = Server::start(cfg, ctx.lib.clone());
    let spec = JobSpec::new(nl, "sparc_ffu");
    // Subscribe before submitting so admission itself is on the stream.
    let key = rsyn_server::job_key(&spec, &ctx.lib).expect("canonical netlist hashes");
    let rx = server.subscribe(key);
    let handle = server.submit(spec).handle().expect("queued").clone();
    assert_eq!(handle.key(), key);
    assert!(matches!(handle.wait(), JobOutcome::Completed(_)));
    server.shutdown();

    let mut digest = StreamDigest::new();
    let mut kinds: Vec<&'static str> = Vec::new();
    for d in rx.drain() {
        if let Delivery::Event(ev) = &d {
            kinds.push(ev.data.kind());
        }
        digest.observe_delivery(&d);
    }
    assert_eq!(digest.lagged(), 0);
    for expected in ["admitted", "claimed", "stage.enter", "iteration", "shard", "terminal"] {
        assert!(kinds.contains(&expected), "stream missing a {expected} event: {kinds:?}");
    }
    let violations = digest.violations(&[key]);
    assert!(violations.is_empty(), "{violations:?}");
}

/// `metrics_snapshot` publishes `server.*` counter deltas mid-run;
/// shutdown publishes only the remainder. The registry total must equal
/// the final stats — counted once, not twice.
#[test]
fn metrics_snapshot_publishes_deltas_without_double_counting() {
    rsyn_observe::reset();
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");

    let mut cfg = ServerConfig::new(work_dir("metrics"));
    cfg.workers = 1;
    let server = Server::start(cfg, ctx.lib.clone());
    // Unobservable publishes are not sequenced, so keep a subscriber
    // alive to make `events_published` meaningful, and assert the delta
    // against the sequence at subscription.
    let _rx = events::subscribe_with_capacity(None, 1 << 15);
    let seq_before = events::published();
    let first =
        server.submit(JobSpec::new(nl.clone(), "sparc_ffu")).handle().expect("queued").clone();
    assert!(matches!(first.wait(), JobOutcome::Completed(_)));

    let snap = server.metrics_snapshot();
    assert_eq!(snap.stats.submitted, 1);
    assert_eq!(snap.stats.completed, 1);
    assert_eq!(snap.in_flight, 0);
    assert!(snap.events_published > seq_before);
    // The snapshot already pushed these into the registry.
    assert_eq!(rsyn_observe::counter("server.submitted"), 1);
    assert_eq!(rsyn_observe::counter("server.completed"), 1);

    // More work after the snapshot (a zero-deadline job: decided at
    // pickup, no flow execution), then shutdown: totals, not doubles.
    let second = server
        .submit(JobSpec::new(nl, "sparc_ffu").with_q(6.0).with_deadline(Duration::ZERO))
        .handle()
        .expect("queued")
        .clone();
    assert!(matches!(second.wait(), JobOutcome::DeadlineExceeded));
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.deadline, 1);
    assert_eq!(rsyn_observe::counter("server.submitted"), 2);
    assert_eq!(rsyn_observe::counter("server.completed"), 1);
    assert_eq!(rsyn_observe::counter("server.deadline"), 1);
    rsyn_observe::reset();
}

/// The deterministic stream digest is byte-identical across worker
/// counts: the same job at 1, 2, and 8 workers renders the same per-job
/// digest table even though scheduling interleaves differently. (The
/// release-mode `server_storm` phase 4 gates the same law over a
/// multi-job set; one job keeps this tier-1 test affordable.)
#[test]
fn stream_digest_is_identical_across_worker_counts() {
    let ctx = FlowContext::new(Library::osu018());
    let nl = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");

    let mut renders: Vec<(usize, String)> = Vec::new();
    for workers in [1usize, 2, 8] {
        let rx = events::subscribe_with_capacity(None, 1 << 16);
        let mut cfg = ServerConfig::new(work_dir(&format!("digest-w{workers}")));
        cfg.workers = workers;
        let server = Server::start(cfg, ctx.lib.clone());
        let handles: Vec<_> = [6.0]
            .into_iter()
            .map(|q| {
                server
                    .submit(JobSpec::new(nl.clone(), "sparc_ffu").with_q(q))
                    .handle()
                    .expect("queued")
                    .clone()
            })
            .collect();
        let keys: Vec<u128> = handles.iter().map(|h| h.key()).collect();
        for handle in &handles {
            assert!(matches!(handle.wait(), JobOutcome::Completed(_)));
        }
        server.shutdown();

        let mut digest = StreamDigest::new();
        for d in rx.drain() {
            digest.observe_delivery(&d);
        }
        assert_eq!(digest.lagged(), 0, "digest run at {workers} workers lagged");
        let violations = digest.violations(&keys);
        assert!(violations.is_empty(), "at {workers} workers: {violations:?}");
        renders.push((workers, digest.render()));
    }
    let (w0, first) = &renders[0];
    for (w, render) in &renders[1..] {
        assert_eq!(render, first, "digest at {w} workers differs from {w0} workers");
    }
}

/// Publishing with zero subscribers is a free no-op: the event is
/// neither buffered nor sequenced (`published()` counts only publishes
/// somebody could observe), so the flow pays nothing for the plane
/// until a subscriber exists.
#[test]
fn publish_without_subscribers_is_a_free_no_op() {
    let before = events::published();
    events::publish_for(7, FlowEvent::CheckpointWritten { iteration: 1 });
    assert_eq!(events::published(), before, "unobservable publishes are not sequenced");
    // A subscriber arriving later must not see the pre-subscription event.
    let rx = events::subscribe(Some(7));
    events::publish_for(7, FlowEvent::CheckpointWritten { iteration: 2 });
    assert_eq!(events::published(), before + 1);
    let evs: Vec<_> = rx.drain();
    assert_eq!(evs.len(), 1, "only the post-subscription event is buffered: {evs:?}");
    let Delivery::Event(ev) = evs[0] else { panic!("no lag possible here") };
    assert_eq!(ev.data, FlowEvent::CheckpointWritten { iteration: 2 });
    assert!(rx.recv_timeout(Duration::from_millis(1)).is_none());
}
