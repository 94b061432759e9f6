//! Storm gate for the fault-tolerant flow service (`rsyn-server`).
//!
//! Three phases, all asserted in-process (exit 1 on any gate failure):
//!
//! 1. **Storm** — a 4-worker server with a small bounded queue takes a
//!    burst of hundreds of concurrent submissions from parallel
//!    submitter threads over a handful of unique (circuit, q) jobs, so
//!    coalescing, load shedding, deadlines, and cancellation all trigger
//!    at once. Under `--inject`, a deterministic plan crashes workers,
//!    fails checkpoint writes, aborts PODEM searches (at faults a probe
//!    analysis saw reach PODEM, whichever job runs ATPG first), and sheds
//!    submissions at fixed ordinals; shed clients retry under the
//!    deterministic jittered [`BackoffPolicy`]. Gates: **zero lost
//!    jobs** (every submission reaches a terminal outcome; the job
//!    conservation law balances), no failed jobs, every armed server
//!    fate actually fired.
//! 2. **Preemption** — a 2-worker server is saturated with low-priority
//!    `sparc_tlu` jobs; once both have entered their resynthesis loop
//!    (observed on the event stream), high-priority `sparc_ffu` jobs
//!    arrive. The victims stop at a checkpoint boundary, the high jobs
//!    run, and the victims resume from their checkpoints. Gates:
//!    preemptions and resumes observed, everything completes.
//! 3. **Equivalence** — every unique (circuit, q) completed by phases
//!    1–2 is re-run directly through `rsyn_core::run`; the server's
//!    result digest (fault verdicts + all headline metrics, floats by
//!    bit pattern) must be byte-identical — including for the
//!    preempted-then-resumed jobs.
//! 4. **Stream digest identity** — a fixed job set runs to completion
//!    at 1, 2, and 8 workers, each run observed through its own event
//!    subscription; the deterministic per-job stream digest
//!    ([`StreamDigest::render`]) must be byte-identical across the
//!    three worker counts, and each run must conserve (exactly one
//!    terminal per admission, monotone contiguous iterations, no lag).
//!
//! The storm phase itself runs under an unfiltered event subscription
//! drained by a dedicated thread; the resulting stream must conserve
//! too, and with `--events-out PATH` it is exported as NDJSON (one
//! [`Delivery::to_ndjson`] line per delivery) for `flow_tail` and the
//! CI artifact.
//!
//! Writes a `server_storm` manifest; the verify stage then checks the
//! `server.{shed,retry,resume}` counters are present and nonzero.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rsyn_atpg::fault::FaultStatus;
use rsyn_bench::{context_with_threads, threads_flag, write_manifest};
use rsyn_circuits::build_benchmark_with;
use rsyn_core::{run, DesignState, FlowContext, FlowOptions};
use rsyn_netlist::Netlist;
use rsyn_observe::events::{self, Delivery, FlowEvent, StreamDigest, StreamRecord};
use rsyn_observe::manifest::Run;
use rsyn_resilience::inject::{self, InjectionPlan};
use rsyn_resilience::BackoffPolicy;
use rsyn_server::{
    report_digest, JobHandle, JobOutcome, JobSpec, Priority, Server, ServerConfig, SubmitVerdict,
};

/// The unique storm jobs: mixed sizes (sparc_ffu is fast, sparc_tlu is
/// several times longer), several relaxations each.
const STORM_JOBS: [(&str, f64); 6] = [
    ("sparc_ffu", 3.0),
    ("sparc_ffu", 4.0),
    ("sparc_ffu", 5.0),
    ("sparc_ffu", 6.0),
    ("sparc_tlu", 5.0),
    ("sparc_tlu", 6.0),
];
const SUBMITTERS: usize = 8;
const ROUNDS: usize = 5;

/// The server-fate injection plan. Pickup ordinals 0 and 3 crash their
/// worker, checkpoint-write ordinals 1 and 5 fail, four submission
/// ordinals are shed (clients retry), and the first ATPG run skips the
/// PODEM searches of `podem_faults` (the SAT prover decides those faults
/// instead, so results stay equivalent to a clean run).
fn storm_plan(podem_faults: &BTreeSet<u64>) -> InjectionPlan {
    let mut plan = InjectionPlan::new()
        .crash_worker(0)
        .crash_worker(3)
        .fail_checkpoint_write(1)
        .fail_checkpoint_write(5)
        .reject_submit(3)
        .reject_submit(10)
        .reject_submit(25)
        .reject_submit(50);
    for &fault in podem_faults {
        plan = plan.abort_podem(0, fault);
    }
    plan
}

/// Fault indices that certainly reach PODEM in the seed analysis of each
/// storm circuit: the first few proven undetectable (no random pattern can
/// detect them, whatever the seed, so each is queried before PODEM runs). ATPG run 0 is the seed
/// analysis of whichever storm job runs first, so its own circuit's sites
/// fire; another circuit's sites either fire too or are never consulted.
/// The probe analyses run on a thread of their own, so they record into
/// that thread's recorder, not into the storm's manifest or event stream.
fn podem_sites(ctx: &FlowContext, netlists: &BTreeMap<&str, Netlist>) -> BTreeSet<u64> {
    let probe = || {
        let mut sites = BTreeSet::new();
        for nl in netlists.values() {
            let statuses = DesignState::analyze(nl.clone(), ctx, None).expect("seed").atpg.statuses;
            let proved = (0..statuses.len()).filter(|&i| statuses[i] == FaultStatus::Undetectable);
            sites.extend(proved.take(4).map(|i| i as u64));
        }
        sites
    };
    std::thread::scope(|s| s.spawn(probe).join().expect("probe analyses"))
}

/// The phase-4 job set: small enough to run three times (1, 2, and 8
/// workers), mixed enough that shard and iteration events interleave
/// differently at each worker count — which the digest must hide.
const DIGEST_JOBS: [(&str, f64); 3] = [("sparc_ffu", 3.0), ("sparc_ffu", 5.0), ("sparc_tlu", 5.0)];
const DIGEST_WORKERS: [usize; 3] = [1, 2, 8];

fn seed_netlist(ctx: &FlowContext, circuit: &str) -> Netlist {
    build_benchmark_with(circuit, &ctx.lib, &ctx.mapper)
        .unwrap_or_else(|| panic!("unknown benchmark {circuit}"))
}

/// Drains an unfiltered event subscription on a dedicated thread while
/// the storm runs, so the subscriber ring never lags even while many
/// jobs publish at once. Every delivery is folded into a
/// [`StreamDigest`] and kept as one NDJSON line for `--events-out`.
struct StreamTap {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<(StreamDigest, Vec<String>, u64)>,
}

impl StreamTap {
    fn start() -> StreamTap {
        let rx = events::subscribe_with_capacity(None, 1 << 16);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("storm-event-tap".to_string())
            .spawn(move || {
                let mut digest = StreamDigest::new();
                let mut lines = Vec::new();
                let mut admitted = 0u64;
                let mut fold = |d: &Delivery, digest: &mut StreamDigest| {
                    if matches!(StreamRecord::from_delivery(d),
                        StreamRecord::Event { ref kind, .. } if kind == "admitted")
                    {
                        admitted += 1;
                    }
                    digest.observe_delivery(d);
                    lines.push(d.to_ndjson());
                };
                loop {
                    match rx.recv_timeout(Duration::from_millis(25)) {
                        Some(d) => fold(&d, &mut digest),
                        None if flag.load(Ordering::Relaxed) => break,
                        None => {}
                    }
                }
                for d in rx.drain() {
                    fold(&d, &mut digest);
                }
                (digest, lines, admitted)
            })
            .expect("spawn event tap");
        StreamTap { stop, thread }
    }

    /// Stops the tap (after the publishing side has shut down) and
    /// returns the digest, the NDJSON lines, and the admission count.
    fn finish(self) -> (StreamDigest, Vec<String>, u64) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("event tap does not panic")
    }
}

fn job_label(circuit: &str, q: f64) -> String {
    format!("{circuit}-q{q}")
}

/// Submits with client-side retry of shed verdicts under the
/// deterministic jittered backoff policy. Returns the handle and how
/// many sheds were absorbed.
fn submit_with_retry(server: &Server, make: impl Fn() -> JobSpec, key: u64) -> (JobHandle, u64) {
    let policy = BackoffPolicy { base_ms: 5, factor: 2, cap_ms: 80, jitter_percent: 25, seed: 7 };
    let mut attempt = 0u32;
    loop {
        match server.submit(make()) {
            SubmitVerdict::Shed => {
                std::thread::sleep(Duration::from_millis(policy.delay_ms(key, attempt)));
                attempt += 1;
            }
            verdict => {
                let handle = verdict.handle().expect("not shed").clone();
                return (handle, u64::from(attempt));
            }
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_flag(&mut args);
    let injected = args.iter().position(|a| a == "--inject").map(|i| args.remove(i)).is_some();
    let events_out = args.iter().position(|a| a == "--events-out").map(|i| {
        let path = PathBuf::from(&args[i + 1]);
        args.drain(i..=i + 1);
        path
    });
    let work = args
        .iter()
        .position(|a| a == "--work-dir")
        .map(|i| {
            let dir = PathBuf::from(&args[i + 1]);
            args.drain(i..=i + 1);
            dir
        })
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("rsyn-server-storm-{}", std::process::id()))
        });
    let _ = std::fs::remove_dir_all(&work);

    let ctx = context_with_threads(threads);
    let mut manifest = Run::start("server_storm", ctx.seed);
    manifest.record_threads(threads, ctx.atpg.effective_threads());
    let netlists: BTreeMap<&str, Netlist> =
        ["sparc_ffu", "sparc_tlu"].into_iter().map(|c| (c, seed_netlist(&ctx, c))).collect();
    let mut failures: Vec<String> = Vec::new();
    // First-seen result digest per unique job; every later completion of
    // the same (circuit, q) — server or direct — must match it.
    let mut digests: BTreeMap<String, String> = BTreeMap::new();
    let check_digest = |digests: &mut BTreeMap<String, String>,
                        failures: &mut Vec<String>,
                        label: &str,
                        digest: String| {
        match digests.get(label) {
            None => {
                digests.insert(label.to_string(), digest);
            }
            Some(first) if *first != digest => {
                failures.push(format!("result divergence for {label}"));
            }
            Some(_) => {}
        }
    };

    // ---- Phase 1: the storm -------------------------------------------
    eprintln!(
        "phase 1: storm of {} submissions over {} unique jobs{}",
        SUBMITTERS * ROUNDS * STORM_JOBS.len() + 3,
        STORM_JOBS.len(),
        if injected { " (injection armed)" } else { "" },
    );
    let tap = StreamTap::start();
    let armed = injected.then(|| inject::arm(storm_plan(&podem_sites(&ctx, &netlists))));
    let mut cfg = ServerConfig::new(work.join("storm"));
    cfg.workers = 4;
    cfg.queue_capacity = 16;
    let server = Server::start(cfg, ctx.lib.clone());
    let storm_started = Instant::now();

    // Specials: two hopeless deadlines and one cancellation, on unique q
    // values so they do not coalesce with the real work.
    let nl = &netlists["sparc_ffu"];
    let hopeless: Vec<JobHandle> = [99.0, 98.0]
        .into_iter()
        .map(|q| {
            let spec =
                JobSpec::new(nl.clone(), "sparc_ffu").with_q(q).with_deadline(Duration::ZERO);
            server.submit(spec).handle().expect("queued").clone()
        })
        .collect();
    let doomed = {
        let spec = JobSpec::new(nl.clone(), "sparc_ffu").with_q(97.0);
        let handle = server.submit(spec).handle().expect("queued").clone();
        handle.cancel();
        handle
    };

    let client_sheds = AtomicU64::new(0);
    let submitted: Mutex<Vec<(usize, JobHandle)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for submitter in 0..SUBMITTERS {
            let server = &server;
            let netlists = &netlists;
            let client_sheds = &client_sheds;
            let submitted = &submitted;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (job, (circuit, q)) in STORM_JOBS.into_iter().enumerate() {
                        let make = || JobSpec::new(netlists[circuit].clone(), circuit).with_q(q);
                        let retry_key = (submitter * ROUNDS + round) as u64;
                        let (handle, sheds) = submit_with_retry(server, make, retry_key);
                        client_sheds.fetch_add(sheds, Ordering::Relaxed);
                        submitted.lock().expect("submitters do not panic").push((job, handle));
                    }
                }
            });
        }
    });

    let submissions = submitted.into_inner().expect("scope joined");
    for (job, handle) in &submissions {
        let (circuit, q) = STORM_JOBS[*job];
        match handle.wait() {
            JobOutcome::Completed(report) => {
                check_digest(
                    &mut digests,
                    &mut failures,
                    &job_label(circuit, q),
                    report_digest(&report),
                );
            }
            other => failures.push(format!(
                "storm job {} lost: terminal outcome {}",
                job_label(circuit, q),
                other.label()
            )),
        }
    }
    for handle in &hopeless {
        if !matches!(handle.wait(), JobOutcome::DeadlineExceeded) {
            failures.push("zero-deadline job did not report DeadlineExceeded".into());
        }
    }
    if !matches!(doomed.wait(), JobOutcome::Cancelled) {
        failures.push("cancelled job did not report Cancelled".into());
    }

    // Mid-run metrics: exercises the delta-published counter path (the
    // shutdown publication below must add only the remainder).
    let snap = server.metrics_snapshot();
    eprintln!(
        "phase 1 snapshot: {} submitted, {} completed, queue depth {}, {} in flight, \
         {} events published",
        snap.stats.submitted,
        snap.stats.completed,
        snap.queue_depth,
        snap.in_flight,
        snap.events_published,
    );

    let accepted_keys: BTreeSet<u128> = submissions
        .iter()
        .map(|(_, h)| h.key())
        .chain(hopeless.iter().map(JobHandle::key))
        .chain(std::iter::once(doomed.key()))
        .collect();
    let storm_stats = server.shutdown();
    let storm_secs = storm_started.elapsed().as_secs_f64();
    eprintln!(
        "phase 1 done in {storm_secs:.1}s: {} submissions -> {} completed jobs \
         ({} coalesced, {} shed, {} retries, {} contained panics)",
        storm_stats.submitted,
        storm_stats.completed,
        storm_stats.coalesced,
        storm_stats.shed,
        storm_stats.retries,
        storm_stats.panics,
    );

    // Zero lost jobs, as a conservation law: every accepted submission
    // became exactly one job, and every job reached exactly one terminal
    // outcome.
    let jobs_created = storm_stats.submitted - storm_stats.coalesced - storm_stats.shed;
    let jobs_finished = storm_stats.completed
        + storm_stats.failed
        + storm_stats.cancelled
        + storm_stats.deadline
        + storm_stats.poisoned;
    if jobs_created != jobs_finished {
        failures.push(format!(
            "job conservation violated: {jobs_created} jobs created, {jobs_finished} finished"
        ));
    }
    if storm_stats.poisoned != 0 {
        failures
            .push(format!("{} jobs quarantined without a poison fate armed", storm_stats.poisoned));
    }
    if storm_stats.failed != 0 {
        failures.push(format!("{} jobs failed outright", storm_stats.failed));
    }
    if storm_stats.shed != client_sheds.load(Ordering::Relaxed) {
        failures.push(format!(
            "shed accounting mismatch: server {} vs clients {}",
            storm_stats.shed,
            client_sheds.load(Ordering::Relaxed)
        ));
    }
    if storm_stats.coalesced == 0 {
        failures.push("the storm never coalesced identical submissions".into());
    }
    if let Some(armed) = &armed {
        let fired = armed.fired_counts();
        for (name, expected) in [
            ("inject.fired.worker_crash", 2),
            ("inject.fired.checkpoint_write", 2),
            ("inject.fired.queue_full", 4),
        ] {
            let n = fired.get(name).copied().unwrap_or(0);
            if n != expected {
                failures.push(format!("{name} fired {n} times, expected {expected}"));
            }
        }
        if fired.get("inject.fired.podem_abort").copied().unwrap_or(0) == 0 {
            failures.push("no PODEM abort fired".into());
        }
        if storm_stats.retries == 0 {
            failures.push("worker crashes did not drive backoff retries".into());
        }
    }
    drop(armed);

    // The server is down, so the phase-1 stream is complete: stop the
    // tap and gate conservation on the live stream itself (the same law
    // `flow_tail` enforces on the exported NDJSON).
    let (storm_digest, storm_lines, admitted_events) = tap.finish();
    eprintln!(
        "phase 1 stream: {} records over {} jobs ({} admissions, {} lagged)",
        storm_digest.records(),
        storm_digest.job_keys().len(),
        admitted_events,
        storm_digest.lagged(),
    );
    if storm_digest.lagged() != 0 {
        failures.push(format!(
            "event stream lagged: {} deliveries dropped despite the dedicated tap",
            storm_digest.lagged()
        ));
    }
    if admitted_events != jobs_created {
        failures.push(format!(
            "admission events ({admitted_events}) do not balance jobs created ({jobs_created})"
        ));
    }
    let accepted: Vec<u128> = accepted_keys.iter().copied().collect();
    for v in storm_digest.violations(&accepted) {
        failures.push(format!("event stream: {v}"));
    }
    if let Some(path) = &events_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut body = storm_lines.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        match std::fs::write(path, body) {
            Ok(()) => {
                eprintln!("event stream: {} NDJSON lines -> {}", storm_lines.len(), path.display())
            }
            Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
        }
    }

    // ---- Phase 2: checkpoint-backed preemption ------------------------
    eprintln!("phase 2: preemption of low-priority jobs under high-priority arrivals");
    let mut cfg = ServerConfig::new(work.join("preempt"));
    cfg.workers = 2;
    let server = Server::start(cfg, ctx.lib.clone());
    let progress = events::subscribe_with_capacity(None, 1 << 16);
    let low: Vec<(String, JobHandle)> = [5.0, 6.0]
        .into_iter()
        .map(|q| {
            let spec = JobSpec::new(netlists["sparc_tlu"].clone(), "sparc_tlu")
                .with_q(q)
                .with_priority(Priority::Low);
            let handle = server.submit(spec).handle().expect("queued").clone();
            (job_label("sparc_tlu", q), handle)
        })
        .collect();
    // Wait until both low jobs have entered their resynthesis loop: each
    // then holds a worker, has passed the stop check that precedes the
    // loop, and is a whole iteration away from its first checkpoint
    // boundary. High-priority jobs queued now find both workers busy and
    // preempt both low jobs, which stop at a boundary after writing its
    // checkpoint and later resume from it instead of restarting.
    let low_keys: BTreeSet<u128> = low.iter().map(|(_, h)| h.key()).collect();
    let mut in_loop: BTreeSet<u128> = BTreeSet::new();
    let loop_wait = Instant::now();
    while in_loop != low_keys && loop_wait.elapsed() < Duration::from_secs(120) {
        if let Some(Delivery::Event(ev)) = progress.recv_timeout(Duration::from_millis(50)) {
            if ev.data == (FlowEvent::StageEnter { stage: "flow.run" }) {
                in_loop.insert(ev.job);
            }
        }
    }
    drop(progress);
    let high: Vec<(String, JobHandle)> = [3.0, 4.0]
        .into_iter()
        .map(|q| {
            let spec = JobSpec::new(netlists["sparc_ffu"].clone(), "sparc_ffu")
                .with_q(q)
                .with_priority(Priority::High);
            let handle = server.submit(spec).handle().expect("queued").clone();
            (job_label("sparc_ffu", q), handle)
        })
        .collect();
    for (label, handle) in low.iter().chain(high.iter()) {
        match handle.wait() {
            JobOutcome::Completed(report) => {
                check_digest(&mut digests, &mut failures, label, report_digest(&report));
            }
            other => {
                failures.push(format!("preemption-phase job {label} ended {}", other.label()));
            }
        }
    }
    let preempt_stats = server.shutdown();
    eprintln!(
        "phase 2 done: {} preemptions, {} resumes, {} completed",
        preempt_stats.preempts, preempt_stats.resumes, preempt_stats.completed,
    );
    if preempt_stats.preempts == 0 {
        failures.push("high-priority arrivals never preempted a low job".into());
    }
    if preempt_stats.resumes == 0 {
        failures.push("no preempted job resumed from its checkpoint".into());
    }
    if preempt_stats.completed != 4 {
        failures.push(format!("preemption phase completed {}/4 jobs", preempt_stats.completed));
    }

    // ---- Phase 3: equivalence with direct runs ------------------------
    eprintln!("phase 3: direct rsyn_core::run equivalence over {} unique jobs", digests.len());
    for (circuit, q) in STORM_JOBS {
        let label = job_label(circuit, q);
        if !digests.contains_key(&label) {
            failures.push(format!("no completed server execution for {label}"));
            continue;
        }
        let mut options = FlowOptions::new(circuit, &format!("direct-{label}"));
        options.q_percent = q;
        match run(netlists[circuit].clone(), &ctx, &options) {
            Ok(report) => {
                let digest = report_digest(&report);
                if digests[&label] != digest {
                    failures.push(format!("server result for {label} differs from direct run"));
                }
            }
            Err(e) => failures.push(format!("direct run of {label} failed: {e}")),
        }
    }

    // ---- Phase 4: stream digest identity across worker counts ---------
    eprintln!("phase 4: stream digest identity at {DIGEST_WORKERS:?} workers");
    let mut renders: Vec<(usize, String)> = Vec::new();
    for workers in DIGEST_WORKERS {
        // Fresh subscriber and fresh work dir per run: no lag (the job
        // set is small enough to buffer), and no checkpoint resume from
        // the previous run truncating the iteration stream.
        let rx = events::subscribe_with_capacity(None, 1 << 17);
        let mut cfg = ServerConfig::new(work.join(format!("digest-w{workers}")));
        cfg.workers = workers;
        let server = Server::start(cfg, ctx.lib.clone());
        let handles: Vec<(String, JobHandle)> = DIGEST_JOBS
            .into_iter()
            .map(|(circuit, q)| {
                let spec = JobSpec::new(netlists[circuit].clone(), circuit).with_q(q);
                let handle = server.submit(spec).handle().expect("queued").clone();
                (job_label(circuit, q), handle)
            })
            .collect();
        let mut keys: Vec<u128> = Vec::new();
        for (label, handle) in &handles {
            keys.push(handle.key());
            match handle.wait() {
                JobOutcome::Completed(report) => {
                    check_digest(&mut digests, &mut failures, label, report_digest(&report));
                }
                other => failures.push(format!(
                    "digest-phase job {label} at {workers} workers ended {}",
                    other.label()
                )),
            }
        }
        server.shutdown();
        let mut digest = StreamDigest::new();
        for d in rx.drain() {
            digest.observe_delivery(&d);
        }
        if digest.lagged() != 0 {
            failures.push(format!(
                "digest run at {workers} workers lagged {} deliveries",
                digest.lagged()
            ));
        }
        for v in digest.violations(&keys) {
            failures.push(format!("digest run at {workers} workers: {v}"));
        }
        eprintln!(
            "  {workers} workers: {} records, digest over {} jobs",
            digest.records(),
            digest.job_keys().len()
        );
        renders.push((workers, digest.render()));
    }
    if let Some(((w0, first), rest)) = renders.split_first() {
        for (w, render) in rest {
            if render != first {
                failures.push(format!("stream digest at {w} workers differs from {w0} workers"));
            }
        }
    }
    let digest_identical = failures.iter().all(|f| !f.contains("stream digest at"));

    manifest.result("unique_jobs", digests.len().to_string());
    manifest.result("storm_submitted", storm_stats.submitted.to_string());
    manifest.result("storm_coalesced", storm_stats.coalesced.to_string());
    manifest.result("storm_shed", storm_stats.shed.to_string());
    manifest.result("storm_completed", storm_stats.completed.to_string());
    manifest.result("preempts", preempt_stats.preempts.to_string());
    manifest.result("resumes", preempt_stats.resumes.to_string());
    manifest.result("stream_records", storm_digest.records().to_string());
    manifest.result("stream_admitted", admitted_events.to_string());
    manifest.result("stream_lagged", storm_digest.lagged().to_string());
    manifest.result("digest_workers", format!("{DIGEST_WORKERS:?}"));
    manifest.result("digest_identical", digest_identical.to_string());
    manifest
        .result_f64("storm_jobs_per_sec", f64::max(storm_stats.completed as f64 / storm_secs, 0.0));
    write_manifest(manifest);

    let _ = std::fs::remove_dir_all(&work);
    if failures.is_empty() {
        println!(
            "server storm ok: {} submissions, {} unique jobs, zero lost, results \
             equivalent to direct runs ({:.2} jobs/s)",
            storm_stats.submitted,
            digests.len(),
            storm_stats.completed as f64 / storm_secs,
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("storm FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
