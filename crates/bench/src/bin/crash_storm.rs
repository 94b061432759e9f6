//! Crash-durability gate for the flow service (`rsyn-server`).
//!
//! One binary, two roles. The **parent** spawns itself as a sequence of
//! child *generations* over one shared work/journal directory and
//! SIGKILLs the first three mid-flight — a real process death, not a
//! simulated one. Each child replays the write-ahead journal with
//! [`Server::recover`], re-admits whatever the previous generation left
//! open (resuming from on-disk checkpoints), and carries the work
//! forward; the final generation runs undisturbed to completion.
//!
//! Under `--inject` the children also arm durability fates: a poison job
//! (panics every worker that touches it until quarantined), a stalled
//! job (freezes heartbeat-less until the watchdog declares it lost), and
//! torn/truncated journal appends in the middle generations. On top of
//! the injected tears the parent corrupts the journal itself between
//! generations, truncating the newest segment by 3 bytes — the on-disk
//! shape of a crash mid-append.
//!
//! The parent then asserts the **conservation law** from the journal.
//! Recovery *compacts* the journal (each generation rewrites surviving
//! open jobs into its fresh segment chain and deletes the old one), so
//! terminal history does not accumulate across generations; the parent
//! therefore reads the journal after **every** generation and merges
//! the views into one audit. The law: every accepted job reached
//! exactly one terminal outcome (idempotent duplicates allowed,
//! conflicting ones not), no job was invented, quarantine fired for
//! exactly the injected poison job, and every completed job's result
//! fingerprint is byte-identical to a direct `rsyn_core::run` of the
//! same (netlist, options, seed).
//!
//! Writes a `crash_storm` manifest carrying the `server.recovered.*`
//! counters aggregated from the children's stats files; the verify
//! stage gates on `server.recovered.jobs` being present and nonzero.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime};

use rsyn_bench::{context_with_threads, threads_flag, write_manifest};
use rsyn_circuits::build_benchmark_with;
use rsyn_core::{run, FlowContext, FlowOptions};
use rsyn_netlist::Netlist;
use rsyn_observe::manifest::Run;
use rsyn_resilience::inject::{self, InjectionPlan};
use rsyn_server::{
    digest_fingerprint, job_key, replay, report_digest, JobJournal, JobSpec, Server, ServerConfig,
    TerminalKind,
};

/// The durable job set: mixed-size work submitted once by generation 0
/// and conserved across kills. `(circuit, q, seed)` — the seeded entry
/// proves per-job seed overrides survive the journal round-trip.
const STORM_JOBS: [(&str, f64, Option<u64>); 5] = [
    ("sparc_ffu", 3.0, None),
    ("sparc_ffu", 4.0, None),
    ("sparc_ffu", 6.0, None),
    ("sparc_ffu", 7.0, Some(0x5EED)),
    ("sparc_tlu", 5.0, None),
];

/// `(q, deadline)` of the injected specials, on q values no real job uses.
const POISON_Q: f64 = 42.0;
const STALL_Q: f64 = 41.0;
const STALL_DEADLINE: Duration = Duration::from_millis(300);

/// Generations: the first `KILL_AFTER_MS.len()` are SIGKILLed at their
/// first checkpoint or completion (see [`made_progress`]), or after the given
/// delay at the latest; the last runs to completion.
const KILL_AFTER_MS: [u64; 3] = [3000, 1500, 1500];
const GENERATIONS: usize = KILL_AFTER_MS.len() + 1;

fn seed_netlist(ctx: &FlowContext, circuit: &str) -> Netlist {
    build_benchmark_with(circuit, &ctx.lib, &ctx.mapper)
        .unwrap_or_else(|| panic!("unknown benchmark {circuit}"))
}

fn storm_spec(ctx: &FlowContext, circuit: &str, q: f64, seed: Option<u64>) -> JobSpec {
    let mut spec = JobSpec::new(seed_netlist(ctx, circuit), circuit).with_q(q);
    spec.seed = seed;
    spec
}

fn poison_spec(ctx: &FlowContext) -> JobSpec {
    storm_spec(ctx, "sparc_ffu", POISON_Q, None)
}

fn stall_spec(ctx: &FlowContext) -> JobSpec {
    storm_spec(ctx, "sparc_ffu", STALL_Q, None).with_deadline(STALL_DEADLINE)
}

fn key_of(ctx: &FlowContext, spec: &JobSpec) -> u128 {
    job_key(spec, &ctx.lib).expect("benchmark netlists have canonical keys")
}

fn stats_path(dir: &Path, gen: usize) -> PathBuf {
    dir.join(format!("stats-gen{gen}.txt"))
}

// ---- Child: one server generation over the shared journal ------------

fn child_main(gen: usize, dir: &Path, injected: bool) -> ExitCode {
    let ctx = context_with_threads(1);
    let poison_key = key_of(&ctx, &poison_spec(&ctx));
    let stall_key = key_of(&ctx, &stall_spec(&ctx));

    // Durability fates: the specials are armed in every generation (the
    // jobs carry their fate with their key, wherever they recover); the
    // middle generations additionally tear/truncate journal appends. No
    // `crash_worker` ordinal here: the stall job sits at the queue head
    // of every recovery generation (High priority, earliest acceptance),
    // so an early-pickup crash would land on it and double-count against
    // its poison cap, turning the deterministic DeadlineExceeded into a
    // quarantine. Worker panics are still exercised — the poison pill
    // crashes its worker twice per generation — and the ordinal fate
    // itself is gated by server_storm and the injection-site tests.
    let _armed = injected.then(|| {
        let mut plan = InjectionPlan::new().poison_job(poison_key).stall_job(stall_key);
        if gen == 1 {
            plan = plan.tear_journal_write(1);
        }
        if gen == 2 {
            plan = plan.truncate_journal_write(1);
        }
        inject::arm(plan)
    });

    let mut cfg = ServerConfig::new(dir.join("work"));
    cfg.workers = 3;
    cfg.max_attempts = 4;
    cfg.journal_dir = Some(dir.join("journal"));
    cfg.poison_threshold = 2;
    cfg.watchdog_interval = Some(Duration::from_millis(25));
    let lib = ctx.lib.clone();
    let source = move |circuit: &str| {
        let ctx = FlowContext::new(lib.clone());
        build_benchmark_with(circuit, &ctx.lib, &ctx.mapper)
    };
    let (server, recovery) = Server::recover(cfg, ctx.lib.clone(), &source);
    eprintln!(
        "gen {gen}: recovered {} open jobs ({} already terminal, {} quarantined, \
         {} lost specs, {} damaged segments, {} records)",
        recovery.readmitted.len(),
        recovery.terminal,
        recovery.poisoned.len(),
        recovery.lost_spec,
        recovery.damaged_segments,
        recovery.records,
    );

    if gen == 0 {
        // Specials first, at High priority: they must reach a worker
        // before the storm saturates the pool (their fates — quarantine
        // and watchdog loss — are the point of this generation).
        if injected {
            for spec in [poison_spec(&ctx), stall_spec(&ctx)] {
                if server.submit(spec.with_priority(rsyn_server::Priority::High)).handle().is_none()
                {
                    eprintln!("gen 0: injected special was shed");
                    return ExitCode::FAILURE;
                }
            }
        }
        for (circuit, q, seed) in STORM_JOBS {
            if server.submit(storm_spec(&ctx, circuit, q, seed)).handle().is_none() {
                eprintln!("gen 0: storm job {circuit} q{q} was shed");
                return ExitCode::FAILURE;
            }
        }
    }

    // Run to completion; doomed generations are SIGKILLed somewhere in
    // here, which is the whole point.
    let stats = server.shutdown();
    let body = format!(
        "recovered_jobs {}\nrecovered_terminal {}\nrecovered_poisoned {}\n\
         completed {}\npoisoned {}\nlost {}\nresumes {}\njournal_compacted {}\n",
        stats.recovered_jobs,
        stats.recovered_terminal,
        stats.recovered_poisoned,
        stats.completed,
        stats.poisoned,
        stats.lost,
        stats.resumes,
        stats.journal_compacted,
    );
    if let Err(e) = std::fs::write(stats_path(dir, gen), body) {
        eprintln!("gen {gen}: writing stats: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "gen {gen}: drained clean ({} completed, {} poisoned, {} lost, {} resumes)",
        stats.completed, stats.poisoned, stats.lost, stats.resumes
    );
    ExitCode::SUCCESS
}

// ---- Parent: generations, kills, corruption, conservation ------------

/// Truncates the newest journal segment by 3 bytes: a torn tail the next
/// generation's reader must contain (one damaged record, not a wedged
/// recovery).
fn corrupt_newest_segment(dir: &Path) {
    let journal = dir.join("journal");
    let newest = std::fs::read_dir(&journal)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rsj"))
        .max();
    let Some(seg) = newest else { return };
    let Ok(bytes) = std::fs::read(&seg) else { return };
    if bytes.len() > 3 {
        let _ = std::fs::write(&seg, &bytes[..bytes.len() - 3]);
        eprintln!("parent: tore 3 bytes off {}", seg.display());
    }
}

/// True once a doomed generation has made progress worth crashing: a
/// job checkpoint under `work` was written at or after `spawned`, or a
/// job the audit has not seen complete has completed. Generation 0,
/// which submits the storm, must also have journaled all `jobs`
/// acceptances. Killing then, rather than after a fixed delay, leaves
/// jobs open for the next generation however fast the machine runs them.
fn made_progress(work: &Path, gen: usize, spawned: SystemTime, jobs: usize, audit: &Audit) -> bool {
    let (events, _, _) = JobJournal::read(&work.join("journal")).unwrap_or_default();
    let replayed = replay(&events);
    if gen == 0 && replayed.jobs.iter().filter(|job| job.spec.is_some()).count() < jobs {
        return false;
    }
    let completed = replayed.jobs.iter().any(|job| {
        matches!(job.terminal, Some(TerminalKind::Completed(_)))
            && !matches!(audit.jobs.get(&job.key), Some((_, Some(TerminalKind::Completed(_)))))
    });
    completed
        || std::fs::read_dir(work.join("work").join("jobs"))
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|job| std::fs::read_dir(job.path()).ok())
            .flatten()
            .flatten()
            .filter_map(|file| file.metadata().and_then(|m| m.modified()).ok())
            .any(|modified| modified >= spawned)
}

/// Cumulative journal audit, merged across one read per generation.
/// Needed because recovery compacts: a job's acceptance and terminal
/// vanish from the on-disk journal once a later generation has no use
/// for them, so only the union of per-generation views carries the
/// whole history the conservation law is stated over.
#[derive(Default)]
struct Audit {
    /// Per key: acceptance seen, and the winning terminal (if any).
    jobs: BTreeMap<u128, (bool, Option<TerminalKind>)>,
    /// Conflicting terminals, within one read or across reads.
    conflicts: u64,
    /// Records in the most recent (post-compaction, final) read.
    records_final: u64,
    /// Worst damage observed in any single read.
    damaged_max: u64,
}

impl Audit {
    fn absorb(&mut self, work: &Path) {
        let (events, read, undecodable) =
            JobJournal::read(&work.join("journal")).unwrap_or_default();
        let replayed = replay(&events);
        self.conflicts += replayed.duplicate_terminals;
        self.records_final = read.records;
        self.damaged_max = self.damaged_max.max(read.damaged_segments + undecodable);
        for job in &replayed.jobs {
            let entry = self.jobs.entry(job.key).or_default();
            entry.0 |= job.spec.is_some();
            match (&entry.1, &job.terminal) {
                (_, None) => {}
                (None, Some(t)) => entry.1 = Some(t.clone()),
                (Some(prev), Some(t)) if prev == t => {}
                // Re-quarantine after the corruption pass destroyed the
                // first Poisoned record may book a different crash
                // count; the *kind* still agrees, so it is idempotent.
                (Some(TerminalKind::Poisoned(_)), Some(TerminalKind::Poisoned(_))) => {}
                (Some(_), Some(_)) => self.conflicts += 1,
            }
        }
    }
}

fn read_stats(dir: &Path, gen: usize) -> BTreeMap<String, u64> {
    let mut stats = BTreeMap::new();
    if let Ok(body) = std::fs::read_to_string(stats_path(dir, gen)) {
        for line in body.lines() {
            if let Some((k, v)) = line.split_once(' ') {
                if let Ok(n) = v.trim().parse::<u64>() {
                    stats.insert(k.to_string(), n);
                }
            }
        }
    }
    stats
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_flag(&mut args);
    let injected = args.iter().position(|a| a == "--inject").map(|i| args.remove(i)).is_some();
    let child = args.iter().position(|a| a == "--child").map(|i| {
        let gen: usize = args[i + 1].parse().expect("--child takes a generation number");
        args.drain(i..=i + 1);
        gen
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
            std::env::temp_dir().join(format!("rsyn-crash-storm-{}", std::process::id()))
        });

    if let Some(gen) = child {
        return child_main(gen, &work, injected);
    }
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("work dir creates");

    let ctx = context_with_threads(threads);
    let mut manifest = Run::start("crash_storm", ctx.seed);
    manifest.record_threads(threads, ctx.atpg.effective_threads());
    let mut failures: Vec<String> = Vec::new();

    // ---- Generations --------------------------------------------------
    let exe = std::env::current_exe().expect("own executable path");
    let mut kills = 0usize;
    let mut audit = Audit::default();
    for gen in 0..GENERATIONS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--child").arg(gen.to_string()).arg("--work-dir").arg(&work);
        if injected {
            cmd.arg("--inject");
        }
        let spawned = SystemTime::now();
        let mut job = cmd.spawn().expect("child generation spawns");
        if let Some(&delay) = KILL_AFTER_MS.get(gen) {
            let start = Instant::now();
            let jobs = STORM_JOBS.len() + if injected { 2 } else { 0 };
            while start.elapsed() < Duration::from_millis(delay)
                && !made_progress(&work, gen, spawned, jobs, &audit)
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            // SIGKILL: no destructors, no flush — a real crash.
            let _ = job.kill();
            let _ = job.wait();
            kills += 1;
            eprintln!("parent: killed generation {gen} after {} ms", start.elapsed().as_millis());
            if injected && gen == 1 {
                corrupt_newest_segment(&work);
            }
        } else {
            let status = job.wait().expect("final generation is waitable");
            if !status.success() {
                failures.push(format!("final generation exited with {status}"));
            }
        }
        // Audit *before* the next generation recovers: its compaction
        // deletes whatever this generation's segments still carry. The
        // gen-1 audit runs after the corruption pass on purpose — the
        // parent must reason from exactly the bytes the next recovery
        // will see.
        audit.absorb(&work);
    }

    // ---- Conservation, from the merged per-generation audits ----------
    eprintln!(
        "parent: audited {} jobs over {GENERATIONS} journal reads \
         ({} records in the final read, worst damage {})",
        audit.jobs.len(),
        audit.records_final,
        audit.damaged_max,
    );

    let expected: Vec<(String, u128)> = STORM_JOBS
        .iter()
        .map(|&(circuit, q, seed)| {
            (format!("{circuit}-q{q}"), key_of(&ctx, &storm_spec(&ctx, circuit, q, seed)))
        })
        .collect();
    let poison_key = key_of(&ctx, &poison_spec(&ctx));
    let stall_key = key_of(&ctx, &stall_spec(&ctx));
    let mut known: Vec<u128> = expected.iter().map(|&(_, k)| k).collect();
    known.extend(injected.then_some(poison_key));
    known.extend(injected.then_some(stall_key));

    // Every accepted job terminal exactly once; nothing invented.
    if audit.conflicts != 0 {
        failures.push(format!(
            "{} conflicting terminal records — a job finished twice",
            audit.conflicts
        ));
    }
    for (&key, (_, terminal)) in &audit.jobs {
        if !known.contains(&key) {
            failures.push(format!("journal invented job {key:032x}"));
        }
        if terminal.is_none() {
            failures.push(format!("job {key:032x} was accepted but never reached a terminal"));
        }
    }

    // The storm jobs completed with fingerprints equal to direct runs.
    let poisoned_keys: Vec<u128> = audit
        .jobs
        .iter()
        .filter(|(_, (_, t))| matches!(t, Some(TerminalKind::Poisoned(_))))
        .map(|(&key, _)| key)
        .collect();
    for ((label, key), &(circuit, q, seed)) in expected.iter().zip(STORM_JOBS.iter()) {
        let Some((accepted, terminal)) = audit.jobs.get(key) else {
            failures.push(format!("storm job {label} never appeared in the journal"));
            continue;
        };
        if !accepted {
            failures.push(format!("storm job {label} never journaled an acceptance"));
            continue;
        }
        let Some(TerminalKind::Completed(fp)) = terminal else {
            failures.push(format!("storm job {label} did not complete: {terminal:?}"));
            continue;
        };
        let seeded;
        let run_ctx = match seed {
            Some(s) => {
                seeded = context_with_threads(threads).with_seed(s);
                &seeded
            }
            None => &ctx,
        };
        let mut options = FlowOptions::new(circuit, &format!("direct-{label}"));
        options.q_percent = q;
        match run(seed_netlist(&ctx, circuit), run_ctx, &options) {
            Ok(report) => {
                let direct = digest_fingerprint(&report_digest(&report));
                if *fp != direct {
                    failures.push(format!("recovered result for {label} differs from direct run"));
                }
            }
            Err(e) => failures.push(format!("direct run of {label} failed: {e}")),
        }
    }

    // Quarantine fired for exactly the injected poison job.
    if injected {
        if poisoned_keys != vec![poison_key] {
            failures.push(format!(
                "expected exactly the poison job quarantined, got {} quarantines",
                poisoned_keys.len()
            ));
        }
        match audit.jobs.get(&stall_key).and_then(|(_, t)| t.as_ref()) {
            Some(TerminalKind::DeadlineExceeded) => {}
            other => failures.push(format!("stalled job ended {other:?}, not DeadlineExceeded")),
        }
    } else if !poisoned_keys.is_empty() {
        failures.push(format!("{} jobs quarantined without a poison fate", poisoned_keys.len()));
    }

    // Recovery really happened: aggregate the surviving generations'
    // stats (SIGKILLed generations never write one — by design).
    let mut recovered_jobs = 0u64;
    let mut recovered_terminal = 0u64;
    let mut recovered_poisoned = 0u64;
    let mut resumes = 0u64;
    let mut journal_compacted = 0u64;
    for gen in 0..GENERATIONS {
        let stats = read_stats(&work, gen);
        recovered_jobs += stats.get("recovered_jobs").copied().unwrap_or(0);
        recovered_terminal += stats.get("recovered_terminal").copied().unwrap_or(0);
        recovered_poisoned += stats.get("recovered_poisoned").copied().unwrap_or(0);
        resumes += stats.get("resumes").copied().unwrap_or(0);
        journal_compacted += stats.get("journal_compacted").copied().unwrap_or(0);
    }
    if recovered_jobs == 0 {
        failures.push("no generation recovered an open job from the journal".into());
    }
    if journal_compacted == 0 {
        // The final generation recovers over a damage-free rewrite, so
        // it must have deleted the earlier generations' segments.
        failures.push("no generation compacted the journal at recovery".into());
    }
    if kills < 3 {
        failures.push(format!("only {kills} kill/recover generations ran"));
    }
    rsyn_observe::add_many(&[
        ("server.recovered.jobs", recovered_jobs),
        ("server.recovered.terminal", recovered_terminal),
        ("server.recovered.poisoned", recovered_poisoned),
        ("server.journal.compacted", journal_compacted),
    ]);

    manifest.result("generations", GENERATIONS.to_string());
    manifest.result("kills", kills.to_string());
    manifest.result("journal_records", audit.records_final.to_string());
    manifest.result("damaged_segments", audit.damaged_max.to_string());
    manifest.result("recovered_jobs", recovered_jobs.to_string());
    manifest.result("resumes", resumes.to_string());
    manifest.result("quarantined", poisoned_keys.len().to_string());
    manifest.result("journal_compacted", journal_compacted.to_string());
    write_manifest(manifest);

    let _ = std::fs::remove_dir_all(&work);
    if failures.is_empty() {
        println!(
            "crash storm ok: {kills} kills over {GENERATIONS} generations, {} jobs conserved, \
             {recovered_jobs} recoveries, {journal_compacted} segments compacted, \
             results equivalent to direct runs",
            audit.jobs.len(),
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("crash storm FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
