//! Structured-tracing bench bin: runs the resilient flow once with
//! tracing armed, exports the timeline, and prints a top-down wall-time
//! attribution report.
//!
//! ```text
//! trace_report [--threads N] [--out DIR] [--server] [circuit]
//! ```
//!
//! With `--server` the flow runs through a one-worker `rsyn-server`
//! instead of calling `rsyn_core::run` directly, so the report also
//! attributes the service layer: the worker's `server.job.execute` zone
//! nests the whole flow in the tree. Server mode writes
//! `BENCH_flow_server.json` so the checked-in `BENCH_flow.json`
//! baseline diff is untouched.
//!
//! Artifacts written into `--out` (default `.`):
//!
//! * `BENCH_flow.json` — the full run manifest (deterministic counters +
//!   histograms, key results, volatile wall times). The stable section is
//!   byte-identical across `--threads` values; `scripts/verify.sh` gates
//!   on that and diffs the file against the checked-in `BENCH_flow.json`
//!   baseline with per-prefix regression bands (`check_manifest --band`).
//! * `trace.json` — Chrome Trace Event Format, loadable directly in
//!   `ui.perfetto.dev` or `chrome://tracing`: nested spans/zones per
//!   thread, per-fault and per-iteration zones carrying `args.id`.
//!
//! The stdout report shows the top-down attribution tree (nesting
//! reconstructed from timestamp containment per thread), the PODEM phase
//! split (implication, X-path evaluation, objective, backtrace), the
//! slowest PODEM faults, the slowest resynthesis iterations, and every
//! deterministic histogram summarised with bucket-interpolated quantiles.
//!
//! Exit status: 0 on success, 1 when the flow fails or the trace came
//! back empty, 2 on usage errors.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use rsyn_bench::{context_with_threads, threads_flag};
use rsyn_circuits::build_benchmark_with;
use rsyn_core::run::{run, FlowOptions};
use rsyn_observe::manifest::Run;
use rsyn_observe::{hist, trace, Hist};
use rsyn_server::{JobOutcome, JobSpec, Server, ServerConfig};

/// One node of the attribution tree: a name path from the thread root,
/// with total wall time and call count aggregated over every thread.
type Agg = HashMap<Vec<&'static str>, (u64, u64)>;

/// Rebuilds the nesting from timestamp containment (events are sorted by
/// (tid, start, longest-first), so a stack walk suffices) and aggregates
/// (total_ns, calls) per name path.
fn aggregate(trace: &trace::Trace) -> Agg {
    let mut agg: Agg = HashMap::new();
    for tid in trace.tids() {
        let mut stack: Vec<(u64, &'static str)> = Vec::new();
        for e in trace.events.iter().filter(|e| e.tid == tid) {
            while stack.last().is_some_and(|&(end, _)| e.ts_ns >= end) {
                stack.pop();
            }
            let mut path: Vec<&'static str> = stack.iter().map(|&(_, n)| n).collect();
            path.push(e.name);
            let entry = agg.entry(path).or_insert((0, 0));
            entry.0 += e.dur_ns;
            entry.1 += 1;
            stack.push((e.ts_ns.saturating_add(e.dur_ns), e.name));
        }
    }
    agg
}

fn print_tree(agg: &Agg, parent: &[&'static str], depth: usize) {
    let mut children: Vec<(&Vec<&'static str>, &(u64, u64))> = agg
        .iter()
        .filter(|(path, _)| path.len() == parent.len() + 1 && path.starts_with(parent))
        .collect();
    children.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    for (path, &(total_ns, calls)) in children {
        let name = path.last().expect("non-empty path");
        println!(
            "{:indent$}{name:<width$} {:>10.3} ms  {calls:>7} calls",
            "",
            total_ns as f64 / 1e6,
            indent = depth * 2,
            width = 36usize.saturating_sub(depth * 2),
        );
        print_tree(agg, path, depth + 1);
    }
}

/// Prints the top `n` events named `pick` (or with the given name prefix)
/// by duration, with their producer ids.
fn print_slowest(trace: &trace::Trace, title: &str, pick: &dyn Fn(&str) -> bool, n: usize) {
    let mut hits: Vec<&trace::TraceEvent> = trace.events.iter().filter(|e| pick(e.name)).collect();
    if hits.is_empty() {
        return;
    }
    hits.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(a.ts_ns.cmp(&b.ts_ns)));
    println!("\n{title}:");
    for e in hits.iter().take(n) {
        let id = e.id.map_or_else(String::new, |i| format!("id {i:>6}  "));
        println!("  {}{:<28} {:>10.3} ms  (tid {})", id, e.name, e.dur_ns as f64 / 1e6, e.tid);
    }
}

/// Prints the PODEM phase split — the `atpg.podem.*_ms` volatiles the
/// engine accumulates while tracing is armed, and the nested `atpg.sat`
/// span — as shares of the summed `atpg.podem` span time.
fn print_podem_phases(timings: &BTreeMap<String, f64>) {
    let Some(&wall) = timings.get("span.atpg.podem.wall_ms") else { return };
    println!("\nPODEM phase split (span.atpg.podem.wall_ms {wall:.3} ms):");
    let sat = timings.get("span.atpg.sat.wall_ms").map(|&ms| ("sat", ms));
    let phases = ["imply", "xpath", "objective", "backtrace"]
        .into_iter()
        .filter_map(|phase| timings.get(&format!("atpg.podem.{phase}_ms")).map(|&ms| (phase, ms)));
    for (phase, ms) in phases.chain(sat) {
        println!("  {phase:<12} {ms:>10.3} ms  {:>5.1}%", 100.0 * ms / wall.max(f64::MIN_POSITIVE));
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_flag(&mut args);
    let mut out_dir = PathBuf::from(".");
    if let Some(i) = args.iter().position(|a| a == "--out") {
        if i + 1 >= args.len() {
            eprintln!("--out needs a directory");
            return ExitCode::from(2);
        }
        out_dir = PathBuf::from(&args[i + 1]);
        args.drain(i..=i + 1);
    }
    let server_mode = args.iter().position(|a| a == "--server").map(|i| args.remove(i)).is_some();
    let circuit = args.first().map_or("sparc_tlu", String::as_str).to_string();

    let ctx = context_with_threads(threads);
    let options = FlowOptions::new(&circuit, "flow");
    let Some(nl) = build_benchmark_with(&circuit, &ctx.lib, &ctx.mapper) else {
        eprintln!("unknown benchmark {circuit}");
        return ExitCode::from(2);
    };

    let mut manifest = Run::start(if server_mode { "flow_server" } else { "flow" }, ctx.seed);
    manifest.record_threads(threads, ctx.atpg.effective_threads());
    trace::start();
    let report: Result<Arc<_>, String> = if server_mode {
        // One worker, journaling off: the trace shows the service layer
        // (`server.job.execute` nesting the flow) with no scheduling
        // noise from sibling jobs.
        let work = std::env::temp_dir().join(format!("rsyn-trace-server-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        let mut cfg = ServerConfig::new(&work);
        cfg.workers = 1;
        cfg.atpg_threads = ctx.atpg.effective_threads();
        cfg.journal_dir = None;
        let server = Server::start(cfg, ctx.lib.clone());
        let handle = server.submit(JobSpec::new(nl, &circuit)).handle().expect("queued").clone();
        let outcome = handle.wait();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&work);
        match outcome {
            JobOutcome::Completed(report) => Ok(report),
            other => Err(format!("server job ended {}", other.label())),
        }
    } else {
        run(nl, &ctx, &options).map(Arc::new).map_err(|e| e.to_string())
    };
    let collected = trace::stop();

    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace_report FAILED: flow returned a fatal error: {e}");
            return ExitCode::FAILURE;
        }
    };

    manifest.result("accepted", report.accepted.to_string());
    manifest.result("aborted", report.aborted.to_string());
    manifest.result("recovered", report.recovered.len().to_string());
    manifest.result("undetectable", report.state.undetectable_count().to_string());
    manifest.result_f64("coverage", report.state.coverage());
    manifest.result_f64("delay_ps", report.state.delay_ps());
    manifest.result_f64("power_uw", report.state.power_uw());
    let manifest = manifest.finish();

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let bench_path =
        out_dir.join(if server_mode { "BENCH_flow_server.json" } else { "BENCH_flow.json" });
    if let Err(e) = std::fs::write(&bench_path, manifest.to_json()) {
        eprintln!("cannot write {}: {e}", bench_path.display());
        return ExitCode::from(2);
    }
    eprintln!("bench manifest: {}", bench_path.display());
    match collected.write_chrome(out_dir.join("trace.json")) {
        Ok(path) => eprintln!("chrome trace:   {}", path.display()),
        Err(e) => {
            eprintln!("cannot write trace.json: {e}");
            return ExitCode::from(2);
        }
    }

    println!(
        "flow `{circuit}` (threads {threads}): accepted {}, U {}, coverage {:.4}",
        report.accepted,
        report.state.undetectable_count(),
        report.state.coverage(),
    );

    println!("\ntop-down wall-time attribution ({} events):", collected.events.len());
    let agg = aggregate(&collected);
    print_tree(&agg, &[], 0);
    print_podem_phases(&manifest.timings);

    print_slowest(&collected, "slowest faults", &|n| n == "atpg.fault", 10);
    print_slowest(
        &collected,
        "slowest resynthesis iterations",
        &|n| n.starts_with("resynth.iter."),
        10,
    );

    let names = hist::names(&manifest.counters);
    if !names.is_empty() {
        println!("\ndeterministic histograms:");
        for name in names {
            let Some(h) = Hist::from_counters(&manifest.counters, &name) else { continue };
            println!(
                "  {name:<36} n {:>7}  min {:>6}  p50 {:>6}  p90 {:>6}  max {:>8}  mean {:.1}",
                h.count,
                h.min,
                h.quantile(0.5),
                h.quantile(0.9),
                h.max,
                h.mean(),
            );
        }
    }

    if collected.events.is_empty() {
        eprintln!("trace_report FAILED: tracing produced no events");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
