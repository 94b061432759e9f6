//! E2 — regenerates the paper's **Table II** (the main result): for every
//! benchmark, the original design row and the resynthesized row obtained
//! with the largest `q` in `0..=max_q` that improves coverage.
//!
//! Usage: `cargo run --release -p rsyn-bench --bin table2
//! [--max-q N] [--q-step N] [--threads N] [circuit…]`
//!
//! The table on stdout is byte-identical for any `--threads` value; a
//! `runtime:` provenance line per circuit goes to stderr.

use std::time::Instant;

use rsyn_bench::{context_with_threads, parse_args, threads_flag, write_manifest};
use rsyn_circuits::build_benchmark_with;
use rsyn_core::flow::DesignState;
use rsyn_core::report::{average_rows, RuntimeReport, Table2Row};
use rsyn_core::resynth::{run_q_sweep_stepped, ResynthOptions};
use rsyn_observe::manifest::Run;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = threads_flag(&mut args);
    let mut q_step = 1u32;
    if let Some(i) = args.iter().position(|a| a == "--q-step") {
        if i + 1 < args.len() {
            q_step = args[i + 1].parse().unwrap_or(1);
            args.drain(i..=i + 1);
        }
    }
    let (max_q, circuits) = parse_args(&args);
    let ctx = context_with_threads(threads);
    let mut run = Run::start("table2", ctx.seed);
    run.record_threads(threads, ctx.atpg.effective_threads());
    let options = ResynthOptions::default();

    println!(
        "TABLE II. EXPERIMENTAL RESULTS  (q swept 0..={max_q} step {q_step}, p1 = {}%)",
        options.p1_percent
    );
    println!("{}", Table2Row::header());
    let mut orig_rows = Vec::new();
    let mut resyn_rows = Vec::new();
    for name in &circuits {
        let nl = build_benchmark_with(name, &ctx.lib, &ctx.mapper)
            .unwrap_or_else(|| panic!("unknown benchmark {name}"));
        // `Rtime`'s unit: one synthesis-free `PDesign()` + test generation.
        let t0 = Instant::now();
        let original = DesignState::analyze(nl, &ctx, None).expect("analysis succeeds");
        let baseline_seconds = t0.elapsed().as_secs_f64();
        let orig_row = Table2Row::original(name, &original);
        println!("{orig_row}");
        let sweep = run_q_sweep_stepped(&original, &ctx, &options, max_q, q_step);
        let resyn_row = Table2Row::resynthesized(name, &original, &sweep, baseline_seconds);
        println!("{resyn_row}");
        eprintln!("{name}: {}", RuntimeReport::of(&ctx, &sweep, baseline_seconds));
        let resyn = sweep.final_state();
        run.result(format!("{name}.orig.undetectable"), original.undetectable_count().to_string());
        run.result_f64(format!("{name}.orig.coverage"), original.coverage());
        run.result(format!("{name}.resyn.undetectable"), resyn.undetectable_count().to_string());
        run.result_f64(format!("{name}.resyn.coverage"), resyn.coverage());
        run.result(format!("{name}.chosen_q"), sweep.chosen_q.to_string());
        run.result(format!("{name}.full_evaluations"), sweep.full_evaluations.to_string());
        orig_rows.push(orig_row);
        resyn_rows.push(resyn_row);
    }
    if orig_rows.len() > 1 {
        println!("{}", average_rows("orig", &orig_rows));
        println!("{}", average_rows("resyn", &resyn_rows));
    }
    write_manifest(run);
}
