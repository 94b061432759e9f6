//! E7 — the paper's `p1` calibration (Section III-B): the phase-1
//! termination target balances how far phase 1 pushes the largest cluster
//! against how much work is left for phase 2. The paper settles on
//! `p1 = 1%`.
//!
//! Usage: `cargo run --release -p rsyn-bench --bin sweep_p1 [circuit]`

use rsyn_bench::{analyzed, context, write_manifest};
use rsyn_core::constraints::DesignConstraints;
use rsyn_core::resynth::{resynthesize, Phase, ResynthOptions};
use rsyn_observe::manifest::Run;

fn main() {
    let circuit = std::env::args().nth(1).unwrap_or_else(|| "sparc_exu".to_string());
    let ctx = context();
    let mut run = Run::start("sweep_p1", ctx.seed);
    run.record_threads(0, ctx.atpg.effective_threads());
    let original = analyzed(&circuit, &ctx);
    let constraints = DesignConstraints::from_original(&original, 5.0);
    println!(
        "p1 sweep on {circuit} (q = 5%): original U = {}, Smax = {} ({:.2}% of F)",
        original.undetectable_count(),
        original.s_max_size(),
        original.s_max_percent_of_f()
    );
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8} {:>11} {:>9}",
        "p1 %", "iters-1", "iters-2", "U", "Smax", "%Smax_all", "evals"
    );
    for p1 in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let options = ResynthOptions { p1_percent: p1 };
        let out = resynthesize(&original, &ctx, &constraints, &options);
        let i1 = out.trace.iter().filter(|t| t.phase == Phase::One).count();
        let i2 = out.trace.iter().filter(|t| t.phase == Phase::Two).count();
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>10.2}% {:>9}",
            p1,
            i1,
            i2,
            out.state.undetectable_count(),
            out.state.s_max_size(),
            out.state.s_max_percent_of_f(),
            out.full_evaluations
        );
        run.result(
            format!("{circuit}.p1_{p1}.undetectable"),
            out.state.undetectable_count().to_string(),
        );
        run.result(format!("{circuit}.p1_{p1}.smax"), out.state.s_max_size().to_string());
    }
    write_manifest(run);
}
