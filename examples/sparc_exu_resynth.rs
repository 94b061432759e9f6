//! The paper's headline flow on one OpenSPARC-style block: analyse the
//! original design, sweep the allowed delay/power increase `q` from 0 to
//! 5%, and print the before/after Table II rows.
//!
//! Run with: `cargo run --release --example sparc_exu_resynth [circuit] [max_q]`

use std::time::Instant;

use rsyn::circuits::build_benchmark_with;
use rsyn::core::flow::{DesignState, FlowContext};
use rsyn::core::report::Table2Row;
use rsyn::core::resynth::{run_q_sweep, ResynthOptions};
use rsyn::netlist::Library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = std::env::args().nth(1).unwrap_or_else(|| "sparc_exu".to_string());
    let max_q: u32 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    let lib = Library::osu018();
    let ctx = FlowContext::new(lib.clone());
    let nl = build_benchmark_with(&circuit, &lib, &ctx.mapper)
        .ok_or_else(|| format!("unknown circuit {circuit}"))?;

    println!("analysing original {circuit} ({} gates)…", nl.gate_count());
    let t0 = Instant::now();
    let original = DesignState::analyze(nl, &ctx, None)?;
    let baseline_seconds = t0.elapsed().as_secs_f64();
    println!("{}", Table2Row::header());
    println!("{}", Table2Row::original(&circuit, &original));

    println!("running the two-phase resynthesis procedure, q = 0..={max_q}…");
    let sweep = run_q_sweep(&original, &ctx, &ResynthOptions::default(), max_q);
    for (q, state) in &sweep.per_q {
        println!(
            "  after q = {q}%: U = {}, Smax = {}, coverage = {:.2}%, delay = {:.1}%, power = {:.1}%",
            state.undetectable_count(),
            state.s_max_size(),
            100.0 * state.coverage(),
            100.0 * state.delay_ps() / original.delay_ps(),
            100.0 * state.power_uw() / original.power_uw(),
        );
    }
    println!("{}", Table2Row::resynthesized(&circuit, &original, &sweep, baseline_seconds));
    Ok(())
}
