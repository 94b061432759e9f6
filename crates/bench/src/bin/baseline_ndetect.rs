//! E8 — the alternative the paper argues against (Section I, refs
//! \[14\]/\[15\]): instead of resynthesizing, generate *additional tests* for
//! the detectable faults adjacent to undetectable ones, so the uncovered
//! areas get more incidental coverage. The paper's point: for
//! DFM-guideline defects this requires "a significant number of additional
//! test patterns … an excessive increase in the size of the test set",
//! while resynthesis keeps the test count roughly flat.
//!
//! We implement the N-detect form: every fault adjacent to an undetectable
//! fault must be detected by at least N distinct tests.
//!
//! Usage: `cargo run --release -p rsyn-bench --bin baseline_ndetect [circuit]`

use std::collections::HashSet;

use rsyn_atpg::engine::{targets_of, BACKTRACK_LIMIT};
use rsyn_atpg::fault::FaultStatus;
use rsyn_atpg::podem::{Podem, PodemOutcome};
use rsyn_atpg::sim::FaultSim;
use rsyn_bench::{analyzed, context, write_manifest};
use rsyn_cluster::gates_of_fault;
use rsyn_netlist::LANE_WORDS;
use rsyn_observe::manifest::Run;

fn main() {
    let circuit = std::env::args().nth(1).unwrap_or_else(|| "sparc_exu".to_string());
    let ctx = context();
    let mut run = Run::start("baseline_ndetect", ctx.seed);
    run.record_threads(0, ctx.atpg.effective_threads());
    let state = analyzed(&circuit, &ctx);
    let view = state.nl.comb_view().unwrap();
    let base_tests = state.atpg.tests.len();

    // Gates touched by undetectable faults.
    let hot: HashSet<_> = state
        .atpg
        .undetectable_indices()
        .into_iter()
        .flat_map(|i| gates_of_fault(&state.nl, &state.faults[i]))
        .collect();
    // Detectable faults adjacent to those gates (sharing or driving them).
    let adjacent: Vec<usize> = state
        .faults
        .iter()
        .enumerate()
        .filter(|(i, _)| state.atpg.statuses[*i] == FaultStatus::Detected)
        .filter(|(_, f)| {
            gates_of_fault(&state.nl, f).iter().any(|g| {
                hot.contains(g)
                    || state.nl.fanout_gates(*g).iter().any(|s| hot.contains(s))
                    || state.nl.fanin_gates(*g).iter().any(|s| hot.contains(s))
            })
        })
        .map(|(i, _)| i)
        .collect();
    println!(
        "{circuit}: U = {}, adjacent detectable faults = {}, base test count = {base_tests}",
        state.undetectable_count(),
        adjacent.len()
    );
    println!("{:<4} {:>12} {:>10}", "N", "total tests", "vs base");

    let mut sim = FaultSim::new(&state.nl, &view);
    for n in [1usize, 3, 5] {
        // Count detections of each adjacent fault under the base test set
        // (four non-overlapping 64-test windows per 256-lane call).
        let n_tests = state.atpg.tests.len();
        let mut detections = vec![0usize; state.faults.len()];
        let mut base = 0usize;
        while base < n_tests {
            let offsets: Vec<usize> =
                (0..LANE_WORDS).map(|j| base + 64 * j).filter(|&o| o < n_tests).collect();
            let lanes = state.atpg.tests.lane_blocks(&offsets, view.pis.len());
            sim.set_patterns(&lanes);
            for &fi in &adjacent {
                let det = sim.detect_lanes(&state.faults[fi]);
                for (j, &offset) in offsets.iter().enumerate() {
                    let lanes_hit = det.word(j).count_ones() as usize;
                    let valid = (n_tests - offset).min(64);
                    detections[fi] += lanes_hit.min(valid);
                }
            }
            base += 64 * LANE_WORDS;
        }
        // Top up each adjacent fault to N detections with fresh tests.
        let mut podem = Podem::new(&state.nl, &view, BACKTRACK_LIMIT);
        let mut extra = 0usize;
        for &fi in &adjacent {
            let mut have = detections[fi];
            let mut seed = 1u64;
            while have < n && seed < n as u64 * 4 {
                let targets = targets_of(&state.faults[fi]);
                let mut got = false;
                for t in &targets {
                    if let PodemOutcome::Detected(_) =
                        podem.run_with_fill(t, Some(seed ^ fi as u64))
                    {
                        got = true;
                        break;
                    }
                }
                if got {
                    have += 1;
                    extra += 1;
                }
                seed += 1;
            }
        }
        println!(
            "{:<4} {:>12} {:>9.2}x",
            n,
            base_tests + extra,
            (base_tests + extra) as f64 / base_tests as f64
        );
        run.result(format!("{circuit}.n{n}.tests"), (base_tests + extra).to_string());
    }
    run.result(format!("{circuit}.base.tests"), base_tests.to_string());
    run.result(format!("{circuit}.adjacent"), adjacent.len().to_string());
    write_manifest(run);
    println!(
        "(compare: the resynthesis procedure keeps T roughly flat while removing the \
         undetectable faults themselves — Table II)"
    );
}
