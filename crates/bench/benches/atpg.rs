//! Criterion bench: full ATPG (random phase + PODEM + compaction) on the
//! benchmark circuits' complete DFM fault sets — the kernel behind every
//! Table I / Table II cell — plus a worker-thread sweep demonstrating the
//! parallel engine's speedup on the same workload, and PODEM alone over
//! the faults a random phase leaves undetected.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsyn_atpg::engine::{run_atpg, targets_of, AtpgOptions, BACKTRACK_LIMIT, RANDOM_WORDS};
use rsyn_atpg::fault::Fault;
use rsyn_atpg::podem::Podem;
use rsyn_atpg::sim::FaultSim;
use rsyn_bench::{analyzed, context};
use rsyn_netlist::{LaneBlock, LANE_WORDS};

fn bench_atpg(c: &mut Criterion) {
    let ctx = context();
    let mut group = c.benchmark_group("atpg_full");
    group.sample_size(10);
    // systemcaes is the circuit of `perf`'s compaction workload
    // (`analyze_compact`).
    for name in ["sparc_tlu", "sparc_exu", "systemcaes"] {
        let state = analyzed(name, &ctx);
        let view = state.nl.comb_view().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &state, |b, state| {
            b.iter(|| run_atpg(&state.nl, &view, &state.faults, &AtpgOptions::default()));
        });
    }
    group.finish();
}

fn bench_atpg_threads(c: &mut Criterion) {
    let ctx = context();
    let mut group = c.benchmark_group("atpg_threads");
    group.sample_size(10);
    for name in ["sparc_tlu", "sparc_exu"] {
        let state = analyzed(name, &ctx);
        let view = state.nl.comb_view().unwrap();
        for threads in [1usize, 2, 4, 8] {
            let options = AtpgOptions::default().with_threads(threads);
            group.bench_with_input(BenchmarkId::new(name, threads), &state, |b, state| {
                b.iter(|| run_atpg(&state.nl, &view, &state.faults, &options));
            });
        }
    }
    group.finish();
}

/// PODEM only: every target of every fault that survives the random
/// phase's pattern count ([`RANDOM_WORDS`] words of 64 patterns), searched
/// at [`BACKTRACK_LIMIT`] (the faults it gives up on, SAT decides in the
/// engine).
fn bench_podem(c: &mut Criterion) {
    let ctx = context();
    let options = AtpgOptions::default();
    let mut group = c.benchmark_group("podem");
    group.sample_size(10);
    let state = analyzed("sparc_tlu", &ctx);
    let view = state.nl.comb_view().unwrap();
    let mut sim = FaultSim::new(&state.nl, &view);
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut detected = vec![false; state.faults.len()];
    for _ in 0..RANDOM_WORDS.div_ceil(LANE_WORDS) {
        let lanes: Vec<LaneBlock> = (0..view.pis.len())
            .map(|_| {
                let mut b = LaneBlock::ZERO;
                for j in 0..LANE_WORDS {
                    b.set_word(j, rng.gen());
                }
                b
            })
            .collect();
        sim.set_patterns(&lanes);
        for (fi, fault) in state.faults.iter().enumerate() {
            detected[fi] |= sim.detect_lanes(fault).any();
        }
    }
    let survivors: Vec<&Fault> =
        state.faults.iter().zip(&detected).filter(|(_, &d)| !d).map(|(f, _)| f).collect();
    group.bench_function(BenchmarkId::new("sparc_tlu", survivors.len()), |b| {
        b.iter(|| {
            let mut podem = Podem::new(&state.nl, &view, BACKTRACK_LIMIT);
            for fault in &survivors {
                for target in targets_of(fault) {
                    criterion::black_box(podem.run(&target));
                }
            }
            podem.backtracks()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_atpg, bench_atpg_threads, bench_podem);
criterion_main!(benches);
