//! Criterion bench: good-machine simulation kernel throughput with one
//! pattern per call (lane 0 of a block) and with 256 (a full `LaneBlock`).
//! This is the E12 kernel-speedup experiment; see EXPERIMENTS.md for the
//! reproduce commands and the expected shape of the results.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rsyn_bench::{analyzed, context};
use rsyn_netlist::sim::ParallelSim;
use rsyn_netlist::LaneBlock;

fn bench_sim_kernel(c: &mut Criterion) {
    let ctx = context();
    let state = analyzed("sparc_tlu", &ctx);
    let view = state.nl.comb_view().unwrap();
    let npis = view.pis.len();

    // Deterministic input data, identical across cases.
    let words: Vec<u64> =
        (0..npis).map(|i| (0x9E37_79B9_7F4A_7C15u64 << (i % 13)).rotate_left(i as u32)).collect();

    let mut group = c.benchmark_group("sim_kernel");

    // Scalar: one pattern per simulate() call (lane 0 of a block) — the
    // per-pattern cost a naive simulator pays.
    group.throughput(Throughput::Elements(64));
    group.bench_with_input(BenchmarkId::from_parameter("scalar"), &state, |b, state| {
        let mut sim = ParallelSim::new(&state.nl, &view);
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..64u64 {
                let pi_vals: Vec<LaneBlock> =
                    words.iter().map(|w| LaneBlock::from_word((w >> k) & 1)).collect();
                sim.simulate(&pi_vals);
                acc ^= sim.output_values().iter().fold(0, |a, v| a ^ v.word(0));
            }
            acc
        });
    });

    // 256-lane: one LaneBlock per call (four words of patterns).
    group.throughput(Throughput::Elements(256));
    group.bench_with_input(BenchmarkId::from_parameter("256lane"), &state, |b, state| {
        let mut sim = ParallelSim::new(&state.nl, &view);
        let blocks: Vec<LaneBlock> = words
            .iter()
            .map(|&w| LaneBlock::from_words([w, w.rotate_left(17), w.rotate_left(31), !w]))
            .collect();
        b.iter(|| {
            sim.simulate(&blocks);
            sim.output_values().iter().fold(0u64, |a, v| a ^ v.word(0) ^ v.word(3))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_sim_kernel);
criterion_main!(benches);
