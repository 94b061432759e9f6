//! Criterion bench: 256-lane parallel fault simulation throughput (the
//! random-phase workhorse that drops most faults before PODEM runs). The
//! circuits span the share of ops with three or more inputs, which the
//! kernel evaluates through compiled cube covers: most of `sparc_ffu`'s
//! and `sparc_exu`'s, about a third of `systemcaes`' and `aes_core`'s, a
//! fifth of `sparc_tlu`'s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rsyn_atpg::sim::FaultSim;
use rsyn_bench::{analyzed, context};
use rsyn_netlist::{LaneBlock, LANE_WORDS};

fn bench_fault_sim(c: &mut Criterion) {
    let ctx = context();
    let mut group = c.benchmark_group("fault_sim_256lane");
    for name in ["sparc_tlu", "sparc_exu", "aes_core", "systemcaes", "sparc_ffu"] {
        let state = analyzed(name, &ctx);
        let view = state.nl.comb_view().unwrap();
        group.throughput(Throughput::Elements(state.faults.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &state, |b, state| {
            let mut sim = FaultSim::new(&state.nl, &view);
            let lanes: Vec<LaneBlock> = (0..view.pis.len())
                .map(|i| {
                    let mut b = LaneBlock::ZERO;
                    for j in 0..LANE_WORDS {
                        b.set_word(j, (0x9E37_79B9u64 << (i % 8)).rotate_left(j as u32 * 13));
                    }
                    b
                })
                .collect();
            sim.set_patterns(&lanes);
            b.iter(|| {
                let mut detected = 0u64;
                for fault in &state.faults {
                    detected += u64::from(sim.detect_lanes(fault).any());
                }
                detected
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fault_sim);
criterion_main!(benches);
