//! Criterion bench: thread-count sweep of the parallel fault-evaluation
//! engine, and the incremental path against a full
//! re-evaluation, on a no-op change set and on a real candidate — the two
//! levers that keep the Section III-B candidate loop cheap (motivated by
//! the in-design DFM scoring flows of PAPERS.md, which only work when
//! per-candidate analysis is fast).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rsyn_atpg::engine::{run_atpg, AtpgOptions};
use rsyn_atpg::incremental::{run_atpg_incremental, PreviousEvaluation};
use rsyn_bench::{analyzed, context};
use rsyn_core::flow::{DesignState, FlowContext};
use rsyn_core::resynth::MAP_BLEND;
use rsyn_logic::map::MapOptions;
use rsyn_logic::Window;
use rsyn_netlist::{CellClass, CellId, GateId, Netlist};

/// Fault-sharded engine at 1, 2, 4, and 8 workers on one circuit's full
/// DFM fault set. Results are bit-identical across rows (asserted by the
/// engine's proptests); only the wall clock should move.
fn bench_threads_sweep(c: &mut Criterion) {
    let ctx = context();
    let state = analyzed("sparc_exu", &ctx);
    let view = state.nl.comb_view().unwrap();
    let mut group = c.benchmark_group("threads_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(state.faults.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        let options = AtpgOptions::default().with_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &state, |b, state| {
            b.iter(|| run_atpg(&state.nl, &view, &state.faults, &options));
        });
    }
    group.finish();
}

/// Incremental re-evaluation against a full ATPG re-run on the same fault
/// set, with an empty change set: the pure carry-over overhead of
/// matching by kind, and nothing to re-run. Real candidates re-check
/// about a third of the faults; see `candidate`.
fn bench_incremental_vs_full(c: &mut Criterion) {
    let ctx = context();
    let state = analyzed("sparc_tlu", &ctx);
    let view = state.nl.comb_view().unwrap();
    let options = AtpgOptions::default();
    let mut group = c.benchmark_group("reeval");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("full"), &state, |b, state| {
        b.iter(|| run_atpg(&state.nl, &view, &state.faults, &options));
    });
    group.bench_with_input(BenchmarkId::from_parameter("incremental"), &state, |b, state| {
        let previous = PreviousEvaluation::new(&state.faults, &state.atpg);
        b.iter(|| run_atpg_incremental(&state.nl, &view, &state.faults, &options, &previous, &[]));
    });
    group.finish();
}

/// A real Table II candidate: the first remap the sweep takes through ATPG
/// on `sparc_ffu`, analysed incrementally against the base design and in
/// full, both inside the base floorplan. Each analysis includes `PDesign()`
/// and DFM extraction, as in the sweep. (Every eligible prefix on the
/// phase-1 window fails placement there, so this is the first one on the
/// phase-2 window.)
fn bench_candidate(c: &mut Criterion) {
    let ctx = context();
    let base = analyzed("sparc_ffu", &ctx);
    let fp = base.pd.placement.floorplan();
    let fixed = || Some((fp, Some(&base.pd.placement)));
    let previous = PreviousEvaluation::new(&base.faults, &base.atpg);
    let (nl, new_gates) = first_candidate(&ctx, &base, |nl, new_gates| {
        DesignState::analyze_incremental(nl.clone(), &ctx, fixed(), &previous, new_gates).is_ok()
    });
    rsyn_observe::reset();
    DesignState::analyze_incremental(nl.clone(), &ctx, fixed(), &previous, &new_gates).unwrap();
    let rerun = rsyn_observe::counter("atpg.incremental.rerun");
    let carried = rsyn_observe::counter("atpg.incremental.carried");
    println!(
        "reeval/candidate: {} gates remapped, {rerun} of {} faults re-run",
        new_gates.len(),
        rerun + carried
    );
    let mut group = c.benchmark_group("reeval");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("candidate", "full"), |b| {
        b.iter(|| DesignState::analyze(nl.clone(), &ctx, fixed()).unwrap());
    });
    group.bench_function(BenchmarkId::new("candidate", "incremental"), |b| {
        b.iter(|| {
            DesignState::analyze_incremental(nl.clone(), &ctx, fixed(), &previous, &new_gates)
                .unwrap()
        });
    });
    group.finish();
}

/// The first candidate of the sweep's first iteration that reaches ATPG.
/// Windows are tried in phase order — the `G_max` gates, then the `G_U`
/// gates, each narrowed to gates with undetectable internal faults — and
/// each window's cells as the sweep's cell loop does: ban the cell order's
/// prefix through a cell the window uses, keep a complete remaining
/// library, remap the window gates of banned cells, and require the
/// pre-`PDesign()` check (a smaller syndrome-free weight) and `placed`
/// (the floorplan fit). Returns the remapped netlist and its new gates.
fn first_candidate(
    ctx: &FlowContext,
    base: &DesignState,
    placed: impl Fn(&Netlist, &[GateId]) -> bool,
) -> (Netlist, Vec<GateId>) {
    let order = ctx.catalog.cells_by_internal_faults(&ctx.lib);
    let map_options = MapOptions::blend(MAP_BLEND);
    let cell_of = |g: GateId| base.nl.gate(g).expect("live").cell;
    let weight = |nl: &Netlist, gates: &[GateId]| -> usize {
        gates.iter().map(|&g| ctx.catalog.syndrome_free_count(nl.gate(g).expect("live").cell)).sum()
    };
    for sub in [base.g_max(), base.g_u()] {
        let window = base.gates_with_undetectable_internal(&sub);
        for i in 0..order.len() {
            if !window.iter().any(|&g| cell_of(g) == order[i]) {
                continue;
            }
            let allowed: Vec<CellId> = order[i + 1..]
                .iter()
                .copied()
                .filter(|&c| ctx.lib.cell(c).class == CellClass::Comb)
                .collect();
            let mut mask = vec![false; ctx.lib.len()];
            for &c in &allowed {
                mask[c.index()] = true;
            }
            if !ctx.mapper.is_complete(&mask) {
                continue;
            }
            let window_i: Vec<GateId> =
                window.iter().copied().filter(|&g| order[..=i].contains(&cell_of(g))).collect();
            let mut nl = base.nl.clone();
            let extracted = Window::extract(&nl, &window_i);
            let Ok(new_gates) =
                extracted.resynthesize_with(&mut nl, &ctx.mapper, &allowed, &map_options)
            else {
                continue;
            };
            if weight(&nl, &new_gates) < weight(&base.nl, &extracted.gates)
                && placed(&nl, &new_gates)
            {
                return (nl, new_gates);
            }
        }
    }
    panic!("sparc_ffu has no candidate that reaches ATPG");
}

criterion_group!(benches, bench_threads_sweep, bench_incremental_vs_full, bench_candidate);
criterion_main!(benches);
