//! Criterion bench: placement + routing + DFM scan and translation
//! (`PDesign()` plus the sign-off scan and its violations' faults), gated by
//! the internal pre-check in the real flow.
//!
//! `dfm_extract` times `extract_faults`, which the flow calls: the scan
//! streams each violation into the translator. `dfm_scan` and
//! `dfm_translate` time the two collecting wrappers, `scan_layout` and
//! `translate_violations`, one phase each.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsyn_bench::{analyzed, context};
use rsyn_dfm::translate::translate_violations;
use rsyn_dfm::{extract_faults, scan_layout};
use rsyn_pdesign::flow::physical_design;

fn bench_pdesign(c: &mut Criterion) {
    let ctx = context();
    let mut group = c.benchmark_group("physical_design");
    group.sample_size(10);
    for name in ["sparc_tlu", "sparc_exu", "wb_conmax"] {
        let state = analyzed(name, &ctx);
        group.bench_with_input(BenchmarkId::from_parameter(name), &state, |b, state| {
            b.iter(|| physical_design(&state.nl, 0xDA7E).expect("fits"));
        });
    }
    group.finish();

    let states = ["sparc_exu", "aes_core"].map(|name| (name, analyzed(name, &ctx)));
    let mut group = c.benchmark_group("dfm_scan");
    group.sample_size(10);
    for (name, state) in &states {
        group.bench_with_input(BenchmarkId::from_parameter(name), state, |b, state| {
            b.iter(|| scan_layout(&state.pd.layout, &ctx.guidelines).len());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("dfm_extract");
    group.sample_size(10);
    for (name, state) in &states {
        group.bench_with_input(BenchmarkId::from_parameter(name), state, |b, state| {
            b.iter(|| {
                extract_faults(&state.nl, &state.pd.layout, &ctx.guidelines, &ctx.catalog).len()
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("dfm_translate");
    group.sample_size(10);
    for (name, state) in &states {
        let violations = scan_layout(&state.pd.layout, &ctx.guidelines);
        group.bench_with_input(BenchmarkId::from_parameter(name), &violations, |b, violations| {
            b.iter(|| translate_violations(&state.nl, violations).len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pdesign);
criterion_main!(benches);
