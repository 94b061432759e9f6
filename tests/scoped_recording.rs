//! Recording is scoped per thread: a thread that never entered a scope
//! records into a recorder of its own, and the ATPG workers it spawns
//! record there too. Two analyses running at once on two threads must
//! therefore each produce the manifest and event stream of their serial
//! run, with no lock between them.

use std::sync::Barrier;

use rsyn::circuits::build_benchmark_with;
use rsyn::core::flow::{DesignState, FlowContext};
use rsyn::netlist::Library;
use rsyn::observe::events::{self, Delivery};
use rsyn::observe::Run;

const CIRCUITS: [&str; 2] = ["sparc_ffu", "sparc_tlu"];

/// One analysis between `Run::start` and `Run::finish` on the calling
/// thread, watched by an unfiltered subscriber: the stable manifest and
/// the sorted payloads of every event the subscriber saw. With `overlap`,
/// every run has started before any analyses and every analysis has
/// ended before any run finishes.
fn observed_analysis(circuit: &str, overlap: Option<&Barrier>) -> (String, Vec<String>) {
    let sync = || overlap.map(Barrier::wait);
    let ctx = FlowContext::new(Library::osu018()).with_threads(2);
    let nl = build_benchmark_with(circuit, &ctx.lib, &ctx.mapper).expect("benchmark builds");
    let rx = events::subscribe_with_capacity(None, 1 << 16);
    let mut run = Run::start(circuit, ctx.seed);
    sync();
    let state = DesignState::analyze(nl, &ctx, None).expect("analysis");
    sync();
    run.result("undetectable", state.atpg.undetectable_count().to_string());
    let manifest = run.finish();
    let mut seen: Vec<String> = rx
        .drain()
        .iter()
        .map(|d| match d {
            Delivery::Event(ev) => format!("{:x} {} {}", ev.job, ev.data.kind(), ev.data.detail()),
            Delivery::Lagged { dropped } => format!("lagged {dropped}"),
        })
        .collect();
    seen.sort();
    (manifest.stable_json(), seen)
}

#[test]
fn concurrent_analyses_record_like_serial_ones() {
    let serial: Vec<_> = CIRCUITS.iter().map(|c| observed_analysis(c, None)).collect();
    let overlap = Barrier::new(CIRCUITS.len());
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let overlap = &overlap;
        let handles: Vec<_> =
            CIRCUITS.iter().map(|c| s.spawn(move || observed_analysis(c, Some(overlap)))).collect();
        handles.into_iter().map(|h| h.join().expect("analysis thread")).collect()
    });
    for ((circuit, (manifest, seen)), (serial_manifest, serial_seen)) in
        CIRCUITS.iter().zip(&concurrent).zip(&serial)
    {
        assert!(!serial_seen.is_empty(), "{circuit}: the shard loop publishes events");
        assert_eq!(manifest, serial_manifest, "{circuit}: manifest differs from its serial run");
        assert_eq!(seen, serial_seen, "{circuit}: subscriber saw another thread's events");
    }
}
