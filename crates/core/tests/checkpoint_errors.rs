//! A checkpoint directory that cannot be created is absorbed by the
//! resilient flow driver ([`rsyn_core::run`]): every accepted iteration
//! records one recoverable [`FlowError::Checkpoint`], and the run ends on
//! the design it reaches without checkpoints.

use rsyn_circuits::build_benchmark_with;
use rsyn_core::flow::FlowContext;
use rsyn_core::run::{run, FlowError, FlowOptions};
use rsyn_netlist::verilog::write_verilog;
use rsyn_netlist::Library;

#[test]
fn checkpoint_write_failures_are_absorbed_per_iteration() {
    let ctx = FlowContext::new(Library::osu018());
    let seed = build_benchmark_with("sparc_ffu", &ctx.lib, &ctx.mapper).expect("benchmark builds");
    let clean = run(seed.clone(), &ctx, &FlowOptions::new("sparc_ffu", "clean")).expect("clean");
    assert!(clean.accepted >= 1, "the run must reach a checkpoint boundary");

    // A directory below a regular file can never be created.
    let file = std::env::temp_dir().join(format!("rsyn-core-ckfile-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("scratch file");
    let dir = file.join("checkpoints");
    let mut options = FlowOptions::new("sparc_ffu", "unwritable");
    options.checkpoint_dir = Some(dir.clone());
    let (report, errors) = {
        let _scope = rsyn_observe::child_scope();
        let report = run(seed, &ctx, &options).expect("checkpoint errors are recoverable");
        (report, rsyn_observe::counter("flow.checkpoint_errors"))
    };
    let _ = std::fs::remove_file(&file);

    assert_eq!(report.recovered.len(), report.accepted, "{:?}", report.recovered);
    assert!(
        report.recovered.iter().all(|e| matches!(e, FlowError::Checkpoint { .. })),
        "{:?}",
        report.recovered
    );
    assert_eq!(errors, report.accepted as u64);
    assert_eq!(report.checkpoints_written, 0);
    assert!(!dir.exists());

    assert_eq!(report.accepted, clean.accepted);
    assert_eq!(report.state.undetectable_count(), clean.state.undetectable_count());
    assert_eq!(report.state.delay_ps().to_bits(), clean.state.delay_ps().to_bits());
    assert_eq!(report.state.power_uw().to_bits(), clean.state.power_uw().to_bits());
    assert_eq!(write_verilog(&report.state.nl), write_verilog(&clean.state.nl));
}
