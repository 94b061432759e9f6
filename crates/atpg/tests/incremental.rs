//! Integration tests for the incremental ATPG path: the verify/compact
//! pass as a safety net for stale carried verdicts, and thread-count
//! independence of the observability counters that CI's manifest gate
//! relies on.

use rsyn_atpg::engine::{run_atpg, AtpgOptions};
use rsyn_atpg::fault::{Fault, FaultKind, FaultStatus};
use rsyn_atpg::incremental::{run_atpg_incremental, verify_and_compact, PreviousEvaluation};
use rsyn_netlist::{Library, Netlist};
use rsyn_observe::manifest::Run;

fn stuck_at_faults(nl: &Netlist) -> Vec<Fault> {
    let mut out = Vec::new();
    for (id, net) in nl.nets() {
        if matches!(net.driver, Some(rsyn_netlist::Driver::Gate(..))) {
            for v in [false, true] {
                out.push(Fault::external(FaultKind::StuckAt { net: id, value: v }, 0));
            }
        }
    }
    out
}

/// Two independent output cones — `x = !(a·b)` and `y = !(c·d)` — plus an
/// inverter `cn = !c` that survives the edit below.
fn split_circuit() -> Netlist {
    let lib = Library::osu018();
    let mut nl = Netlist::new("split", lib.clone());
    let nand = lib.cell_id("NAND2X1").unwrap();
    let inv = lib.cell_id("INVX1").unwrap();
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let d = nl.add_input("d");
    let x = nl.add_named_net("x");
    nl.add_gate("gx", nand, &[a, b], &[x]).unwrap();
    nl.mark_output(x);
    let cn = nl.add_named_net("cn");
    nl.add_gate("gi", inv, &[c], &[cn]).unwrap();
    nl.mark_output(cn);
    let y = nl.add_named_net("y");
    nl.add_gate("gy", nand, &[c, d], &[y]).unwrap();
    nl.mark_output(y);
    nl
}

/// The verify/compact pass must correct a stale carried-over `Detected`
/// verdict.
///
/// The previous evaluation classified `y` stuck-at-1 as detected (`y` was
/// `!(c·d)`, so the pattern `c = d = 1` exposes it). The netlist is then
/// edited into `y = c + !c` — constant 1 — which makes that same fault
/// *undetectable*. An incremental run lied to about the change
/// (`changed_gates = []`, so the window holds no gate and every verdict is
/// carried) reports the stale `Detected`; [`verify_and_compact`], the pass
/// an accepted design gets, catches it, re-runs it, and proves it
/// undetectable — matching a from-scratch run on the edited netlist.
#[test]
fn safety_net_corrects_stale_carried_detection() {
    let nl = split_circuit();
    let view = nl.comb_view().unwrap();
    let faults = stuck_at_faults(&nl);
    let options = AtpgOptions::default();
    let previous_run = run_atpg(&nl, &view, &faults, &options);
    let y = nl.find_net("y").unwrap();
    let y_sa1 = faults
        .iter()
        .position(|f| f.kind == FaultKind::StuckAt { net: y, value: true })
        .expect("y stuck-at-1 exists");
    assert_eq!(
        previous_run.statuses[y_sa1],
        FaultStatus::Detected,
        "precondition: y SA1 detectable before the edit"
    );

    // Edit: y = OR(c, !c), i.e. constant 1. The net ids are unchanged, so
    // the new fault list matches the old one key-for-key.
    let mut edited = nl.clone();
    let gy = edited.find_gate("gy").unwrap();
    edited.remove_gate(gy);
    let or2 = edited.lib().cell_id("OR2X2").unwrap();
    let c = edited.find_net("c").unwrap();
    let cn = edited.find_net("cn").unwrap();
    edited.add_gate("gy2", or2, &[c, cn], &[y]).unwrap();
    let edited_view = edited.comb_view().unwrap();
    let edited_faults = stuck_at_faults(&edited);
    assert_eq!(edited_faults, faults, "edit preserves the fault keys");

    rsyn_observe::reset();
    let previous = PreviousEvaluation::new(&faults, &previous_run);
    // Empty changed set: every verdict — including the now-wrong y SA1
    // `Detected` — is carried over verbatim, and only the pass corrects it.
    let mut inc =
        run_atpg_incremental(&edited, &edited_view, &edited_faults, &options, &previous, &[]);
    verify_and_compact(&edited, &edited_view, &edited_faults, &options, &mut inc);
    assert_eq!(
        inc.statuses[y_sa1],
        FaultStatus::Undetectable,
        "safety net must re-prove the constant-1 output's SA1 undetectable"
    );
    assert!(
        rsyn_observe::counter("atpg.incremental.rescued") >= 1,
        "the rescue path must have run"
    );

    let full = run_atpg(&edited, &edited_view, &edited_faults, &options);
    assert_eq!(inc.statuses, full.statuses, "incremental must match a from-scratch run");
}

/// A wide circuit whose fault list spans several parallel-engine shards.
fn wide_circuit() -> Netlist {
    let lib = Library::osu018();
    let mut nl = Netlist::new("wide", lib.clone());
    let nand = lib.cell_id("NAND2X1").unwrap();
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let mut nets = vec![a, b, c];
    for i in 0..96 {
        let y = nl.add_net();
        nl.add_gate(
            format!("g{i}"),
            nand,
            &[nets[i % nets.len()], nets[(i * 5 + 1) % nets.len()]],
            &[y],
        )
        .unwrap();
        nets.push(y);
    }
    let last = *nets.last().unwrap();
    nl.mark_output(last);
    nl
}

/// The deterministic counters — and hence the stable part of a run
/// manifest — must not depend on the worker-thread count. This is the
/// property `check_manifest --determinism` gates on in CI.
#[test]
fn manifest_counters_are_thread_count_independent() {
    let nl = wide_circuit();
    let view = nl.comb_view().unwrap();
    let faults = stuck_at_faults(&nl);
    assert!(faults.len() >= 64, "need enough faults for several shards");

    let stable_at = |threads: usize| {
        let mut run = Run::start("atpg_determinism", 7);
        let options = AtpgOptions { threads, ..AtpgOptions::default() };
        run.record_threads(threads, options.effective_threads());
        let result = run_atpg(&nl, &view, &faults, &options);
        run.result("undetectable", result.undetectable_count().to_string());
        run.result("tests", result.tests.len().to_string());
        run.finish().stable_json()
    };

    let single = stable_at(1);
    let quad = stable_at(4);
    assert!(single.contains("atpg.podem.backtracks"), "counters present in the manifest");
    assert_eq!(single, quad, "stable manifest must be byte-identical across thread counts");
}
