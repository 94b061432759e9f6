//! Property-based tests for the ATPG substrate: three-valued evaluation
//! soundness, fault-simulation/PODEM agreement, and test-set integrity.

use proptest::prelude::*;
use rsyn_atpg::engine::{run_atpg, AtpgOptions};
use rsyn_atpg::fault::{Fault, FaultKind, FaultStatus};
use rsyn_atpg::podem::{Podem, PodemOutcome, Target};
use rsyn_atpg::sim::FaultSim;
use rsyn_atpg::testset::pack;
use rsyn_atpg::value::{eval3, Tri};
use rsyn_netlist::{LaneBlock, Library, NetId, Netlist, TruthTable};

fn random_netlist(seed: u64, gates: usize, pis: usize) -> Netlist {
    let lib = Library::osu018();
    let mut nl = Netlist::new("rnd", lib.clone());
    let mut nets: Vec<NetId> = (0..pis).map(|i| nl.add_input(format!("i{i}"))).collect();
    let names = ["NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1", "OAI22X1", "AND2X2"];
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for k in 0..gates {
        let cell = lib.cell_id(names[(next() % names.len() as u64) as usize]).unwrap();
        let c = lib.cell(cell);
        let ins: Vec<NetId> =
            (0..c.input_count()).map(|_| nets[(next() % nets.len() as u64) as usize]).collect();
        let out = nl.add_net();
        nl.add_gate(format!("g{k}"), cell, &ins, &[out]).unwrap();
        nets.push(out);
    }
    for &n in nets.iter().rev().take(2) {
        nl.mark_output(n);
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `eval3` is exactly the quotient of two-valued evaluation: it returns
    /// a known value iff every completion of the unknowns agrees.
    #[test]
    fn eval3_is_sound_and_complete(bits in 0u64..=0xFFFF, mask in 0u8..16, vals in 0u8..16) {
        let tt = TruthTable::new(4, bits);
        let ins: Vec<Tri> = (0..4)
            .map(|i| {
                if (mask >> i) & 1 == 1 {
                    Tri::U
                } else if (vals >> i) & 1 == 1 {
                    Tri::T
                } else {
                    Tri::F
                }
            })
            .collect();
        let got = eval3(tt, &ins);
        // Enumerate completions.
        let unknown: Vec<usize> = (0..4).filter(|&i| ins[i] == Tri::U).collect();
        let mut any_true = false;
        let mut any_false = false;
        for comp in 0..(1u64 << unknown.len()) {
            let mut m = 0u64;
            for (i, t) in ins.iter().enumerate() {
                if *t == Tri::T {
                    m |= 1 << i;
                }
            }
            for (k, &i) in unknown.iter().enumerate() {
                if (comp >> k) & 1 == 1 {
                    m |= 1 << i;
                }
            }
            if tt.eval(m) {
                any_true = true;
            } else {
                any_false = true;
            }
        }
        let want = match (any_true, any_false) {
            (true, false) => Tri::T,
            (false, true) => Tri::F,
            _ => Tri::U,
        };
        prop_assert_eq!(got, want);
    }

    /// Every PODEM-generated stuck-at test is confirmed by the independent
    /// fault simulator.
    #[test]
    fn podem_tests_confirmed_by_fault_sim(seed in 0u64..80) {
        let nl = random_netlist(seed, 20, 6);
        let view = nl.comb_view().unwrap();
        let mut podem = Podem::new(&nl, &view, 500);
        let mut sim = FaultSim::new(&nl, &view);
        let mut checked = 0;
        for (id, net) in nl.nets() {
            if net.driver.is_none() {
                continue;
            }
            for value in [false, true] {
                if let PodemOutcome::Detected(p) = podem.run(&Target::StuckAt { net: id, value }) {
                    sim.set_patterns(&pack(&[p], view.pis.len()));
                    let f = Fault::external(FaultKind::StuckAt { net: id, value }, 0);
                    prop_assert!(sim.detect_lanes(&f).lane(0), "net {} sa{}", id, u8::from(value));
                    checked += 1;
                }
            }
        }
        prop_assert!(checked >= 4, "only {} detections", checked);
    }

    /// The flat-arena 256-lane simulator bit-matches a per-gate reference
    /// evaluation on random netlists and random patterns, lane by lane.
    #[test]
    fn arena_sim_matches_per_gate_reference(seed in 0u64..48, lane_seed in 1u64..u64::MAX) {
        let nl = random_netlist(seed, 20, 6);
        let view = nl.comb_view().unwrap();
        let mut state = lane_seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pi_vals: Vec<LaneBlock> = view
            .pis
            .iter()
            .map(|_| LaneBlock::from_words([next(), next(), next(), next()]))
            .collect();
        let mut sim = rsyn_netlist::sim::ParallelSim::new(&nl, &view);
        sim.simulate(&pi_vals);
        // Per-gate scalar reference: walk gates in creation order (inputs
        // always precede their consumers in `random_netlist`), chasing the
        // netlist and library pointers the arena kernel flattened away.
        for lane in [0usize, 1, 63, 64, 127, 128, 200, 255] {
            let mut vals = vec![false; nl.net_count()];
            for (i, &pi) in view.pis.iter().enumerate() {
                vals[pi.index()] = pi_vals[i].lane(lane);
            }
            for (_, gate) in nl.gates() {
                let cell = nl.lib().cell(gate.cell);
                let mut m = 0u64;
                for (i, &input) in gate.inputs.iter().enumerate() {
                    if vals[input.index()] {
                        m |= 1 << i;
                    }
                }
                for (pin, out) in cell.outputs.iter().enumerate() {
                    vals[gate.outputs[pin].index()] = out.function.eval(m);
                }
            }
            for (n, &v) in vals.iter().enumerate() {
                let id = NetId::from_index(n);
                prop_assert_eq!(sim.value(id).lane(lane), v, "lane {} net {}", lane, n);
            }
        }
    }

    /// The parallel engine is deterministic in the thread count: any
    /// `threads` setting returns byte-identical `FaultStatus` vectors and
    /// the identical test set, and the test set covers every detected
    /// fault — the serial (`threads = 1`) engine is the reference.
    #[test]
    fn parallel_atpg_is_thread_count_invariant(seed in 0u64..24) {
        let nl = random_netlist(seed, 24, 6);
        let view = nl.comb_view().unwrap();
        // A mixed fault list dense enough to span several shards.
        let nets: Vec<NetId> = nl.nets().filter(|(_, n)| n.driver.is_some()).map(|(id, _)| id).collect();
        let mut faults = Vec::new();
        for (k, &n) in nets.iter().enumerate() {
            faults.push(Fault::external(FaultKind::StuckAt { net: n, value: k % 2 == 0 }, 0));
            faults.push(Fault::external(FaultKind::StuckAt { net: n, value: k % 2 == 1 }, 0));
            if k % 3 == 0 {
                faults.push(Fault::external(FaultKind::Transition { net: n, rising: k % 2 == 0 }, 0));
            }
        }
        let serial = run_atpg(&nl, &view, &faults, &AtpgOptions::default().with_threads(1));
        prop_assert!(serial.statuses.iter().all(|s| *s != FaultStatus::Undetected));
        let serial_covered = rsyn_atpg::engine::covers(&nl, &view, &faults, &serial.tests);
        for threads in [2usize, 4, 8] {
            let par = run_atpg(&nl, &view, &faults, &AtpgOptions::default().with_threads(threads));
            prop_assert_eq!(&par.statuses, &serial.statuses, "threads={}", threads);
            prop_assert_eq!(par.tests.patterns(), serial.tests.patterns(), "threads={}", threads);
            let covered = rsyn_atpg::engine::covers(&nl, &view, &faults, &par.tests);
            for (fi, s) in par.statuses.iter().enumerate() {
                if *s == FaultStatus::Detected {
                    prop_assert!(covered[fi], "threads={} fault {} uncovered", threads, fi);
                    prop_assert!(serial_covered[fi], "serial fault {} uncovered", fi);
                }
            }
        }
    }

    /// Incremental re-evaluation with an empty change set reproduces the
    /// full run exactly, for arbitrary netlists.
    #[test]
    fn incremental_noop_matches_full(seed in 0u64..24) {
        let nl = random_netlist(seed, 20, 6);
        let view = nl.comb_view().unwrap();
        let nets: Vec<NetId> = nl.nets().filter(|(_, n)| n.driver.is_some()).map(|(id, _)| id).collect();
        let mut faults = Vec::new();
        for (k, &n) in nets.iter().enumerate() {
            faults.push(Fault::external(FaultKind::StuckAt { net: n, value: k % 2 == 0 }, 0));
        }
        let full = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        let previous = rsyn_atpg::incremental::PreviousEvaluation::new(&faults, &full);
        let inc = rsyn_atpg::incremental::run_atpg_incremental(
            &nl, &view, &faults, &AtpgOptions::default(), &previous, &[],
        );
        prop_assert_eq!(&inc.statuses, &full.statuses);
    }

    /// The engine's final test set covers every fault it reports detected,
    /// regardless of fault mix.
    #[test]
    fn engine_cover_invariant(seed in 0u64..40) {
        let nl = random_netlist(seed, 16, 6);
        let view = nl.comb_view().unwrap();
        let mut faults = Vec::new();
        let nets: Vec<NetId> = nl.nets().filter(|(_, n)| n.driver.is_some()).map(|(id, _)| id).collect();
        for (k, &n) in nets.iter().enumerate() {
            match k % 3 {
                0 => faults.push(Fault::external(FaultKind::StuckAt { net: n, value: k % 2 == 0 }, 0)),
                1 => faults.push(Fault::external(FaultKind::Transition { net: n, rising: k % 2 == 0 }, 0)),
                _ => {
                    let other = nets[(k * 7 + 1) % nets.len()];
                    if other != n {
                        faults.push(Fault::external(
                            FaultKind::Bridge {
                                a: n.min(other),
                                b: n.max(other),
                                kind: rsyn_atpg::fault::BridgeKind::WiredAnd,
                            },
                            0,
                        ));
                    }
                }
            }
        }
        // Feedback bridges may slip in; the engine must still terminate and
        // classify. (They are normally filtered by the DFM translator.)
        let result = run_atpg(&nl, &view, &faults, &AtpgOptions { compact: true, ..Default::default() });
        prop_assert!(result.statuses.iter().all(|s| *s != FaultStatus::Undetected));
        let covered = rsyn_atpg::engine::covers(&nl, &view, &faults, &result.tests);
        for (fi, s) in result.statuses.iter().enumerate() {
            if *s == FaultStatus::Detected {
                prop_assert!(covered[fi], "detected fault {} uncovered", fi);
            }
        }
    }
}
