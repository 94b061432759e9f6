//! Property-based tests over the core substrates, spanning crates:
//! truth tables ↔ AIG ↔ mapper ↔ simulator agreement, ATPG verdict
//! soundness, and clustering invariants.

use proptest::prelude::*;
use rsyn::atpg::engine::{run_atpg, AtpgOptions};
use rsyn::atpg::fault::{Fault, FaultKind, FaultStatus};
use rsyn::cluster::cluster_faults;
use rsyn::logic::aig::{Aig, Lit};
use rsyn::logic::map::{MapOptions, Mapper};
use rsyn::netlist::{sim::simulate_one, Library, NetId, Netlist, TruthTable};

/// Builds a netlist computing an arbitrary function via AIG + mapper.
fn map_function(f: TruthTable) -> Netlist {
    let lib = Library::osu018();
    let mut aig = Aig::new();
    let pis: Vec<Lit> = (0..f.input_count()).map(|_| aig.add_pi()).collect();
    let y = aig.build_function(f, &pis);
    aig.add_po(y);
    let mut nl = Netlist::new("p", lib.clone());
    let pi_nets: Vec<NetId> = (0..f.input_count()).map(|i| nl.add_input(format!("x{i}"))).collect();
    let po = nl.add_named_net("y");
    nl.mark_output(po);
    let mapper = Mapper::new(&lib);
    let allowed = vec![true; lib.len()];
    mapper
        .map_into(&aig, &allowed, &MapOptions::area(), &mut nl, &pi_nets, &[po], "p")
        .expect("mapping succeeds");
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any 4-input function survives AIG construction + technology mapping.
    #[test]
    fn mapper_preserves_arbitrary_functions(bits in 0u64..=0xFFFF) {
        let f = TruthTable::new(4, bits);
        let nl = map_function(f);
        nl.validate().unwrap();
        let view = nl.comb_view().unwrap();
        for m in 0..16u64 {
            let pis: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            let out = simulate_one(&nl, &view, &pis);
            prop_assert_eq!(out[0], f.eval(m), "minterm {}", m);
        }
    }

    /// Truth-table cofactor identity: f = mux(x_i, f|x_i=1, f|x_i=0).
    #[test]
    fn cofactor_shannon_identity(bits in 0u64..=0xFFFF, var in 0usize..4) {
        let f = TruthTable::new(4, bits);
        let f0 = f.cofactor(var, false);
        let f1 = f.cofactor(var, true);
        for m in 0..16u64 {
            let sub = ((m >> (var + 1)) << var) | (m & ((1 << var) - 1));
            let want = if (m >> var) & 1 == 1 { f1.eval(sub) } else { f0.eval(sub) };
            prop_assert_eq!(f.eval(m), want);
        }
    }

    /// AIG simulation agrees with direct truth-table evaluation.
    #[test]
    fn aig_matches_truth_table(bits in 0u64..=0xFF) {
        let f = TruthTable::new(3, bits);
        let mut aig = Aig::new();
        let pis: Vec<Lit> = (0..3).map(|_| aig.add_pi()).collect();
        let y = aig.build_function(f, &pis);
        let vals = aig.simulate(&[0xAA, 0xCC, 0xF0]);
        prop_assert_eq!(Aig::lit_value(y, &vals) & 0xFF, f.bits());
    }

    /// PODEM's detected patterns really detect (cross-checked against the
    /// independent fault simulator), and `Undetectable` verdicts have no
    /// detecting pattern among 256 random ones.
    #[test]
    fn atpg_verdicts_are_sound(bits in 1u64..0xFFFF, seed in 0u64..1000) {
        let f = TruthTable::new(4, bits);
        let nl = map_function(f);
        let view = nl.comb_view().unwrap();
        // Target every net stuck-at both values.
        let mut faults = Vec::new();
        for (id, net) in nl.nets() {
            if net.driver.is_some() && !matches!(net.driver, Some(rsyn::netlist::Driver::Const(_))) {
                faults.push(Fault::external(FaultKind::StuckAt { net: id, value: false }, 0));
                faults.push(Fault::external(FaultKind::StuckAt { net: id, value: true }, 0));
            }
        }
        let result = run_atpg(&nl, &view, &faults, &AtpgOptions { seed, ..Default::default() });
        // Detected faults are covered by the final test set.
        let covered = rsyn::atpg::engine::covers(&nl, &view, &faults, &result.tests);
        for (fi, status) in result.statuses.iter().enumerate() {
            match status {
                FaultStatus::Detected => prop_assert!(covered[fi], "fault {} not covered", fi),
                FaultStatus::Undetectable => {
                    prop_assert!(!covered[fi], "undetectable fault {} detected by a test", fi);
                }
                _ => {}
            }
        }
    }

    /// PODEM verdicts agree with ground-truth exhaustive enumeration on
    /// random small circuits, for every stuck-at fault and a sample of
    /// cell-aware conditions, transitions and non-feedback bridges — the
    /// soundness property the paper's `U` counts depend on. Every fault is
    /// decided: `Aborted` is not an accepted outcome.
    #[test]
    fn podem_matches_exhaustive_ground_truth(seed in 0u64..40) {
        use rsyn::atpg::exhaustive_detectable;
        use rsyn::atpg::fault::{BridgeKind, CellCondition};
        let mut next = xorshift(seed);
        let (nl, nets, gate_ids) = random_circuit(&mut next, &[]);
        let lib = nl.lib().clone();
        let view = nl.comb_view().unwrap();
        let mut faults = Vec::new();
        for &n in nets.iter().skip(8) {
            faults.push(Fault::external(FaultKind::StuckAt { net: n, value: next() % 2 == 0 }, 0));
        }
        // A few cell-aware single-pattern conditions.
        for _ in 0..6 {
            let g = gate_ids[(next() % gate_ids.len() as u64) as usize];
            let nin = lib.cell(nl.gate(g).unwrap().cell).input_count();
            let pattern = next() % (1 << nin);
            faults.push(Fault::internal(g, vec![CellCondition { pattern, output: 0 }], 0));
        }
        // Slow-to-rise and slow-to-fall transitions.
        for _ in 0..4 {
            let net = nets[8 + (next() % (nets.len() as u64 - 8)) as usize];
            let rising = next() % 2 == 0;
            faults.push(Fault::external(FaultKind::Transition { net, rising }, 0));
        }
        // Non-feedback bridges of both kinds (neither net in the other's
        // fanout cone, as the DFM translator guarantees).
        for k in 0..4 {
            let kind = if k % 2 == 0 { BridgeKind::WiredAnd } else { BridgeKind::WiredOr };
            let a = nets[(next() % nets.len() as u64) as usize];
            let b = nets[(next() % nets.len() as u64) as usize];
            if a != b && !reaches(&nl, a, b) && !reaches(&nl, b, a) {
                let (a, b) = (a.min(b), a.max(b));
                faults.push(Fault::external(FaultKind::Bridge { a, b, kind }, 0));
            }
        }
        let result = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        for (fi, fault) in faults.iter().enumerate() {
            let truth = exhaustive_detectable(&nl, &view, fault).expect("8 PIs");
            match result.statuses[fi] {
                FaultStatus::Detected => prop_assert!(truth, "fault {} falsely detected", fi),
                FaultStatus::Undetectable => {
                    prop_assert!(!truth, "fault {} falsely proven undetectable", fi)
                }
                FaultStatus::Aborted => prop_assert!(false, "fault {} left undecided", fi),
                FaultStatus::Undetected => prop_assert!(false, "fault {} left unprocessed", fi),
            }
        }
    }

    /// The SAT prover's verdicts equal exhaustive enumeration, and the
    /// fault simulator confirms every SAT test. The prover is called
    /// directly: PODEM never gives up on 8-PI circuits, so the engine alone
    /// would not reach it. Every stuck-at fault, transitions of both kinds,
    /// cell-aware faults with several conditions on multi-output cells, and
    /// bridges of both kinds between any two nets — pairs that share
    /// fan-in and pairs where one end feeds the other included.
    #[test]
    fn sat_matches_exhaustive(seed in 0u64..32) {
        use rsyn::atpg::fault::{BridgeKind, CellCondition};
        use rsyn::atpg::{exhaustive_detectable, FaultSim, SatAtpg, SatOutcome};
        let mut next = xorshift(seed ^ 0x5A7);
        let (nl, nets, gate_ids) = random_circuit(&mut next, &["FAX1", "AOI22X1"]);
        let lib = nl.lib().clone();
        let view = nl.comb_view().unwrap();
        let mut faults = Vec::new();
        for &net in &nets {
            for value in [false, true] {
                faults.push(Fault::external(FaultKind::StuckAt { net, value }, 0));
            }
        }
        for rising in [false, true] {
            for _ in 0..2 {
                let net = nets[(next() % nets.len() as u64) as usize];
                faults.push(Fault::external(FaultKind::Transition { net, rising }, 0));
            }
        }
        for _ in 0..8 {
            let g = gate_ids[(next() % gate_ids.len() as u64) as usize];
            let cell = lib.cell(nl.gate(g).unwrap().cell);
            let conditions = (0..1 + next() % 3)
                .map(|_| CellCondition {
                    pattern: next() % (1 << cell.input_count()),
                    output: (next() % cell.outputs.len() as u64) as u8,
                })
                .collect();
            faults.push(Fault::internal(g, conditions, 0));
        }
        for k in 0..8 {
            let kind = if k % 2 == 0 { BridgeKind::WiredAnd } else { BridgeKind::WiredOr };
            // Half the pairs are the inputs of one gate: they share fan-in
            // whenever that gate's inputs reconverge.
            let (a, b) = if k < 4 {
                let g = nl.gate(gate_ids[(next() % gate_ids.len() as u64) as usize]).unwrap();
                (g.inputs[0], *g.inputs.last().unwrap())
            } else {
                (nets[(next() % nets.len() as u64) as usize], nets[(next() % nets.len() as u64) as usize])
            };
            if a != b {
                faults.push(Fault::external(FaultKind::Bridge { a, b, kind }, 0));
            }
        }
        let mut prover = SatAtpg::new(&nl, &view);
        let mut sim: FaultSim<u64> = FaultSim::new(&nl, &view);
        for (fi, fault) in faults.iter().enumerate() {
            let truth = exhaustive_detectable(&nl, &view, fault).expect("8 PIs");
            match prover.decide(fault) {
                SatOutcome::Detected(test) => {
                    prop_assert!(truth, "fault {} {:?}: SAT test for an undetectable fault", fi, fault.kind);
                    let lanes: Vec<u64> = (0..view.pis.len())
                        .map(|i| test.iter().enumerate().fold(0, |w, (k, p)| w | u64::from(p.get(i)) << k))
                        .collect();
                    sim.set_patterns(&lanes);
                    let last = 1u64 << (test.len() - 1);
                    prop_assert!(
                        sim.detect_lanes(fault) & last != 0,
                        "fault {} {:?}: the simulator rejects the SAT test", fi, fault.kind
                    );
                }
                SatOutcome::Undetectable => {
                    prop_assert!(!truth, "fault {} {:?}: UNSAT for a detectable fault", fi, fault.kind);
                }
            }
        }
    }

    /// Clustering is a partition: every subset fault appears in exactly one
    /// cluster, and cluster sizes sum to the subset size.
    #[test]
    fn clustering_is_a_partition(n_faults in 1usize..20, seed in 0u64..100) {
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib.clone());
        let mut nets = vec![nl.add_input("a"), nl.add_input("b")];
        let nand = lib.cell_id("NAND2X1").unwrap();
        for i in 0..30 {
            let y = nl.add_net();
            let s = seed as usize;
            nl.add_gate(
                format!("g{i}"),
                nand,
                &[nets[(i * 7 + s) % nets.len()], nets[(i * 3 + s + 1) % nets.len()]],
                &[y],
            )
            .unwrap();
            nets.push(y);
        }
        let last = *nets.last().unwrap();
        nl.mark_output(last);
        let faults: Vec<Fault> = (0..n_faults)
            .map(|k| {
                let net = nets[2 + (k * 5 + seed as usize) % (nets.len() - 2)];
                Fault::external(FaultKind::StuckAt { net, value: k % 2 == 0 }, 0)
            })
            .collect();
        let subset: Vec<usize> = (0..faults.len()).collect();
        let clusters = cluster_faults(&nl, &faults, &subset);
        let total: usize = clusters.size_distribution().iter().sum();
        prop_assert_eq!(total, subset.len());
        let mut seen = std::collections::HashSet::new();
        for c in &clusters.clusters {
            for &i in c {
                prop_assert!(seen.insert(i), "fault {} in two clusters", i);
            }
        }
        // Sizes are sorted descending.
        let dist = clusters.size_distribution();
        prop_assert!(dist.windows(2).all(|w| w[0] >= w[1]));
    }
}

/// A xorshift64 stream seeded from `seed` (never zero).
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random 8-PI circuit of 24 gates with reconvergence and redundancy
/// sources, drawn from a fixed cell list plus `extra` cells; only the last
/// three gate outputs are observed, so masking occurs. Returns the netlist,
/// its nets (PIs first, then one output net per gate) and its gates.
fn random_circuit(
    next: &mut impl FnMut() -> u64,
    extra: &[&str],
) -> (Netlist, Vec<NetId>, Vec<rsyn::netlist::GateId>) {
    let lib = Library::osu018();
    let mut nl = Netlist::new("x", lib.clone());
    let mut nets: Vec<NetId> = (0..8).map(|i| nl.add_input(format!("i{i}"))).collect();
    let mut cells = vec!["NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1", "OAI21X1", "AND2X2", "MUX2X1"];
    cells.extend_from_slice(extra);
    let mut gate_ids = Vec::new();
    for k in 0..24 {
        let cell = lib.cell_id(cells[(next() % cells.len() as u64) as usize]).unwrap();
        let nin = lib.cell(cell).input_count();
        let ins: Vec<NetId> =
            (0..nin).map(|_| nets[(next() % nets.len() as u64) as usize]).collect();
        let outs: Vec<NetId> = (0..lib.cell(cell).outputs.len()).map(|_| nl.add_net()).collect();
        let g = nl.add_gate(format!("g{k}"), cell, &ins, &outs).unwrap();
        gate_ids.push(g);
        nets.extend(outs);
    }
    for &n in nets.iter().rev().take(3) {
        nl.mark_output(n);
    }
    (nl, nets, gate_ids)
}

/// Whether `to` lies in the combinational fanout cone of `from`.
fn reaches(nl: &Netlist, from: NetId, to: NetId) -> bool {
    let mut stack = vec![from];
    let mut seen = vec![false; nl.net_count()];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        for &(sink, _) in &nl.net(n).loads {
            for &o in &nl.gate(sink).unwrap().outputs {
                if !std::mem::replace(&mut seen[o.index()], true) {
                    stack.push(o);
                }
            }
        }
    }
    false
}
