//! SAT-based test generation (Larrabee, *Test Pattern Generation Using
//! Boolean Satisfiability*, TCAD 1992): the complete decision procedure for
//! the faults whose PODEM search gives up at the backtrack limit.
//!
//! [`SatAtpg::decide`] builds one miter per fault — not one per PODEM
//! target — that follows [`FaultSim::detect_lanes`](crate::sim::FaultSim::detect_lanes)'s
//! injection semantics exactly, so the miter is satisfiable if and only if
//! some input vector detects the fault, which is what
//! [`exhaustive_detectable`](crate::exhaustive_detectable) checks:
//!
//! * **Sites:** the stuck-at or transition net, both bridge ends, or the
//!   outputs of a cell-aware fault's gate.
//! * **Cones:** the effect cone is the forward closure of the sites over the
//!   arena's net loads; the observed outputs are the view POs inside it
//!   (none: the fault is undetectable and no solver runs). The good machine
//!   is the fan-in of the observed outputs plus both bridge ends; the faulty
//!   machine is the effect cone ∩ the fan-in of the observed outputs, and a
//!   faulty net outside it reads its good variable.
//! * **Clauses per op:** the prime implicants of the op's on-set and
//!   off-set, computed once per distinct truth table, so unit propagation
//!   implies everything a single gate implies (a controlling input fixes
//!   the output, a known output and all but one input fix the last).
//! * **Injection:** a stuck site is a unit clause; bridge ends read
//!   `f_a = f_b = AND/OR(g_a, g_b)`; a cell-aware op's truth table is
//!   XOR-ed with its conditions' minterms on that pin. PIs are free,
//!   constant-one nets true and every other undriven net false, as in
//!   [`SimArena::set_inputs`].
//! * **Miter:** some observed output differs, plus the active-path (D-chain)
//!   clauses: `d_n → g_n ≠ f_n` for every faulty net, `d_n → ∨ d_m` over
//!   the faulty fanout nets of every faulty net that is not an output, and
//!   `∨ d_site`. They do not change satisfiability — a detected difference
//!   traces back along differing nets to a site (DESIGN.md §7) — but let
//!   the solver refute a fault without enumerating the whole cone.
//!
//! A transition fault's launch is the stuck-at-`!rising` miter, and its
//! initialisation a good-machine justification of `net = !rising`; either
//! one UNSAT proves the fault undetectable. The solver is reset for every
//! instance and has no randomness, so a verdict and its patterns depend only
//! on the netlist and the fault. Inputs outside the good machine fill 0.

mod solver;

use std::collections::HashMap;
use std::sync::Arc;

use rsyn_netlist::tt::{Cube, MAX_TT_INPUTS};
use rsyn_netlist::{CombView, Netlist, SimArena, TruthTable};

use crate::fault::{BridgeKind, CellCondition, Fault, FaultKind};
use crate::testset::Pattern;
use solver::{Lit, Solver};

/// The verdict of [`SatAtpg::decide`].
#[derive(Clone, Debug, PartialEq)]
pub enum SatOutcome {
    /// A test: one pattern, or a transition fault's initialisation pattern
    /// followed by its launch pattern.
    Detected(Vec<Pattern>),
    /// No input vector (or vector pair) detects the fault.
    Undetectable,
}

/// No op drives the net.
const UNDRIVEN: u32 = u32::MAX;

/// The prime implicants of a function's on-set and of its off-set.
struct Cover {
    on: Vec<Cube>,
    off: Vec<Cube>,
}

/// How a fault changes its sites in the faulty machine.
#[derive(Clone, Copy)]
enum Injection<'f> {
    Stuck { net: u32, value: bool },
    Bridge { a: u32, b: u32, kind: BridgeKind },
    Cell { gate: u32, conditions: &'f [CellCondition] },
}

/// A SAT prover bound to one simulation arena. Per-net buffers are
/// epoch-stamped and reused across faults; truth-table covers are cached.
pub struct SatAtpg {
    arena: Arc<SimArena>,
    /// Per net: the op that drives it, or [`UNDRIVEN`].
    driver: Vec<u32>,
    is_pi: Vec<bool>,
    is_po: Vec<bool>,
    const_one: Vec<bool>,
    /// Stamps of the current instance: net in the effect cone, in the good
    /// machine, in the faulty machine.
    epoch: u32,
    in_cone: Vec<u32>,
    in_good: Vec<u32>,
    in_faulty: Vec<u32>,
    /// Variables of the nets stamped in the current instance.
    good_var: Vec<u32>,
    faulty_var: Vec<u32>,
    chain_var: Vec<u32>,
    /// The current instance's sites, observed outputs, good and faulty
    /// nets (in discovery order), and a traversal stack.
    sites: Vec<u32>,
    observed: Vec<u32>,
    good: Vec<u32>,
    faulty: Vec<u32>,
    stack: Vec<u32>,
    clause: Vec<Lit>,
    covers: HashMap<TruthTable, Cover>,
    solver: Solver,
    conflicts: u64,
}

impl SatAtpg {
    /// A prover over a fresh arena of `view`.
    pub fn new(nl: &Netlist, view: &CombView) -> Self {
        Self::with_arena(Arc::new(SimArena::build(nl, view)))
    }

    /// A prover over an existing (possibly shared) arena.
    pub fn with_arena(arena: Arc<SimArena>) -> Self {
        let nets = arena.net_count();
        let mut driver = vec![UNDRIVEN; nets];
        for k in 0..arena.op_count() {
            driver[arena.op_out(k) as usize] = k as u32;
        }
        let flags = |slots: &[u32]| {
            let mut marks = vec![false; nets];
            for &s in slots {
                marks[s as usize] = true;
            }
            marks
        };
        Self {
            driver,
            is_pi: flags(arena.pis()),
            is_po: flags(arena.pos()),
            const_one: flags(arena.const_ones()),
            epoch: 0,
            in_cone: vec![0; nets],
            in_good: vec![0; nets],
            in_faulty: vec![0; nets],
            good_var: vec![0; nets],
            faulty_var: vec![0; nets],
            chain_var: vec![0; nets],
            sites: Vec::new(),
            observed: Vec::new(),
            good: Vec::new(),
            faulty: Vec::new(),
            stack: Vec::new(),
            clause: Vec::new(),
            covers: HashMap::new(),
            solver: Solver::new(),
            conflicts: 0,
            arena,
        }
    }

    /// Solver conflicts of the last [`SatAtpg::decide`] call.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Decides whether any input vector (a vector pair, for a transition
    /// fault) detects `fault`, returning a test when one does.
    pub fn decide(&mut self, fault: &Fault) -> SatOutcome {
        self.conflicts = 0;
        let test = match &fault.kind {
            FaultKind::StuckAt { net, value } => self
                .detect(Injection::Stuck { net: net.index() as u32, value: *value })
                .map(|p| vec![p]),
            FaultKind::Transition { net, rising } => {
                let net = net.index() as u32;
                self.detect(Injection::Stuck { net, value: !rising })
                    .and_then(|launch| self.justify(net, !rising).map(|init| vec![init, launch]))
            }
            FaultKind::Bridge { a, b, kind } => self
                .detect(Injection::Bridge { a: a.index() as u32, b: b.index() as u32, kind: *kind })
                .map(|p| vec![p]),
            FaultKind::CellAware { gate, conditions } => self
                .detect(Injection::Cell { gate: gate.index() as u32, conditions })
                .map(|p| vec![p]),
        };
        test.map_or(SatOutcome::Undetectable, SatOutcome::Detected)
    }

    /// Starts a new instance: fresh stamps, an empty solver.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for stamps in [&mut self.in_cone, &mut self.in_good, &mut self.in_faulty] {
                stamps.fill(0);
            }
            self.epoch = 1;
        }
        self.good.clear();
        self.faulty.clear();
        self.solver.reset();
    }

    /// Solves the miter of one injection; a detecting pattern or `None`.
    fn detect(&mut self, injection: Injection<'_>) -> Option<Pattern> {
        self.begin();
        self.sites.clear();
        match injection {
            Injection::Stuck { net, .. } => self.sites.push(net),
            Injection::Bridge { a, b, .. } => self.sites.extend([a, b]),
            Injection::Cell { gate, .. } => {
                let outs = self.arena.gate_ops(gate as usize).map(|k| self.arena.op_out(k));
                self.sites.extend(outs);
            }
        }

        // The effect cone and the outputs it reaches.
        let epoch = self.epoch;
        self.stack.clear();
        for &s in &self.sites {
            if self.in_cone[s as usize] != epoch {
                self.in_cone[s as usize] = epoch;
                self.stack.push(s);
            }
        }
        while let Some(n) = self.stack.pop() {
            for &k in self.arena.net_loads(n as usize) {
                let out = self.arena.op_out(k as usize);
                if self.in_cone[out as usize] != epoch {
                    self.in_cone[out as usize] = epoch;
                    self.stack.push(out);
                }
            }
        }
        self.observed.clear();
        self.observed
            .extend(self.arena.pos().iter().filter(|&&po| self.in_cone[po as usize] == epoch));
        if self.observed.is_empty() {
            return None;
        }

        // The good machine over the observed outputs' fan-in; the faulty
        // machine is the part of it inside the effect cone. Bridge ends
        // join the good machine afterwards: the resolution reads both.
        let roots = std::mem::take(&mut self.observed);
        self.mark_good(&roots);
        self.observed = roots;
        for i in 0..self.good.len() {
            let n = self.good[i];
            if self.in_cone[n as usize] == epoch {
                self.in_faulty[n as usize] = epoch;
                self.faulty_var[n as usize] = self.solver.new_var();
                self.chain_var[n as usize] = self.solver.new_var();
                self.faulty.push(n);
            }
        }
        if let Injection::Bridge { a, b, .. } = injection {
            self.mark_good(&[a, b]);
        }
        self.encode_good();

        // The faulty machine.
        for i in 0..self.faulty.len() {
            let n = self.faulty[i];
            let f = Lit::new(self.faulty_var[n as usize], true);
            match injection {
                Injection::Stuck { net, value } if n == net => {
                    self.solver.add_clause(&[if value { f } else { !f }]);
                }
                Injection::Bridge { a, b, kind } if n == a || n == b => {
                    let resolution = match kind {
                        BridgeKind::WiredAnd => TruthTable::new(2, 0x8),
                        BridgeKind::WiredOr => TruthTable::new(2, 0xE),
                    };
                    self.encode(resolution, &[self.good_lit(a), self.good_lit(b)], f);
                }
                _ => {
                    let k = self.driver[n as usize];
                    debug_assert_ne!(k, UNDRIVEN, "a non-site cone net is an op output");
                    let k = k as usize;
                    let mut tt = self.arena.op_tt(k);
                    if let Injection::Cell { gate, conditions } = injection {
                        if self.arena.op_gate(k) == gate {
                            tt = flipped(tt, conditions, self.arena.op_out_pin(k));
                        }
                    }
                    let mut inputs = [f; MAX_TT_INPUTS];
                    let slots = self.arena.op_inputs(k);
                    for (x, &i) in inputs.iter_mut().zip(slots) {
                        *x = self.faulty_lit(i);
                    }
                    self.encode(tt, &inputs[..slots.len()], f);
                }
            }
        }

        // The miter and the active-path (D-chain) clauses.
        for i in 0..self.faulty.len() {
            let n = self.faulty[i] as usize;
            let (g, f) = (Lit::new(self.good_var[n], true), Lit::new(self.faulty_var[n], true));
            let d = Lit::new(self.chain_var[n], true);
            self.solver.add_clause(&[!d, g, f]);
            self.solver.add_clause(&[!d, !g, !f]);
            if !self.is_po[n] {
                self.clause.clear();
                self.clause.push(!d);
                for &k in self.arena.net_loads(n) {
                    let m = self.arena.op_out(k as usize) as usize;
                    if self.in_faulty[m] == epoch {
                        self.clause.push(Lit::new(self.chain_var[m], true));
                    }
                }
                self.solver.add_clause(&self.clause);
            }
        }
        self.clause.clear();
        for &s in &self.sites {
            if self.in_faulty[s as usize] == epoch {
                self.clause.push(Lit::new(self.chain_var[s as usize], true));
            }
        }
        self.solver.add_clause(&self.clause);
        self.clause.clear();
        for &o in &self.observed {
            self.clause.push(Lit::new(self.chain_var[o as usize], true));
        }
        self.solver.add_clause(&self.clause);
        self.solve()
    }

    /// Solves a good-machine justification of `net = value`.
    fn justify(&mut self, net: u32, value: bool) -> Option<Pattern> {
        self.begin();
        self.mark_good(&[net]);
        self.encode_good();
        let g = self.good_lit(net);
        self.solver.add_clause(&[if value { g } else { !g }]);
        self.solve()
    }

    /// Runs the solver on the current instance; on SAT, the pattern of the
    /// model's PI values (0 for PIs outside the good machine).
    fn solve(&mut self) -> Option<Pattern> {
        let sat = self.solver.solve();
        self.conflicts += self.solver.conflicts();
        if !sat {
            return None;
        }
        let pis = self.arena.pis();
        let mut p = Pattern::zeros(pis.len());
        for (i, &n) in pis.iter().enumerate() {
            if self.in_good[n as usize] == self.epoch {
                p.set(i, self.solver.model_value(self.good_var[n as usize]));
            }
        }
        Some(p)
    }

    /// Adds the transitive fan-in of `roots` to the good machine, with a
    /// fresh variable per new net.
    fn mark_good(&mut self, roots: &[u32]) {
        let epoch = self.epoch;
        self.stack.clear();
        self.stack.extend_from_slice(roots);
        while let Some(n) = self.stack.pop() {
            if self.in_good[n as usize] == epoch {
                continue;
            }
            self.in_good[n as usize] = epoch;
            self.good_var[n as usize] = self.solver.new_var();
            self.good.push(n);
            let k = self.driver[n as usize];
            if k != UNDRIVEN {
                self.stack.extend_from_slice(self.arena.op_inputs(k as usize));
            }
        }
    }

    /// The good machine's clauses: each driven net its op's function, each
    /// undriven net its [`SimArena::set_inputs`] value (PIs stay free).
    fn encode_good(&mut self) {
        for i in 0..self.good.len() {
            let n = self.good[i];
            let g = self.good_lit(n);
            let k = self.driver[n as usize];
            if k != UNDRIVEN {
                let k = k as usize;
                let mut inputs = [g; MAX_TT_INPUTS];
                let slots = self.arena.op_inputs(k);
                for (x, &i) in inputs.iter_mut().zip(slots) {
                    *x = self.good_lit(i);
                }
                self.encode(self.arena.op_tt(k), &inputs[..slots.len()], g);
            } else if self.const_one[n as usize] {
                self.solver.add_clause(&[g]);
            } else if !self.is_pi[n as usize] {
                self.solver.add_clause(&[!g]);
            }
        }
    }

    #[inline]
    fn good_lit(&self, n: u32) -> Lit {
        Lit::new(self.good_var[n as usize], true)
    }

    #[inline]
    fn faulty_lit(&self, n: u32) -> Lit {
        if self.in_faulty[n as usize] == self.epoch {
            Lit::new(self.faulty_var[n as usize], true)
        } else {
            self.good_lit(n)
        }
    }

    /// Adds `out ↔ tt(inputs)`: one clause per prime implicant of the
    /// on-set (`cube → out`) and of the off-set (`cube → !out`).
    fn encode(&mut self, tt: TruthTable, inputs: &[Lit], out: Lit) {
        let cover = self.covers.entry(tt).or_insert_with(|| Cover {
            on: tt.prime_implicants(),
            off: tt.not().prime_implicants(),
        });
        for (cubes, head) in [(&cover.on, out), (&cover.off, !out)] {
            for &(care, values) in cubes {
                self.clause.clear();
                for (i, &x) in inputs.iter().enumerate() {
                    if care >> i & 1 == 1 {
                        self.clause.push(if values >> i & 1 == 1 { !x } else { x });
                    }
                }
                self.clause.push(head);
                self.solver.add_clause(&self.clause);
            }
        }
    }
}

/// `tt` with its output flipped on every minterm a condition on output pin
/// `pin` names — the cell-aware fault's faulty function of that op.
fn flipped(tt: TruthTable, conditions: &[CellCondition], pin: u8) -> TruthTable {
    let n = tt.input_count();
    let mask = (1u64 << n) - 1;
    let flip = conditions
        .iter()
        .filter(|c| c.output == pin)
        .fold(0u64, |acc, c| acc | 1 << (c.pattern & mask));
    TruthTable::new(n, tt.bits() ^ flip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use rsyn_netlist::Library;

    /// `o = OR(s, c)` with `s = AND(a, !a)`, a constant 0, plus an input
    /// `z` that feeds a second output of its own.
    fn redundant_or() -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("r", lib.clone());
        let a = nl.add_input("a");
        let c = nl.add_input("c");
        let z = nl.add_input("z");
        let (na, s, o, y) =
            (nl.add_net(), nl.add_named_net("s"), nl.add_named_net("o"), nl.add_named_net("y"));
        nl.add_gate("i", lib.cell_id("INVX1").unwrap(), &[a], &[na]).unwrap();
        nl.add_gate("g", lib.cell_id("AND2X2").unwrap(), &[a, na], &[s]).unwrap();
        nl.add_gate("h", lib.cell_id("OR2X2").unwrap(), &[s, c], &[o]).unwrap();
        nl.add_gate("j", lib.cell_id("INVX1").unwrap(), &[z], &[y]).unwrap();
        nl.mark_output(o);
        nl.mark_output(y);
        nl
    }

    /// The D-chain's site clause forces the site to differ, so an
    /// unexcitable fault is a contradiction of unit propagation alone: the
    /// solver's only conflict is the one at level 0.
    #[test]
    fn unexcitable_fault_is_refuted_by_propagation() {
        let nl = redundant_or();
        let view = nl.comb_view().unwrap();
        let s = nl.find_net("s").unwrap();
        let mut prover = SatAtpg::new(&nl, &view);
        let fault = Fault::external(FaultKind::StuckAt { net: s, value: false }, 0);
        assert_eq!(prover.decide(&fault), SatOutcome::Undetectable);
        assert_eq!(prover.conflicts(), 1);
    }

    /// Inputs outside a test's good machine fill 0, so a pattern depends
    /// only on the fault's cones.
    #[test]
    fn unconstrained_inputs_fill_zero() {
        let nl = redundant_or();
        let view = nl.comb_view().unwrap();
        let o = nl.find_net("o").unwrap();
        let mut prover = SatAtpg::new(&nl, &view);
        let fault = Fault::external(FaultKind::StuckAt { net: o, value: false }, 0);
        let SatOutcome::Detected(test) = prover.decide(&fault) else {
            panic!("o SA0 is detectable")
        };
        let z = view.pis.iter().position(|&p| p == nl.find_net("z").unwrap()).unwrap();
        assert!(!test[0].get(z), "z lies outside o's fan-in");
    }

    #[test]
    fn cell_flip_touches_only_its_pin() {
        let nand = TruthTable::new(2, 0x7);
        let conds = [
            CellCondition { pattern: 0b01, output: 0 },
            CellCondition { pattern: 0b11, output: 1 },
        ];
        assert_eq!(flipped(nand, &conds, 0).bits(), 0x7 ^ 0b0010);
        assert_eq!(flipped(nand, &conds, 1).bits(), 0x7 ^ 0b1000);
    }
}
