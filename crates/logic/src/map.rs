//! Technology mapping: cover an AIG with library cells from an allowed
//! subset, minimising an area/delay blend.
//!
//! The mapper is deliberately classical — k-feasible cuts, boolean matching,
//! area-flow costs, topological cover extraction — because the resynthesis
//! procedure only requires `Synthesize()` to be *functionally correct* and
//! *responsive to the allowed-cell restriction*.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use rsyn_netlist::{CellId, Library, NetId, Netlist, NetlistError, TruthTable};

use crate::aig::{Aig, Lit, NodeKind};
use crate::cuts::CutSet;
use crate::matcher::{CellMatch, MatchTable};

/// Errors produced by technology mapping.
#[derive(Clone, Debug, PartialEq)]
pub enum MapError {
    /// The allowed cell subset is not functionally complete.
    IncompleteLibrary,
    /// No allowed match exists for a node function (should not occur with a
    /// complete subset).
    Unmappable {
        /// The offending cut function.
        function: TruthTable,
    },
    /// Netlist stitching failed.
    Netlist(NetlistError),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::IncompleteLibrary => {
                write!(f, "allowed cell subset is not functionally complete")
            }
            MapError::Unmappable { function } => {
                write!(f, "no allowed match for function {function}")
            }
            MapError::Netlist(e) => write!(f, "netlist error during mapping: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<NetlistError> for MapError {
    fn from(e: NetlistError) -> Self {
        MapError::Netlist(e)
    }
}

/// Cost-blend options for mapping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapOptions {
    /// Weight of the area-flow term.
    pub area_weight: f64,
    /// Weight of the arrival-time term.
    pub delay_weight: f64,
}

impl MapOptions {
    /// Pure area-oriented mapping.
    pub fn area() -> Self {
        Self { area_weight: 1.0, delay_weight: 0.0 }
    }

    /// Delay-oriented mapping (area as a light tiebreak).
    pub fn delay() -> Self {
        Self { area_weight: 0.05, delay_weight: 1.0 }
    }

    /// A blend: `t = 0` is pure area, `t = 1` is delay-oriented.
    pub fn blend(t: f64) -> Self {
        let t = t.clamp(0.0, 1.0);
        Self { area_weight: 1.0 - 0.95 * t, delay_weight: t }
    }
}

/// Nominal output load assumed during cost estimation (fF).
const NOMINAL_LOAD_FF: f64 = 3.0;
/// Delay charged for a phase inverter during cost estimation (ps).
const INV_DELAY_PS: f64 = 30.0;

/// Phase index: 0 = positive (the node's value), 1 = negative (complement).
type Phase = usize;

/// How one phase of a node is realised.
#[derive(Clone, Debug)]
enum PhaseChoice {
    /// The phase is a constant.
    Const(bool),
    /// The phase equals `leaf` in phase `leaf_phase`.
    Alias { leaf: u32, leaf_phase: Phase },
    /// A matched cell over cut leaves; input pin `j` takes
    /// `leaves[m.pins[j]]` in the phase given by bit `j` of `m.inv_mask`.
    Mapped { m: CellMatch, leaves: Vec<u32> },
    /// An inverter from the node's other phase.
    FromOther,
}

#[derive(Clone, Debug)]
struct PhaseBest {
    choice: PhaseChoice,
    cost: f64,
    arrival: f64,
}

/// A reusable technology mapper for one library.
///
/// The mapper is dual-polarity: both phases of every AIG node get a best
/// implementation, so complemented fanins resolve to naturally-inverting
/// cells (NAND/NOR/AOI/OAI outputs) instead of explicit inverters.
#[derive(Debug)]
pub struct Mapper {
    lib: Arc<Library>,
    table: OnceLock<MatchTable>,
    cell_area: HashMap<CellId, f64>,
}

impl Mapper {
    /// Creates the mapper for a library. The match table itself is built
    /// lazily on first use, so a context that never maps never builds it.
    pub fn new(lib: &Arc<Library>) -> Self {
        let cell_area = lib.iter().map(|(id, c)| (id, c.area)).collect();
        Self { lib: Arc::clone(lib), table: OnceLock::new(), cell_area }
    }

    /// The underlying match table (built on first call).
    pub fn table(&self) -> &MatchTable {
        self.table.get_or_init(|| MatchTable::build(&self.lib))
    }

    /// Whether an allowed subset can map arbitrary logic.
    pub fn is_complete(&self, allowed: &[bool]) -> bool {
        self.table().is_complete(allowed)
    }

    /// Maps `aig` into `nl`, binding AIG PIs to `pi_nets` and POs to
    /// `po_nets` (which must be undriven). Returns the created gates.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::IncompleteLibrary`] if `allowed` cannot express
    /// arbitrary logic, or a stitching error.
    ///
    /// # Panics
    ///
    /// Panics if `pi_nets`/`po_nets` lengths do not match the AIG interface.
    #[allow(clippy::too_many_arguments)]
    pub fn map_into(
        &self,
        aig: &Aig,
        allowed: &[bool],
        options: &MapOptions,
        nl: &mut Netlist,
        pi_nets: &[NetId],
        po_nets: &[NetId],
        prefix: &str,
    ) -> Result<Vec<rsyn_netlist::GateId>, MapError> {
        assert_eq!(pi_nets.len(), aig.pi_count(), "PI binding count");
        assert_eq!(po_nets.len(), aig.po_lits().len(), "PO binding count");
        if !self.is_complete(allowed) {
            return Err(MapError::IncompleteLibrary);
        }
        let inv_cell = self.table().inverter(allowed).expect("complete subset has inverter");
        let inv_area = self.cell_area[&inv_cell];

        let cuts = CutSet::enumerate(aig);
        let refs = fanout_refs(aig);
        let n = aig.node_count();
        let mut best: Vec<[Option<PhaseBest>; 2]> = vec![[None, None]; n];
        // A candidate is compared by its cost and arrival before it is
        // built, so only a winner clones its match and leaves.
        let score =
            |cost: f64, arrival: f64| options.area_weight * cost + options.delay_weight * arrival;
        let better = |cost: f64, arrival: f64, cur: &Option<PhaseBest>| match cur {
            None => true,
            Some(c) => score(cost, arrival) < score(c.cost, c.arrival),
        };

        for node in 0..n as u32 {
            match aig.kind(node) {
                NodeKind::Const => {
                    best[node as usize] = [
                        Some(PhaseBest {
                            choice: PhaseChoice::Const(false),
                            cost: 0.0,
                            arrival: 0.0,
                        }),
                        Some(PhaseBest {
                            choice: PhaseChoice::Const(true),
                            cost: 0.0,
                            arrival: 0.0,
                        }),
                    ];
                }
                NodeKind::Pi(_) => {
                    best[node as usize] = [
                        Some(PhaseBest {
                            choice: PhaseChoice::Alias { leaf: node, leaf_phase: 0 },
                            cost: 0.0,
                            arrival: 0.0,
                        }),
                        Some(PhaseBest {
                            choice: PhaseChoice::FromOther,
                            cost: inv_area,
                            arrival: INV_DELAY_PS,
                        }),
                    ];
                }
                NodeKind::And => {
                    let mut phase_best: [Option<PhaseBest>; 2] = [None, None];
                    for cut in cuts.of(node) {
                        if cut.is_trivial(node) {
                            continue;
                        }
                        let (rleaves, rf) = reduce_support(cut.function, &cut.leaves);
                        if rleaves.is_empty() {
                            let v = rf.bits() & 1 == 1;
                            for (phase, pb) in phase_best.iter_mut().enumerate() {
                                if better(0.0, 0.0, pb) {
                                    *pb = Some(PhaseBest {
                                        choice: PhaseChoice::Const(v ^ (phase == 1)),
                                        cost: 0.0,
                                        arrival: 0.0,
                                    });
                                }
                            }
                            continue;
                        }
                        if rf == TruthTable::var(1, 0) || rf == TruthTable::var(1, 0).not() {
                            let leaf = rleaves[0];
                            let inverted = rf == TruthTable::var(1, 0).not();
                            for (phase, pb) in phase_best.iter_mut().enumerate() {
                                let leaf_phase = usize::from(inverted) ^ phase;
                                let Some(lb) = best[leaf as usize][leaf_phase].as_ref() else {
                                    continue;
                                };
                                let cost = lb.cost / refs[leaf as usize].max(1) as f64;
                                if better(cost, lb.arrival, pb) {
                                    *pb = Some(PhaseBest {
                                        choice: PhaseChoice::Alias { leaf, leaf_phase },
                                        cost,
                                        arrival: lb.arrival,
                                    });
                                }
                            }
                            continue;
                        }
                        for (phase, pb) in phase_best.iter_mut().enumerate() {
                            let f_t = if phase == 1 { rf.not() } else { rf };
                            for m in self.table().matches(f_t) {
                                if !allowed[m.cell.index()] {
                                    continue;
                                }
                                let mut cost = m.area;
                                let mut arrival: f64 = 0.0;
                                let mut feasible = true;
                                for (j, &leaf_idx) in m.pins.iter().enumerate() {
                                    let leaf = rleaves[leaf_idx as usize];
                                    let leaf_phase = usize::from((m.inv_mask >> j) & 1 == 1);
                                    let Some(lb) = best[leaf as usize][leaf_phase].as_ref() else {
                                        feasible = false;
                                        break;
                                    };
                                    cost += lb.cost / refs[leaf as usize].max(1) as f64;
                                    arrival = arrival.max(lb.arrival);
                                }
                                if !feasible {
                                    continue;
                                }
                                arrival += m.intrinsic_delay + m.delay_slope * NOMINAL_LOAD_FF;
                                if better(cost, arrival, pb) {
                                    *pb = Some(PhaseBest {
                                        choice: PhaseChoice::Mapped {
                                            m: m.clone(),
                                            leaves: rleaves.clone(),
                                        },
                                        cost,
                                        arrival,
                                    });
                                }
                            }
                        }
                    }
                    // Phase relaxation: either phase may be an inverter off
                    // the other (one round suffices: INV of INV never wins).
                    for phase in 0..2 {
                        let other = 1 - phase;
                        if let Some(ob) = &phase_best[other] {
                            let (cost, arrival) = (ob.cost + inv_area, ob.arrival + INV_DELAY_PS);
                            if better(cost, arrival, &phase_best[phase]) {
                                phase_best[phase] = Some(PhaseBest {
                                    choice: PhaseChoice::FromOther,
                                    cost,
                                    arrival,
                                });
                            }
                        }
                    }
                    if phase_best[0].is_none() && phase_best[1].is_none() {
                        return Err(MapError::Unmappable {
                            function: cuts
                                .of(node)
                                .first()
                                .map(|c| c.function)
                                .unwrap_or_else(|| TruthTable::zero(0)),
                        });
                    }
                    best[node as usize] = phase_best;
                }
            }
        }

        // --- cover extraction -------------------------------------------------
        let mut needed = vec![[false, false]; n];
        let mut stack: Vec<(u32, Phase)> =
            aig.po_lits().iter().map(|l| (l.node(), usize::from(l.is_complement()))).collect();
        while let Some((node, phase)) = stack.pop() {
            if needed[node as usize][phase] {
                continue;
            }
            needed[node as usize][phase] = true;
            let Some(pb) = &best[node as usize][phase] else { continue };
            match &pb.choice {
                PhaseChoice::Const(_) => {}
                PhaseChoice::Alias { leaf, leaf_phase } => stack.push((*leaf, *leaf_phase)),
                PhaseChoice::FromOther => stack.push((node, 1 - phase)),
                PhaseChoice::Mapped { m, leaves } => {
                    for (j, &leaf_idx) in m.pins.iter().enumerate() {
                        let leaf = leaves[leaf_idx as usize];
                        let leaf_phase = usize::from((m.inv_mask >> j) & 1 == 1);
                        stack.push((leaf, leaf_phase));
                    }
                }
            }
        }

        // --- emission ----------------------------------------------------------
        let mut emitter = Emitter {
            nl,
            prefix: prefix.to_string(),
            counter: 0,
            net_of: HashMap::new(),
            inv_cell,
            buf_cell: self.table().buffer(allowed),
            gates: Vec::new(),
        };
        for (i, lit) in aig.pi_lits().iter().enumerate() {
            emitter.net_of.insert((lit.node(), 0), pi_nets[i]);
        }
        // Pre-bind POs whose (node, phase) is a Mapped choice not yet bound.
        let mut po_bound = vec![false; po_nets.len()];
        for (i, &lit) in aig.po_lits().iter().enumerate() {
            let node = lit.node();
            let phase = usize::from(lit.is_complement());
            if aig.kind(node) == NodeKind::And
                && !emitter.net_of.contains_key(&(node, phase))
                && matches!(
                    best[node as usize][phase].as_ref().map(|b| &b.choice),
                    Some(PhaseChoice::Mapped { .. })
                )
            {
                emitter.net_of.insert((node, phase), po_nets[i]);
                po_bound[i] = true;
            }
        }
        // Emit needed phases in topological node order; within a node, emit
        // direct choices before FromOther.
        for node in 0..n as u32 {
            if aig.kind(node) == NodeKind::Const {
                continue;
            }
            let order: [Phase; 2] = {
                let p0_from_other = matches!(
                    best[node as usize][0].as_ref().map(|b| &b.choice),
                    Some(PhaseChoice::FromOther)
                );
                if p0_from_other {
                    [1, 0]
                } else {
                    [0, 1]
                }
            };
            for phase in order {
                if !needed[node as usize][phase] {
                    continue;
                }
                if emitter.net_of.contains_key(&(node, phase))
                    && !matches!(
                        best[node as usize][phase].as_ref().map(|b| &b.choice),
                        Some(PhaseChoice::Mapped { .. })
                    )
                {
                    continue; // PIs
                }
                let pb = best[node as usize][phase].clone();
                let Some(pb) = pb else { continue };
                emitter.emit_phase(node, phase, &pb.choice, aig)?;
            }
        }
        // Connect remaining POs.
        for (i, &lit) in aig.po_lits().iter().enumerate() {
            if po_bound[i] {
                continue;
            }
            let node = lit.node();
            let phase = usize::from(lit.is_complement());
            if lit.is_const() {
                emitter.nl.tie(po_nets[i], lit == Lit::TRUE);
                continue;
            }
            if let Some(PhaseBest { choice: PhaseChoice::Const(v), .. }) =
                &best[node as usize][phase]
            {
                emitter.nl.tie(po_nets[i], *v);
                continue;
            }
            let src = emitter.net_of.get(&(node, phase)).copied();
            match src {
                Some(src) if src != po_nets[i] => emitter.copy_into(src, po_nets[i])?,
                Some(_) => {}
                None => {
                    // The phase exists only as the complement: invert.
                    let other = emitter
                        .net_of
                        .get(&(node, 1 - phase))
                        .copied()
                        .expect("some phase of a PO node is emitted");
                    let name = emitter.fresh_name();
                    let g = emitter.nl.add_gate(name, emitter.inv_cell, &[other], &[po_nets[i]])?;
                    emitter.gates.push(g);
                }
            }
        }
        Ok(emitter.gates)
    }
}

fn fanout_refs(aig: &Aig) -> Vec<u32> {
    let mut refs = vec![0u32; aig.node_count()];
    for node in 0..aig.node_count() as u32 {
        if aig.kind(node) == NodeKind::And {
            for f in aig.fanins(node) {
                refs[f.node() as usize] += 1;
            }
        }
    }
    for lit in aig.po_lits() {
        refs[lit.node() as usize] += 1;
    }
    refs
}

/// Removes leaves the function does not depend on.
fn reduce_support(f: TruthTable, leaves: &[u32]) -> (Vec<u32>, TruthTable) {
    let mut rf = f;
    let mut rleaves = leaves.to_vec();
    let mut i = 0;
    while i < rleaves.len() {
        if rf.depends_on(i) {
            i += 1;
        } else {
            rf = rf.cofactor(i, false);
            rleaves.remove(i);
        }
    }
    (rleaves, rf)
}

struct Emitter<'a> {
    nl: &'a mut Netlist,
    prefix: String,
    counter: usize,
    /// Net realising each needed (node, phase).
    net_of: HashMap<(u32, Phase), NetId>,
    inv_cell: CellId,
    buf_cell: Option<CellId>,
    gates: Vec<rsyn_netlist::GateId>,
}

impl Emitter<'_> {
    fn fresh_name(&mut self) -> String {
        let name = format!("{}_{}", self.prefix, self.counter);
        self.counter += 1;
        name
    }

    fn phase_net(&mut self, node: u32, phase: Phase) -> Result<NetId, MapError> {
        if let Some(&net) = self.net_of.get(&(node, phase)) {
            return Ok(net);
        }
        // Derive via inverter from the other phase (must exist).
        let other =
            *self.net_of.get(&(node, 1 - phase)).expect("other phase emitted before derivation");
        let out = self.nl.add_net();
        let name = self.fresh_name();
        let g = self.nl.add_gate(name, self.inv_cell, &[other], &[out])?;
        self.gates.push(g);
        self.net_of.insert((node, phase), out);
        Ok(out)
    }

    fn emit_phase(
        &mut self,
        node: u32,
        phase: Phase,
        choice: &PhaseChoice,
        aig: &Aig,
    ) -> Result<(), MapError> {
        if self.net_of.contains_key(&(node, phase)) && !matches!(choice, PhaseChoice::Mapped { .. })
        {
            return Ok(());
        }
        match choice {
            PhaseChoice::Const(v) => {
                let net = if *v { self.nl.const1() } else { self.nl.const0() };
                if let Some(&bound) = self.net_of.get(&(node, phase)) {
                    if bound != net {
                        self.nl.tie(bound, *v);
                        return Ok(());
                    }
                }
                self.net_of.insert((node, phase), net);
            }
            PhaseChoice::Alias { leaf, leaf_phase } => {
                let src = self.phase_net(*leaf, *leaf_phase)?;
                if let Some(&bound) = self.net_of.get(&(node, phase)) {
                    self.copy_into(src, bound)?;
                } else {
                    self.net_of.insert((node, phase), src);
                }
            }
            PhaseChoice::FromOther => {
                // Realised lazily by phase_net when first requested; force
                // emission now so the net exists for consumers.
                let _ = aig;
                let target = self.net_of.get(&(node, phase)).copied();
                let other =
                    *self.net_of.get(&(node, 1 - phase)).expect("direct phase emitted first");
                match target {
                    Some(net) => {
                        let name = self.fresh_name();
                        let g = self.nl.add_gate(name, self.inv_cell, &[other], &[net])?;
                        self.gates.push(g);
                    }
                    None => {
                        let out = self.nl.add_net();
                        let name = self.fresh_name();
                        let g = self.nl.add_gate(name, self.inv_cell, &[other], &[out])?;
                        self.gates.push(g);
                        self.net_of.insert((node, phase), out);
                    }
                }
            }
            PhaseChoice::Mapped { m, leaves } => {
                let mut ins = Vec::with_capacity(m.pins.len());
                for (j, &leaf_idx) in m.pins.iter().enumerate() {
                    let leaf = leaves[leaf_idx as usize];
                    let leaf_phase = usize::from((m.inv_mask >> j) & 1 == 1);
                    ins.push(self.phase_net(leaf, leaf_phase)?);
                }
                let out = match self.net_of.get(&(node, phase)) {
                    Some(&net) => net,
                    None => {
                        let net = self.nl.add_net();
                        self.net_of.insert((node, phase), net);
                        net
                    }
                };
                let name = self.fresh_name();
                let g = self.nl.add_gate(name, m.cell, &ins, &[out])?;
                self.gates.push(g);
            }
        }
        Ok(())
    }

    fn copy_into(&mut self, src: NetId, target: NetId) -> Result<(), MapError> {
        if let Some(buf) = self.buf_cell {
            let name = self.fresh_name();
            let g = self.nl.add_gate(name, buf, &[src], &[target])?;
            self.gates.push(g);
        } else {
            let mid = self.nl.add_net();
            let n1 = self.fresh_name();
            let g1 = self.nl.add_gate(n1, self.inv_cell, &[src], &[mid])?;
            let n2 = self.fresh_name();
            let g2 = self.nl.add_gate(n2, self.inv_cell, &[mid], &[target])?;
            self.gates.push(g1);
            self.gates.push(g2);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_netlist::{sim::simulate_one, Library};

    fn map_function(f: TruthTable, allowed_names: Option<&[&str]>) -> (Netlist, Vec<NetId>, NetId) {
        let lib = Library::osu018();
        let mut aig = Aig::new();
        let pis: Vec<Lit> = (0..f.input_count()).map(|_| aig.add_pi()).collect();
        let y = aig.build_function(f, &pis);
        aig.add_po(y);

        let mut nl = Netlist::new("m", lib.clone());
        let pi_nets: Vec<NetId> =
            (0..f.input_count()).map(|i| nl.add_input(format!("x{i}"))).collect();
        let po = nl.add_named_net("y");
        nl.mark_output(po);

        let allowed: Vec<bool> = match allowed_names {
            None => vec![true; lib.len()],
            Some(names) => {
                let mut v = vec![false; lib.len()];
                for n in names {
                    v[lib.cell_id(n).unwrap().index()] = true;
                }
                v
            }
        };
        let mapper = Mapper::new(&lib);
        mapper
            .map_into(&aig, &allowed, &MapOptions::area(), &mut nl, &pi_nets, &[po], "m")
            .expect("mapping succeeds");
        (nl, pi_nets, po)
    }

    fn check_function(f: TruthTable, allowed: Option<&[&str]>) {
        let (nl, _pis, _po) = map_function(f, allowed);
        nl.validate().expect("valid netlist");
        let view = nl.comb_view().unwrap();
        for m in 0..(1u64 << f.input_count()) {
            let pis: Vec<bool> = (0..f.input_count()).map(|i| (m >> i) & 1 == 1).collect();
            let out = simulate_one(&nl, &view, &pis);
            assert_eq!(out[0], f.eval(m), "minterm {m} of {f}");
        }
    }

    #[test]
    fn maps_every_2_input_function() {
        for bits in 0..16u64 {
            check_function(TruthTable::new(2, bits), None);
        }
    }

    #[test]
    fn maps_sample_3_and_4_input_functions() {
        for bits in [0x96u64, 0xE8, 0x7F, 0x01, 0x69, 0x80, 0xFE] {
            check_function(TruthTable::new(3, bits), None);
        }
        for bits in [0x6996u64, 0x8000, 0xFFFE, 0x1234, 0xCAFE, 0x0660] {
            check_function(TruthTable::new(4, bits), None);
        }
    }

    #[test]
    fn maps_with_nand_inv_only() {
        let allowed = ["NAND2X1", "INVX1"];
        for bits in [0b0110u64, 0b1000, 0b0111, 0b1001] {
            check_function(TruthTable::new(2, bits), Some(&allowed));
        }
        check_function(TruthTable::new(3, 0x96), Some(&allowed));
    }

    #[test]
    fn restricted_mapping_uses_no_banned_cells() {
        let lib = Library::osu018();
        let f = TruthTable::new(2, 0b0110); // xor
        let (nl, _, _) = map_function(f, Some(&["NAND2X1", "NOR2X1", "INVX1", "BUFX2"]));
        for (_, g) in nl.gates() {
            let name = &lib.cell(g.cell).name;
            assert!(
                ["NAND2X1", "NOR2X1", "INVX1", "BUFX2"].contains(&name.as_str()),
                "unexpected cell {name}"
            );
        }
    }

    #[test]
    fn incomplete_subset_is_rejected() {
        let lib = Library::osu018();
        let mapper = Mapper::new(&lib);
        let mut aig = Aig::new();
        let a = aig.add_pi();
        let b = aig.add_pi();
        let y = aig.and(a, b);
        aig.add_po(y);
        let mut allowed = vec![false; lib.len()];
        allowed[lib.cell_id("BUFX2").unwrap().index()] = true;
        let mut nl = Netlist::new("t", lib.clone());
        let pa = nl.add_input("a");
        let pb = nl.add_input("b");
        let po = nl.add_named_net("y");
        nl.mark_output(po);
        let err = mapper
            .map_into(&aig, &allowed, &MapOptions::area(), &mut nl, &[pa, pb], &[po], "m")
            .unwrap_err();
        assert_eq!(err, MapError::IncompleteLibrary);
    }

    #[test]
    fn constant_output_is_tied() {
        check_function(TruthTable::zero(2), None);
        check_function(TruthTable::one(2), None);
    }

    #[test]
    fn identity_and_inverter_outputs() {
        check_function(TruthTable::var(2, 1), None);
        check_function(TruthTable::var(1, 0).not(), None);
    }

    #[test]
    fn delay_mode_produces_valid_mapping() {
        let lib = Library::osu018();
        let f = TruthTable::new(4, 0x6996);
        let mut aig = Aig::new();
        let pis: Vec<Lit> = (0..4).map(|_| aig.add_pi()).collect();
        let y = aig.build_function(f, &pis);
        aig.add_po(y);
        let mut nl = Netlist::new("d", lib.clone());
        let pi_nets: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("x{i}"))).collect();
        let po = nl.add_named_net("y");
        nl.mark_output(po);
        let mapper = Mapper::new(&lib);
        let allowed = vec![true; lib.len()];
        mapper
            .map_into(&aig, &allowed, &MapOptions::delay(), &mut nl, &pi_nets, &[po], "d")
            .expect("delay mapping succeeds");
        nl.validate().expect("valid");
        let view = nl.comb_view().unwrap();
        for m in 0..16u64 {
            let pis: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(simulate_one(&nl, &view, &pis)[0], f.eval(m));
        }
    }
}
