//! The arena-based gate-level netlist.
//!
//! A [`Netlist`] owns nets and gates (instances of [`crate::Cell`]s from an
//! [`Arc<Library>`]). Gates can be removed and re-added, which the
//! resynthesis procedure uses to swap subcircuits in place; removed slots are
//! tombstoned and recycled.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::cell::CellClass;
use crate::ids::{CellId, GateId, NetId};
use crate::library::Library;
use crate::validate::NetlistError;

/// What drives a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// A primary input.
    Input,
    /// Output pin `1` of gate `0`.
    Gate(GateId, u8),
    /// A constant tie cell (logic 0 or 1).
    Const(bool),
}

/// A net (wire) of the netlist.
#[derive(Clone, Debug)]
pub struct Net {
    /// Net name (unique within the netlist).
    pub name: String,
    /// The net's driver, if connected.
    pub driver: Option<Driver>,
    /// `(gate, input-pin)` sinks.
    pub loads: Vec<(GateId, u8)>,
}

/// A gate: one instance of a library cell.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Instance name.
    pub name: String,
    /// The library cell this instantiates.
    pub cell: CellId,
    /// Nets connected to input pins, in cell pin order.
    pub inputs: Vec<NetId>,
    /// Nets connected to output pins, in cell pin order.
    pub outputs: Vec<NetId>,
}

/// A combinational view of the netlist for test generation and simulation.
///
/// Flip-flops are cut: every flop `Q` output net becomes a pseudo primary
/// input and every flop `D` input net becomes a pseudo primary output (the
/// standard full-scan assumption of the paper).
#[derive(Clone, Debug)]
pub struct CombView {
    /// Real primary inputs followed by pseudo inputs (flop outputs).
    pub pis: Vec<NetId>,
    /// Real primary outputs followed by pseudo outputs (flop data inputs).
    pub pos: Vec<NetId>,
    /// Combinational gates in topological order.
    pub order: Vec<GateId>,
    /// Number of real (non-pseudo) primary inputs at the front of `pis`.
    pub real_pi_count: usize,
    /// Number of real (non-pseudo) primary outputs at the front of `pos`.
    pub real_po_count: usize,
}

/// A gate-level netlist bound to a standard-cell library.
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    lib: Arc<Library>,
    nets: Vec<Net>,
    gates: Vec<Option<Gate>>,
    free_gates: Vec<GateId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>, lib: Arc<Library>) -> Self {
        Self {
            name: name.into(),
            lib,
            nets: Vec::new(),
            gates: Vec::new(),
            free_gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            const0: None,
            const1: None,
        }
    }

    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bound library.
    pub fn lib(&self) -> &Arc<Library> {
        &self.lib
    }

    // --- nets ---------------------------------------------------------------

    /// Adds an unnamed internal net; the name is synthesised from the id.
    pub fn add_net(&mut self) -> NetId {
        let id = NetId::from_index(self.nets.len());
        self.nets.push(Net { name: format!("_n{}", id.index()), driver: None, loads: Vec::new() });
        id
    }

    /// Adds a named internal net.
    pub fn add_named_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId::from_index(self.nets.len());
        self.nets.push(Net { name: name.into(), driver: None, loads: Vec::new() });
        id
    }

    /// Adds a primary input and returns its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_named_net(name);
        self.nets[id.index()].driver = Some(Driver::Input);
        self.inputs.push(id);
        id
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// The constant-0 net, created on first use.
    pub fn const0(&mut self) -> NetId {
        if let Some(id) = self.const0 {
            return id;
        }
        let id = self.add_named_net("_const0");
        self.nets[id.index()].driver = Some(Driver::Const(false));
        self.const0 = Some(id);
        id
    }

    /// The constant-1 net, created on first use.
    pub fn const1(&mut self) -> NetId {
        if let Some(id) = self.const1 {
            return id;
        }
        let id = self.add_named_net("_const1");
        self.nets[id.index()].driver = Some(Driver::Const(true));
        self.const1 = Some(id);
        id
    }

    /// Returns the net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Ties an undriven net to a constant value.
    ///
    /// # Panics
    ///
    /// Panics if the net already has a driver.
    pub fn tie(&mut self, net: NetId, value: bool) {
        assert!(self.nets[net.index()].driver.is_none(), "net {net} already driven");
        self.nets[net.index()].driver = Some(Driver::Const(value));
    }

    /// Number of nets (including tombstoned gates' boundary nets).
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId::from_index(i), n))
    }

    /// Primary input nets, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.outputs
    }

    // --- gates --------------------------------------------------------------

    /// Adds a gate and connects its pins.
    ///
    /// # Errors
    ///
    /// Returns an error if pin counts do not match the cell, or if an output
    /// net already has a driver.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        cell: CellId,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> Result<GateId, NetlistError> {
        let c = self.lib.cell(cell);
        if inputs.len() != c.input_count() || outputs.len() != c.output_count() {
            return Err(NetlistError::PinCountMismatch {
                cell: c.name.clone(),
                expected_inputs: c.input_count(),
                got_inputs: inputs.len(),
                expected_outputs: c.output_count(),
                got_outputs: outputs.len(),
            });
        }
        for &o in outputs {
            if self.nets[o.index()].driver.is_some() {
                return Err(NetlistError::MultipleDrivers {
                    net: self.nets[o.index()].name.clone(),
                });
            }
        }
        let gate =
            Gate { name: name.into(), cell, inputs: inputs.to_vec(), outputs: outputs.to_vec() };
        let id = if let Some(id) = self.free_gates.pop() {
            self.gates[id.index()] = Some(gate);
            id
        } else {
            let id = GateId::from_index(self.gates.len());
            self.gates.push(Some(gate));
            id
        };
        for (pin, &i) in inputs.iter().enumerate() {
            self.nets[i.index()].loads.push((id, pin as u8));
        }
        for (pin, &o) in outputs.iter().enumerate() {
            self.nets[o.index()].driver = Some(Driver::Gate(id, pin as u8));
        }
        Ok(id)
    }

    /// Removes a gate, disconnecting all its pins.
    ///
    /// The gate's output nets lose their driver but remain in the netlist so
    /// that replacement logic can re-drive them.
    ///
    /// # Panics
    ///
    /// Panics if the gate was already removed.
    pub fn remove_gate(&mut self, id: GateId) {
        let gate = self.gates[id.index()].take().expect("gate already removed");
        for &i in &gate.inputs {
            self.nets[i.index()].loads.retain(|&(g, _)| g != id);
        }
        for &o in &gate.outputs {
            self.nets[o.index()].driver = None;
        }
        self.free_gates.push(id);
    }

    /// Returns the gate with the given id, if it exists (not removed).
    pub fn gate(&self, id: GateId) -> Option<&Gate> {
        self.gates.get(id.index()).and_then(|g| g.as_ref())
    }

    /// Number of live gates.
    pub fn gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_some()).count()
    }

    /// Upper bound on gate ids (arena length, including tombstones).
    pub fn gate_capacity(&self) -> usize {
        self.gates.len()
    }

    /// Iterates over live `(id, gate)` pairs.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (GateId::from_index(i), g)))
    }

    /// All live flip-flop gate ids.
    pub fn flops(&self) -> Vec<GateId> {
        self.gates()
            .filter(|(_, g)| self.lib.cell(g.cell).class == CellClass::Flop)
            .map(|(id, _)| id)
            .collect()
    }

    /// Gates driven directly by `gate` (through its output nets).
    pub fn fanout_gates(&self, gate: GateId) -> Vec<GateId> {
        let mut out = Vec::new();
        if let Some(g) = self.gate(gate) {
            for &o in &g.outputs {
                for &(sink, _) in &self.nets[o.index()].loads {
                    if !out.contains(&sink) {
                        out.push(sink);
                    }
                }
            }
        }
        out
    }

    /// Gates that directly drive `gate`'s inputs.
    pub fn fanin_gates(&self, gate: GateId) -> Vec<GateId> {
        let mut out = Vec::new();
        if let Some(g) = self.gate(gate) {
            for &i in &g.inputs {
                if let Some(Driver::Gate(src, _)) = self.nets[i.index()].driver {
                    if !out.contains(&src) {
                        out.push(src);
                    }
                }
            }
        }
        out
    }

    /// Total standard-cell area of all live gates, in µm².
    pub fn total_area(&self) -> f64 {
        self.gates().map(|(_, g)| self.lib.cell(g.cell).area).sum()
    }

    // --- views ---------------------------------------------------------------

    /// Builds the full-scan combinational view.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the combinational part
    /// is cyclic.
    pub fn comb_view(&self) -> Result<CombView, NetlistError> {
        let mut pis = self.inputs.clone();
        let mut pos = self.outputs.clone();
        let real_pi_count = pis.len();
        let real_po_count = pos.len();

        let mut comb_gates = Vec::new();
        for (id, g) in self.gates() {
            match self.lib.cell(g.cell).class {
                CellClass::Comb => comb_gates.push(id),
                CellClass::Flop => {
                    // Q nets become pseudo-PIs, D net becomes pseudo-PO.
                    for &q in &g.outputs {
                        pis.push(q);
                    }
                    let d = g.inputs[0];
                    pos.push(d);
                }
            }
        }

        // Kahn topological sort over combinational gates.
        let mut pending: Vec<u8> = vec![0; self.gates.len()];
        let mut is_comb = vec![false; self.gates.len()];
        for &id in &comb_gates {
            is_comb[id.index()] = true;
        }
        let mut ready = VecDeque::new();
        for &id in &comb_gates {
            let g = self.gates[id.index()].as_ref().expect("live gate");
            let mut n = 0u8;
            for &i in &g.inputs {
                if let Some(Driver::Gate(src, _)) = self.nets[i.index()].driver {
                    if is_comb[src.index()] {
                        n += 1;
                    }
                }
            }
            pending[id.index()] = n;
            if n == 0 {
                ready.push_back(id);
            }
        }
        let mut order = Vec::with_capacity(comb_gates.len());
        while let Some(id) = ready.pop_front() {
            order.push(id);
            let g = self.gates[id.index()].as_ref().expect("live gate");
            for &o in &g.outputs {
                for &(sink, _) in &self.nets[o.index()].loads {
                    if is_comb[sink.index()] {
                        // A gate with the same driver on several pins is
                        // counted once per pin in `pending`, so decrement per
                        // load entry.
                        pending[sink.index()] -= 1;
                        if pending[sink.index()] == 0 {
                            ready.push_back(sink);
                        }
                    }
                }
            }
        }
        if order.len() != comb_gates.len() {
            return Err(NetlistError::CombinationalLoop {
                gates_in_loop: comb_gates.len() - order.len(),
            });
        }
        Ok(CombView { pis, pos, order, real_pi_count, real_po_count })
    }

    /// Validates structural invariants (see [`crate::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        crate::validate::validate(self)
    }
}

/// Wait-free accessor used by other crates that index nets densely.
impl Netlist {
    /// Net name lookup helper (linear; for tests and IO only).
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets.iter().position(|n| n.name == name).map(NetId::from_index)
    }

    /// Gate name lookup helper (linear; for tests and IO only).
    pub fn find_gate(&self, name: &str) -> Option<GateId> {
        self.gates
            .iter()
            .position(|g| g.as_ref().is_some_and(|g| g.name == name))
            .map(GateId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Arc<Library> {
        Library::osu018()
    }

    fn tiny() -> Netlist {
        // y = !((a & b) | c) via AOI21
        let lib = lib();
        let mut nl = Netlist::new("tiny", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let y = nl.add_named_net("y");
        let aoi = nl.lib().cell_id("AOI21X1").unwrap();
        nl.add_gate("u0", aoi, &[a, b, c], &[y]).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn build_and_query() {
        let nl = tiny();
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.primary_inputs().len(), 3);
        assert_eq!(nl.primary_outputs().len(), 1);
        let g = nl.find_gate("u0").unwrap();
        assert_eq!(nl.gate(g).unwrap().inputs.len(), 3);
        let y = nl.find_net("y").unwrap();
        assert_eq!(nl.net(y).driver, Some(Driver::Gate(g, 0)));
    }

    #[test]
    fn pin_count_mismatch_rejected() {
        let mut nl = tiny();
        let a = nl.find_net("a").unwrap();
        let z = nl.add_net();
        let nand = nl.lib().cell_id("NAND2X1").unwrap();
        let err = nl.add_gate("bad", nand, &[a], &[z]).unwrap_err();
        assert!(matches!(err, NetlistError::PinCountMismatch { .. }));
    }

    #[test]
    fn double_driver_rejected() {
        let mut nl = tiny();
        let a = nl.find_net("a").unwrap();
        let b = nl.find_net("b").unwrap();
        let y = nl.find_net("y").unwrap();
        let nand = nl.lib().cell_id("NAND2X1").unwrap();
        let err = nl.add_gate("bad", nand, &[a, b], &[y]).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn remove_gate_frees_slot_and_disconnects() {
        let mut nl = tiny();
        let g = nl.find_gate("u0").unwrap();
        nl.remove_gate(g);
        assert_eq!(nl.gate_count(), 0);
        let y = nl.find_net("y").unwrap();
        assert_eq!(nl.net(y).driver, None);
        let a = nl.find_net("a").unwrap();
        assert!(nl.net(a).loads.is_empty());
        // Slot is recycled.
        let inv = nl.lib().cell_id("INVX1").unwrap();
        let g2 = nl.add_gate("u1", inv, &[a], &[y]).unwrap();
        assert_eq!(g2, g);
    }

    #[test]
    fn comb_view_topological_order() {
        let lib = lib();
        let mut nl = Netlist::new("chain", lib);
        let a = nl.add_input("a");
        let n1 = nl.add_net();
        let n2 = nl.add_net();
        let inv = nl.lib().cell_id("INVX1").unwrap();
        // add in reverse order to exercise the sort
        let g2 = nl.add_gate("g2", inv, &[n1], &[n2]).unwrap();
        let g1 = nl.add_gate("g1", inv, &[a], &[n1]).unwrap();
        nl.mark_output(n2);
        let view = nl.comb_view().unwrap();
        let p1 = view.order.iter().position(|&g| g == g1).unwrap();
        let p2 = view.order.iter().position(|&g| g == g2).unwrap();
        assert!(p1 < p2);
    }

    #[test]
    fn comb_view_cuts_flops() {
        let lib = lib();
        let mut nl = Netlist::new("seq", lib);
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q = nl.add_named_net("q");
        let dff = nl.lib().cell_id("DFFPOSX1").unwrap();
        nl.add_gate("ff", dff, &[d, clk], &[q]).unwrap();
        let n1 = nl.add_net();
        let inv = nl.lib().cell_id("INVX1").unwrap();
        nl.add_gate("g", inv, &[q], &[n1]).unwrap();
        nl.mark_output(n1);
        let view = nl.comb_view().unwrap();
        // pseudo-PI: q; pseudo-PO: d (the flop's D net).
        assert!(view.pis.contains(&q));
        assert!(view.pos.contains(&d));
        assert_eq!(view.order.len(), 1, "only the inverter is combinational");
    }

    #[test]
    fn comb_loop_detected() {
        let lib = lib();
        let mut nl = Netlist::new("loopy", lib);
        let a = nl.add_input("a");
        let n1 = nl.add_named_net("n1");
        let n2 = nl.add_named_net("n2");
        let nand = nl.lib().cell_id("NAND2X1").unwrap();
        nl.add_gate("g1", nand, &[a, n2], &[n1]).unwrap();
        nl.add_gate("g2", nand, &[a, n1], &[n2]).unwrap();
        nl.mark_output(n2);
        let err = nl.comb_view().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn const_nets_are_cached() {
        let mut nl = tiny();
        let c0 = nl.const0();
        assert_eq!(nl.const0(), c0);
        assert_eq!(nl.net(c0).driver, Some(Driver::Const(false)));
        assert_ne!(nl.const0(), nl.const1());
    }

    #[test]
    fn fanin_fanout() {
        let lib = lib();
        let mut nl = Netlist::new("ff", lib);
        let a = nl.add_input("a");
        let n1 = nl.add_net();
        let n2 = nl.add_net();
        let inv = nl.lib().cell_id("INVX1").unwrap();
        let g1 = nl.add_gate("g1", inv, &[a], &[n1]).unwrap();
        let g2 = nl.add_gate("g2", inv, &[n1], &[n2]).unwrap();
        nl.mark_output(n2);
        assert_eq!(nl.fanout_gates(g1), vec![g2]);
        assert_eq!(nl.fanin_gates(g2), vec![g1]);
        assert!(nl.fanin_gates(g1).is_empty());
    }

    #[test]
    fn total_area_sums_cells() {
        let nl = tiny();
        let aoi = nl.lib().cell_id("AOI21X1").unwrap();
        let expect = nl.lib().cell(aoi).area;
        assert!((nl.total_area() - expect).abs() < 1e-9);
    }
}
