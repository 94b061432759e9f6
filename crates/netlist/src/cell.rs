//! Standard-cell descriptions: logic function, physical attributes, and the
//! transistor-level structure used for cell-internal defect extraction.
//!
//! Each cell is modelled as one or more complementary static-CMOS *stages*.
//! A stage is specified by its NMOS pull-down network (a series/parallel
//! tree); the PMOS pull-up network is the structural dual, as in real static
//! CMOS. Pass-gate cells of the physical OSU library (XOR, MUX, full adder)
//! are modelled by their static-CMOS equivalents; defects of the implicit
//! input inverters are folded into the transistors they gate (documented
//! substitution, see DESIGN.md).

use crate::tt::TruthTable;

/// What a transistor's gate terminal is connected to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sig {
    /// Cell input pin `pin`.
    Pin(u8),
    /// Complement of cell input pin `pin` (an implicit input inverter).
    NotPin(u8),
    /// Output node of a previous stage.
    Node(u8),
    /// Complement of the output node of a previous stage.
    NotNode(u8),
}

impl Sig {
    fn eval(self, pins: u64, nodes: u64) -> bool {
        match self {
            Sig::Pin(p) => (pins >> p) & 1 == 1,
            Sig::NotPin(p) => (pins >> p) & 1 == 0,
            Sig::Node(k) => (nodes >> k) & 1 == 1,
            Sig::NotNode(k) => (nodes >> k) & 1 == 0,
        }
    }
}

/// One transistor of a pull-down network.
///
/// The matching pull-up (dual) transistor shares the same `id`; defect
/// injection distinguishes the two networks explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Transistor {
    /// Stable id, unique within the cell (across all stages).
    pub id: u16,
    /// Gate terminal connection.
    pub gate: Sig,
}

/// A series/parallel transistor network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpNet {
    /// A single transistor.
    T(Transistor),
    /// Conducts when every child conducts.
    Series(Vec<SpNet>),
    /// Conducts when at least one child conducts.
    Parallel(Vec<SpNet>),
}

impl SpNet {
    /// Evaluates whether the network conducts, with optional defect overrides.
    ///
    /// `forced_open` / `forced_on` name a transistor id whose conduction is
    /// overridden regardless of its gate value.
    pub fn conducts(
        &self,
        pins: u64,
        nodes: u64,
        forced_open: Option<u16>,
        forced_on: Option<u16>,
    ) -> bool {
        match self {
            SpNet::T(t) => {
                if forced_open == Some(t.id) {
                    false
                } else if forced_on == Some(t.id) {
                    true
                } else {
                    t.gate.eval(pins, nodes)
                }
            }
            SpNet::Series(children) => {
                children.iter().all(|c| c.conducts(pins, nodes, forced_open, forced_on))
            }
            SpNet::Parallel(children) => {
                children.iter().any(|c| c.conducts(pins, nodes, forced_open, forced_on))
            }
        }
    }

    /// The structural dual of the network (series ↔ parallel), used as the
    /// pull-up of a complementary stage. For the pull-up to conduct exactly
    /// when the pull-down does not, each dual transistor conducts when its
    /// gate condition is false, which [`Stage::eval`] accounts for.
    pub fn dual(&self) -> SpNet {
        match self {
            SpNet::T(t) => SpNet::T(*t),
            SpNet::Series(children) => SpNet::Parallel(children.iter().map(SpNet::dual).collect()),
            SpNet::Parallel(children) => SpNet::Series(children.iter().map(SpNet::dual).collect()),
        }
    }

    /// Collects all transistor ids in the network.
    pub fn transistor_ids(&self, out: &mut Vec<u16>) {
        match self {
            SpNet::T(t) => out.push(t.id),
            SpNet::Series(children) | SpNet::Parallel(children) => {
                for c in children {
                    c.transistor_ids(out);
                }
            }
        }
    }

    /// Evaluates the *pull-up* (dual gates: conduct on gate-false), with
    /// overrides.
    fn pullup_conducts(
        &self,
        pins: u64,
        nodes: u64,
        forced_open: Option<u16>,
        forced_on: Option<u16>,
    ) -> bool {
        match self {
            SpNet::T(t) => {
                if forced_open == Some(t.id) {
                    false
                } else if forced_on == Some(t.id) {
                    true
                } else {
                    !t.gate.eval(pins, nodes)
                }
            }
            // Dual topology: series in the pull-down acts as parallel pull-up.
            SpNet::Series(children) => {
                children.iter().any(|c| c.pullup_conducts(pins, nodes, forced_open, forced_on))
            }
            SpNet::Parallel(children) => {
                children.iter().all(|c| c.pullup_conducts(pins, nodes, forced_open, forced_on))
            }
        }
    }
}

/// The resolved logic value of a CMOS stage output under defects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageValue {
    /// Driven low.
    Zero,
    /// Driven high.
    One,
    /// Both networks conduct (rail fight); resolved pessimistically by the
    /// caller.
    Conflict,
    /// Neither network conducts (floating node).
    Float,
}

/// Which transistor network of a stage a defect lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetworkSide {
    /// NMOS pull-down network.
    Pulldown,
    /// PMOS pull-up network.
    Pullup,
}

/// A defect injected into one stage for switch-level simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageDefect {
    /// No defect.
    None,
    /// Transistor permanently non-conducting.
    Open(NetworkSide, u16),
    /// Transistor permanently conducting.
    Shorted(NetworkSide, u16),
    /// Stage output node bridged to ground.
    OutputToGnd,
    /// Stage output node bridged to the supply.
    OutputToVdd,
}

/// One complementary CMOS stage of a cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stage {
    /// NMOS pull-down network; the fault-free stage output is its complement.
    pub pulldown: SpNet,
}

impl Stage {
    /// Evaluates the stage output with an optional defect.
    pub fn eval(&self, pins: u64, nodes: u64, defect: StageDefect) -> StageValue {
        let (pd_open, pd_on, pu_open, pu_on, gnd, vdd) = match defect {
            StageDefect::None => (None, None, None, None, false, false),
            StageDefect::Open(NetworkSide::Pulldown, id) => {
                (Some(id), None, None, None, false, false)
            }
            StageDefect::Shorted(NetworkSide::Pulldown, id) => {
                (None, Some(id), None, None, false, false)
            }
            StageDefect::Open(NetworkSide::Pullup, id) => {
                (None, None, Some(id), None, false, false)
            }
            StageDefect::Shorted(NetworkSide::Pullup, id) => {
                (None, None, None, Some(id), false, false)
            }
            StageDefect::OutputToGnd => (None, None, None, None, true, false),
            StageDefect::OutputToVdd => (None, None, None, None, false, true),
        };
        let pd = self.pulldown.conducts(pins, nodes, pd_open, pd_on) || gnd;
        let pu = self.pulldown.pullup_conducts(pins, nodes, pu_open, pu_on) || vdd;
        match (pd, pu) {
            (true, false) => StageValue::Zero,
            (false, true) => StageValue::One,
            (true, true) => StageValue::Conflict,
            (false, false) => StageValue::Float,
        }
    }
}

/// One output pin of a cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellOutput {
    /// Pin name, e.g. `"Y"`.
    pub name: String,
    /// Logic function over the cell's input pins.
    pub function: TruthTable,
    /// Index of the stage whose node drives this output.
    pub stage: u8,
}

/// Broad cell classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// Purely combinational.
    Comb,
    /// Edge-triggered flip-flop (input pins are `D`, `CLK`).
    Flop,
}

/// A standard cell: function, structure, and physical attributes.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Library name, e.g. `"AOI22X1"`.
    pub name: String,
    /// Input pin names, in pin order.
    pub inputs: Vec<String>,
    /// Output pins.
    pub outputs: Vec<CellOutput>,
    /// Combinational or sequential.
    pub class: CellClass,
    /// CMOS stages, evaluated in order; stage `k` may reference nodes `< k`.
    pub stages: Vec<Stage>,
    /// Cell area in µm².
    pub area: f64,
    /// Input pin capacitance in fF (uniform across pins).
    pub input_cap: f64,
    /// Intrinsic delay in ps.
    pub intrinsic_delay: f64,
    /// Delay slope in ps per fF of output load.
    pub delay_slope: f64,
    /// Leakage power in nW.
    pub leakage: f64,
    /// Switching energy in fJ per output toggle.
    pub switch_energy: f64,
    /// Total transistor count (pull-down + pull-up, both networks).
    pub transistors: u16,
}

impl Cell {
    /// Number of input pins.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output pins.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Looks up an output pin index by name.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|p| p.name == name)
    }

    /// Evaluates all stages switch-level for one input pattern, with an
    /// optional defect in one stage.
    ///
    /// Returns the per-stage node values after resolution. `Conflict` is
    /// resolved to logic 0 (ground network wins, the common silicon
    /// behaviour); `Float` is resolved to the *complement* of the fault-free
    /// value — the standard stuck-open-as-stuck-at approximation, since a
    /// two-pattern test would initialise the node to the opposite value.
    ///
    /// # Panics
    ///
    /// Panics if `defect_stage` is out of range when a defect is given.
    pub fn switch_eval(&self, pins: u64, defect_stage: usize, defect: StageDefect) -> Vec<bool> {
        // Fault-free node values first (needed for Float resolution).
        let mut good_nodes = 0u64;
        for (k, stage) in self.stages.iter().enumerate() {
            let v = match stage.eval(pins, good_nodes, StageDefect::None) {
                StageValue::One => true,
                StageValue::Zero => false,
                StageValue::Conflict | StageValue::Float => {
                    unreachable!("fault-free complementary stage cannot fight or float")
                }
            };
            if v {
                good_nodes |= 1 << k;
            }
        }
        if matches!(defect, StageDefect::None) {
            return (0..self.stages.len()).map(|k| (good_nodes >> k) & 1 == 1).collect();
        }
        let mut nodes = 0u64;
        for (k, stage) in self.stages.iter().enumerate() {
            let d = if k == defect_stage { defect } else { StageDefect::None };
            let v = match stage.eval(pins, nodes, d) {
                StageValue::One => true,
                StageValue::Zero => false,
                StageValue::Conflict => false,
                StageValue::Float => (good_nodes >> k) & 1 == 0,
            };
            if v {
                nodes |= 1 << k;
            }
        }
        (0..self.stages.len()).map(|k| (nodes >> k) & 1 == 1).collect()
    }

    /// Verifies that the stage structure computes exactly the declared
    /// truth tables. Used by library self-tests.
    pub fn structure_matches_function(&self) -> bool {
        if self.class != CellClass::Comb {
            return true;
        }
        let n = self.input_count();
        for pins in 0..(1u64 << n) {
            let nodes = self.switch_eval(pins, 0, StageDefect::None);
            for out in &self.outputs {
                if nodes[out.stage as usize] != out.function.eval(pins) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nand2() -> Cell {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        Cell {
            name: "NAND2_TEST".into(),
            inputs: vec!["A".into(), "B".into()],
            outputs: vec![CellOutput {
                name: "Y".into(),
                function: TruthTable::new(2, !(a.bits() & b.bits())),
                stage: 0,
            }],
            class: CellClass::Comb,
            stages: vec![Stage {
                pulldown: SpNet::Series(vec![
                    SpNet::T(Transistor { id: 0, gate: Sig::Pin(0) }),
                    SpNet::T(Transistor { id: 1, gate: Sig::Pin(1) }),
                ]),
            }],
            area: 1.0,
            input_cap: 1.0,
            intrinsic_delay: 10.0,
            delay_slope: 1.0,
            leakage: 1.0,
            switch_energy: 1.0,
            transistors: 4,
        }
    }

    #[test]
    fn nand2_structure_matches() {
        assert!(nand2().structure_matches_function());
    }

    #[test]
    fn pulldown_open_makes_output_stuck_high_for_11() {
        let cell = nand2();
        // Open the A transistor in the pull-down: pattern 11 now floats;
        // float resolves to complement of good (good=0, so faulty=1): no
        // difference from... good for 11 is 0, float resolves to !0 = 1.
        let nodes = cell.switch_eval(0b11, 0, StageDefect::Open(NetworkSide::Pulldown, 0));
        assert!(nodes[0], "floating node reads as complement of good value 0");
        // All other patterns still pull up fine.
        for pins in [0b00u64, 0b01, 0b10] {
            let nodes = cell.switch_eval(pins, 0, StageDefect::Open(NetworkSide::Pulldown, 0));
            assert!(nodes[0]);
        }
    }

    #[test]
    fn pullup_short_creates_conflict_resolved_low() {
        let cell = nand2();
        // Pull-up transistor 0 stuck-on: pattern 11 has both networks
        // conducting -> conflict -> 0, same as good, so *not* detected there;
        // the defect raises leakage only. Pattern 11 good = 0.
        let nodes = cell.switch_eval(0b11, 0, StageDefect::Shorted(NetworkSide::Pullup, 0));
        assert!(!nodes[0]);
    }

    #[test]
    fn output_bridges() {
        let cell = nand2();
        let gnd = cell.switch_eval(0b00, 0, StageDefect::OutputToGnd);
        assert!(!gnd[0], "good is 1, bridged to gnd fights and resolves 0");
        let vdd = cell.switch_eval(0b11, 0, StageDefect::OutputToVdd);
        assert!(!vdd[0], "good is 0: pull-down active + vdd bridge -> conflict -> 0");
    }

    #[test]
    fn dual_swaps_series_parallel() {
        let n = SpNet::Series(vec![
            SpNet::T(Transistor { id: 0, gate: Sig::Pin(0) }),
            SpNet::T(Transistor { id: 1, gate: Sig::Pin(1) }),
        ]);
        match n.dual() {
            SpNet::Parallel(c) => assert_eq!(c.len(), 2),
            other => panic!("expected parallel, got {other:?}"),
        }
    }

    #[test]
    fn transistor_ids_collects_all() {
        let n = SpNet::Parallel(vec![
            SpNet::T(Transistor { id: 3, gate: Sig::Pin(0) }),
            SpNet::Series(vec![
                SpNet::T(Transistor { id: 4, gate: Sig::Pin(1) }),
                SpNet::T(Transistor { id: 5, gate: Sig::NotPin(0) }),
            ]),
        ]);
        let mut ids = Vec::new();
        n.transistor_ids(&mut ids);
        assert_eq!(ids, vec![3, 4, 5]);
    }
}
