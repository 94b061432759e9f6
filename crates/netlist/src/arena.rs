//! Flat, levelized struct-of-arrays simulation arena.
//!
//! [`SimArena`] is built **once** from a [`Netlist`] + [`CombView`] and then
//! drives every hot simulation loop in the workspace. It flattens the
//! pointer-rich netlist (gate arena → `Gate` → `Vec<NetId>` → library cell →
//! truth table) into contiguous arrays indexed by a dense *op* id, so the
//! evaluation loop touches nothing but flat `Vec`s:
//!
//! ```text
//! op k (one per gate output pin, sorted by logic level, stable):
//!   op_tt[k]        truth table of the output function   (inline, 16 B)
//!   op_cover[k]      range of cubes[] + complement flag (3+ inputs only)
//!   op_in_base[k]┐
//!   op_in_count[k]┴─ slice of in_slots[]: input net slots (u32 indices)
//!   op_out[k]        output net slot
//!   op_out_pin[k]    output pin index within the gate
//!   op_gate[k]       owning gate (raw GateId index)
//!   op_level[k]      logic level (PIs/consts = level 0 sources)
//!
//! level_starts[l..l+1]   op range of level l (ops sorted by level)
//! gate_op_start/count[g] contiguous op range of gate g
//! net_load_start[n..n+1] CSR row of net_loads[]: ops reading net slot n
//! pis[], pos[]           view PI / PO net slots
//! const_ones[]           net slots tied to constant 1
//! cubes[]                the compiled covers, one per distinct truth table
//! ```
//!
//! [`SimArena::eval_op`] evaluates an op of one or two inputs by a direct
//! boolean expression, and an op of three or more inputs by its compiled
//! cover: an irredundant prime cover of the on-set, or of the off-set and
//! complemented, whichever has fewer literals (an AOI22 is two 2-literal
//! cubes, where its seven off-set minterms would be 28 literals). The
//! primes are [`TruthTable::prime_implicants`], the routine the SAT
//! prover's clauses come from.
//!
//! Evaluation runs 256 patterns ([`LaneBlock`]) per gate visit. The level
//! structure is what fault simulation exploits: an op's inputs are produced
//! only by strictly lower levels, so one ascending level sweep with
//! per-level worklists replaces a priority queue.

use std::collections::HashMap;

use crate::ids::NetId;
use crate::lanes::LaneBlock;
use crate::netlist::{CombView, Driver, Netlist};
use crate::tt::{Cube, TruthTable, MAX_TT_INPUTS};

/// One gate-output evaluation record of a [`SimArena`] (borrowed view).
#[derive(Clone, Copy, Debug)]
pub struct OpRef<'a> {
    /// Output function over the op's inputs.
    pub tt: TruthTable,
    /// Input net slots, in cell pin order.
    pub inputs: &'a [u32],
    /// Output net slot.
    pub out: u32,
    /// Output pin index within the owning gate.
    pub out_pin: u8,
    /// Raw index of the owning gate.
    pub gate: u32,
    /// Logic level of the op.
    pub level: u32,
}

/// A flat, levelized struct-of-arrays view of one combinational netlist.
///
/// See the [module docs](self) for the memory layout. Build once with
/// [`SimArena::build`], then evaluate any number of pattern blocks with
/// [`SimArena::set_inputs`] + [`SimArena::eval_all`]; the arena itself is
/// immutable and can be shared across threads (e.g. via `Arc`).
#[derive(Clone, Debug)]
pub struct SimArena {
    net_count: usize,
    op_tt: Vec<TruthTable>,
    op_cover: Vec<CoverRef>,
    op_in_base: Vec<u32>,
    op_in_count: Vec<u8>,
    op_out: Vec<u32>,
    op_out_pin: Vec<u8>,
    op_gate: Vec<u32>,
    op_level: Vec<u32>,
    in_slots: Vec<u32>,
    level_starts: Vec<u32>,
    gate_op_start: Vec<u32>,
    gate_op_count: Vec<u8>,
    net_load_start: Vec<u32>,
    net_loads: Vec<u32>,
    pis: Vec<u32>,
    pos: Vec<u32>,
    const_ones: Vec<u32>,
    cubes: Vec<Cube>,
}

/// An op's compiled cover: `cubes[start..start + len]`, of the off-set
/// when `complement` is set. Ops of fewer than three inputs have none.
#[derive(Clone, Copy, Debug, Default)]
struct CoverRef {
    start: u32,
    len: u8,
    complement: bool,
}

impl SimArena {
    /// Flattens `view` of `nl` into a levelized arena.
    ///
    /// Ops are emitted one per gate output pin and stably sorted by logic
    /// level, so evaluation order is a topological order and the ops of one
    /// gate stay contiguous and in pin order.
    pub fn build(nl: &Netlist, view: &CombView) -> Self {
        // Logic level per gate: 1 + max level of combinational driver gates.
        let mut gate_level: Vec<u32> = vec![0; nl.gate_capacity()];
        let mut in_view: Vec<bool> = vec![false; nl.gate_capacity()];
        for &gid in &view.order {
            in_view[gid.index()] = true;
        }
        for &gid in &view.order {
            let gate = nl.gate(gid).expect("live gate in view");
            let mut level = 0u32;
            for &i in &gate.inputs {
                if let Some(Driver::Gate(src, _)) = nl.net(i).driver {
                    if in_view[src.index()] {
                        level = level.max(gate_level[src.index()] + 1);
                    }
                }
            }
            gate_level[gid.index()] = level;
        }

        // Emit ops in view (topological) order, then stable-sort by level:
        // ties keep view order, and a gate's pins stay adjacent.
        struct ProtoOp<'a> {
            tt: TruthTable,
            inputs: &'a [NetId],
            out: u32,
            out_pin: u8,
            gate: u32,
            level: u32,
        }
        let mut protos: Vec<ProtoOp<'_>> = Vec::new();
        for &gid in &view.order {
            let gate = nl.gate(gid).expect("live gate in view");
            let cell = nl.lib().cell(gate.cell);
            for (pin, out) in cell.outputs.iter().enumerate() {
                protos.push(ProtoOp {
                    tt: out.function,
                    inputs: &gate.inputs,
                    out: gate.outputs[pin].index() as u32,
                    out_pin: pin as u8,
                    gate: gid.index() as u32,
                    level: gate_level[gid.index()],
                });
            }
        }
        protos.sort_by_key(|p| p.level);

        let level_count = protos.last().map_or(0, |p| p.level as usize + 1);
        let mut arena = Self {
            net_count: nl.net_count(),
            op_tt: Vec::with_capacity(protos.len()),
            op_cover: Vec::with_capacity(protos.len()),
            op_in_base: Vec::with_capacity(protos.len()),
            op_in_count: Vec::with_capacity(protos.len()),
            op_out: Vec::with_capacity(protos.len()),
            op_out_pin: Vec::with_capacity(protos.len()),
            op_gate: Vec::with_capacity(protos.len()),
            op_level: Vec::with_capacity(protos.len()),
            in_slots: Vec::new(),
            level_starts: vec![0; level_count + 1],
            gate_op_start: vec![0; nl.gate_capacity()],
            gate_op_count: vec![0; nl.gate_capacity()],
            net_load_start: vec![0; nl.net_count() + 1],
            net_loads: Vec::new(),
            pis: view.pis.iter().map(|n| n.index() as u32).collect(),
            pos: view.pos.iter().map(|n| n.index() as u32).collect(),
            const_ones: nl
                .nets()
                .filter(|(_, net)| net.driver == Some(Driver::Const(true)))
                .map(|(id, _)| id.index() as u32)
                .collect(),
            cubes: Vec::new(),
        };

        let mut compiled: HashMap<TruthTable, CoverRef> = HashMap::new();
        for p in &protos {
            debug_assert!(p.inputs.len() <= MAX_TT_INPUTS);
            let cover = if p.inputs.len() < 3 {
                CoverRef::default()
            } else {
                *compiled.entry(p.tt).or_insert_with(|| {
                    let (cubes, complement) = compile(p.tt);
                    let start = arena.cubes.len() as u32;
                    arena.cubes.extend_from_slice(&cubes);
                    CoverRef { start, len: cubes.len() as u8, complement }
                })
            };
            arena.op_tt.push(p.tt);
            arena.op_cover.push(cover);
            arena.op_in_base.push(arena.in_slots.len() as u32);
            arena.op_in_count.push(p.inputs.len() as u8);
            arena.op_out.push(p.out);
            arena.op_out_pin.push(p.out_pin);
            arena.op_gate.push(p.gate);
            arena.op_level.push(p.level);
            arena.in_slots.extend(p.inputs.iter().map(|n| n.index() as u32));
            arena.level_starts[p.level as usize + 1] += 1;
        }
        for l in 0..level_count {
            arena.level_starts[l + 1] += arena.level_starts[l];
        }
        // Gate op ranges (ops of one gate are contiguous after the stable
        // sort because they share a level and were emitted consecutively).
        let mut seen: Vec<bool> = vec![false; nl.gate_capacity()];
        for (k, &g) in arena.op_gate.iter().enumerate() {
            let g = g as usize;
            if !seen[g] {
                seen[g] = true;
                arena.gate_op_start[g] = k as u32;
            }
            arena.gate_op_count[g] += 1;
        }
        // CSR of ops loading each net slot, in ascending (level) op order.
        for &slot in &arena.in_slots {
            arena.net_load_start[slot as usize + 1] += 1;
        }
        for n in 0..arena.net_count {
            arena.net_load_start[n + 1] += arena.net_load_start[n];
        }
        let mut cursor: Vec<u32> = arena.net_load_start[..arena.net_count].to_vec();
        arena.net_loads = vec![0; *arena.net_load_start.last().expect("CSR row") as usize];
        for k in 0..arena.op_tt.len() {
            let (base, count) = (arena.op_in_base[k] as usize, arena.op_in_count[k] as usize);
            for i in base..base + count {
                let slot = arena.in_slots[i] as usize;
                arena.net_loads[cursor[slot] as usize] = k as u32;
                cursor[slot] += 1;
            }
        }
        arena
    }

    /// Number of net slots (the required length of a value buffer).
    #[inline]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of ops (gate output pins) in the arena.
    #[inline]
    pub fn op_count(&self) -> usize {
        self.op_tt.len()
    }

    /// Number of logic levels (0 for an empty view).
    #[inline]
    pub fn level_count(&self) -> usize {
        self.level_starts.len() - 1
    }

    /// Op index range of level `l`.
    #[inline]
    pub fn ops_in_level(&self, l: usize) -> std::ops::Range<usize> {
        self.level_starts[l] as usize..self.level_starts[l + 1] as usize
    }

    /// Truth table of op `k`.
    #[inline]
    pub fn op_tt(&self, k: usize) -> TruthTable {
        self.op_tt[k]
    }

    /// Input net slots of op `k`, in cell pin order.
    #[inline]
    pub fn op_inputs(&self, k: usize) -> &[u32] {
        let base = self.op_in_base[k] as usize;
        &self.in_slots[base..base + self.op_in_count[k] as usize]
    }

    /// Output net slot of op `k`.
    #[inline]
    pub fn op_out(&self, k: usize) -> u32 {
        self.op_out[k]
    }

    /// Output pin index of op `k` within its gate.
    #[inline]
    pub fn op_out_pin(&self, k: usize) -> u8 {
        self.op_out_pin[k]
    }

    /// Raw gate index of op `k`.
    #[inline]
    pub fn op_gate(&self, k: usize) -> u32 {
        self.op_gate[k]
    }

    /// Logic level of op `k`.
    #[inline]
    pub fn op_level(&self, k: usize) -> u32 {
        self.op_level[k]
    }

    /// Op index range of the gate with raw index `g` (empty if the gate has
    /// no ops in the view).
    #[inline]
    pub fn gate_ops(&self, g: usize) -> std::ops::Range<usize> {
        let start = self.gate_op_start[g] as usize;
        start..start + self.gate_op_count[g] as usize
    }

    /// Ops that read net slot `n`, in ascending (level) op order.
    #[inline]
    pub fn net_loads(&self, n: usize) -> &[u32] {
        let (a, b) = (self.net_load_start[n] as usize, self.net_load_start[n + 1] as usize);
        &self.net_loads[a..b]
    }

    /// View primary-input net slots, in view order.
    #[inline]
    pub fn pis(&self) -> &[u32] {
        &self.pis
    }

    /// View primary-output net slots, in view order.
    #[inline]
    pub fn pos(&self) -> &[u32] {
        &self.pos
    }

    /// Net slots tied to constant 1.
    #[inline]
    pub fn const_ones(&self) -> &[u32] {
        &self.const_ones
    }

    /// Loads one pattern block: zeroes `values`, assigns `pi_values[i]` to
    /// PI slot `i`, and splats the precomputed constant-1 nets (constant-0
    /// nets stay zero — no per-call net scan).
    ///
    /// # Panics
    ///
    /// Panics if `pi_values.len()` differs from the number of view PIs.
    pub fn set_inputs(&self, values: &mut Vec<LaneBlock>, pi_values: &[LaneBlock]) {
        assert_eq!(pi_values.len(), self.pis.len(), "PI vector count mismatch");
        values.clear();
        values.resize(self.net_count, LaneBlock::ZERO);
        for (i, &slot) in self.pis.iter().enumerate() {
            values[slot as usize] = pi_values[i];
        }
        for &slot in &self.const_ones {
            values[slot as usize] = LaneBlock::ONES;
        }
    }

    /// Evaluates every op in level order into `values` (good-machine sweep).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from [`SimArena::net_count`].
    pub fn eval_all(&self, values: &mut [LaneBlock]) {
        assert_eq!(values.len(), self.net_count, "value buffer length mismatch");
        let mut ins = [LaneBlock::ZERO; MAX_TT_INPUTS];
        for k in 0..self.op_count() {
            let n = self.op_in_count[k] as usize;
            let base = self.op_in_base[k] as usize;
            for (i, &slot) in self.in_slots[base..base + n].iter().enumerate() {
                ins[i] = values[slot as usize];
            }
            values[self.op_out[k] as usize] = self.eval_op(k, &ins[..n]);
        }
    }

    /// Evaluates op `k` over the lane values of its inputs, in pin order:
    /// a direct expression for one or two inputs, the op's compiled cover
    /// (see the [module docs](self)) for more.
    #[inline]
    pub fn eval_op(&self, k: usize, ins: &[LaneBlock]) -> LaneBlock {
        if ins.len() < 3 {
            return eval_direct(self.op_tt[k], ins);
        }
        let c = self.op_cover[k];
        let start = c.start as usize;
        eval_cover(&self.cubes[start..start + c.len as usize], c.complement, ins)
    }

    /// Borrowed view of op `k`.
    #[inline]
    pub fn op(&self, k: usize) -> OpRef<'_> {
        OpRef {
            tt: self.op_tt[k],
            inputs: self.op_inputs(k),
            out: self.op_out[k],
            out_pin: self.op_out_pin[k],
            gate: self.op_gate[k],
            level: self.op_level[k],
        }
    }
}

/// Evaluates a function of at most two inputs over a block of lanes, by
/// one boolean expression per function.
#[inline]
fn eval_direct(tt: TruthTable, ins: &[LaneBlock]) -> LaneBlock {
    debug_assert_eq!(ins.len(), tt.input_count());
    let bits = tt.bits();
    match ins.len() {
        0 => LaneBlock::splat(bits & 1 == 1),
        1 => match bits & 0b11 {
            0b00 => LaneBlock::ZERO,
            0b10 => ins[0],
            0b01 => !ins[0],
            _ => LaneBlock::ONES,
        },
        _ => {
            let (a, b) = (ins[0], ins[1]);
            match bits & 0xF {
                0x0 => LaneBlock::ZERO,
                0x8 => a & b,
                0xE => a | b,
                0x6 => a ^ b,
                0x7 => !(a & b),
                0x1 => !(a | b),
                0x9 => !(a ^ b),
                0xA => a,
                0xC => b,
                0x5 => !a,
                0x3 => !b,
                0x2 => a & !b,
                0x4 => !a & b,
                0xB => a | !b,
                0xD => !a | b,
                _ => LaneBlock::ONES,
            }
        }
    }
}

/// The cover [`SimArena::eval_op`] evaluates for `tt`: an irredundant
/// prime cover of the on-set, or of the off-set with the complement flag
/// set, whichever has fewer literals, then fewer cubes (a NAND3 is the
/// complemented cube `abc`, not `¬a + ¬b + ¬c`), then the on-set.
fn compile(tt: TruthTable) -> (Vec<Cube>, bool) {
    let cost = |cubes: &[Cube]| (cubes.iter().map(|c| c.0.count_ones()).sum::<u32>(), cubes.len());
    let (on, off) = (tt.irredundant_cover(), tt.not().irredundant_cover());
    if cost(&off) < cost(&on) {
        (off, true)
    } else {
        (on, false)
    }
}

/// The OR of the cubes' literal ANDs over `ins`, complemented when
/// `complement` is set.
#[inline]
fn eval_cover(cubes: &[Cube], complement: bool, ins: &[LaneBlock]) -> LaneBlock {
    let mut out = LaneBlock::ZERO;
    for &(care, values) in cubes {
        let mut term = LaneBlock::ONES;
        let mut rest = care;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            term &= if values >> i & 1 == 1 { ins[i] } else { !ins[i] };
            rest &= rest - 1;
        }
        out |= term;
    }
    if complement {
        !out
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;

    fn sample() -> (Netlist, CombView) {
        // Two levels, a multi-output FA, and a constant input.
        let lib = Library::osu018();
        let mut nl = Netlist::new("arena", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let c1 = nl.const1();
        let n1 = nl.add_named_net("n1");
        let s = nl.add_named_net("s");
        let co = nl.add_named_net("co");
        let nand = nl.lib().cell_id("NAND2X1").unwrap();
        let fa = nl.lib().cell_id("FAX1").unwrap();
        nl.add_gate("g0", nand, &[a, c1], &[n1]).unwrap();
        nl.add_gate("g1", fa, &[n1, b, c], &[s, co]).unwrap();
        nl.mark_output(s);
        nl.mark_output(co);
        let view = nl.comb_view().unwrap();
        (nl, view)
    }

    #[test]
    fn levels_and_contiguity() {
        let (nl, view) = sample();
        let arena = SimArena::build(&nl, &view);
        assert_eq!(arena.op_count(), 3, "NAND + 2 FA pins");
        assert_eq!(arena.level_count(), 2);
        assert_eq!(arena.ops_in_level(0).len(), 1);
        assert_eq!(arena.ops_in_level(1).len(), 2);
        let g1 = nl.find_gate("g1").unwrap();
        let ops = arena.gate_ops(g1.index());
        assert_eq!(ops.len(), 2);
        assert_eq!(arena.op_out_pin(ops.start), 0);
        assert_eq!(arena.op_out_pin(ops.start + 1), 1);
    }

    #[test]
    fn net_loads_csr() {
        let (nl, view) = sample();
        let arena = SimArena::build(&nl, &view);
        let n1 = nl.find_net("n1").unwrap();
        let loads = arena.net_loads(n1.index());
        assert_eq!(loads.len(), 2, "both FA ops read n1");
        let a = nl.find_net("a").unwrap();
        assert_eq!(arena.net_loads(a.index()).len(), 1);
    }

    #[test]
    fn eval_matches_reference_sim() {
        let (nl, view) = sample();
        let arena = SimArena::build(&nl, &view);
        let mut values = Vec::new();
        // Exhaustive over the 3 real PIs in the low 8 lanes.
        let pi_vals: Vec<LaneBlock> =
            [0b10101010, 0b11001100, 0b11110000].map(LaneBlock::from_word).to_vec();
        arena.set_inputs(&mut values, &pi_vals);
        arena.eval_all(&mut values);
        let mut reference = crate::sim::ParallelSim::new(&nl, &view);
        reference.simulate(&pi_vals);
        for (n, v) in values.iter().enumerate().take(nl.net_count()) {
            assert_eq!(v.word(0) & 0xFF, reference.values()[n].word(0) & 0xFF, "net slot {n}");
        }
    }

    /// A xorshift stream of lane words.
    fn lanes(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn eval_op_matches_eval_parallel() {
        // One gate of every combinational library cell, random lane data.
        let lib = Library::osu018();
        let mut nl = Netlist::new("cells", lib.clone());
        let pis: Vec<_> = (0..MAX_TT_INPUTS).map(|i| nl.add_input(format!("i{i}"))).collect();
        for (id, cell) in lib.iter().filter(|(_, c)| c.class == crate::CellClass::Comb) {
            let outs: Vec<_> = cell.outputs.iter().map(|_| nl.add_net()).collect();
            nl.add_gate(cell.name.clone(), id, &pis[..cell.input_count()], &outs).unwrap();
            for &o in &outs {
                nl.mark_output(o);
            }
        }
        let view = nl.comb_view().unwrap();
        let arena = SimArena::build(&nl, &view);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for k in 0..arena.op_count() {
            let tt = arena.op_tt(k);
            let ins: Vec<u64> = (0..tt.input_count()).map(|_| lanes(&mut state)).collect();
            let blocks: Vec<LaneBlock> = ins.iter().map(|&w| LaneBlock::from_word(w)).collect();
            let gate = nl.gate(crate::GateId::from_index(arena.op_gate(k) as usize)).unwrap();
            let cell = nl.lib().cell(gate.cell);
            assert_eq!(
                arena.eval_op(k, &blocks).word(0),
                tt.eval_parallel(&ins),
                "cell {} pin {}",
                cell.name,
                cell.outputs[arena.op_out_pin(k) as usize].name
            );
        }
    }

    /// The compiled cover of every function of at most four inputs and of
    /// 256 random five- and six-input ones equals the minterm reference in
    /// every word of a block, and needs no more literals than the minterm
    /// form of its side; the direct expressions cover every function of at
    /// most two inputs.
    #[test]
    fn compiled_covers_match_eval_parallel() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut check = |tt: TruthTable| {
            let n = tt.input_count();
            let words: Vec<[u64; 4]> =
                (0..n).map(|_| [(); 4].map(|()| lanes(&mut state))).collect();
            let (cubes, complement) = compile(tt);
            let side = if complement { tt.not() } else { tt };
            let literals: u32 = cubes.iter().map(|c| c.0.count_ones()).sum();
            assert!(literals <= side.bits().count_ones() * n as u32, "{tt:?}");
            let blocks: Vec<LaneBlock> = words.iter().map(|&w| LaneBlock::from_words(w)).collect();
            let cover = eval_cover(&cubes, complement, &blocks);
            for w in 0..4 {
                let ins: Vec<u64> = words.iter().map(|x| x[w]).collect();
                let reference = tt.eval_parallel(&ins);
                assert_eq!(cover.word(w), reference, "{tt:?} word {w}");
                if n < 3 {
                    assert_eq!(eval_direct(tt, &blocks).word(w), reference, "{tt:?} word {w}");
                }
            }
        };
        for n in 0..=4usize {
            for bits in 0..1u64 << (1 << n) {
                check(TruthTable::new(n, bits));
            }
        }
        let mut functions = 0x0123_4567_89AB_CDEFu64;
        for i in 0..256 {
            check(TruthTable::new(5 + i % 2, lanes(&mut functions)));
        }
    }

    #[test]
    fn set_inputs_handles_consts_without_scanning() {
        let (nl, view) = sample();
        let arena = SimArena::build(&nl, &view);
        assert_eq!(arena.const_ones().len(), 1);
        let mut values = Vec::new();
        arena.set_inputs(&mut values, &vec![LaneBlock::ZERO; view.pis.len()]);
        let c1 = nl.find_net("_const1").unwrap();
        assert_eq!(values[c1.index()], LaneBlock::ONES);
    }
}
