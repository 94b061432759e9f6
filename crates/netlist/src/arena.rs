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
//! ```
//!
//! Evaluation is generic over [`SimWord`], so the same kernel runs 64
//! patterns (`u64`) or 256 patterns ([`LaneBlock`]) per gate visit. The
//! level structure is what fault simulation exploits: an op's inputs are
//! produced only by strictly lower levels, so one ascending level sweep with
//! per-level worklists replaces a priority queue.
//!
//! [`LaneBlock`]: crate::lanes::LaneBlock

use crate::lanes::SimWord;
use crate::netlist::{CombView, Driver, Netlist};
use crate::tt::{TruthTable, MAX_TT_INPUTS};

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
        struct ProtoOp {
            tt: TruthTable,
            inputs: Vec<u32>,
            out: u32,
            out_pin: u8,
            gate: u32,
            level: u32,
        }
        let mut protos: Vec<ProtoOp> = Vec::new();
        for &gid in &view.order {
            let gate = nl.gate(gid).expect("live gate in view");
            let cell = nl.lib().cell(gate.cell);
            let inputs: Vec<u32> = gate.inputs.iter().map(|n| n.index() as u32).collect();
            for (pin, out) in cell.outputs.iter().enumerate() {
                protos.push(ProtoOp {
                    tt: out.function,
                    inputs: inputs.clone(),
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
        };

        for p in &protos {
            debug_assert!(p.inputs.len() <= MAX_TT_INPUTS);
            arena.op_tt.push(p.tt);
            arena.op_in_base.push(arena.in_slots.len() as u32);
            arena.op_in_count.push(p.inputs.len() as u8);
            arena.op_out.push(p.out);
            arena.op_out_pin.push(p.out_pin);
            arena.op_gate.push(p.gate);
            arena.op_level.push(p.level);
            arena.in_slots.extend_from_slice(&p.inputs);
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
    pub fn set_inputs<W: SimWord>(&self, values: &mut Vec<W>, pi_values: &[W]) {
        assert_eq!(pi_values.len(), self.pis.len(), "PI vector count mismatch");
        values.clear();
        values.resize(self.net_count, W::ZERO);
        for (i, &slot) in self.pis.iter().enumerate() {
            values[slot as usize] = pi_values[i];
        }
        for &slot in &self.const_ones {
            values[slot as usize] = W::ONES;
        }
    }

    /// Evaluates every op in level order into `values` (good-machine sweep).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from [`SimArena::net_count`].
    pub fn eval_all<W: SimWord>(&self, values: &mut [W]) {
        assert_eq!(values.len(), self.net_count, "value buffer length mismatch");
        let mut ins = [W::ZERO; MAX_TT_INPUTS];
        for k in 0..self.op_count() {
            let n = self.op_in_count[k] as usize;
            let base = self.op_in_base[k] as usize;
            for (i, &slot) in self.in_slots[base..base + n].iter().enumerate() {
                ins[i] = values[slot as usize];
            }
            values[self.op_out[k] as usize] = eval_cell(self.op_tt[k], &ins[..n]);
        }
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

/// Evaluates one cell output function over a block of lanes.
///
/// This is the wide counterpart of [`TruthTable::eval_parallel`]: `ins[i]`
/// carries the lane values of input `i`. Common 0/1/2-input functions are
/// dispatched to single boolean expressions; everything else falls back to a
/// minterm OR-loop (iterating the complement when that has fewer terms).
#[inline]
pub fn eval_cell<W: SimWord>(tt: TruthTable, ins: &[W]) -> W {
    debug_assert_eq!(ins.len(), tt.input_count());
    let bits = tt.bits();
    match ins.len() {
        0 => W::splat(bits & 1 == 1),
        1 => match bits & 0b11 {
            0b00 => W::ZERO,
            0b10 => ins[0],
            0b01 => !ins[0],
            _ => W::ONES,
        },
        2 => {
            let (a, b) = (ins[0], ins[1]);
            match bits & 0xF {
                0x0 => W::ZERO,
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
                0xF => W::ONES,
                _ => eval_minterms(tt, ins),
            }
        }
        _ => eval_minterms(tt, ins),
    }
}

/// Minterm OR-loop over the smaller of the function's on-set / off-set.
fn eval_minterms<W: SimWord>(tt: TruthTable, ins: &[W]) -> W {
    let n = tt.input_count();
    let total = 1usize << n;
    let bits = tt.bits();
    let ones = bits.count_ones() as usize;
    let (target, invert) = if ones * 2 > total { (false, true) } else { (true, false) };
    let mut out = W::ZERO;
    for m in 0..total {
        if ((bits >> m) & 1 == 1) == target {
            let mut term = W::ONES;
            for (i, &v) in ins.iter().enumerate() {
                term &= if (m >> i) & 1 == 1 { v } else { !v };
            }
            out |= term;
        }
    }
    if invert {
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
        let mut values: Vec<u64> = Vec::new();
        // Exhaustive over the 3 real PIs in the low 8 lanes.
        let pi_vals: Vec<u64> = vec![0b10101010, 0b11001100, 0b11110000];
        arena.set_inputs(&mut values, &pi_vals);
        arena.eval_all(&mut values);
        let mut reference = crate::sim::ParallelSim::new(&nl, &view);
        reference.simulate(&pi_vals);
        for (n, v) in values.iter().enumerate().take(nl.net_count()) {
            assert_eq!(v & 0xFF, reference.values()[n] & 0xFF, "net slot {n}");
        }
    }

    #[test]
    fn eval_cell_matches_eval_parallel() {
        // Every cell function of the library, random-ish lane data.
        let lib = Library::osu018();
        let mut lane = 0x9E37_79B9_7F4A_7C15u64;
        for (_, cell) in lib.iter() {
            for out in &cell.outputs {
                let n = out.function.input_count();
                let ins: Vec<u64> = (0..n)
                    .map(|_| {
                        lane = lane.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
                        lane
                    })
                    .collect();
                assert_eq!(
                    eval_cell(out.function, &ins),
                    out.function.eval_parallel(&ins),
                    "cell {} pin {}",
                    cell.name,
                    out.name
                );
            }
        }
    }

    #[test]
    fn set_inputs_handles_consts_without_scanning() {
        let (nl, view) = sample();
        let arena = SimArena::build(&nl, &view);
        assert_eq!(arena.const_ones().len(), 1);
        let mut values: Vec<u64> = Vec::new();
        arena.set_inputs(&mut values, &vec![0u64; view.pis.len()]);
        let c1 = nl.find_net("_const1").unwrap();
        assert_eq!(values[c1.index()], u64::MAX);
    }
}
