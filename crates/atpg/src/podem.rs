//! PODEM: path-oriented decision making over arbitrary library cells.
//!
//! The implementation follows the classic structure — forward implication,
//! activation objectives, D-frontier objectives, backtrace to a primary
//! input, and chronological backtracking — generalised to multi-input /
//! multi-output cells via three-valued truth-table evaluation.
//!
//! **Implication is event-driven** (as in PODEM/FAN, Fujiwara & Shimono
//! 1983): a search starts with one full good/faulty pass over the flat
//! [`SimArena`], and each decision or backtrack re-evaluates only the ops
//! reachable from the primary inputs it changed, in level order, stopping
//! wherever both machine values are unchanged. The result is the same
//! fixed point a full pass computes, so the search — every decision,
//! backtrack and verdict — is exactly that of full re-simulation.
//!
//! **Soundness of the undetectability verdict.** Implication is monotone
//! (known values never change as more PIs are assigned), the search
//! enumerates the full PI decision tree, and a subtree is pruned only when
//! (a) a required activation value is contradicted, or (b) no potential
//! fault effect can reach an observation point (the X-path closure below).
//! Exhausting the tree therefore *proves* the target undetectable. Searches
//! that hit the backtrack limit return [`PodemOutcome::Aborted`] and are
//! never counted as undetectable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rsyn_netlist::tt::MAX_TT_INPUTS;
use rsyn_netlist::{CombView, Driver, GateId, NetId, Netlist, SimArena, TruthTable};

use crate::fault::{BridgeKind, CellCondition};
use crate::testset::Pattern;
use crate::value::{all_minterms, eval_over, restrict, Tri, Val};

/// A single PODEM target (one excitation scenario of a fault).
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    /// Net stuck at `value`.
    StuckAt {
        /// Site net.
        net: NetId,
        /// Stuck value.
        value: bool,
    },
    /// One UDFM condition of a cell-aware fault.
    CellCondition {
        /// Site gate.
        gate: GateId,
        /// The condition.
        cond: CellCondition,
    },
    /// One victim direction of a bridge.
    BridgeVictim {
        /// First bridged net.
        a: NetId,
        /// Second bridged net.
        b: NetId,
        /// Resolution function.
        kind: BridgeKind,
        /// Which net carries the error in this scenario.
        victim_is_a: bool,
    },
    /// Pure justification: drive `net` to `value` in the good machine
    /// (used for transition-fault initialisation).
    Justify {
        /// Net to justify.
        net: NetId,
        /// Required value.
        value: bool,
    },
}

/// Result of one PODEM search.
#[derive(Clone, Debug, PartialEq)]
pub enum PodemOutcome {
    /// A test was found.
    Detected(Pattern),
    /// The search space was exhausted: provably undetectable.
    Undetectable,
    /// The backtrack limit was reached.
    Aborted,
}

struct Decision {
    pi: usize,
    value: bool,
    flipped: bool,
}

/// The target's fault injection, resolved to arena coordinates once per
/// search.
#[derive(Clone, Copy)]
enum Inject {
    /// Pure justification: the faulty machine equals the good one.
    None,
    /// The site net always carries `value` in the faulty machine.
    StuckAt { net: usize, value: Tri },
    /// The op of the condition's output pin flips when its faulty inputs
    /// match `pattern` (no op when the gate is outside the view).
    Cell { op: Option<usize>, pattern: u64 },
    /// Both nets carry the bridge resolution of their good values.
    Bridge { a: usize, b: usize, kind: BridgeKind },
}

/// Metric names of the measured PODEM phases, in [`Podem`]'s slot order.
const PHASE_METRICS: [&str; 4] = [
    "atpg.podem.imply_ms",
    "atpg.podem.xpath_ms",
    "atpg.podem.objective_ms",
    "atpg.podem.backtrace_ms",
];
const IMPLY: usize = 0;
const XPATH: usize = 1;
const OBJECTIVE: usize = 2;
const BACKTRACE: usize = 3;

/// A PODEM engine bound to one netlist + view.
///
/// Implication is event-driven over a [`SimArena`]: a search starts with
/// one full two-machine pass, and every decision or backtrack re-evaluates
/// only the ops reachable from the primary inputs whose assignment
/// changed, stopping wherever both machine values are unchanged.
pub struct Podem<'a> {
    nl: &'a Netlist,
    view: &'a CombView,
    arena: Arc<SimArena>,
    /// view-PI index per net (None for non-PI nets).
    net_to_pi: Vec<Option<usize>>,
    /// Constant-driven nets and their values.
    consts: Vec<(usize, Tri)>,
    vals: Vec<Val>,
    assignment: Vec<Option<bool>>,
    /// PIs whose assignment changed since the last implication.
    changed_pis: Vec<usize>,
    decisions: Vec<Decision>,
    inject: Inject,
    /// Ops awaiting re-evaluation.
    worklist: OpQueue,
    /// CSR over nets: the outputs of every gate loading the net (flops
    /// included), the edges of the X-path closure.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    /// The nets whose faulty value can differ from the good one — the
    /// injection sites and their combinational fanout — for the current
    /// target.
    effect_cone: Vec<u32>,
    /// Epoch-stamped visited marks and the stack of the X-path closure.
    visited: Vec<u32>,
    epoch: u32,
    xpath_stack: Vec<u32>,
    backtrack_limit: usize,
    /// Marks POs for O(1) membership tests.
    is_po: Vec<bool>,
    /// Seed for randomised don't-care fill (None = zeros).
    fill_seed: Option<u64>,
    /// Chronological backtracks of the current/last search.
    run_backtracks: usize,
    /// Backtracks of all *finished* searches on this engine.
    finished_backtracks: u64,
    /// Decisions (PI assignments pushed) of the current/last search.
    run_decisions: u64,
    /// Decisions of all *finished* searches on this engine.
    finished_decisions: u64,
    /// Wall time per phase ([`PHASE_METRICS`] order), measured only when
    /// tracing was armed at construction.
    phase_times: Option<[Duration; 4]>,
}

impl<'a> Podem<'a> {
    /// Creates an engine with the given backtrack limit, building its own
    /// simulation arena for the view.
    pub fn new(nl: &'a Netlist, view: &'a CombView, backtrack_limit: usize) -> Self {
        Self::with_arena(nl, view, Arc::new(SimArena::build(nl, view)), backtrack_limit)
    }

    /// Creates an engine over a prebuilt (possibly shared) arena of `view`.
    pub fn with_arena(
        nl: &'a Netlist,
        view: &'a CombView,
        arena: Arc<SimArena>,
        backtrack_limit: usize,
    ) -> Self {
        assert_eq!(arena.net_count(), nl.net_count(), "arena built for another netlist");
        let mut net_to_pi = vec![None; nl.net_count()];
        for (i, &pi) in view.pis.iter().enumerate() {
            net_to_pi[pi.index()] = Some(i);
        }
        let mut is_po = vec![false; nl.net_count()];
        for &po in &view.pos {
            is_po[po.index()] = true;
        }
        let consts = nl
            .nets()
            .filter_map(|(id, net)| match net.driver {
                Some(Driver::Const(c)) => Some((id.index(), Tri::from_bool(c))),
                _ => None,
            })
            .collect();
        let mut succ_start = Vec::with_capacity(nl.net_count() + 1);
        let mut succ = Vec::new();
        succ_start.push(0);
        for (_, net) in nl.nets() {
            for &(sink, _) in &net.loads {
                if let Some(gate) = nl.gate(sink) {
                    succ.extend(gate.outputs.iter().map(|o| o.index() as u32));
                }
            }
            succ_start.push(succ.len() as u32);
        }
        Self {
            nl,
            view,
            net_to_pi,
            consts,
            vals: vec![Val::X; nl.net_count()],
            assignment: vec![None; view.pis.len()],
            changed_pis: Vec::new(),
            decisions: Vec::new(),
            inject: Inject::None,
            worklist: OpQueue::new(arena.op_count()),
            succ_start,
            succ,
            effect_cone: Vec::new(),
            visited: vec![0; nl.net_count()],
            epoch: 0,
            xpath_stack: Vec::new(),
            arena,
            backtrack_limit,
            is_po,
            fill_seed: None,
            run_backtracks: 0,
            finished_backtracks: 0,
            run_decisions: 0,
            finished_decisions: 0,
            phase_times: rsyn_observe::trace::enabled().then_some([Duration::ZERO; 4]),
        }
    }

    /// Cumulative chronological backtracks across every search this engine
    /// has run — the PODEM effort metric reported in run manifests. The
    /// count is deterministic: each search's backtracks depend only on the
    /// netlist and the target.
    pub fn backtracks(&self) -> u64 {
        self.finished_backtracks + self.run_backtracks as u64
    }

    /// Cumulative decisions (PI assignments pushed on the decision stack)
    /// across every search this engine has run — the companion effort
    /// metric to [`Podem::backtracks`], and deterministic for the same
    /// reason: each search depends only on the netlist and the target.
    pub fn decisions(&self) -> u64 {
        self.finished_decisions + self.run_decisions
    }

    /// Adds the wall time spent per phase (implication, evaluation with
    /// the X-path closure, objective, backtrace) to the volatile metrics
    /// `atpg.podem.{imply,xpath,objective,backtrace}_ms` and restarts the
    /// tally. Does nothing unless tracing was armed when the engine was
    /// built.
    pub fn publish_phase_times(&mut self) {
        if let Some(times) = &mut self.phase_times {
            for (name, t) in PHASE_METRICS.iter().zip(times.iter_mut()) {
                rsyn_observe::volatile_add(name, t.as_secs_f64() * 1e3);
                *t = Duration::ZERO;
            }
        }
    }

    /// Runs the search for one target (unassigned inputs filled with 0).
    pub fn run(&mut self, target: &Target) -> PodemOutcome {
        self.search(target, None)
    }

    /// Runs the search, filling unassigned inputs from a seeded random
    /// stream instead of zeros. Different seeds produce *distinct* tests
    /// for the same target — the mechanism behind N-detect augmentation.
    pub fn run_with_fill(&mut self, target: &Target, fill_seed: Option<u64>) -> PodemOutcome {
        self.search(target, fill_seed)
    }

    fn search(&mut self, target: &Target, fill_seed: Option<u64>) -> PodemOutcome {
        self.finished_backtracks += self.run_backtracks as u64;
        self.run_backtracks = 0;
        self.finished_decisions += self.run_decisions;
        self.run_decisions = 0;
        self.fill_seed = fill_seed;
        let req = requirements(self.nl, target);
        // Contradictory requirements (e.g. a cell condition needing the same
        // net at both 0 and 1) are structurally undetectable.
        for (i, &(na, va)) in req.iter().enumerate() {
            for &(nb, vb) in &req[i + 1..] {
                if na == nb && va != vb {
                    return PodemOutcome::Undetectable;
                }
            }
        }
        let mut mark = self.phase_times.is_some().then(Instant::now);
        self.start(target);
        loop {
            self.imply();
            self.lap(IMPLY, &mut mark);
            let eval = self.evaluate(target, &req);
            self.lap(XPATH, &mut mark);
            match eval {
                Eval::Success => return PodemOutcome::Detected(self.pattern()),
                Eval::Fail => {
                    if !self.backtrack() {
                        return PodemOutcome::Undetectable;
                    }
                    if self.run_backtracks > self.backtrack_limit {
                        return PodemOutcome::Aborted;
                    }
                }
                Eval::Continue => {
                    // Heuristic decision: objective + backtrace. If either
                    // fails, fall back to branching on any unassigned PI —
                    // this keeps the search complete (with every PI
                    // assigned, evaluation is always decisive), so the
                    // heuristics only affect speed, never the verdict.
                    let objective = self.objective(target, &req);
                    self.lap(OBJECTIVE, &mut mark);
                    let next =
                        objective.and_then(|(net, v)| self.backtrace(net, v)).or_else(|| {
                            self.assignment.iter().position(Option::is_none).map(|pi| (pi, false))
                        });
                    self.lap(BACKTRACE, &mut mark);
                    match next {
                        Some((pi, v)) => {
                            self.assign(pi, Some(v));
                            self.run_decisions += 1;
                            self.decisions.push(Decision { pi, value: v, flipped: false });
                        }
                        None => {
                            // All PIs assigned yet indecisive: cannot happen
                            // (all nets are known then), but fail safely.
                            if !self.backtrack() {
                                return PodemOutcome::Undetectable;
                            }
                            if self.run_backtracks > self.backtrack_limit {
                                return PodemOutcome::Aborted;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Charges the time since `mark` to `phase` and moves the mark to now
    /// (phases run back to back, so one clock read closes one and opens
    /// the next).
    fn lap(&mut self, phase: usize, mark: &mut Option<Instant>) {
        if let (Some(times), Some(mark)) = (&mut self.phase_times, mark) {
            let now = Instant::now();
            times[phase] += now - *mark;
            *mark = now;
        }
    }

    fn pattern(&self) -> Pattern {
        let mut fill = self.fill_seed.map(|s| s.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let bools: Vec<bool> = self
            .assignment
            .iter()
            .map(|a| {
                a.unwrap_or_else(|| match &mut fill {
                    None => false,
                    Some(state) => {
                        *state ^= *state << 13;
                        *state ^= *state >> 7;
                        *state ^= *state << 17;
                        *state & 1 == 1
                    }
                })
            })
            .collect();
        Pattern::from_bools(&bools)
    }

    fn assign(&mut self, pi: usize, value: Option<bool>) {
        self.assignment[pi] = value;
        self.changed_pis.push(pi);
    }

    /// Chronological backtracking over the decision stack. Returns `false`
    /// when the search space is exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(d) = self.decisions.last_mut() {
            let pi = d.pi;
            if d.flipped {
                self.decisions.pop();
                self.assign(pi, None);
            } else {
                d.flipped = true;
                d.value = !d.value;
                let value = d.value;
                self.assign(pi, Some(value));
                self.run_backtracks += 1;
                return true;
            }
        }
        false
    }

    /// Starts a search for `target`: clears the assignment and computes
    /// both machines over the whole view with every input unassigned.
    fn start(&mut self, target: &Target) {
        self.inject = match target {
            Target::Justify { .. } => Inject::None,
            Target::StuckAt { net, value } => {
                Inject::StuckAt { net: net.index(), value: Tri::from_bool(*value) }
            }
            Target::CellCondition { gate, cond } => {
                let ops = self.arena.gate_ops(gate.index());
                let op = (usize::from(cond.output) < ops.len())
                    .then(|| ops.start + usize::from(cond.output));
                Inject::Cell { op, pattern: cond.pattern }
            }
            Target::BridgeVictim { a, b, kind, .. } => {
                Inject::Bridge { a: a.index(), b: b.index(), kind: *kind }
            }
        };
        self.assignment.fill(None);
        self.changed_pis.clear();
        self.decisions.clear();
        let vals = &mut self.vals;
        vals.fill(Val::X);
        for &(n, c) in &self.consts {
            vals[n] = Val { good: c, faulty: c };
        }
        match self.inject {
            Inject::None | Inject::Cell { .. } => {}
            Inject::StuckAt { net, value } => vals[net].faulty = value,
            Inject::Bridge { a, b, kind } => {
                let r = bridge3(vals[a].good, vals[b].good, kind);
                vals[a].faulty = r;
                vals[b].faulty = r;
            }
        }
        // The full pass is the event-driven one with every op queued.
        for k in 0..self.arena.op_count() {
            self.worklist.push(k);
        }
        self.imply();
        self.collect_effect_cone();
    }

    /// Fills `effect_cone` with the injection sites and every net their
    /// values reach through the view.
    fn collect_effect_cone(&mut self) {
        let arena = &*self.arena;
        let sites = match self.inject {
            Inject::None => [None, None],
            Inject::StuckAt { net, .. } => [Some(net), None],
            Inject::Cell { op, .. } => [op.map(|k| arena.op_out(k) as usize), None],
            Inject::Bridge { a, b, .. } => [Some(a), Some(b)],
        };
        let epoch = next_epoch(&mut self.epoch, &mut self.visited);
        let cone = &mut self.effect_cone;
        cone.clear();
        for n in sites.into_iter().flatten() {
            if std::mem::replace(&mut self.visited[n], epoch) != epoch {
                cone.push(n as u32);
            }
        }
        let mut i = 0;
        while let Some(&n) = cone.get(i) {
            i += 1;
            for &k in arena.net_loads(n as usize) {
                let out = arena.op_out(k as usize);
                if std::mem::replace(&mut self.visited[out as usize], epoch) != epoch {
                    cone.push(out);
                }
            }
        }
    }

    /// Event-driven forward implication of the assignment changes since
    /// the last call. Reaches the same fixed point as a full two-machine
    /// pass: every op whose inputs changed is re-evaluated, in op (level)
    /// order, until no value moves.
    fn imply(&mut self) {
        let mut changed = std::mem::take(&mut self.changed_pis);
        for &pi in &changed {
            let net = self.view.pis[pi].index();
            let good = self.assignment[pi].map_or(Tri::U, Tri::from_bool);
            if self.vals[net].good != good {
                self.vals[net].good = good;
                let faulty = match self.inject {
                    Inject::StuckAt { net: site, value } if site == net => value,
                    _ => good,
                };
                self.vals[net].faulty = faulty;
                self.enqueue_loads(net);
                self.refresh_bridge(net);
            }
        }
        changed.clear();
        self.changed_pis = changed;

        while let Some(k) = self.worklist.pop() {
            let out = self.arena.op_out(k) as usize;
            let val = self.eval_op(k, out);
            let before = std::mem::replace(&mut self.vals[out], val);
            if val != before {
                self.enqueue_loads(out);
                if val.good != before.good {
                    self.refresh_bridge(out);
                }
            }
        }
    }

    /// Both machine values of op `k` (output net `out`) from the current
    /// input values, with the target's injection applied.
    fn eval_op(&self, k: usize, out: usize) -> Val {
        let (arena, vals) = (&*self.arena, &self.vals);
        let inputs = arena.op_inputs(k);
        // The input minterms consistent with each machine's inputs.
        let mut good_care = all_minterms(inputs.len());
        let mut faulty_care = good_care;
        for (i, &s) in inputs.iter().enumerate() {
            let v = vals[s as usize];
            good_care = restrict(good_care, i, v.good);
            faulty_care = restrict(faulty_care, i, v.faulty);
        }
        let tt = arena.op_tt(k);
        let good = eval_over(tt, good_care);
        let computed = || if faulty_care == good_care { good } else { eval_over(tt, faulty_care) };
        let faulty = match self.inject {
            Inject::StuckAt { net, value } if net == out => value,
            Inject::Bridge { a, b, kind } if out == a || out == b => {
                let end = |n: usize| if n == out { good } else { vals[n].good };
                bridge3(end(a), end(b), kind)
            }
            Inject::Cell { op: Some(op), pattern } if op == k => {
                // The condition is excluded when its pattern is not among
                // the faulty input minterms, certain when it is the only one.
                let pattern = pattern & ((1 << inputs.len()) - 1);
                if (faulty_care >> pattern) & 1 == 0 {
                    computed()
                } else if faulty_care == 1 << pattern {
                    computed().not()
                } else {
                    Tri::U
                }
            }
            _ => computed(),
        };
        Val { good, faulty }
    }

    /// After the good value of `net` changed: if `net` is a bridge end,
    /// re-resolves the faulty value of both ends.
    fn refresh_bridge(&mut self, net: usize) {
        let Inject::Bridge { a, b, kind } = self.inject else { return };
        if net != a && net != b {
            return;
        }
        let r = bridge3(self.vals[a].good, self.vals[b].good, kind);
        for end in [a, b] {
            if self.vals[end].faulty != r {
                self.vals[end].faulty = r;
                self.enqueue_loads(end);
            }
        }
    }

    fn enqueue_loads(&mut self, net: usize) {
        for &k in self.arena.net_loads(net) {
            self.worklist.push(k as usize);
        }
    }

    fn evaluate(&mut self, target: &Target, req: &[(NetId, bool)]) -> Eval {
        if let Target::Justify { net, value } = target {
            return match self.vals[net.index()].good.known() {
                Some(v) if v == *value => Eval::Success,
                Some(_) => Eval::Fail,
                None => Eval::Continue,
            };
        }
        // Detected?
        for &po in &self.view.pos {
            if self.vals[po.index()].is_effect() {
                return Eval::Success;
            }
        }
        // Activation contradiction?
        for &(net, v) in req {
            if let Some(g) = self.vals[net.index()].good.known() {
                if g != v {
                    return Eval::Fail;
                }
            }
        }
        // X-path closure: can a potential effect still reach a PO?
        if !self.effect_can_reach_po(target) {
            return Eval::Fail;
        }
        Eval::Continue
    }

    /// Potential-effect reachability: closure from effect/site nets through
    /// nets whose composite value is not fully determined. The closure
    /// follows the netlist's own load lists (flops included), not the
    /// arena's combinational fanout.
    fn effect_can_reach_po(&mut self, target: &Target) -> bool {
        next_epoch(&mut self.epoch, &mut self.visited);
        let mut stack = std::mem::take(&mut self.xpath_stack);
        stack.clear();
        let mut seeds: [Option<NetId>; 2] = [None, None];
        match target {
            Target::StuckAt { net, .. } => seeds[0] = Some(*net),
            Target::BridgeVictim { a, b, .. } => seeds = [Some(*a), Some(*b)],
            Target::CellCondition { .. } | Target::Justify { .. } => {}
        }
        let nl = self.nl;
        let cell_outputs: &[NetId] = match target {
            Target::CellCondition { gate, .. } => nl.gate(*gate).map_or(&[], |g| &g.outputs),
            _ => &[],
        };
        let mut reached = false;
        for n in seeds.iter().flatten().chain(cell_outputs) {
            if self.vals[n.index()].has_unknown() {
                reached |= self.visit(n.index(), &mut stack);
            }
        }
        for i in 0..self.effect_cone.len() {
            let n = self.effect_cone[i] as usize;
            if self.vals[n].is_effect() {
                reached |= self.visit(n, &mut stack);
            }
        }
        while let Some(n) = stack.pop() {
            if reached {
                break;
            }
            let (a, b) =
                (self.succ_start[n as usize] as usize, self.succ_start[n as usize + 1] as usize);
            for i in a..b {
                let o = self.succ[i] as usize;
                let v = self.vals[o];
                if v.has_unknown() || v.is_effect() {
                    reached |= self.visit(o, &mut stack);
                }
            }
        }
        self.xpath_stack = stack;
        reached
    }

    /// Marks `net` visited by the current X-path closure and pushes it;
    /// returns whether it is a newly reached PO.
    fn visit(&mut self, net: usize, stack: &mut Vec<u32>) -> bool {
        if self.visited[net] == self.epoch {
            return false;
        }
        self.visited[net] = self.epoch;
        stack.push(net as u32);
        self.is_po[net]
    }

    fn objective(&self, target: &Target, req: &[(NetId, bool)]) -> Option<(NetId, bool)> {
        if let Target::Justify { net, value } = target {
            return match self.vals[net.index()].good {
                Tri::U => Some((*net, *value)),
                _ => None,
            };
        }
        // Activation first.
        for &(net, v) in req {
            if self.vals[net.index()].good == Tri::U {
                return Some((net, v));
            }
        }
        // Propagation: pick the first D-frontier gate in topological order
        // and sensitise one of its unknown inputs.
        for &gid in &self.view.order {
            let gate = self.nl.gate(gid).expect("live");
            let has_effect_in = gate.inputs.iter().any(|&n| self.vals[n.index()].is_effect());
            if !has_effect_in {
                continue;
            }
            let cell = self.nl.lib().cell(gate.cell);
            let some_out_open = gate.outputs.iter().any(|&o| self.vals[o.index()].has_unknown());
            if !some_out_open {
                continue;
            }
            // Choose an unknown input and a value that can make the outputs
            // differ between the machines.
            for (i, &n) in gate.inputs.iter().enumerate() {
                if self.vals[n.index()].good != Tri::U {
                    continue;
                }
                for v in [false, true] {
                    if self.sensitizes(cell, gate, i, v) {
                        return Some((n, v));
                    }
                }
            }
        }
        None
    }

    /// Checks whether fixing input `i` of `gate` to `v` (both machines) can
    /// still yield differing outputs for some completion of the unknowns.
    fn sensitizes(
        &self,
        cell: &rsyn_netlist::Cell,
        gate: &rsyn_netlist::Gate,
        i: usize,
        v: bool,
    ) -> bool {
        let (mut good, mut good_unknown, mut faulty, mut faulty_unknown) = (0u64, 0u64, 0u64, 0u64);
        for (k, &n) in gate.inputs.iter().enumerate() {
            let val = if k == i { Val::both(v) } else { self.vals[n.index()] };
            set_minterm_bit(&mut good, &mut good_unknown, k, val.good);
            set_minterm_bit(&mut faulty, &mut faulty_unknown, k, val.faulty);
        }
        // Enumerate joint completions where unknowns take equal values in
        // both machines (a safe approximation for the heuristic).
        let unknown = good_unknown | faulty_unknown;
        let mut sub = unknown;
        loop {
            let g = good | (sub & good_unknown);
            let f = faulty | (sub & faulty_unknown);
            if cell.outputs.iter().any(|out| out.function.eval(g) != out.function.eval(f)) {
                return true;
            }
            if sub == 0 {
                return false;
            }
            sub = (sub - 1) & unknown;
        }
    }

    /// Walks an objective back to an unassigned PI.
    fn backtrace(&self, mut net: NetId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            if let Some(pi) = self.net_to_pi[net.index()] {
                if self.assignment[pi].is_none() {
                    return Some((pi, value));
                }
                return None; // assigned PI cannot serve the objective
            }
            match self.nl.net(net).driver {
                Some(Driver::Const(_)) | None => return None,
                Some(Driver::Input) => return None, // PI not in view (unused)
                Some(Driver::Gate(gid, pin)) => {
                    let gate = self.nl.gate(gid).expect("live");
                    let cell = self.nl.lib().cell(gate.cell);
                    let f = cell.outputs[pin as usize].function;
                    let mut ins = [Tri::U; MAX_TT_INPUTS];
                    for (slot, &n) in ins.iter_mut().zip(&gate.inputs) {
                        *slot = self.vals[n.index()].good;
                    }
                    let ins = &ins[..gate.inputs.len()];
                    // Among unknown inputs, pick one and a value that keeps
                    // output = value achievable.
                    let mut best: Option<(usize, bool)> = None;
                    for (i, t) in ins.iter().enumerate() {
                        if *t != Tri::U {
                            continue;
                        }
                        for v in [true, false] {
                            if achievable(f, ins, i, v, value) {
                                best = Some((i, v));
                                break;
                            }
                        }
                        if best.is_some() {
                            break;
                        }
                    }
                    let (i, v) = best?;
                    net = gate.inputs[i];
                    value = v;
                }
            }
        }
    }

    /// Full two-machine pass over the netlist in view order — the
    /// implication semantics the event-driven [`Podem::imply`] must
    /// reproduce, net by net.
    #[cfg(test)]
    fn imply_reference(&self, target: &Target) -> Vec<Val> {
        use crate::value::eval3;

        let mut good = vec![Tri::U; self.nl.net_count()];
        for (i, &pi) in self.view.pis.iter().enumerate() {
            good[pi.index()] = self.assignment[i].map_or(Tri::U, Tri::from_bool);
        }
        for (id, net) in self.nl.nets() {
            if let Some(Driver::Const(c)) = net.driver {
                good[id.index()] = Tri::from_bool(c);
            }
        }
        for &gid in &self.view.order {
            let gate = self.nl.gate(gid).expect("live");
            let cell = self.nl.lib().cell(gate.cell);
            let ins: Vec<Tri> = gate.inputs.iter().map(|&n| good[n.index()]).collect();
            for (k, out) in cell.outputs.iter().enumerate() {
                good[gate.outputs[k].index()] = eval3(out.function, &ins);
            }
        }

        // Injection overrides are applied both before the faulty pass (for
        // PI-driven sites) and at every write to a site net, so a site's
        // driver gate cannot erase the injection.
        let mut faulty = good.clone();
        let bridge_resolved = match target {
            Target::BridgeVictim { a, b, kind, .. } => {
                Some((*a, *b, bridge3(good[a.index()], good[b.index()], *kind)))
            }
            _ => None,
        };
        if let Target::StuckAt { net, value } = target {
            faulty[net.index()] = Tri::from_bool(*value);
        }
        if let Some((a, b, r)) = bridge_resolved {
            faulty[a.index()] = r;
            faulty[b.index()] = r;
        }
        for &gid in &self.view.order {
            let gate = self.nl.gate(gid).expect("live");
            let cell = self.nl.lib().cell(gate.cell);
            let ins: Vec<Tri> = gate.inputs.iter().map(|&n| faulty[n.index()]).collect();
            for (k, out) in cell.outputs.iter().enumerate() {
                let mut v = eval3(out.function, &ins);
                match target {
                    Target::StuckAt { net, value } if gate.outputs[k] == *net => {
                        v = Tri::from_bool(*value);
                    }
                    Target::CellCondition { gate: fg, cond }
                        if gid == *fg && cond.output as usize == k =>
                    {
                        v = match match_status(&ins, cond.pattern) {
                            MatchStatus::Yes => v.not(),
                            MatchStatus::No => v,
                            MatchStatus::Maybe => Tri::U,
                        };
                    }
                    _ => {}
                }
                if let Some((a, b, r)) = bridge_resolved {
                    if gate.outputs[k] == a || gate.outputs[k] == b {
                        v = r;
                    }
                }
                faulty[gate.outputs[k].index()] = v;
            }
        }
        good.iter().zip(&faulty).map(|(&good, &faulty)| Val { good, faulty }).collect()
    }
}

/// Starts a new visit epoch over `visited` (clearing the marks when the
/// counter wraps) and returns it.
fn next_epoch(epoch: &mut u32, visited: &mut [u32]) -> u32 {
    *epoch = epoch.wrapping_add(1);
    if *epoch == 0 {
        visited.fill(0);
        *epoch = 1;
    }
    *epoch
}

/// Ops awaiting re-evaluation, popped in ascending op (= level) order: a
/// bitset over op indices with a cursor at the lowest word that may hold a
/// set bit.
struct OpQueue {
    words: Vec<u64>,
    cursor: usize,
}

impl OpQueue {
    fn new(ops: usize) -> Self {
        let words = ops.div_ceil(64);
        Self { words: vec![0; words], cursor: words }
    }

    fn push(&mut self, k: usize) {
        self.words[k / 64] |= 1 << (k % 64);
        self.cursor = self.cursor.min(k / 64);
    }

    fn pop(&mut self) -> Option<usize> {
        while let Some(w) = self.words.get_mut(self.cursor) {
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.cursor * 64 + bit);
            }
            self.cursor += 1;
        }
        None
    }
}

/// Records three-valued input `k` into a (known-ones, unknown) mask pair.
fn set_minterm_bit(ones: &mut u64, unknown: &mut u64, k: usize, v: Tri) {
    match v {
        Tri::T => *ones |= 1 << k,
        Tri::U => *unknown |= 1 << k,
        Tri::F => {}
    }
}

enum Eval {
    Success,
    Fail,
    Continue,
}

#[cfg(test)]
#[derive(PartialEq)]
enum MatchStatus {
    Yes,
    No,
    Maybe,
}

#[cfg(test)]
fn match_status(ins: &[Tri], pattern: u64) -> MatchStatus {
    let mut maybe = false;
    for (i, t) in ins.iter().enumerate() {
        let want = (pattern >> i) & 1 == 1;
        match t.known() {
            Some(v) if v != want => return MatchStatus::No,
            Some(_) => {}
            None => maybe = true,
        }
    }
    if maybe {
        MatchStatus::Maybe
    } else {
        MatchStatus::Yes
    }
}

/// The value both nets of a bridge read in the faulty machine.
fn bridge3(a: Tri, b: Tri, kind: BridgeKind) -> Tri {
    match kind {
        BridgeKind::WiredAnd => match (a, b) {
            (Tri::F, _) | (_, Tri::F) => Tri::F,
            (Tri::T, Tri::T) => Tri::T,
            _ => Tri::U,
        },
        BridgeKind::WiredOr => match (a, b) {
            (Tri::T, _) | (_, Tri::T) => Tri::T,
            (Tri::F, Tri::F) => Tri::F,
            _ => Tri::U,
        },
    }
}

/// Whether output `target` is achievable for function `f` with input `i`
/// fixed to `v` and the other unknowns free.
fn achievable(f: TruthTable, ins: &[Tri], i: usize, v: bool, target: bool) -> bool {
    let mut care = all_minterms(ins.len());
    for (k, &t) in ins.iter().enumerate() {
        care = restrict(care, k, if k == i { Tri::from_bool(v) } else { t });
    }
    let on = f.bits() & care;
    if target {
        on != 0
    } else {
        on != care
    }
}

/// Good-machine activation requirements of a target.
fn requirements(nl: &Netlist, target: &Target) -> Vec<(NetId, bool)> {
    match target {
        Target::StuckAt { net, value } => vec![(*net, !*value)],
        Target::Justify { .. } => vec![],
        Target::BridgeVictim { a, b, kind, victim_is_a } => {
            // Wired-AND corrupts the net that is 1 while the other is 0;
            // wired-OR corrupts the net that is 0 while the other is 1.
            let (victim, other) = if *victim_is_a { (*a, *b) } else { (*b, *a) };
            match kind {
                BridgeKind::WiredAnd => vec![(victim, true), (other, false)],
                BridgeKind::WiredOr => vec![(victim, false), (other, true)],
            }
        }
        Target::CellCondition { gate, cond } => {
            let g = nl.gate(*gate).expect("live gate");
            g.inputs.iter().enumerate().map(|(i, &n)| (n, (cond.pattern >> i) & 1 == 1)).collect()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::CellCondition;
    use rsyn_netlist::{sim::simulate_one, Library};

    fn nand_xor() -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new("t", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_named_net("y");
        let z = nl.add_named_net("z");
        let nand = lib.cell_id("NAND2X1").unwrap();
        let xor = lib.cell_id("XOR2X1").unwrap();
        nl.add_gate("u0", nand, &[a, b], &[y]).unwrap();
        nl.add_gate("u1", xor, &[y, a], &[z]).unwrap();
        nl.mark_output(z);
        nl
    }

    /// Checks that a detected pattern actually detects the stuck-at fault by
    /// simulating both machines at the netlist level.
    fn verify_sa_test(nl: &Netlist, net: NetId, value: bool, p: &Pattern) {
        let view = nl.comb_view().unwrap();
        let pis = p.to_bools();
        let good = simulate_one(nl, &view, &pis);
        // Faulty machine via FaultSim.
        let mut fs = crate::sim::FaultSim::new(nl, &view);
        let lanes: Vec<rsyn_netlist::LaneBlock> =
            pis.iter().map(|&b| rsyn_netlist::LaneBlock::from_word(u64::from(b))).collect();
        fs.set_patterns(&lanes);
        let f = crate::fault::Fault::external(crate::fault::FaultKind::StuckAt { net, value }, 0);
        let det = fs.detect_lanes(&f);
        assert!(det.lane(0), "generated pattern {good:?} fails to detect");
    }

    #[test]
    fn detects_simple_stuck_at() {
        let nl = nand_xor();
        let view = nl.comb_view().unwrap();
        let mut podem = Podem::new(&nl, &view, 1000);
        let y = nl.find_net("y").unwrap();
        for value in [false, true] {
            match podem.run(&Target::StuckAt { net: y, value }) {
                PodemOutcome::Detected(p) => verify_sa_test(&nl, y, value, &p),
                other => panic!("y SA{} should be detectable, got {other:?}", u8::from(value)),
            }
        }
    }

    #[test]
    fn proves_unexcitable_condition_undetectable() {
        // NAND with both pins on the same net: inputs 01/10 unreachable.
        let lib = Library::osu018();
        let mut nl = Netlist::new("r", lib.clone());
        let a = nl.add_input("a");
        let y = nl.add_named_net("y");
        let nand = lib.cell_id("NAND2X1").unwrap();
        let g = nl.add_gate("u", nand, &[a, a], &[y]).unwrap();
        nl.mark_output(y);
        let view = nl.comb_view().unwrap();
        let mut podem = Podem::new(&nl, &view, 1000);
        let out = podem.run(&Target::CellCondition {
            gate: g,
            cond: CellCondition { pattern: 0b01, output: 0 },
        });
        assert_eq!(out, PodemOutcome::Undetectable);
        // The reachable condition 0b11 is detectable.
        let out = podem.run(&Target::CellCondition {
            gate: g,
            cond: CellCondition { pattern: 0b11, output: 0 },
        });
        assert!(matches!(out, PodemOutcome::Detected(_)));
    }

    #[test]
    fn proves_unobservable_fault_undetectable() {
        // y = a & !a = 0 via AND of a and inv(a): the AND output is constant
        // 0, so SA0 on it is undetectable, SA1 is detectable.
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib.clone());
        let a = nl.add_input("a");
        let an = nl.add_net();
        let y = nl.add_named_net("y");
        let inv = lib.cell_id("INVX1").unwrap();
        let and = lib.cell_id("AND2X2").unwrap();
        nl.add_gate("i", inv, &[a], &[an]).unwrap();
        nl.add_gate("g", and, &[a, an], &[y]).unwrap();
        nl.mark_output(y);
        let view = nl.comb_view().unwrap();
        let mut podem = Podem::new(&nl, &view, 1000);
        assert_eq!(
            podem.run(&Target::StuckAt { net: y, value: false }),
            PodemOutcome::Undetectable,
            "y is constant 0, SA0 cannot be excited"
        );
        assert!(matches!(
            podem.run(&Target::StuckAt { net: y, value: true }),
            PodemOutcome::Detected(_)
        ));
    }

    #[test]
    fn redundant_masked_fault_is_undetectable() {
        // Classic redundancy: z = (a & b) | (a & !b) | .. build z = (a&b)|(!b&a)
        // = a; the internal net t = a&b has SA... use masking: z = t | (a & !b)
        // where t = a & b. SA0 on t is detectable (a=1,b=1 -> z flips).
        // Instead build the textbook undetectable: y = a | !a = 1 through OR:
        let lib = Library::osu018();
        let mut nl = Netlist::new("m", lib.clone());
        let a = nl.add_input("a");
        let an = nl.add_net();
        let y = nl.add_named_net("y");
        let inv = lib.cell_id("INVX1").unwrap();
        let or = lib.cell_id("OR2X2").unwrap();
        nl.add_gate("i", inv, &[a], &[an]).unwrap();
        nl.add_gate("g", or, &[a, an], &[y]).unwrap();
        nl.mark_output(y);
        let view = nl.comb_view().unwrap();
        let mut podem = Podem::new(&nl, &view, 1000);
        assert_eq!(podem.run(&Target::StuckAt { net: y, value: true }), PodemOutcome::Undetectable);
    }

    #[test]
    fn bridge_victim_search() {
        let nl = nand_xor();
        let view = nl.comb_view().unwrap();
        let mut podem = Podem::new(&nl, &view, 1000);
        let a = nl.find_net("a").unwrap();
        let b = nl.find_net("b").unwrap();
        let out = podem.run(&Target::BridgeVictim {
            a,
            b,
            kind: BridgeKind::WiredAnd,
            victim_is_a: true,
        });
        assert!(matches!(out, PodemOutcome::Detected(_)), "a=1,b=0 wired-AND is detectable");
    }

    #[test]
    fn justify_mode() {
        let nl = nand_xor();
        let view = nl.comb_view().unwrap();
        let mut podem = Podem::new(&nl, &view, 1000);
        let y = nl.find_net("y").unwrap();
        // Justify y=0 requires a=b=1.
        match podem.run(&Target::Justify { net: y, value: false }) {
            PodemOutcome::Detected(p) => {
                assert!(p.get(0) && p.get(1), "y=0 needs a=1, b=1");
            }
            other => panic!("justification should succeed, got {other:?}"),
        }
        // A constant net cannot be justified to the opposite value.
        let lib = Library::osu018();
        let mut nl2 = Netlist::new("k", lib.clone());
        let a2 = nl2.add_input("a");
        let an = nl2.add_net();
        let y2 = nl2.add_named_net("y");
        let inv = lib.cell_id("INVX1").unwrap();
        let and = lib.cell_id("AND2X2").unwrap();
        nl2.add_gate("i", inv, &[a2], &[an]).unwrap();
        nl2.add_gate("g", and, &[a2, an], &[y2]).unwrap();
        nl2.mark_output(y2);
        let view2 = nl2.comb_view().unwrap();
        let mut podem2 = Podem::new(&nl2, &view2, 1000);
        assert_eq!(
            podem2.run(&Target::Justify { net: y2, value: true }),
            PodemOutcome::Undetectable
        );
    }

    #[test]
    fn multi_output_cell_propagation() {
        // Fault on a full adder's sum output propagates.
        let lib = Library::osu018();
        let mut nl = Netlist::new("fa", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let s = nl.add_named_net("s");
        let co = nl.add_named_net("co");
        let fa = lib.cell_id("FAX1").unwrap();
        let g = nl.add_gate("u", fa, &[a, b, c], &[s, co]).unwrap();
        nl.mark_output(s);
        nl.mark_output(co);
        let view = nl.comb_view().unwrap();
        let mut podem = Podem::new(&nl, &view, 1000);
        // carry output flips when inputs are 110.
        let out = podem.run(&Target::CellCondition {
            gate: g,
            cond: CellCondition { pattern: 0b011, output: 1 },
        });
        assert!(matches!(out, PodemOutcome::Detected(_)));
    }

    /// A random netlist over two-input cells, AOI21 and the two-output
    /// FAX1, with a constant-1 source and one flop (its `Q` is a pseudo-PI,
    /// its `D` a pseudo-PO).
    pub(crate) fn random_netlist(seed: u64, next: &mut impl FnMut() -> u64) -> Netlist {
        let lib = Library::osu018();
        let mut nl = Netlist::new(format!("rnd{seed}"), lib.clone());
        let mut nets: Vec<NetId> = (0..5).map(|i| nl.add_input(format!("i{i}"))).collect();
        nets.push(nl.const1());
        let names = ["NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1", "FAX1"];
        for k in 0..16 {
            if k == 8 {
                let dff = lib.cell_id("DFFPOSX1").unwrap();
                let q = nl.add_net();
                let d = *nets.last().unwrap();
                nl.add_gate("ff", dff, &[d, nets[0]], &[q]).unwrap();
                nets.push(q);
            }
            let cell = lib.cell_id(names[(next() % names.len() as u64) as usize]).unwrap();
            let c = lib.cell(cell);
            let ins: Vec<NetId> =
                (0..c.input_count()).map(|_| nets[(next() % nets.len() as u64) as usize]).collect();
            let outs: Vec<NetId> = (0..c.output_count()).map(|_| nl.add_net()).collect();
            nl.add_gate(format!("g{k}"), cell, &ins, &outs).unwrap();
            nets.extend(outs);
        }
        for &n in nets.iter().rev().take(3) {
            nl.mark_output(n);
        }
        nl
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The event-driven implication equals the full-pass reference,
        /// net by net, after the initial pass and after every decision and
        /// backtrack of a random walk — for all four target kinds, bridges
        /// with a primary-input end, and cell conditions on either output
        /// of the multi-output FAX1.
        #[test]
        fn event_driven_imply_matches_full_pass(seed in 0u64..u64::MAX) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let nl = random_netlist(seed, &mut next);
            let view = nl.comb_view().unwrap();
            let nets = nl.net_count() as u64;
            let pick_net = |next: &mut dyn FnMut() -> u64| NetId::from_index((next() % nets) as usize);
            let gates: Vec<GateId> = view.order.clone();
            let mut podem = Podem::new(&nl, &view, 1000);
            let mut targets = vec![
                Target::StuckAt { net: pick_net(&mut next), value: next() % 2 == 0 },
                Target::Justify { net: pick_net(&mut next), value: next() % 2 == 0 },
            ];
            for _ in 0..2 {
                let gate = gates[(next() % gates.len() as u64) as usize];
                let g = nl.gate(gate).unwrap();
                let pattern = next() % (1 << g.inputs.len());
                let output = (next() % g.outputs.len() as u64) as u8;
                targets.push(Target::CellCondition { gate, cond: CellCondition { pattern, output } });
            }
            for kind in [BridgeKind::WiredAnd, BridgeKind::WiredOr] {
                let a = view.pis[(next() % view.pis.len() as u64) as usize];
                let b = pick_net(&mut next);
                targets.push(Target::BridgeVictim { a, b, kind, victim_is_a: next() % 2 == 0 });
            }
            for target in &targets {
                podem.start(target);
                for step in 0..40 {
                    let reference = podem.imply_reference(target);
                    for (n, (got, want)) in podem.vals.iter().zip(&reference).enumerate() {
                        proptest::prop_assert_eq!(got, want, "{:?} step {} net {}", target, step, n);
                    }
                    let unassigned: Vec<usize> =
                        (0..view.pis.len()).filter(|&pi| podem.assignment[pi].is_none()).collect();
                    if next() % 3 != 0 && !unassigned.is_empty() {
                        let pi = unassigned[(next() % unassigned.len() as u64) as usize];
                        let value = next() % 2 == 0;
                        podem.assign(pi, Some(value));
                        podem.decisions.push(Decision { pi, value, flipped: false });
                    } else if !podem.backtrack() {
                        break;
                    }
                    podem.imply();
                }
            }
        }
    }
}
