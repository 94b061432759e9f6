//! A small CDCL SAT solver: two watched literals, first-UIP clause learning
//! with local minimisation, VSIDS branching over a binary heap, phase saving
//! and Luby restarts.
//!
//! There is no randomness and no clause-database reduction: the solver is
//! reset for every instance, and a result depends only on the clauses and
//! the order they were added in. The ATPG miters it decides are small (at
//! most a few thousand variables), so learnt clauses are kept for the whole
//! solve.

use std::ops::Not;

/// A literal: variable `v` is `2v` when positive and `2v + 1` when negated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Lit(u32);

impl Lit {
    /// The literal of `var` with the given polarity.
    #[inline]
    pub(crate) fn new(var: u32, positive: bool) -> Self {
        Lit(2 * var + u32::from(!positive))
    }

    /// The literal's variable.
    #[inline]
    fn var(self) -> u32 {
        self.0 >> 1
    }

    #[inline]
    fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

const FALSE: u8 = 0;
const TRUE: u8 = 1;
const UNDEF: u8 = 2;
const NO_REASON: u32 = u32::MAX;
const NOT_IN_HEAP: u32 = u32::MAX;

/// Conflicts before the first restart; later intervals follow the Luby
/// sequence in this unit.
const RESTART_UNIT: f64 = 100.0;
const ACTIVITY_DECAY: f64 = 0.95;

/// A clause watching one of its first two literals; `blocker` is another
/// literal of the clause whose truth makes a visit unnecessary.
#[derive(Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// The solver state; see the module docs.
#[derive(Default)]
pub(crate) struct Solver {
    /// Clause `c` is `lits[start[c]..start[c] + len[c]]`; its first two
    /// literals are watched, and a reason clause implies its first.
    lits: Vec<Lit>,
    start: Vec<u32>,
    len: Vec<u32>,
    /// Per literal `p`: the clauses watching `!p`, visited when `p` becomes
    /// true. Lists past `2 * vars` are empty spares from earlier instances.
    watches: Vec<Vec<Watcher>>,
    vars: usize,
    value: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    activity: Vec<f64>,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Binary max-heap of unassigned variables by activity, ties to the
    /// lower index; `heap_pos[v]` is `v`'s slot or [`NOT_IN_HEAP`].
    heap: Vec<u32>,
    heap_pos: Vec<u32>,
    var_inc: f64,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Reused buffers: the clause being added, the clause being learnt,
    /// and the variables whose `seen` marks analysis must clear.
    adding: Vec<Lit>,
    learnt: Vec<Lit>,
    to_clear: Vec<u32>,
    /// An empty clause was added: the instance is unsatisfiable.
    unsat: bool,
    conflicts: u64,
}

impl Solver {
    /// An empty solver.
    pub(crate) fn new() -> Self {
        Self { var_inc: 1.0, ..Self::default() }
    }

    /// Clears every clause and variable, keeping the allocations.
    pub(crate) fn reset(&mut self) {
        self.lits.clear();
        self.start.clear();
        self.len.clear();
        for w in self.watches.iter_mut().take(2 * self.vars) {
            w.clear();
        }
        self.vars = 0;
        self.value.clear();
        self.level.clear();
        self.reason.clear();
        self.activity.clear();
        self.phase.clear();
        self.seen.clear();
        self.heap.clear();
        self.heap_pos.clear();
        self.var_inc = 1.0;
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.unsat = false;
        self.conflicts = 0;
    }

    /// A fresh variable (initial phase false).
    pub(crate) fn new_var(&mut self) -> u32 {
        let v = self.vars as u32;
        self.vars += 1;
        while self.watches.len() < 2 * self.vars {
            self.watches.push(Vec::new());
        }
        self.value.push(UNDEF);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.heap_pos.push(NOT_IN_HEAP);
        self.heap_insert(v);
        v
    }

    /// Conflicts since the last [`Solver::reset`].
    pub(crate) fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// The value of `var` in the model of the last satisfiable solve.
    pub(crate) fn model_value(&self, var: u32) -> bool {
        self.value[var as usize] == TRUE
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> u8 {
        let v = self.value[l.var() as usize];
        if v == UNDEF {
            UNDEF
        } else {
            v ^ u8::from(l.is_negated())
        }
    }

    /// Adds a clause before solving. Duplicate literals are merged,
    /// tautologies and clauses already satisfied by a unit are dropped, and
    /// literals already false are removed.
    pub(crate) fn add_clause(&mut self, clause: &[Lit]) {
        if self.unsat {
            return;
        }
        debug_assert!(self.trail_lim.is_empty(), "clauses are added at level 0");
        let mut lits = std::mem::take(&mut self.adding);
        lits.clear();
        lits.extend_from_slice(clause);
        lits.sort_unstable();
        lits.dedup();
        let mut keep = 0;
        for i in 0..lits.len() {
            let l = lits[i];
            if i + 1 < lits.len() && lits[i + 1] == !l {
                self.adding = lits;
                return; // tautology: l and !l are adjacent after sorting
            }
            match self.lit_value(l) {
                TRUE => {
                    self.adding = lits;
                    return;
                }
                FALSE => {}
                _ => {
                    lits[keep] = l;
                    keep += 1;
                }
            }
        }
        lits.truncate(keep);
        match lits.len() {
            0 => self.unsat = true,
            1 => self.enqueue(lits[0], NO_REASON),
            _ => {
                self.attach(&lits);
            }
        }
        self.adding = lits;
    }

    /// Stores a clause of at least two literals and watches its first two.
    fn attach(&mut self, lits: &[Lit]) -> u32 {
        let c = self.start.len() as u32;
        self.start.push(self.lits.len() as u32);
        self.len.push(lits.len() as u32);
        self.lits.extend_from_slice(lits);
        self.watches[(!lits[0]).index()].push(Watcher { clause: c, blocker: lits[1] });
        self.watches[(!lits[1]).index()].push(Watcher { clause: c, blocker: lits[0] });
        c
    }

    #[inline]
    fn enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var() as usize;
        self.value[v] = u8::from(!l.is_negated());
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation over the trail; returns a conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let c = w.clause;
                let s = self.start[c as usize] as usize;
                let n = self.len[c as usize] as usize;
                if self.lits[s] == false_lit {
                    self.lits.swap(s, s + 1);
                }
                let first = self.lits[s];
                let watcher = Watcher { clause: c, blocker: first };
                if first != w.blocker && self.lit_value(first) == TRUE {
                    ws[j] = watcher;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in s + 2..s + n {
                    if self.lit_value(self.lits[k]) != FALSE {
                        self.lits.swap(s + 1, k);
                        self.watches[(!self.lits[s + 1]).index()].push(watcher);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                ws[j] = watcher;
                j += 1;
                if self.lit_value(first) == FALSE {
                    conflict = Some(c);
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                } else {
                    self.enqueue(first, c);
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP analysis of `conflict` into `self.learnt` (asserting
    /// literal first, a literal of the backtrack level second), with local
    /// minimisation. Returns the backtrack level.
    fn analyze(&mut self, conflict: u32) -> usize {
        let current = self.trail_lim.len() as u32;
        self.learnt.clear();
        self.learnt.push(Lit(0)); // the asserting literal goes here
        self.to_clear.clear();
        let mut pending = 0usize;
        let mut index = self.trail.len();
        let mut clause = conflict;
        let mut implied: Option<Lit> = None;
        loop {
            let s = self.start[clause as usize] as usize;
            let n = self.len[clause as usize] as usize;
            // A reason clause's first literal is the one it implied.
            let skip = usize::from(implied.is_some());
            for k in s + skip..s + n {
                let q = self.lits[k];
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.bump(v);
                    self.seen[v as usize] = true;
                    self.to_clear.push(v);
                    if self.level[v as usize] >= current {
                        pending += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // The next literal of the current level on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let p = self.trail[index];
            implied = Some(p);
            self.seen[p.var() as usize] = false;
            pending -= 1;
            if pending == 0 {
                self.learnt[0] = !p;
                break;
            }
            clause = self.reason[p.var() as usize];
        }
        // Local minimisation: drop a literal whose reason's other literals
        // are all already in the clause (or fixed at level 0).
        let mut keep = 1;
        for i in 1..self.learnt.len() {
            let l = self.learnt[i];
            let r = self.reason[l.var() as usize];
            let redundant = r != NO_REASON && {
                let s = self.start[r as usize] as usize;
                let n = self.len[r as usize] as usize;
                self.lits[s + 1..s + n]
                    .iter()
                    .all(|q| self.seen[q.var() as usize] || self.level[q.var() as usize] == 0)
            };
            if !redundant {
                self.learnt[keep] = l;
                keep += 1;
            }
        }
        self.learnt.truncate(keep);
        for &v in &self.to_clear {
            self.seen[v as usize] = false;
        }
        if self.learnt.len() == 1 {
            return 0;
        }
        let mut max = 1;
        for i in 2..self.learnt.len() {
            if self.level[self.learnt[i].var() as usize]
                > self.level[self.learnt[max].var() as usize]
            {
                max = i;
            }
        }
        self.learnt.swap(1, max);
        self.level[self.learnt[1].var() as usize] as usize
    }

    fn cancel_until(&mut self, level: usize) {
        if self.trail_lim.len() <= level {
            return;
        }
        let bottom = self.trail_lim[level];
        for k in (bottom..self.trail.len()).rev() {
            let v = self.trail[k].var();
            self.phase[v as usize] = self.value[v as usize] == TRUE;
            self.value[v as usize] = UNDEF;
            self.reason[v as usize] = NO_REASON;
            if self.heap_pos[v as usize] == NOT_IN_HEAP {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(bottom);
        self.trail_lim.truncate(level);
        self.qhead = bottom;
    }

    /// Decides satisfiability. On `true` every variable holds its model
    /// value until the next [`Solver::reset`].
    pub(crate) fn solve(&mut self) -> bool {
        if self.unsat {
            return false;
        }
        let mut restarts = 0u32;
        loop {
            let budget = (luby(restarts) * RESTART_UNIT) as u64;
            if let Some(sat) = self.search(budget) {
                return sat;
            }
            self.cancel_until(0);
            restarts += 1;
        }
    }

    /// Searches for up to `budget` conflicts; `None` asks for a restart.
    fn search(&mut self, budget: u64) -> Option<bool> {
        let mut conflicts = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return Some(false);
                }
                let level = self.analyze(conflict);
                self.cancel_until(level);
                let learnt = std::mem::take(&mut self.learnt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let c = self.attach(&learnt);
                    self.enqueue(learnt[0], c);
                }
                self.learnt = learnt;
                self.var_inc /= ACTIVITY_DECAY;
            } else {
                if conflicts >= budget {
                    return None;
                }
                let Some(v) = self.pick_branch() else { return Some(true) };
                self.trail_lim.push(self.trail.len());
                let l = Lit::new(v, self.phase[v as usize]);
                self.enqueue(l, NO_REASON);
            }
        }
    }

    fn pick_branch(&mut self) -> Option<u32> {
        while let Some(v) = self.heap_pop() {
            if self.value[v as usize] == UNDEF {
                return Some(v);
            }
        }
        None
    }

    fn bump(&mut self, v: u32) {
        let a = &mut self.activity[v as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let pos = self.heap_pos[v as usize];
        if pos != NOT_IN_HEAP {
            self.sift_up(pos as usize);
        }
    }

    /// Heap order: higher activity first, then the lower variable index.
    #[inline]
    fn before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn heap_insert(&mut self, v: u32) {
        self.heap_pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.heap_pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !self.before(v, p) {
                break;
            }
            self.heap[i] = p;
            self.heap_pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !self.before(c, v) {
                break;
            }
            self.heap[i] = c;
            self.heap_pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }
}

/// The `x`-th element (from 0) of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ….
fn luby(mut x: u32) -> f64 {
    let (mut size, mut seq) = (1u64, 0i32);
    while size < u64::from(x) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != u64::from(x) {
        size = (size - 1) >> 1;
        seq -= 1;
        x = (u64::from(x) % size) as u32;
    }
    2f64.powi(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, positive: bool) -> Lit {
        Lit::new(v, positive)
    }

    fn satisfies(clauses: &[Vec<Lit>], assignment: u32) -> bool {
        clauses
            .iter()
            .all(|c| c.iter().any(|l| ((assignment >> l.var()) & 1 == 1) != l.is_negated()))
    }

    #[test]
    fn luby_sequence() {
        let got: Vec<f64> = (0..15).map(luby).collect();
        assert_eq!(got, [1., 1., 2., 1., 1., 2., 4., 1., 1., 2., 1., 1., 2., 4., 8.]);
    }

    /// Random CNFs of up to 12 variables against brute force: a model
    /// satisfies every clause, and UNSAT means no assignment does. Clause
    /// lengths 1–4 around the 3-SAT threshold give both answers often.
    #[test]
    fn random_cnfs_match_brute_force() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut solver = Solver::new();
        let (mut sat, mut unsat) = (0, 0);
        for _ in 0..400 {
            let vars = 1 + (next() % 12) as u32;
            let n_clauses = (next() % (5 * u64::from(vars) + 2)) as usize;
            let clauses: Vec<Vec<Lit>> = (0..n_clauses)
                .map(|_| {
                    let len = 1 + (next() % 4) as usize;
                    (0..len)
                        .map(|_| lit((next() % u64::from(vars)) as u32, next() % 2 == 0))
                        .collect()
                })
                .collect();
            solver.reset();
            for _ in 0..vars {
                solver.new_var();
            }
            for c in &clauses {
                solver.add_clause(c);
            }
            let brute = (0..1u32 << vars).any(|a| satisfies(&clauses, a));
            if solver.solve() {
                let model =
                    (0..vars).fold(0u32, |a, v| a | (u32::from(solver.model_value(v)) << v));
                assert!(satisfies(&clauses, model), "model violates a clause: {clauses:?}");
                sat += 1;
            } else {
                assert!(!brute, "UNSAT claimed for a satisfiable CNF: {clauses:?}");
                unsat += 1;
            }
        }
        assert!(sat > 50 && unsat > 50, "both answers exercised: {sat} SAT, {unsat} UNSAT");
    }

    /// Pigeonhole PHP(4, 3): four pigeons in three holes is UNSAT, and
    /// needs conflicts (no unit propagation refutes it alone).
    #[test]
    fn pigeonhole_4_3_is_unsat() {
        let mut solver = Solver::new();
        let p = |i: u32, h: u32| i * 3 + h;
        for _ in 0..12 {
            solver.new_var();
        }
        for i in 0..4 {
            solver.add_clause(&[lit(p(i, 0), true), lit(p(i, 1), true), lit(p(i, 2), true)]);
        }
        for h in 0..3 {
            for i in 0..4 {
                for j in i + 1..4 {
                    solver.add_clause(&[lit(p(i, h), false), lit(p(j, h), false)]);
                }
            }
        }
        assert!(!solver.solve());
        assert!(solver.conflicts() > 0);
        // The same solver, reset, decides PHP(3, 3) satisfiable.
        solver.reset();
        for _ in 0..9 {
            solver.new_var();
        }
        for i in 0..3 {
            solver.add_clause(&[lit(p(i, 0), true), lit(p(i, 1), true), lit(p(i, 2), true)]);
        }
        for h in 0..3 {
            for i in 0..3 {
                for j in i + 1..3 {
                    solver.add_clause(&[lit(p(i, h), false), lit(p(j, h), false)]);
                }
            }
        }
        assert!(solver.solve());
    }
}
