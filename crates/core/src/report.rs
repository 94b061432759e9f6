//! Row extraction for the paper's Table I and Table II, plus the runtime
//! provenance line that records how an experiment was executed (worker
//! threads, incremental evaluation, evaluation counts) so `Rtime` columns
//! can be compared across machines and thread counts.

use crate::flow::{DesignState, FlowContext};
use crate::resynth::QSweepOutcome;

/// One row of Table I (clustering of the original design).
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Row {
    /// Circuit name.
    pub circuit: String,
    /// Internal fault count.
    pub f_in: usize,
    /// External fault count.
    pub f_ex: usize,
    /// Undetectable internal faults.
    pub u_in: usize,
    /// Undetectable external faults.
    pub u_ex: usize,
    /// Gates corresponding to all undetectable faults.
    pub g_u: usize,
    /// Gates corresponding to `S_max`.
    pub g_max: usize,
    /// `|S_max|`.
    pub s_max: usize,
    /// Percentage of undetectable faults inside `S_max`.
    pub s_max_pct_u: f64,
}

impl Table1Row {
    /// Extracts the row from an analysed design.
    pub fn of(circuit: &str, state: &DesignState) -> Self {
        let f_in = state.faults.iter().filter(|f| f.is_internal()).count();
        let f_ex = state.fault_count() - f_in;
        let u_in = state.undetectable_internal_count();
        let u = state.undetectable_count();
        let u_ex = u - u_in;
        let s_max = state.s_max_size();
        Self {
            circuit: circuit.to_string(),
            f_in,
            f_ex,
            u_in,
            u_ex,
            g_u: state.g_u().len(),
            g_max: state.g_max().len(),
            s_max,
            s_max_pct_u: if u == 0 { 0.0 } else { 100.0 * s_max as f64 / u as f64 },
        }
    }

    /// Table header matching the paper's column names.
    pub fn header() -> String {
        format!(
            "{:<12} {:>8} {:>8} {:>7} {:>7} {:>6} {:>6} {:>7} {:>9}",
            "Circuit", "F_In", "F_Ex", "U_In", "U_Ex", "G_U", "Gmax", "Smax", "%Smax_U"
        )
    }
}

impl std::fmt::Display for Table1Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<12} {:>8} {:>8} {:>7} {:>7} {:>6} {:>6} {:>7} {:>8.2}%",
            self.circuit,
            self.f_in,
            self.f_ex,
            self.u_in,
            self.u_ex,
            self.g_u,
            self.g_max,
            self.s_max,
            self.s_max_pct_u
        )
    }
}

/// One row of Table II (original or resynthesized design).
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    /// Circuit name.
    pub circuit: String,
    /// `orig` or the chosen `q` (`Max Inc`).
    pub max_inc: String,
    /// Total faults.
    pub f: usize,
    /// Undetectable faults.
    pub u: usize,
    /// Coverage `1 − U/F` (percent).
    pub cov: f64,
    /// Test count.
    pub t: usize,
    /// `|S_max|`.
    pub s_max: usize,
    /// Percentage of all faults in `S_max`.
    pub s_max_pct_all: f64,
    /// Internal faults in `S_max`.
    pub s_max_i: usize,
    /// Percentage of `S_max` that is internal.
    pub s_max_i_pct: f64,
    /// Delay relative to the original (percent).
    pub delay_pct: f64,
    /// Power relative to the original (percent).
    pub power_pct: f64,
    /// Runtime relative to one base iteration.
    pub rtime: f64,
}

impl Table2Row {
    /// The `orig` row.
    pub fn original(circuit: &str, state: &DesignState) -> Self {
        Self::build(circuit, "orig", state, state, 1.0)
    }

    /// The resynthesized row from a finished `q` sweep.
    pub fn resynthesized(circuit: &str, original: &DesignState, sweep: &QSweepOutcome) -> Self {
        Self::build(
            circuit,
            &format!("{}%", sweep.chosen_q),
            original,
            sweep.final_state(),
            sweep.relative_runtime(),
        )
    }

    fn build(
        circuit: &str,
        max_inc: &str,
        original: &DesignState,
        state: &DesignState,
        rtime: f64,
    ) -> Self {
        let s_max = state.s_max_size();
        let s_max_i = state.s_max_internal();
        Self {
            circuit: circuit.to_string(),
            max_inc: max_inc.to_string(),
            f: state.fault_count(),
            u: state.undetectable_count(),
            cov: 100.0 * state.coverage(),
            t: state.atpg.tests.len(),
            s_max,
            s_max_pct_all: state.s_max_percent_of_f(),
            s_max_i,
            s_max_i_pct: if s_max == 0 { 0.0 } else { 100.0 * s_max_i as f64 / s_max as f64 },
            delay_pct: 100.0 * state.delay_ps() / original.delay_ps(),
            power_pct: 100.0 * state.power_uw() / original.power_uw(),
            rtime,
        }
    }

    /// Table header matching the paper's column names.
    pub fn header() -> String {
        format!(
            "{:<12} {:>5} {:>8} {:>6} {:>7} {:>5} {:>6} {:>9} {:>7} {:>8} {:>8} {:>8} {:>6}",
            "Circuit",
            "MaxInc",
            "F",
            "U",
            "Cov",
            "T",
            "Smax",
            "%Smax_all",
            "Smax_I",
            "%Smax_I",
            "Delay",
            "Power",
            "Rtime"
        )
    }
}

impl std::fmt::Display for Table2Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<12} {:>5} {:>8} {:>6} {:>6.2}% {:>5} {:>6} {:>8.2}% {:>7} {:>7.2}% {:>7.2}% {:>7.2}% {:>6.2}",
            self.circuit,
            self.max_inc,
            self.f,
            self.u,
            self.cov,
            self.t,
            self.s_max,
            self.s_max_pct_all,
            self.s_max_i,
            self.s_max_i_pct,
            self.delay_pct,
            self.power_pct,
            self.rtime
        )
    }
}

/// How an experiment was executed: engine configuration and effort
/// counters that give the paper's `Rtime` column its context.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeReport {
    /// Resolved ATPG worker-thread count.
    pub threads: usize,
    /// Full `PDesign()`+ATPG candidate evaluations performed.
    pub full_evaluations: usize,
    /// Wall-clock seconds of the whole sweep.
    pub sweep_seconds: f64,
    /// Wall-clock seconds of one baseline analysis.
    pub baseline_seconds: f64,
}

impl RuntimeReport {
    /// Builds the report for a finished sweep under `ctx`.
    pub fn of(ctx: &FlowContext, sweep: &QSweepOutcome) -> Self {
        Self {
            threads: ctx.atpg.effective_threads(),
            full_evaluations: sweep.full_evaluations,
            sweep_seconds: sweep.sweep_seconds,
            baseline_seconds: sweep.baseline_seconds,
        }
    }
}

impl std::fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runtime: threads={} evaluations={} sweep={:.2}s baseline={:.2}s",
            self.threads, self.full_evaluations, self.sweep_seconds, self.baseline_seconds
        )
    }
}

/// Averages a set of Table II rows (the paper's `average` rows).
pub fn average_rows(label: &str, rows: &[Table2Row]) -> Table2Row {
    let n = rows.len().max(1) as f64;
    let avg = |f: &dyn Fn(&Table2Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
    Table2Row {
        circuit: "average".to_string(),
        max_inc: label.to_string(),
        f: (avg(&|r| r.f as f64)).round() as usize,
        u: (avg(&|r| r.u as f64)).round() as usize,
        cov: avg(&|r| r.cov),
        t: (avg(&|r| r.t as f64)).round() as usize,
        s_max: (avg(&|r| r.s_max as f64)).round() as usize,
        s_max_pct_all: avg(&|r| r.s_max_pct_all),
        s_max_i: (avg(&|r| r.s_max_i as f64)).round() as usize,
        s_max_i_pct: avg(&|r| r.s_max_i_pct),
        delay_pct: avg(&|r| r.delay_pct),
        power_pct: avg(&|r| r.power_pct),
        rtime: avg(&|r| r.rtime),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowContext;
    use rsyn_circuits::build_benchmark_with;
    use rsyn_netlist::Library;

    #[test]
    fn table1_row_is_consistent() {
        let ctx = FlowContext::new(Library::osu018());
        let nl = build_benchmark_with("sparc_tlu", &ctx.lib, &ctx.mapper).unwrap();
        let state = DesignState::analyze(nl, &ctx, None).unwrap();
        let row = Table1Row::of("sparc_tlu", &state);
        assert_eq!(row.f_in + row.f_ex, state.fault_count());
        assert_eq!(row.u_in + row.u_ex, state.undetectable_count());
        assert!(row.g_max <= row.g_u);
        assert!(row.s_max <= row.u_in + row.u_ex);
        let line = row.to_string();
        assert!(line.contains("sparc_tlu"));
        assert!(!Table1Row::header().is_empty());
    }

    #[test]
    fn table2_original_row() {
        let ctx = FlowContext::new(Library::osu018());
        let nl = build_benchmark_with("sparc_tlu", &ctx.lib, &ctx.mapper).unwrap();
        let state = DesignState::analyze(nl, &ctx, None).unwrap();
        let row = Table2Row::original("sparc_tlu", &state);
        assert_eq!(row.max_inc, "orig");
        assert!((row.delay_pct - 100.0).abs() < 1e-9);
        assert!((row.power_pct - 100.0).abs() < 1e-9);
        assert!(row.cov <= 100.0);
    }

    #[test]
    fn averaging() {
        let a = Table2Row {
            circuit: "a".into(),
            max_inc: "orig".into(),
            f: 100,
            u: 10,
            cov: 90.0,
            t: 5,
            s_max: 4,
            s_max_pct_all: 4.0,
            s_max_i: 2,
            s_max_i_pct: 50.0,
            delay_pct: 100.0,
            power_pct: 100.0,
            rtime: 1.0,
        };
        let mut b = a.clone();
        b.f = 200;
        b.u = 30;
        b.cov = 85.0;
        let avg = average_rows("orig", &[a, b]);
        assert_eq!(avg.f, 150);
        assert_eq!(avg.u, 20);
        assert!((avg.cov - 87.5).abs() < 1e-9);
    }
}
