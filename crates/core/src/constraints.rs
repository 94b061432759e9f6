//! Design constraints: critical-path delay, power, and die area.
//!
//! The paper keeps the die area fixed at the original floorplan and allows
//! at most `q`% increase in delay and power (`q` swept from 0 to 5).

use rsyn_pdesign::Floorplan;

use crate::flow::{DesignState, Score};

/// Budgets a resynthesized design must meet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DesignConstraints {
    /// Maximum critical-path delay in ps.
    pub max_delay_ps: f64,
    /// Maximum total power in µW.
    pub max_power_uw: f64,
    /// The fixed floorplan (die area never grows).
    pub floorplan: Floorplan,
    /// The `q` these budgets correspond to (percent).
    pub q_percent: f64,
}

impl DesignConstraints {
    /// Derives constraints from the original design with relaxation `q`
    /// percent on delay and power.
    pub fn from_original(original: &DesignState, q_percent: f64) -> Self {
        let relax = 1.0 + q_percent / 100.0;
        Self {
            max_delay_ps: original.delay_ps() * relax,
            max_power_uw: original.power_uw() * relax,
            floorplan: original.pd.placement.floorplan(),
            q_percent,
        }
    }

    /// True when `state` meets all three budgets. (Area is enforced
    /// structurally: placement into the fixed floorplan fails when the
    /// cells no longer fit, so any analysed state already fits.)
    pub fn satisfied_by(&self, state: &DesignState) -> bool {
        self.admits(&state.score())
    }

    /// [`DesignConstraints::satisfied_by`] on a design's scores.
    pub(crate) fn admits(&self, score: &Score) -> bool {
        score.delay_ps <= self.max_delay_ps + 1e-9 && score.power_uw <= self.max_power_uw + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowContext;
    use rsyn_netlist::{Library, Netlist};

    fn small_state(ctx: &FlowContext) -> DesignState {
        let lib = &ctx.lib;
        let mut nl = Netlist::new("t", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let mut nets = vec![a, b];
        let nand = lib.cell_id("NAND2X1").unwrap();
        for i in 0..20 {
            let y = nl.add_net();
            nl.add_gate(
                format!("g{i}"),
                nand,
                &[nets[i % nets.len()], nets[(i + 1) % nets.len()]],
                &[y],
            )
            .unwrap();
            nets.push(y);
        }
        let last = *nets.last().unwrap();
        nl.mark_output(last);
        DesignState::analyze(nl, ctx, None).unwrap()
    }

    #[test]
    fn original_satisfies_q0() {
        let ctx = FlowContext::new(Library::osu018());
        let state = small_state(&ctx);
        let c = DesignConstraints::from_original(&state, 0.0);
        assert!(c.satisfied_by(&state));
        assert_eq!(c.q_percent, 0.0);
    }

    #[test]
    fn q_relaxes_budgets() {
        let ctx = FlowContext::new(Library::osu018());
        let state = small_state(&ctx);
        let c0 = DesignConstraints::from_original(&state, 0.0);
        let c5 = DesignConstraints::from_original(&state, 5.0);
        assert!(c5.max_delay_ps > c0.max_delay_ps);
        assert!((c5.max_delay_ps / c0.max_delay_ps - 1.05).abs() < 1e-9);
        assert!((c5.max_power_uw / c0.max_power_uw - 1.05).abs() < 1e-9);
    }
}
