//! Static timing analysis over the combinational view.
//!
//! Gate delay uses the library's linear model `intrinsic + slope × load`,
//! where the load is the sum of sink pin capacitances plus routed wire
//! capacitance. Flops are cut exactly as in the test view, so the critical
//! path is the longest register-to-register / port-to-port combinational
//! path — the quantity the paper's delay constraint bounds.

use rsyn_netlist::{CombView, NetId, Netlist};

use crate::layout::Layout;

/// Wire capacitance per µm of routed metal (fF/µm).
pub const WIRE_CAP_FF_PER_UM: f64 = 0.1;

/// The result of static timing analysis.
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// Critical (longest) path delay in ps.
    pub critical_delay_ps: f64,
    /// The endpoint net of the critical path.
    pub critical_endpoint: Option<NetId>,
    /// Arrival time per net (indexed by `NetId`), in ps.
    pub arrivals_ps: Vec<f64>,
    /// Required time per net (indexed by `NetId`), in ps, with the critical
    /// delay as the common deadline — so the critical path has zero slack.
    pub required_ps: Vec<f64>,
}

impl TimingReport {
    /// Arrival time of one net in ps.
    pub fn arrival(&self, net: NetId) -> f64 {
        self.arrivals_ps[net.index()]
    }

    /// Slack of one net in ps (zero on the critical path).
    pub fn slack(&self, net: NetId) -> f64 {
        self.required_ps[net.index()] - self.arrivals_ps[net.index()]
    }
}

/// Capacitive load on every net in fF, indexed by `NetId`: sink pin caps
/// plus routed wire cap.
pub fn net_loads_ff(nl: &Netlist, layout: &Layout) -> Vec<f64> {
    let wirelengths = layout.net_wirelengths(nl.net_count());
    nl.nets()
        .map(|(id, net)| {
            let pin_cap: f64 = net
                .loads
                .iter()
                .map(|&(g, _)| nl.lib().cell(nl.gate(g).expect("live").cell).input_cap)
                .sum();
            pin_cap + WIRE_CAP_FF_PER_UM * wirelengths[id.index()]
        })
        .collect()
}

/// Runs static timing analysis.
pub fn analyze(nl: &Netlist, view: &CombView, layout: &Layout) -> TimingReport {
    let loads = net_loads_ff(nl, layout);
    let mut arrivals = vec![0.0f64; nl.net_count()];
    for &gid in &view.order {
        let gate = nl.gate(gid).expect("live gate");
        let cell = nl.lib().cell(gate.cell);
        let in_arr = gate.inputs.iter().map(|&n| arrivals[n.index()]).fold(0.0f64, f64::max);
        for &o in &gate.outputs {
            let load = loads[o.index()];
            arrivals[o.index()] = in_arr + cell.intrinsic_delay + cell.delay_slope * load;
        }
    }
    let mut critical = 0.0f64;
    let mut endpoint = None;
    for &po in &view.pos {
        if arrivals[po.index()] > critical {
            critical = arrivals[po.index()];
            endpoint = Some(po);
        }
    }
    // Reverse pass: required times against the critical delay as deadline.
    let mut required = vec![f64::INFINITY; nl.net_count()];
    for &po in &view.pos {
        required[po.index()] = critical;
    }
    for &gid in view.order.iter().rev() {
        let gate = nl.gate(gid).expect("live gate");
        let cell = nl.lib().cell(gate.cell);
        // The tightest requirement among this gate's outputs, minus its
        // delay, constrains every input.
        let mut in_req = f64::INFINITY;
        for &o in &gate.outputs {
            let load = loads[o.index()];
            let d = cell.intrinsic_delay + cell.delay_slope * load;
            in_req = in_req.min(required[o.index()] - d);
        }
        for &i in &gate.inputs {
            required[i.index()] = required[i.index()].min(in_req);
        }
    }
    // Unconstrained nets (no path to any PO — dangling cones) get
    // non-negative slack regardless of their arrival.
    for (i, r) in required.iter_mut().enumerate() {
        if r.is_infinite() {
            *r = critical.max(arrivals[i]);
        }
    }
    TimingReport {
        critical_delay_ps: critical,
        critical_endpoint: endpoint,
        arrivals_ps: arrivals,
        required_ps: required,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::place::Placement;
    use crate::route::route;
    use rsyn_netlist::Library;

    fn analyzed_chain(n: usize) -> TimingReport {
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib.clone());
        let mut prev = nl.add_input("a");
        let inv = lib.cell_id("INVX1").unwrap();
        for i in 0..n {
            let next = nl.add_net();
            nl.add_gate(format!("g{i}"), inv, &[prev], &[next]).unwrap();
            prev = next;
        }
        nl.mark_output(prev);
        let fp = Floorplan::for_cell_area(nl.total_area(), 0.7);
        let p = Placement::global(&nl, fp, 1).unwrap();
        let layout = route(&nl, &p);
        let view = nl.comb_view().unwrap();
        analyze(&nl, &view, &layout)
    }

    #[test]
    fn longer_chains_are_slower() {
        let d5 = analyzed_chain(5).critical_delay_ps;
        let d20 = analyzed_chain(20).critical_delay_ps;
        assert!(d20 > d5 * 2.0, "5-chain {d5} ps vs 20-chain {d20} ps");
    }

    #[test]
    fn critical_endpoint_is_a_po() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("t", lib.clone());
        let a = nl.add_input("a");
        let y = nl.add_named_net("y");
        let inv = lib.cell_id("INVX1").unwrap();
        nl.add_gate("g", inv, &[a], &[y]).unwrap();
        nl.mark_output(y);
        let fp = Floorplan::for_cell_area(nl.total_area(), 0.7);
        let p = Placement::global(&nl, fp, 1).unwrap();
        let layout = route(&nl, &p);
        let view = nl.comb_view().unwrap();
        let rpt = analyze(&nl, &view, &layout);
        assert_eq!(rpt.critical_endpoint, Some(y));
        assert!(rpt.critical_delay_ps > 0.0);
        assert!(rpt.arrival(y) == rpt.critical_delay_ps);
        assert_eq!(rpt.arrival(a), 0.0);
    }

    #[test]
    fn flop_cuts_the_path() {
        let lib = Library::osu018();
        let mut nl = Netlist::new("seq", lib.clone());
        let clk = nl.add_input("clk");
        let a = nl.add_input("a");
        let inv = lib.cell_id("INVX1").unwrap();
        let dff = lib.cell_id("DFFPOSX1").unwrap();
        // a -> inv -> dff -> inv -> y
        let n1 = nl.add_net();
        nl.add_gate("i1", inv, &[a], &[n1]).unwrap();
        let q = nl.add_net();
        nl.add_gate("ff", dff, &[n1, clk], &[q]).unwrap();
        let y = nl.add_named_net("y");
        nl.add_gate("i2", inv, &[q], &[y]).unwrap();
        nl.mark_output(y);
        let fp = Floorplan::for_cell_area(nl.total_area(), 0.7);
        let p = Placement::global(&nl, fp, 1).unwrap();
        let layout = route(&nl, &p);
        let view = nl.comb_view().unwrap();
        let rpt = analyze(&nl, &view, &layout);
        // Each segment (one inverter) is shorter than a two-inverter chain.
        let inv_cell = lib.cell(inv);
        let two_inv_floor = 2.0 * inv_cell.intrinsic_delay;
        assert!(rpt.critical_delay_ps < two_inv_floor + 100.0);
        // The path from q through i2 starts at 0 (q is a pseudo-PI).
        assert_eq!(rpt.arrival(q), 0.0);
    }
}
