//! Structural clustering of undetectable faults (paper, Section II).
//!
//! * A gate *corresponds to* a fault if the fault is internal and inside the
//!   gate, or external and on the gate's input/output nets.
//! * Two gates are *structurally adjacent* if one directly drives the other.
//! * Two faults are *adjacent* if they are located on the same gate or on
//!   two adjacent gates.
//!
//! The undetectable fault set `U` is partitioned into maximal subsets of
//! transitively-adjacent faults; the largest subset is `S_max` and the gates
//! corresponding to its faults form `G_max` — the paper's Table I columns.
//!
//! # Example
//!
//! ```
//! use rsyn_netlist::{Library, Netlist};
//! use rsyn_atpg::fault::{Fault, FaultKind};
//! use rsyn_cluster::cluster_faults;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::osu018();
//! let mut nl = Netlist::new("t", lib.clone());
//! let a = nl.add_input("a");
//! let y = nl.add_named_net("y");
//! let inv = lib.cell_id("INVX1").unwrap();
//! nl.add_gate("u", inv, &[a], &[y])?;
//! nl.mark_output(y);
//! let faults = vec![
//!     Fault::external(FaultKind::StuckAt { net: a, value: true }, 0),
//!     Fault::external(FaultKind::StuckAt { net: y, value: false }, 0),
//! ];
//! let clusters = cluster_faults(&nl, &faults, &[0, 1]);
//! assert_eq!(clusters.cluster_count(), 1, "both faults touch gate u");
//! # Ok(())
//! # }
//! ```

pub mod unionfind;

use std::collections::{HashMap, HashSet};

use rsyn_atpg::fault::{Fault, FaultOrigin};
use rsyn_netlist::{Driver, GateId, NetId, Netlist};
use unionfind::UnionFind;

/// The result of clustering a fault subset.
#[derive(Clone, Debug)]
pub struct Clusters {
    /// Clusters as lists of indices into the *subset* given to
    /// [`cluster_faults`], sorted by decreasing size (ties: smaller first
    /// index first).
    pub clusters: Vec<Vec<usize>>,
    /// Gates corresponding to each subset fault (parallel to the subset).
    pub fault_gates: Vec<Vec<GateId>>,
    /// The original subset (indices into the full fault list).
    pub subset: Vec<usize>,
}

impl Clusters {
    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// `S_max`: the largest cluster (subset-relative indices), empty slice
    /// when there are no faults.
    pub fn s_max(&self) -> &[usize] {
        self.clusters.first().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Size of `S_max`.
    pub fn s_max_size(&self) -> usize {
        self.s_max().len()
    }

    /// `G_max`: gates corresponding to the faults of `S_max`, deduplicated.
    pub fn g_max(&self) -> Vec<GateId> {
        let mut set = HashSet::new();
        let mut out = Vec::new();
        for &fi in self.s_max() {
            for &g in &self.fault_gates[fi] {
                if set.insert(g) {
                    out.push(g);
                }
            }
        }
        out.sort();
        out
    }

    /// `G_U`: gates corresponding to *all* clustered faults, deduplicated.
    pub fn gates_of_all(&self) -> Vec<GateId> {
        let mut set = HashSet::new();
        let mut out = Vec::new();
        for gates in &self.fault_gates {
            for &g in gates {
                if set.insert(g) {
                    out.push(g);
                }
            }
        }
        out.sort();
        out
    }

    /// Cluster sizes in decreasing order.
    pub fn size_distribution(&self) -> Vec<usize> {
        self.clusters.iter().map(Vec::len).collect()
    }

    /// Maps `S_max` back to indices into the full fault list.
    pub fn s_max_fault_indices(&self) -> Vec<usize> {
        self.s_max().iter().map(|&i| self.subset[i]).collect()
    }
}

/// Gates corresponding to one fault (paper definition).
pub fn gates_of_fault(nl: &Netlist, fault: &Fault) -> Vec<GateId> {
    let mut out = Vec::new();
    match &fault.origin {
        FaultOrigin::Internal { gate } => out.push(*gate),
        FaultOrigin::External { nets } => {
            for &net in nets {
                push_net_gates(nl, net, &mut out);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn push_net_gates(nl: &Netlist, net: NetId, out: &mut Vec<GateId>) {
    if let Some(Driver::Gate(g, _)) = nl.net(net).driver {
        out.push(g);
    }
    for &(g, _) in &nl.net(net).loads {
        out.push(g);
    }
}

/// Partitions the faults selected by `subset` (indices into `faults`) into
/// clusters of structurally adjacent faults.
pub fn cluster_faults(nl: &Netlist, faults: &[Fault], subset: &[usize]) -> Clusters {
    let _span = rsyn_observe::span("cluster");
    rsyn_observe::add_many(&[("cluster.runs", 1), ("cluster.faults", subset.len() as u64)]);
    let fault_gates: Vec<Vec<GateId>> =
        subset.iter().map(|&fi| gates_of_fault(nl, &faults[fi])).collect();

    let mut uf = UnionFind::new(subset.len());
    // Faults sharing a gate are adjacent; keep one representative per gate.
    let mut by_gate: HashMap<GateId, usize> = HashMap::new();
    for (i, gates) in fault_gates.iter().enumerate() {
        for &g in gates {
            match by_gate.get(&g) {
                Some(&j) => {
                    uf.union(i, j);
                }
                None => {
                    by_gate.insert(g, i);
                }
            }
        }
    }
    // Faults on adjacent gates (driver -> driven) are adjacent.
    for (&g, &i) in &by_gate {
        for succ in nl.fanout_gates(g) {
            if let Some(&j) = by_gate.get(&succ) {
                uf.union(i, j);
            }
        }
    }

    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..subset.len() {
        groups.entry(uf.find(i)).or_default().push(i);
    }
    let mut clusters: Vec<Vec<usize>> = groups.into_values().collect();
    for c in &mut clusters {
        c.sort();
    }
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then(a.first().cmp(&b.first())));
    for c in &clusters {
        rsyn_observe::hist_add("cluster.size", c.len() as u64);
    }

    Clusters { clusters, fault_gates, subset: subset.to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsyn_atpg::fault::{CellCondition, FaultKind};
    use rsyn_netlist::Library;

    /// Fig. 1-style structure: g1 drives g2 (adjacent); g3 isolated
    /// (separate input cone, separate output).
    fn three_gate() -> (Netlist, Vec<GateId>) {
        let lib = Library::osu018();
        let mut nl = Netlist::new("f", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_net();
        let y1 = nl.add_named_net("y1");
        let y2 = nl.add_named_net("y2");
        let inv = lib.cell_id("INVX1").unwrap();
        let g1 = nl.add_gate("g1", inv, &[a], &[n1]).unwrap();
        let g2 = nl.add_gate("g2", inv, &[n1], &[y1]).unwrap();
        let g3 = nl.add_gate("g3", inv, &[b], &[y2]).unwrap();
        nl.mark_output(y1);
        nl.mark_output(y2);
        (nl, vec![g1, g2, g3])
    }

    #[test]
    fn adjacent_gates_cluster_isolated_do_not() {
        let (nl, gates) = three_gate();
        let faults = vec![
            Fault::internal(gates[0], vec![CellCondition { pattern: 0, output: 0 }], 0),
            Fault::internal(gates[1], vec![CellCondition { pattern: 1, output: 0 }], 0),
            Fault::internal(gates[2], vec![CellCondition { pattern: 0, output: 0 }], 0),
        ];
        let c = cluster_faults(&nl, &faults, &[0, 1, 2]);
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.s_max_size(), 2);
        assert_eq!(c.g_max(), vec![gates[0], gates[1]]);
        assert_eq!(c.size_distribution(), vec![2, 1]);
    }

    #[test]
    fn external_fault_bridges_driver_and_loads() {
        let (nl, gates) = three_gate();
        let n1 = nl.gate(gates[0]).unwrap().outputs[0];
        let f = Fault::external(FaultKind::StuckAt { net: n1, value: false }, 0);
        let gs = gates_of_fault(&nl, &f);
        assert_eq!(gs, vec![gates[0], gates[1]]);
    }

    #[test]
    fn same_gate_faults_cluster() {
        let (nl, gates) = three_gate();
        let faults = vec![
            Fault::internal(gates[2], vec![CellCondition { pattern: 0, output: 0 }], 0),
            Fault::internal(gates[2], vec![CellCondition { pattern: 1, output: 0 }], 1),
        ];
        let c = cluster_faults(&nl, &faults, &[0, 1]);
        assert_eq!(c.cluster_count(), 1);
    }

    #[test]
    fn transitive_merging_across_a_chain() {
        // g1 -> g2 -> ... -> g5: faults on g1 and g3 and g5 cluster through
        // the chain only when intermediate gates also hold faults on shared
        // nets. Here external faults on each internal net chain everything.
        let lib = Library::osu018();
        let mut nl = Netlist::new("c", lib.clone());
        let mut prev = nl.add_input("a");
        let inv = lib.cell_id("INVX1").unwrap();
        let mut nets = Vec::new();
        for i in 0..5 {
            let next = nl.add_net();
            nl.add_gate(format!("g{i}"), inv, &[prev], &[next]).unwrap();
            nets.push(next);
            prev = next;
        }
        nl.mark_output(prev);
        let faults: Vec<Fault> = nets
            .iter()
            .map(|&n| Fault::external(FaultKind::StuckAt { net: n, value: true }, 0))
            .collect();
        let c = cluster_faults(&nl, &faults, &(0..faults.len()).collect::<Vec<_>>());
        assert_eq!(c.cluster_count(), 1, "chain faults form one cluster");
        assert_eq!(c.s_max_size(), 5);
        assert_eq!(c.gates_of_all().len(), 5);
    }

    #[test]
    fn gates_not_adjacent_through_shared_driver() {
        // Fig. 1(a)/(b): two gates fed by the same source but not driving
        // each other are NOT adjacent.
        let lib = Library::osu018();
        let mut nl = Netlist::new("f", lib.clone());
        let a = nl.add_input("a");
        let y1 = nl.add_named_net("y1");
        let y2 = nl.add_named_net("y2");
        let inv = lib.cell_id("INVX1").unwrap();
        let g1 = nl.add_gate("g1", inv, &[a], &[y1]).unwrap();
        let g2 = nl.add_gate("g2", inv, &[a], &[y2]).unwrap();
        nl.mark_output(y1);
        nl.mark_output(y2);
        let faults = vec![
            Fault::internal(g1, vec![CellCondition { pattern: 0, output: 0 }], 0),
            Fault::internal(g2, vec![CellCondition { pattern: 0, output: 0 }], 0),
        ];
        let c = cluster_faults(&nl, &faults, &[0, 1]);
        assert_eq!(c.cluster_count(), 2, "siblings sharing a driver net are not adjacent");
    }

    #[test]
    fn empty_subset() {
        let (nl, _) = three_gate();
        let c = cluster_faults(&nl, &[], &[]);
        assert_eq!(c.cluster_count(), 0);
        assert_eq!(c.s_max_size(), 0);
        assert!(c.g_max().is_empty());
    }

    #[test]
    fn subset_maps_back_to_full_indices() {
        let (nl, gates) = three_gate();
        let faults = vec![
            Fault::internal(gates[2], vec![CellCondition { pattern: 0, output: 0 }], 0),
            Fault::internal(gates[0], vec![CellCondition { pattern: 0, output: 0 }], 0),
            Fault::internal(gates[1], vec![CellCondition { pattern: 0, output: 0 }], 0),
        ];
        // Subset skips fault 0.
        let c = cluster_faults(&nl, &faults, &[1, 2]);
        assert_eq!(c.s_max_fault_indices(), vec![1, 2]);
    }
}
