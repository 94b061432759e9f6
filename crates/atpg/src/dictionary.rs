//! Fault dictionaries: which test detects which fault.
//!
//! The paper's companion work \[8\] diagnoses silicon failures by matching
//! tester fail signatures against a precomputed fault dictionary. This
//! module builds the pass/fail dictionary for a test set and provides the
//! matching query used in such volume-diagnosis flows.

use rsyn_netlist::{CombView, Netlist, LANE_WORDS};

use crate::fault::Fault;
use crate::sim::FaultSim;
use crate::testset::{window_mask, window_offsets, TestSet};

/// A per-fault detection signature over a test set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultDictionary {
    /// `signatures[f]` = bit-packed tests detecting fault `f`.
    signatures: Vec<Vec<u64>>,
    tests: usize,
}

impl FaultDictionary {
    /// Builds the dictionary by simulating every fault against every test
    /// (overlapping windows keep transition pattern pairs intact).
    pub fn build(nl: &Netlist, view: &CombView, faults: &[Fault], tests: &TestSet) -> Self {
        let words = tests.len().div_ceil(64).max(1);
        let mut signatures = vec![vec![0u64; words]; faults.len()];
        if tests.is_empty() {
            return Self { signatures, tests: 0 };
        }
        let mut sim = FaultSim::new(nl, view);
        for windows in window_offsets(tests.len()).chunks(LANE_WORDS) {
            let lanes = tests.lane_blocks(windows, view.pis.len());
            sim.set_patterns(&lanes);
            let mask = window_mask(windows, tests.len());
            for (fi, fault) in faults.iter().enumerate() {
                let det = sim.detect_lanes(fault) & mask;
                for (j, &offset) in windows.iter().enumerate() {
                    let mut bits = det.word(j);
                    while bits != 0 {
                        let lane = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let ti = offset + lane;
                        signatures[fi][ti / 64] |= 1 << (ti % 64);
                    }
                }
            }
        }
        Self { signatures, tests: tests.len() }
    }

    /// Number of tests the dictionary covers.
    pub fn test_count(&self) -> usize {
        self.tests
    }

    /// True if test `t` detects fault `f`.
    pub fn detects(&self, f: usize, t: usize) -> bool {
        (self.signatures[f][t / 64] >> (t % 64)) & 1 == 1
    }

    /// Number of tests detecting fault `f`.
    pub fn detection_count(&self, f: usize) -> usize {
        self.signatures[f].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Diagnosis query: rank faults by signature match against an observed
    /// set of failing tests. The score is the Jaccard index between the
    /// fault's signature and the observed fails; returns the best `top`
    /// candidates `(fault index, score)`, best first.
    pub fn diagnose(&self, failing_tests: &[usize], top: usize) -> Vec<(usize, f64)> {
        let words = self.signatures.first().map(Vec::len).unwrap_or(0);
        let mut observed = vec![0u64; words];
        for &t in failing_tests {
            if t < self.tests {
                observed[t / 64] |= 1 << (t % 64);
            }
        }
        let mut scored: Vec<(usize, f64)> = self
            .signatures
            .iter()
            .enumerate()
            .map(|(fi, sig)| {
                let mut inter = 0u32;
                let mut union = 0u32;
                for (a, b) in sig.iter().zip(&observed) {
                    inter += (a & b).count_ones();
                    union += (a | b).count_ones();
                }
                let score = if union == 0 { 0.0 } else { f64::from(inter) / f64::from(union) };
                (fi, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(top);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_atpg, AtpgOptions};
    use crate::fault::{FaultKind, FaultStatus};
    use rsyn_netlist::{Library, NetId};

    fn setup() -> (Netlist, Vec<Fault>, crate::engine::AtpgResult) {
        let lib = Library::osu018();
        let mut nl = Netlist::new("d", lib.clone());
        let mut nets: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let nand = lib.cell_id("NAND2X1").unwrap();
        for k in 0..10 {
            let out = nl.add_net();
            nl.add_gate(
                format!("g{k}"),
                nand,
                &[nets[k % nets.len()], nets[(k * 3 + 1) % nets.len()]],
                &[out],
            )
            .unwrap();
            nets.push(out);
        }
        let last = *nets.last().unwrap();
        nl.mark_output(last);
        nl.mark_output(nets[nets.len() - 2]);
        let faults: Vec<Fault> = nets
            .iter()
            .skip(4)
            .flat_map(|&n| {
                [false, true]
                    .into_iter()
                    .map(move |v| Fault::external(FaultKind::StuckAt { net: n, value: v }, 0))
            })
            .collect();
        let view = nl.comb_view().unwrap();
        let result = run_atpg(&nl, &view, &faults, &AtpgOptions::default());
        (nl, faults, result)
    }

    #[test]
    fn dictionary_matches_engine_statuses() {
        let (nl, faults, result) = setup();
        let view = nl.comb_view().unwrap();
        let dict = FaultDictionary::build(&nl, &view, &faults, &result.tests);
        assert_eq!(dict.test_count(), result.tests.len());
        for (fi, s) in result.statuses.iter().enumerate() {
            match s {
                FaultStatus::Detected => {
                    assert!(dict.detection_count(fi) > 0, "detected fault {fi} has empty signature")
                }
                FaultStatus::Undetectable => {
                    assert_eq!(dict.detection_count(fi), 0, "undetectable fault {fi} detected")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn diagnosis_recovers_the_injected_fault() {
        let (nl, faults, result) = setup();
        let view = nl.comb_view().unwrap();
        let dict = FaultDictionary::build(&nl, &view, &faults, &result.tests);
        // Pick a detected fault and present its own signature as the
        // observed fails: it must rank first (possibly tied with
        // equivalent faults).
        let victim = result
            .statuses
            .iter()
            .position(|s| *s == FaultStatus::Detected)
            .expect("some detected fault");
        let fails: Vec<usize> =
            (0..dict.test_count()).filter(|&t| dict.detects(victim, t)).collect();
        let ranked = dict.diagnose(&fails, 5);
        assert!(!ranked.is_empty());
        let top_score = ranked[0].1;
        assert!((top_score - 1.0).abs() < 1e-9, "top score {top_score}");
        assert!(
            ranked.iter().take_while(|(_, s)| (*s - 1.0).abs() < 1e-9).any(|&(f, _)| f == victim),
            "victim not among perfect matches"
        );
    }

    #[test]
    fn empty_test_set() {
        let (nl, faults, _) = setup();
        let view = nl.comb_view().unwrap();
        let dict = FaultDictionary::build(&nl, &view, &faults, &TestSet::new());
        assert_eq!(dict.test_count(), 0);
        assert_eq!(dict.detection_count(0), 0);
    }
}
