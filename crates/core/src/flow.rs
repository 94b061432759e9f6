//! One full design analysis: `Synthesize()` output → `PDesign()` → DFM
//! scan → fault translation → ATPG → clustering, bundled as a
//! [`DesignState`] snapshot the resynthesis procedure iterates on.

use std::sync::Arc;

use rsyn_atpg::engine::{run_atpg, AtpgOptions, AtpgResult};
use rsyn_atpg::fault::Fault;
use rsyn_atpg::incremental::{run_atpg_incremental, PreviousEvaluation};
use rsyn_cluster::{cluster_faults, Clusters};
use rsyn_dfm::{extract_faults, GuidelineSet, InternalCatalog};
use rsyn_logic::Mapper;
use rsyn_netlist::{GateId, Library, Netlist};
use rsyn_pdesign::flow::{physical_design, physical_design_in, PhysicalDesign};
use rsyn_pdesign::place::PlaceError;
use rsyn_pdesign::{Floorplan, Placement};

/// Master physical-design seed used by [`FlowContext::new`]. Callers
/// that never override the seed (via [`FlowContext::with_seed`]) share
/// this value, which is what lets content-addressed caches and the flow
/// service treat "no override" and "explicit default" as the same key.
pub const DEFAULT_SEED: u64 = 0xDA7E;

/// Immutable tooling shared across all resynthesis iterations.
#[derive(Debug)]
pub struct FlowContext {
    /// The standard-cell library.
    pub lib: Arc<Library>,
    /// Prebuilt technology mapper.
    pub mapper: Mapper,
    /// The DFM guideline set.
    pub guidelines: GuidelineSet,
    /// Per-cell internal defect catalogs.
    pub catalog: InternalCatalog,
    /// ATPG options. `atpg.threads` controls the fault-sharded worker pool
    /// (0 = available parallelism); results are thread-count independent.
    pub atpg: AtpgOptions,
    /// Master seed for physical design.
    pub seed: u64,
}

impl FlowContext {
    /// Creates the context with default options and the fixed master seed.
    pub fn new(lib: Arc<Library>) -> Self {
        let mapper = Mapper::new(&lib);
        let guidelines = GuidelineSet::standard();
        let catalog = InternalCatalog::build(&lib);
        Self { lib, mapper, guidelines, catalog, atpg: AtpgOptions::default(), seed: DEFAULT_SEED }
    }

    /// Returns the context with an explicit ATPG worker-thread count
    /// (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.atpg.threads = threads;
        self
    }

    /// Returns the context with an explicit physical-design master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A fully analysed design snapshot.
#[derive(Clone, Debug)]
pub struct DesignState {
    /// The gate-level netlist.
    pub nl: Netlist,
    /// Physical design artifacts (placement, layout, timing, power).
    pub pd: PhysicalDesign,
    /// The DFM fault set `F`.
    pub faults: Vec<Fault>,
    /// ATPG outcome over `F`.
    pub atpg: AtpgResult,
    /// Clusters of the undetectable faults `U`.
    pub clusters: Clusters,
}

impl DesignState {
    /// Analyses a netlist. With `fixed` set, physical design runs inside
    /// the given floorplan, optionally reusing a previous placement
    /// incrementally.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] when the netlist does not fit the floorplan
    /// (a die-area constraint violation).
    pub fn analyze(
        nl: Netlist,
        ctx: &FlowContext,
        fixed: Option<(Floorplan, Option<&Placement>)>,
    ) -> Result<Self, PlaceError> {
        let _span = rsyn_observe::span("flow.analyze");
        rsyn_observe::add("flow.analyses", 1);
        let pd = match fixed {
            None => physical_design(&nl, ctx.seed)?,
            Some((fp, prev)) => physical_design_in(&nl, fp, prev, ctx.seed)?,
        };
        let faults = extract_faults(&nl, &pd.layout, &ctx.guidelines, &ctx.catalog);
        let view = nl.comb_view().expect("valid netlist");
        let atpg = run_atpg(&nl, &view, &faults, &ctx.atpg);
        let undetectable = atpg.undetectable_indices();
        let clusters = cluster_faults(&nl, &faults, &undetectable);
        Ok(Self { nl, pd, faults, atpg, clusters })
    }

    /// Like [`DesignState::analyze`], but reuses the ATPG verdicts of a
    /// previous analysis for every fault outside the cone of influence of
    /// `changed_gates` (the gates a resynthesis candidate remapped). This
    /// is the fast path of the candidate-evaluation inner loop: only the
    /// faults the remap can affect go back through fault simulation and
    /// PODEM.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] when the netlist does not fit the floorplan
    /// (a die-area constraint violation).
    pub fn analyze_incremental(
        nl: Netlist,
        ctx: &FlowContext,
        fixed: Option<(Floorplan, Option<&Placement>)>,
        prev: &DesignState,
        changed_gates: &[GateId],
    ) -> Result<Self, PlaceError> {
        let _span = rsyn_observe::span("flow.analyze_incremental");
        rsyn_observe::add("flow.analyses_incremental", 1);
        let pd = match fixed {
            None => physical_design(&nl, ctx.seed)?,
            Some((fp, prev_pl)) => physical_design_in(&nl, fp, prev_pl, ctx.seed)?,
        };
        let faults = extract_faults(&nl, &pd.layout, &ctx.guidelines, &ctx.catalog);
        let view = nl.comb_view().expect("valid netlist");
        let previous = PreviousEvaluation { faults: &prev.faults, result: &prev.atpg };
        let atpg = run_atpg_incremental(&nl, &view, &faults, &ctx.atpg, &previous, changed_gates);
        let undetectable = atpg.undetectable_indices();
        let clusters = cluster_faults(&nl, &faults, &undetectable);
        Ok(Self { nl, pd, faults, atpg, clusters })
    }

    /// Total fault count `F`.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Undetectable fault count `U`.
    pub fn undetectable_count(&self) -> usize {
        self.atpg.undetectable_count()
    }

    /// Undetectable *internal* fault count.
    pub fn undetectable_internal_count(&self) -> usize {
        self.atpg
            .undetectable_indices()
            .into_iter()
            .filter(|&i| self.faults[i].is_internal())
            .count()
    }

    /// Paper coverage metric `1 − U/F`.
    pub fn coverage(&self) -> f64 {
        self.atpg.coverage()
    }

    /// `|S_max|`.
    pub fn s_max_size(&self) -> usize {
        self.clusters.s_max_size()
    }

    /// Percentage of **all** faults that are in `S_max` (Table II's
    /// `%Smax_all`).
    pub fn s_max_percent_of_f(&self) -> f64 {
        if self.faults.is_empty() {
            return 0.0;
        }
        100.0 * self.s_max_size() as f64 / self.faults.len() as f64
    }

    /// Number of internal faults inside `S_max` (Table II's `Smax_I`).
    pub fn s_max_internal(&self) -> usize {
        self.clusters
            .s_max_fault_indices()
            .into_iter()
            .filter(|&i| self.faults[i].is_internal())
            .count()
    }

    /// `G_max`: gates corresponding to the largest cluster.
    pub fn g_max(&self) -> Vec<GateId> {
        self.clusters.g_max()
    }

    /// `G_U`: gates corresponding to all undetectable faults.
    pub fn g_u(&self) -> Vec<GateId> {
        self.clusters.gates_of_all()
    }

    /// Gates in `sub` that have at least one undetectable *internal* fault
    /// (`C_sub − G_zero` of Section III-B: only these are remapped).
    pub fn gates_with_undetectable_internal(&self, sub: &[GateId]) -> Vec<GateId> {
        use std::collections::HashSet;
        let mut hot: HashSet<GateId> = HashSet::new();
        for i in self.atpg.undetectable_indices() {
            if let rsyn_atpg::fault::FaultOrigin::Internal { gate } = self.faults[i].origin {
                hot.insert(gate);
            }
        }
        sub.iter().copied().filter(|g| hot.contains(g)).collect()
    }

    /// Critical-path delay in ps.
    pub fn delay_ps(&self) -> f64 {
        self.pd.timing.critical_delay_ps
    }

    /// Total power in µW.
    pub fn power_uw(&self) -> f64 {
        self.pd.power.total_uw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_circuit(ctx: &FlowContext) -> Netlist {
        let lib = &ctx.lib;
        let mut nl = Netlist::new("t", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let mut nets = vec![a, b, c];
        let aoi = lib.cell_id("AOI22X1").unwrap();
        let nand = lib.cell_id("NAND2X1").unwrap();
        for i in 0..30 {
            let y = nl.add_net();
            if i % 2 == 0 {
                let w = [
                    nets[i % nets.len()],
                    nets[(i + 1) % nets.len()],
                    nets[(i + 2) % nets.len()],
                    nets[(i * 3 + 1) % nets.len()],
                ];
                nl.add_gate(format!("g{i}"), aoi, &w, &[y]).unwrap();
            } else {
                nl.add_gate(
                    format!("g{i}"),
                    nand,
                    &[nets[i % nets.len()], nets[(i + 2) % nets.len()]],
                    &[y],
                )
                .unwrap();
            }
            nets.push(y);
        }
        let last = *nets.last().unwrap();
        nl.mark_output(last);
        nl
    }

    #[test]
    fn analyze_produces_consistent_state() {
        let ctx = FlowContext::new(Library::osu018());
        let nl = tiny_circuit(&ctx);
        let state = DesignState::analyze(nl, &ctx, None).unwrap();
        assert!(state.fault_count() > 0);
        assert!(state.coverage() <= 1.0);
        assert_eq!(state.undetectable_count(), state.atpg.undetectable_indices().len());
        assert!(state.s_max_size() <= state.undetectable_count());
        assert!(state.delay_ps() > 0.0);
        assert!(state.power_uw() > 0.0);
        // G_max gates all appear in G_U.
        let gu = state.g_u();
        for g in state.g_max() {
            assert!(gu.contains(&g));
        }
    }

    #[test]
    fn incremental_reanalysis_matches_full() {
        let ctx = FlowContext::new(Library::osu018());
        let nl = tiny_circuit(&ctx);
        let s1 = DesignState::analyze(nl.clone(), &ctx, None).unwrap();
        let fp = s1.pd.placement.floorplan();
        // Unchanged netlist, empty changed set: the incremental path must
        // reproduce the full analysis verdicts without re-running them.
        let s2 = DesignState::analyze_incremental(
            nl.clone(),
            &ctx,
            Some((fp, Some(&s1.pd.placement))),
            &s1,
            &[],
        )
        .unwrap();
        let full = DesignState::analyze(nl, &ctx, Some((fp, Some(&s1.pd.placement)))).unwrap();
        assert_eq!(s2.fault_count(), full.fault_count());
        assert_eq!(s2.undetectable_count(), full.undetectable_count());
        assert_eq!(s2.atpg.detected_count(), full.atpg.detected_count());
        assert_eq!(s2.s_max_size(), full.s_max_size());
    }

    #[test]
    fn fixed_floorplan_reanalysis_is_stable() {
        let ctx = FlowContext::new(Library::osu018());
        let nl = tiny_circuit(&ctx);
        let s1 = DesignState::analyze(nl.clone(), &ctx, None).unwrap();
        let fp = s1.pd.placement.floorplan();
        let s2 = DesignState::analyze(nl, &ctx, Some((fp, Some(&s1.pd.placement)))).unwrap();
        assert_eq!(s1.fault_count(), s2.fault_count());
        assert_eq!(s1.undetectable_count(), s2.undetectable_count());
    }
}
