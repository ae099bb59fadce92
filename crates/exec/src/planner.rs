//! The cost-model-driven planner: turns the paper's analytic cost
//! expressions (Eqs. 12/14/18 and the `grid_opt` searches) into a runtime
//! decision procedure.

use crate::cache::PlanCache;
use crate::machine::MachineSpec;
use crate::plan::{Algorithm, Candidate, Plan};
use mttkrp_core::{grid_opt, model, Problem};
use std::sync::Arc;

/// Chooses, for a given [`Problem`] and [`MachineSpec`], the algorithm /
/// block size / processor grid with the smallest modeled communication
/// cost, and records every alternative it weighed in the returned [`Plan`].
///
/// Planning is pure model evaluation — no tensor is ever materialized — so
/// it works at any scale, including the paper's Figure 4 instance
/// (`I = 2^45`, `R = 2^15`, `P` up to `2^30`).
///
/// The model is the decision procedure (Eqs. (12)/(14)/(18) are tight
/// against Theorems 4.1–4.3, so ranking by modeled words is ranking): a
/// [`Plan`] is a pure function of `(dims, R, mode, MachineSpec)` — same
/// key, same plan, on every call, through the cache or not, in every
/// process. Nothing measured at run time feeds back into the choice.
#[derive(Clone, Debug)]
pub struct Planner {
    machine: MachineSpec,
}

impl Planner {
    /// A planner that optimizes for `machine`.
    pub fn new(machine: MachineSpec) -> Planner {
        Planner { machine }
    }

    /// The machine this planner optimizes for.
    pub(crate) fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Produces the cost-minimizing plan for MTTKRP mode `mode`.
    ///
    /// With `ranks == 1` the candidates are the sequential algorithms
    /// (Algorithm 1, Algorithm 2 at its best block size, and the sequential
    /// matmul baseline); with `ranks > 1` they are the parallel ones
    /// (Algorithm 3 / Algorithm 4 at their `grid_opt`-optimal grids, and
    /// the CARMA matmul baseline).
    ///
    /// ```
    /// use mttkrp_core::Problem;
    /// use mttkrp_exec::{Algorithm, MachineSpec, Planner};
    ///
    /// // Memory far below I*R: Algorithm 2's blocked reuse wins.
    /// let planner = Planner::new(MachineSpec::shared(1, 512));
    /// let plan = planner.plan(&Problem::cubical(3, 64, 16), 0);
    /// assert!(matches!(plan.algorithm, Algorithm::SeqBlocked { .. }));
    /// assert_eq!(plan.candidates.len(), 3); // every alternative is recorded
    /// ```
    ///
    /// Every plan runs: the grids are *model-optimal*, and the data
    /// distributions cut any grid with `split_range`, so a parallel machine
    /// always gets a parallel plan.
    pub fn plan(&self, problem: &Problem, mode: usize) -> Plan {
        assert!(mode < problem.order(), "mode out of range");
        let candidates = if self.machine.ranks <= 1 {
            self.sequential_candidates(problem, mode)
        } else {
            self.parallel_candidates(problem, mode)
        };
        // The cheapest candidate; the first wins a tie.
        let best = candidates
            .iter()
            .min_by(|a, b| a.modeled_cost.total_cmp(&b.modeled_cost))
            .expect("at least one candidate is always offered")
            .clone();
        Plan::new(
            problem.clone(),
            mode,
            self.machine.clone(),
            best.algorithm,
            best.modeled_cost,
            candidates,
        )
    }

    fn sequential_candidates(&self, problem: &Problem, mode: usize) -> Vec<Candidate> {
        // The sequential algorithms need at least N + 1 resident words
        // (one tensor entry plus one row element per factor); plan for the
        // smallest machine that can actually run, so every sequential plan
        // is executable on the strict simulator.
        let m = self.machine.fast_memory_words.max(problem.order() + 1);
        let (block, blocked_cost) = model::alg2_best_block(problem, mode, m as u64);
        vec![
            Candidate {
                algorithm: Algorithm::SeqUnblocked { memory: m },
                modeled_cost: model::alg1_cost(problem) as f64,
            },
            Candidate {
                algorithm: Algorithm::SeqBlocked {
                    memory: m,
                    block: block as usize,
                },
                modeled_cost: blocked_cost as f64,
            },
            Candidate {
                algorithm: Algorithm::SeqMatmul { memory: m },
                modeled_cost: model::seq_matmul_cost(problem, mode, m as u64),
            },
        ]
    }

    fn parallel_candidates(&self, problem: &Problem, mode: usize) -> Vec<Candidate> {
        let procs = self.machine.ranks as u64;
        let mut out = Vec::with_capacity(3);

        let (grid3, cost3) = grid_opt::optimize_alg3_grid(problem, procs);
        out.push(Candidate {
            algorithm: Algorithm::ParStationary {
                grid: grid3.iter().map(|&g| g as usize).collect(),
            },
            modeled_cost: cost3,
        });

        let (p0, grid4, cost4) = grid_opt::optimize_alg4_grid(problem, procs);
        out.push(Candidate {
            algorithm: Algorithm::ParGeneral {
                p0: p0 as usize,
                grid: grid4.iter().map(|&g| g as usize).collect(),
            },
            modeled_cost: cost4,
        });

        out.push(Candidate {
            algorithm: Algorithm::ParMatmul {
                procs: procs as usize,
            },
            modeled_cost: model::mm_baseline_cost(problem, mode, procs),
        });
        out
    }

    /// [`Planner::plan`] under the `planner` span, which records the choice
    /// and counts the plan.
    pub fn plan_executable(&self, problem: &Problem, mode: usize) -> Plan {
        let mut span = mttkrp_obs::span("planner");
        let plan = self.plan(problem, mode);
        record_planner_span(&mut span, &plan, None);
        plan
    }

    /// Like [`Planner::plan`], but returns the plan `cache` holds for this
    /// problem, mode and machine, planning and storing it on a miss. Returns
    /// a shared `Arc<Plan>`, so a hit costs a pointer clone, not a re-plan.
    ///
    /// ```
    /// use mttkrp_core::Problem;
    /// use mttkrp_exec::{MachineSpec, PlanCache, Planner};
    ///
    /// let cache = PlanCache::new(16);
    /// let planner = Planner::new(MachineSpec::shared(1, 512));
    /// let p = Problem::cubical(3, 32, 8);
    /// let a = planner.plan_cached(&p, 0, &cache); // miss: runs the sweep
    /// let b = planner.plan_cached(&p, 0, &cache); // hit: same Arc back
    /// assert!(std::sync::Arc::ptr_eq(&a, &b));
    /// ```
    pub fn plan_cached(&self, problem: &Problem, mode: usize, cache: &PlanCache) -> Arc<Plan> {
        self.plan_cached_with_status(problem, mode, cache).0
    }

    /// Like [`Planner::plan_cached`], additionally reporting whether the
    /// plan came out of the cache (`true`) or was planned by this call
    /// (`false`).
    pub fn plan_cached_with_status(
        &self,
        problem: &Problem,
        mode: usize,
        cache: &PlanCache,
    ) -> (Arc<Plan>, bool) {
        let mut span = mttkrp_obs::span("planner");
        let (plan, hit) =
            cache.get_or_plan(problem, mode, &self.machine, || self.plan(problem, mode));
        record_planner_span(&mut span, &plan, Some(hit));
        (plan, hit)
    }
}

/// Fills the `planner` span for a finished planning decision — which
/// algorithm won, how many candidates were weighed, the modeled cost, and
/// (for cached lookups) whether the plan came out of the cache — and bumps
/// the computed-plans counter. Free when tracing is disabled.
fn record_planner_span(span: &mut mttkrp_obs::Span, plan: &Plan, cache_hit: Option<bool>) {
    if span.is_active() {
        span.record("mode", plan.mode);
        span.record("algorithm", plan.algorithm.label());
        span.record("candidates", plan.candidates.len());
        span.record("modeled_words", plan.predicted_cost);
        span.record("ranks", plan.machine.ranks);
        if let Some(hit) = cache_hit {
            span.record("cache_hit", hit);
        }
    }
    if cache_hit != Some(true) {
        mttkrp_obs::counter_add("exec.plans_computed", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DEFAULT_CACHE_WORDS;

    #[test]
    fn sequential_plan_prefers_blocked_when_memory_is_scarce() {
        // M far below I*R: Algorithm 2's M^(1-1/N) saving dominates.
        let p = Problem::cubical(3, 64, 16);
        let planner = Planner::new(MachineSpec::shared(1, 512));
        let plan = planner.plan(&p, 0);
        assert!(
            matches!(plan.algorithm, Algorithm::SeqBlocked { .. }),
            "got {}",
            plan.algorithm
        );
        assert_eq!(plan.candidates.len(), 3);
    }

    #[test]
    fn plan_is_never_dominated_by_an_offered_candidate() {
        let p = Problem::new(&[32, 16, 8], 4);
        for machine in [
            MachineSpec::shared(1, 100),
            MachineSpec::shared(1, 1 << 14),
            MachineSpec::cluster(8, 1, DEFAULT_CACHE_WORDS),
            MachineSpec::cluster(12, 1, DEFAULT_CACHE_WORDS),
        ] {
            let plan = Planner::new(machine).plan(&p, 1);
            for c in &plan.candidates {
                assert!(
                    plan.predicted_cost <= c.modeled_cost + 1e-12,
                    "{} dominated by {}",
                    plan.algorithm,
                    c.algorithm
                );
            }
        }
    }

    #[test]
    fn parallel_plan_grid_multiplies_to_ranks() {
        // High rank relative to I/P: the tensor-aware algorithms beat the
        // matmul baseline (Figure 4 regime), and the grid covers all ranks.
        let p = Problem::cubical(3, 1 << 10, 1 << 10);
        let plan = Planner::new(MachineSpec::cluster(256, 1, DEFAULT_CACHE_WORDS)).plan(&p, 0);
        match &plan.algorithm {
            Algorithm::ParStationary { grid } => {
                assert_eq!(grid.iter().product::<usize>(), 256)
            }
            Algorithm::ParGeneral { p0, grid } => {
                assert_eq!(p0 * grid.iter().product::<usize>(), 256)
            }
            other => panic!("unexpected parallel plan {other}"),
        }
    }

    #[test]
    fn small_rank_small_p_prefers_matmul_baseline() {
        // The crossover the paper discusses: with tiny rank the CARMA
        // baseline's model cost can undercut Algorithm 3/4, and the planner
        // must follow its models rather than play favorites.
        let p = Problem::cubical(3, 64, 8);
        let plan = Planner::new(MachineSpec::cluster(16, 1, DEFAULT_CACHE_WORDS)).plan(&p, 0);
        assert!(
            matches!(plan.algorithm, Algorithm::ParMatmul { .. }),
            "got {}",
            plan.algorithm
        );
    }

    #[test]
    fn executable_plan_is_the_plan() {
        // P = 6 over a 6x10x15 tensor: the optimum need not divide, and it
        // runs as it is.
        let p = Problem::new(&[6, 10, 15], 4);
        let planner = Planner::new(MachineSpec::cluster(6, 1, DEFAULT_CACHE_WORDS));
        let (a, b) = (planner.plan_executable(&p, 0), planner.plan(&p, 0));
        assert_eq!(a.algorithm, b.algorithm);
        assert_eq!(a.predicted_cost, b.predicted_cost);
    }

    #[test]
    fn native_tile_stays_inside_rank_aware_cache_budget() {
        // Algorithm 2's block is sized for b^N + N*b residency; the native
        // kernel keeps b x R sub-blocks resident, so Plan::native_tile must
        // cap the block at the rank-aware budget.
        let p = Problem::cubical(3, 32, 64);
        let plan = Planner::new(MachineSpec::shared(1, 2048)).plan(&p, 0);
        assert!(matches!(plan.algorithm, Algorithm::SeqBlocked { .. }));
        let tile = plan.native_tile();
        assert!(
            tile.pow(3) + 3 * tile * 64 <= 2048,
            "tile {tile} overflows the planned cache budget"
        );
    }

    #[test]
    fn explanation_mentions_every_candidate() {
        let p = Problem::cubical(3, 16, 4);
        let plan = Planner::new(MachineSpec::shared(1, 128)).plan(&p, 2);
        let text = plan.explain();
        assert!(text.contains("alg1"));
        assert!(text.contains("alg2"));
        assert!(text.contains("seq-matmul"));
        assert!(text.contains("chosen:"));
    }
}
