//! The cost-model-driven planner: turns the paper's analytic cost
//! expressions (Eqs. 12/14/18 and the `grid_opt` searches) into a runtime
//! decision procedure.

use crate::cache::{MeasuredProfile, PlanCache, PlanKey, PlannerHit};
use crate::machine::MachineSpec;
use crate::plan::{Algorithm, Candidate, Plan};
use mttkrp_core::{grid_opt, model, Problem};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default near-tie band: candidates whose analytic cost is within ±15%
/// of the best are considered model ties, and measured evidence may pick
/// among them.
pub const DEFAULT_NEAR_TIE_BAND: f64 = 0.15;

/// Minimum recorded runs before a [`MeasuredProfile`] counts as evidence
/// in a re-rank decision — one noisy sample must not flip a plan.
pub const MIN_EVIDENCE_RUNS: u64 = 2;

/// Chooses, for a given [`Problem`] and [`MachineSpec`], the algorithm /
/// block size / processor grid with the smallest modeled communication
/// cost, and records every alternative it weighed in the returned [`Plan`].
///
/// Planning is pure model evaluation — no tensor is ever materialized — so
/// it works at any scale, including the paper's Figure 4 instance
/// (`I = 2^45`, `R = 2^15`, `P` up to `2^30`).
///
/// The analytic model is a *prior*, not a verdict: on cached lookups
/// ([`Planner::plan_cached`]) the planner also weighs any measured
/// wall-time evidence the cache has accumulated, and when two candidates
/// model within the near-tie band (±[`DEFAULT_NEAR_TIE_BAND`] by default,
/// see [`Planner::with_near_tie_band`]) the one with the better measured
/// record wins. Evidence can never promote a candidate from *outside* the
/// band: the model keeps the final say beyond its own error bars.
#[derive(Clone, Debug)]
pub struct Planner {
    machine: MachineSpec,
    near_tie_band: f64,
}

impl Planner {
    /// A planner that optimizes for `machine`, with the default near-tie
    /// band of ±[`DEFAULT_NEAR_TIE_BAND`].
    pub fn new(machine: MachineSpec) -> Planner {
        Planner {
            machine,
            near_tie_band: DEFAULT_NEAR_TIE_BAND,
        }
    }

    /// The same planner with a near-tie band of ±`band` (e.g. `0.15` for
    /// ±15%): how far above the best analytic cost a candidate may model
    /// and still be considered a tie that measured evidence can break.
    /// `0.0` disables re-ranking entirely (only exact analytic ties).
    ///
    /// # Panics
    /// Panics if `band` is negative or not finite.
    pub fn with_near_tie_band(mut self, band: f64) -> Planner {
        assert!(
            band.is_finite() && band >= 0.0,
            "near-tie band must be finite and >= 0"
        );
        self.near_tie_band = band;
        self
    }

    /// The configured near-tie band (a fraction, e.g. `0.15` for ±15%).
    pub fn near_tie_band(&self) -> f64 {
        self.near_tie_band
    }

    /// The machine this planner optimizes for.
    pub fn machine(&self) -> &MachineSpec {
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
    /// let planner = Planner::new(MachineSpec::sequential(512));
    /// let plan = planner.plan(&Problem::cubical(3, 64, 16), 0);
    /// assert!(matches!(plan.algorithm, Algorithm::SeqBlocked { .. }));
    /// assert_eq!(plan.candidates.len(), 3); // every alternative is recorded
    /// ```
    ///
    /// The grids here are *model-optimal* and need not divide the tensor
    /// dimensions, so a parallel plan from this method may not be runnable
    /// on the simulator (whose data distributions require even division) —
    /// it is the right call for model-scale analysis (e.g. Figure 4). To
    /// *execute* a parallel plan, use [`Planner::plan_executable`], which
    /// restricts the search to runnable distributions.
    pub fn plan(&self, problem: &Problem, mode: usize) -> Plan {
        assert!(mode < problem.order(), "mode out of range");
        let candidates = if self.machine.ranks <= 1 {
            self.sequential_candidates(problem, mode)
        } else {
            self.parallel_candidates(problem, mode)
        };
        let best = candidates
            .iter()
            .min_by(|a, b| a.modeled_cost.total_cmp(&b.modeled_cost))
            .expect("at least one candidate is always offered")
            .clone();
        Plan {
            problem: problem.clone(),
            mode,
            machine: self.machine.clone(),
            algorithm: best.algorithm,
            predicted_cost: best.modeled_cost,
            candidates,
            measured: Vec::new(),
            analytic_algorithm: None,
            note: None,
        }
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

    /// Like [`Planner::plan`], but restricts the parallel grids to
    /// factorizations that evenly divide the tensor dimensions (and `P_0`
    /// the rank), which is what the network simulator's data distributions
    /// require. When *no* algorithm admits a clean distribution at this
    /// rank count (every dividing grid search comes up empty and the 1D
    /// matmul slab does not divide either), the problem cannot be
    /// distributed at all and the planner falls back to a *sequential*
    /// plan (`ranks = 1`), which every backend can execute.
    pub fn plan_executable(&self, problem: &Problem, mode: usize) -> Plan {
        let mut span = mttkrp_obs::span("planner");
        let plan = self.plan_executable_inner(problem, mode);
        record_planner_span(&mut span, &plan, None);
        plan
    }

    /// Whether `alg` admits a clean (evenly dividing) data distribution
    /// for `problem` at `mode` — i.e. whether a backend can actually run
    /// it. Sequential algorithms always qualify. This is the same
    /// constraint [`Planner::plan_executable`] plans under, exposed so the
    /// evidence re-rank (and `mttkrp_cli autotune`) never promotes a
    /// candidate that cannot execute.
    pub fn candidate_executable(&self, problem: &Problem, mode: usize, alg: &Algorithm) -> bool {
        // The 1D matmul baseline slabs the highest-index mode other than
        // `mode`; its simulator requires the rank count to divide that
        // extent.
        match alg {
            Algorithm::ParStationary { grid } => grid
                .iter()
                .zip(&problem.dims)
                .all(|(&g, &d)| d % g as u64 == 0),
            Algorithm::ParGeneral { p0, grid } => {
                problem.rank.is_multiple_of(*p0 as u64)
                    && grid
                        .iter()
                        .zip(&problem.dims)
                        .all(|(&g, &d)| d % g as u64 == 0)
            }
            Algorithm::ParMatmul { procs } => {
                let mm_slab_mode = (0..problem.order()).rev().find(|&k| k != mode).unwrap();
                problem.dims[mm_slab_mode].is_multiple_of(*procs as u64)
            }
            _ => true,
        }
    }

    pub(crate) fn plan_executable_inner(&self, problem: &Problem, mode: usize) -> Plan {
        let plan = self.plan(problem, mode);
        if self.machine.ranks <= 1 {
            return plan;
        }
        let procs = self.machine.ranks as u64;
        let mm_slab_mode = (0..problem.order()).rev().find(|&k| k != mode).unwrap();
        let mm_ok = problem.dims[mm_slab_mode].is_multiple_of(procs);
        if self.candidate_executable(problem, mode, &plan.algorithm) {
            return plan;
        }
        // Re-run the grid searches under the divisibility constraint.
        let mut candidates = Vec::new();
        if let Some((grid3, cost3)) = grid_opt::optimize_alg3_grid_dividing(problem, procs) {
            candidates.push(Candidate {
                algorithm: Algorithm::ParStationary {
                    grid: grid3.iter().map(|&g| g as usize).collect(),
                },
                modeled_cost: cost3,
            });
        }
        if let Some((p0, grid4, cost4)) = grid_opt::optimize_alg4_grid_dividing(problem, procs) {
            candidates.push(Candidate {
                algorithm: Algorithm::ParGeneral {
                    p0: p0 as usize,
                    grid: grid4.iter().map(|&g| g as usize).collect(),
                },
                modeled_cost: cost4,
            });
        }
        if mm_ok {
            candidates.push(Candidate {
                algorithm: Algorithm::ParMatmul {
                    procs: procs as usize,
                },
                modeled_cost: model::mm_baseline_cost(problem, mode, procs),
            });
        }
        if candidates.is_empty() {
            // No clean data distribution exists for this rank count at all:
            // fall back to a sequential plan, which every backend can run —
            // and say so on the plan, since the user asked for `procs` ranks.
            let sequential = Planner::new(MachineSpec {
                ranks: 1,
                ..self.machine.clone()
            });
            let mut plan = sequential.plan(problem, mode);
            plan.machine = self.machine.clone();
            plan.note = Some(format!(
                "no algorithm admits an even data distribution over P = {procs} ranks \
                 for this problem (no dividing grid, P0 does not divide R, and the 1D \
                 matmul slab is indivisible); falling back to sequential execution"
            ));
            return plan;
        }
        let best = candidates
            .iter()
            .min_by(|a, b| a.modeled_cost.total_cmp(&b.modeled_cost))
            .expect("checked non-empty above")
            .clone();
        Plan {
            problem: problem.clone(),
            mode,
            machine: self.machine.clone(),
            algorithm: best.algorithm,
            predicted_cost: best.modeled_cost,
            candidates,
            measured: Vec::new(),
            analytic_algorithm: None,
            note: None,
        }
    }

    /// Like [`Planner::plan_executable`], but consults `cache` first and
    /// stores the plan it computes on a miss — the entry point a serving
    /// layer uses to amortize the candidate sweep across repeated shapes.
    ///
    /// The cache key is the full [`PlanKey`]: problem shape, mode, *and*
    /// this planner's machine (the same shape planned for a different
    /// machine is a different plan). Returns a shared `Arc<Plan>`, so a hit
    /// costs a pointer clone, not a re-plan.
    ///
    /// ```
    /// use mttkrp_core::Problem;
    /// use mttkrp_exec::{MachineSpec, PlanCache, Planner};
    ///
    /// let cache = PlanCache::new(16);
    /// let planner = Planner::new(MachineSpec::sequential(512));
    /// let p = Problem::cubical(3, 32, 8);
    /// let a = planner.plan_cached(&p, 0, &cache); // miss: runs the sweep
    /// let b = planner.plan_cached(&p, 0, &cache); // hit: same Arc back
    /// assert!(std::sync::Arc::ptr_eq(&a, &b));
    /// assert_eq!(cache.stats().hits, 1);
    /// ```
    pub fn plan_cached(&self, problem: &Problem, mode: usize, cache: &PlanCache) -> Arc<Plan> {
        self.plan_cached_with_status(problem, mode, cache).0
    }

    /// Like [`Planner::plan_cached`], additionally reporting whether the
    /// plan came out of the cache (`true`) or was computed by this call
    /// (`false`). The flag comes from the same lookup that updates the
    /// cache's hit/miss ledger, so it always agrees with
    /// [`PlanCache::stats`] — including under races: when two threads miss
    /// on the same key simultaneously, the insert is first-wins, the loser
    /// gets the winner's `Arc` back (reported as a hit, and the ledger's
    /// duplicate miss is reclassified), so `Arc::ptr_eq` sharing holds and
    /// misses are never double-counted.
    ///
    /// On a hit, if measurements arrived since the evidence was last
    /// weighed, the re-rank check runs: see [`Planner::plan_cached`].
    pub fn plan_cached_with_status(
        &self,
        problem: &Problem,
        mode: usize,
        cache: &PlanCache,
    ) -> (Arc<Plan>, bool) {
        let mut span = mttkrp_obs::span("planner");
        let key = PlanKey::new(problem, mode, &self.machine);
        if let Some(hit) = cache.lookup(&key) {
            let plan = self.apply_evidence(&key, hit, cache);
            record_planner_span(&mut span, &plan, Some(true));
            return (plan, true);
        }
        let planned = Arc::new(self.plan_executable_inner(problem, mode));
        let (plan, lost_race) = cache.resolve_miss(key, planned);
        record_planner_span(&mut span, &plan, Some(lost_race));
        (plan, lost_race)
    }

    /// The candidates of `plan` whose analytic cost lies within this
    /// planner's near-tie band of the best *and* that can actually execute
    /// ([`Planner::candidate_executable`]) — the set measured evidence is
    /// allowed to choose among, and the set `mttkrp_cli autotune` times.
    /// The analytic winner itself is always included (and always first).
    pub fn near_tie_candidates(&self, plan: &Plan) -> Vec<Candidate> {
        let Some(analytic) = analytic_winner(&plan.candidates) else {
            return Vec::new();
        };
        let cutoff = analytic.modeled_cost * (1.0 + self.near_tie_band);
        let mut out = vec![analytic.clone()];
        for c in &plan.candidates {
            if c.algorithm != analytic.algorithm
                && c.modeled_cost <= cutoff
                && self.candidate_executable(&plan.problem, plan.mode, &c.algorithm)
            {
                out.push(c.clone());
            }
        }
        out
    }

    /// Runs the evidence re-rank on a cache hit: if new measurements make
    /// a near-tie candidate beat the resident choice, build the re-ranked
    /// plan (annotated with the evidence and the analytic prior it
    /// overrode), install it, and return it; otherwise return the resident
    /// plan unchanged.
    fn apply_evidence(&self, key: &PlanKey, hit: PlannerHit, cache: &PlanCache) -> Arc<Plan> {
        if !hit.stale || hit.profiles.is_empty() {
            return hit.plan;
        }
        let winner = self.evidence_winner(&hit.plan, &hit.profiles);
        match winner {
            Some(candidate) if candidate.algorithm != hit.plan.algorithm => {
                let reranked = Arc::new(self.reranked_plan(&hit.plan, &candidate, &hit.profiles));
                cache.install_reranked(key, Arc::clone(&reranked));
                reranked
            }
            _ => hit.plan,
        }
    }

    /// The candidate the combined prior + evidence picks, or `None` when
    /// the evidence cannot speak (no measured record of the analytic
    /// winner to compare against, or fewer than [`MIN_EVIDENCE_RUNS`]
    /// runs). Candidates outside the near-tie band are never considered,
    /// no matter what was measured for them.
    fn evidence_winner(
        &self,
        plan: &Plan,
        profiles: &BTreeMap<String, MeasuredProfile>,
    ) -> Option<Candidate> {
        let evidence_of = |c: &Candidate| -> Option<MeasuredProfile> {
            profiles
                .get(&c.algorithm.label())
                .filter(|p| p.count >= MIN_EVIDENCE_RUNS)
                .copied()
        };
        let near = self.near_tie_candidates(plan);
        let analytic = near.first()?.clone();
        // Without a measured record of the analytic winner there is no
        // comparison to make: the prior stands.
        let mut best_score = evidence_of(&analytic)?.score();
        let mut best = analytic;
        for c in near.into_iter().skip(1) {
            if let Some(p) = evidence_of(&c) {
                if p.score() < best_score {
                    best_score = p.score();
                    best = c;
                }
            }
        }
        Some(best)
    }

    /// Builds the re-ranked plan: `winner` (a near-tie candidate with the
    /// best measured record) becomes the choice, the per-candidate
    /// evidence is snapshotted for [`Plan::explain`], and the analytic
    /// winner it overrode is recorded as the prior.
    fn reranked_plan(
        &self,
        old: &Plan,
        winner: &Candidate,
        profiles: &BTreeMap<String, MeasuredProfile>,
    ) -> Plan {
        let analytic = analytic_winner(&old.candidates)
            .expect("a cached plan always has candidates")
            .algorithm
            .clone();
        Plan {
            problem: old.problem.clone(),
            mode: old.mode,
            machine: old.machine.clone(),
            algorithm: winner.algorithm.clone(),
            predicted_cost: winner.modeled_cost,
            candidates: old.candidates.clone(),
            measured: old
                .candidates
                .iter()
                .map(|c| profiles.get(&c.algorithm.label()).copied())
                .collect(),
            analytic_algorithm: (analytic != winner.algorithm).then_some(analytic),
            note: old.note.clone(),
        }
    }
}

/// The candidate with the smallest analytic cost — the model's prior.
fn analytic_winner(candidates: &[Candidate]) -> Option<&Candidate> {
    candidates
        .iter()
        .min_by(|a, b| a.modeled_cost.total_cmp(&b.modeled_cost))
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
        if plan.note.is_some() {
            span.record("fallback", true);
        }
    }
    if cache_hit != Some(true) {
        mttkrp_obs::counter_add("exec.plans_computed", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_plan_prefers_blocked_when_memory_is_scarce() {
        // M far below I*R: Algorithm 2's M^(1-1/N) saving dominates.
        let p = Problem::cubical(3, 64, 16);
        let planner = Planner::new(MachineSpec::sequential(512));
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
            MachineSpec::sequential(100),
            MachineSpec::sequential(1 << 14),
            MachineSpec::distributed(8),
            MachineSpec::distributed(12),
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
        let plan = Planner::new(MachineSpec::distributed(256)).plan(&p, 0);
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
        let plan = Planner::new(MachineSpec::distributed(16)).plan(&p, 0);
        assert!(
            matches!(plan.algorithm, Algorithm::ParMatmul { .. }),
            "got {}",
            plan.algorithm
        );
    }

    #[test]
    fn executable_plan_divides_dimensions() {
        // P = 6 over a 6x10x15 tensor: the unrestricted optimum need not
        // divide, the executable one must.
        let p = Problem::new(&[6, 10, 15], 4);
        let plan = Planner::new(MachineSpec::distributed(6)).plan_executable(&p, 0);
        if let Algorithm::ParStationary { grid } = &plan.algorithm {
            for (g, d) in grid.iter().zip(&p.dims) {
                assert_eq!(d % *g as u64, 0);
            }
        }
    }

    #[test]
    fn native_tile_stays_inside_rank_aware_cache_budget() {
        // Algorithm 2's block is sized for b^N + N*b residency; the native
        // kernel keeps b x R sub-blocks resident, so Plan::native_tile must
        // cap the block at the rank-aware budget.
        let p = Problem::cubical(3, 32, 64);
        let plan = Planner::new(MachineSpec::sequential(2048)).plan(&p, 0);
        assert!(matches!(plan.algorithm, Algorithm::SeqBlocked { .. }));
        let tile = plan.native_tile();
        assert!(
            tile.pow(3) + 3 * tile * 64 <= 2048,
            "tile {tile} overflows the planned cache budget"
        );
    }

    #[test]
    fn measured_evidence_flips_a_near_tie() {
        let p = Problem::cubical(3, 16, 4);
        let machine = MachineSpec::sequential(128);
        // A huge band makes every candidate a near-tie, so the flip is
        // forced by evidence alone.
        let planner = Planner::new(machine.clone()).with_near_tie_band(1e6);
        let cache = PlanCache::new(8);
        let first = planner.plan_cached(&p, 0, &cache);
        let key = PlanKey::new(&p, 0, &machine);
        let loser = first.algorithm.label();
        let challenger = first
            .candidates
            .iter()
            .find(|c| c.algorithm != first.algorithm)
            .expect("three candidates")
            .algorithm
            .clone();
        for _ in 0..MIN_EVIDENCE_RUNS {
            cache.record_measurement(&key, &loser, 10e-3);
            cache.record_measurement(&key, &challenger.label(), 1e-3);
        }
        let tuned = planner.plan_cached(&p, 0, &cache);
        assert_eq!(tuned.algorithm, challenger, "evidence must flip the tie");
        assert_eq!(tuned.analytic_algorithm, Some(first.algorithm.clone()));
        assert_eq!(cache.stats().reranks, 1);
        let text = tuned.explain();
        assert!(text.contains("analytic prior:"), "{text}");
        assert!(text.contains("measured evidence:"), "{text}");
        // The decision is sticky but not hysteretic: with no new
        // measurements the re-ranked plan is returned as-is (same Arc).
        let again = planner.plan_cached(&p, 0, &cache);
        assert!(Arc::ptr_eq(&tuned, &again));
        assert_eq!(cache.stats().reranks, 1);
    }

    #[test]
    fn out_of_band_measurements_never_flip_the_winner() {
        let p = Problem::cubical(3, 64, 16);
        let machine = MachineSpec::sequential(512);
        // Zero band: only exact analytic ties may re-rank, so adversarial
        // measurements for a strictly-worse candidate change nothing.
        let planner = Planner::new(machine.clone()).with_near_tie_band(0.0);
        let cache = PlanCache::new(8);
        let first = planner.plan_cached(&p, 0, &cache);
        let key = PlanKey::new(&p, 0, &machine);
        for c in &first.candidates {
            let secs = if c.algorithm == first.algorithm {
                1.0 // make the analytic winner look terrible...
            } else {
                1e-9 // ...and every alternative look instantaneous
            };
            for _ in 0..5 {
                cache.record_measurement(&key, &c.algorithm.label(), secs);
            }
        }
        let after = planner.plan_cached(&p, 0, &cache);
        assert_eq!(
            after.algorithm, first.algorithm,
            "evidence outside the near-tie band must never override the model"
        );
        assert_eq!(cache.stats().reranks, 0);
    }

    #[test]
    fn single_sample_is_not_evidence() {
        let p = Problem::cubical(3, 16, 4);
        let machine = MachineSpec::sequential(128);
        let planner = Planner::new(machine.clone()).with_near_tie_band(1e6);
        let cache = PlanCache::new(8);
        let first = planner.plan_cached(&p, 0, &cache);
        let key = PlanKey::new(&p, 0, &machine);
        let challenger = first
            .candidates
            .iter()
            .find(|c| c.algorithm != first.algorithm)
            .unwrap();
        // One sample each: below MIN_EVIDENCE_RUNS, so nothing may flip.
        cache.record_measurement(&key, &first.algorithm.label(), 10e-3);
        cache.record_measurement(&key, &challenger.algorithm.label(), 1e-3);
        let after = planner.plan_cached(&p, 0, &cache);
        assert_eq!(after.algorithm, first.algorithm);
        assert_eq!(cache.stats().reranks, 0);
    }

    #[test]
    fn near_tie_candidates_start_with_the_analytic_winner() {
        let p = Problem::cubical(3, 16, 4);
        let planner = Planner::new(MachineSpec::sequential(128)).with_near_tie_band(1e6);
        let plan = planner.plan(&p, 0);
        let near = planner.near_tie_candidates(&plan);
        assert_eq!(near[0].algorithm, plan.algorithm);
        assert_eq!(near.len(), 3, "everything ties under a huge band");
        let tight = Planner::new(MachineSpec::sequential(128)).with_near_tie_band(0.0);
        let only = tight.near_tie_candidates(&plan);
        assert_eq!(only.len(), 1, "zero band admits only the winner");
    }

    #[test]
    fn explanation_mentions_every_candidate() {
        let p = Problem::cubical(3, 16, 4);
        let plan = Planner::new(MachineSpec::sequential(128)).plan(&p, 2);
        let text = plan.explain();
        assert!(text.contains("alg1"));
        assert!(text.contains("alg2"));
        assert!(text.contains("seq-matmul"));
        assert!(text.contains("chosen:"));
    }
}
