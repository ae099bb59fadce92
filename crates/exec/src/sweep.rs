//! Sweep plans: what one CP-ALS sweep over all `N` modes executes.
//!
//! A sweep needs every mode's MTTKRP. Planned mode by mode that is `N`
//! passes over the tensor; Section VII of the paper notes that sharing
//! partial contractions across modes "can save both communication and
//! computation". [`Planner::plan_sweep`] plans the sweep as a whole over the
//! dimension tree of [`mttkrp_core::multi`]: each tensor pass is an ordinary
//! [`Plan`] (for one mode, the mode plan the caller holds and passes in; for
//! a merged mode range, one on the reshaped [`Problem`] of [`pass_view`] — so
//! [`Plan::explain`], the predicted words and the simulator replay come for
//! free), each other step a streaming contraction
//! of a partial, and the plan carries both sides of the paper's "both" as
//! numbers: predicted flops and words of the tree, and of `N` per-mode plans.

use crate::machine::MachineSpec;
use crate::plan::Plan;
use crate::planner::Planner;
use mttkrp_core::arith::streamed_kernel_flops;
use mttkrp_core::multi::{pass_view, step_flops, sweep_steps, TreeStep};
use mttkrp_core::Problem;
use std::fmt;
use std::sync::Arc;

/// One step of a [`SweepPlan`]: form the partial `Y_[lo, hi)` (a mode's
/// MTTKRP output when the range is one mode).
#[derive(Clone, Debug)]
pub struct SweepStep {
    /// The mode range and the step it is contracted from
    /// ([`TreeStep::parent`] indexes [`SweepPlan::steps`]).
    pub tree: TreeStep,
    /// For a pass over the tensor, the plan it runs under: mode `lo`'s own
    /// plan for a one-mode range, a plan for the [`pass_view`] problem for a
    /// merged range. `None` for a contraction of a partial.
    pub plan: Option<Arc<Plan>>,
    /// Words of the partial this step forms: `R` times the range's extents.
    pub partial_words: u64,
    /// Predicted flops, as the streaming loops run them
    /// ([`mttkrp_core::multi::step_flops`]).
    flops: u64,
    /// Predicted words moved: the plan's modeled cost for a tensor pass; for
    /// a contraction, streamed like Algorithm 1 with nothing resident beyond
    /// the rows in flight — per parent row one load of it and a load and a
    /// store of the child's, plus the dropped modes' factor rows once per
    /// dropped index.
    pub words: f64,
}

/// What one CP-ALS sweep executes, planned once per factorization: the
/// steps in execution order, and the predicted cost of the whole against
/// `N` independent per-mode plans.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    /// The problem the sweep was planned for.
    pub(crate) problem: Problem,
    /// The machine the planner optimized for.
    pub(crate) machine: MachineSpec,
    /// The steps, in execution order; the `n`-th one-mode step is mode `n`'s.
    pub steps: Vec<SweepStep>,
    /// Predicted flops of `N` per-mode MTTKRPs.
    pub per_mode_flops: u64,
    /// Predicted words of `N` per-mode plans.
    pub per_mode_words: f64,
}

impl SweepPlan {
    /// Passes over the tensor per sweep (`N` when nothing is shared).
    pub fn tensor_passes(&self) -> usize {
        self.steps.iter().filter(|s| s.plan.is_some()).count()
    }

    /// Partial contractions per sweep.
    pub fn contractions(&self) -> usize {
        self.steps.len() - self.tensor_passes()
    }

    /// Words of every shared (multi-mode) partial formed per sweep.
    pub fn partial_words(&self) -> u64 {
        let shared = self.steps.iter().filter(|s| !s.tree.is_leaf());
        shared.map(|s| s.partial_words).sum()
    }

    /// Predicted flops of one sweep.
    pub fn flops(&self) -> u64 {
        self.steps.iter().map(|s| s.flops).sum()
    }

    /// Predicted words moved by one sweep.
    pub fn words(&self) -> f64 {
        self.steps.iter().map(|s| s.words).sum()
    }

    /// Multi-line explanation: one line per step (indented under the step
    /// it is contracted from), then the predicted totals against `N`
    /// per-mode plans.
    pub fn explain(&self) -> String {
        let mut s = format!(
            "sweep plan for dims {:?}, R = {} on {} thread(s) / {} rank(s): \
             {} tensor pass(es) + {} partial contraction(s) per sweep\n",
            self.problem.dims,
            self.problem.rank,
            self.machine.threads,
            self.machine.ranks,
            self.tensor_passes(),
            self.contractions(),
        );
        for step in &self.steps {
            let TreeStep { lo, hi, parent } = step.tree;
            let mut depth = 0;
            let mut up = parent;
            while let Some(p) = up {
                depth += 1;
                up = self.steps[p].tree.parent;
            }
            let range = if step.tree.is_leaf() {
                format!("mode {lo}")
            } else {
                format!("modes {lo}..{hi}")
            };
            let how = match &step.plan {
                Some(plan) if step.tree.is_leaf() => {
                    format!("tensor pass, {}", plan.algorithm.label())
                }
                Some(plan) => format!(
                    "tensor pass, {} at mode {} of the {} view",
                    plan.algorithm.label(),
                    plan.mode,
                    plan.problem.shape()
                ),
                None => {
                    let from = parent.expect("a step without a plan is a contraction");
                    let from = self.steps[from].tree;
                    format!("contracted from modes {}..{}", from.lo, from.hi)
                }
            };
            s.push_str(&format!(
                "  {:indent$}{range}: {how}; partial {} words, {:.4e} flops, {:.4e} words\n",
                "",
                step.partial_words,
                step.flops as f64,
                step.words,
                indent = 2 * depth,
            ));
        }
        s.push_str(&format!(
            "predicted per sweep: {:.4e} flops, {:.4e} words; \
             {} per-mode plans: {:.4e} flops, {:.4e} words",
            self.flops() as f64,
            self.words(),
            self.problem.order(),
            self.per_mode_flops as f64,
            self.per_mode_words,
        ));
        s
    }
}

impl fmt::Display for SweepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

impl Planner {
    /// Plans one CP-ALS sweep over every mode of `problem`, whose
    /// standalone mode plans the caller holds: `per_mode[n]` is mode `n`'s
    /// ([`Planner::plan`] of `problem` at `n`). A mode with a tensor pass of
    /// its own runs under that plan; only a merged range is planned here.
    ///
    /// On a one-rank machine the steps are [`sweep_steps`]: a mode range
    /// gets a shared partial iff the partial is no larger than what it is
    /// contracted from, so a shared step does fewer flops than the per-mode
    /// passes it replaces and streams a smaller operand. With `ranks > 1`
    /// every mode is its own pass under its own distributed plan (sharding a
    /// merged mode is not something the distributed algorithms do).
    ///
    /// ```
    /// use mttkrp_core::Problem;
    /// use mttkrp_exec::{MachineSpec, Planner};
    /// use std::sync::Arc;
    ///
    /// let planner = Planner::new(MachineSpec::shared(1, 1 << 16));
    /// let problem = Problem::cubical(4, 20, 16);
    /// let modes: Vec<_> = (0..4).map(|n| Arc::new(planner.plan(&problem, n))).collect();
    /// let sweep = planner.plan_sweep(&problem, &modes);
    /// assert_eq!(sweep.tensor_passes(), 2); // not 4: each half shares one
    /// assert!(sweep.flops() < sweep.per_mode_flops);
    /// assert!(sweep.words() < sweep.per_mode_words);
    /// println!("{sweep}");
    /// ```
    ///
    /// # Panics
    /// Panics if `per_mode` does not hold one plan per mode.
    pub fn plan_sweep(&self, problem: &Problem, per_mode: &[Arc<Plan>]) -> SweepPlan {
        let dims: Vec<usize> = problem.dims.iter().map(|&d| d as usize).collect();
        let (order, rank) = (dims.len(), problem.rank as usize);
        assert_eq!(per_mode.len(), order, "one plan per mode");
        let tree: Vec<TreeStep> = if self.machine().ranks > 1 {
            let own_pass = |lo| TreeStep {
                lo,
                hi: lo + 1,
                parent: None,
            };
            (0..order).map(own_pass).collect()
        } else {
            sweep_steps(&dims, rank)
        };

        let words_of = |t: TreeStep| (dims[t.lo..t.hi].iter().product::<usize>() * rank) as u64;
        let step = |i: usize| {
            let to: TreeStep = tree[i];
            let plan = match to.parent {
                Some(_) => None,
                None if to.is_leaf() => Some(Arc::clone(&per_mode[to.lo])),
                None => {
                    let (view, mode) = pass_view(&dims, to.lo, to.hi);
                    let view: Vec<u64> = view.iter().map(|&d| d as u64).collect();
                    Some(Arc::new(
                        self.plan(&Problem::new(&view, problem.rank), mode),
                    ))
                }
            };
            let words = match (&plan, to.parent) {
                (Some(plan), _) => plan.predicted_cost,
                (None, parent) => {
                    let from = tree[parent.expect("a step without a plan is a contraction")];
                    let dropped_modes = (from.hi - from.lo) - (to.hi - to.lo);
                    let factor_rows = words_of(from) / words_of(to) * (dropped_modes * rank) as u64;
                    (3 * words_of(from) + factor_rows) as f64
                }
            };
            SweepStep {
                tree: to,
                plan,
                partial_words: words_of(to),
                flops: step_flops(&dims, rank, &tree, i).total(),
                words,
            }
        };
        let steps = (0..tree.len()).map(step).collect();
        let per_mode_flops = (0..order)
            .map(|n| streamed_kernel_flops(&dims, rank, n))
            .map(|(muls, adds)| muls + adds)
            .sum();
        let per_mode_words = per_mode.iter().map(|p| p.predicted_cost).sum();
        SweepPlan {
            problem: problem.clone(),
            machine: self.machine().clone(),
            steps,
            per_mode_flops,
            per_mode_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_core::multi::mttkrp_all_modes_tree;
    use mttkrp_tensor::{DenseTensor, Matrix, Shape};

    /// `problem`'s sweep plan over its standalone mode plans.
    fn sweep_of(planner: &Planner, problem: &Problem) -> SweepPlan {
        let plan = |n| Arc::new(planner.plan(problem, n));
        planner.plan_sweep(problem, &(0..problem.order()).map(plan).collect::<Vec<_>>())
    }

    #[test]
    fn predicted_flops_are_the_flops_the_tree_runs() {
        for (dims, r) in [
            (&[20u64, 20, 20, 20][..], 16),
            (&[12, 10, 8], 3),
            (&[12, 10, 8], 9),
            (&[3, 4, 2, 3], 7),
            (&[2, 3, 2, 2, 2], 5),
            (&[9, 8], 3),
        ] {
            let problem = Problem::new(dims, r);
            let sweep = sweep_of(&Planner::new(MachineSpec::shared(1, 1 << 14)), &problem);
            let x = DenseTensor::random(problem.shape(), 3);
            let factors: Vec<Matrix> = (dims.iter())
                .map(|&d| Matrix::random(d as usize, r as usize, 4))
                .collect();
            let refs: Vec<&Matrix> = factors.iter().collect();
            let (_, run) = mttkrp_all_modes_tree(&x, &refs);
            assert_eq!(run.total(), sweep.flops(), "{sweep}");
            assert!(sweep.flops() <= sweep.per_mode_flops, "{sweep}");
        }
    }

    #[test]
    fn passes_follow_the_size_rule_and_the_machine() {
        let passes = |machine: MachineSpec, dims: &[u64], r: u64| {
            let sweep = sweep_of(&Planner::new(machine), &Problem::new(dims, r));
            assert_eq!(
                sweep.steps.iter().filter(|s| s.tree.is_leaf()).count(),
                dims.len()
            );
            (sweep.tensor_passes(), sweep.contractions())
        };
        let one_rank = || MachineSpec::shared(2, 1 << 14);
        assert_eq!(passes(one_rank(), &[20, 20, 20, 20], 16), (2, 4));
        // R = 400 is the product of the dropped extents: still no larger.
        assert_eq!(passes(one_rank(), &[20, 20, 20, 20], 400), (2, 4));
        assert_eq!(passes(one_rank(), &[20, 20, 20, 20], 401), (4, 0));
        // One side only: modes 0..2 drop 2 * 3 = 6 < 7 <= 3 * 4 = 12.
        assert_eq!(passes(one_rank(), &[3, 4, 2, 3], 7), (3, 2));
        // A half too large to share is halved again off the tensor.
        assert_eq!(passes(one_rank(), &[2, 3, 2, 2, 2], 5), (3, 4));
        assert_eq!(passes(one_rank(), &[9, 8], 3), (2, 0));
        assert_eq!(
            passes(MachineSpec::cluster(8, 1, 1 << 14), &[8, 8, 8, 8], 3),
            (4, 0)
        );
    }

    #[test]
    fn merged_passes_are_ordinary_plans_on_the_reshaped_problem() {
        let problem = Problem::new(&[6, 5, 4, 3], 2);
        let planner = Planner::new(MachineSpec::shared(1, 128));
        let sweep = sweep_of(&planner, &problem);
        let merged: Vec<&Plan> = (sweep.steps.iter())
            .filter(|s| !s.tree.is_leaf())
            .filter_map(|s| s.plan.as_deref())
            .collect();
        assert_eq!(merged.len(), 2);
        assert_eq!(
            (merged[0].problem.shape(), merged[0].mode),
            (Shape::new(&[30, 4, 3]), 0)
        );
        assert_eq!(
            (merged[1].problem.shape(), merged[1].mode),
            (Shape::new(&[6, 5, 12]), 2)
        );
        for plan in merged {
            let direct = planner.plan(&plan.problem, plan.mode);
            assert_eq!(plan.algorithm, direct.algorithm);
            assert_eq!(plan.predicted_cost, direct.predicted_cost);
        }
        let text = sweep.explain();
        assert!(
            text.contains("2 tensor pass(es) + 4 partial contraction(s)"),
            "{text}"
        );
        assert!(text.contains("30x4x3 view"), "{text}");
        assert!(text.contains("4 per-mode plans"), "{text}");
    }

    #[test]
    fn a_contraction_streams_its_parent_three_times_and_the_dropped_factor_rows() {
        // dims 6x5x4x3, R = 2: modes 0..2 share the partial Y_[0,2), of
        // 6 * 5 * 2 = 60 words. Mode 0's step contracts it to Y_[0,1), of
        // 6 * 2 = 12 words, dropping mode 1: per row of the parent one load
        // of it and a load and a store of the child's (3 * 60 = 180), and
        // mode 1's factor row once per dropped index, 60 / 12 = 5 indices of
        // 1 * 2 words (10). 180 + 10 = 190.
        let problem = Problem::new(&[6, 5, 4, 3], 2);
        let sweep = sweep_of(&Planner::new(MachineSpec::shared(1, 128)), &problem);
        let mode0 = (sweep.steps.iter())
            .find(|s| s.tree.is_leaf() && s.tree.lo == 0)
            .expect("mode 0 has a step");
        let from = sweep.steps[mode0.tree.parent.expect("mode 0 is contracted")].tree;
        assert_eq!((from.lo, from.hi), (0, 2));
        assert_eq!((mode0.partial_words, mode0.words), (12, 190.0));
    }
}
