//! The executor front door: `execute(plan, tensor, factors, mode)`.

use crate::backend::{Backend, ExecReport};
use crate::machine::MachineSpec;
use crate::native::NativeBackend;
use crate::plan::Plan;
use crate::planner::Planner;
use crate::sim::SimBackend;
use mttkrp_core::Problem;
use mttkrp_tensor::{DenseTensor, Matrix};

/// Owns a backend and runs plans on it. Construct one explicitly
/// (`Executor::new`) to pin a backend — e.g. `mttkrp-dist`'s
/// `DistBackend`, which executes distributed plans on a real sharded
/// runtime — or let [`Executor::for_plan`] pick the default target for a
/// plan: native hardware for the sequential (single-rank) algorithms, the
/// network simulator for the distributed ones.
pub struct Executor {
    backend: Box<dyn Backend>,
}

impl Executor {
    /// An executor pinned to the given backend.
    pub(crate) fn new(backend: Box<dyn Backend>) -> Executor {
        Executor { backend }
    }

    /// The natural backend for `plan`: a [`NativeBackend`] sized to the
    /// plan's machine for sequential algorithms, a [`SimBackend`] for the
    /// distributed ones.
    pub fn for_plan(plan: &Plan) -> Executor {
        if plan.algorithm.is_sequential() {
            Executor::new(Box::new(NativeBackend::new(
                plan.machine.threads,
                plan.machine.fast_memory_words,
            )))
        } else {
            Executor::new(Box::new(SimBackend::new()))
        }
    }

    /// The short stable name of the backend this executor runs on.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Executes `plan` for output mode `mode`.
    ///
    /// # Panics
    /// Panics if `mode` disagrees with the mode the plan was made for, or
    /// if the operands do not match the plan's problem.
    pub fn execute(
        &self,
        plan: &Plan,
        x: &DenseTensor,
        factors: &[&Matrix],
        mode: usize,
    ) -> ExecReport {
        assert_eq!(
            mode, plan.mode,
            "plan was made for mode {}, asked to execute mode {mode}",
            plan.mode
        );
        let dims = x.shape().dims();
        let planned = &plan.problem;
        assert!(
            dims.len() == planned.dims.len()
                && dims.iter().zip(&planned.dims).all(|(&d, &p)| d as u64 == p)
                && factors[0].cols() as u64 == planned.rank,
            "operands do not match the planned problem: dims {dims:?} rank {} against {planned:?}",
            factors[0].cols()
        );
        crate::backend::execute_observed(self.backend.as_ref(), plan, x, factors)
    }
}

/// One-call front door: run `plan` on its natural backend (native hardware
/// for sequential plans, the word-exact simulator for distributed ones).
///
/// ```
/// use mttkrp_core::Problem;
/// use mttkrp_exec::{execute, MachineSpec, Planner};
/// use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
///
/// let shape = Shape::new(&[8, 8, 8]);
/// let x = DenseTensor::random(shape.clone(), 1);
/// let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(8, 4, k)).collect();
/// let refs: Vec<&Matrix> = factors.iter().collect();
///
/// let problem = Problem::from_shape(&shape, 4);
/// let plan = Planner::new(MachineSpec::shared(2, 1 << 12)).plan_executable(&problem, 0);
/// let report = execute(&plan, &x, &refs, 0);
/// assert_eq!(report.backend, "native");
/// assert!(report.output.max_abs_diff(&mttkrp_reference(&x, &refs, 0)) < 1e-12);
/// ```
pub fn execute(plan: &Plan, x: &DenseTensor, factors: &[&Matrix], mode: usize) -> ExecReport {
    Executor::for_plan(plan).execute(plan, x, factors, mode)
}

/// Plan-and-run convenience: plan for `machine`, then execute on the plan's
/// natural backend. Returns the plan alongside the report so callers can
/// show *why* the algorithm was chosen.
pub fn plan_and_execute(
    machine: &MachineSpec,
    x: &DenseTensor,
    factors: &[&Matrix],
    mode: usize,
) -> (Plan, ExecReport) {
    let problem = Problem::from_shape(x.shape(), factors[0].cols());
    let plan = Planner::new(machine.clone()).plan_executable(&problem, mode);
    let report = execute(&plan, x, factors, mode);
    (plan, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DEFAULT_CACHE_WORDS;
    use mttkrp_tensor::{mttkrp_reference, Shape};

    #[test]
    fn front_door_runs_native_for_sequential_plans() {
        let shape = Shape::new(&[6, 5, 4]);
        let x = DenseTensor::random(shape.clone(), 7);
        let factors: Vec<Matrix> = (0..3)
            .map(|k| Matrix::random(shape.dim(k), 3, k as u64))
            .collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        let machine = MachineSpec::shared(2, 1 << 10);
        let (plan, report) = plan_and_execute(&machine, &x, &refs, 0);
        assert!(plan.algorithm.is_sequential());
        assert_eq!(report.backend, "native");
        let oracle = mttkrp_reference(&x, &refs, 0);
        assert!(report.output.max_abs_diff(&oracle) < 1e-12);
    }

    #[test]
    fn front_door_runs_sim_for_parallel_plans() {
        let shape = Shape::new(&[4, 4, 4]);
        let x = DenseTensor::random(shape.clone(), 8);
        let factors: Vec<Matrix> = (0..3)
            .map(|k| Matrix::random(4, 2, 30 + k as u64))
            .collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        let machine = MachineSpec::cluster(4, 1, DEFAULT_CACHE_WORDS);
        let (plan, report) = plan_and_execute(&machine, &x, &refs, 2);
        assert!(!plan.algorithm.is_sequential());
        assert_eq!(report.backend, "sim");
        let oracle = mttkrp_reference(&x, &refs, 2);
        assert!(report.output.max_abs_diff(&oracle) < 1e-12);
    }

    fn planned_for(dims: &[u64], rank: u64) -> Plan {
        Planner::new(MachineSpec::shared(1, 64)).plan(&Problem::new(dims, rank), 0)
    }

    #[test]
    #[should_panic(expected = "operands do not match the planned problem")]
    fn shape_mismatch_is_rejected() {
        let x = DenseTensor::random(Shape::new(&[4, 5]), 9);
        let factors: Vec<Matrix> = [4, 5].iter().map(|&d| Matrix::random(d, 2, 1)).collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        let _ = execute(&planned_for(&[4, 4], 2), &x, &refs, 0);
    }

    #[test]
    #[should_panic(expected = "operands do not match the planned problem")]
    fn rank_mismatch_is_rejected() {
        let x = DenseTensor::random(Shape::new(&[4, 4]), 9);
        let factors: Vec<Matrix> = (0..2).map(|k| Matrix::random(4, 3, k)).collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        let _ = execute(&planned_for(&[4, 4], 2), &x, &refs, 0);
    }

    #[test]
    #[should_panic(expected = "plan was made for mode")]
    fn mode_mismatch_is_rejected() {
        let shape = Shape::new(&[4, 4]);
        let x = DenseTensor::random(shape, 9);
        let factors: Vec<Matrix> = (0..2).map(|k| Matrix::random(4, 2, k as u64)).collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = Problem::from_shape(x.shape(), 2);
        let plan = Planner::new(MachineSpec::shared(1, 64)).plan(&problem, 0);
        let _ = execute(&plan, &x, &refs, 1);
    }
}
