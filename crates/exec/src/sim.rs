//! The simulator backend: replays a plan on the strict machine-model
//! simulators (memsim for the sequential algorithms, netsim for the
//! parallel ones) and reports *exact* word counts — the quantities the
//! paper's lower bounds govern.

use crate::backend::{Backend, ExecCost, ExecReport};
use crate::plan::{Algorithm, Plan};
use mttkrp_core::{par, seq};
use mttkrp_tensor::{DenseTensor, Matrix};
use std::time::Instant;

/// Executes plans on the workspace's word-exact simulators. Slower than
/// hardware by design — every load, store, send, and receive is counted.
#[derive(Clone, Debug, Default)]
pub struct SimBackend;

impl SimBackend {
    /// A simulator backend (stateless; all state lives in the plan).
    pub fn new() -> SimBackend {
        SimBackend
    }
}

fn seq_report(run: seq::SeqRun, start: Instant) -> ExecReport {
    let cost = ExecCost::SeqIo {
        loads: run.stats.loads,
        stores: run.stats.stores,
        peak_fast: run.peak_fast,
    };
    ExecReport::finish(run.output, "sim", cost, start)
}

fn par_report(run: par::ParRun, start: Instant) -> ExecReport {
    let cost = ExecCost::ParComm {
        max_recv_words: run.max_recv_words(),
        max_sent_words: run.max_sent_words(),
        total_words: run.summary.total_words,
        ranks: run.stats.len(),
    };
    ExecReport::finish(run.output, "sim", cost, start)
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn execute(&self, plan: &Plan, x: &DenseTensor, factors: &[&Matrix]) -> ExecReport {
        let n = plan.mode;
        let start = Instant::now();
        match &plan.algorithm {
            Algorithm::SeqUnblocked { memory } => {
                seq_report(seq::mttkrp_unblocked(x, factors, n, *memory), start)
            }
            Algorithm::SeqBlocked { memory, block } => {
                seq_report(seq::mttkrp_blocked(x, factors, n, *memory, *block), start)
            }
            Algorithm::SeqMatmul { memory } => seq_report(
                seq::mttkrp_seq_matmul(x, factors, n, *memory).into_seq_run(),
                start,
            ),
            Algorithm::ParStationary { grid } => {
                par_report(par::mttkrp_stationary(x, factors, n, grid), start)
            }
            Algorithm::ParGeneral { p0, grid } => {
                par_report(par::mttkrp_general(x, factors, n, *p0, grid), start)
            }
            Algorithm::ParMatmul { procs } => {
                par_report(par::mttkrp_par_matmul(x, factors, n, *procs), start)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineSpec, DEFAULT_CACHE_WORDS};
    use crate::planner::Planner;
    use mttkrp_core::Problem;
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 90 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn sim_executes_sequential_plan_exactly() {
        let (x, factors) = setup(&[8, 8, 8], 4, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = Problem::from_shape(x.shape(), 4);
        let plan = Planner::new(MachineSpec::shared(1, 256)).plan(&problem, 0);
        let report = SimBackend::new().execute(&plan, &x, &refs);
        let oracle = mttkrp_reference(&x, &refs, 0);
        assert!(report.output.max_abs_diff(&oracle) < 1e-12);
        match report.cost {
            ExecCost::SeqIo { loads, stores, .. } => assert!(loads > 0 && stores > 0),
            other => panic!("expected SeqIo cost, got {other:?}"),
        }
    }

    #[test]
    fn sim_executes_parallel_plan_exactly() {
        let (x, factors) = setup(&[8, 8, 8], 4, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = Problem::from_shape(x.shape(), 4);
        let plan = Planner::new(MachineSpec::cluster(8, 1, DEFAULT_CACHE_WORDS))
            .plan_executable(&problem, 1);
        let report = SimBackend::new().execute(&plan, &x, &refs);
        let oracle = mttkrp_reference(&x, &refs, 1);
        assert!(report.output.max_abs_diff(&oracle) < 1e-12);
        match report.cost {
            ExecCost::ParComm { ranks, .. } => assert_eq!(ranks, 8),
            other => panic!("expected ParComm cost, got {other:?}"),
        }
    }
}
