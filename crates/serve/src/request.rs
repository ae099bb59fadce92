//! Request and response types for the serving layer: single MTTKRPs
//! ([`MttkrpRequest`]) and whole CP-ALS factorizations
//! ([`FactorizeRequest`]).

use mttkrp_als::{AlsConfig, AlsRun};
use mttkrp_core::Problem;
use mttkrp_exec::{ExecReport, MachineSpec, Plan};
use mttkrp_obs::TraceContext;
use mttkrp_tensor::{validate_operands, DenseTensor, Matrix};
use std::sync::Arc;
use std::time::Duration;

/// One MTTKRP to compute: operands, output mode, and (optionally) a machine
/// override.
///
/// Operands are held behind `Arc` so a request is cheap to move across the
/// server's channels and so many requests can share the same tensor or
/// factor set without copying. Two requests with equal *shape* (dimensions,
/// rank, mode, machine) are the same planning problem — the server plans
/// it once and runs both on the same plan — even when their data differ.
#[derive(Clone, Debug)]
pub struct MttkrpRequest {
    /// The dense input tensor `X`.
    pub tensor: Arc<DenseTensor>,
    /// One `I_k x R` factor matrix per mode (`factors[mode]` is ignored, as
    /// everywhere in the workspace).
    pub factors: Arc<Vec<Matrix>>,
    /// Output mode `n`.
    pub mode: usize,
    /// Machine to plan for; `None` means the server's default machine.
    pub machine: Option<MachineSpec>,
    /// Remote trace context to adopt: set (from the frame's trace header)
    /// when a traced client submitted this over the wire, so the server's
    /// `request` span joins the client's trace instead of starting one.
    pub ctx: Option<TraceContext>,
}

impl MttkrpRequest {
    /// A request for the server's default machine.
    ///
    /// # Panics
    /// Panics if the operands are malformed (wrong factor count, mismatched
    /// row counts or ranks, mode out of range) — validation happens here,
    /// on the caller's thread, so the server's workers never see an
    /// inconsistent request.
    pub fn new(tensor: Arc<DenseTensor>, factors: Arc<Vec<Matrix>>, mode: usize) -> MttkrpRequest {
        let refs: Vec<&Matrix> = factors.iter().collect();
        validate_operands(&tensor, &refs, mode);
        MttkrpRequest {
            tensor,
            factors,
            mode,
            machine: None,
            ctx: None,
        }
    }

    /// The same request planned for an explicit machine instead of the
    /// server's default.
    pub fn with_machine(mut self, machine: MachineSpec) -> MttkrpRequest {
        self.machine = Some(machine);
        self
    }

    /// The same request carrying a remote trace context to adopt.
    pub fn with_context(mut self, ctx: Option<TraceContext>) -> MttkrpRequest {
        self.ctx = ctx;
        self
    }

    /// The planning-level [`Problem`] this request poses.
    pub fn problem(&self) -> Problem {
        Problem::from_shape(self.tensor.shape(), self.factors[0].cols())
    }
}

/// Per-request latency breakdown, measured by the server.
#[derive(Clone, Copy, Debug)]
pub struct RequestTiming {
    /// Time from submission until a worker started executing the request.
    pub queued: Duration,
    /// Time the kernel itself took on the backend.
    pub exec: Duration,
}

/// What the server returns for one request.
#[derive(Debug)]
pub struct MttkrpResponse {
    /// The backend's execution report (output matrix + observed cost).
    pub report: ExecReport,
    /// The shared plan the request ran under — "why this algorithm?" is
    /// answerable from the response alone via [`Plan::explain`].
    pub plan: Arc<Plan>,
    /// Whether the plan came out of the plan cache (`false` exactly when
    /// this request triggered a fresh candidate sweep).
    pub cache_hit: bool,
    /// Always 1: every request is its own unit of work. Kept because the
    /// wire's MTTKRP response carries it.
    pub batch_size: usize,
    /// Latency breakdown.
    pub timing: RequestTiming,
}

/// One whole CP-ALS factorization to compute: a tensor plus the
/// [`AlsConfig`] describing rank, stopping policy, machine, and backend.
///
/// Unlike [`MttkrpRequest`] (whose machine defaults to the server's),
/// a factorization's machine lives inside its `config` — the config *is*
/// the complete description of the run. The server executes it with
/// [`mttkrp_als::cp_als_with_cache`] against the server's shared
/// [`PlanCache`](mttkrp_exec::PlanCache), so repeated factorizations of
/// the same shape skip the planner's candidate sweep entirely.
#[derive(Clone, Debug)]
pub struct FactorizeRequest {
    /// The dense input tensor `X`.
    pub tensor: Arc<DenseTensor>,
    /// How to factorize it (rank, sweeps, tolerance, machine, backend).
    pub config: AlsConfig,
    /// Remote trace context to adopt (see [`MttkrpRequest::ctx`]).
    pub ctx: Option<TraceContext>,
}

impl FactorizeRequest {
    /// A factorization request.
    ///
    /// # Panics
    /// Panics if the tensor has fewer than two modes, contains non-finite
    /// values, or is identically zero (CP-ALS cannot fit the zero tensor) —
    /// the engine's own [`mttkrp_als::validate_input`] runs here, on the
    /// caller's thread, so the server's workers never see a request that
    /// would panic mid-run.
    pub fn new(tensor: Arc<DenseTensor>, config: AlsConfig) -> FactorizeRequest {
        mttkrp_als::validate_input(&tensor);
        FactorizeRequest {
            tensor,
            config,
            ctx: None,
        }
    }

    /// The same request carrying a remote trace context to adopt.
    pub fn with_context(mut self, ctx: Option<TraceContext>) -> FactorizeRequest {
        self.ctx = ctx;
        self
    }

    /// The planning-level [`Problem`] each of this factorization's
    /// per-mode MTTKRPs poses.
    pub fn problem(&self) -> Problem {
        Problem::from_shape(self.tensor.shape(), self.config.rank)
    }
}

/// What the server returns for one factorization request.
#[derive(Debug)]
pub struct FactorizeResponse {
    /// The full CP-ALS run: fitted model, per-sweep trace, per-mode plans,
    /// and the [`AlsRun::explain`] report.
    pub run: AlsRun,
    /// Latency breakdown (`exec` covers the whole factorization).
    pub timing: RequestTiming,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_tensor::Shape;

    fn operands(dims: &[usize], r: usize) -> (Arc<DenseTensor>, Arc<Vec<Matrix>>) {
        let shape = Shape::new(dims);
        let x = Arc::new(DenseTensor::random(shape, 3));
        let factors = Arc::new(
            dims.iter()
                .enumerate()
                .map(|(k, &d)| Matrix::random(d, r, k as u64))
                .collect::<Vec<_>>(),
        );
        (x, factors)
    }

    #[test]
    fn problem_reflects_operands() {
        let (x, f) = operands(&[4, 5, 6], 3);
        let req = MttkrpRequest::new(x, f, 1);
        assert_eq!(req.problem(), Problem::new(&[4, 5, 6], 3));
        assert!(req.machine.is_none());
    }

    #[test]
    #[should_panic]
    fn malformed_operands_rejected_at_construction() {
        let (x, _) = operands(&[4, 5, 6], 3);
        let (_, wrong) = operands(&[4, 5], 3);
        let _ = MttkrpRequest::new(x, wrong, 0);
    }

    #[test]
    fn factorize_problem_reflects_config_rank() {
        let (x, _) = operands(&[4, 5, 6], 3);
        let req = FactorizeRequest::new(x, AlsConfig::new(2));
        assert_eq!(req.problem(), Problem::new(&[4, 5, 6], 2));
    }

    #[test]
    #[should_panic(expected = "zero tensor")]
    fn factorize_rejects_the_zero_tensor() {
        let x = Arc::new(DenseTensor::zeros(Shape::new(&[3, 3, 3])));
        let _ = FactorizeRequest::new(x, AlsConfig::new(1));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn factorize_rejects_non_finite_tensors_on_the_caller_thread() {
        // A NaN would otherwise pass the zero-check (NaN != 0.0 is true)
        // and panic a server *worker* sweeps later, poisoning shutdown.
        let mut x = DenseTensor::random(Shape::new(&[3, 3, 3]), 1);
        x.data_mut()[0] = f64::NAN;
        let _ = FactorizeRequest::new(Arc::new(x), AlsConfig::new(1));
    }
}
