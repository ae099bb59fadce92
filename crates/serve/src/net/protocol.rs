//! The serving protocol: the front door's frame table
//! ([`mttkrp_dist::transport::wire::Door`]) and the checks each kind
//! needs beyond its layout, which the listener and the client run on the
//! messages the table's one reader hands them.
//!
//! ## Frame table
//!
//! | frame | id | direction | payload |
//! |-------|----|-----------|---------|
//! | `HELLO` | `MAX` | both | `version: int` |
//! | `FIN` | `MAX - 2` | client → server | — |
//! | `MTTKRP_REQ` | `MAX - 6` | client → server | `mode: usize, ops: operands` |
//! | `FACTORIZE_REQ` | `MAX - 7` | client → server | `dims: dims, rank: count, max_sweeps: count, tol: finite, seed: int, ridge: finite, stream: flag, x: tensor(dims)` |
//! | `MTTKRP_RESP` | `MAX - 8` | server → client | `rows: count, cols: count, cache_hit: flag, b: matrix(rows, cols)` |
//! | `FACTORIZE_RESP` | `MAX - 9` | server → client | `converged: flag, cancelled: flag, sweeps: usize, fit: word, rank: count, dims: dims, weights: vec(rank), factors: factors(dims, rank)` |
//! | `SWEEP` | `MAX - 10` | server → client | `sweep: usize, fit: word, delta_fit: word` |
//! | `CANCEL` | `MAX - 11` | client → server | — |
//! | `ERROR` | `MAX - 12` | server → client | `message: text` |
//! | `RETRY_AFTER` | `MAX - 13` | server → client | `ms: int` |
//! | `STATS` | `MAX - 14` | client → server | `selector: int` |
//! | `STATS_REPLY` | `MAX - 14` | server → client | `jsonl: text` |
//! | `MTTKRP_KEPT` | `MAX - 21` | client → server | `mode: usize, rank: count, factors: factors(kept, rank)` |
//! | `MTTKRP_HELD` | `MAX - 22` | server → client | `rows: count, cols: count, cache_hit: flag, b: matrix(rows, cols)` |
//!
//! Retired ids: `MAX - 15` (a health probe), `MAX - 16` (a flight-recorder dump), `MAX - 18` (a metrics-history scrape), `MAX - 20` (a second shipped-tensor request).
//!
//! `operands` is `[order, dims.., rank]`, the tensor, then each factor
//! `dims[k] × rank`, all row-major; `dims` is `[order, dims..]`; `text` a
//! byte count and the bytes eight per word; `kept` the shape of the tensor
//! the connection keeps. A sweep's `NaN` delta marks the first sweep. Every
//! frame's `from` carries the client's request tag, echoed on replies. A
//! scrape is answered inline by the connection's reader, never admitted:
//! it can neither be shed nor displace work. The table's reader validates
//! every field and never panics; the checks a kind needs beyond its layout
//! are here, and a payload that fails either is a [`ProtocolError`].

use crate::request::{FactorizeRequest, MttkrpRequest, MttkrpResponse};
use mttkrp_als::{AlsConfig, AlsRun};
use mttkrp_dist::transport::wire::{Dir, Door, Frame, Operands, WireError, MAX_PAYLOAD_WORDS};
use mttkrp_exec::MachineSpec;
use mttkrp_tensor::{DenseTensor, KruskalTensor, Matrix};
use std::borrow::Cow;
use std::sync::Arc;

/// Version word both sides exchange in their hello frames. Bumped on any
/// incompatible payload change; a server answers only its own version, and
/// any other is a typed error and a hang-up, not a misparse.
pub const PROTOCOL_VERSION: u64 = 3;

/// Why a well-framed payload is not a valid protocol message.
#[derive(Debug, PartialEq)]
pub enum ProtocolError {
    /// The frame layer itself rejected the bytes.
    Wire(WireError),
    /// The payload does not decode as the kind its `comm_id` claims.
    Malformed(String),
    /// A frame kind that is not legal at this point of the exchange.
    Unexpected {
        /// What the receiver was prepared to handle.
        expected: &'static str,
        /// The offending frame's `comm_id`.
        got: u64,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Wire(e) => write!(f, "wire error: {e}"),
            ProtocolError::Malformed(why) => write!(f, "malformed payload: {why}"),
            ProtocolError::Unexpected { expected, got } => {
                write!(f, "unexpected frame kind {got:#x} (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<WireError> for ProtocolError {
    /// A payload the table's reader refused is this layer's `Malformed`, a
    /// kind it reads no row for is `Unexpected`; everything else is the
    /// frame layer's own failure.
    fn from(e: WireError) -> ProtocolError {
        match e {
            WireError::Malformed(why) => ProtocolError::Malformed(why),
            WireError::Kind(got) => ProtocolError::Unexpected {
                expected: "a frame kind of the front door's table",
                got,
            },
            e => ProtocolError::Wire(e),
        }
    }
}

/// A streamed per-sweep progress update, as a client sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepUpdate {
    /// 1-based sweep number.
    pub sweep: usize,
    /// Relative fit after this sweep.
    pub fit: f64,
    /// Fit change versus the previous sweep (`None` on the first).
    pub delta_fit: Option<f64>,
}

/// A served MTTKRP result, as a client sees it. The `output` bits equal
/// the in-process [`MttkrpResponse`]'s output exactly.
#[derive(Clone, Debug)]
pub struct RemoteMttkrp {
    /// The MTTKRP output matrix `B`.
    pub output: Matrix,
    /// Whether the server found the plan in its cache.
    pub cache_hit: bool,
}

/// A served factorization result, as a client sees it. Factor and weight
/// bits equal the in-process
/// [`FactorizeResponse`](crate::FactorizeResponse)'s model exactly.
#[derive(Clone, Debug)]
pub struct RemoteFactorize {
    /// The fitted CP model (unit-norm factor columns, weights in
    /// `weights`).
    pub model: KruskalTensor,
    /// Whether the fit tolerance was met within the sweep budget.
    pub converged: bool,
    /// Whether a cancel (frame or vanished client) ended the run early.
    pub cancelled: bool,
    /// Sweeps actually performed.
    pub sweeps: usize,
    /// Final relative fit.
    pub fit: f64,
}

/// The client-side factorization knobs that travel on the wire. The
/// machine and backend are deliberately *not* here: where a run executes
/// is the server's policy (its configured [`MachineSpec`]), exactly as an
/// MTTKRP request without an override is planned for the server's default
/// machine.
#[derive(Clone, Copy, Debug)]
pub struct FactorizeSpec {
    /// CP rank `R`.
    pub rank: usize,
    /// Sweep budget.
    pub max_sweeps: usize,
    /// Fit-delta stopping tolerance.
    pub tol: f64,
    /// Seed of the deterministic initial factors.
    pub seed: u64,
    /// Ridge safeguard for rank-deficient sweeps.
    pub ridge: f64,
}

impl FactorizeSpec {
    /// The on-wire spec of an [`AlsConfig`] (drops machine and backend —
    /// server policy).
    pub fn of(config: &AlsConfig) -> FactorizeSpec {
        FactorizeSpec {
            rank: config.rank,
            max_sweeps: config.max_sweeps,
            tol: config.tol,
            seed: config.seed,
            ridge: config.ridge,
        }
    }

    /// Materializes the spec into an [`AlsConfig`] planned for `machine`
    /// (the server's default) with the `Auto` backend.
    pub fn into_config(self, machine: &MachineSpec) -> AlsConfig {
        let mut config = AlsConfig::new(self.rank)
            .with_sweeps(self.max_sweeps)
            .with_tol(self.tol)
            .with_seed(self.seed)
            .with_machine(machine.clone());
        config.ridge = self.ridge;
        config
    }

    /// The request frame's message for `tensor`; `stream` asks for one
    /// `SWEEP` per sweep.
    pub fn request<'a>(&self, tensor: &'a DenseTensor, stream: bool) -> Door<'a> {
        Door::FactorizeReq {
            dims: Cow::Borrowed(tensor.shape().dims()),
            rank: self.rank,
            max_sweeps: self.max_sweeps,
            tol: self.tol,
            seed: self.seed,
            ridge: self.ridge,
            stream,
            x: Cow::Borrowed(tensor),
        }
    }
}

fn malformed(why: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(why.into())
}

/// An MTTKRP request's message: with a tensor a `MTTKRP_REQ`, without one a
/// `MTTKRP_KEPT` against the tensor the connection keeps.
pub fn mttkrp_message<'a>(
    tensor: Option<&'a DenseTensor>,
    factors: &'a [Matrix],
    mode: usize,
) -> Door<'a> {
    let factors = Cow::Borrowed(factors);
    match tensor {
        Some(x) => Door::MttkrpReq {
            mode,
            ops: Operands {
                x: Cow::Borrowed(x),
                factors,
            },
        },
        None => Door::MttkrpKept {
            mode,
            rank: factors.first().map_or(0, Matrix::cols),
            factors,
        },
    }
}

/// The `MTTKRP_REQ` check: the mode is one of the tensor's.
pub(crate) fn mttkrp_request(message: Door<'_>) -> Result<MttkrpRequest, ProtocolError> {
    let Door::MttkrpReq { mode, ops } = message else {
        return Err(unexpected("an mttkrp request", message.id()));
    };
    let order = ops.x.shape().order();
    if mode >= order {
        return Err(malformed(format!(
            "mode {mode} out of range for a {order}-mode tensor"
        )));
    }
    let (x, factors) = (ops.x.into_owned(), ops.factors.into_owned());
    Ok(MttkrpRequest::new(Arc::new(x), Arc::new(factors), mode))
}

/// The reply to an MTTKRP request, and whether it was `HELD`: only a
/// request that shipped its tensor may be answered so, the tensor now kept.
pub(crate) fn mttkrp_reply_of(
    reply: Door<'_>,
    shipped: bool,
) -> Result<(bool, RemoteMttkrp), ProtocolError> {
    let (held, cache_hit, b) = match reply {
        Door::MttkrpHeld { cache_hit, b, .. } if shipped => (true, cache_hit, b),
        Door::MttkrpResp { cache_hit, b, .. } => (false, cache_hit, b),
        other => return Err(unexpected("an mttkrp response", other.id())),
    };
    let output = b.into_owned();
    Ok((held, RemoteMttkrp { output, cache_hit }))
}

/// The refusal of a `MTTKRP_KEPT` on a connection that keeps no tensor.
pub(crate) fn nothing_kept() -> ProtocolError {
    malformed("mttkrp kept request, but no tensor is kept")
}

/// The `MTTKRP_KEPT` checks: a tensor is kept, and the mode is one of its
/// own (the factors were read against its shape).
pub(crate) fn kept_request(
    mode: usize,
    factors: Cow<'_, [Matrix]>,
    kept: Option<&Arc<DenseTensor>>,
) -> Result<MttkrpRequest, ProtocolError> {
    let tensor = kept.ok_or_else(nothing_kept)?;
    let dims = tensor.shape().dims();
    if mode >= dims.len() {
        return Err(malformed(format!(
            "mode {mode} is wrong for the kept {dims:?}"
        )));
    }
    let factors = Arc::new(factors.into_owned());
    Ok(MttkrpRequest::new(Arc::clone(tensor), factors, mode))
}

/// A reply of `kind` (`MTTKRP_RESP`, or `MTTKRP_HELD` for a request whose
/// tensor was kept), `B` borrowed from the response.
pub(crate) fn mttkrp_reply(held: bool, response: &MttkrpResponse) -> Door<'_> {
    let b = &response.report.output;
    let (rows, cols, cache_hit, b) = (b.rows(), b.cols(), response.cache_hit, Cow::Borrowed(b));
    if held {
        Door::MttkrpHeld {
            rows,
            cols,
            cache_hit,
            b,
        }
    } else {
        Door::MttkrpResp {
            rows,
            cols,
            cache_hit,
            b,
        }
    }
}

/// Encodes an MTTKRP request: `MTTKRP_REQ`'s row.
pub fn encode_mttkrp_request(
    tag: u32,
    tensor: &DenseTensor,
    factors: &[Matrix],
    mode: usize,
) -> Frame {
    mttkrp_message(Some(tensor), factors, mode).frame(tag)
}

/// Decodes an MTTKRP request into the server's request type.
pub fn decode_mttkrp_request(frame: &Frame) -> Result<MttkrpRequest, ProtocolError> {
    mttkrp_request(Door::decode(frame, Dir::Ask, &[])?)
}

/// Encodes an MTTKRP response: `MTTKRP_RESP`'s row.
pub fn encode_mttkrp_response(tag: u32, response: &MttkrpResponse) -> Frame {
    mttkrp_reply(false, response).frame(tag)
}

/// Decodes an MTTKRP response.
pub fn decode_mttkrp_response(frame: &Frame) -> Result<RemoteMttkrp, ProtocolError> {
    Ok(mttkrp_reply_of(Door::decode(frame, Dir::Answer, &[])?, false)?.1)
}

pub(crate) fn unexpected(expected: &'static str, got: u64) -> ProtocolError {
    ProtocolError::Unexpected { expected, got }
}

/// The `FACTORIZE_REQ` checks: every input the engine would panic on or
/// could not answer is refused — a negative tolerance or ridge, a fitted
/// model (rank columns per mode, plus weights) too large for one reply
/// frame, which is also what keeps a hostile `rank` from making the server
/// allocate unbounded factor matrices, and a zero or non-finite tensor.
/// Returns the request and whether it asked for streamed sweeps.
pub(crate) fn factorize_request(
    message: Door<'_>,
    machine: &MachineSpec,
) -> Result<(FactorizeRequest, bool), ProtocolError> {
    let Door::FactorizeReq {
        dims,
        rank,
        max_sweeps,
        tol,
        seed,
        ridge,
        stream,
        x,
    } = message
    else {
        return Err(unexpected("a factorize request", message.id()));
    };
    if tol < 0.0 || ridge < 0.0 {
        return Err(malformed("tol/ridge must be nonnegative"));
    }
    let response_words = rank
        .checked_mul(dims.iter().sum::<usize>().saturating_add(1))
        .and_then(|n| n.checked_add(dims.len().saturating_add(6)))
        .filter(|&n| n <= MAX_PAYLOAD_WORDS);
    if response_words.is_none() {
        return Err(malformed("fitted model would exceed the wire frame limit"));
    }
    let norm_sq: f64 = x.data().iter().map(|&v| v * v).sum();
    if !norm_sq.is_finite() {
        return Err(malformed(
            "tensor has non-finite values (or a norm overflow)",
        ));
    }
    if norm_sq == 0.0 {
        return Err(malformed("cannot fit a CP model to the zero tensor"));
    }
    let spec = FactorizeSpec {
        rank,
        max_sweeps,
        tol,
        seed,
        ridge,
    };
    let request = FactorizeRequest::new(Arc::new(x.into_owned()), spec.into_config(machine));
    Ok((request, stream))
}

/// The final factorization reply: the fitted model, borrowed from the run.
pub fn factorize_reply(run: &AlsRun) -> Door<'_> {
    let model = &run.model;
    Door::FactorizeResp {
        converged: run.converged,
        cancelled: run.cancelled,
        sweeps: run.sweeps(),
        fit: run.fit(),
        rank: model.weights.len(),
        dims: Cow::Owned(model.shape().dims().to_vec()),
        weights: Cow::Borrowed(&model.weights),
        factors: Cow::Borrowed(&model.factors),
    }
}

/// What a scrape asks for: the one word of a `STATS` request.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Scrape {
    /// The metrics registry as metrics JSONL ([`mttkrp_obs::metrics_to_jsonl`]).
    Metrics = 0,
    /// The flight ring as flight JSONL ([`mttkrp_obs::flight_to_jsonl`]).
    Flight = 1,
}

impl Scrape {
    /// The `STATS` check: a known selector.
    pub(crate) fn of(selector: u64) -> Result<Scrape, ProtocolError> {
        match selector {
            0 => Ok(Scrape::Metrics),
            1 => Ok(Scrape::Flight),
            other => Err(malformed(format!(
                "unknown scrape selector {other} (0 metrics, 1 flight)"
            ))),
        }
    }
}
