//! Payload encodings of the serving protocol: how requests, responses,
//! streamed sweeps, errors, and retry-after signals map onto
//! [`mod@mttkrp_dist::transport::wire`] frames.
//!
//! ## Frame table
//!
//! | frame kind            | `comm_id`             | payload words |
//! |-----------------------|-----------------------|---------------|
//! | hello (both ways)     | [`wire::CTRL_HELLO`]  | `[version]` |
//! | MTTKRP request        | [`wire::CTRL_MTTKRP_REQ`] | `[mode, order, dims.., rank, X.., A0.., A1.., ..]` |
//! | MTTKRP response       | [`wire::CTRL_MTTKRP_RESP`] | `[rows, cols, cache_hit, batch_size, B..]` |
//! | MTTKRP keep (v2)      | [`wire::CTRL_MTTKRP_KEEP`] | as a request; the connection keeps `X` |
//! | MTTKRP kept (v2)      | [`wire::CTRL_MTTKRP_KEPT`] | `[mode, rank, A0.., A1.., ..]` against the kept `X` |
//! | MTTKRP held (v2)      | [`wire::CTRL_MTTKRP_HELD`] | as a response, to a keep whose `X` was kept |
//! | Factorize request     | [`wire::CTRL_FACTORIZE_REQ`] | `[order, dims.., rank, max_sweeps, tol, seed, ridge, stream, X..]` |
//! | streamed sweep        | [`wire::CTRL_SWEEP`]  | `[sweep, fit, delta_fit or NaN]` |
//! | Factorize response    | [`wire::CTRL_FACTORIZE_RESP`] | `[converged, cancelled, sweeps, fit, rank, order, dims.., λ.., A0.., ..]` |
//! | cancel                | [`wire::CTRL_CANCEL`] | `[]` |
//! | typed error           | [`wire::CTRL_ERROR`]  | [`wire::encode_text`] words |
//! | retry-after           | [`wire::CTRL_RETRY_AFTER`] | `[retry_after_ms]` |
//! | stats scrape          | [`wire::CTRL_STATS`]  | request `[]`; reply [`wire::encode_text`] of metrics JSONL |
//! | health probe          | [`wire::CTRL_HEALTH`] | request `[]`; reply `[uptime_ms, open_connections, in_flight, draining, admission_cap]` |
//! | flight-recorder dump  | [`wire::CTRL_TRACE_DUMP`] | request `[]`; reply [`wire::encode_text`] of flight JSONL |
//!
//! A version-2 connection keeps the tensor of the last `KEEP` its reader
//! decoded, in stream order; a version-1 connection knows none of the
//! three `(v2)` kinds and is served as before.
//!
//! The **ops-plane** kinds (stats, health, trace dump) are answered
//! inline by the connection's reader without taking an admission permit:
//! a scrape can never be shed, and a scrape can never displace work.
//!
//! Every frame's `from` field carries the client-chosen **request tag**
//! (echoed verbatim on replies), which is what lets one connection keep
//! several requests in flight and match streamed sweeps to the right run.
//!
//! All counts and dimensions travel as exact small integers in `f64`
//! (word counts here are far below 2^53); tensor and factor data travel
//! as raw `f64` words, bit-preserved end to end by the codec's
//! `to_le_bytes`/`from_le_bytes`. Decoders trust nothing: every length is
//! cross-checked against the actual word count, every integer is
//! validated as finite, integral, and nonnegative, and malformed payloads come back
//! as [`ProtocolError`] — never a panic on the server.
//!
//! ## Two ways in, one layout
//!
//! The request and response kinds that carry operands come in two forms
//! that share their head builder and their validating decoder. `encode_*` /
//! `decode_*` work on whole [`Frame`]s (tests, replays, raw-socket tools).
//! `write_*` / `read_*` are what the live socket path uses: the writer
//! streams `[head, X, factors..]` from the caller's own slices, and the
//! reader — handed the [`FrameHeader`] the listener has just parsed —
//! validates the head off the stream, checks that the words the header
//! promised are exactly what that shape needs *before allocating any
//! operand*, then reads tensor and factors into the buffers the request
//! owns. The bytes on the wire are identical either way.

use crate::request::{FactorizeRequest, MttkrpRequest, MttkrpResponse};
use mttkrp_als::{AlsConfig, AlsSweep};
use mttkrp_dist::transport::wire::{self, Frame, FrameHeader, Payload, WireError};
use mttkrp_exec::MachineSpec;
use mttkrp_obs::TraceContext;
use mttkrp_tensor::{DenseTensor, KruskalTensor, Matrix, Shape};
use std::io::{Read, Write};
use std::sync::Arc;

/// Version word both sides exchange in their hello frames. Bumped on any
/// incompatible payload change; a mismatch is a typed error, not a
/// misparse. Version 2 adds the kept tensor (`KEEP`, `KEPT`, `HELD`); a
/// server answers a version-1 hello in kind and serves that connection as
/// version 1.
pub const PROTOCOL_VERSION: u64 = 2;

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
    /// A payload the cursor refused is this layer's `Malformed`; everything
    /// else is the frame layer's own failure.
    fn from(e: WireError) -> ProtocolError {
        match e {
            WireError::Malformed(why) => ProtocolError::Malformed(why),
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
}

/// A frame whose payload is the concatenation of `parts` (the `&Frame` side
/// of each message's one layout function).
fn frame_of(tag: u32, kind: u64, parts: &[&[f64]]) -> Frame {
    Frame::data(tag as usize, kind, parts.concat())
}

/// Decodes a request straight off the stream behind `header`: `decode` sees
/// the same cursor a `&Frame` decoder does, except that the operands it takes
/// are read into the buffers that will own them. A payload `decode` refuses
/// is then drained (bounded by the validated header, nothing allocated for
/// it), so on every error but [`WireError::Io`] the stream is at the next
/// frame and the connection can answer with a typed error and carry on.
fn read_streamed<T>(
    r: &mut dyn Read,
    header: &FrameHeader,
    kind: u64,
    name: &'static str,
    decode: impl FnOnce(&mut Payload<'_>) -> Result<T, ProtocolError>,
) -> Result<T, ProtocolError> {
    let mut payload = Payload::streaming(r, header);
    let decoded = expect_kind_of(header.comm_id, header.poison, kind, name)
        .and_then(|()| decode(&mut payload));
    if !matches!(decoded, Err(ProtocolError::Wire(WireError::Io(_)))) {
        payload.skip_rest()?;
    }
    decoded
}

// ---------------------------------------------------------------------------
// Hello / cancel / error / retry-after
// ---------------------------------------------------------------------------

/// The hello either side opens with: `[PROTOCOL_VERSION]`.
pub fn encode_hello() -> Frame {
    Frame::data(0, wire::CTRL_HELLO, vec![PROTOCOL_VERSION as f64])
}

/// Decodes a hello; returns the peer's protocol version.
pub fn decode_hello(frame: &Frame) -> Result<u64, ProtocolError> {
    expect_kind(frame, wire::CTRL_HELLO, "hello")?;
    let mut c = Payload::of(&frame.payload);
    let version = c.take_int("protocol version")?;
    c.finish("hello")?;
    Ok(version)
}

/// A cancel for the in-flight request tagged `tag`.
pub fn encode_cancel(tag: u32) -> Frame {
    Frame::data(tag as usize, wire::CTRL_CANCEL, Vec::new())
}

/// A typed error reply for `tag`.
pub fn encode_error(tag: u32, message: &str) -> Frame {
    Frame::data(tag as usize, wire::CTRL_ERROR, wire::encode_text(message))
}

/// Decodes a typed error's message.
pub fn decode_error(frame: &Frame) -> Result<String, ProtocolError> {
    expect_kind(frame, wire::CTRL_ERROR, "error")?;
    Ok(wire::decode_text(&frame.payload)?)
}

/// A load-shed reply for `tag`: try again in `retry_after_ms`.
pub fn encode_retry_after(tag: u32, retry_after_ms: u64) -> Frame {
    Frame::data(
        tag as usize,
        wire::CTRL_RETRY_AFTER,
        vec![retry_after_ms as f64],
    )
}

/// Decodes a retry-after's advisory delay, in milliseconds.
pub fn decode_retry_after(frame: &Frame) -> Result<u64, ProtocolError> {
    expect_kind(frame, wire::CTRL_RETRY_AFTER, "retry-after")?;
    let mut c = Payload::of(&frame.payload);
    let ms = c.take_int("retry_after_ms")?;
    c.finish("retry-after")?;
    Ok(ms)
}

// ---------------------------------------------------------------------------
// Ops plane: stats / health / trace dump
// ---------------------------------------------------------------------------

/// A point-in-time liveness snapshot, as a `HEALTH` reply carries it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Milliseconds since the listener started.
    pub uptime_ms: u64,
    /// Currently open connections.
    pub open_connections: u64,
    /// Admitted requests not yet answered.
    pub in_flight: u64,
    /// Whether the server is draining (shedding all new work).
    pub draining: bool,
    /// The admission cap `in_flight` is bounded by.
    pub admission_cap: u64,
}

/// A stats scrape request: `[]` under [`wire::CTRL_STATS`].
pub(crate) fn encode_stats_request(tag: u32) -> Frame {
    Frame::data(tag as usize, wire::CTRL_STATS, Vec::new())
}

/// A stats reply: the registry snapshot as metrics JSONL
/// ([`mttkrp_obs::metrics_to_jsonl`]) in [`wire::encode_text`] words.
pub(crate) fn encode_stats_response(tag: u32, metrics_jsonl: &str) -> Frame {
    Frame::data(
        tag as usize,
        wire::CTRL_STATS,
        wire::encode_text(metrics_jsonl),
    )
}

/// Decodes a stats reply back into metric snapshots.
pub(crate) fn decode_stats_response(
    frame: &Frame,
) -> Result<Vec<mttkrp_obs::MetricSnapshot>, ProtocolError> {
    expect_kind(frame, wire::CTRL_STATS, "stats response")?;
    let text = wire::decode_text(&frame.payload)?;
    let trace = mttkrp_obs::parse_trace(&text)
        .map_err(|e| ProtocolError::Malformed(format!("stats payload: {e}")))?;
    Ok(trace.metrics)
}

/// A health probe request: `[]` under [`wire::CTRL_HEALTH`].
pub(crate) fn encode_health_request(tag: u32) -> Frame {
    Frame::data(tag as usize, wire::CTRL_HEALTH, Vec::new())
}

/// A health reply:
/// `[uptime_ms, open_connections, in_flight, draining, admission_cap]`.
pub(crate) fn encode_health_response(tag: u32, health: &HealthSnapshot) -> Frame {
    Frame::data(
        tag as usize,
        wire::CTRL_HEALTH,
        vec![
            health.uptime_ms as f64,
            health.open_connections as f64,
            health.in_flight as f64,
            health.draining as u8 as f64,
            health.admission_cap as f64,
        ],
    )
}

/// Decodes a health reply.
pub(crate) fn decode_health_response(frame: &Frame) -> Result<HealthSnapshot, ProtocolError> {
    expect_kind(frame, wire::CTRL_HEALTH, "health response")?;
    let mut c = Payload::of(&frame.payload);
    let health = HealthSnapshot {
        uptime_ms: c.take_int("uptime_ms")?,
        open_connections: c.take_int("open_connections")?,
        in_flight: c.take_int("in_flight")?,
        draining: c.take_bool("draining")?,
        admission_cap: c.take_int("admission_cap")?,
    };
    c.finish("health response")?;
    Ok(health)
}

/// A flight-recorder dump request: `[]` under [`wire::CTRL_TRACE_DUMP`].
pub(crate) fn encode_trace_dump_request(tag: u32) -> Frame {
    Frame::data(tag as usize, wire::CTRL_TRACE_DUMP, Vec::new())
}

/// A flight dump reply: the ring as flight JSONL
/// ([`mttkrp_obs::flight_to_jsonl`]) in [`wire::encode_text`] words.
pub(crate) fn encode_trace_dump_response(tag: u32, flight_jsonl: &str) -> Frame {
    Frame::data(
        tag as usize,
        wire::CTRL_TRACE_DUMP,
        wire::encode_text(flight_jsonl),
    )
}

/// Decodes a flight dump reply back into flight records.
pub(crate) fn decode_trace_dump_response(
    frame: &Frame,
) -> Result<Vec<mttkrp_obs::FlightRecord>, ProtocolError> {
    expect_kind(frame, wire::CTRL_TRACE_DUMP, "trace dump response")?;
    let text = wire::decode_text(&frame.payload)?;
    mttkrp_obs::flight_from_jsonl(&text)
        .map_err(|e| ProtocolError::Malformed(format!("flight payload: {e}")))
}

fn expect_kind_of(
    comm_id: u64,
    poison: bool,
    kind: u64,
    name: &'static str,
) -> Result<(), ProtocolError> {
    if comm_id == kind && !poison {
        Ok(())
    } else {
        Err(ProtocolError::Unexpected {
            expected: name,
            got: comm_id,
        })
    }
}

fn expect_kind(frame: &Frame, kind: u64, name: &'static str) -> Result<(), ProtocolError> {
    expect_kind_of(frame.comm_id, frame.poison, kind, name)
}

// ---------------------------------------------------------------------------
// MTTKRP request / response
// ---------------------------------------------------------------------------
// Each message has one layout function (`*_parts`: a small head built here,
// then the operands borrowed where they lie) and one decoder over a
// `Payload` cursor. The `&Frame` codecs and the live socket path are both
// callers of that pair: `encode_*` concatenates the parts into a frame where
// `write_*` streams them, and `decode_*` walks a decoded payload where
// `read_*` walks the stream.

/// An MTTKRP request's payload as borrowed parts: `[mode, order, dims..,
/// rank]`, `X`, then one part per factor; with no tensor (a `KEPT`),
/// `[mode, rank]` and the factors.
fn mttkrp_request_parts<T>(
    tensor: Option<&DenseTensor>,
    factors: &[Matrix],
    mode: usize,
    then: impl FnOnce(&[&[f64]]) -> T,
) -> T {
    let rank = factors[0].cols();
    let mut head = vec![mode as f64];
    match tensor {
        Some(x) => head.extend(wire::operand_head(x.shape().dims(), rank)),
        None => head.push(rank as f64),
    }
    let mut parts = vec![&head[..]];
    parts.extend(tensor.map(DenseTensor::data));
    parts.extend(factors.iter().map(Matrix::data));
    then(&parts)
}

/// Encodes an MTTKRP request:
/// `[mode, order, dims.., rank, X (row-major).., factors (row-major, per mode)..]`.
pub fn encode_mttkrp_request(
    tag: u32,
    tensor: &DenseTensor,
    factors: &[Matrix],
    mode: usize,
) -> Frame {
    mttkrp_request_parts(Some(tensor), factors, mode, |parts| {
        frame_of(tag, wire::CTRL_MTTKRP_REQ, parts)
    })
}

/// Encodes an MTTKRP request against the connection's kept tensor:
/// `[mode, rank, factors (row-major, per mode)..]`.
pub fn encode_mttkrp_kept(tag: u32, factors: &[Matrix], mode: usize) -> Frame {
    mttkrp_request_parts(None, factors, mode, |parts| {
        frame_of(tag, wire::CTRL_MTTKRP_KEPT, parts)
    })
}

/// Streams a `KEEP` of `tensor` (the [`encode_mttkrp_request`] payload), or
/// with `None` the [`encode_mttkrp_kept`] frame, from the caller's operands
/// with `trace` attached; no payload is built.
pub(crate) fn write_mttkrp_request(
    w: &mut impl Write,
    tag: u32,
    trace: Option<TraceContext>,
    tensor: Option<&DenseTensor>,
    factors: &[Matrix],
    mode: usize,
) -> std::io::Result<usize> {
    let kind = match tensor {
        Some(_) => wire::CTRL_MTTKRP_KEEP,
        None => wire::CTRL_MTTKRP_KEPT,
    };
    mttkrp_request_parts(tensor, factors, mode, |parts| {
        wire::write_parts(w, tag, kind, trace, parts)
    })
}

/// The one MTTKRP request decoder: mode, then the operand head
/// ([`Payload::take_operand_head`]: order, dims, rank, and the exact word
/// count that shape needs), all validated before an operand is allocated.
fn take_mttkrp_request(c: &mut Payload<'_>) -> Result<MttkrpRequest, ProtocolError> {
    let mode = c.take_usize("mode")?;
    let head = c.take_operand_head()?;
    if mode >= head.dims().len() {
        return Err(ProtocolError::Malformed(format!(
            "mode {mode} out of range for a {}-mode tensor",
            head.dims().len()
        )));
    }
    let (tensor, factors) = c.take_operands(&head)?;
    Ok(MttkrpRequest::new(
        Arc::new(tensor),
        Arc::new(factors),
        mode,
    ))
}

/// The kept-tensor request decoder: a tensor must be kept, then mode below
/// its order, rank at least 1 and exactly `Σ dims[k] × rank` words left, all
/// checked before a factor is allocated.
fn take_mttkrp_kept(
    c: &mut Payload<'_>,
    kept: Option<&Arc<DenseTensor>>,
) -> Result<MttkrpRequest, ProtocolError> {
    let nothing = || ProtocolError::Malformed("mttkrp kept request, but no tensor is kept".into());
    let tensor = kept.ok_or_else(nothing)?;
    let dims = tensor.shape().dims();
    let (mode, rank) = (c.take_usize("mode")?, c.take_usize("rank")?);
    if mode >= dims.len() || rank == 0 {
        let why = format!("mode {mode} or rank {rank} is wrong for the kept {dims:?}");
        return Err(ProtocolError::Malformed(why));
    }
    let needs = (dims.iter()).try_fold(0usize, |sum, &d| sum.checked_add(d.checked_mul(rank)?));
    c.expect_remaining(needs, "mttkrp kept request")?;
    let factors = Arc::new(c.take_factors(dims, rank)?);
    Ok(MttkrpRequest::new(Arc::clone(tensor), factors, mode))
}

/// Decodes an MTTKRP request into the server's request type. Structural
/// validation (dims/rank/mode consistency, exact payload length) happens
/// here, so construction cannot panic a server thread.
pub fn decode_mttkrp_request(frame: &Frame) -> Result<MttkrpRequest, ProtocolError> {
    expect_kind(frame, wire::CTRL_MTTKRP_REQ, "mttkrp request")?;
    take_mttkrp_request(&mut Payload::of(&frame.payload))
}

/// [`decode_mttkrp_request`] off the stream behind a `REQ`, `KEEP` or
/// `KEPT` header [`wire::read_header`] has parsed (a `KEPT` against the
/// `kept` tensor): the same validation, then the operands read into the
/// buffers the request owns. On any error but [`WireError::Io`] the rest of
/// the frame has been drained and the stream is in sync.
pub(crate) fn read_mttkrp_request(
    r: &mut dyn Read,
    header: &FrameHeader,
    kept: Option<&Arc<DenseTensor>>,
) -> Result<MttkrpRequest, ProtocolError> {
    let kind = header.comm_id;
    read_streamed(r, header, kind, "mttkrp request", |c| match kind {
        wire::CTRL_MTTKRP_KEPT => take_mttkrp_kept(c, kept),
        _ => take_mttkrp_request(c),
    })
}

/// An MTTKRP response's payload as borrowed parts:
/// `[rows, cols, cache_hit, batch_size]`, then `B`.
fn mttkrp_response_parts<T>(response: &MttkrpResponse, then: impl FnOnce(&[&[f64]]) -> T) -> T {
    let b = &response.report.output;
    let head = [
        b.rows() as f64,
        b.cols() as f64,
        response.cache_hit as u8 as f64,
        response.batch_size as f64,
    ];
    then(&[&head, b.data()])
}

/// Encodes an MTTKRP response: `[rows, cols, cache_hit, batch_size, B..]`.
pub fn encode_mttkrp_response(tag: u32, response: &MttkrpResponse) -> Frame {
    mttkrp_response_parts(response, |parts| {
        frame_of(tag, wire::CTRL_MTTKRP_RESP, parts)
    })
}

/// Writes the frame [`encode_mttkrp_response`] describes under `kind`
/// (`RESP`, or `HELD` for a `KEEP` whose tensor was kept) with `B` borrowed
/// from the response. Returns the bytes written.
pub(crate) fn write_mttkrp_response(
    w: &mut impl Write,
    tag: u32,
    kind: u64,
    response: &MttkrpResponse,
) -> std::io::Result<usize> {
    mttkrp_response_parts(response, |parts| {
        wire::write_parts(w, tag, kind, None, parts)
    })
}

/// Decodes an MTTKRP response.
pub fn decode_mttkrp_response(frame: &Frame) -> Result<RemoteMttkrp, ProtocolError> {
    decode_mttkrp_reply(frame.clone(), wire::CTRL_MTTKRP_RESP)
}

/// Decodes an MTTKRP response of `kind` (`RESP` or `HELD`, one payload); the
/// frame's payload becomes the output's storage, not copied again.
pub(crate) fn decode_mttkrp_reply(frame: Frame, kind: u64) -> Result<RemoteMttkrp, ProtocolError> {
    expect_kind(&frame, kind, "mttkrp response")?;
    let mut c = Payload::of(&frame.payload);
    let rows = c.take_usize("rows")?;
    let cols = c.take_usize("cols")?;
    let cache_hit = c.take_bool("cache_hit")?;
    // Always 1 (every request is its own unit of work): validated, not kept.
    c.take_usize("batch_size")?;
    c.expect_remaining(rows.checked_mul(cols), "mttkrp response")?;
    let mut data = frame.payload;
    data.drain(..4);
    Ok(RemoteMttkrp {
        output: Matrix::from_rows_vec(rows, cols, data),
        cache_hit,
    })
}

// ---------------------------------------------------------------------------
// Factorize request / sweep / response
// ---------------------------------------------------------------------------

/// A factorization request's payload as borrowed parts:
/// `[order, dims.., rank, max_sweeps, tol, seed, ridge, stream]`, then `X`.
fn factorize_request_parts<T>(
    tensor: &DenseTensor,
    spec: &FactorizeSpec,
    stream: bool,
    then: impl FnOnce(&[&[f64]]) -> T,
) -> T {
    let mut head = wire::operand_head(tensor.shape().dims(), spec.rank);
    head.extend([
        spec.max_sweeps as f64,
        spec.tol,
        spec.seed as f64,
        spec.ridge,
        stream as u8 as f64,
    ]);
    then(&[&head, tensor.data()])
}

/// Encodes a factorization request:
/// `[order, dims.., rank, max_sweeps, tol, seed, ridge, stream, X..]`.
/// `stream` asks the server to send one [`SweepUpdate`] frame per sweep.
pub fn encode_factorize_request(
    tag: u32,
    tensor: &DenseTensor,
    spec: &FactorizeSpec,
    stream: bool,
) -> Frame {
    factorize_request_parts(tensor, spec, stream, |parts| {
        frame_of(tag, wire::CTRL_FACTORIZE_REQ, parts)
    })
}

/// Writes the frame [`encode_factorize_request`] describes (with `trace`
/// attached) with `X` borrowed from the caller's tensor.
pub(crate) fn write_factorize_request(
    w: &mut impl Write,
    tag: u32,
    trace: Option<TraceContext>,
    tensor: &DenseTensor,
    spec: &FactorizeSpec,
    stream: bool,
) -> std::io::Result<usize> {
    factorize_request_parts(tensor, spec, stream, |parts| {
        wire::write_parts(w, tag, wire::CTRL_FACTORIZE_REQ, trace, parts)
    })
}

/// The one factorization request decoder. Every input the engine would
/// panic on (zero/non-finite tensor, zero rank or sweeps) is rejected as a
/// typed error, and everything the head alone decides — including that the
/// words behind it are exactly the tensor it describes — before the tensor
/// is allocated.
fn take_factorize_request(
    c: &mut Payload<'_>,
    machine: &MachineSpec,
) -> Result<(FactorizeRequest, bool), ProtocolError> {
    let (dims, elements) = c.take_dims()?;
    let rank = c.take_usize("rank")?;
    let max_sweeps = c.take_usize("max_sweeps")?;
    let tol = c.take_finite("tol")?;
    let seed = c.take_int("seed")?;
    let ridge = c.take_finite("ridge")?;
    let stream = c.take_bool("stream flag")?;
    if rank == 0 {
        return Err(ProtocolError::Malformed("rank is zero".into()));
    }
    if max_sweeps == 0 {
        return Err(ProtocolError::Malformed("max_sweeps is zero".into()));
    }
    if tol < 0.0 || ridge < 0.0 {
        return Err(ProtocolError::Malformed(
            "tol/ridge must be nonnegative".into(),
        ));
    }
    // The fitted model (rank columns per mode, plus weights) must itself
    // fit in one reply frame — and this bound is what keeps a hostile
    // `rank` from making the server allocate unbounded factor matrices.
    let response_words = rank
        .checked_mul(dims.iter().sum::<usize>() + 1)
        .and_then(|n| n.checked_add(6 + dims.len()))
        .filter(|&n| n <= wire::MAX_PAYLOAD_WORDS);
    if response_words.is_none() {
        return Err(ProtocolError::Malformed(
            "fitted model would exceed the wire frame limit".into(),
        ));
    }
    c.expect_remaining(Some(elements), "factorize request")?;
    let x = c.take_vec(elements, "tensor data")?;
    let norm_sq: f64 = x.iter().map(|&v| v * v).sum();
    if !norm_sq.is_finite() {
        return Err(ProtocolError::Malformed(
            "tensor has non-finite values (or a norm overflow)".into(),
        ));
    }
    if norm_sq == 0.0 {
        return Err(ProtocolError::Malformed(
            "cannot fit a CP model to the zero tensor".into(),
        ));
    }
    let spec = FactorizeSpec {
        rank,
        max_sweeps,
        tol,
        seed,
        ridge,
    };
    let tensor = DenseTensor::from_vec(Shape::new(&dims), x);
    let request = FactorizeRequest::new(Arc::new(tensor), spec.into_config(machine));
    Ok((request, stream))
}

/// Decodes a factorization request against the server's default
/// `machine`. Returns the request plus whether the client asked for
/// streamed sweeps.
pub fn decode_factorize_request(
    frame: &Frame,
    machine: &MachineSpec,
) -> Result<(FactorizeRequest, bool), ProtocolError> {
    expect_kind(frame, wire::CTRL_FACTORIZE_REQ, "factorize request")?;
    take_factorize_request(&mut Payload::of(&frame.payload), machine)
}

/// [`decode_factorize_request`] off the stream behind a parsed header, the
/// tensor read into the buffer the request owns; errors as
/// [`read_mttkrp_request`].
pub(crate) fn read_factorize_request(
    r: &mut dyn Read,
    header: &FrameHeader,
    machine: &MachineSpec,
) -> Result<(FactorizeRequest, bool), ProtocolError> {
    read_streamed(
        r,
        header,
        wire::CTRL_FACTORIZE_REQ,
        "factorize request",
        |c| take_factorize_request(c, machine),
    )
}

/// Encodes one streamed sweep: `[sweep, fit, delta_fit or NaN]`. `NaN`
/// marks the first sweep's missing delta and survives the wire exactly
/// (bit-preserved, never compared).
pub fn encode_sweep(tag: u32, sweep: &AlsSweep) -> Frame {
    Frame::data(
        tag as usize,
        wire::CTRL_SWEEP,
        vec![
            sweep.sweep as f64,
            sweep.fit,
            sweep.delta_fit.unwrap_or(f64::NAN),
        ],
    )
}

/// Decodes a streamed sweep.
pub fn decode_sweep(frame: &Frame) -> Result<SweepUpdate, ProtocolError> {
    expect_kind(frame, wire::CTRL_SWEEP, "sweep")?;
    let mut c = Payload::of(&frame.payload);
    let sweep = c.take_usize("sweep number")?;
    let fit = c.take("fit")?;
    let delta = c.take("delta_fit")?;
    c.finish("sweep")?;
    Ok(SweepUpdate {
        sweep,
        fit,
        delta_fit: (!delta.is_nan()).then_some(delta),
    })
}

/// The final factorization reply's payload as borrowed parts:
/// `[converged, cancelled, sweeps, fit, rank, order, dims..]`, the weights,
/// then one part per factor.
fn factorize_response_parts<T>(run: &mttkrp_als::AlsRun, then: impl FnOnce(&[&[f64]]) -> T) -> T {
    let model = &run.model;
    let dims = model.shape().dims().to_vec();
    let mut head = vec![
        run.converged as u8 as f64,
        run.cancelled as u8 as f64,
        run.sweeps() as f64,
        run.fit(),
        model.weights.len() as f64,
        dims.len() as f64,
    ];
    head.extend(dims.iter().map(|&d| d as f64));
    let mut parts = vec![&head[..], &model.weights[..]];
    parts.extend(model.factors.iter().map(Matrix::data));
    then(&parts)
}

/// Encodes the final factorization reply:
/// `[converged, cancelled, sweeps, fit, rank, order, dims.., weights..,
/// factors (row-major, per mode)..]`.
pub fn encode_factorize_response(tag: u32, run: &mttkrp_als::AlsRun) -> Frame {
    factorize_response_parts(run, |parts| frame_of(tag, wire::CTRL_FACTORIZE_RESP, parts))
}

/// Writes the frame [`encode_factorize_response`] describes with weights
/// and factors borrowed from the run. Returns the bytes written.
pub(crate) fn write_factorize_response(
    w: &mut impl Write,
    tag: u32,
    run: &mttkrp_als::AlsRun,
) -> std::io::Result<usize> {
    factorize_response_parts(run, |parts| {
        wire::write_parts(w, tag, wire::CTRL_FACTORIZE_RESP, None, parts)
    })
}

/// Decodes the final factorization reply.
pub fn decode_factorize_response(frame: &Frame) -> Result<RemoteFactorize, ProtocolError> {
    expect_kind(frame, wire::CTRL_FACTORIZE_RESP, "factorize response")?;
    let mut c = Payload::of(&frame.payload);
    let converged = c.take_bool("converged")?;
    let cancelled = c.take_bool("cancelled")?;
    let sweeps = c.take_usize("sweeps")?;
    let fit = c.take("fit")?;
    let rank = c.take_usize("rank")?;
    if rank == 0 {
        return Err(ProtocolError::Malformed("rank is zero".into()));
    }
    let (dims, _) = c.take_dims()?;
    if dims.iter().any(|&d| d.checked_mul(rank).is_none()) {
        return Err(ProtocolError::Malformed("factor size overflows".into()));
    }
    let weights = c.take_vec(rank, "weights")?;
    let mut factors = Vec::with_capacity(dims.len());
    for &d in &dims {
        let data = c.take_vec(d * rank, "factor data")?;
        factors.push(Matrix::from_rows_vec(d, rank, data));
    }
    c.finish("factorize response")?;
    let mut model = KruskalTensor::from_factors(factors);
    model.weights = weights;
    Ok(RemoteFactorize {
        model,
        converged,
        cancelled,
        sweeps,
        fit,
    })
}
