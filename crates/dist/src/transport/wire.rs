//! The binary wire format of the TCP transport, plus the control frames
//! the rendezvous handshake and the multi-process launcher use.
//!
//! A frame is length-prefixed so a reader can never misparse a stream
//! position, and carries exactly what a transport packet carries:
//!
//! ```text
//! ┌────────────┬───────────┬──────────────┬───────────┬──────────────────┐
//! │ len: u32   │ from: u32 │ comm_id: u64 │ flags: u8 │ payload: n × f64 │
//! │ (LE, bytes │ (sender   │ (netsim Comm │ 0 = data  │ (LE words)       │
//! │ after the  │ world     │ id, or a     │ 1 = poison│                  │
//! │ prefix)    │ rank)     │ CTRL_* id)   │ 2 = fin   │                  │
//! │            │           │              │ 4 = traced│                  │
//! └────────────┴───────────┴──────────────┴───────────┴──────────────────┘
//! ```
//!
//! `len` must equal `13 + 8n` for some `n <= MAX_PAYLOAD_WORDS`; anything
//! else is rejected ([`WireError::Truncated`] / [`WireError::Oversized`] /
//! [`WireError::BadLength`]) rather than trusted — a garbled length prefix
//! must not make a reader allocate gigabytes or read off the rails.
//!
//! A **traced** frame (flags = 4) is a data frame whose first four payload
//! words are a [`TraceContext`] header — `trace_hi`, `trace_lo`, `proc`,
//! `parent_span`, each a `u64` bit-cast into the word lanes (the codec
//! moves words with `to_le_bytes`/`from_le_bytes`, so the cast is exact).
//! [`decode`] strips the header into [`Frame::trace`]; untraced frames
//! decode with `trace = None`. This is how a client's root span becomes
//! the parent of the server's tree, and the launcher's span the parent of
//! every rank's — one mechanism on both codecs.
//!
//! Control frames reuse the format with reserved `comm_id`s from the top
//! of the id space ([`CTRL_BASE`] and above) that the FNV-hashed netsim
//! communicator ids never use in practice; the transport asserts the
//! invariant on every data send.
//!
//! ```
//! use mttkrp_dist::transport::wire::{decode, encode, Frame};
//!
//! let frame = Frame::data(3, 42, vec![1.0, 2.0]);
//! let bytes = encode(&frame);
//! assert_eq!(decode(&bytes).unwrap(), frame);
//! ```

use mttkrp_netsim::schedule::{Phase, PhaseTraffic};
use mttkrp_obs::TraceContext;
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::io::{Read, Write};

/// Largest admissible payload, in words: 2^27 `f64`s = 1 GiB. Far above
/// any collective block this runtime ships, and low enough that a corrupt
/// length prefix fails fast instead of OOM-ing the receiver.
pub const MAX_PAYLOAD_WORDS: usize = 1 << 27;

/// Fixed body bytes before the payload: from (4) + comm_id (8) + flags (1).
const HEADER_BODY_BYTES: usize = 13;

/// Start of the reserved control-id space. Data frames must carry a
/// communicator id *below* this; the FNV-64 communicator ids effectively
/// never land in the top 32 values.
pub const CTRL_BASE: u64 = u64::MAX - 31;
/// Rendezvous hello: dialer announces its world rank; payload is its own
/// listener port (one word) toward rank 0, empty toward other peers.
pub const CTRL_HELLO: u64 = u64::MAX;
/// Rendezvous address table from rank 0: payload words `2i` and `2i + 1`
/// are world rank `i`'s IPv4 address (as a `u32`, the source address rank
/// 0 observed on `i`'s HELLO) and its listener port; both entries for
/// rank 0 itself are zero placeholders.
pub const CTRL_TABLE: u64 = u64::MAX - 1;
/// Orderly goodbye: the sender's rank program finished; nothing follows.
pub const CTRL_FIN: u64 = u64::MAX - 2;
/// Abort relay: the sender is about to abort because it saw world rank
/// `payload[0]` fail (`payload[1]` is 1 for an announced panic, 0 for a lost
/// connection). Its own sockets close next; a peer that reads this first
/// blames the original rank, not the relaying victim.
pub const CTRL_ABORT: u64 = u64::MAX - 19;
/// Launcher control: a spawned rank 0 reports its rendezvous port.
pub const CTRL_READY: u64 = u64::MAX - 3;
/// Launcher control: a rank reports its output chunk
/// (`[tag, r0, r1, c0, c1, data...]`, see [`encode_chunk`]).
pub const CTRL_CHUNK: u64 = u64::MAX - 4;
/// Launcher control: a rank reports its measured ledger
/// (`[tag, mode, sent, received, messages]` per phase, see
/// [`encode_ledger`]).
pub const CTRL_LEDGER: u64 = u64::MAX - 5;

// --- Serving front door (`mttkrp-serve`'s net module) -----------------------
// The listener speaks the same framing as the rank transport; these ids tag
// request/response traffic between a serving client and the socket listener.
// The payload encodings live next to their consumers in
// `mttkrp-serve/src/net/protocol.rs`; the ids are reserved here so the
// control-id space has one owner.

/// Serve: a client's single-MTTKRP request (`from` carries the client's
/// request tag, echoed on the reply).
pub const CTRL_MTTKRP_REQ: u64 = u64::MAX - 6;
/// Serve: a client's CP-ALS factorization request.
pub const CTRL_FACTORIZE_REQ: u64 = u64::MAX - 7;
/// Serve: the reply to a [`CTRL_MTTKRP_REQ`].
pub const CTRL_MTTKRP_RESP: u64 = u64::MAX - 8;
/// Serve: the final reply to a [`CTRL_FACTORIZE_REQ`].
pub const CTRL_FACTORIZE_RESP: u64 = u64::MAX - 9;
/// Serve: one streamed per-sweep progress update of a factorization.
pub const CTRL_SWEEP: u64 = u64::MAX - 10;
/// Serve: a client cancels an in-flight factorization by tag.
pub const CTRL_CANCEL: u64 = u64::MAX - 11;
/// Serve: a typed error reply (payload is [`encode_text`] words).
pub const CTRL_ERROR: u64 = u64::MAX - 12;
/// Serve: load shed — the server is at its admission cap (or draining);
/// payload is `[retry_after_ms]`.
pub const CTRL_RETRY_AFTER: u64 = u64::MAX - 13;

// --- Ops plane ---------------------------------------------------------------
// Live telemetry scrapes on the serve socket, and the launcher's one
// downstream frame to each rank child. Scrape frames are answered by the
// listener *before* admission control — a scrape can't be shed by load.

/// Serve: a metrics scrape; the reply (same id) carries the listener's
/// whole `MetricsRegistry` snapshot as JSONL text words.
pub const CTRL_STATS: u64 = u64::MAX - 14;
/// Serve: a health probe; the reply (same id) is
/// `[uptime_ms, open_connections, in_flight, draining, admission_cap]`.
pub const CTRL_HEALTH: u64 = u64::MAX - 15;
/// Serve: a flight-recorder dump; the reply (same id) carries the ring
/// contents as JSONL text words (see `mttkrp_obs::flight_to_jsonl`).
pub const CTRL_TRACE_DUMP: u64 = u64::MAX - 16;
/// Launcher → rank child: the one downstream frame on the report
/// connection, sent after the child's READY. Payload is
/// `[has_operands, ...operands]` (see [`encode_operands`]); the frame's
/// trace header (flags = 4) carries the launcher's context for the child
/// to adopt.
pub const CTRL_LAUNCH: u64 = u64::MAX - 17;
/// Serve: a metrics *history* scrape; the reply (same id) carries the
/// listener's time-series ring — per-window counter deltas, gauge
/// levels, and histogram deltas — as JSONL text words (see
/// `mttkrp_obs::timeseries::history_to_jsonl`). Answered on the same
/// pre-admission path as [`CTRL_STATS`], so history can't be shed.
pub const CTRL_STATS_HISTORY: u64 = u64::MAX - 18;

/// One wire message: the exact content of a transport packet.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Sender world rank.
    pub from: u32,
    /// Communicator id (a netsim [`mttkrp_netsim::Comm::id`]) or a
    /// reserved `CTRL_*` id.
    pub comm_id: u64,
    /// Poison flag: the sender panicked; receivers must abort.
    pub poison: bool,
    /// The trace-context header, when the sender attached one (only data
    /// frames carry it; poison/fin never do).
    pub trace: Option<TraceContext>,
    /// Payload words (trace header already stripped).
    pub payload: Vec<f64>,
}

impl Frame {
    /// A data frame.
    pub fn data(from: usize, comm_id: u64, payload: Vec<f64>) -> Frame {
        Frame {
            from: from as u32,
            comm_id,
            poison: false,
            trace: None,
            payload,
        }
    }

    /// A poison frame: `from` panicked and every blocked peer must abort.
    pub fn poison(from: usize) -> Frame {
        Frame {
            from: from as u32,
            comm_id: 0,
            poison: true,
            trace: None,
            payload: Vec::new(),
        }
    }

    /// An orderly-goodbye frame: `from` finished its rank program.
    pub fn fin(from: usize) -> Frame {
        Frame {
            from: from as u32,
            comm_id: CTRL_FIN,
            poison: false,
            trace: None,
            payload: Vec::new(),
        }
    }

    /// Attaches a trace-context header (builder-style; `None` leaves the
    /// frame untraced, so call sites can pass
    /// `mttkrp_obs::current_context()` straight through).
    pub fn with_trace(mut self, trace: Option<TraceContext>) -> Frame {
        self.trace = trace;
        self
    }
}

/// Why a byte sequence is not a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The bytes end before the length prefix says they should.
    Truncated {
        /// Bytes the prefix promised (after itself).
        expected: usize,
        /// Bytes actually present (after the prefix).
        got: usize,
    },
    /// The length prefix admits no `13 + 8n` body (too short, or the
    /// payload is not whole words).
    BadLength(u32),
    /// The payload would exceed [`MAX_PAYLOAD_WORDS`].
    Oversized {
        /// Payload words the prefix implies.
        words: usize,
    },
    /// The flags byte is none of data/poison/fin.
    BadFlags(u8),
    /// The underlying reader failed (connection reset, EOF mid-frame, ...).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: length prefix promises {expected} bytes, got {got}"
                )
            }
            WireError::BadLength(len) => write!(f, "impossible frame length {len}"),
            WireError::Oversized { words } => write!(
                f,
                "oversized frame: {words} payload words exceeds the {MAX_PAYLOAD_WORDS}-word limit"
            ),
            WireError::BadFlags(b) => write!(f, "unknown flags byte {b:#04x}"),
            WireError::Io(kind) => write!(f, "i/o error reading frame: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

const FLAG_DATA: u8 = 0;
const FLAG_POISON: u8 = 1;
const FLAG_FIN: u8 = 2;
/// A data frame whose first [`TRACE_HEADER_WORDS`] payload words are a
/// bit-cast [`TraceContext`].
const FLAG_TRACED: u8 = 4;

/// Payload words a trace header occupies on the wire.
pub const TRACE_HEADER_WORDS: usize = 4;

fn flags_of(frame: &Frame) -> u8 {
    let base = if frame.poison {
        FLAG_POISON
    } else if frame.comm_id == CTRL_FIN {
        FLAG_FIN
    } else {
        FLAG_DATA
    };
    // FIN frames never carry context: they are connection teardown, not
    // work, and keeping them headerless lets pre-trace peers drain them.
    if frame.trace.is_some() && base != FLAG_FIN {
        base | FLAG_TRACED
    } else {
        base
    }
}

/// Encoded size of `frame` on the wire, length prefix included — what
/// [`encode`] would produce, without producing it (the listener's byte
/// accounting).
pub fn frame_wire_bytes(frame: &Frame) -> usize {
    let header = if flags_of(frame) & FLAG_TRACED != 0 {
        TRACE_HEADER_WORDS
    } else {
        0
    };
    4 + HEADER_BODY_BYTES + 8 * (frame.payload.len() + header)
}

/// Encodes a frame, length prefix included.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD_WORDS`] — encoding it
/// anyway would either wrap the `u32` length prefix (desynchronizing the
/// stream) or make every receiver reject the frame as a connection-level
/// failure, both of which blame the wrong side.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let flags = flags_of(frame);
    let header_words = if flags & FLAG_TRACED != 0 {
        TRACE_HEADER_WORDS
    } else {
        0
    };
    let total_words = frame.payload.len() + header_words;
    assert!(
        total_words <= MAX_PAYLOAD_WORDS,
        "frame payload of {total_words} words exceeds the {MAX_PAYLOAD_WORDS}-word wire limit",
    );
    let body_len = HEADER_BODY_BYTES + 8 * total_words;
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&frame.from.to_le_bytes());
    out.extend_from_slice(&frame.comm_id.to_le_bytes());
    out.push(flags);
    if flags & FLAG_TRACED != 0 {
        for word in frame.trace.expect("traced flag implies trace").to_words() {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
    for w in &frame.payload {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Validates a length prefix: the payload word count it implies, if any.
fn payload_words(len: u32) -> Result<usize, WireError> {
    let len = len as usize;
    if len < HEADER_BODY_BYTES || !(len - HEADER_BODY_BYTES).is_multiple_of(8) {
        return Err(WireError::BadLength(len as u32));
    }
    let words = (len - HEADER_BODY_BYTES) / 8;
    if words > MAX_PAYLOAD_WORDS {
        return Err(WireError::Oversized { words });
    }
    Ok(words)
}

/// Decodes one frame from `bytes` (which must contain exactly one frame,
/// length prefix included). Rejects truncated and oversized inputs.
pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated {
            expected: 4,
            got: bytes.len(),
        });
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    let words = payload_words(len)?;
    let body = &bytes[4..];
    if body.len() < len as usize {
        return Err(WireError::Truncated {
            expected: len as usize,
            got: body.len(),
        });
    }
    let from = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
    let comm_id = u64::from_le_bytes(body[4..12].try_into().expect("8 bytes"));
    let flags = body[12];
    let base = flags & !FLAG_TRACED;
    if !matches!(base, FLAG_DATA | FLAG_POISON | FLAG_FIN) || (flags == FLAG_FIN | FLAG_TRACED) {
        return Err(WireError::BadFlags(flags));
    }
    let mut trace = None;
    let mut first_word = 0;
    if flags & FLAG_TRACED != 0 {
        if words < TRACE_HEADER_WORDS {
            return Err(WireError::BadLength(len));
        }
        let mut header = [0u64; TRACE_HEADER_WORDS];
        for (i, slot) in header.iter_mut().enumerate() {
            let at = HEADER_BODY_BYTES + 8 * i;
            *slot = u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
        }
        trace = Some(TraceContext::from_words(header));
        first_word = TRACE_HEADER_WORDS;
    }
    let mut payload = Vec::with_capacity(words - first_word);
    for i in first_word..words {
        let at = HEADER_BODY_BYTES + 8 * i;
        payload.push(f64::from_le_bytes(
            body[at..at + 8].try_into().expect("8 bytes"),
        ));
    }
    Ok(Frame {
        from,
        comm_id,
        poison: base == FLAG_POISON,
        trace,
        payload,
    })
}

/// Writes one frame to `w` (buffered by the caller or not — one `write_all`
/// per frame).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode(frame))
}

/// Writes a data frame without building a `Frame` first (spares the
/// payload copy on the transport's hot send path).
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD_WORDS`] (see [`encode`]).
pub fn write_data_frame(
    w: &mut impl Write,
    from: usize,
    comm_id: u64,
    payload: &[f64],
) -> std::io::Result<()> {
    assert!(
        payload.len() <= MAX_PAYLOAD_WORDS,
        "frame payload of {} words exceeds the {MAX_PAYLOAD_WORDS}-word wire limit",
        payload.len()
    );
    let body_len = HEADER_BODY_BYTES + 8 * payload.len();
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&(from as u32).to_le_bytes());
    out.extend_from_slice(&comm_id.to_le_bytes());
    out.push(FLAG_DATA);
    for word in payload {
        out.extend_from_slice(&word.to_le_bytes());
    }
    w.write_all(&out)
}

/// Reads one frame from `r`, blocking until it is complete. An EOF before
/// the first prefix byte is reported as `Io(UnexpectedEof)` like any other
/// short read — the TCP reader threads treat every error as "peer gone".
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)
        .map_err(|e| WireError::Io(e.kind()))?;
    let len = u32::from_le_bytes(prefix);
    payload_words(len)?;
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)
        .map_err(|e| WireError::Io(e.kind()))?;
    let mut framed = Vec::with_capacity(4 + body.len());
    framed.extend_from_slice(&prefix);
    framed.extend_from_slice(&body);
    decode(&framed)
}

// ---------------------------------------------------------------------------
// Launcher payload encodings (chunks and ledgers as words)
// ---------------------------------------------------------------------------

/// Encodes a measured ledger as frame payload words: five words per
/// collective, `[phase_tag, mode, words_sent, words_received,
/// messages_sent]`, with tags 0 = tensor all-gather, 1 = factor
/// all-gather, 2 = output reduce-scatter. All quantities are exact in
/// `f64` (word counts are far below 2^53).
pub fn encode_ledger(phases: &[PhaseTraffic]) -> Vec<f64> {
    let mut out = Vec::with_capacity(5 * phases.len());
    for t in phases {
        let (tag, mode) = match t.phase {
            Phase::TensorAllGather => (0.0, 0.0),
            Phase::FactorAllGather { mode } => (1.0, mode as f64),
            Phase::OutputReduceScatter => (2.0, 0.0),
        };
        out.extend_from_slice(&[
            tag,
            mode,
            t.words_sent as f64,
            t.words_received as f64,
            t.messages_sent as f64,
        ]);
    }
    out
}

/// Decodes [`encode_ledger`] output.
pub fn decode_ledger(words: &[f64]) -> Result<Vec<PhaseTraffic>, WireError> {
    if !words.len().is_multiple_of(5) {
        return Err(WireError::BadLength(words.len() as u32));
    }
    words
        .chunks_exact(5)
        .map(|c| {
            let phase = match c[0] as u64 {
                0 => Phase::TensorAllGather,
                1 => Phase::FactorAllGather {
                    mode: c[1] as usize,
                },
                2 => Phase::OutputReduceScatter,
                other => return Err(WireError::BadFlags(other as u8)),
            };
            Ok(PhaseTraffic {
                phase,
                words_sent: c[2] as u64,
                words_received: c[3] as u64,
                messages_sent: c[4] as u64,
            })
        })
        .collect()
}

/// Encodes an output chunk as frame payload words:
/// `[tag, r0, r1, c0, c1, data...]` with tag 0 for a row chunk (full
/// width; `c0 = c1 = 0` ignored) and 1 for a block chunk.
pub fn encode_chunk(chunk: &crate::runtime::OutputChunk) -> Vec<f64> {
    use crate::runtime::OutputChunk;
    match chunk {
        OutputChunk::Row((r0, r1, data)) => {
            let mut out = vec![0.0, *r0 as f64, *r1 as f64, 0.0, 0.0];
            out.extend_from_slice(data);
            out
        }
        OutputChunk::Block((r0, r1, c0, c1, data)) => {
            let mut out = vec![1.0, *r0 as f64, *r1 as f64, *c0 as f64, *c1 as f64];
            out.extend_from_slice(data);
            out
        }
    }
}

/// Decodes [`encode_chunk`] output.
pub fn decode_chunk(words: &[f64]) -> Result<crate::runtime::OutputChunk, WireError> {
    use crate::runtime::OutputChunk;
    if words.len() < 5 {
        return Err(WireError::BadLength(words.len() as u32));
    }
    let (r0, r1, c0, c1) = (
        words[1] as usize,
        words[2] as usize,
        words[3] as usize,
        words[4] as usize,
    );
    let data = words[5..].to_vec();
    match words[0] as u64 {
        0 => Ok(OutputChunk::Row((r0, r1, data))),
        1 => Ok(OutputChunk::Block((r0, r1, c0, c1, data))),
        other => Err(WireError::BadFlags(other as u8)),
    }
}

// ---------------------------------------------------------------------------
// Operand shipping (launcher → rank children)
// ---------------------------------------------------------------------------

/// Encodes MTTKRP operands as payload words:
/// `[order, dims..., rank, X data..., factor_0 data..., ..., factor_{order-1} data...]`
/// with factor `k` being `dims[k] × rank` row-major. Every value is moved
/// verbatim (dims/rank are exact small integers, data words are `f64`
/// already), so a shipped operand set is bit-identical on arrival — which
/// is what lets a rank child compute the same answer the launcher's
/// in-process engine would.
///
/// # Panics
/// Panics if `factors` doesn't match the tensor (one factor per mode, each
/// `dims[k] × rank`); the launcher controls both sides.
pub fn encode_operands(x: &DenseTensor, factors: &[&Matrix]) -> Vec<f64> {
    let dims = x.shape().dims();
    assert_eq!(factors.len(), dims.len(), "one factor per mode");
    let rank = factors.first().map(|f| f.cols()).unwrap_or(0);
    let mut out = Vec::with_capacity(2 + dims.len() + x.data().len());
    out.push(dims.len() as f64);
    out.extend(dims.iter().map(|&d| d as f64));
    out.push(rank as f64);
    out.extend_from_slice(x.data());
    for (k, f) in factors.iter().enumerate() {
        assert_eq!((f.rows(), f.cols()), (dims[k], rank), "factor {k} shape");
        out.extend_from_slice(f.data());
    }
    out
}

/// Decodes [`encode_operands`] output. Every length is validated against
/// the declared shape before anything is built.
pub fn decode_operands(words: &[f64]) -> Result<(DenseTensor, Vec<Matrix>), WireError> {
    let bad = || WireError::BadLength(words.len() as u32);
    let int = |w: f64| -> Result<usize, WireError> {
        if w.is_finite() && w.fract() == 0.0 && (0.0..=(1u64 << 32) as f64).contains(&w) {
            Ok(w as usize)
        } else {
            Err(bad())
        }
    };
    let order = int(*words.first().ok_or_else(bad)?)?;
    if words.len() < 2 + order {
        return Err(bad());
    }
    let dims: Vec<usize> = words[1..1 + order]
        .iter()
        .map(|&w| int(w))
        .collect::<Result<_, _>>()?;
    let rank = int(words[1 + order])?;
    let x_len: usize = dims.iter().product();
    let factors_len: usize = dims.iter().map(|&d| d * rank).sum();
    let mut at = 2 + order;
    if words.len() != at + x_len + factors_len {
        return Err(bad());
    }
    let x = DenseTensor::from_vec(Shape::new(&dims), words[at..at + x_len].to_vec());
    at += x_len;
    let mut factors = Vec::with_capacity(order);
    for &d in &dims {
        factors.push(Matrix::from_rows_vec(
            d,
            rank,
            words[at..at + d * rank].to_vec(),
        ));
        at += d * rank;
    }
    Ok((x, factors))
}

// ---------------------------------------------------------------------------
// Text payloads (typed error frames)
// ---------------------------------------------------------------------------

/// Packs UTF-8 text into frame payload words: word 0 is the byte length,
/// the rest carry the raw bytes eight per word (zero-padded tail). Bytes
/// roundtrip exactly because every word is moved with
/// `to_le_bytes`/`from_le_bytes` — no float arithmetic touches them.
pub fn encode_text(text: &str) -> Vec<f64> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(1 + bytes.len().div_ceil(8));
    out.push(bytes.len() as f64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        out.push(f64::from_le_bytes(word));
    }
    out
}

/// Decodes [`encode_text`] output. The length header must agree with the
/// word count; invalid UTF-8 decodes lossily (text frames are diagnostics,
/// and a garbled message beats a dropped one).
pub fn decode_text(words: &[f64]) -> Result<String, WireError> {
    let Some((&len_word, rest)) = words.split_first() else {
        return Err(WireError::BadLength(0));
    };
    let max_bytes = (8 * MAX_PAYLOAD_WORDS) as f64;
    if !len_word.is_finite() || len_word.fract() != 0.0 || !(0.0..=max_bytes).contains(&len_word) {
        return Err(WireError::BadLength(words.len() as u32));
    }
    let len = len_word as usize;
    if rest.len() != len.div_ceil(8) {
        return Err(WireError::BadLength(words.len() as u32));
    }
    let mut bytes = Vec::with_capacity(8 * rest.len());
    for w in rest {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.truncate(len);
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_data_poison_fin() {
        for frame in [
            Frame::data(7, 0xDEAD_BEEF, vec![1.5, -2.25, 0.0]),
            Frame::data(0, 3, Vec::new()),
            Frame::poison(2),
            Frame::fin(5),
        ] {
            let bytes = encode(&frame);
            assert_eq!(decode(&bytes).unwrap(), frame, "{frame:?}");
            assert_eq!(frame_wire_bytes(&frame), bytes.len(), "{frame:?}");
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let bytes = encode(&Frame::data(1, 9, vec![3.0, 4.0]));
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_and_impossible_lengths_are_rejected() {
        // A length prefix promising more words than the cap.
        let huge = ((HEADER_BODY_BYTES + 8 * (MAX_PAYLOAD_WORDS + 1)) as u32).to_le_bytes();
        let mut bytes = huge.to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            WireError::Oversized { .. }
        ));
        // A length that cannot hold the fixed header.
        let tiny = 5u32.to_le_bytes();
        assert!(matches!(
            decode(&tiny).unwrap_err(),
            WireError::BadLength(5)
        ));
        // A length with a fractional payload word.
        let frac = ((HEADER_BODY_BYTES + 3) as u32).to_le_bytes();
        assert!(matches!(
            decode(&frac).unwrap_err(),
            WireError::BadLength(_)
        ));
    }

    #[test]
    fn bad_flags_are_rejected() {
        let mut bytes = encode(&Frame::data(1, 9, vec![]));
        *bytes.last_mut().unwrap() = 9; // flags byte of an empty-payload frame
        assert_eq!(decode(&bytes).unwrap_err(), WireError::BadFlags(9));
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let frames = [
            Frame::data(0, 11, vec![1.0]),
            Frame::data(1, 12, vec![2.0, 3.0]),
            Frame::fin(0),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            WireError::Io(std::io::ErrorKind::UnexpectedEof)
        ));
    }

    #[test]
    fn ledger_words_roundtrip() {
        let phases = vec![
            PhaseTraffic {
                phase: Phase::TensorAllGather,
                words_sent: 10,
                words_received: 12,
                messages_sent: 3,
            },
            PhaseTraffic {
                phase: Phase::FactorAllGather { mode: 2 },
                words_sent: 7,
                words_received: 7,
                messages_sent: 1,
            },
            PhaseTraffic {
                phase: Phase::OutputReduceScatter,
                words_sent: 0,
                words_received: 0,
                messages_sent: 0,
            },
        ];
        assert_eq!(decode_ledger(&encode_ledger(&phases)).unwrap(), phases);
        assert!(decode_ledger(&[1.0, 2.0]).is_err());
        assert!(decode_ledger(&[9.0, 0.0, 0.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn text_words_roundtrip() {
        for text in [
            "",
            "x",
            "exactly8",
            "a typed error message, über-long ⚠",
            "nine.bytes",
        ] {
            assert_eq!(decode_text(&encode_text(text)).unwrap(), text, "{text:?}");
        }
        // Header/word-count disagreements are rejected, not trusted.
        assert!(decode_text(&[]).is_err());
        assert!(decode_text(&[3.0]).is_err(), "missing byte words");
        assert!(decode_text(&[9.0, 0.0]).is_err(), "too few byte words");
        assert!(
            decode_text(&[1.0, 0.0, 0.0]).is_err(),
            "too many byte words"
        );
        assert!(decode_text(&[-1.0]).is_err());
        assert!(decode_text(&[0.5, 0.0]).is_err());
        assert!(decode_text(&[f64::NAN, 0.0]).is_err());
        // Invalid UTF-8 decodes lossily rather than erroring.
        let mut words = vec![2.0];
        words.push(f64::from_le_bytes([0xFF, 0xFE, 0, 0, 0, 0, 0, 0]));
        assert_eq!(decode_text(&words).unwrap(), "\u{FFFD}\u{FFFD}");
    }

    #[test]
    fn serve_ctrl_ids_stay_in_the_reserved_space() {
        for id in [
            CTRL_MTTKRP_REQ,
            CTRL_FACTORIZE_REQ,
            CTRL_MTTKRP_RESP,
            CTRL_FACTORIZE_RESP,
            CTRL_SWEEP,
            CTRL_CANCEL,
            CTRL_ERROR,
            CTRL_RETRY_AFTER,
            CTRL_STATS,
            CTRL_HEALTH,
            CTRL_TRACE_DUMP,
            CTRL_LAUNCH,
            CTRL_STATS_HISTORY,
        ] {
            assert!(id >= CTRL_BASE, "{id:#x} escapes the control-id space");
            assert_ne!(id, CTRL_FIN, "serve ids must not alias FIN semantics");
        }
    }

    #[test]
    fn traced_frames_roundtrip_bit_exactly() {
        let ctx = TraceContext {
            trace_hi: 0xDEAD_BEEF_0102_0304,
            trace_lo: u64::MAX,
            proc: 1,
            parent_span: 42,
        };
        for frame in [
            Frame::data(3, 7, vec![1.5, -2.0]).with_trace(Some(ctx)),
            Frame::data(0, CTRL_STATS, Vec::new()).with_trace(Some(ctx)),
            Frame::poison(1).with_trace(Some(ctx)),
        ] {
            let bytes = encode(&frame);
            let back = decode(&bytes).unwrap();
            assert_eq!(back, frame, "{frame:?}");
            assert_eq!(back.trace, Some(ctx));
            assert_eq!(frame_wire_bytes(&frame), bytes.len(), "{frame:?}");
        }
        // A FIN never carries a header (flags_of maps FIN before TRACED).
        let fin = Frame::fin(0).with_trace(Some(ctx));
        assert_eq!(decode(&encode(&fin)).unwrap().trace, None);
        // Streams carry the header too.
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::data(2, 9, vec![4.0]).with_trace(Some(ctx)),
        )
        .unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().trace, Some(ctx));
    }

    #[test]
    fn traced_frame_too_short_for_header_is_rejected() {
        // A traced frame whose length admits fewer than TRACE_HEADER_WORDS
        // payload words cannot hold the context.
        for words in 0..TRACE_HEADER_WORDS {
            let len = (HEADER_BODY_BYTES + 8 * words) as u32;
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&0u32.to_le_bytes()); // from
            bytes.extend_from_slice(&7u64.to_le_bytes()); // comm id
            bytes.push(4); // FLAG_TRACED
            bytes.extend(std::iter::repeat_n(0u8, 8 * words)); // payload
            assert!(
                matches!(decode(&bytes).unwrap_err(), WireError::BadLength(_)),
                "{words} payload words"
            );
        }
    }

    #[test]
    fn operands_roundtrip_and_reject_bad_lengths() {
        let dims = [3usize, 4, 2];
        let x = DenseTensor::from_vec(
            Shape::new(&dims),
            (0..24).map(|i| i as f64 * 0.5 - 3.0).collect(),
        );
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| Matrix::from_rows_vec(d, 2, (0..d * 2).map(|i| i as f64 + 0.25).collect()))
            .collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        let words = encode_operands(&x, &refs);
        let (x2, f2) = decode_operands(&words).unwrap();
        assert_eq!(x2.shape().dims(), &dims);
        assert_eq!(x2.data(), x.data());
        assert_eq!(f2.len(), 3);
        for (a, b) in f2.iter().zip(&factors) {
            assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
            assert_eq!(a.data(), b.data());
        }
        // Truncated and padded payloads are rejected.
        assert!(decode_operands(&words[..words.len() - 1]).is_err());
        let mut padded = words.clone();
        padded.push(0.0);
        assert!(decode_operands(&padded).is_err());
        assert!(decode_operands(&[]).is_err());
        assert!(decode_operands(&[f64::NAN]).is_err());
        assert!(
            decode_operands(&[2.5, 1.0, 1.0]).is_err(),
            "fractional order"
        );
    }

    #[test]
    fn chunk_words_roundtrip() {
        use crate::runtime::OutputChunk;
        for chunk in [
            OutputChunk::Row((2, 4, vec![1.0, 2.0, 3.0, 4.0])),
            OutputChunk::Block((0, 1, 2, 4, vec![5.0, 6.0])),
            OutputChunk::Row((0, 0, Vec::new())),
        ] {
            assert_eq!(decode_chunk(&encode_chunk(&chunk)).unwrap(), chunk);
        }
        assert!(decode_chunk(&[0.0, 1.0]).is_err());
        assert!(decode_chunk(&[7.0, 0.0, 0.0, 0.0, 0.0]).is_err());
    }
}
