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
//! else is rejected ([`WireError::Oversized`] / [`WireError::BadLength`])
//! rather than trusted — a garbled length prefix must not make a reader
//! allocate gigabytes or read off the rails — and a stream that ends inside
//! a frame is a [`WireError::Io`] error, never a frame.
//!
//! A **traced** frame (flags = 4) is a data frame whose first four payload
//! words are a [`TraceContext`] header — `trace_hi`, `trace_lo`, `proc`,
//! `parent_span`, each a `u64` bit-cast into the word lanes (the codec
//! moves words with `to_le_bytes`/`from_le_bytes`, so the cast is exact).
//! [`read_header`] strips the header into [`Frame::trace`]; untraced frames
//! read back with `trace = None`. This is how a client's root span becomes
//! the parent of the server's tree, and the launcher's span the parent of
//! every rank's — one mechanism on both codecs.
//!
//! Control frames reuse the format with reserved `comm_id`s from the top
//! of the id space ([`CTRL_BASE`] and above) that the FNV-hashed netsim
//! communicator ids never use in practice; the transport asserts the
//! invariant on every data send.
//!
//! **One codec, and it streams.** Everything here that writes or reads a
//! frame — [`write_frame`]/`write_data_frame`/[`write_parts`],
//! [`read_frame`]/[`read_header`] + [`read_payload`] — is a caller of one
//! writer, one header parser and one word reader, which move words between
//! the stream and their final home through a small per-thread chunk buffer:
//! no frame-sized byte buffer exists on either side, a frame that fits the
//! chunk leaves in one `write`, and the bytes are those of [`write_frame`]
//! however the payload is split into borrowed parts. [`Payload`]
//! is the matching cursor for payload *contents*: the same validated
//! `take_*` steps over a decoded frame's words or straight off the stream,
//! so a request's head is checked before its operands are allocated and the
//! operands are read directly into the buffers that own them.
//!
//! ```
//! use mttkrp_dist::transport::wire::{read_frame, write_frame, Frame};
//!
//! let frame = Frame::data(3, 42, vec![1.0, 2.0]);
//! let mut bytes = Vec::new();
//! write_frame(&mut bytes, &frame).unwrap();
//! assert_eq!(read_frame(&mut &bytes[..]).unwrap(), frame);
//! ```

use mttkrp_netsim::schedule::{Phase, PhaseTraffic};
use mttkrp_obs::TraceContext;
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::cell::Cell;
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
pub(crate) const CTRL_TABLE: u64 = u64::MAX - 1;
/// Orderly goodbye: the sender's rank program finished; nothing follows.
pub const CTRL_FIN: u64 = u64::MAX - 2;
/// Abort relay: the sender is about to abort because it saw world rank
/// `payload[0]` fail (`payload[1]` is 1 for an announced panic, 0 for a lost
/// connection). Its own sockets close next; a peer that reads this first
/// blames the original rank, not the relaying victim.
pub(crate) const CTRL_ABORT: u64 = u64::MAX - 19;
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
// `u64::MAX - 18` is retired (it was a metrics-history scrape). Do not
// reuse it: a peer that still sends it gets a typed error, not a new meaning.

/// Serve (version 2): a [`CTRL_MTTKRP_REQ`] whose tensor the connection keeps.
pub const CTRL_MTTKRP_KEEP: u64 = u64::MAX - 20;
/// Serve (version 2): an MTTKRP against the connection's kept tensor.
pub const CTRL_MTTKRP_KEPT: u64 = u64::MAX - 21;
/// Serve (version 2): a [`CTRL_MTTKRP_RESP`] to a `KEEP` whose tensor was kept.
pub const CTRL_MTTKRP_HELD: u64 = u64::MAX - 22;

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
    /// The frame is sound but its payload words are not what their kind
    /// requires: a count that is not a small integer, a shape out of range,
    /// a word count that disagrees with the shape (see [`Payload`]).
    Malformed(String),
    /// The underlying reader failed (connection reset, EOF mid-frame, ...).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadLength(len) => write!(f, "impossible frame length {len}"),
            WireError::Oversized { words } => write!(
                f,
                "oversized frame: {words} payload words exceeds the {MAX_PAYLOAD_WORDS}-word limit"
            ),
            WireError::BadFlags(b) => write!(f, "unknown flags byte {b:#04x}"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
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
const TRACE_HEADER_WORDS: usize = 4;

/// The flags byte of a frame with these fields.
fn flags_for(poison: bool, comm_id: u64, traced: bool) -> u8 {
    let base = if poison {
        FLAG_POISON
    } else if comm_id == CTRL_FIN {
        FLAG_FIN
    } else {
        FLAG_DATA
    };
    // FIN frames never carry context: they are connection teardown, not
    // work, and keeping them headerless lets pre-trace peers drain them.
    if traced && base != FLAG_FIN {
        base | FLAG_TRACED
    } else {
        base
    }
}

/// Size on the wire, length prefix included, of a frame with `words` payload
/// words behind its (optional) trace header.
fn wire_bytes(words: usize, traced: bool) -> usize {
    let header = if traced { TRACE_HEADER_WORDS } else { 0 };
    4 + HEADER_BODY_BYTES + 8 * (words + header)
}

/// Encoded size of `frame` on the wire, length prefix included — what
/// [`write_frame`] writes, without writing it (the listener's byte
/// accounting).
pub fn frame_wire_bytes(frame: &Frame) -> usize {
    let flags = flags_for(frame.poison, frame.comm_id, frame.trace.is_some());
    wire_bytes(frame.payload.len(), flags & FLAG_TRACED != 0)
}

// ---------------------------------------------------------------------------
// The streaming core: one writer, one header parser, one word reader
// ---------------------------------------------------------------------------
// Every frame this module writes or reads — the stream functions, the
// serve protocol's operand path — goes through the three
// functions below, and every payload word crosses exactly one buffer on its
// way: the calling thread's chunk buffer, where `to_le_bytes`/`from_le_bytes`
// turn words into bytes and back in loops the optimiser compiles to copies.
// Nothing frame-sized is allocated on either side.

/// Bytes moved per `write`/`read` call on a payload larger than this; a
/// frame that fits leaves in one `write`. Read on `serve-socket` (0.84 MiB
/// requests, four alternating runs each): 16 KiB 0.70 ms per request and
/// 8.6 MiB peak RSS, 64 KiB 0.62 ms / 9.5 MiB, 256 KiB 0.55 ms / 10.0 MiB —
/// the middle one takes most of the gain for a buffer that stays in L2
/// beside the operands it feeds.
const CHUNK_BYTES: usize = 64 * 1024;

thread_local! {
    /// The calling thread's chunk buffer, kept between frames so a
    /// connection's reader and writer threads allocate it once.
    static CHUNK: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on the first `len <= CHUNK_BYTES` bytes of this thread's chunk
/// buffer. The buffer is taken out of its slot for the call, so a `Read` or
/// `Write` that itself frames something just allocates its own.
fn with_chunk<T>(len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
    let mut buf = CHUNK.take();
    if buf.len() < len {
        buf.resize(len, 0);
    }
    let out = f(&mut buf[..len]);
    CHUNK.set(buf);
    out
}

fn io_error(e: std::io::Error) -> WireError {
    WireError::Io(e.kind())
}

/// The one writer: streams the 17-byte header, the trace words a traced
/// frame carries, and every word of `parts` in order through the chunk
/// buffer. The bytes are the same however the payload is split into parts,
/// and a frame no larger than the chunk leaves in a single `write_all` —
/// header and payload together, because a second small write on a socket
/// waits out the peer's delayed ACK (≈ 40 ms). Returns the bytes written.
fn write_chunked(
    w: &mut (impl Write + ?Sized),
    from: u32,
    comm_id: u64,
    poison: bool,
    trace: Option<TraceContext>,
    parts: &[&[f64]],
) -> std::io::Result<usize> {
    let flags = flags_for(poison, comm_id, trace.is_some());
    let trace_words = trace
        .filter(|_| flags & FLAG_TRACED != 0)
        .map(TraceContext::to_words);
    let trace_words = trace_words.as_ref().map_or(&[][..], |words| &words[..]);
    let total_words = trace_words.len() + parts.iter().map(|p| p.len()).sum::<usize>();
    assert!(
        total_words <= MAX_PAYLOAD_WORDS,
        "frame payload of {total_words} words exceeds the {MAX_PAYLOAD_WORDS}-word wire limit",
    );
    let frame_bytes = wire_bytes(total_words, false);
    let body_len = frame_bytes - 4;
    with_chunk(frame_bytes.min(CHUNK_BYTES), |buf| {
        buf[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        buf[4..8].copy_from_slice(&from.to_le_bytes());
        buf[8..16].copy_from_slice(&comm_id.to_le_bytes());
        buf[16] = flags;
        let mut fill = 4 + HEADER_BODY_BYTES;
        for word in trace_words {
            buf[fill..fill + 8].copy_from_slice(&word.to_le_bytes());
            fill += 8;
        }
        for part in parts {
            let mut rest = *part;
            while !rest.is_empty() {
                if buf.len() - fill < 8 {
                    w.write_all(&buf[..fill])?;
                    fill = 0;
                }
                let (now, later) = rest.split_at(rest.len().min((buf.len() - fill) / 8));
                let bytes = &mut buf[fill..fill + 8 * now.len()];
                for (dst, word) in bytes.chunks_exact_mut(8).zip(now) {
                    dst.copy_from_slice(&word.to_le_bytes());
                }
                fill += bytes.len();
                rest = later;
            }
        }
        w.write_all(&buf[..fill])?;
        Ok(frame_bytes)
    })
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

/// Everything a frame says before its payload: what [`read_header`] has
/// validated by the time a reader decides where the payload words should
/// land (or that they should be skipped).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameHeader {
    /// Sender world rank (the serve protocol's request tag).
    pub from: u32,
    /// Communicator id or a reserved `CTRL_*` id.
    pub comm_id: u64,
    /// Poison flag (see [`Frame::poison`]).
    pub poison: bool,
    /// The trace-context header, already read and stripped.
    pub trace: Option<TraceContext>,
    /// Payload words still on the stream (at most [`MAX_PAYLOAD_WORDS`]).
    pub words: usize,
}

impl FrameHeader {
    /// The frame's whole size on the wire, length prefix included (equals
    /// [`frame_wire_bytes`] of the frame it heads).
    pub fn wire_bytes(&self) -> usize {
        wire_bytes(self.words, self.trace.is_some())
    }
}

/// The one header parser: reads a frame up to its payload and validates all
/// of it — the length prefix (`13 + 8n`, `n <= MAX_PAYLOAD_WORDS`) before
/// another byte is read or anything is allocated, then the flags byte, then
/// the trace header a traced frame must have room for.
pub fn read_header(r: &mut (impl Read + ?Sized)) -> Result<FrameHeader, WireError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix).map_err(io_error)?;
    let len = u32::from_le_bytes(prefix);
    let mut words = payload_words(len)?;
    let mut fixed = [0u8; HEADER_BODY_BYTES];
    r.read_exact(&mut fixed).map_err(io_error)?;
    let from = u32::from_le_bytes(fixed[..4].try_into().expect("4 bytes"));
    let comm_id = u64::from_le_bytes(fixed[4..12].try_into().expect("8 bytes"));
    let flags = fixed[12];
    let base = flags & !FLAG_TRACED;
    if !matches!(base, FLAG_DATA | FLAG_POISON | FLAG_FIN) || (flags == FLAG_FIN | FLAG_TRACED) {
        return Err(WireError::BadFlags(flags));
    }
    let mut trace = None;
    if flags & FLAG_TRACED != 0 {
        if words < TRACE_HEADER_WORDS {
            return Err(WireError::BadLength(len));
        }
        let mut bytes = [0u8; 8 * TRACE_HEADER_WORDS];
        r.read_exact(&mut bytes).map_err(io_error)?;
        let mut header = [0u64; TRACE_HEADER_WORDS];
        for (slot, b) in header.iter_mut().zip(bytes.chunks_exact(8)) {
            *slot = u64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
        trace = Some(TraceContext::from_words(header));
        words -= TRACE_HEADER_WORDS;
    }
    Ok(FrameHeader {
        from,
        comm_id,
        poison: base == FLAG_POISON,
        trace,
        words,
    })
}

/// Moves the next `n` payload words of `r` through the chunk buffer, one
/// `read_exact` per chunk, handing each chunk's bytes to `sink`.
fn for_each_chunk(
    r: &mut (impl Read + ?Sized),
    n: usize,
    mut sink: impl FnMut(&[u8]),
) -> Result<(), WireError> {
    with_chunk((8 * n).min(CHUNK_BYTES), |buf| {
        let mut left = n;
        while left > 0 {
            let bytes = &mut buf[..8 * left.min(CHUNK_BYTES / 8)];
            r.read_exact(bytes).map_err(io_error)?;
            sink(bytes);
            left -= bytes.len() / 8;
        }
        Ok(())
    })
}

/// The one word reader: appends the next `n` payload words of `r` to `out`,
/// straight from the stream — `out` is the buffer the words will live in
/// (a frame's payload, a tensor's data), reserved once.
fn read_words(r: &mut (impl Read + ?Sized), n: usize, out: &mut Vec<f64>) -> Result<(), WireError> {
    out.reserve_exact(n);
    for_each_chunk(r, n, |bytes| {
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes"))),
        );
    })
}

/// Reads and discards the next `n` payload words of `r`: how a reader that
/// has refused a frame on its head stays in sync with the stream without
/// allocating for the body.
fn skip_words(r: &mut (impl Read + ?Sized), n: usize) -> Result<(), WireError> {
    for_each_chunk(r, n, |_| {})
}

/// Writes a data frame whose payload is the concatenation of `parts`,
/// borrowed where they lie (a small head, then a tensor's and its factors'
/// own storage): the bytes of [`write_frame`] on the equivalent [`Frame`],
/// with no payload built first. Returns the bytes written.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD_WORDS`] (see [`write_frame`]).
pub fn write_parts(
    w: &mut (impl Write + ?Sized),
    from: u32,
    comm_id: u64,
    trace: Option<TraceContext>,
    parts: &[&[f64]],
) -> std::io::Result<usize> {
    write_chunked(w, from, comm_id, false, trace, parts)
}

/// Writes one frame to `w`, length prefix included: one `write_all` if it
/// fits the codec's chunk buffer, else one per chunk — buffered by the
/// caller or not.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD_WORDS`] — writing it anyway
/// would either wrap the `u32` length prefix (desynchronizing the stream) or
/// make every receiver reject the frame as a connection-level failure, both
/// of which blame the wrong side.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let parts = [&frame.payload[..]];
    write_chunked(
        w,
        frame.from,
        frame.comm_id,
        frame.poison,
        frame.trace,
        &parts,
    )
    .map(drop)
}

/// Writes a data frame without building a `Frame` first (spares the
/// payload copy on the transport's hot send path).
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD_WORDS`] (see [`write_frame`]).
pub(crate) fn write_data_frame(
    w: &mut impl Write,
    from: usize,
    comm_id: u64,
    payload: &[f64],
) -> std::io::Result<()> {
    write_parts(w, from as u32, comm_id, None, &[payload]).map(drop)
}

/// Reads the payload `header` announces into a [`Frame`].
pub fn read_payload(
    r: &mut (impl Read + ?Sized),
    header: &FrameHeader,
) -> Result<Frame, WireError> {
    let mut payload = Vec::new();
    read_words(r, header.words, &mut payload)?;
    Ok(Frame {
        from: header.from,
        comm_id: header.comm_id,
        poison: header.poison,
        trace: header.trace,
        payload,
    })
}

/// Reads one frame from `r`, blocking until it is complete. An EOF before
/// the first prefix byte is reported as `Io(UnexpectedEof)` like any other
/// short read — the TCP reader threads treat every error as "peer gone".
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let header = read_header(r)?;
    read_payload(r, &header)
}

// ---------------------------------------------------------------------------
// Payload cursor: validated words from a decoded frame or straight off a stream
// ---------------------------------------------------------------------------

/// A frame's payload words, taken in order with honest errors — no index
/// arithmetic a malformed length can knock off the rails. The words come
/// either from a decoded [`Frame`]'s payload ([`Payload::of`]) or straight
/// off the stream behind a [`FrameHeader`] ([`Payload::streaming`]), so one
/// decoder per message serves both: the head is validated the same way, and
/// on a stream the operands it describes are then read directly into the
/// buffers that will own them.
pub struct Payload<'a> {
    src: Source<'a>,
}

enum Source<'a> {
    Slice(&'a [f64]),
    Stream { r: &'a mut dyn Read, left: usize },
}

fn malformed(why: String) -> WireError {
    WireError::Malformed(why)
}

/// The shape words in front of a shipped operand set, as
/// [`Payload::take_operand_head`] validated them: order in 2..=16, every
/// dimension and the rank at least 1, no product overflowing, and the payload
/// behind them exactly the size that shape needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OperandHead {
    dims: Vec<usize>,
    elements: usize,
    rank: usize,
}

impl OperandHead {
    /// The tensor's dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }
}

impl<'a> Payload<'a> {
    /// The payload of a frame already decoded.
    pub fn of(words: &'a [f64]) -> Payload<'a> {
        Payload {
            src: Source::Slice(words),
        }
    }

    /// The `header.words` words still on `r` behind a header
    /// [`read_header`] has just parsed.
    pub fn streaming(r: &'a mut dyn Read, header: &FrameHeader) -> Payload<'a> {
        Payload {
            src: Source::Stream {
                r,
                left: header.words,
            },
        }
    }

    /// Words not yet taken.
    fn remaining(&self) -> usize {
        match &self.src {
            Source::Slice(words) => words.len(),
            Source::Stream { left, .. } => *left,
        }
    }

    /// The next word, whatever its bits.
    pub fn take(&mut self, what: &str) -> Result<f64, WireError> {
        if self.remaining() == 0 {
            return Err(malformed(format!("payload ends before {what}")));
        }
        match &mut self.src {
            Source::Slice(words) => {
                let w = words[0];
                *words = &words[1..];
                Ok(w)
            }
            Source::Stream { r, left } => {
                let mut bytes = [0u8; 8];
                r.read_exact(&mut bytes).map_err(io_error)?;
                *left -= 1;
                Ok(f64::from_le_bytes(bytes))
            }
        }
    }

    /// A small nonnegative integer (`<= 2^53`, exactly representable).
    pub fn take_int(&mut self, what: &str) -> Result<u64, WireError> {
        let w = self.take(what)?;
        if !w.is_finite() || w < 0.0 || w.fract() != 0.0 || w > (1u64 << 53) as f64 {
            return Err(malformed(format!(
                "{what} is not a small nonnegative integer: {w}"
            )));
        }
        Ok(w as u64)
    }

    /// [`Payload::take_int`] as a `usize`.
    pub fn take_usize(&mut self, what: &str) -> Result<usize, WireError> {
        Ok(self.take_int(what)? as usize)
    }

    /// A finite word.
    pub fn take_finite(&mut self, what: &str) -> Result<f64, WireError> {
        let w = self.take(what)?;
        if !w.is_finite() {
            return Err(malformed(format!("{what} is not finite: {w}")));
        }
        Ok(w)
    }

    /// A 0/1 flag.
    pub fn take_bool(&mut self, what: &str) -> Result<bool, WireError> {
        match self.take_int(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("{what} is not a 0/1 flag: {other}"))),
        }
    }

    /// The next `n` words as the `Vec` that will own them: copied out of a
    /// decoded payload, or read off the stream into it directly. `n` is
    /// checked against what is left before anything is allocated.
    pub fn take_vec(&mut self, n: usize, what: &str) -> Result<Vec<f64>, WireError> {
        if n > self.remaining() {
            return Err(malformed(format!(
                "payload too short for {what}: need {n} more words, have {}",
                self.remaining()
            )));
        }
        match &mut self.src {
            Source::Slice(words) => {
                let (now, later) = words.split_at(n);
                *words = later;
                Ok(now.to_vec())
            }
            Source::Stream { r, left } => {
                let mut out = Vec::new();
                read_words(r, n, &mut out)?;
                *left -= n;
                Ok(out)
            }
        }
    }

    /// `[order, dims..]`: an order in 2..=16, every dimension at least 1,
    /// and an element count (returned beside the dims) that does not
    /// overflow and that one frame could carry.
    pub fn take_dims(&mut self) -> Result<(Vec<usize>, usize), WireError> {
        let order = self.take_usize("order")?;
        if !(2..=16).contains(&order) {
            return Err(malformed(format!(
                "tensor order {order} outside the supported 2..=16"
            )));
        }
        let mut dims = Vec::with_capacity(order);
        let mut elements = 1usize;
        for k in 0..order {
            let d = self.take_usize("dimension")?;
            if d == 0 {
                return Err(malformed(format!("dimension {k} is zero")));
            }
            elements = elements
                .checked_mul(d)
                .filter(|&e| e <= MAX_PAYLOAD_WORDS)
                .ok_or_else(|| malformed("tensor element count exceeds the wire limit".into()))?;
            dims.push(d);
        }
        Ok((dims, elements))
    }

    /// Fails unless exactly `n` words are left — the check a decoder makes
    /// between validating a head and allocating for the body it describes.
    pub fn expect_remaining(&self, n: Option<usize>, kind: &str) -> Result<(), WireError> {
        if n == Some(self.remaining()) {
            return Ok(());
        }
        let needs = n.map_or("more than any frame holds".to_string(), |n| n.to_string());
        Err(malformed(format!(
            "{kind} carries {} word(s) after its head where its shape needs {needs}",
            self.remaining()
        )))
    }

    /// The head of an operand payload, `[order, dims.., rank]`, validated:
    /// [`Payload::take_dims`], `rank >= 1`, and the words left behind it
    /// equal to exactly what that shape needs (`Π dims + Σ dims[k] × rank`,
    /// in checked arithmetic) — all before any operand is allocated.
    pub fn take_operand_head(&mut self) -> Result<OperandHead, WireError> {
        let (dims, elements) = self.take_dims()?;
        let rank = self.take_usize("rank")?;
        if rank == 0 {
            return Err(malformed("rank is zero".into()));
        }
        let needs = dims
            .iter()
            .try_fold(elements, |sum, &d| sum.checked_add(d.checked_mul(rank)?));
        self.expect_remaining(needs, "operand payload")?;
        Ok(OperandHead {
            dims,
            elements,
            rank,
        })
    }

    /// The operands `head` describes — `X` row-major, then
    /// [`Payload::take_factors`] — each read into the `Vec` its tensor or
    /// matrix owns.
    pub fn take_operands(
        &mut self,
        head: &OperandHead,
    ) -> Result<(DenseTensor, Vec<Matrix>), WireError> {
        let x = self.take_vec(head.elements, "tensor data")?;
        let x = DenseTensor::from_vec(Shape::new(&head.dims), x);
        Ok((x, self.take_factors(&head.dims, head.rank)?))
    }

    /// One factor per mode, factor `k` as `dims[k] × rank` row-major, each
    /// read into the `Vec` its matrix owns.
    pub fn take_factors(&mut self, dims: &[usize], rank: usize) -> Result<Vec<Matrix>, WireError> {
        let mut factors = Vec::with_capacity(dims.len());
        for &d in dims {
            let data = self.take_vec(d * rank, "factor data")?;
            factors.push(Matrix::from_rows_vec(d, rank, data));
        }
        Ok(factors)
    }

    /// Fails if any word is left.
    pub fn finish(self, kind: &str) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(malformed(format!(
                "{kind} payload has {n} trailing word(s)"
            ))),
        }
    }

    /// Discards whatever is left, keeping a stream in sync past a payload
    /// its reader has refused (bounded by the validated header, through the
    /// chunk buffer; nothing is allocated for it).
    pub fn skip_rest(&mut self) -> Result<(), WireError> {
        match &mut self.src {
            Source::Slice(words) => *words = &[],
            Source::Stream { r, left } => {
                skip_words(r, std::mem::take(left))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Launcher payload encodings (chunks and ledgers as words)
// ---------------------------------------------------------------------------

/// Encodes a measured ledger as frame payload words: five words per
/// collective, `[phase_tag, mode, words_sent, words_received,
/// messages_sent]`, with tags 0 = tensor all-gather, 1 = factor
/// all-gather, 2 = output reduce-scatter, 3 = unscheduled. All quantities
/// are exact in `f64` (word counts are far below 2^53).
pub fn encode_ledger(phases: &[PhaseTraffic]) -> Vec<f64> {
    let mut out = Vec::with_capacity(5 * phases.len());
    for t in phases {
        let (tag, mode) = match t.phase {
            Phase::TensorAllGather => (0.0, 0.0),
            Phase::FactorAllGather { mode } => (1.0, mode as f64),
            Phase::OutputReduceScatter => (2.0, 0.0),
            Phase::Unscheduled => (3.0, 0.0),
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
                3 => Phase::Unscheduled,
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
    let mut out = operand_head(dims, rank);
    out.reserve_exact(x.data().len() + factors.iter().map(|f| f.data().len()).sum::<usize>());
    out.extend_from_slice(x.data());
    for (k, f) in factors.iter().enumerate() {
        assert_eq!((f.rows(), f.cols()), (dims[k], rank), "factor {k} shape");
        out.extend_from_slice(f.data());
    }
    out
}

/// `[order, dims.., rank]`: the words [`Payload::take_operand_head`] reads
/// back, in front of every shipped operand set (a `LAUNCH` payload, a serve
/// `MTTKRP_REQ` after its mode word).
pub fn operand_head(dims: &[usize], rank: usize) -> Vec<f64> {
    let mut head = Vec::with_capacity(2 + dims.len());
    head.push(dims.len() as f64);
    head.extend(dims.iter().map(|&d| d as f64));
    head.push(rank as f64);
    head
}

/// Decodes [`encode_operands`] output. The shape is validated and every
/// length checked against it before anything is built
/// ([`Payload::take_operand_head`]): a hostile payload is a
/// [`WireError::Malformed`], never an overflow or an operand-sized
/// allocation.
pub fn decode_operands(words: &[f64]) -> Result<(DenseTensor, Vec<Matrix>), WireError> {
    let mut payload = Payload::of(words);
    let head = payload.take_operand_head()?;
    payload.take_operands(&head)
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
    let mut bytes: Vec<u8> = rest.iter().flat_map(|w| w.to_le_bytes()).collect();
    bytes.truncate(len);
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame's bytes, as [`write_frame`] puts them on a stream.
    fn to_bytes(frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, frame).unwrap();
        out
    }

    /// The one frame `bytes` hold, read as a connection reads it; bytes
    /// left behind it fail the test.
    fn read_one(mut bytes: &[u8]) -> Result<Frame, WireError> {
        let frame = read_frame(&mut bytes)?;
        assert!(bytes.is_empty(), "{} bytes after the frame", bytes.len());
        Ok(frame)
    }

    #[test]
    fn roundtrip_data_poison_fin() {
        for frame in [
            Frame::data(7, 0xDEAD_BEEF, vec![1.5, -2.25, 0.0]),
            Frame::data(0, 3, Vec::new()),
            Frame::poison(2),
            Frame::fin(5),
        ] {
            let bytes = to_bytes(&frame);
            assert_eq!(read_one(&bytes).unwrap(), frame, "{frame:?}");
            assert_eq!(frame_wire_bytes(&frame), bytes.len(), "{frame:?}");
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let bytes = to_bytes(&Frame::data(1, 9, vec![3.0, 4.0]));
        for cut in 0..bytes.len() {
            let err = read_one(&bytes[..cut]).unwrap_err();
            assert_eq!(
                err,
                WireError::Io(std::io::ErrorKind::UnexpectedEof),
                "cut at {cut}"
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
            read_one(&bytes).unwrap_err(),
            WireError::Oversized { .. }
        ));
        // A length that cannot hold the fixed header.
        let tiny = 5u32.to_le_bytes();
        assert!(matches!(
            read_one(&tiny).unwrap_err(),
            WireError::BadLength(5)
        ));
        // A length with a fractional payload word.
        let frac = ((HEADER_BODY_BYTES + 3) as u32).to_le_bytes();
        assert!(matches!(
            read_one(&frac).unwrap_err(),
            WireError::BadLength(_)
        ));
    }

    #[test]
    fn bad_flags_are_rejected() {
        let mut bytes = to_bytes(&Frame::data(1, 9, vec![]));
        *bytes.last_mut().unwrap() = 9; // flags byte of an empty-payload frame
        assert_eq!(read_one(&bytes).unwrap_err(), WireError::BadFlags(9));
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
            PhaseTraffic {
                phase: Phase::Unscheduled,
                words_sent: 4,
                words_received: 5,
                messages_sent: 2,
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
            CTRL_MTTKRP_KEEP,
            CTRL_MTTKRP_KEPT,
            CTRL_MTTKRP_HELD,
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
            let bytes = to_bytes(&frame);
            let back = read_one(&bytes).unwrap();
            assert_eq!(back, frame, "{frame:?}");
            assert_eq!(back.trace, Some(ctx));
            assert_eq!(frame_wire_bytes(&frame), bytes.len(), "{frame:?}");
        }
        // A FIN never carries a header (flags_for maps FIN before TRACED).
        let fin = Frame::fin(0).with_trace(Some(ctx));
        assert_eq!(read_one(&to_bytes(&fin)).unwrap().trace, None);
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
                matches!(read_one(&bytes).unwrap_err(), WireError::BadLength(_)),
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

    /// A `Write` that records the size of every `write` call it is given.
    #[derive(Default)]
    struct WriteLog {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `Read` that hands out at most `step` bytes per call.
    struct Drip<'a>(&'a [u8], usize);

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.1);
            self.0.read(&mut buf[..n])
        }
    }

    /// Payload sizes that put the frame one word under, exactly at and one
    /// word over the chunk buffer, the same around two chunks, and a few
    /// chunks more — with and without a trace header in front.
    fn frames_around_the_chunk() -> Vec<Frame> {
        let ctx = TraceContext {
            trace_hi: 1,
            trace_lo: 2,
            proc: 3,
            parent_span: 4,
        };
        let chunk_words = CHUNK_BYTES / 8;
        let mut frames = Vec::new();
        for trace in [None, Some(ctx)] {
            let header_words = if trace.is_some() {
                TRACE_HEADER_WORDS
            } else {
                0
            };
            let fit = (CHUNK_BYTES - 4 - HEADER_BODY_BYTES) / 8 - header_words;
            for words in [
                0,
                1,
                fit - 1,
                fit,
                fit + 1,
                fit + chunk_words - 1,
                fit + chunk_words,
                fit + chunk_words + 1,
                3 * chunk_words + 5,
            ] {
                let payload = (0..words).map(|i| i as f64 * 0.5 - 7.0).collect();
                frames.push(Frame::data(3, 77, payload).with_trace(trace));
            }
        }
        frames
    }

    #[test]
    fn a_frame_that_fits_the_chunk_leaves_in_one_write() {
        let mut small = vec![
            Frame::poison(1),
            Frame::fin(2),
            Frame::data(0, CTRL_SWEEP, vec![1.0, 2.0, 3.0]),
        ];
        small.extend(frames_around_the_chunk());
        for frame in small {
            let mut log = WriteLog::default();
            write_frame(&mut log, &frame).unwrap();
            let total = frame_wire_bytes(&frame);
            assert_eq!(log.bytes.len(), total);
            if total <= CHUNK_BYTES {
                assert_eq!(log.writes, [total], "{} payload words", frame.payload.len());
            } else {
                // Header and first payload words together, never a bare
                // 17-byte write; every write bounded by the chunk.
                assert!(log.writes[0] > CHUNK_BYTES - 8, "{:?}", log.writes);
                assert!(log.writes.iter().all(|&n| n <= CHUNK_BYTES));
            }
        }
    }

    #[test]
    fn split_parts_and_dripped_reads_agree_with_encode_at_chunk_boundaries() {
        for frame in frames_around_the_chunk() {
            let bytes = to_bytes(&frame);
            assert_eq!(bytes.len(), frame_wire_bytes(&frame));
            // The writer: the same bytes however the payload is cut.
            let words = &frame.payload[..];
            for cut in [0, 1, words.len() / 3, words.len().saturating_sub(1)] {
                let cut = cut.min(words.len());
                let mut out = Vec::new();
                let parts = [&words[..cut], &[][..], &words[cut..]];
                let n = write_parts(&mut out, frame.from, frame.comm_id, frame.trace, &parts);
                assert_eq!(n.unwrap(), bytes.len());
                assert!(out == bytes, "{} words cut at {cut}", words.len());
            }
            // The reader: the same frame however the bytes trickle in.
            for step in [7, 4096, CHUNK_BYTES + 1] {
                let mut drip = Drip(&bytes, step);
                let header = read_header(&mut drip).unwrap();
                assert_eq!(header.words, words.len());
                assert_eq!(header.wire_bytes(), bytes.len());
                assert_eq!(read_payload(&mut drip, &header).unwrap(), frame);
                assert!(drip.0.is_empty());
            }
            assert_eq!(read_one(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn a_refused_stream_payload_is_drained_to_the_next_frame() {
        // An operand payload whose header promises one word more than its
        // shape needs, then a sound frame behind it on the same stream.
        let x = DenseTensor::from_vec(Shape::new(&[2, 2]), vec![1.0, 2.0, 3.0, 4.0]);
        let a = Matrix::from_rows_vec(2, 1, vec![5.0, 6.0]);
        let mut words = encode_operands(&x, &[&a, &a]);
        words.push(0.0);
        let mut stream = to_bytes(&Frame::data(1, CTRL_LAUNCH, words));
        stream.extend(to_bytes(&Frame::data(2, 9, vec![8.0])));
        let mut r = &stream[..];
        let header = read_header(&mut r).unwrap();
        let mut payload = Payload::streaming(&mut r, &header);
        let err = payload.take_operand_head().unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        payload.skip_rest().unwrap();
        assert_eq!(payload.remaining(), 0);
        assert_eq!(read_frame(&mut r).unwrap(), Frame::data(2, 9, vec![8.0]));
    }
}
