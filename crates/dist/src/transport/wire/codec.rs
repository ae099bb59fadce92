//! The streaming core — one writer ([`write_with`]), one header parser
//! ([`read_header`]), one word reader — and the payload cursor ([`Payload`])
//! whose field readers, with their writer side [`Put`], are what the frame
//! tables are written in. Every byte a frame puts on a stream or takes off
//! one passes through here, and nothing here can panic on what a peer
//! sends: the four lints below make an index, an unchecked sum, an `unwrap`
//! or an `expect` a compile error.

#![deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::expect_used,
    clippy::unwrap_used
)]

use mttkrp_obs::TraceContext;
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::borrow::{Borrow, Cow};
use std::cell::Cell;
use std::io::{self, Read, Write};

/// Largest admissible payload, in words: 2^27 `f64`s = 1 GiB, so a
/// corrupt length prefix fails fast instead of OOM-ing the receiver.
pub const MAX_PAYLOAD_WORDS: usize = 1 << 27;

/// Start of the reserved control-id space. Data frames must carry a
/// communicator id *below* this; the FNV-64 communicator ids effectively
/// never land in the top 32 values.
pub const CTRL_BASE: u64 = u64::MAX - 31;

/// 2^53: the integers above it are not all representable in an `f64`.
const MAX_INT: f64 = 9_007_199_254_740_992.0;

/// Fixed body bytes before the payload: from (4) + comm_id (8) + flags (1).
pub(super) const HEADER_BODY_BYTES: usize = 13;
/// The length prefix and the fixed body.
const HEADER_BYTES: usize = 4 + HEADER_BODY_BYTES;

const FLAG_DATA: u8 = 0;
const FLAG_POISON: u8 = 1;
const FLAG_FIN: u8 = 2;
/// A data frame whose first [`TRACE_HEADER_WORDS`] payload words are a
/// bit-cast [`TraceContext`].
const FLAG_TRACED: u8 = 4;

/// Payload words a trace header occupies on the wire.
pub(super) const TRACE_HEADER_WORDS: usize = 4;

/// The id of the orderly-goodbye frame, whose flags byte says so.
pub(super) const FIN_ID: u64 = u64::MAX - 2;

/// Bytes moved per `write`/`read` call; a frame that fits leaves in one
/// `write`. On `serve-socket`, 64 KiB took most of 256 KiB's gain over
/// 16 KiB for a buffer that stays in L2 beside the operands it feeds.
pub(super) const CHUNK_BYTES: usize = 64 * 1024;

/// One wire message: the exact content of a transport packet.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Sender world rank (the front door's request tag).
    pub from: u32,
    /// Communicator id (a netsim [`mttkrp_netsim::Comm::id`]) or a
    /// reserved control id.
    pub comm_id: u64,
    /// Poison flag: the sender panicked; receivers must abort.
    pub poison: bool,
    /// The trace-context header the sender attached (never on a FIN).
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
            poison: true,
            ..Frame::data(from, 0, Vec::new())
        }
    }

    /// An orderly-goodbye frame: `from` finished its rank program.
    pub fn fin(from: usize) -> Frame {
        Frame::data(from, FIN_ID, Vec::new())
    }

    /// Attaches a trace-context header (`None` leaves the frame untraced).
    pub fn with_trace(mut self, trace: Option<TraceContext>) -> Frame {
        self.trace = trace;
        self
    }
}

/// Why a byte sequence is not a frame, or a frame not a message.
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
    /// The frame is sound but its payload is not what its kind requires.
    Malformed(String),
    /// No row of the reading table takes this id in this direction (or
    /// the frame is poison); its payload has been skipped.
    Kind(u64),
    /// The underlying reader failed (connection reset, EOF mid-frame, ...).
    Io(io::ErrorKind),
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
            WireError::Kind(id) => write!(f, "no frame of kind {id:#x} is read here"),
            WireError::Io(kind) => write!(f, "i/o error reading frame: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

fn io_error(e: io::Error) -> WireError {
    WireError::Io(e.kind())
}

/// The flags byte of a frame with these fields. FIN frames never carry
/// context: they are connection teardown, not work, and keeping them
/// headerless lets pre-trace peers drain them.
fn flags_for(poison: bool, comm_id: u64, traced: bool) -> u8 {
    let trace = if traced { FLAG_TRACED } else { 0 };
    match (poison, comm_id == FIN_ID) {
        (true, _) => FLAG_POISON | trace,
        (false, true) => FLAG_FIN,
        (false, false) => FLAG_DATA | trace,
    }
}

/// Size on the wire, length prefix included, of a frame with `words` payload
/// words behind its (optional) trace header; `None` past any frame.
fn wire_bytes(words: usize, traced: bool) -> Option<usize> {
    let header = if traced { TRACE_HEADER_WORDS } else { 0 };
    words
        .checked_add(header)
        .filter(|&w| w <= MAX_PAYLOAD_WORDS)?
        .checked_mul(8)?
        .checked_add(HEADER_BYTES)
}

/// Encoded size of `frame` on the wire, length prefix included.
pub fn frame_wire_bytes(frame: &Frame) -> usize {
    let traced = flags_for(frame.poison, frame.comm_id, frame.trace.is_some()) & FLAG_TRACED != 0;
    wire_bytes(frame.payload.len(), traced).unwrap_or(usize::MAX)
}

thread_local! {
    /// The calling thread's chunk buffer, kept between frames so a
    /// connection's reader and writer threads allocate it once.
    static CHUNK: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on the first `len <= CHUNK_BYTES` bytes of this thread's chunk
/// buffer, taken out of its slot for the call.
fn with_chunk<T>(len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
    let mut buf = CHUNK.take();
    let len = len.min(CHUNK_BYTES);
    if buf.len() < len {
        buf.resize(len, 0);
    }
    let out = f(buf.get_mut(..len).unwrap_or_default());
    CHUNK.set(buf);
    out
}

/// Where a payload's words go: a stream's chunk buffer, or a `Vec`.
pub trait Emit {
    /// Appends every word of `words`, in order.
    fn words(&mut self, words: &[f64]) -> io::Result<()>;
}

impl Emit for Vec<f64> {
    fn words(&mut self, words: &[f64]) -> io::Result<()> {
        self.extend_from_slice(words);
        Ok(())
    }
}

/// The chunk buffer in front of a stream, written out whenever it is full.
struct Sink<'b, W: Write + ?Sized> {
    w: &'b mut W,
    buf: &'b mut [u8],
    fill: usize,
}

impl<W: Write + ?Sized> Sink<'_, W> {
    fn flush(&mut self) -> io::Result<()> {
        self.w
            .write_all(self.buf.get(..self.fill).unwrap_or_default())?;
        self.fill = 0;
        Ok(())
    }
}

impl<W: Write + ?Sized> Emit for Sink<'_, W> {
    fn words(&mut self, mut words: &[f64]) -> io::Result<()> {
        while !words.is_empty() {
            let free = self.buf.get_mut(self.fill..).unwrap_or_default();
            if free.len() < 8 {
                self.flush()?;
                continue;
            }
            let moved = (free.chunks_exact_mut(8).zip(words))
                .map(|(dst, word)| dst.copy_from_slice(&word.to_le_bytes()))
                .count();
            self.fill = self.fill.saturating_add(moved.saturating_mul(8));
            words = words.get(moved..).unwrap_or_default();
        }
        Ok(())
    }
}

/// The one writer: the 17-byte header, the trace words, then `payload`'s
/// words through the chunk buffer. A frame that fits the chunk leaves in
/// one `write_all`: a second small write on a socket waits out the peer's
/// delayed ACK (≈ 40 ms). Returns the bytes written.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD_WORDS`] (see [`write_frame`]).
pub(super) fn write_with<W: Write + ?Sized>(
    w: &mut W,
    from: u32,
    comm_id: u64,
    poison: bool,
    trace: Option<TraceContext>,
    payload: &(impl Put + ?Sized),
) -> io::Result<usize> {
    let flags = flags_for(poison, comm_id, trace.is_some());
    let trace = trace.filter(|_| flags & FLAG_TRACED != 0);
    let words = payload.words();
    let Some(frame_bytes) = wire_bytes(words, trace.is_some()) else {
        panic!("frame payload of {words} words exceeds the {MAX_PAYLOAD_WORDS}-word wire limit")
    };
    // At most 17 + 8 × 2^27 bytes: the body length fits a `u32`.
    let body_len = frame_bytes.saturating_sub(4) as u32;
    with_chunk(frame_bytes, |buf| {
        let head = (body_len.to_le_bytes().into_iter())
            .chain(from.to_le_bytes())
            .chain(comm_id.to_le_bytes())
            .chain([flags]);
        buf.iter_mut().zip(head).for_each(|(dst, b)| *dst = b);
        let mut sink = Sink {
            w,
            buf,
            fill: HEADER_BYTES,
        };
        if let Some(ctx) = trace {
            sink.words(&ctx.to_words().map(f64::from_bits))?;
        }
        payload.put(&mut sink)?;
        sink.flush()?;
        Ok(frame_bytes)
    })
}

/// Writes one frame to `w`: one `write_all` if it fits the chunk buffer,
/// else one per chunk.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD_WORDS`]: writing it anyway
/// would wrap the length prefix or blame the receiver.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let (from, comm_id, payload) = (frame.from, frame.comm_id, &[&frame.payload[..]][..]);
    write_with(w, from, comm_id, frame.poison, frame.trace, payload).map(drop)
}

/// Writes a data frame whose payload is `parts` one after another, with
/// no payload built first. Returns the bytes written.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD_WORDS`] (see [`write_frame`]).
pub fn write_parts(
    w: &mut (impl Write + ?Sized),
    from: u32,
    comm_id: u64,
    trace: Option<TraceContext>,
    parts: &[&[f64]],
) -> io::Result<usize> {
    write_with(w, from, comm_id, false, trace, parts)
}

/// Validates a length prefix: the payload word count it implies, if any.
fn payload_words(len: u32) -> Result<usize, WireError> {
    let body = (len as usize)
        .checked_sub(HEADER_BODY_BYTES)
        .filter(|b| b.is_multiple_of(8))
        .ok_or(WireError::BadLength(len))?;
    let words = body / 8;
    if words > MAX_PAYLOAD_WORDS {
        return Err(WireError::Oversized { words });
    }
    Ok(words)
}

/// Everything a frame says before its payload, validated by [`read_header`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameHeader {
    /// Sender world rank (the front door's request tag).
    pub from: u32,
    /// Communicator id or a reserved control id.
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
        wire_bytes(self.words, self.trace.is_some()).unwrap_or(usize::MAX)
    }

    /// The header of a frame already decoded.
    pub(super) fn of(f: &Frame) -> FrameHeader {
        let words = f.payload.len();
        FrameHeader {
            from: f.from,
            comm_id: f.comm_id,
            poison: f.poison,
            trace: f.trace,
            words,
        }
    }
}

/// The one header parser: reads a frame up to its payload and validates
/// it — the length prefix before another byte is read or anything is
/// allocated, then the flags byte, then room for a trace header.
pub fn read_header(r: &mut (impl Read + ?Sized)) -> Result<FrameHeader, WireError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix).map_err(io_error)?;
    let len = u32::from_le_bytes(prefix);
    let words = payload_words(len)?;
    let mut fixed = [0u8; HEADER_BODY_BYTES];
    r.read_exact(&mut fixed).map_err(io_error)?;
    let [f0, f1, f2, f3, c0, c1, c2, c3, c4, c5, c6, c7, flags] = fixed;
    let base = flags & !FLAG_TRACED;
    if !matches!(base, FLAG_DATA | FLAG_POISON | FLAG_FIN) || (flags == FLAG_FIN | FLAG_TRACED) {
        return Err(WireError::BadFlags(flags));
    }
    let mut header = FrameHeader {
        from: u32::from_le_bytes([f0, f1, f2, f3]),
        comm_id: u64::from_le_bytes([c0, c1, c2, c3, c4, c5, c6, c7]),
        poison: base == FLAG_POISON,
        trace: None,
        words,
    };
    if flags & FLAG_TRACED != 0 {
        header.words = words
            .checked_sub(TRACE_HEADER_WORDS)
            .ok_or(WireError::BadLength(len))?;
        let mut ctx = [0u8; 8 * TRACE_HEADER_WORDS];
        r.read_exact(&mut ctx).map_err(io_error)?;
        let mut w = [0u64; TRACE_HEADER_WORDS];
        for (slot, b) in w.iter_mut().zip(ctx.chunks_exact(8)) {
            *slot = u64::from_le_bytes(b.try_into().unwrap_or_default());
        }
        header.trace = Some(TraceContext::from_words(w));
    }
    Ok(header)
}

/// Moves the next `n` payload words of `r` through the chunk buffer, one
/// `read_exact` per chunk, handing each chunk's bytes to `sink`.
fn for_each_chunk(
    r: &mut (impl Read + ?Sized),
    n: usize,
    mut sink: impl FnMut(&[u8]),
) -> Result<(), WireError> {
    with_chunk(n.saturating_mul(8), |buf| {
        let mut left = n;
        while left > 0 {
            let step = left.min(buf.len() / 8);
            let bytes = buf.get_mut(..step.saturating_mul(8)).unwrap_or_default();
            r.read_exact(bytes).map_err(io_error)?;
            sink(bytes);
            left = left.saturating_sub(step);
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
            (bytes.chunks_exact(8)).map(|b| f64::from_le_bytes(b.try_into().unwrap_or_default())),
        );
    })
}

/// Reads the payload `header` announces into a [`Frame`].
pub fn read_payload(r: &mut (impl Read + ?Sized), h: &FrameHeader) -> Result<Frame, WireError> {
    let mut payload = Vec::new();
    read_words(r, h.words, &mut payload)?;
    let (from, comm_id, poison, trace) = (h.from, h.comm_id, h.poison, h.trace);
    Ok(Frame {
        from,
        comm_id,
        poison,
        trace,
        payload,
    })
}

/// Reads one frame from `r`, blocking until it is complete (an EOF before
/// its first byte is `Io(UnexpectedEof)` like any other short read).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let header = read_header(r)?;
    read_payload(r, &header)
}

// ---------------------------------------------------------------------------
// Payload cursor: validated fields from a decoded frame or straight off a stream
// ---------------------------------------------------------------------------

/// `Err(WireError::Malformed(format!(...)))`.
macro_rules! malformed {
    ($($why:tt)*) => { Err(WireError::Malformed(format!($($why)*))) };
}

/// A frame's payload words, taken in order with honest errors — no index
/// arithmetic a malformed length can knock off the rails. The words come
/// either from a decoded [`Frame`]'s payload ([`Payload::of`]) or straight
/// off the stream behind a [`FrameHeader`] ([`Payload::streaming`]), so one
/// reader per table serves both: on a stream, the operands a head describes
/// are read directly into the buffers that will own them.
pub struct Payload<'a> {
    src: Source<'a>,
}

enum Source<'a> {
    Slice(&'a [f64]),
    Stream { r: &'a mut dyn Read, left: usize },
}

/// A shipped operand set: `[order, dims.., rank]`, the tensor row-major,
/// then factor `k` as `dims[k] × rank` row-major per mode. Every value is
/// moved verbatim, so a shipped operand set is bit-identical on arrival.
#[derive(Clone, Debug, PartialEq)]
pub struct Operands<'a> {
    /// The tensor.
    pub x: Cow<'a, DenseTensor>,
    /// One factor per mode, each `dims[k] × rank`.
    pub factors: Cow<'a, [Matrix]>,
}

/// The operands a launcher ships to its ranks: [`Operands`]' words, with
/// each factor held on its own — owned as read, or borrowed from the
/// references a launcher is handed, so writing them copies no matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Shipment<'a> {
    /// The tensor.
    pub x: Cow<'a, DenseTensor>,
    /// One factor per mode, each `dims[k] × rank`.
    pub factors: Vec<Cow<'a, Matrix>>,
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
        let left = header.words;
        Payload {
            src: Source::Stream { r, left },
        }
    }

    /// Words not yet taken.
    fn remaining(&self) -> usize {
        match &self.src {
            Source::Slice(words) => words.len(),
            Source::Stream { left, .. } => *left,
        }
    }

    /// Claims the next `n` words for `what`, failing before anything is
    /// read or allocated if fewer are left.
    fn claim(&mut self, n: usize, what: &str) -> Result<(), WireError> {
        let have = self.remaining();
        if n > have {
            return malformed!("payload too short for {what}: need {n} more words, have {have}");
        }
        if let Source::Stream { left, .. } = &mut self.src {
            *left = have.saturating_sub(n);
        }
        Ok(())
    }

    /// The next `n` words as the `Vec` that will own them: copied out of a
    /// decoded payload, or read off the stream into it directly.
    fn take_vec(&mut self, n: usize, what: &str) -> Result<Vec<f64>, WireError> {
        self.claim(n, what)?;
        let mut out = Vec::new();
        match &mut self.src {
            Source::Slice(words) => {
                let (now, later) = words.split_at(n.min(words.len()));
                out.extend_from_slice(now);
                *words = later;
            }
            Source::Stream { r, .. } => read_words(r, n, &mut out)?,
        }
        Ok(out)
    }

    /// The next word, whatever its bits.
    pub fn word(&mut self, what: &str) -> Result<f64, WireError> {
        self.claim(1, what)
            .map_err(|_| WireError::Malformed(format!("payload ends before {what}")))?;
        match &mut self.src {
            Source::Slice(words) => {
                let (&w, later) = words.split_first().unwrap_or((&0.0, &[]));
                *words = later;
                Ok(w)
            }
            Source::Stream { r, .. } => {
                let mut bytes = [0u8; 8];
                r.read_exact(&mut bytes).map_err(io_error)?;
                Ok(f64::from_le_bytes(bytes))
            }
        }
    }

    /// A small nonnegative integer (`<= 2^53`, exactly representable).
    pub fn int(&mut self, what: &str) -> Result<u64, WireError> {
        let w = self.word(what)?;
        if !w.is_finite() || w < 0.0 || w.fract() != 0.0 || w > MAX_INT {
            return malformed!("{what} is not a small nonnegative integer: {w}");
        }
        Ok(w as u64)
    }

    /// [`Payload::int`] as a `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize, WireError> {
        let n = self.int(what)?;
        let fits = usize::try_from(n);
        fits.map_err(|_| WireError::Malformed(format!("{what} {n} does not fit a usize")))
    }

    /// [`Payload::usize`], at least 1.
    pub fn count(&mut self, what: &str) -> Result<usize, WireError> {
        match self.usize(what)? {
            0 => malformed!("{what} is zero"),
            n => Ok(n),
        }
    }

    /// A 0/1 flag.
    pub fn flag(&mut self, what: &str) -> Result<bool, WireError> {
        match self.int(what)? {
            n @ (0 | 1) => Ok(n == 1),
            n => malformed!("{what} is not a 0/1 flag: {n}"),
        }
    }

    /// A finite word.
    pub fn finite(&mut self, what: &str) -> Result<f64, WireError> {
        match self.word(what)? {
            w if w.is_finite() => Ok(w),
            w => malformed!("{what} is not finite: {w}"),
        }
    }

    /// `n` words.
    pub fn vec(&mut self, what: &str, n: &usize) -> Result<Cow<'static, [f64]>, WireError> {
        self.take_vec(*n, what).map(Cow::Owned)
    }

    /// Every word left.
    pub fn words(&mut self, what: &str) -> Result<Cow<'static, [f64]>, WireError> {
        self.take_vec(self.remaining(), what).map(Cow::Owned)
    }

    /// Every word left, each a small nonnegative integer.
    pub fn ints(&mut self, what: &str) -> Result<Cow<'static, [u64]>, WireError> {
        let mut out = Vec::with_capacity(self.remaining().min(1024));
        while self.remaining() > 0 {
            out.push(self.int(what)?);
        }
        Ok(Cow::Owned(out))
    }

    /// UTF-8 text: the byte length, then the bytes eight per word
    /// (zero-padded tail). The length must agree with the words that
    /// follow; invalid UTF-8 decodes lossily (text frames are diagnostics,
    /// and a garbled message beats a dropped one).
    pub fn text(&mut self, what: &str) -> Result<Cow<'static, str>, WireError> {
        let (len, have) = (self.usize(what)?, self.remaining());
        if len.div_ceil(8) != have {
            return malformed!("{what} of {len} bytes in {have} words");
        }
        let words = self.take_vec(have, what)?;
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.truncate(len);
        Ok(Cow::Owned(String::from_utf8_lossy(&bytes).into_owned()))
    }

    /// `[order, dims..]`: an order in 2..=16, every dimension at least 1,
    /// and an element count that does not overflow and that one frame
    /// could carry.
    pub fn dims(&mut self, what: &str) -> Result<Cow<'static, [usize]>, WireError> {
        let order = self.usize(what)?;
        if !(2..=16).contains(&order) {
            return malformed!("tensor order {order} outside the supported 2..=16");
        }
        let dims = (0..order)
            .map(|_| self.count(what))
            .collect::<Result<Vec<_>, _>>()?;
        elements(&dims)?;
        Ok(Cow::Owned(dims))
    }

    /// A tensor of shape `dims` (validated by [`Payload::dims`]), row-major.
    pub fn tensor(
        &mut self,
        what: &str,
        dims: &[usize],
    ) -> Result<Cow<'static, DenseTensor>, WireError> {
        if dims.is_empty() || dims.contains(&0) {
            return malformed!("{what} has no modes or a zero dimension");
        }
        let x = self.take_vec(elements(dims)?, what)?;
        Ok(Cow::Owned(DenseTensor::from_vec(Shape::new(dims), x)))
    }

    /// A `rows × cols` matrix, row-major.
    pub fn matrix(
        &mut self,
        what: &str,
        rows: &usize,
        cols: &usize,
    ) -> Result<Cow<'static, Matrix>, WireError> {
        let Some(n) = rows.checked_mul(*cols).filter(|&n| n > 0) else {
            return malformed!("{what} of {rows} x {cols} is empty or overflows");
        };
        let data = self.take_vec(n, what)?;
        Ok(Cow::Owned(Matrix::from_rows_vec(*rows, *cols, data)))
    }

    /// One factor per mode, factor `k` as `dims[k] × rank` row-major, each
    /// read into the `Vec` its matrix owns once all of them are known to be
    /// on the payload.
    pub fn factors(
        &mut self,
        what: &str,
        dims: &[usize],
        rank: &usize,
    ) -> Result<Cow<'static, [Matrix]>, WireError> {
        if factor_words(dims, *rank).is_none_or(|n| n > self.remaining()) {
            return malformed!(
                "payload too short for {what}: {} word(s) left",
                self.remaining()
            );
        }
        let factors = dims
            .iter()
            .map(|d| self.matrix(what, d, rank).map(Cow::into_owned));
        factors.collect::<Result<Vec<_>, _>>().map(Cow::Owned)
    }

    /// `[order, dims.., rank, X.., factors..]` ([`Operands`]): the head
    /// validated and the words behind it equal to exactly what that shape
    /// needs (`Π dims + Σ dims[k] × rank`, in checked arithmetic), all
    /// before any operand is allocated.
    pub fn operands(&mut self, what: &str) -> Result<Operands<'static>, WireError> {
        let (dims, rank) = (self.dims(what)?, self.count(what)?);
        let needs = factor_words(&dims, rank).and_then(|n| n.checked_add(elements(&dims).ok()?));
        if needs != Some(self.remaining()) {
            let needs = needs.map_or("more than any frame holds".into(), |n| n.to_string());
            let have = self.remaining();
            return malformed!(
                "{what} carries {have} word(s) after its head where its shape needs {needs}"
            );
        }
        let x = self.tensor(what, &dims)?;
        Ok(Operands {
            x,
            factors: self.factors(what, &dims, &rank)?,
        })
    }

    /// A slot of `kept`: below its [`Slots::slots`].
    pub fn slot(&mut self, what: &str, kept: &&dyn Slots) -> Result<usize, WireError> {
        let (slot, slots) = (self.usize(what)?, kept.slots());
        if slot >= slots {
            return malformed!("{what} {slot} is not one of the connection's {slots}");
        }
        Ok(slot)
    }

    /// [`Payload::slot`], emptied before the tensor that refills it is read.
    pub fn refill(&mut self, what: &str, kept: &&dyn Slots) -> Result<usize, WireError> {
        let slot = self.slot(what, kept)?;
        kept.release(slot);
        Ok(slot)
    }

    /// [`Payload::factors`] against the shape of the tensor `slot` keeps.
    pub fn kept_factors(
        &mut self,
        what: &str,
        kept: &&dyn Slots,
        slot: &usize,
        rank: &usize,
    ) -> Result<Cow<'static, [Matrix]>, WireError> {
        let mut read = None;
        kept.dims(*slot, &mut |dims| {
            read = Some(self.factors(what, dims, rank))
        });
        read.unwrap_or_else(|| malformed!("{what} for slot {slot}, which keeps no tensor"))
    }

    /// `[0]`, or `[1]` and then [`Payload::operands`], as a [`Shipment`].
    pub fn maybe_operands(&mut self, what: &str) -> Result<Option<Shipment<'static>>, WireError> {
        if !self.flag(what)? {
            return Ok(None);
        }
        let Operands { x, factors } = self.operands(what)?;
        let factors = factors.into_owned().into_iter().map(Cow::Owned).collect();
        Ok(Some(Shipment { x, factors }))
    }

    /// Fails if any word is left.
    pub(super) fn finish(&self, kind: &str) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => malformed!("{kind} payload has {n} trailing word(s)"),
        }
    }

    /// Discards whatever is left, keeping a stream in sync past a payload
    /// its reader has refused (bounded by the validated header, through the
    /// chunk buffer; nothing is allocated for it).
    pub fn skip_rest(&mut self) -> Result<(), WireError> {
        match &mut self.src {
            Source::Slice(words) => *words = &[],
            Source::Stream { r, left } => for_each_chunk(r, std::mem::take(left), |_| {})?,
        }
        Ok(())
    }
}

/// The tensors a front-door connection keeps, by slot, as the reader of its
/// table sees them: an `MTTKRP_REQ` empties its slot before the tensor that
/// refills it is read, and an `MTTKRP_KEPT`'s factors are read against its
/// slot's shape. A shape alone is one slot keeping a tensor of that shape
/// (nothing, if the shape is empty).
pub trait Slots {
    /// How many slots there are: a slot word must be below this.
    fn slots(&self) -> usize;
    /// Hands `read` the shape of the tensor `slot` keeps, if it keeps one.
    fn dims(&self, slot: usize, read: &mut dyn FnMut(&[usize]));
    /// Empties `slot`.
    fn release(&self, slot: usize);
}

impl<const N: usize> Slots for [usize; N] {
    fn slots(&self) -> usize {
        1
    }

    fn dims(&self, slot: usize, read: &mut dyn FnMut(&[usize])) {
        if slot == 0 && N > 0 {
            read(self);
        }
    }

    fn release(&self, _: usize) {}
}

/// `Π dims`, in checked arithmetic and no more than one frame holds.
fn elements(dims: &[usize]) -> Result<usize, WireError> {
    match dims.iter().try_fold(1usize, |n, d| n.checked_mul(*d)) {
        Some(n) if n <= MAX_PAYLOAD_WORDS => Ok(n),
        _ => malformed!("tensor element count exceeds the wire limit"),
    }
}

/// `Σ dims × rank`, in checked arithmetic; `None` past any frame.
fn factor_words(dims: &[usize], rank: usize) -> Option<usize> {
    let words = dims
        .iter()
        .try_fold(0usize, |n, d| n.checked_add(d.checked_mul(rank)?));
    words.filter(|&n| n <= MAX_PAYLOAD_WORDS)
}

/// What one field's value puts on the payload: the writer side of the
/// [`Payload`] readers, in the same word layout.
pub trait Put {
    /// Emits the value's words.
    fn put(&self, out: &mut dyn Emit) -> io::Result<()>;

    /// Payload words the value occupies (its words, counted, not copied).
    fn words(&self) -> usize {
        let mut count = Count(0);
        let _infallible = self.put(&mut count);
        count.0
    }
}

/// An [`Emit`] that only counts.
struct Count(usize);

impl Emit for Count {
    fn words(&mut self, words: &[f64]) -> io::Result<()> {
        self.0 = self.0.saturating_add(words.len());
        Ok(())
    }
}

/// [`Put`] impls: each value's words, in its reader's layout.
macro_rules! put {
    ($($ty:ty => |$v:ident, $out:ident| $body:expr),* $(,)?) => {$(
        impl Put for $ty {
            fn put(&self, $out: &mut dyn Emit) -> io::Result<()> {
                let $v = self;
                $body
            }
        }
    )*};
}

put! {
    u64 => |v, out| out.words(&[*v as f64]),
    usize => |v, out| out.words(&[*v as f64]),
    bool => |v, out| out.words(&[f64::from(u8::from(*v))]),
    f64 => |v, out| out.words(&[*v]),
    Cow<'_, [f64]> => |v, out| out.words(v),
    Cow<'_, DenseTensor> => |v, out| out.words(v.data()),
    Cow<'_, Matrix> => |v, out| out.words(v.data()),
    // `dims`: `[order, dims..]`.
    Cow<'_, [usize]> => |v, out| [v.len()].iter().chain(v.iter()).try_for_each(|d| d.put(out)),
    // `ints`: the integers, nothing in front.
    Cow<'_, [u64]> => |v, out| v.iter().try_for_each(|n| n.put(out)),
    // Borrowed parts, one after another.
    [&[f64]] => |v, out| v.iter().try_for_each(|part| out.words(part)),
    Cow<'_, [Matrix]> => |v, out| v.iter().try_for_each(|f| out.words(f.data())),
    // `text`: the byte length, then the bytes eight per word.
    Cow<'_, str> => |v, out| {
        v.len().put(out)?;
        v.as_bytes().chunks(8).try_for_each(|chunk| {
            let mut word = [0u8; 8];
            word.iter_mut().zip(chunk).for_each(|(w, b)| *w = *b);
            out.words(&[f64::from_le_bytes(word)])
        })
    },
    Operands<'_> => |v, out| put_operands(&v.x, &v.factors, out),
    Shipment<'_> => |v, out| put_operands(&v.x, &v.factors, out),
    // `[0]`, or `[1]` and the operands.
    Option<Shipment<'_>> => |v, out| {
        v.is_some().put(out)?;
        v.as_ref().map_or(Ok(()), |ops| ops.put(out))
    },
}

/// `[order, dims.., rank]`, the tensor, the factors.
fn put_operands(
    x: &DenseTensor,
    factors: &[impl Borrow<Matrix>],
    out: &mut dyn Emit,
) -> io::Result<()> {
    Cow::Borrowed(x.shape().dims()).put(out)?;
    factors.first().map_or(0, |f| f.borrow().cols()).put(out)?;
    out.words(x.data())?;
    factors
        .iter()
        .try_for_each(|f| out.words(f.borrow().data()))
}
