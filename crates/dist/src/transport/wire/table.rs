//! The two frame tables. Each row names a kind, its control id, the
//! direction it travels and its payload as typed fields; [`frames!`]
//! expands a table into one message enum whose one reader and one writer
//! serve every row. A field is `name: Type = reader(args)`: the value's
//! Rust type (whose [`Put`] writes it) and the [`Payload`] reader that takes
//! it, handed the earlier fields its length depends on.

#![deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::expect_used,
    clippy::unwrap_used
)]

use super::codec::{
    write_with, Emit, Frame, FrameHeader, Operands, Payload, Put, Shipment, Slots, WireError,
};
use mttkrp_obs::TraceContext;
use mttkrp_tensor::{DenseTensor, Matrix};
use std::borrow::Cow;
use std::io::{self, Read, Write};

/// The control id `k` below the top of the id space (`u64::MAX - k`).
const fn ctrl(k: u64) -> u64 {
    u64::MAX.wrapping_sub(k)
}

/// Which way a frame kind travels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Toward the serving side: client → server, rank → launcher.
    Ask,
    /// Back from it: server → client, launcher → rank.
    Answer,
    /// Either way (and peer ↔ peer on the rank fabric).
    Both,
}

impl Dir {
    /// Whether a reader reading frames that travel `self` takes a row
    /// that travels `row`.
    fn takes(self, row: Dir) -> bool {
        self == row || self == Dir::Both || row == Dir::Both
    }
}

/// One row of a frame table, as data: what the docs' frame tables and the
/// hostile-frame property are generated from.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// The kind's name (`MTTKRP_REQ`).
    pub name: &'static str,
    /// Its control id.
    pub id: u64,
    /// Which way it travels.
    pub dir: Dir,
    /// The payload's fields in order: name, reader, and the earlier fields
    /// the reader is handed.
    pub fields: &'static [(&'static str, &'static str, &'static [&'static str])],
}

/// Expands a frame table into its message enum: the variants, the id
/// constants, [`Row`] data, one writer and one reader.
macro_rules! frames {
    (
        $(#[$meta:meta])*
        pub enum $name:ident<$lt:lifetime>($($p:ident: $pty:ty),*) {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $cname:ident($k:literal, $dir:ident) {
                    $($field:ident: $fty:ty = $kind:ident($($arg:ident),*)),* $(,)?
                }
            ),* $(,)?
        }
        retired { $($rk:literal: $rwhy:literal),* $(,)? }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        pub enum $name<$lt> {
            $($(#[$vmeta])* $variant { $(#[allow(missing_docs)] $field: $fty),* },)*
        }

        #[allow(missing_docs)]
        impl<$lt> $name<$lt> {
            $(pub const $cname: u64 = ctrl($k);)*

            /// Every row of the table, in order.
            pub const ROWS: &'static [Row] = &[$(Row {
                name: stringify!($cname), id: ctrl($k), dir: Dir::$dir,
                fields: &[$((stringify!($field), stringify!($kind), &[$(stringify!($arg)),*])),*],
            }),*];

            /// Ids that no row may take again, and what they carried.
            pub const RETIRED: &'static [(u64, &'static str)] = &[$((ctrl($rk), $rwhy)),*];

            /// This message's control id.
            pub fn id(&self) -> u64 {
                match self { $($name::$variant { .. } => ctrl($k),)* }
            }

            /// The one writer: streams this message as one frame tagged
            /// `tag` (the request tag, or the sender's rank) with `trace`
            /// attached; returns the bytes written. Panics past the wire's
            /// word limit.
            pub fn write(&self, w: &mut (impl Write + ?Sized), tag: u32, trace: Option<TraceContext>)
                -> io::Result<usize> {
                write_with(w, tag, self.id(), false, trace, self)
            }

            /// The same writer into a [`Frame`]'s payload.
            pub fn frame(&self, tag: u32) -> Frame {
                let mut payload = Vec::with_capacity(Put::words(self));
                let _infallible = self.put(&mut payload);
                Frame::data(tag as usize, self.id(), payload)
            }

            /// The one reader: the message behind `header`, read off `r` —
            /// operands straight into the buffers that own them. On every
            /// error but [`WireError::Io`] the rest of the frame has been
            /// skipped, so the stream is at the next frame.
            pub fn read(r: &mut dyn Read, header: &FrameHeader, dir: Dir, $($p: $pty),*)
                -> Result<$name<'static>, WireError> {
                let mut c = Payload::streaming(r, header);
                let read = $name::take(&mut c, header, dir, $($p),*);
                if !matches!(read, Err(WireError::Io(_))) {
                    c.skip_rest()?;
                }
                read
            }

            /// The same reader over a decoded frame's payload.
            pub fn decode(frame: &Frame, dir: Dir, $($p: $pty),*)
                -> Result<$name<'static>, WireError> {
                let header = FrameHeader::of(frame);
                $name::take(&mut Payload::of(&frame.payload), &header, dir, $($p),*)
            }

            /// Reads the next frame's header and message off `r`.
            pub fn next(r: &mut dyn Read, dir: Dir, $($p: $pty),*)
                -> Result<(FrameHeader, $name<'static>), WireError> {
                let header = super::codec::read_header(r)?;
                Ok((header, $name::read(r, &header, dir, $($p),*)?))
            }

            fn take(c: &mut Payload<'_>, header: &FrameHeader, dir: Dir, $($p: $pty),*)
                -> Result<$name<$lt>, WireError> {
                $(
                    if !header.poison && header.comm_id == ctrl($k) && dir.takes(Dir::$dir) {
                        $(let $field: $fty = c.$kind(stringify!($field) $(, &$arg)*)?;)*
                        c.finish(stringify!($cname))?;
                        return Ok($name::$variant { $($field),* });
                    }
                )*
                $(let _ = $p;)*
                Err(WireError::Kind(header.comm_id))
            }
        }

        impl Put for $name<'_> {
            fn put(&self, out: &mut dyn Emit) -> io::Result<()> {
                match self {
                    $($name::$variant { $($field),* } => { $($field.put(out)?;)* Ok(()) })*
                }
            }
        }
    };
}

frames! {
    /// The serving front door. Every frame's `from` is the client's request
    /// tag, echoed on the replies.
    pub enum Door<'a>(kept: &dyn Slots) {
        /// Either side's opening frame: the protocol version.
        Hello = HELLO(0, Both) { version: u64 = int() },
        /// Orderly goodbye.
        Fin = FIN(2, Ask) {},
        /// One MTTKRP: the slot its tensor is kept in, the mode, then the
        /// operands. The slot is emptied first; the connection keeps the
        /// tensor in it while the server-wide bound has room for it.
        MttkrpReq = MTTKRP_REQ(6, Ask) {
            slot: usize = refill(kept), mode: usize = usize(), ops: Operands<'a> = operands(),
        },
        /// A CP-ALS factorization: shape, spec, stream flag, tensor.
        FactorizeReq = FACTORIZE_REQ(7, Ask) {
            dims: Cow<'a, [usize]> = dims(), rank: usize = count(), max_sweeps: usize = count(),
            tol: f64 = finite(), seed: u64 = int(), ridge: f64 = finite(), stream: bool = flag(),
            x: Cow<'a, DenseTensor> = tensor(dims),
        },
        /// The reply to a request: the output matrix `B`.
        MttkrpResp = MTTKRP_RESP(8, Answer) {
            rows: usize = count(), cols: usize = count(), cache_hit: bool = flag(),
            b: Cow<'a, Matrix> = matrix(rows, cols),
        },
        /// The final reply to a factorization: the fitted model.
        FactorizeResp = FACTORIZE_RESP(9, Answer) {
            converged: bool = flag(), cancelled: bool = flag(), sweeps: usize = usize(),
            fit: f64 = word(), rank: usize = count(), dims: Cow<'a, [usize]> = dims(),
            weights: Cow<'a, [f64]> = vec(rank), factors: Cow<'a, [Matrix]> = factors(dims, rank),
        },
        /// One streamed sweep; a `NaN` delta marks the first.
        Sweep = SWEEP(10, Answer) {
            sweep: usize = usize(), fit: f64 = word(), delta_fit: f64 = word(),
        },
        /// Cancels the factorization in flight under this tag.
        Cancel = CANCEL(11, Ask) {},
        /// A typed error.
        Error = ERROR(12, Answer) { message: Cow<'a, str> = text() },
        /// Load shed: try again after this many milliseconds.
        RetryAfter = RETRY_AFTER(13, Answer) { ms: u64 = int() },
        /// A scrape: `0` the metrics registry, `1` the flight ring.
        Scrape = STATS(14, Ask) { selector: u64 = int() },
        /// A scrape's reply: JSONL text.
        Stats = STATS_REPLY(14, Answer) { jsonl: Cow<'a, str> = text() },
        /// An MTTKRP against the tensor the connection keeps in `slot`.
        MttkrpKept = MTTKRP_KEPT(21, Ask) {
            slot: usize = slot(kept), mode: usize = usize(), rank: usize = count(),
            factors: Cow<'a, [Matrix]> = kept_factors(kept, slot, rank),
        },
        /// A reply whose request's tensor the connection kept.
        MttkrpHeld = MTTKRP_HELD(22, Answer) {
            rows: usize = count(), cols: usize = count(), cache_hit: bool = flag(),
            b: Cow<'a, Matrix> = matrix(rows, cols),
        },
    }
    retired {
        15: "a health probe", 16: "a flight-recorder dump", 18: "a metrics-history scrape",
        20: "a second shipped-tensor request",
    }
}

frames! {
    /// The rank fabric's control frames: the rendezvous, the goodbyes, and
    /// the launcher's report connection. Data frames carry a communicator
    /// id below [`super::CTRL_BASE`] and the words of one message; see
    /// [`DATA`].
    pub enum Fabric<'a>() {
        /// A dialer announces its world rank: its listener port toward
        /// rank 0, nothing toward other peers.
        Hello = HELLO(0, Both) { ports: Cow<'a, [u64]> = ints() },
        /// Rank 0's address table: rank `i`'s IPv4 address and port at
        /// words `2i` and `2i + 1` (zeros for rank 0 itself).
        Table = TABLE(1, Both) { addrs: Cow<'a, [u64]> = ints() },
        /// Orderly goodbye: the sender's rank program finished.
        Fin = FIN(2, Both) {},
        /// A spawned rank reports in: rank 0's rendezvous port, nothing
        /// from the others.
        Ready = READY(3, Ask) { port: Cow<'a, [u64]> = ints() },
        /// A rank's output: rows `r0..r1` (and columns `c0..c1` of a
        /// block), row-major.
        Chunk = CHUNK(4, Ask) {
            block: bool = flag(), r0: usize = usize(), r1: usize = usize(), c0: usize = usize(),
            c1: usize = usize(), data: Cow<'a, [f64]> = words(),
        },
        /// A rank's measured ledger: `[phase, mode, sent, received,
        /// messages]` per collective.
        Ledger = LEDGER(5, Ask) { phases: Cow<'a, [u64]> = ints() },
        /// The launcher's go signal, with the operands it ships (if any);
        /// its trace header carries the launcher's context.
        Launch = LAUNCH(17, Answer) { ops: Option<Shipment<'a>> = maybe_operands() },
        /// The sender aborts because rank `cause` failed (`panicked`, or
        /// its connection was lost).
        Abort = ABORT(19, Both) { cause: usize = usize(), panicked: bool = flag() },
    }
    retired {}
}

/// The rank fabric's data frame, as a row: any communicator id below
/// [`super::CTRL_BASE`], payload the message's words.
pub const DATA: Row = Row {
    name: "data",
    id: super::codec::CTRL_BASE,
    dir: Dir::Both,
    fields: &[("words", "words", &[])],
};
