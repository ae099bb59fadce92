//! The network front door: a TCP listener in front of the [`Server`],
//! speaking `mttkrp-dist`'s length-prefixed wire framing.
//!
//! Everything behind the listener already queues, caches, and drains —
//! this module only moves requests and responses across sockets, and adds
//! the two things a *public* front door needs that an in-process API does
//! not:
//!
//! 1. **Bounded admission.** A configurable in-flight cap
//!    ([`NetConfig::max_in_flight`]). At the cap (or while the server is
//!    draining), a request is answered with a `retry-after` frame instead
//!    of queueing unboundedly; shed counters and an in-flight gauge land
//!    on the server's existing
//!    [`MetricsRegistry`](mttkrp_obs::MetricsRegistry).
//! 2. **Streaming factorizations.** A `Factorize` client receives one
//!    frame per completed [`AlsSweep`](mttkrp_als::AlsSweep) (fit and fit
//!    delta) and can send a cancel frame — or simply vanish — to stop the
//!    run at the next sweep boundary and free the worker.
//!
//! The protocol rides the exact frame format of
//! [`mod@mttkrp_dist::transport::wire`], with request/response kinds in the
//! reserved control-id space (see [`protocol`] for the frame table) — so
//! the codec's hardening (length-prefix validation, payload caps,
//! truncation detection) is inherited, not re-implemented.
//!
//! Served bytes are *bit-identical* to in-process calls: the wire encodes
//! every `f64` with `to_le_bytes`, so a socket client's MTTKRP output and
//! fitted factors equal [`Server::call`] / [`Server::call_factorize`]
//! results bit for bit (asserted by this crate's soak tests).
//!
//! ```no_run
//! use mttkrp_serve::net::{Client, NetConfig, NetServer};
//! use mttkrp_tensor::{DenseTensor, Matrix, Shape};
//!
//! let server = NetServer::start(NetConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//!
//! let x = DenseTensor::random(Shape::new(&[8, 8, 8]), 1);
//! let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(8, 4, k)).collect();
//! let reply = client.mttkrp(&x, &factors, 0).unwrap();
//! assert_eq!(reply.output.rows(), 8);
//!
//! drop(client);
//! server.shutdown();
//! ```

mod client;
pub mod listener;
pub mod protocol;

pub use client::{Client, ClientError, StreamControl};
pub use listener::{NetConfig, NetServer};

#[allow(unused_imports)] // rustdoc links
use crate::Server;
use std::io::{BufReader, Read};

/// Bytes a connection's reader buffers. A frame's header and head words, an
/// MTTKRP reply and a factors-only request arrive in one `recv`, not one
/// per word; a body longer than this bypasses the buffer.
const READ_BUFFER_BYTES: usize = 32 << 10;

/// `stream` behind a [`READ_BUFFER_BYTES`] buffer: how the client and the
/// listener read.
fn buffered<R: Read>(stream: R) -> BufReader<R> {
    BufReader::with_capacity(READ_BUFFER_BYTES, stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_dist::transport::wire::{Dir, Door};
    use mttkrp_tensor::Matrix;
    use std::borrow::Cow;

    /// A byte source that counts the reads made of it.
    struct Counted<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    /// The reads `Door::next` makes of `bytes`, read straight or buffered.
    fn reads(bytes: &[u8], dir: Dir, buffer: bool) -> usize {
        let mut source = Counted { bytes, reads: 0 };
        let read = match buffer {
            true => Door::next(&mut buffered(&mut source), dir, &[48, 48, 48]).map(drop),
            false => Door::next(&mut source, dir, &[48, 48, 48]).map(drop),
        };
        assert!(read.is_ok(), "{read:?}");
        source.reads
    }

    /// At `serve-socket`'s sizes (48³, R = 16), an MTTKRP reply costs one
    /// read per head word on a bare socket, a factors-only request too; a
    /// buffered reader takes either in at most two.
    #[test]
    fn a_buffered_reply_or_kept_request_is_at_most_two_reads() {
        let a: Vec<Matrix> = (0..3).map(|k| Matrix::random(48, 16, k)).collect();
        let reply = Door::MttkrpResp {
            rows: 48,
            cols: 16,
            cache_hit: true,
            b: Cow::Borrowed(&a[0]),
        };
        let kept = protocol::mttkrp_message(None, &a, 1);
        for (message, dir, bare) in [(reply, Dir::Answer, 6), (kept, Dir::Ask, 8)] {
            let mut bytes = Vec::new();
            message.write(&mut bytes, 7, None).unwrap();
            assert_eq!(reads(&bytes, dir, false), bare, "{:#x}", message.id());
            let buffered = reads(&bytes, dir, true);
            assert!(
                buffered <= 2,
                "{buffered} reads of a buffered {:#x}",
                message.id()
            );
        }
    }
}
