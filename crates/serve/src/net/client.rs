//! A blocking socket client for the network front door.
//!
//! One request in flight at a time, framed exactly like the server
//! expects (see [`protocol`](mod@crate::net::protocol)). The interesting
//! call is [`Client::factorize_streaming`]: the closure sees every
//! per-sweep progress frame and can return [`StreamControl::Cancel`] to
//! stop the run at the next sweep boundary — the server frees its worker
//! and still sends the (partial) fitted model back.

use crate::net::protocol::{
    self, FactorizeSpec, ProtocolError, RemoteFactorize, RemoteMttkrp, Scrape, SweepUpdate,
};
use mttkrp_dist::transport::wire::{self, Frame, WireError};
use mttkrp_obs::{FlightRecord, MetricSnapshot};
use mttkrp_tensor::{DenseTensor, Matrix};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a client waits on a read before giving up. Generous: a
/// factorization sweep on a large tensor can take a while between frames.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// What a streaming factorize closure wants next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamControl {
    /// Keep sweeping.
    Continue,
    /// Send a cancel frame; the run stops at the next sweep boundary and
    /// the partial model comes back with `cancelled = true`.
    Cancel,
}

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// The socket itself failed (connect, read timeout, reset, ...).
    Io(std::io::Error),
    /// A frame failed to decode at the codec layer.
    Wire(WireError),
    /// A frame decoded but violated the request/response protocol.
    Protocol(ProtocolError),
    /// The server answered with a typed error frame (its message).
    Server(String),
    /// The server shed the request; retry after the advised delay.
    RetryAfter(Duration),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::RetryAfter(after) => {
                write!(
                    f,
                    "server at capacity: retry after {} ms",
                    after.as_millis()
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// A connected front-door client. One request in flight at a time;
/// every reply is tag-checked against the request that asked for it.
/// Dropping the client sends a best-effort FIN so the server's reader
/// sees an orderly goodbye.
/// It keeps the last tensor it shipped alive (a clone, sharing the buffer)
/// until it ships another or is dropped: see [`Client::mttkrp`].
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_tag: u32,
    /// The tensor the server keeps for this connection. A clone: while it
    /// lives, its buffer is neither written (a write through a shared
    /// buffer copies it first) nor freed for another tensor to reuse.
    kept: Option<DenseTensor>,
}

impl Client {
    /// Connects and handshakes. Fails with [`ClientError::RetryAfter`]
    /// if the server is draining, or [`ClientError::Server`] on a
    /// protocol-version mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        wire::write_frame(&mut stream, &protocol::encode_hello()).map_err(ClientError::Io)?;
        let frame = wire::read_frame(&mut stream)?;
        match frame.comm_id {
            wire::CTRL_RETRY_AFTER => {
                let ms = protocol::decode_retry_after(&frame)?;
                Err(ClientError::RetryAfter(Duration::from_millis(ms)))
            }
            wire::CTRL_ERROR => Err(ClientError::Server(protocol::decode_error(&frame)?)),
            _ => {
                let version = protocol::decode_hello(&frame)?;
                if version != protocol::PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(ProtocolError::Malformed(format!(
                        "server speaks protocol version {version}, this client speaks {}",
                        protocol::PROTOCOL_VERSION
                    ))));
                }
                Ok(Client {
                    stream,
                    next_tag: 1,
                    kept: None,
                })
            }
        }
    }

    /// One MTTKRP round trip. The returned matrix is bit-identical to an
    /// in-process [`Server::call`](crate::Server::call) with the same
    /// operands.
    ///
    /// The tensor travels only when the server does not already keep it:
    /// while `tensor` is the one last shipped — a clone of it
    /// ([`DenseTensor::same_storage`]), unwritten since — only the factors
    /// are sent. Any other tensor is shipped and kept in its place.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty (there is no rank to encode).
    pub fn mttkrp(
        &mut self,
        tensor: &DenseTensor,
        factors: &[Matrix],
        mode: usize,
    ) -> Result<RemoteMttkrp, ClientError> {
        let kept = self.kept.take().filter(|k| tensor.same_storage(k));
        let ship = kept.is_none().then_some(tensor);
        let tag = self.fresh_tag();
        // Streamed from the caller's operands: no payload is built.
        let trace = mttkrp_obs::current_context();
        protocol::write_mttkrp_request(&mut self.stream, tag, trace, ship, factors, mode)?;
        let frame = self.read_reply(tag)?;
        // Only a shipped tensor may be answered `HELD`: it is kept now.
        let held = ship.is_some() && frame.comm_id == wire::CTRL_MTTKRP_HELD;
        let kind = if held {
            wire::CTRL_MTTKRP_HELD
        } else {
            wire::CTRL_MTTKRP_RESP
        };
        let reply = protocol::decode_mttkrp_reply(frame, kind)?;
        // An error returned above with the mirror cleared: the next call ships.
        self.kept = if held { Some(tensor.clone()) } else { kept };
        Ok(reply)
    }

    /// One whole CP-ALS factorization round trip (no streaming: the only
    /// reply is the final fitted model).
    pub fn factorize(
        &mut self,
        tensor: &DenseTensor,
        spec: &FactorizeSpec,
    ) -> Result<RemoteFactorize, ClientError> {
        self.run_factorize(tensor, spec, false, |_| StreamControl::Continue)
    }

    /// A streaming factorization: `on_sweep` sees one [`SweepUpdate`] per
    /// completed ALS sweep, in order, and may return
    /// [`StreamControl::Cancel`] to stop the run at the next sweep
    /// boundary. The final reply arrives either way (with
    /// [`RemoteFactorize::cancelled`] set when the cancel won).
    pub fn factorize_streaming(
        &mut self,
        tensor: &DenseTensor,
        spec: &FactorizeSpec,
        on_sweep: impl FnMut(&SweepUpdate) -> StreamControl,
    ) -> Result<RemoteFactorize, ClientError> {
        self.run_factorize(tensor, spec, true, on_sweep)
    }

    fn run_factorize(
        &mut self,
        tensor: &DenseTensor,
        spec: &FactorizeSpec,
        stream: bool,
        mut on_sweep: impl FnMut(&SweepUpdate) -> StreamControl,
    ) -> Result<RemoteFactorize, ClientError> {
        let tag = self.fresh_tag();
        let trace = mttkrp_obs::current_context();
        protocol::write_factorize_request(&mut self.stream, tag, trace, tensor, spec, stream)?;
        let mut cancel_sent = false;
        loop {
            let frame = self.read_reply(tag)?;
            match frame.comm_id {
                wire::CTRL_SWEEP => {
                    let update = protocol::decode_sweep(&frame)?;
                    if on_sweep(&update) == StreamControl::Cancel && !cancel_sent {
                        wire::write_frame(&mut self.stream, &protocol::encode_cancel(tag))
                            .map_err(ClientError::Io)?;
                        cancel_sent = true;
                    }
                }
                wire::CTRL_FACTORIZE_RESP => {
                    return Ok(protocol::decode_factorize_response(&frame)?);
                }
                other => {
                    return Err(ClientError::Protocol(ProtocolError::Unexpected {
                        expected: "a sweep or factorize response frame",
                        got: other,
                    }));
                }
            }
        }
    }

    /// Scrapes the server's metrics registry over a `STATS` frame: every
    /// registry line (the key map's `exec.plan_cache.*` among them), and the
    /// listener's
    /// `serve.net.{uptime_ms, draining, admission_cap}` gauges. Answered
    /// inline by the connection's reader — never shed, never counted
    /// against the admission cap.
    pub fn stats(&mut self) -> Result<Vec<MetricSnapshot>, ClientError> {
        let text = self.scrape(Scrape::Metrics)?;
        let trace = mttkrp_obs::parse_trace(&text)
            .map_err(|e| ProtocolError::Malformed(format!("stats payload: {e}")))?;
        Ok(trace.metrics)
    }

    /// Dumps the server's flight recorder (the last
    /// [`mttkrp_obs::FLIGHT_CAPACITY`] span closes, capture on or off)
    /// over a `STATS` frame.
    pub fn trace_dump(&mut self) -> Result<Vec<FlightRecord>, ClientError> {
        let text = self.scrape(Scrape::Flight)?;
        let records = mttkrp_obs::flight_from_jsonl(&text)
            .map_err(|e| ProtocolError::Malformed(format!("flight payload: {e}")))?;
        Ok(records)
    }

    /// One `STATS` round trip: the JSONL text `scrape` selects.
    fn scrape(&mut self, scrape: Scrape) -> Result<String, ClientError> {
        let tag = self.fresh_tag();
        let request = protocol::encode_stats_request(tag, scrape);
        wire::write_frame(&mut self.stream, &request).map_err(ClientError::Io)?;
        let frame = self.read_reply(tag)?;
        Ok(protocol::decode_stats_response(&frame)?)
    }

    /// Reads one reply frame, translating the protocol-wide kinds
    /// (typed error, retry-after) and rejecting replies tagged for a
    /// different request.
    fn read_reply(&mut self, tag: u32) -> Result<Frame, ClientError> {
        let frame = wire::read_frame(&mut self.stream)?;
        match frame.comm_id {
            wire::CTRL_ERROR => Err(ClientError::Server(protocol::decode_error(&frame)?)),
            wire::CTRL_RETRY_AFTER => {
                let ms = protocol::decode_retry_after(&frame)?;
                Err(ClientError::RetryAfter(Duration::from_millis(ms)))
            }
            _ if frame.from != tag => Err(ClientError::Protocol(ProtocolError::Malformed(
                format!("reply tagged {} for request tagged {tag}", frame.from),
            ))),
            _ => Ok(frame),
        }
    }

    fn fresh_tag(&mut self) -> u32 {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        tag
    }
}

impl Drop for Client {
    /// Best-effort FIN so the server sees an orderly goodbye instead of
    /// a vanished peer.
    fn drop(&mut self) {
        let _ = wire::write_frame(&mut self.stream, &Frame::fin(0));
    }
}
