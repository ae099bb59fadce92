//! The socket listener: accepts connections, decodes request frames,
//! enforces bounded admission, and multiplexes tagged replies back.
//!
//! ## Admission / backpressure state machine
//!
//! Every decoded request passes through exactly one of three gates:
//!
//! ```text
//!              ┌── draining? ──────────► retry-after frame (shed)
//! request ──►──┤
//!              ├── in_flight == cap? ──► retry-after frame (shed)
//!              │
//!              └── else ───────────────► permit acquired, submitted
//!                                        (permit released when the
//!                                         reply frame is written)
//! ```
//!
//! Nothing queues beyond the cap: the `Server`'s internal queue depth is
//! bounded by `max_in_flight`, and a client told to retry knows *when*
//! ([`NetConfig::retry_after_ms`]). Sheds and in-flight occupancy land on
//! the server's [`MetricsRegistry`] (`serve.net.*`).
//!
//! ## Replies
//!
//! The worker that ran a request writes its reply, then drops the permit.
//! A frame that fails or takes longer than [`WRITE_TIMEOUT`] to write shuts
//! the socket down (a partial frame desynchronizes the stream): the reader
//! sees EOF and cancels the connection's runs, as for any vanished peer.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] drains: the draining flag flips (new requests
//! and new connections shed with retry-after), in-flight requests finish
//! and their replies are written, then sockets close, handler threads
//! join, and the inner [`Server`] performs its own graceful drain.

use crate::ledger::Ledger;
use crate::lock;
use crate::net::protocol::{self, ProtocolError, Scrape};
use crate::queue::{FactorizeHooks, Reply};
use crate::{FactorizeRequest, MttkrpRequest, Server, ServerConfig, ServerStats};
use mttkrp_als::CancelFlag;
use mttkrp_dist::transport::wire::{self, Dir, Door, FrameHeader, WireError};
use mttkrp_exec::MachineSpec;
use mttkrp_obs::{MetricSnapshot, MetricValue, MetricsRegistry};
use mttkrp_tensor::DenseTensor;
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Metric names the front door writes into the server's registry.
pub mod metric {
    /// Connections accepted over the listener's lifetime.
    pub const CONNECTIONS: &str = "serve.net.connections";
    /// Currently open connections (gauge).
    pub const OPEN_CONNECTIONS: &str = "serve.net.open_connections";
    /// Requests admitted past the in-flight cap.
    pub const REQUESTS: &str = "serve.net.requests";
    /// Requests shed with a retry-after frame (cap reached, or draining).
    pub const SHED: &str = "serve.net.shed";
    /// Admitted requests not yet answered (gauge; bounded by the cap).
    pub const IN_FLIGHT: &str = "serve.net.in_flight";
    /// Malformed or out-of-place frames answered with a typed error.
    pub const PROTOCOL_ERRORS: &str = "serve.net.protocol_errors";
    /// Per-sweep progress frames streamed to factorize clients.
    pub(crate) const SWEEPS_STREAMED: &str = "serve.net.sweeps_streamed";
    /// Admission decisions taken (always equals `REQUESTS + SHED`; the
    /// scrape lock makes the identity hold at *every* `STATS` snapshot,
    /// not just at drain).
    pub const REQUEST_ATTEMPTS: &str = "serve.net.request_attempts";
    /// Scrapes (`STATS` frames, metrics or flight ring) answered.
    pub const SCRAPES: &str = "serve.net.scrapes";
    /// Bytes read off sockets (whole decoded frames).
    pub const BYTES_IN: &str = "serve.net.bytes_in";
    /// Bytes written to sockets (whole encoded frames).
    pub const BYTES_OUT: &str = "serve.net.bytes_out";
    /// Bytes of the tensors connections keep (gauge; at most
    /// [`MAX_KEPT_BYTES`](super::MAX_KEPT_BYTES)).
    pub const KEPT_BYTES: &str = "serve.net.kept_bytes";
    /// `KEPT` requests served from a kept tensor.
    pub const KEPT_HITS: &str = "serve.net.kept_hits";
    /// Milliseconds since the listener started (gauge; appended at scrape
    /// time, like the two below).
    pub const UPTIME_MS: &str = "serve.net.uptime_ms";
    /// 1 while the server drains (sheds all new work), else 0 (gauge).
    pub const DRAINING: &str = "serve.net.draining";
    /// The admission cap [`IN_FLIGHT`] is bounded by (gauge).
    pub const ADMISSION_CAP: &str = "serve.net.admission_cap";
}

/// The most tensor bytes all connections together keep. An `MTTKRP_REQ`
/// whose tensor would pass it is served, and answered `RESP` (not kept)
/// rather than `HELD`.
pub const MAX_KEPT_BYTES: u64 = 32 << 20;

/// How a [`NetServer`] is sized.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Address to bind (`"127.0.0.1:0"` picks a free port; see
    /// [`NetServer::addr`] for what was bound).
    pub bind: String,
    /// The inner serving engine's sizing.
    pub server: ServerConfig,
    /// Admission cap: at most this many requests in flight at once;
    /// request `cap + 1` is shed with a retry-after frame.
    pub max_in_flight: usize,
    /// The advisory delay, in milliseconds, shed clients are told to wait.
    pub retry_after_ms: u64,
}

impl Default for NetConfig {
    /// Loopback on a free port, the default [`ServerConfig`], 64 requests
    /// in flight and a 50 ms retry hint.
    fn default() -> NetConfig {
        NetConfig {
            bind: "127.0.0.1:0".to_string(),
            server: ServerConfig::default(),
            max_in_flight: 64,
            retry_after_ms: 50,
        }
    }
}

/// How long a send may make no progress, and how long a frame may take
/// before no further send of it begins: a stalled frame gives up within
/// twice this, which bounds how long a peer that stops reading holds a worker.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The bounded-admission ledger: a counted semaphore whose permits are
/// released when a reply frame has been handed to the socket, plus a
/// condvar so shutdown can wait for zero occupancy.
struct Admission {
    cap: usize,
    in_flight: Mutex<usize>,
    idle: Condvar,
    ledger: Arc<Ledger>,
}

impl Admission {
    fn try_acquire(self: &Arc<Admission>) -> Option<Permit> {
        let mut n = lock(&self.in_flight);
        if *n >= self.cap {
            return None;
        }
        *n += 1;
        self.ledger.net.in_flight.add(1);
        Some(Permit {
            admission: Arc::clone(self),
        })
    }

    /// Blocks until no permits are outstanding.
    fn wait_idle(&self) {
        let mut n = lock(&self.in_flight);
        while *n > 0 {
            n = self
                .idle
                .wait(n)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// One admitted request's slot; dropping it (after the reply is written)
/// frees the slot and wakes a draining shutdown.
struct Permit {
    admission: Arc<Admission>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut n = lock(&self.admission.in_flight);
        *n -= 1;
        self.admission.ledger.net.in_flight.add(-1);
        if *n == 0 {
            self.admission.idle.notify_all();
        }
    }
}

/// State every connection handler shares with the listener.
struct Shared {
    admission: Arc<Admission>,
    draining: AtomicBool,
    machine: MachineSpec,
    retry_after_ms: u64,
    ledger: Arc<Ledger>,
    /// Open connections by id, so shutdown can unblock their readers.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// When the listener started (the [`metric::UPTIME_MS`] epoch).
    started: Instant,
    /// Serializes admission-counter updates against `STATS` snapshots, so
    /// a scrape can never observe `attempts != admissions + sheds`
    /// mid-update.
    scrape_lock: Mutex<()>,
    /// Backend override for factorizations arriving over the wire
    /// ([`crate::ServerConfig::backend`]); `Auto` leaves requests as
    /// decoded.
    backend: mttkrp_als::BackendChoice,
    /// Bytes of the tensors all connections keep (see [`Kept`]).
    kept_bytes: AtomicU64,
}

/// One connection's write half: the socket, serialized, plus this
/// connection's outbound byte tally (the registry-level
/// [`metric::BYTES_OUT`] is bumped too; the per-connection tally lands on
/// the `net.connection` span at close).
struct ConnWriter {
    stream: Mutex<TcpStream>,
    bytes_out: AtomicU64,
    ledger: Arc<Ledger>,
}

/// A TCP front door over a [`Server`]: accepts many concurrent
/// connections speaking the [`protocol`](mod@crate::net::protocol) framing,
/// answers MTTKRP and (optionally streaming) Factorize requests
/// bit-identically to the in-process API, sheds load beyond
/// [`NetConfig::max_in_flight`] with retry-after frames, and drains
/// gracefully on [`NetServer::shutdown`].
pub struct NetServer {
    server: Option<Arc<Server>>,
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    stop_accept: Arc<AtomicBool>,
}

impl NetServer {
    /// Binds the listener and starts the inner [`Server`] plus the accept
    /// thread. Returns an error only if the bind itself fails.
    pub fn start(config: NetConfig) -> std::io::Result<NetServer> {
        assert!(
            config.max_in_flight >= 1,
            "need at least one in-flight slot"
        );
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let server = Arc::new(Server::start(config.server.clone()));
        let ledger = server.ledger();
        let shared = Arc::new(Shared {
            admission: Arc::new(Admission {
                cap: config.max_in_flight,
                in_flight: Mutex::new(0),
                idle: Condvar::new(),
                ledger: Arc::clone(&ledger),
            }),
            draining: AtomicBool::new(false),
            machine: config.server.machine.clone(),
            retry_after_ms: config.retry_after_ms,
            ledger,
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            handlers: Mutex::new(Vec::new()),
            started: Instant::now(),
            scrape_lock: Mutex::new(()),
            backend: config.server.backend,
            kept_bytes: AtomicU64::new(0),
        });
        let stop_accept = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let server = Arc::clone(&server);
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop_accept);
            std::thread::spawn(move || run_acceptor(listener, server, shared, stop))
        };
        Ok(NetServer {
            server: Some(server),
            shared,
            addr,
            acceptor: Some(acceptor),
            stop_accept,
        })
    }

    /// The address actually bound (resolves a `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The inner serving engine (its cache, metrics, and stats are the
    /// front door's too — `serve.net.*` metrics live in the same
    /// registry).
    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("net server already shut down")
    }

    /// Point-in-time snapshot of the inner server's accounting.
    pub fn stats(&self) -> ServerStats {
        self.server().stats()
    }

    /// The shared metrics registry (`serve.*` and `serve.net.*`).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.server().metrics()
    }

    /// Graceful drain: new requests and connections shed with
    /// retry-after, every admitted request is answered and its reply
    /// written, then sockets close, threads join, and the inner server
    /// shuts down. Returns the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.drain();
        let server = self
            .server
            .take()
            .expect("drain leaves the server in place");
        let stats = server.stats();
        // Handlers are joined, so this is the last handle; dropping it
        // performs the inner server's own graceful drain (a no-op by now).
        drop(server);
        stats
    }

    fn drain(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        // 1. Shed everything new; 2. wait for the last reply to be
        // written; 3. stop accepting (a self-connect unblocks `accept`);
        // 4. unblock every connection's reader and join the handlers.
        self.shared.draining.store(true, Ordering::Release);
        self.shared.admission.wait_idle();
        self.stop_accept.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            a.join().expect("acceptor thread panicked");
        }
        for (_, conn) in lock(&self.shared.conns).drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let handlers: Vec<JoinHandle<()>> = lock(&self.shared.handlers).drain(..).collect();
        for h in handlers {
            h.join().expect("connection handler panicked");
        }
    }
}

impl Drop for NetServer {
    /// Dropping a running front door performs the same graceful drain as
    /// [`NetServer::shutdown`].
    fn drop(&mut self) {
        self.drain();
    }
}

fn run_acceptor(
    listener: TcpListener,
    server: Arc<Server>,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return; // the self-connect (or a last-instant client)
        }
        // Replies are whole frames in one write; without this, back-to-back
        // small ones (a `SWEEP` per sweep) sit in Nagle's buffer until the
        // client's delayed ACK, ~40 ms later.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        shared.ledger.net.connections.add(1);
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).insert(id, clone);
        }
        let handler = {
            let server = Arc::clone(&server);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || handle_connection(id, stream, server, shared))
        };
        // Finished handlers go unjoined: the panic hook already printed any panic.
        let mut handlers = lock(&shared.handlers);
        handlers.retain(|h| !h.is_finished());
        handlers.push(handler);
    }
}

/// Writes one message tagged `tag`, serialized against the connection's
/// other writers (streamed sweeps, concurrent replies).
fn send(writer: &ConnWriter, tag: u32, message: &Door<'_>) {
    send_with(writer, |w| message.write(w, tag, None));
}

/// [`send`] for a reply written by `write`, which puts one frame on the
/// socket and returns its size. A failed write shuts the socket down.
fn send_with(writer: &ConnWriter, write: impl FnOnce(&mut FrameWriter) -> std::io::Result<usize>) {
    let mut stream = lock(&writer.stream);
    let mut w = FrameWriter {
        stream: &mut stream,
        deadline: Instant::now()
            .checked_add(WRITE_TIMEOUT)
            .unwrap_or_else(Instant::now),
    };
    match write(&mut w) {
        Ok(n) => {
            writer.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
            writer.ledger.net.bytes_out.add(n as u64);
        }
        Err(_) => {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// The socket as one frame's writer: a send fails after [`WRITE_TIMEOUT`]
/// without progress (the socket's own timeout), and none begins once the
/// frame has taken that long, so a peer reading a trickle cannot stretch it.
struct FrameWriter<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl std::io::Write for FrameWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if Instant::now() >= self.deadline {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Sheds or admits one decoded request: a permit, or `None` after a
/// retry-after frame has been sent. Counter updates happen under the
/// scrape lock, as one unit, so `attempts == admissions + sheds` at every
/// `STATS` snapshot.
fn admit(shared: &Shared, tag: u32, writer: &Arc<ConnWriter>) -> Option<Permit> {
    let admitted = if shared.draining.load(Ordering::Acquire) {
        None
    } else {
        shared.admission.try_acquire()
    };
    {
        let _sync = lock(&shared.scrape_lock);
        let net = &shared.ledger.net;
        net.request_attempts.add(1);
        if admitted.is_some() {
            net.requests.add(1);
        } else {
            net.shed.add(1);
        }
    }
    if admitted.is_none() {
        let ms = shared.retry_after_ms;
        send(writer, tag, &Door::RetryAfter { ms });
    }
    admitted
}

/// Answers a malformed payload with a typed error, keeping the connection
/// (the frame itself was well-formed, so the stream is still in sync).
fn reject(shared: &Shared, writer: &Arc<ConnWriter>, tag: u32, error: &ProtocolError) {
    shared.ledger.net.protocol_errors.add(1);
    let message = Cow::Owned(error.to_string());
    send(writer, tag, &Door::Error { message });
}

fn handle_connection(id: u64, mut reader: TcpStream, server: Arc<Server>, shared: Arc<Shared>) {
    let mut span = mttkrp_obs::span("net.connection");
    if span.is_active() {
        span.record("conn", id);
    }
    shared.ledger.net.open_connections.add(1);
    let mut requests = 0u64;
    let mut bytes_in = 0u64;
    let mut bytes_out = 0u64;
    if let Ok(writer) = reader.try_clone() {
        let writer = Arc::new(ConnWriter {
            stream: Mutex::new(writer),
            bytes_out: AtomicU64::new(0),
            ledger: Arc::clone(&shared.ledger),
        });
        (requests, bytes_in) = serve_frames(&mut reader, &writer, &server, &shared);
        bytes_out = writer.bytes_out.load(Ordering::Relaxed);
    }
    if span.is_active() {
        span.record("requests", requests);
        span.record("bytes_in", bytes_in);
        span.record("bytes_out", bytes_out);
    }
    shared.ledger.net.open_connections.add(-1);
    lock(&shared.conns).remove(&id);
}

/// The tensor a connection keeps for its `KEPT` requests, charged against
/// the server-wide [`MAX_KEPT_BYTES`].
struct Kept<'a> {
    shared: &'a Shared,
    tensor: Option<Arc<DenseTensor>>,
}

impl Kept<'_> {
    /// Drops the kept tensor, if any, and gives its bytes back to the bound.
    fn clear(&mut self) {
        if let Some(tensor) = self.tensor.take() {
            let bytes = (tensor.num_entries() as u64).saturating_mul(8);
            self.shared.kept_bytes.fetch_sub(bytes, Ordering::Relaxed);
            self.shared
                .ledger
                .net
                .kept_bytes
                .add((bytes as i64).wrapping_neg());
        }
    }

    /// Keeps `tensor` (after a [`Kept::clear`]) if the bound has room for it,
    /// and says whether it did: its request is answered `HELD` if so, else
    /// `RESP`.
    fn keep(&mut self, tensor: &Arc<DenseTensor>) -> bool {
        let bytes = (tensor.num_entries() as u64).saturating_mul(8);
        let kept = self
            .shared
            .kept_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                n.checked_add(bytes).filter(|&n| n <= MAX_KEPT_BYTES)
            });
        if kept.is_err() {
            return false;
        }
        self.shared.ledger.net.kept_bytes.add(bytes as i64);
        self.tensor = Some(Arc::clone(tensor));
        true
    }
}

impl Drop for Kept<'_> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Reads one message with the front door's table, operands straight into
/// their owners; a `MTTKRP_REQ` drops the kept tensor before its body is
/// read, a `MTTKRP_KEPT` reads its factors against the kept shape. `Err`:
/// the stream is dead or out of sync; a refused payload has been skipped.
fn read_inbound(
    reader: &mut TcpStream,
    kept: &mut Kept<'_>,
) -> Result<(FrameHeader, Result<Door<'static>, ProtocolError>), WireError> {
    let header = wire::read_header(reader)?;
    if header.comm_id == Door::MTTKRP_REQ {
        kept.clear();
    }
    let dims = kept.tensor.as_ref().map(|t| t.shape().dims());
    let message = match Door::read(reader, &header, Dir::Ask, dims.unwrap_or(&[])) {
        Err(e @ WireError::Io(_)) => return Err(e),
        Ok(_) | Err(WireError::Malformed(_))
            if dims.is_none() && header.comm_id == Door::MTTKRP_KEPT =>
        {
            Err(protocol::nothing_kept())
        }
        message => message.map_err(ProtocolError::from),
    };
    Ok((header, message))
}

/// The connection's read loop: handshake, then requests until the peer
/// says FIN, vanishes, or desynchronizes the stream. Returns how many
/// requests were admitted and how many bytes were read.
fn serve_frames(
    reader: &mut TcpStream,
    writer: &Arc<ConnWriter>,
    server: &Arc<Server>,
    shared: &Arc<Shared>,
) -> (u64, u64) {
    // In-flight factorizations by tag, so a cancel frame — or the peer
    // vanishing — can stop their runs at the next sweep boundary.
    let inflight: Arc<Mutex<HashMap<u32, CancelFlag>>> = Arc::default();
    let mut requests = 0u64;

    // Handshake: exactly one hello of our version, answered with ours (or a
    // retry-after when the server is draining — the client should come back
    // later).
    let Ok(header) = wire::read_header(reader) else {
        return (0, 0); // never said hello; nothing to answer
    };
    let mut bytes_in = header.wire_bytes() as u64;
    shared.ledger.net.bytes_in.add(bytes_in);
    let version = protocol::PROTOCOL_VERSION;
    let refusal = match header.comm_id {
        Door::HELLO => match Door::read(reader, &header, Dir::Ask, &[]) {
            Ok(Door::Hello { version: v }) if v == version => None,
            Ok(Door::Hello { version: v }) => Some(ProtocolError::Malformed(format!(
                "unsupported protocol version {v} (this server speaks {version})"
            ))),
            Ok(other) => Some(protocol::unexpected("hello", other.id())),
            Err(e) => Some(e.into()),
        },
        other => Some(protocol::unexpected("hello", other)),
    };
    if let Some(e) = refusal {
        reject(shared, writer, header.from, &e);
        return (0, bytes_in);
    }
    if shared.draining.load(Ordering::Acquire) {
        {
            let _sync = lock(&shared.scrape_lock);
            shared.ledger.net.request_attempts.add(1);
            shared.ledger.net.shed.add(1);
        }
        let ms = shared.retry_after_ms;
        send(writer, 0, &Door::RetryAfter { ms });
        return (0, bytes_in);
    }
    send(writer, 0, &Door::Hello { version });
    let mut kept = Kept {
        shared,
        tensor: None,
    };

    loop {
        let (header, message) = match read_inbound(reader, &mut kept) {
            Ok(message) => message,
            Err(WireError::Io(_)) => break, // peer gone (EOF, reset, ...)
            Err(e) => {
                // Garbage framing: the stream position can no longer be
                // trusted. A typed error is the best-effort goodbye.
                reject(shared, writer, 0, &ProtocolError::Wire(e));
                break;
            }
        };
        let n = header.wire_bytes() as u64;
        bytes_in = bytes_in.saturating_add(n);
        shared.ledger.net.bytes_in.add(n);
        let tag = header.from;
        // Admission follows the read: a slow sender holds no permit.
        let admitted = match message {
            Ok(message @ Door::MttkrpReq { .. }) => protocol::mttkrp_request(message).map(|r| {
                let held = kept.keep(&r.tensor);
                serve_mttkrp(server, shared, writer, &header, r, held)
            }),
            Ok(Door::MttkrpKept { mode, factors, .. }) => {
                let request = protocol::kept_request(mode, factors, kept.tensor.as_ref());
                request.map(|r| {
                    shared.ledger.net.kept_hits.add(1);
                    serve_mttkrp(server, shared, writer, &header, r, false)
                })
            }
            Ok(message @ Door::FactorizeReq { .. }) => {
                let request = protocol::factorize_request(message, &shared.machine);
                request.map(|(r, stream)| {
                    serve_factorize(server, shared, writer, &inflight, &header, r, stream)
                })
            }
            Ok(Door::Fin {}) => break, // orderly goodbye
            Ok(Door::Cancel {}) => {
                if let Some(flag) = lock(&inflight).get(&tag) {
                    flag.cancel();
                }
                Ok(false)
            }
            // Scrapes: answered inline by this reader, never admitted — a
            // scrape cannot be shed and cannot displace work.
            Ok(Door::Scrape { selector }) => Scrape::of(selector).map(|scrape| {
                let jsonl = Cow::Owned(scrape_text(shared, scrape));
                send(writer, tag, &Door::Stats { jsonl });
                false
            }),
            Err(e @ ProtocolError::Malformed(_)) => Err(e),
            // A HELLO replay, an unknown, retired or reply kind, a poison
            // frame: typed error, then hang up — the peer does not speak
            // the protocol.
            other => {
                let got = other.map_or(header.comm_id, |m| m.id());
                let e = protocol::unexpected("a request, cancel, or FIN frame", got);
                reject(shared, writer, tag, &e);
                break;
            }
        };
        match admitted {
            Ok(admitted) => requests = requests.saturating_add(u64::from(admitted)),
            Err(e) => reject(shared, writer, tag, &e),
        }
    }

    // Reader done (FIN, EOF, reset, or desync): any factorization still
    // running for this connection has no audience — cancel it so the
    // worker is freed at its next sweep boundary.
    for flag in lock(&inflight).values() {
        flag.cancel();
    }
    (requests, bytes_in)
}

/// Admits and submits one MTTKRP, whose worker writes the reply (`HELD` if
/// its tensor was kept), then frees the permit. True if admitted.
fn serve_mttkrp(
    server: &Arc<Server>,
    shared: &Shared,
    writer: &Arc<ConnWriter>,
    header: &FrameHeader,
    request: MttkrpRequest,
    held: bool,
) -> bool {
    let tag = header.from;
    let Some(permit) = admit(shared, tag, writer) else {
        return false;
    };
    let writer = Arc::clone(writer);
    let reply = Reply::new(move |response| {
        send_with(&writer, |w| {
            protocol::mttkrp_reply(held, &response).write(w, tag, None)
        });
        drop(permit); // reply written: slot free
    });
    server.submit_with(request.with_context(header.trace), reply);
    true
}

/// Admits and submits one factorization, cancellable by its tag and
/// streaming a `SWEEP` per sweep if asked, whose worker writes the final
/// reply, then frees the permit. True if admitted.
fn serve_factorize(
    server: &Arc<Server>,
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    inflight: &Arc<Mutex<HashMap<u32, CancelFlag>>>,
    header: &FrameHeader,
    mut request: FactorizeRequest,
    stream_sweeps: bool,
) -> bool {
    let tag = header.from;
    let Some(permit) = admit(shared, tag, writer) else {
        return false;
    };
    request.ctx = header.trace;
    // Where a wire run executes is server policy.
    if shared.backend != mttkrp_als::BackendChoice::Auto {
        request.config.backend = shared.backend;
    }
    let mut hooks = FactorizeHooks::default();
    lock(inflight).insert(tag, hooks.cancel.clone());
    if stream_sweeps {
        let writer = Arc::clone(writer);
        let ledger = Arc::clone(&shared.ledger);
        hooks.on_sweep = Some(Box::new(move |sweep| {
            ledger.net.sweeps_streamed.add(1);
            let (fit, delta_fit) = (sweep.fit, sweep.delta_fit.unwrap_or(f64::NAN));
            let sweep = sweep.sweep;
            send(
                &writer,
                tag,
                &Door::Sweep {
                    sweep,
                    fit,
                    delta_fit,
                },
            );
        }));
    }
    let writer = Arc::clone(writer);
    let inflight = Arc::clone(inflight);
    let reply = Reply::new(move |response: crate::FactorizeResponse| {
        send_with(&writer, |w| {
            protocol::factorize_reply(&response.run).write(w, tag, None)
        });
        lock(&inflight).remove(&tag);
        drop(permit); // reply written: slot free
    });
    server.submit_factorize_with(request, hooks, reply);
    true
}

/// A scrape's JSONL, counted as answered. The metrics registry gets the
/// state it does not hold appended as ordinary lines: the key map's resident
/// plans and the listener's uptime, draining flag and admission cap.
fn scrape_text(shared: &Shared, scrape: protocol::Scrape) -> String {
    use MetricValue::Gauge;
    if let protocol::Scrape::Flight = scrape {
        shared.ledger.net.scrapes.add(1);
        return mttkrp_obs::flight_to_jsonl(&mttkrp_obs::flight_snapshot());
    }
    let _sync = lock(&shared.scrape_lock);
    shared.ledger.net.scrapes.add(1);
    let mut metrics = shared.ledger.registry().snapshot();
    let uptime_ms = shared.started.elapsed().as_millis() as i64;
    let draining = shared.draining.load(Ordering::Acquire);
    let resident = shared.ledger.plans_resident() as i64;
    for (name, value) in [
        ("exec.plan_cache.resident", Gauge(resident)),
        (metric::UPTIME_MS, Gauge(uptime_ms)),
        (metric::DRAINING, Gauge(draining as i64)),
        (metric::ADMISSION_CAP, Gauge(shared.admission.cap as i64)),
    ] {
        let name = name.to_string();
        metrics.push(MetricSnapshot { name, value });
    }
    mttkrp_obs::metrics_to_jsonl(&metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    #[test]
    fn the_handler_list_holds_open_connections_not_every_connection() {
        let server = NetServer::start(NetConfig {
            server: ServerConfig {
                machine: MachineSpec::shared(1, 1 << 12),
                workers: 1,
                ..ServerConfig::default()
            },
            ..NetConfig::default()
        })
        .expect("bind loopback");
        let open = || server.metrics().gauge_value(metric::OPEN_CONNECTIONS);
        let settle = || {
            let start = Instant::now();
            while open() != 0 {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "a handler never exited"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        for _ in 0..100 {
            drop(Client::connect(server.addr()).expect("connect"));
            settle();
        }
        let _last = Client::connect(server.addr()).expect("connect");
        let held = lock(&server.shared.handlers).len();
        assert!(
            held as i64 <= open() + 1,
            "{held} handler handles kept for {} open connection(s) after 101 connects",
            open()
        );
    }
}
