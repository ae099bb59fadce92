//! The socket transport: the same rank programs, running over real TCP.
//!
//! Ranks may be threads in one process ([`TcpTransport::wire_loopback`])
//! or separate OS processes on different machines — the transport cannot
//! tell, and neither can the algorithms. Every message is a
//! length-prefixed [`wire`] frame; every received word passes through the
//! same per-(sender, communicator) [`ReorderBuffer`] as the channel
//! transport, so delivery semantics (and therefore the bitwise output and
//! the per-collective [`TrafficLedger`]) are identical.
//!
//! **Connection setup** is a rendezvous handshake: world rank 0 listens on
//! the agreed address; every other rank binds an ephemeral listener of its
//! own (on all interfaces), dials rank 0, and announces `(world rank,
//! listener port)` in a `HELLO` frame. Once all `P - 1` peers have checked
//! in, rank 0 sends each of them the full address table — each peer's
//! *observed* source IP (what the network can actually reach, loopback or
//! not) paired with its announced port — after which rank `i` dials every
//! rank `j` with `1 <= j < i` and accepts a connection from every rank
//! `j > i` — a full mesh, each link authenticated by its `HELLO`.
//!
//! **Failure handling** is explicit, because a blocked `recv` on a socket
//! that will never deliver is a hang, not an error:
//!
//! - a rank that *panics* writes a poison frame to every peer
//!   ([`PeerExchange::poison_all`]) — receivers abort at once;
//! - a rank that *dies silently* (SIGKILL, machine loss) never says
//!   goodbye: its kernel closes the sockets and the per-peer reader thread
//!   turns the EOF/reset into a synthesized "connection lost" event —
//!   receivers abort at once;
//! - a rank aborting on either of those first relays the *original* rank to
//!   its live peers (a `CTRL_ABORT` frame), because its own sockets close
//!   next: whichever event a peer dequeues first, the loss itself or the
//!   relaying victim's, its diagnostic names the rank that actually failed;
//! - a rank that *finishes* writes an orderly `FIN` frame; peers expect
//!   nothing further from it, and [`PeerExchange::finish`] waits for every
//!   peer's goodbye, so the quiescence check is meaningful;
//! - everything else is bounded by the configured receive timeout — no
//!   code path waits forever.

use super::wire::{self, Frame};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mttkrp_netsim::schedule::Phase;
use mttkrp_netsim::transport::{PeerExchange, ReorderBuffer, TrafficLedger};
use mttkrp_netsim::Comm;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a rank joins a TCP machine.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// This rank's world rank in `[0, P)`.
    pub world_rank: usize,
    /// Total number of ranks `P`.
    pub ranks: usize,
    /// The rendezvous address: rank 0 listens here, everyone else dials it
    /// (e.g. `127.0.0.1:47000`).
    pub rendezvous: String,
    /// Bound on every blocking step: handshake accepts/dials, `recv`, and
    /// the finish barrier. A peer that stays silent longer is treated as
    /// lost.
    pub timeout: Duration,
}

impl TcpConfig {
    /// A loopback config with the default 30 s timeout.
    fn loopback(world_rank: usize, ranks: usize, rendezvous: impl Into<String>) -> TcpConfig {
        TcpConfig {
            world_rank,
            ranks,
            rendezvous: rendezvous.into(),
            timeout: Duration::from_secs(30),
        }
    }
}

/// What a reader thread tells the owning rank about one peer connection.
enum Event {
    /// A data frame arrived.
    Data {
        from: usize,
        comm_id: u64,
        payload: Vec<f64>,
    },
    /// The peer announced its own panic.
    Poison { from: usize },
    /// The peer finished its rank program; nothing valid follows.
    Fin { from: usize },
    /// The connection died without a goodbye (reset, EOF, bad frame) —
    /// the peer process is gone or broken.
    Lost { from: usize },
    /// The peer is aborting because it saw rank `cause` fail (`panicked`:
    /// announced by poison rather than a lost connection).
    Abort {
        from: usize,
        cause: usize,
        panicked: bool,
    },
}

/// One rank's handle onto the TCP machine: the wire protocol and failure
/// semantics are the `transport::tcp` module's docs.
pub struct TcpTransport {
    world_rank: usize,
    p: usize,
    timeout: Duration,
    /// Write half per peer (`None` at our own index).
    writers: Vec<Option<TcpStream>>,
    inbox: Receiver<Event>,
    /// Kept so the inbox never reports "disconnected" racing a reader
    /// exit; silence is always resolved by the timeout instead.
    _keepalive: Sender<Event>,
    pending: ReorderBuffer,
    ledger: TrafficLedger,
    /// Per-peer terminal state (fin/poison/lost observed).
    done: Vec<bool>,
    readers: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Joins the machine described by `config`: binds and serves the
    /// rendezvous if `world_rank == 0`, dials it otherwise. Blocks until
    /// the full mesh is up (bounded by `config.timeout`).
    pub fn connect(config: &TcpConfig) -> io::Result<TcpTransport> {
        assert!(
            config.world_rank < config.ranks,
            "world rank {} out of range for P = {}",
            config.world_rank,
            config.ranks
        );
        if config.world_rank == 0 {
            let listener = TcpListener::bind(&config.rendezvous)?;
            TcpTransport::host_on(listener, config.ranks, config.timeout)
        } else {
            TcpTransport::dial(config)
        }
    }

    /// Serves the rendezvous as world rank 0 on an already-bound listener
    /// (useful when the caller needs to learn the OS-assigned port — e.g.
    /// to report it to a launcher — before the peers exist).
    pub fn host_on(
        listener: TcpListener,
        ranks: usize,
        timeout: Duration,
    ) -> io::Result<TcpTransport> {
        let deadline = Instant::now() + timeout;
        let mut streams: Vec<Option<TcpStream>> = (0..ranks).map(|_| None).collect();
        // Per rank: (IPv4 as observed by rank 0, announced listener port).
        // The observed source address — not anything self-reported — is
        // what the other peers can actually reach, loopback or not.
        let mut addrs = vec![(0u32, 0u16); ranks];
        for _ in 1..ranks {
            let stream = accept_deadline(&listener, deadline)?;
            let hello = read_frame_deadline(&stream, deadline)?;
            if hello.comm_id != wire::CTRL_HELLO || hello.payload.len() != 1 {
                return Err(bad_proto("expected HELLO from dialing peer"));
            }
            let from = hello.from as usize;
            if from == 0 || from >= ranks || streams[from].is_some() {
                return Err(bad_proto("HELLO from an impossible or duplicate rank"));
            }
            let std::net::IpAddr::V4(ip) = stream.peer_addr()?.ip() else {
                return Err(bad_proto("the rendezvous mesh supports IPv4 peers only"));
            };
            addrs[from] = (u32::from(ip), hello.payload[0] as u16);
            streams[from] = Some(stream);
        }
        // Everyone checked in: publish the address table.
        let mut table = Vec::with_capacity(2 * ranks);
        for &(ip, port) in &addrs {
            table.push(ip as f64);
            table.push(port as f64);
        }
        for stream in streams.iter_mut().flatten() {
            wire::write_frame(
                &mut &*stream,
                &Frame::data(0, wire::CTRL_TABLE, table.clone()),
            )?;
        }
        Ok(TcpTransport::assemble(0, ranks, timeout, streams))
    }

    /// Dials the rendezvous as a nonzero world rank.
    fn dial(config: &TcpConfig) -> io::Result<TcpTransport> {
        let me = config.world_rank;
        let p = config.ranks;
        let deadline = Instant::now() + config.timeout;
        // All interfaces, so the announced port is reachable from other
        // machines, not just over loopback.
        let my_listener = TcpListener::bind("0.0.0.0:0")?;
        let my_port = my_listener.local_addr()?.port();

        // Rank 0 may not be listening yet; retry until the deadline.
        let zero = connect_deadline(&config.rendezvous, deadline)?;
        wire::write_frame(
            &mut &zero,
            &Frame::data(me, wire::CTRL_HELLO, vec![my_port as f64]),
        )?;
        let table = read_frame_deadline(&zero, deadline)?;
        if table.comm_id != wire::CTRL_TABLE || table.payload.len() != 2 * p {
            return Err(bad_proto("expected the rendezvous address table"));
        }

        let mut streams: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
        streams[0] = Some(zero);
        // Dial every lower nonzero rank at its published address...
        for (peer, slot) in streams.iter_mut().enumerate().take(me).skip(1) {
            let ip = std::net::Ipv4Addr::from(table.payload[2 * peer] as u32);
            let port = table.payload[2 * peer + 1] as u16;
            let stream = connect_deadline(&SocketAddr::from((ip, port)).to_string(), deadline)?;
            wire::write_frame(&mut &stream, &Frame::data(me, wire::CTRL_HELLO, vec![]))?;
            *slot = Some(stream);
        }
        // ...and accept one connection from every higher rank.
        for _ in me + 1..p {
            let stream = accept_deadline(&my_listener, deadline)?;
            let hello = read_frame_deadline(&stream, deadline)?;
            if hello.comm_id != wire::CTRL_HELLO {
                return Err(bad_proto("expected HELLO from a dialing peer"));
            }
            let from = hello.from as usize;
            if from <= me || from >= p || streams[from].is_some() {
                return Err(bad_proto("HELLO from an impossible or duplicate rank"));
            }
            streams[from] = Some(stream);
        }
        Ok(TcpTransport::assemble(me, p, config.timeout, streams))
    }

    /// Wires `p` ranks over loopback TCP inside one process (each rank's
    /// handshake runs on its own thread) and returns the transports
    /// indexed by world rank — the socket twin of [`mttkrp_netsim::wire`],
    /// used by tests and the in-process TCP runtime.
    pub fn wire_loopback(p: usize, timeout: Duration) -> io::Result<Vec<TcpTransport>> {
        assert!(p >= 1, "need at least one rank");
        if p == 1 {
            return Ok(vec![TcpTransport::assemble(0, 1, timeout, vec![None])]);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let mut out: Vec<io::Result<TcpTransport>> = Vec::with_capacity(p);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            let addr = &addr;
            handles.push(scope.spawn(move || TcpTransport::host_on(listener, p, timeout)));
            for me in 1..p {
                handles.push(scope.spawn(move || {
                    let mut config = TcpConfig::loopback(me, p, addr.clone());
                    config.timeout = timeout;
                    TcpTransport::dial(&config)
                }));
            }
            for handle in handles {
                out.push(handle.join().expect("handshake thread panicked"));
            }
        });
        out.into_iter().collect()
    }

    /// Builds the transport from an established mesh: one write half and
    /// one reader thread per peer.
    fn assemble(
        world_rank: usize,
        p: usize,
        timeout: Duration,
        streams: Vec<Option<TcpStream>>,
    ) -> TcpTransport {
        let (tx, rx) = unbounded();
        let mut writers: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
        let mut readers = Vec::new();
        for (peer, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(None)
                .expect("clearing read timeout cannot fail");
            writers[peer] = Some(stream.try_clone().expect("cloning a TCP stream"));
            let tx = tx.clone();
            readers.push(std::thread::spawn(move || read_loop(stream, peer, tx)));
        }
        TcpTransport {
            world_rank,
            p,
            timeout,
            writers,
            inbox: rx,
            _keepalive: tx,
            pending: ReorderBuffer::default(),
            ledger: TrafficLedger::default(),
            done: vec![false; p],
            readers,
        }
    }

    fn assert_member(&self, comm: &Comm) {
        assert!(
            comm.local_index(self.world_rank).is_some(),
            "rank {} is not a member of this communicator",
            self.world_rank
        );
    }

    /// Pulls the next event off the inbox (bounded), updating peer state.
    /// Returns `Some((from, comm_id, payload))` for data, `None` for an
    /// orderly peer FIN; panics on poison, loss, or timeout — the bounded
    /// failure semantics of the transport.
    fn next_event(&mut self, waiting_for: Option<usize>) -> Option<(usize, u64, Vec<f64>)> {
        let me = self.world_rank;
        match self.inbox.recv_timeout(self.timeout) {
            Ok(Event::Data {
                from,
                comm_id,
                payload,
            }) => Some((from, comm_id, payload)),
            Ok(Event::Poison { from }) => self.abort(from, from, true),
            Ok(Event::Lost { from }) => self.abort(from, from, false),
            Ok(Event::Abort {
                from,
                cause,
                panicked,
            }) => self.abort(from, cause, panicked),
            Ok(Event::Fin { from }) => {
                self.done[from] = true;
                if waiting_for == Some(from) {
                    panic!(
                        "rank {me} aborting: peer rank {from} finished while a \
                         message from it was still expected"
                    );
                }
                None
            }
            Err(RecvTimeoutError::Timeout) => panic!(
                "rank {me} aborting: no message for {:?} while waiting on rank {:?} — peer hung?",
                self.timeout, waiting_for
            ),
            Err(RecvTimeoutError::Disconnected) => {
                unreachable!("keepalive sender keeps the inbox connected")
            }
        }
    }

    /// Aborts this rank because rank `cause` failed, as learned from peer
    /// `from` (the same rank unless `from` relayed it). Live peers are told
    /// the cause first: this rank's sockets close when the panic unwinds,
    /// and without the relay a peer could see that loss before the
    /// original one and name a victim as the cause.
    fn abort(&mut self, from: usize, cause: usize, panicked: bool) -> ! {
        self.done[from] = true;
        let me = self.world_rank;
        let relay = Frame::data(
            me,
            wire::CTRL_ABORT,
            vec![cause as f64, f64::from(u8::from(panicked))],
        );
        for (peer, stream) in self.writers.iter().enumerate() {
            if let (Some(stream), false) = (stream, self.done[peer]) {
                // A dying peer may already be gone; ignore write failures.
                let _ = wire::write_frame(&mut &*stream, &relay);
            }
        }
        let what = if panicked {
            "panicked"
        } else {
            "connection lost"
        };
        let relayed = if from == cause {
            String::new()
        } else {
            format!(" (relayed by rank {from})")
        };
        panic!("rank {me} aborting: peer rank {cause} {what} mid-run{relayed}")
    }
}

impl PeerExchange for TcpTransport {
    fn world_rank(&self) -> usize {
        self.world_rank
    }

    fn num_ranks(&self) -> usize {
        self.p
    }

    fn begin_phase(&mut self, phase: Phase) {
        self.ledger.open(phase);
    }

    /// The words land in the kernel socket buffer and the peer's reader
    /// thread drains its end unconditionally, so a send never blocks on the
    /// peer: the SPMD exchange cannot deadlock even when every rank sends
    /// first.
    fn send(&mut self, comm: &Comm, dest: usize, data: &[f64]) {
        self.assert_member(comm);
        let comm_id = comm.id();
        assert!(
            comm_id < wire::CTRL_BASE,
            "communicator id landed in the reserved control range"
        );
        let dest_world = comm.world_rank(dest);
        let t = self.ledger.current();
        t.words_sent += data.len() as u64;
        t.messages_sent += 1;
        if dest_world == self.world_rank {
            // Self-sends never touch the wire (the ring collectives don't
            // produce them, but the transport is not limited to rings).
            self.pending.push(dest_world, comm_id, data.to_vec());
            return;
        }
        let stream = self.writers[dest_world]
            .as_ref()
            .expect("mesh invariant: a writer exists for every peer");
        if let Err(e) = wire::write_data_frame(&mut &*stream, self.world_rank, comm_id, data) {
            panic!(
                "rank {} aborting: send to peer rank {dest_world} failed mid-run: {e}",
                self.world_rank
            );
        }
    }

    fn recv(&mut self, comm: &Comm, src: usize) -> Vec<f64> {
        self.assert_member(comm);
        let src_world = comm.world_rank(src);
        let comm_id = comm.id();
        loop {
            if let Some(data) = self.pending.pop(src_world, comm_id) {
                self.ledger.current().words_received += data.len() as u64;
                return data;
            }
            if let Some((from, cid, payload)) = self.next_event(Some(src_world)) {
                self.pending.push(from, cid, payload);
            }
        }
    }

    fn poison_all(&self) {
        for stream in self.writers.iter().flatten() {
            // A dying peer may already be gone; ignore write failures.
            let _ = wire::write_frame(&mut &*stream, &Frame::poison(self.world_rank));
            let _ = (&*stream).flush();
        }
    }

    fn finish(mut self) -> TrafficLedger {
        // Orderly goodbye to everyone, then wait for everyone's goodbye —
        // the barrier is what makes the quiescence check below meaningful
        // (all in-flight frames from live peers have been drained once
        // their FIN arrives, because the wire is FIFO per connection).
        for stream in self.writers.iter().flatten() {
            let _ = wire::write_frame(&mut &*stream, &Frame::fin(self.world_rank));
        }
        let me = self.world_rank;
        while (0..self.p).any(|r| r != me && !self.done[r]) {
            if let Some((from, cid, payload)) = self.next_event(None) {
                self.pending.push(from, cid, payload);
            }
        }
        for reader in std::mem::take(&mut self.readers) {
            reader.join().expect("reader thread panicked");
        }
        let leftover = self.pending.len();
        assert_eq!(
            leftover, 0,
            "rank {me} finished with {leftover} unconsumed message(s)"
        );
        std::mem::take(&mut self.ledger)
    }
}

impl Drop for TcpTransport {
    /// Shuts the sockets down so a transport dropped *without* `finish`
    /// (a panicking or dying rank) is visible to its peers: the reader
    /// threads hold clones of the streams, so merely dropping the write
    /// halves would leave every fd open and the peers blocked forever.
    /// `shutdown` acts on the underlying socket — blocked reads on both
    /// ends return immediately.
    fn drop(&mut self) {
        for stream in self.writers.iter().flatten() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The per-peer reader: turns the byte stream into events until the peer
/// says goodbye (FIN), announces a panic (poison), or the connection dies.
fn read_loop(mut stream: TcpStream, peer: usize, tx: Sender<Event>) {
    loop {
        match wire::read_frame(&mut stream) {
            Ok(frame) if frame.poison => {
                let _ = tx.send(Event::Poison { from: peer });
                return;
            }
            Ok(frame) if frame.comm_id == wire::CTRL_FIN => {
                let _ = tx.send(Event::Fin { from: peer });
                return;
            }
            Ok(frame) if frame.comm_id == wire::CTRL_ABORT && frame.payload.len() == 2 => {
                let _ = tx.send(Event::Abort {
                    from: peer,
                    cause: frame.payload[0] as usize,
                    panicked: frame.payload[1] != 0.0,
                });
                return;
            }
            Ok(frame) => {
                debug_assert_eq!(frame.from as usize, peer, "frame sender vs connection");
                if tx
                    .send(Event::Data {
                        from: peer,
                        comm_id: frame.comm_id,
                        payload: frame.payload,
                    })
                    .is_err()
                {
                    return; // owning rank is gone (panic unwound past it)
                }
            }
            Err(_) => {
                // EOF, reset, or a garbled frame: the peer is gone or
                // broken. Either way, nothing more will arrive.
                let _ = tx.send(Event::Lost { from: peer });
                return;
            }
        }
    }
}

/// `accept` with a deadline (the listener is polled non-blockingly).
fn accept_deadline(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "rendezvous accept timed out",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// `connect` with retries until a deadline (the peer may not be listening
/// yet — rendezvous order is not synchronized).
fn connect_deadline(addr: &str, deadline: Instant) -> io::Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("rendezvous dial to {addr} timed out: {e}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Reads one frame with the stream's read timeout set to the remaining
/// deadline (handshake only; run-time reads are bounded by the inbox).
fn read_frame_deadline(stream: &TcpStream, deadline: Instant) -> io::Result<Frame> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "handshake timed out"))?;
    stream.set_read_timeout(Some(remaining))?;
    wire::read_frame(&mut &*stream)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn bad_proto(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_netsim::collectives::{all_gather, reduce_scatter};
    use mttkrp_netsim::{run_spmd, SimMachine};

    fn wire_pair() -> (TcpTransport, TcpTransport) {
        let mut eps = TcpTransport::wire_loopback(2, Duration::from_secs(10)).unwrap();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        (e0, e1)
    }

    #[test]
    fn send_recv_over_loopback_charges_the_phase() {
        let (mut e0, mut e1) = wire_pair();
        let world = e0.world();
        // `finish` is a peer barrier, so each rank runs on its own thread
        // — exactly as the runtime drives them.
        let side1 = std::thread::spawn(move || {
            e1.begin_phase(Phase::TensorAllGather);
            let got = e1.recv(&e1.world(), 0);
            e1.send(&e1.world(), 0, &[4.0]);
            (got, e1.finish())
        });
        e0.begin_phase(Phase::TensorAllGather);
        e0.send(&world, 1, &[1.0, 2.0, 3.0]);
        assert_eq!(e0.recv(&world, 1), vec![4.0]);
        let l0 = e0.finish();
        let (got, l1) = side1.join().unwrap();
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
        assert_eq!(l0.phases()[0].words_sent, 3);
        assert_eq!(l0.phases()[0].words_received, 1);
        assert_eq!(l0.phases()[0].messages_sent, 1);
        assert_eq!(l1.phases()[0].words_received, 3);
    }

    #[test]
    fn comms_do_not_mix_over_tcp() {
        let (mut e0, mut e1) = wire_pair();
        let world = e0.world();
        let sub = Comm::subset(vec![0, 1], 7);
        let side1 = std::thread::spawn(move || {
            let world = e1.world();
            let sub = Comm::subset(vec![0, 1], 7);
            e1.begin_phase(Phase::TensorAllGather);
            // Receive in the opposite order of sending: selection by comm
            // works over the socket reorder buffer too.
            let first = e1.recv(&sub, 0);
            let second = e1.recv(&world, 0);
            e1.finish();
            (first, second)
        });
        e0.begin_phase(Phase::TensorAllGather);
        e0.send(&world, 1, &[1.0]);
        e0.send(&sub, 1, &[2.0]);
        e0.finish();
        let (first, second) = side1.join().unwrap();
        assert_eq!(first, vec![2.0]);
        assert_eq!(second, vec![1.0]);
    }

    #[test]
    fn single_rank_needs_no_sockets() {
        let mut eps = TcpTransport::wire_loopback(1, Duration::from_secs(1)).unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.begin_phase(Phase::OutputReduceScatter);
        assert_eq!(e0.num_ranks(), 1);
        let ledger = e0.finish();
        assert_eq!(ledger.totals().words_sent, 0);
    }

    #[test]
    fn four_rank_mesh_routes_every_pair() {
        let p = 4;
        let eps = TcpTransport::wire_loopback(p, Duration::from_secs(10)).unwrap();
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                std::thread::spawn(move || {
                    let world = ep.world();
                    let me = ep.world_rank();
                    ep.begin_phase(Phase::TensorAllGather);
                    for dest in 0..p {
                        if dest != me {
                            ep.send(&world, dest, &[(me * 10 + dest) as f64]);
                        }
                    }
                    let mut got = Vec::new();
                    for src in 0..p {
                        if src != me {
                            got.push(ep.recv(&world, src)[0]);
                        }
                    }
                    (got, ep.finish())
                })
            })
            .collect();
        for (me, h) in handles.into_iter().enumerate() {
            let (got, ledger) = h.join().unwrap();
            let expect: Vec<f64> = (0..p)
                .filter(|&s| s != me)
                .map(|s| (s * 10 + me) as f64)
                .collect();
            assert_eq!(got, expect, "rank {me}");
            assert_eq!(ledger.totals().messages_sent, (p - 1) as u64);
        }
    }

    #[test]
    fn quiescence_check_catches_leftovers_over_tcp() {
        let (mut e0, e1) = wire_pair();
        let world = e0.world();
        e0.begin_phase(Phase::TensorAllGather);
        e0.send(&world, 1, &[1.0]);
        let r = std::thread::spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e1.finish()));
            out.is_err()
        });
        e0.finish();
        assert!(r.join().unwrap(), "e1.finish() must panic on the leftover");
    }

    #[test]
    fn poison_aborts_a_blocked_peer() {
        let (e0, mut e1) = wire_pair();
        let world = e1.world();
        let blocked = std::thread::spawn(move || {
            e1.begin_phase(Phase::TensorAllGather);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e1.recv(&world, 0)));
            match out {
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default(),
                Ok(_) => "no panic".to_string(),
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        e0.poison_all();
        drop(e0);
        let msg = blocked.join().unwrap();
        assert!(msg.contains("panicked mid-run"), "got: {msg}");
    }

    #[test]
    fn silent_connection_loss_aborts_a_blocked_peer() {
        let (e0, mut e1) = wire_pair();
        let world = e1.world();
        let blocked = std::thread::spawn(move || {
            e1.begin_phase(Phase::TensorAllGather);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e1.recv(&world, 0)));
            match out {
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default(),
                Ok(_) => "no panic".to_string(),
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        drop(e0); // no poison, no FIN: sockets just close
        let msg = blocked.join().unwrap();
        assert!(msg.contains("connection lost mid-run"), "got: {msg}");
    }

    #[test]
    fn an_aborting_rank_relays_the_original_cause_to_its_peers() {
        // Rank 0 stays alive and silent; rank 2 is *told* it lost rank 0 (the
        // event is injected, so no timing decides what rank 1 sees). Rank 2's
        // sockets close as it aborts: without the relay rank 1 could only
        // blame rank 2, the victim.
        let mut eps = TcpTransport::wire_loopback(3, Duration::from_secs(10)).unwrap();
        let mut e2 = eps.pop().unwrap();
        let mut e1 = eps.pop().unwrap();
        let _e0 = eps.pop().unwrap();
        let abort_text = |ep: &mut TcpTransport| {
            let world = ep.world();
            ep.begin_phase(Phase::TensorAllGather);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ep.recv(&world, 0)));
            let payload = out.expect_err("must abort");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        e2._keepalive.send(Event::Lost { from: 0 }).unwrap();
        let msg = abort_text(&mut e2);
        assert!(msg.contains("peer rank 0 connection lost"), "got: {msg}");
        drop(e2);
        let msg = abort_text(&mut e1);
        assert!(
            msg.contains("peer rank 0 connection lost") && msg.contains("relayed by rank 2"),
            "got: {msg}"
        );
    }

    #[test]
    fn recv_times_out_instead_of_hanging() {
        let mut eps = TcpTransport::wire_loopback(2, Duration::from_secs(10)).unwrap();
        let mut e1 = eps.pop().unwrap();
        let _e0 = eps.pop().unwrap(); // alive but silent
        e1.timeout = Duration::from_millis(100);
        let world = e1.world();
        e1.begin_phase(Phase::TensorAllGather);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e1.recv(&world, 0)));
        let payload = out.expect_err("must time out");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("no message for"), "got: {msg}");
    }

    #[test]
    fn all_gather_over_tcp_bitwise_matches_netsim() {
        let p = 4;
        let mk_local = |me: usize| -> Vec<f64> {
            (0..=me).map(|i| 0.1 + (me * 10 + i) as f64 / 7.0).collect()
        };
        let sim = SimMachine::new(p).run(|rank| {
            let world = rank.world();
            all_gather(rank, &world, &mk_local(rank.world_rank()))
        });
        let eps = TcpTransport::wire_loopback(p, Duration::from_secs(30)).unwrap();
        let (outs, ledgers) = run_spmd(eps, |ep| {
            ep.begin_phase(Phase::TensorAllGather);
            let world = ep.world();
            let local = mk_local(ep.world_rank());
            all_gather(ep, &world, &local)
        });
        for (me, (out, ledger)) in outs.iter().zip(&ledgers).enumerate() {
            assert_eq!(out, &sim.outputs[me], "rank {me} output");
            let t = ledger.totals();
            assert_eq!(t.words_sent, sim.stats[me].words_sent);
            assert_eq!(t.words_received, sim.stats[me].words_received);
            assert_eq!(t.messages_sent, sim.stats[me].messages_sent);
        }
    }

    #[test]
    fn reduce_scatter_over_tcp_bitwise_matches_netsim() {
        let p = 5;
        let counts = [2usize, 1, 3, 2, 1];
        let total: usize = counts.iter().sum();
        let mk_data = |me: usize| -> Vec<f64> {
            (0..total)
                .map(|i| ((me + 1) * (i + 3)) as f64 / 9.0)
                .collect()
        };
        let sim = SimMachine::new(p).run(|rank| {
            let world = rank.world();
            reduce_scatter(rank, &world, &mk_data(rank.world_rank()), &counts)
        });
        let eps = TcpTransport::wire_loopback(p, Duration::from_secs(30)).unwrap();
        let (outs, ledgers) = run_spmd(eps, |ep| {
            ep.begin_phase(Phase::OutputReduceScatter);
            let world = ep.world();
            let data = mk_data(ep.world_rank());
            reduce_scatter(ep, &world, &data, &counts)
        });
        for (me, (out, ledger)) in outs.iter().zip(&ledgers).enumerate() {
            // Bitwise: the ring reduction order is identical.
            assert_eq!(out, &sim.outputs[me], "rank {me} output");
            assert_eq!(ledger.totals().words_sent, sim.stats[me].words_sent);
        }
    }
}
