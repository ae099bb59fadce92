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
//!   its live peers (an `ABORT` frame), because its own sockets close
//!   next: whichever event a peer dequeues first, the loss itself or the
//!   relaying victim's, its diagnostic names the rank that actually failed;
//! - a rank that *finishes* writes an orderly `FIN` frame; peers expect
//!   nothing further from it, and [`PeerExchange::finish`] waits for every
//!   peer's goodbye, so the quiescence check is meaningful;
//! - everything else is bounded by the configured receive timeout — no
//!   code path waits forever.

use super::wire::{self, Dir, Fabric, Frame, FrameHeader};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mttkrp_netsim::schedule::Phase;
use mttkrp_netsim::transport::{PeerExchange, ReorderBuffer, TrafficLedger};
use mttkrp_netsim::Comm;
use std::borrow::Cow;
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
            let (hello, Fabric::Hello { ports }) = read_deadline(&stream, deadline)? else {
                return Err(bad_proto("expected HELLO from dialing peer"));
            };
            let Some(&port) = ports.first().filter(|_| ports.len() == 1) else {
                return Err(bad_proto(
                    "expected HELLO with one port from a dialing peer",
                ));
            };
            let from = hello.from as usize;
            if from == 0 || from >= ranks || streams[from].is_some() {
                return Err(bad_proto("HELLO from an impossible or duplicate rank"));
            }
            let std::net::IpAddr::V4(ip) = stream.peer_addr()?.ip() else {
                return Err(bad_proto("the rendezvous mesh supports IPv4 peers only"));
            };
            let port =
                u16::try_from(port).map_err(|_| bad_proto("HELLO with an impossible port"))?;
            addrs[from] = (u32::from(ip), port);
            streams[from] = Some(stream);
        }
        // Everyone checked in: publish the address table.
        let table = addrs
            .iter()
            .flat_map(|&(ip, port)| [u64::from(ip), u64::from(port)]);
        let table = Fabric::Table {
            addrs: Cow::Owned(table.collect()),
        };
        for stream in streams.iter_mut().flatten() {
            table.write(&mut &*stream, 0, None)?;
        }
        Ok(TcpTransport::assemble(0, ranks, timeout, streams))
    }

    /// Dials the rendezvous as a nonzero world rank.
    fn dial(config: &TcpConfig) -> io::Result<TcpTransport> {
        let (me, p, deadline) = (
            config.world_rank,
            config.ranks,
            Instant::now() + config.timeout,
        );
        // All interfaces, so the announced port is reachable from other
        // machines, not just over loopback.
        let my_listener = TcpListener::bind("0.0.0.0:0")?;
        let my_port = my_listener.local_addr()?.port();

        // Rank 0 may not be listening yet; retry until the deadline.
        let zero = connect_deadline(&config.rendezvous, deadline)?;
        let hello = |ports: Vec<u64>| Fabric::Hello {
            ports: Cow::Owned(ports),
        };
        hello(vec![u64::from(my_port)]).write(&mut &zero, me as u32, None)?;
        let (_, Fabric::Table { addrs }) = read_deadline(&zero, deadline)? else {
            return Err(bad_proto("expected the rendezvous address table"));
        };
        if addrs.len() != 2 * p {
            return Err(bad_proto("expected the rendezvous address table"));
        }

        let mut streams: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
        streams[0] = Some(zero);
        // Dial every lower nonzero rank at its published address...
        for (peer, slot) in streams.iter_mut().enumerate().take(me).skip(1) {
            let entry = (
                u32::try_from(addrs[2 * peer]),
                u16::try_from(addrs[2 * peer + 1]),
            );
            let (Ok(ip), Ok(port)) = entry else {
                return Err(bad_proto("an address table entry out of range"));
            };
            let ip = std::net::Ipv4Addr::from(ip);
            let stream = connect_deadline(&SocketAddr::from((ip, port)).to_string(), deadline)?;
            hello(Vec::new()).write(&mut &stream, me as u32, None)?;
            *slot = Some(stream);
        }
        // ...and accept one connection from every higher rank.
        for _ in me + 1..p {
            let stream = accept_deadline(&my_listener, deadline)?;
            let (hello, Fabric::Hello { .. }) = read_deadline(&stream, deadline)? else {
                return Err(bad_proto("expected HELLO from a dialing peer"));
            };
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
                let (world_rank, ranks, rendezvous) = (me, p, addr.clone());
                let config = TcpConfig {
                    world_rank,
                    ranks,
                    rendezvous,
                    timeout,
                };
                handles.push(scope.spawn(move || TcpTransport::dial(&config)));
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
        let relay = Fabric::Abort { cause, panicked };
        for (peer, stream) in self.writers.iter().enumerate() {
            if let (Some(stream), false) = (stream, self.done[peer]) {
                // A dying peer may already be gone; ignore write failures.
                let _ = relay.write(&mut &*stream, me as u32, None);
            }
        }
        let what = ["connection lost", "panicked"][usize::from(panicked)];
        let relayed = (from != cause).then(|| format!(" (relayed by rank {from})"));
        let relayed = relayed.unwrap_or_default();
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
        let me = self.world_rank as u32;
        if let Err(e) = wire::write_parts(&mut &*stream, me, comm_id, None, &[data]) {
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
            let _ = Fabric::Fin {}.write(&mut &*stream, self.world_rank as u32, None);
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
        let header = wire::read_header(&mut stream);
        let last = match header {
            Ok(header) if header.poison => Event::Poison { from: peer },
            Ok(header) if header.comm_id < wire::CTRL_BASE => {
                let Ok(frame) = wire::read_payload(&mut stream, &header) else {
                    let _ = tx.send(Event::Lost { from: peer });
                    return;
                };
                debug_assert_eq!(frame.from as usize, peer, "frame sender vs connection");
                let (from, comm_id, payload) = (peer, frame.comm_id, frame.payload);
                match tx.send(Event::Data {
                    from,
                    comm_id,
                    payload,
                }) {
                    Ok(()) => continue,
                    Err(_) => return, // owning rank is gone (panic unwound past it)
                }
            }
            Ok(header) => match Fabric::read(&mut stream, &header, Dir::Both) {
                Ok(Fabric::Fin {}) => Event::Fin { from: peer },
                Ok(Fabric::Abort { cause, panicked }) => Event::Abort {
                    from: peer,
                    cause,
                    panicked,
                },
                // Any other control frame mid-run is out of protocol.
                _ => Event::Lost { from: peer },
            },
            // EOF, reset, or a garbled frame: the peer is gone or broken.
            // Either way, nothing more will arrive.
            Err(_) => Event::Lost { from: peer },
        };
        let _ = tx.send(last);
        return;
    }
}

/// `accept` with a deadline (the listener is polled non-blockingly).
pub fn accept_deadline(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "accept timed out"));
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

/// Reads one control frame of the rank fabric with the stream's read
/// timeout set to the remaining deadline (the handshake and the launcher's
/// report connection; run-time reads are bounded by the inbox).
pub fn read_deadline(
    stream: &TcpStream,
    deadline: Instant,
) -> io::Result<(FrameHeader, Fabric<'static>)> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "timed out waiting for a frame"))?;
    stream.set_read_timeout(Some(remaining))?;
    Fabric::next(&mut &*stream, Dir::Both)
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
        (eps.pop().unwrap(), e1)
    }

    /// The text `ep` panics with while it waits on rank 0's message.
    fn abort_text(ep: &mut TcpTransport) -> String {
        let world = ep.world();
        ep.begin_phase(Phase::TensorAllGather);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ep.recv(&world, 0)));
        let payload = out.expect_err("must abort");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    /// What a rank blocked on its peer panics with once `fail` has ended
    /// that peer.
    fn blocked_peer_sees(fail: impl FnOnce(TcpTransport)) -> String {
        let (e0, mut e1) = wire_pair();
        let blocked = std::thread::spawn(move || abort_text(&mut e1));
        std::thread::sleep(Duration::from_millis(50));
        fail(e0);
        blocked.join().unwrap()
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
        let (outs, ledgers) = run_spmd(eps, |ep| {
            let (world, me) = (ep.world(), ep.world_rank());
            ep.begin_phase(Phase::TensorAllGather);
            let peers = || (0..p).filter(move |&r| r != me);
            peers().for_each(|dest| ep.send(&world, dest, &[(me * 10 + dest) as f64]));
            peers()
                .map(|src| ep.recv(&world, src)[0])
                .collect::<Vec<_>>()
        });
        for (me, (got, ledger)) in outs.iter().zip(&ledgers).enumerate() {
            let expect: Vec<f64> = (0..p)
                .filter(|&s| s != me)
                .map(|s| (s * 10 + me) as f64)
                .collect();
            assert_eq!(got, &expect, "rank {me}");
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
        let msg = blocked_peer_sees(|e0| e0.poison_all());
        assert!(msg.contains("panicked mid-run"), "got: {msg}");
    }

    #[test]
    fn silent_connection_loss_aborts_a_blocked_peer() {
        let msg = blocked_peer_sees(drop); // no poison, no FIN: sockets just close
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
        let (_e0, mut e1) = wire_pair(); // rank 0 alive but silent
        e1.timeout = Duration::from_millis(100);
        let msg = abort_text(&mut e1);
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
