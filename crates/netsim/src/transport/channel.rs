//! The in-process channel transport: ranks are threads in one process and
//! every message is an owned `Vec<f64>` moved over its receiver's `std::sync::mpsc` channel.
//!
//! Zero serialization, no sockets: the fabric of the simulated machine and
//! the reference implementation of the [`PeerExchange`] contract that the
//! TCP transport must match word for word.

use super::{PeerExchange, ReorderBuffer, TrafficLedger};
use crate::comm::Comm;
use crate::schedule::Phase;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// A typed message in flight: who sent it, on which communicator, and the
/// payload words. A `poison` packet carries no data — it tells the
/// receiver that the sending rank panicked, so blocking on further
/// messages is hopeless and the receiver must abort too.
struct Packet {
    from: usize,
    comm_id: u64,
    payload: Vec<f64>,
    poison: bool,
}

/// The shared wiring of the machine: one sender handle per rank.
struct Wiring {
    senders: Vec<Sender<Packet>>,
}

/// One rank's handle onto the channel transport: its identity, mailbox,
/// reorder buffer, and traffic ledger. Created by [`wire`] and moved into
/// the rank's thread.
pub struct Endpoint {
    world_rank: usize,
    p: usize,
    wiring: Arc<Wiring>,
    receiver: Receiver<Packet>,
    pending: ReorderBuffer,
    ledger: TrafficLedger,
}

/// Creates the wiring for `p` ranks and returns one [`Endpoint`] per rank,
/// indexed by world rank.
pub fn wire(p: usize) -> Vec<Endpoint> {
    assert!(p >= 1, "need at least one rank");
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (s, r) = channel();
        senders.push(s);
        receivers.push(r);
    }
    let wiring = Arc::new(Wiring { senders });
    receivers
        .into_iter()
        .enumerate()
        .map(|(world_rank, receiver)| Endpoint {
            world_rank,
            p,
            wiring: Arc::clone(&wiring),
            receiver,
            pending: ReorderBuffer::default(),
            ledger: TrafficLedger::default(),
        })
        .collect()
}

impl Endpoint {
    fn assert_member(&self, comm: &Comm) {
        assert!(
            comm.local_index(self.world_rank).is_some(),
            "rank {} is not a member of this communicator",
            self.world_rank
        );
    }
}

impl PeerExchange for Endpoint {
    fn world_rank(&self) -> usize {
        self.world_rank
    }

    fn num_ranks(&self) -> usize {
        self.p
    }

    fn begin_phase(&mut self, phase: Phase) {
        self.ledger.open(phase);
    }

    fn send(&mut self, comm: &Comm, dest: usize, data: &[f64]) {
        self.assert_member(comm);
        let dest_world = comm.world_rank(dest);
        let t = self.ledger.current();
        t.words_sent += data.len() as u64;
        t.messages_sent += 1;
        if self.wiring.senders[dest_world]
            .send(Packet {
                from: self.world_rank,
                comm_id: comm.id(),
                payload: data.to_vec(),
                poison: false,
            })
            .is_err()
        {
            // The peer's mailbox is gone: it panicked and was dropped
            // mid-unwind. A chained abort, not an original failure.
            panic!(
                "rank {} aborting: send to peer rank {dest_world} failed mid-run (peer gone)",
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
            let pkt = self
                .receiver
                .recv()
                .expect("transport closed while waiting for a message");
            assert!(
                !pkt.poison,
                "rank {} aborting: peer rank {} panicked mid-run",
                self.world_rank, pkt.from
            );
            self.pending.push(pkt.from, pkt.comm_id, pkt.payload);
        }
    }

    fn poison_all(&self) {
        for (dest, sender) in self.wiring.senders.iter().enumerate() {
            if dest == self.world_rank {
                continue;
            }
            // A dying peer may already be gone; ignore closed channels.
            let _ = sender.send(Packet {
                from: self.world_rank,
                comm_id: 0,
                payload: Vec::new(),
                poison: true,
            });
        }
    }

    fn finish(mut self) -> TrafficLedger {
        while let Ok(pkt) = self.receiver.try_recv() {
            // A poison from a dying peer after this rank already finished
            // its program is not a protocol violation of *this* rank; the
            // peer's own panic is already propagating.
            if pkt.poison {
                continue;
            }
            self.pending.push(pkt.from, pkt.comm_id, pkt.payload);
        }
        let leftover = self.pending.len();
        assert_eq!(
            leftover, 0,
            "rank {} finished with {} unconsumed message(s)",
            self.world_rank, leftover
        );
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_moves_data_and_charges_phase() {
        let mut eps = wire(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let world = e0.world();
        e0.begin_phase(Phase::TensorAllGather);
        e1.begin_phase(Phase::TensorAllGather);
        e0.send(&world, 1, &[1.0, 2.0, 3.0]);
        assert_eq!(e1.recv(&world, 0), vec![1.0, 2.0, 3.0]);
        let l0 = e0.finish();
        let l1 = e1.finish();
        assert_eq!(l0.phases()[0].words_sent, 3);
        assert_eq!(l0.phases()[0].messages_sent, 1);
        assert_eq!(l1.phases()[0].words_received, 3);
        assert_eq!(l0.totals().words_sent, 3);
    }

    #[test]
    fn traffic_lands_in_the_open_phase() {
        let mut eps = wire(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let world = e0.world();
        for phase in [
            Phase::FactorAllGather { mode: 0 },
            Phase::OutputReduceScatter,
        ] {
            e0.begin_phase(phase);
            e1.begin_phase(phase);
            e0.send(&world, 1, &[4.0]);
            let _ = e1.recv(&world, 0);
        }
        let l0 = e0.finish();
        let l1 = e1.finish();
        assert_eq!(l0.phases().len(), 2);
        assert_eq!(l0.phases()[0].phase, Phase::FactorAllGather { mode: 0 });
        assert_eq!(l0.phases()[0].words_sent, 1);
        assert_eq!(l0.phases()[1].phase, Phase::OutputReduceScatter);
        assert_eq!(l0.phases()[1].words_sent, 1);
        assert_eq!(l1.phases()[1].words_received, 1);
    }

    #[test]
    fn messages_on_different_comms_do_not_mix() {
        let mut eps = wire(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let world = e0.world();
        let sub = Comm::subset(vec![0, 1], 99);
        e0.begin_phase(Phase::TensorAllGather);
        e1.begin_phase(Phase::TensorAllGather);
        e0.send(&world, 1, &[1.0]);
        e0.send(&sub, 1, &[2.0]);
        // Receive in the opposite order of sending: selection by comm works.
        assert_eq!(e1.recv(&sub, 0), vec![2.0]);
        assert_eq!(e1.recv(&world, 0), vec![1.0]);
        e0.finish();
        e1.finish();
    }

    #[test]
    #[should_panic(expected = "unconsumed")]
    fn quiescence_check_catches_leftovers() {
        let mut eps = wire(2);
        let e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let world = e0.world();
        e0.begin_phase(Phase::TensorAllGather);
        e0.send(&world, 1, &[1.0]);
        e1.finish();
    }

    #[test]
    #[should_panic(expected = "outside a phase")]
    fn traffic_outside_a_phase_is_rejected() {
        let mut eps = wire(2);
        let _e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let world = e0.world();
        e0.send(&world, 1, &[1.0]);
    }
}
