//! The one transport seam every rank program runs over, and the in-process
//! fabric behind it.
//!
//! A transport moves owned `Vec<f64>` messages between ranks, tagged with
//! the sending rank and the [`Comm`] id, and a per-rank reorder buffer
//! preserves the per-(sender, communicator) FIFO order MPI guarantees. Two
//! implementations exist, driven by the *identical* rank programs:
//!
//! - `channel` — ranks are threads in one process exchanging buffers over
//!   in-process channels ([`Endpoint`]): the simulator's machine
//!   ([`crate::SimMachine`]) and `mttkrp-core::par`'s parallel MTTKRPs;
//! - `mttkrp-dist`'s TCP transport — ranks are processes (or threads)
//!   exchanging length-prefixed frames over sockets, feeding the same
//!   [`ReorderBuffer`] and charging the same [`TrafficLedger`].
//!
//! Every send and receive is charged to the *current phase* of the rank's
//! [`TrafficLedger`] — the collective the rank program is executing — so a
//! finished run can be compared against the predicted
//! [`crate::schedule::CommSchedule`] collective by collective, not just in
//! total. The contract is transport-independent: a faithful run satisfies
//! `ledger.phases() == predicted.phases` over loopback TCP exactly as it
//! does over channels.

mod channel;

pub use channel::{wire, Endpoint};

use crate::comm::Comm;
use crate::schedule::{sum_phase_traffic, Phase, PhaseTraffic};
use crate::stats::CommStats;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// The transport seam: everything a rank program — and the ring
/// collectives of [`crate::collectives`] — needs to move words and account
/// for them.
///
/// One generic implementation of each ring and of each rank program runs
/// over every implementation, so block routing and the deterministic
/// reduction order are structural: a run is bitwise identical across
/// transports.
///
/// Semantics every implementation must provide:
///
/// - per-(sender, communicator) FIFO delivery ([`PeerExchange::recv`]
///   selects by source and communicator through a reorder buffer);
/// - non-blocking sends (unbounded buffering), so the SPMD send-then-receive
///   exchange of a ring step cannot deadlock when every member of a
///   communicator sends first;
/// - traffic charged to the ledger phase opened by
///   [`PeerExchange::begin_phase`], and traffic outside a phase rejected;
/// - failure propagation: a rank that dies mid-run must cause every peer
///   blocked on it to surface an error within a bounded time instead of
///   waiting forever ([`PeerExchange::poison_all`] for announced deaths;
///   the TCP transport additionally converts connection loss into the same
///   abort).
pub trait PeerExchange: Send {
    /// This rank's world rank in `[0, P)`.
    fn world_rank(&self) -> usize;

    /// Total number of ranks `P`.
    fn num_ranks(&self) -> usize;

    /// The world communicator.
    fn world(&self) -> Comm {
        Comm::world(self.num_ranks())
    }

    /// Opens a new ledger phase; subsequent traffic is charged to it.
    fn begin_phase(&mut self, phase: Phase);

    /// Sends `data` to the rank with local index `dest` in `comm`,
    /// charging `data.len()` words to the current phase. Sending to oneself
    /// is allowed (received later, and counted on both sides, like an MPI
    /// self-send).
    ///
    /// # Panics
    /// Panics if this rank is not a member of `comm`.
    fn send(&mut self, comm: &Comm, dest: usize, data: &[f64]);

    /// Receives the next message from local rank `src` on `comm`
    /// (blocking), charging its length to the current phase.
    fn recv(&mut self, comm: &Comm, src: usize) -> Vec<f64>;

    /// Simultaneous exchange: send to `dest`, then receive from `src` (both
    /// local indices in `comm`). Sends never block, so this cannot deadlock.
    fn sendrecv(&mut self, comm: &Comm, dest: usize, data: &[f64], src: usize) -> Vec<f64> {
        self.send(comm, dest, data);
        self.recv(comm, src)
    }

    /// Notifies every other rank that this rank is dying (panicked), so
    /// peers blocked in [`PeerExchange::recv`] abort instead of waiting
    /// forever for messages that will never come. Called by
    /// [`crate::run_spmd`]'s panic handler; the resulting peer panics chain
    /// transitively, so the whole machine winds down and the original panic
    /// can propagate.
    fn poison_all(&self);

    /// Consumes the transport, asserting quiescence (no undelivered
    /// messages), and returns its ledger.
    fn finish(self) -> TrafficLedger
    where
        Self: Sized;
}

/// Measured per-collective traffic of one rank, accumulated by its
/// transport as the run executes.
///
/// The ledger is a sequence of [`PhaseTraffic`] records in execution order
/// — the same vocabulary as the schedule predictions, so a faithful run
/// satisfies `ledger.phases() == predicted.phases` exactly. When they
/// differ, [`TrafficLedger::diff_table`] renders a per-phase
/// predicted-vs-measured table instead of leaving the reader to eyeball
/// two debug dumps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    phases: Vec<PhaseTraffic>,
}

impl TrafficLedger {
    /// A ledger holding the given records — how a ledger measured in
    /// another process (and shipped over the wire) is rebuilt.
    pub fn from_phases(phases: Vec<PhaseTraffic>) -> TrafficLedger {
        TrafficLedger { phases }
    }

    /// The per-collective records, in execution order.
    pub fn phases(&self) -> &[PhaseTraffic] {
        &self.phases
    }

    /// Sum over all phases — a rank's [`CommStats`], aggregated by the same
    /// `sum_phase_traffic` the schedule predictions use.
    pub fn totals(&self) -> CommStats {
        sum_phase_traffic(&self.phases)
    }

    /// Whether the measured record equals `predicted` collective by
    /// collective.
    pub fn matches(&self, predicted: &[PhaseTraffic]) -> bool {
        self.phases == predicted
    }

    /// A per-phase predicted-vs-measured table (sent/received/messages per
    /// collective, mismatching lines marked), for schedule-mismatch
    /// failures. Rows are paired by position; a length mismatch shows the
    /// unpaired tail of whichever side has one.
    ///
    /// ```
    /// use mttkrp_netsim::schedule::{Phase, PhaseTraffic};
    /// use mttkrp_netsim::TrafficLedger;
    ///
    /// let measured = TrafficLedger::from_phases(vec![PhaseTraffic {
    ///     phase: Phase::OutputReduceScatter,
    ///     words_sent: 12,
    ///     words_received: 10,
    ///     messages_sent: 3,
    /// }]);
    /// let predicted = [PhaseTraffic {
    ///     phase: Phase::OutputReduceScatter,
    ///     words_sent: 12,
    ///     words_received: 12,
    ///     messages_sent: 3,
    /// }];
    /// assert!(!measured.matches(&predicted));
    /// let table = measured.diff_table(&predicted);
    /// assert!(table.contains("MISMATCH"));
    /// assert!(table.contains("reduce-scatter(B)"));
    /// ```
    pub fn diff_table(&self, predicted: &[PhaseTraffic]) -> String {
        let mut s = String::from(
            "  # phase                      measured sent/recv/msgs    predicted sent/recv/msgs\n",
        );
        let fmt_t =
            |t: &PhaseTraffic| format!("{}/{}/{}", t.words_sent, t.words_received, t.messages_sent);
        let rows = self.phases.len().max(predicted.len());
        for i in 0..rows {
            let m = self.phases.get(i);
            let p = predicted.get(i);
            let name = m
                .or(p)
                .map(|t| t.phase.to_string())
                .unwrap_or_else(|| "?".to_string());
            let (mcol, pcol) = (
                m.map(&fmt_t).unwrap_or_else(|| "(missing)".to_string()),
                p.map(&fmt_t).unwrap_or_else(|| "(missing)".to_string()),
            );
            let ok = m.is_some() && m == p;
            s.push_str(&format!(
                "{:>3} {name:<26} {mcol:<26} {pcol:<26} {}\n",
                i,
                if ok { "ok" } else { "MISMATCH" }
            ));
        }
        if self.phases.len() != predicted.len() {
            s.push_str(&format!(
                "    ({} measured vs {} predicted collective(s))\n",
                self.phases.len(),
                predicted.len()
            ));
        }
        s
    }

    /// Opens a new phase record; what a transport's
    /// [`PeerExchange::begin_phase`] does.
    pub fn open(&mut self, phase: Phase) {
        self.phases.push(PhaseTraffic {
            phase,
            words_sent: 0,
            words_received: 0,
            messages_sent: 0,
        });
    }

    /// The open phase's record, which a transport charges each send and
    /// receive to.
    ///
    /// # Panics
    /// Panics if no phase was opened: traffic outside a phase is rejected.
    pub fn current(&mut self) -> &mut PhaseTraffic {
        self.phases
            .last_mut()
            .expect("transport used outside a phase: call begin_phase first")
    }
}

/// Per-phase table: one line per collective, in execution order.
impl fmt::Display for TrafficLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.phases.iter().enumerate() {
            writeln!(
                f,
                "{i:>3} {:<26} sent {:>8}  recv {:>8}  msgs {:>4}",
                t.phase.to_string(),
                t.words_sent,
                t.words_received,
                t.messages_sent
            )?;
        }
        let totals = self.totals();
        write!(
            f,
            "    total                      sent {:>8}  recv {:>8}  msgs {:>4}",
            totals.words_sent, totals.words_received, totals.messages_sent
        )
    }
}

/// The per-(sender, communicator) reorder buffer every transport shares:
/// packets arrive on one mailbox in wall-clock order, and receivers select
/// by `(source world rank, comm id)` while preserving FIFO within each
/// key.
#[derive(Default)]
pub struct ReorderBuffer {
    pending: HashMap<(usize, u64), VecDeque<Vec<f64>>>,
}

impl ReorderBuffer {
    /// Queues a payload from world rank `from` on communicator `comm_id`.
    pub fn push(&mut self, from: usize, comm_id: u64, payload: Vec<f64>) {
        self.pending
            .entry((from, comm_id))
            .or_default()
            .push_back(payload);
    }

    /// The oldest queued payload from `from` on `comm_id`, if any.
    pub fn pop(&mut self, from: usize, comm_id: u64) -> Option<Vec<f64>> {
        self.pending
            .get_mut(&(from, comm_id))
            .and_then(VecDeque::pop_front)
    }

    /// Queued payloads over all keys.
    pub fn len(&self) -> usize {
        self.pending.values().map(VecDeque::len).sum()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_table_marks_mismatches_and_length_skew() {
        let measured = TrafficLedger::from_phases(vec![
            PhaseTraffic {
                phase: Phase::TensorAllGather,
                words_sent: 4,
                words_received: 4,
                messages_sent: 1,
            },
            PhaseTraffic {
                phase: Phase::OutputReduceScatter,
                words_sent: 9,
                words_received: 8,
                messages_sent: 2,
            },
        ]);
        let predicted = [PhaseTraffic {
            phase: Phase::TensorAllGather,
            words_sent: 4,
            words_received: 4,
            messages_sent: 1,
        }];
        let table = measured.diff_table(&predicted);
        assert!(table.contains("ok"), "{table}");
        assert!(table.contains("MISMATCH"), "{table}");
        assert!(table.contains("(missing)"), "{table}");
        assert!(table.contains("2 measured vs 1 predicted"), "{table}");
    }

    #[test]
    fn display_prints_phases_and_totals() {
        let mut ledger = TrafficLedger::default();
        ledger.open(Phase::FactorAllGather { mode: 1 });
        ledger.current().words_sent = 6;
        ledger.current().words_received = 5;
        ledger.current().messages_sent = 3;
        let text = ledger.to_string();
        assert!(text.contains("all-gather(A^(1))"), "{text}");
        assert!(text.contains("total"), "{text}");
        assert!(text.contains('6') && text.contains('5'), "{text}");
    }

    #[test]
    fn reorder_buffer_is_fifo_per_key() {
        let mut buf = ReorderBuffer::default();
        buf.push(0, 7, vec![1.0]);
        buf.push(0, 7, vec![2.0]);
        buf.push(1, 7, vec![3.0]);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.pop(0, 7), Some(vec![1.0]));
        assert_eq!(buf.pop(1, 7), Some(vec![3.0]));
        assert_eq!(buf.pop(0, 7), Some(vec![2.0]));
        assert_eq!(buf.pop(0, 7), None);
        assert_eq!(buf.len(), 0);
    }
}
