//! The whole-machine runner: one rank program per endpoint, rank 0 on the
//! calling thread and one OS thread per further rank — and the simulated
//! machine, which is that runner over the in-process channel fabric.

use crate::schedule::Phase;
use crate::stats::{CommStats, CommSummary};
use crate::transport::{wire, Endpoint, PeerExchange, TrafficLedger};

/// Runs `program` SPMD, one rank per transport endpoint, indexed by world
/// rank: rank 0 on the calling thread, every other rank on a thread of its
/// own. Outputs and ledgers are returned in world-rank order; every
/// endpoint is [finished](PeerExchange::finish), so an unconsumed message
/// fails the run.
///
/// A rank panic propagates *without deadlocking the machine*: the dying
/// rank poisons every peer ([`PeerExchange::poison_all`]), so ranks blocked
/// in a collective abort instead of waiting forever for messages that
/// will never come; every thread is then joined (claiming all the chained
/// panics) and the original payload is re-thrown — whichever rank, the
/// caller's included, threw it.
pub fn run_spmd<T: PeerExchange, O: Send>(
    endpoints: Vec<T>,
    program: impl Fn(&mut T) -> O + Send + Sync,
) -> (Vec<O>, Vec<TrafficLedger>) {
    let p = endpoints.len();
    let program = &program;
    let rank = move |mut ep: T| {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| program(&mut ep)));
        match out {
            Ok(out) => (out, ep.finish()),
            Err(payload) => {
                ep.poison_all();
                std::panic::resume_unwind(payload);
            }
        }
    };
    let mut ranks = endpoints.into_iter();
    let Some(ep0) = ranks.next() else {
        return (Vec::new(), Vec::new());
    };
    let mut results = Vec::with_capacity(p);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranks.map(|ep| scope.spawn(move || rank(ep))).collect();
        results.push(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || rank(ep0),
        )));
        // Join *every* handle before propagating anything, so no panic is
        // left unclaimed for the scope to trip over during unwinding.
        for handle in handles {
            results.push(handle.join());
        }
    });
    if results.iter().any(Result::is_err) {
        // Prefer an original panic over the chained aborts it provoked on
        // blocked ranks (every transport-side abort message reads
        // "rank N aborting: ...").
        let mut errs: Vec<_> = results.into_iter().filter_map(Result::err).collect();
        let original = errs
            .iter()
            .position(|p| match p.downcast_ref::<String>() {
                Some(msg) => !msg.contains(" aborting:"),
                None => true,
            })
            .unwrap_or(0);
        std::panic::resume_unwind(errs.swap_remove(original));
    }
    results
        .into_iter()
        .map(|res| res.unwrap_or_else(|_| unreachable!("error case handled above")))
        .unzip()
}

/// Result of running a rank program on all `P` ranks.
#[derive(Debug)]
pub struct RunResult<T> {
    /// Per-rank return values, indexed by world rank.
    pub outputs: Vec<T>,
    /// Per-rank communication counters, indexed by world rank.
    pub stats: Vec<CommStats>,
}

impl<T> RunResult<T> {
    /// Aggregated communication summary (max/total words over ranks).
    pub fn summary(&self) -> CommSummary {
        CommSummary::from_ranks(&self.stats)
    }
}

/// A `P`-processor distributed-memory machine.
///
/// [`SimMachine::run`] executes the same rank program (an SPMD closure) on
/// every rank of the channel fabric through [`run_spmd`], and collects the
/// outputs and exact per-rank communication counts. A rank program that
/// panics propagates the panic to the caller.
pub struct SimMachine {
    p: usize,
}

impl SimMachine {
    /// Creates a machine with `p >= 1` processors.
    pub fn new(p: usize) -> SimMachine {
        assert!(p >= 1, "need at least one processor");
        SimMachine { p }
    }

    /// Runs `program` on every rank and waits for all of them.
    ///
    /// Each rank opens one [`Phase::Unscheduled`] phase — the programs run
    /// here follow no predicted schedule — and the closure's return value
    /// and the rank's ledger totals are collected into the [`RunResult`].
    /// Quiescence (no undelivered messages) is asserted on every rank.
    pub fn run<T, F>(&self, program: F) -> RunResult<T>
    where
        T: Send,
        F: Fn(&mut Endpoint) -> T + Send + Sync,
    {
        let (outputs, ledgers) = run_spmd(wire(self.p), |ep| {
            ep.begin_phase(Phase::Unscheduled);
            program(ep)
        });
        let stats = ledgers.iter().map(TrafficLedger::totals).collect();
        RunResult { outputs, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let machine = SimMachine::new(4);
        let res = machine.run(|rank| rank.world_rank() * 10);
        assert_eq!(res.outputs, vec![0, 10, 20, 30]);
        assert_eq!(res.summary().total_words, 0);
    }

    #[test]
    fn ring_shift_moves_data_and_counts() {
        let p = 5;
        let machine = SimMachine::new(p);
        let res = machine.run(|rank| {
            let world = rank.world();
            let me = rank.world_rank();
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let got = rank.sendrecv(&world, right, &[me as f64, me as f64], left);
            got[0]
        });
        for (me, &got) in res.outputs.iter().enumerate() {
            assert_eq!(got as usize, (me + p - 1) % p);
        }
        let s = res.summary();
        assert_eq!(s.max_words, 4); // 2 sent + 2 received per rank
        assert_eq!(s.total_words, (4 * p) as u64);
    }

    #[test]
    fn single_rank_machine_runs() {
        let machine = SimMachine::new(1);
        let res = machine.run(|rank| rank.num_ranks());
        assert_eq!(res.outputs, vec![1]);
    }

    #[test]
    fn rank_panic_propagates() {
        let machine = SimMachine::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine.run(|rank| {
                if rank.world_rank() == 1 {
                    panic!("deliberate failure injection");
                }
                // Rank 0 must not deadlock waiting: it just returns.
                0
            });
        }));
        assert!(r.is_err());
    }

    #[test]
    fn stats_are_per_rank() {
        let machine = SimMachine::new(3);
        let res = machine.run(|rank| {
            let world = rank.world();
            if rank.world_rank() == 0 {
                rank.send(&world, 1, &[1.0, 2.0]);
            } else if rank.world_rank() == 1 {
                let _ = rank.recv(&world, 0);
            }
        });
        assert_eq!(res.stats[0].words_sent, 2);
        assert_eq!(res.stats[1].words_received, 2);
        assert_eq!(res.stats[2].total_words(), 0);
    }
}
