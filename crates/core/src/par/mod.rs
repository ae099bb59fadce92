//! The paper's parallel MTTKRP algorithms, each written once: one rank body,
//! generic over the [`PeerExchange`](mttkrp_netsim::PeerExchange) transport,
//! and one whole-machine runner.
//!
//! Algorithms 3 and 4 ([`mttkrp_stationary`], [`mttkrp_general`]) and the
//! 1D matmul baseline ([`mttkrp_par_matmul`]) compute one mode. Each has
//!
//! - a **rank body** (`stationary_rank`, `general_rank`, `matmul_rank`): one
//!   rank's program over its [`layout`] shard and its endpoint — what a
//!   process running one rank of a TCP machine calls, too;
//! - a **runner** (`mttkrp_*_on`): shard, run one body per endpoint of the
//!   fabric it is handed ([`mttkrp_netsim::run_spmd`]), assemble. The
//!   `mttkrp_*` entry points hand it the in-process channel fabric
//!   ([`mttkrp_netsim::wire`]), and `mttkrp-dist` hands it loopback TCP.
//!
//! So a run is the same code path on every fabric: its output bits and its
//! per-collective ledgers do not depend on how the words travel, and each
//! ledger equals the [`mttkrp_netsim::schedule`] prediction collective by
//! collective.
//!
//! [`mttkrp_all_modes_stationary`] computes all `N` modes with one gather per factor and one
//! reduce-scatter per output: the exact schedule of Section VII's
//! communication claim (2x Eq. (14) per rank, against `N`x for a per-mode
//! sweep). [`cp_als`] is the Gauss–Seidel CP-ALS over Algorithm 3's rank
//! body.

pub mod cp_als;
mod general;
pub mod layout;
mod matmul;
mod multi;
mod stationary;

use mttkrp_netsim::{CommStats, CommSummary, TrafficLedger};
use mttkrp_tensor::Matrix;

/// Result of a parallel MTTKRP run, on whichever fabric it ran.
#[derive(Debug)]
pub struct ParRun {
    /// The assembled global output `B^(n)` (`I_n x R`).
    pub output: Matrix,
    /// Per-rank communication totals, indexed by world rank.
    pub stats: Vec<CommStats>,
    /// Per-rank, per-collective traffic, indexed by world rank.
    pub ledgers: Vec<TrafficLedger>,
    /// Aggregate summary (max/total words).
    pub summary: CommSummary,
}

impl ParRun {
    fn new(output: Matrix, ledgers: Vec<TrafficLedger>) -> ParRun {
        let stats: Vec<CommStats> = ledgers.iter().map(TrafficLedger::totals).collect();
        let summary = CommSummary::from_ranks(&stats);
        ParRun {
            output,
            stats,
            ledgers,
            summary,
        }
    }

    /// Maximum over ranks of words *received* — the one-way per-processor
    /// bandwidth cost that the paper's cost expressions (Eqs. 14, 18) count.
    pub fn max_recv_words(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.words_received)
            .max()
            .unwrap_or(0)
    }

    /// Maximum over ranks of words *sent*.
    pub fn max_sent_words(&self) -> u64 {
        self.stats.iter().map(|s| s.words_sent).max().unwrap_or(0)
    }
}

pub use cp_als::{dist_cp_als, DistCpAlsRun};
pub use general::{
    assemble_block_chunks, general_rank, mttkrp_general, mttkrp_general_on, BlockChunk,
};
pub use matmul::{matmul_rank, mttkrp_par_matmul, mttkrp_par_matmul_on};
pub use multi::{mttkrp_all_modes_stationary, AllModesRun};
pub use stationary::{
    assemble_row_chunks, mttkrp_stationary, mttkrp_stationary_on, stationary_rank, RowChunk,
};
