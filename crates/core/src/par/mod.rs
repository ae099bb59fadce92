//! Parallel MTTKRP algorithms, executed on the distributed-machine
//! simulator so that per-rank communication can be measured exactly.
//!
//! Algorithms 3 and 4 ([`stationary`], [`general`]) and the matmul baseline
//! ([`matmul`]) compute one mode. [`multi`] computes all `N` modes with one
//! gather per factor and one reduce-scatter per output: the exact schedule
//! of Section VII's communication claim (2x Eq. (14) per rank, against `N`x
//! for a per-mode sweep). [`cp_als`] is the Gauss–Seidel CP-ALS over
//! Algorithm 3.

pub mod cp_als;
pub mod dist;
pub mod general;
pub mod matmul;
pub mod multi;
pub mod stationary;

use mttkrp_netsim::{CommStats, CommSummary};
use mttkrp_tensor::Matrix;

/// Result of a simulated parallel MTTKRP run.
#[derive(Debug)]
pub struct ParRun {
    /// The assembled global output `B^(n)` (`I_n x R`).
    pub output: Matrix,
    /// Per-rank communication counters.
    pub stats: Vec<CommStats>,
    /// Aggregate summary (max/total words).
    pub summary: CommSummary,
}

impl ParRun {
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
pub use general::{assemble_block_chunks, mttkrp_general, BlockChunk};
pub use matmul::mttkrp_par_matmul;
pub use multi::{mttkrp_all_modes_stationary, AllModesRun};
pub use stationary::mttkrp_stationary;
pub use stationary::{assemble_row_chunks, RowChunk};
