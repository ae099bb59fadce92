//! Sequential MTTKRP algorithms, executed on the strict two-level memory
//! simulator so that their load/store counts can be measured exactly and
//! compared against the paper's bounds.

mod blocked;
mod matmul;
mod unblocked;

use mttkrp_memsim::IoStats;
use mttkrp_tensor::Matrix;

/// Result of a simulated sequential MTTKRP run.
#[derive(Debug)]
pub struct SeqRun {
    /// The computed output matrix `B^(n)` (`I_n x R`).
    pub output: Matrix,
    /// Exact loads/stores performed.
    pub stats: IoStats,
    /// High-water mark of fast-memory residency (words).
    pub peak_fast: usize,
    /// Iterations (atomic `N`-ary multiplies) completed in each
    /// `M`-operation segment — the empirical counterpart of the segment
    /// bound in Theorem 4.1's proof: every entry must be at most
    /// `(3M)^{2-1/N}/N` (see [`crate::hbl::segment_iteration_bound`]).
    pub segments: Vec<u64>,
}

pub use blocked::{
    choose_block_size, choose_block_size_with_rank, mttkrp_blocked, mttkrp_blocked_r_outer,
};
pub use matmul::mttkrp_seq_matmul;
pub use unblocked::mttkrp_unblocked;
