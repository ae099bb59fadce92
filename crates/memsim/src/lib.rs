//! # mttkrp-memsim
//!
//! A strict simulator of the two-level sequential memory model (the
//! I/O-complexity model of Hong & Kung) used by the paper's sequential
//! lower bounds and Algorithms 1-2.
//!
//! The machine has a fast memory of capacity `M` words and an unbounded
//! slow memory; every `load`/`store` moves exactly one word and is counted.
//! Arithmetic may only touch fast-resident words — violations panic, so the
//! simulator doubles as a machine-checker for working-set claims such as
//! Eq. (11) of the paper (`b^N + N*b <= M` for the blocked algorithm).
//!
//! Two management styles are provided:
//! - [`TwoLevelMemory`]: fully explicit loads/stores/evicts (what the
//!   paper's algorithms assume);
//! - [`LruMemory`]: automatic on-demand loading with LRU write-back, for
//!   running unannotated loop nests.

mod lru;
mod memory;
mod stats;

pub use lru::LruMemory;
pub use memory::{ArrayId, TwoLevelMemory};
pub use stats::IoStats;
