//! # mttkrp-netsim
//!
//! A simulator of the distributed-memory parallel machine model used by the
//! paper (Section II-C): `P` processors, each with its own local memory,
//! communicating by sends and receives over a network. The simulator runs
//! one OS thread per rank, moves real data over channels, and counts every
//! word (one word = one `f64`) sent and received by each rank — the exact
//! quantity the paper's communication lower bounds govern.
//!
//! One transport seam ([`PeerExchange`]) carries every rank program: the
//! in-process channel fabric here ([`Endpoint`], wired by [`wire`]) and
//! `mttkrp-dist`'s TCP transport implement it, both charging each word to
//! the open phase of a per-collective [`TrafficLedger`]. [`run_spmd`]
//! drives one rank program per endpoint, and [`SimMachine`] is that runner
//! over the channel fabric.
//!
//! Collectives use the *bucket* (ring) algorithms the paper assumes, so the
//! measured per-rank cost of an All-Gather or Reduce-Scatter over `q`
//! balanced blocks of `w` words is exactly `(q-1)·w` each way.
//!
//! ```
//! use mttkrp_netsim::{collectives, PeerExchange, SimMachine};
//!
//! let machine = SimMachine::new(4);
//! let result = machine.run(|rank| {
//!     let world = rank.world();
//!     collectives::all_reduce(rank, &world, &[rank.world_rank() as f64])
//! });
//! assert_eq!(result.outputs[0], vec![6.0]); // 0+1+2+3
//! ```

pub mod collectives;
mod comm;
mod grid;
mod machine;
pub mod schedule;
mod stats;
pub mod transport;

pub use comm::Comm;
pub use grid::ProcessorGrid;
pub use machine::{run_spmd, RunResult, SimMachine};
pub use schedule::{CommSchedule, Phase, PhaseTraffic, RankSchedule};
pub use stats::{CommStats, CommSummary};
pub use transport::{wire, Endpoint, PeerExchange, TrafficLedger};
