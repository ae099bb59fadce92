//! # mttkrp-dist
//!
//! The paper's parallel MTTKRP algorithms run *for real*: across processes
//! over TCP, and behind the `mttkrp-exec` backend seam. Each algorithm is
//! written once, in `mttkrp-core::par` — one rank body over its shard and
//! its transport, one runner that shards, runs a body per endpoint and
//! assembles — and the transport seam and the in-process channel fabric are
//! `mttkrp-netsim`'s ([`mttkrp_netsim::PeerExchange`]). This crate adds
//! what a machine of separate processes needs:
//!
//! - **[`transport`]** — [`TcpTransport`], the socket implementation of the
//!   one transport trait: length-prefixed binary frames
//!   ([`mod@transport::wire`]) tagged with the same deterministic
//!   communicator ids the channel fabric uses, feeding the same reorder
//!   buffer and per-collective [`TrafficLedger`](mttkrp_netsim::TrafficLedger);
//! - **`runtime`** — the whole-machine entry points over a chosen fabric
//!   ([`TransportKind`]): `mttkrp-core`'s runner over in-process channels or
//!   over loopback TCP;
//! - **`backend`** — [`DistBackend`], the third
//!   [`Backend`](mttkrp_exec::Backend) of the `mttkrp-exec` seam, honoring
//!   the machine's [`TransportSpec`](mttkrp_exec::TransportSpec), and
//!   [`run_plan_rank`], the per-process entry point of a multi-node run;
//! - **[`layout`]** — the rank sharders, at the path a rank process takes
//!   its own shard from.
//!
//! Two properties are asserted by the test suite — per transport:
//!
//! 1. a run is **bitwise identical** on every fabric and to the simulator
//!    replaying the same plan (and therefore within 1e-10 of the sequential
//!    oracle) — one code path, whatever moves the words;
//! 2. each rank's measured traffic equals the netsim-predicted
//!    [`CommSchedule`](mttkrp_netsim::schedule::CommSchedule) **collective
//!    by collective** — over loopback TCP exactly as over channels.
//!
//! ```
//! use mttkrp_core::Problem;
//! use mttkrp_dist::DistBackend;
//! use mttkrp_exec::{Backend, MachineSpec, Planner, TransportSpec};
//! use mttkrp_tensor::{DenseTensor, Matrix, Shape};
//!
//! let shape = Shape::new(&[8, 8, 8]);
//! let x = DenseTensor::random(shape.clone(), 1);
//! let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(8, 4, k)).collect();
//! let refs: Vec<&Matrix> = factors.iter().collect();
//!
//! // Plan for a 4-rank TCP machine, execute for real over loopback
//! // sockets, check the traffic collective by collective.
//! let machine = MachineSpec::cluster(4, 1, 1 << 16).with_transport(TransportSpec::Tcp);
//! let plan = Planner::new(machine).plan_executable(&Problem::from_shape(&shape, 4), 0);
//! let out = DistBackend::new().run_instrumented(&plan, &x, &refs);
//! let predicted = DistBackend::predicted_schedule(&plan).unwrap();
//! for (ledger, rank) in out.ledgers.iter().zip(&predicted.ranks) {
//!     assert!(ledger.matches(&rank.phases), "{}", ledger.diff_table(&rank.phases));
//! }
//! ```
//!
//! The node boundary is the transport: in-process ranks and real processes
//! on real machines run the identical rank bodies — the multi-process
//! launcher lives in the `mttkrp_cli dist --transport tcp` subcommand of
//! `mttkrp-bench`.

#![deny(missing_docs)]

mod backend;
pub mod layout;
mod runtime;
pub mod transport;

pub use backend::{
    assemble_plan_output, record_collectives, run_plan_rank, DistBackend, DistReport,
};
pub use runtime::{
    mttkrp_dist_general, mttkrp_dist_general_on, mttkrp_dist_matmul, mttkrp_dist_matmul_on,
    mttkrp_dist_stationary, mttkrp_dist_stationary_on, DistRun, OutputChunk, TransportKind,
};
pub use transport::{wire, TcpConfig, TcpTransport};
