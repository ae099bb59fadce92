//! # mttkrp-dist
//!
//! A sharded multi-rank MTTKRP runtime that executes the paper's parallel
//! communication schedules *for real*. Where `mttkrp-core::par` runs
//! Algorithms 3/4 on the netsim word-counting simulator (rank closures
//! that may read the global operands), this crate makes the distribution
//! physical:
//!
//! - **[`layout`]** cuts the tensor and factor matrices into per-rank
//!   shards following the paper's data distributions over the
//!   [`mttkrp_netsim::ProcessorGrid`] layout — each rank reads its block
//!   (in place, through a view, where the algorithm keeps the tensor
//!   stationary), and nothing else;
//! - **[`transport`]** is the message fabric between ranks, behind the
//!   [`Transport`] trait with two implementations: typed packets over
//!   in-process channels ([`transport::channel`]) and length-prefixed
//!   binary frames over TCP sockets ([`transport::tcp`], wire format in
//!   [`mod@transport::wire`]) — both tagged with the same deterministic
//!   communicator ids the simulator computes, both instrumented with a
//!   per-collective [`TrafficLedger`];
//! - **[`collectives`]** are the ring All-Gather / Reduce-Scatter — the
//!   *same* generic implementation as [`mttkrp_netsim::collectives`]
//!   (via its `PeerExchange` transport trait), so identical block routing
//!   and reduction order are structural, not merely tested;
//! - **[`runtime`]** runs the schedule — rank 0 on the caller and one
//!   thread per further rank in-process ([`runtime::run_spmd`]), or one
//!   *process* per rank driven through
//!   [`backend::run_plan_rank`] — and assembles the output chunks with
//!   the simulator's own assemblers;
//! - **[`DistBackend`]** plugs all of it into the `mttkrp-exec` seam as a
//!   third [`Backend`](mttkrp_exec::Backend), honoring the machine's
//!   [`TransportSpec`](mttkrp_exec::TransportSpec).
//!
//! Two properties are asserted by the test suite — per transport, not
//! just for channels:
//!
//! 1. a dist run is **bitwise identical** to the simulator replaying the
//!    same plan (and therefore within 1e-10 of the sequential oracle);
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
//! The node boundary is the [`Transport`] trait: in-process ranks and
//! real processes on real machines run the identical rank programs — the
//! multi-process launcher lives in the `mttkrp_cli dist --transport tcp`
//! subcommand of `mttkrp-bench`.

#![deny(missing_docs)]

pub mod backend;
pub mod collectives;
pub mod layout;
pub mod runtime;
pub mod transport;

pub use backend::{
    assemble_plan_output, record_collectives, run_plan_rank, DistBackend, DistReport,
};
pub use runtime::{
    mttkrp_dist_general, mttkrp_dist_general_on, mttkrp_dist_matmul, mttkrp_dist_matmul_on,
    mttkrp_dist_stationary, mttkrp_dist_stationary_on, run_spmd, DistRun, OutputChunk,
    TransportKind,
};
pub use transport::{wire, Endpoint, TcpConfig, TcpTransport, TrafficLedger, Transport};
