//! The network front door: a TCP listener in front of the [`Server`],
//! speaking `mttkrp-dist`'s length-prefixed wire framing.
//!
//! Everything behind the listener already queues, caches, and drains —
//! this module only moves requests and responses across sockets, and adds
//! the two things a *public* front door needs that an in-process API does
//! not:
//!
//! 1. **Bounded admission.** A configurable in-flight cap
//!    ([`NetConfig::max_in_flight`]). At the cap (or while the server is
//!    draining), a request is answered with a `retry-after` frame instead
//!    of queueing unboundedly; shed counters and an in-flight gauge land
//!    on the server's existing
//!    [`MetricsRegistry`](mttkrp_obs::MetricsRegistry).
//! 2. **Streaming factorizations.** A `Factorize` client receives one
//!    frame per completed [`AlsSweep`](mttkrp_als::AlsSweep) (fit and fit
//!    delta) and can send a cancel frame — or simply vanish — to stop the
//!    run at the next sweep boundary and free the worker.
//!
//! The protocol rides the exact frame format of
//! [`mod@mttkrp_dist::transport::wire`], with request/response kinds in the
//! reserved control-id space (see [`protocol`] for the frame table) — so
//! the codec's hardening (length-prefix validation, payload caps,
//! truncation detection) is inherited, not re-implemented.
//!
//! Served bytes are *bit-identical* to in-process calls: the wire encodes
//! every `f64` with `to_le_bytes`, so a socket client's MTTKRP output and
//! fitted factors equal [`Server::call`] / [`Server::call_factorize`]
//! results bit for bit (asserted by this crate's soak tests).
//!
//! ```no_run
//! use mttkrp_serve::net::{Client, NetConfig, NetServer};
//! use mttkrp_tensor::{DenseTensor, Matrix, Shape};
//!
//! let server = NetServer::start(NetConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//!
//! let x = DenseTensor::random(Shape::new(&[8, 8, 8]), 1);
//! let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(8, 4, k)).collect();
//! let reply = client.mttkrp(&x, &factors, 0).unwrap();
//! assert_eq!(reply.output.rows(), 8);
//!
//! drop(client);
//! server.shutdown();
//! ```

pub mod client;
pub mod listener;
pub mod protocol;

pub use client::{Client, ClientError, StreamControl};
pub use listener::{NetConfig, NetServer};
pub use protocol::{
    FactorizeSpec, HealthSnapshot, ProtocolError, RemoteFactorize, RemoteMttkrp, SweepUpdate,
    PROTOCOL_VERSION,
};

#[allow(unused_imports)] // rustdoc links
use crate::Server;
