//! The socket transport between ranks: what a multi-process machine adds to
//! the one transport seam, [`mttkrp_netsim::PeerExchange`].
//!
//! `tcp` — ranks are processes (or threads) exchanging the length-prefixed
//! binary frames of [`mod@wire`] over TCP sockets ([`TcpTransport`]), with a
//! rendezvous handshake for connection setup and per-peer reader threads
//! feeding the same [`mttkrp_netsim::transport::ReorderBuffer`] and charging
//! the same [`mttkrp_netsim::TrafficLedger`] as the in-process channel
//! fabric. Frames carry the same deterministic communicator ids, so a run
//! over loopback TCP satisfies `ledger.phases() == predicted.phases` exactly
//! as it does over channels.

mod tcp;
pub mod wire;

pub use tcp::{accept_deadline, read_deadline, TcpConfig, TcpTransport};
