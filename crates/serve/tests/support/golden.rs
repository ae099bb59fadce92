//! Reading and digesting raw frames: what the byte goldens of the front
//! door (`wire_golden.rs`) and of the rank fabric (`mttkrp-bench`'s
//! `wire_golden.rs`) share.

#![allow(dead_code)]

use mttkrp_dist::transport::wire::{write_frame, Frame};
use std::io::Read;
use std::net::{TcpListener, TcpStream};

/// The bytes of a data frame.
pub fn frame(from: usize, kind: u64, payload: Vec<f64>) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &Frame::data(from, kind, payload)).unwrap();
    out
}

/// One frame off `s`, as the raw bytes that carried it.
pub fn raw_frame(s: &mut TcpStream) -> Vec<u8> {
    let mut prefix = [0u8; 4];
    s.read_exact(&mut prefix).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
    s.read_exact(&mut body).unwrap();
    [&prefix[..], &body].concat()
}

/// The port a `HELLO` or `READY` frame carries; zeroed in the frame.
pub fn take_port(f: &mut [u8]) -> u16 {
    let port = f64::from_le_bytes(f[17..25].try_into().unwrap());
    f[17..].fill(0);
    port as u16
}

/// The 64-bit FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// A loopback listener on a port the OS picks, and its address.
pub fn listener() -> (TcpListener, String) {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap().to_string();
    (l, addr)
}
