//! The gate on an in-process request's bookkeeping: an allocation census of
//! one warmed `Server::call`.
//!
//! A served request must allocate what its work needs, not what its
//! accounting does. What still allocates per call is the work itself and
//! its plumbing: the kernel's output and scratch, the one dims `Vec` of the
//! key the worker finds its plan and executor by, the factor-reference
//! `Vec` the executor takes, and the reply channel with its continuation.
//! Metric updates allocate nothing: every name is resolved when the server
//! starts, and each plan key's labels at its first request. Planning
//! allocates nothing either: a worker keeps each key's plan and executor,
//! and asks the shared plan cache only the first time it sees the key.
//! A per-batch path that formatted its labels and metric names made
//! ≈ 40 allocations per call; one that resolved them once but still looked
//! its plan up, built a fresh executor and queued a coalesced batch for
//! every request made 24–27. This one makes 13–14; the bound asserted here
//! is 16.
//!
//! Lives in its own integration-test binary: the counting allocator is
//! process-wide (the caller and the worker both count), so nothing else may
//! run beside the one test.

use mttkrp_exec::MachineSpec;
use mttkrp_serve::{MttkrpRequest, Server, ServerConfig};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Census;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic and
// touches no allocator state.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Census = Census;

/// Most allocations one warmed call may make.
const MAX_PER_CALL: u64 = 16;

#[test]
fn a_warmed_call_allocates_its_work_not_its_bookkeeping() {
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(1, 1 << 12),
        workers: 1,
        ..ServerConfig::default()
    });
    // Four small 3-way shapes, every mode: twelve plan keys.
    let shapes = [[8usize, 6, 4], [6, 8, 4], [4, 8, 6], [8, 4, 6]];
    let requests: Vec<MttkrpRequest> = shapes
        .iter()
        .enumerate()
        .flat_map(|(i, dims)| {
            let x = Arc::new(DenseTensor::random(Shape::new(dims), i as u64));
            let factors = Arc::new(
                dims.iter()
                    .map(|&d| Matrix::random(d, 4, 7 + i as u64))
                    .collect::<Vec<_>>(),
            );
            (0..3).map(move |mode| MttkrpRequest::new(Arc::clone(&x), Arc::clone(&factors), mode))
        })
        .collect();
    // Warm-up: every plan, every key's labels and the queues' capacity are
    // allocated once.
    for _ in 0..3 {
        for request in &requests {
            server.call(request.clone());
        }
    }

    let per_call: Vec<u64> = (0..64)
        .map(|k| {
            let request = requests[k % requests.len()].clone();
            let before = CALLS.load(Ordering::Relaxed);
            let response = server.call(request);
            let calls = CALLS.load(Ordering::Relaxed) - before;
            drop(response);
            calls
        })
        .collect();

    println!("census: allocations per call {per_call:?}");
    for (k, &calls) in per_call.iter().enumerate() {
        assert!(
            calls <= MAX_PER_CALL,
            "call {k} allocated {calls} times, more than {MAX_PER_CALL}: {per_call:?}"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests_served, 64 + 3 * requests.len() as u64);
}
