//! The disabled fast path must not allocate: while tracing is off, a
//! counter/histogram call is one relaxed atomic load, and a span is two
//! clock reads and one deposit into the flight ring. This test pins that
//! down with a counting global allocator — if someone adds
//! an eager `format!` or `Vec` to an emission helper, it fails here, not in
//! a profile three PRs later.
//!
//! Lives in its own integration-test binary so the counting allocator
//! cannot perturb (or be perturbed by) the rest of the suite. Within the
//! binary the two tests run on parallel harness threads, so nothing they
//! measure is shared: allocations are counted per thread (the harness and
//! the other test allocate whenever they like), and the process-wide
//! capture switch is held by one test at a time through [`CAPTURE_SWITCH`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Held for the whole of each test: one needs capture off, the other turns
/// it on.
static CAPTURE_SWITCH: Mutex<()> = Mutex::new(());

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_hot_path_allocates_nothing() {
    let _switch = CAPTURE_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!mttkrp_obs::enabled());
    // Warm up any lazily-initialized thread state outside the window.
    {
        let _s = mttkrp_obs::span("warmup");
        mttkrp_obs::counter_add("warmup", 1);
    }

    let before = allocations();
    for i in 0..10_000u64 {
        let mut s = mttkrp_obs::span("kernel");
        if s.is_active() {
            // Field values may allocate — but only behind the gate.
            s.record("backend", "native");
        }
        s.record("mode", i);
        mttkrp_obs::counter_add("exec.kernel_runs", 1);
        mttkrp_obs::gauge_add("serve.queue_depth", -1);
        mttkrp_obs::histogram_record("serve.request_exec_us", i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled-mode tracing must not allocate on the hot path"
    );
}

#[test]
fn enabled_path_still_works_under_the_counting_allocator() {
    let _switch = CAPTURE_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let before = allocations();
    let cap = mttkrp_obs::capture();
    {
        let _s = mttkrp_obs::span("request").with("kind", "alloc-test");
        mttkrp_obs::counter_add("runs", 1);
    }
    let rec = cap.finish();
    assert_eq!(rec.spans.len(), 1);
    assert_eq!(rec.metrics.len(), 1);
    // And enabling genuinely allocates (sanity check that the counter
    // counts), so the zero above is meaningful.
    assert!(allocations() > before);
}
