//! The gate on the tiled walk's scratch: an allocation census of a one-thread
//! `mttkrp_native` call at two tiles.
//!
//! The walk allocates its scratch (the tile bounds, the index odometer, the
//! Hadamard block) once per call and reuses it for every tile, so cutting
//! the tensor into more tiles costs no allocation. A walk that allocates per
//! tile makes 512 tiles cost hundreds of allocations more than one tile, and
//! fails here.
//!
//! Lives in its own integration-test binary: the counting allocator is
//! process-wide, so nothing else may run beside the one test.

use mttkrp_exec::mttkrp_native;
use mttkrp_tensor::{DenseTensor, Matrix, Shape};

#[path = "../../serve/tests/support/census.rs"]
mod support;
use support::census;

#[test]
fn more_tiles_cost_no_more_allocations() {
    let (dims, r) = ([64usize, 64, 64], 32);
    let x = DenseTensor::random(Shape::new(&dims), 1);
    let factors: Vec<Matrix> = (0..3)
        .map(|k| Matrix::random(dims[k], r, 2 + k as u64))
        .collect();
    let refs: Vec<&Matrix> = factors.iter().collect();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();

    for n in 0..3 {
        let calls = |tile: usize| {
            let before = census().1;
            let out = mttkrp_native(&x, &refs, n, tile, &pool);
            let after = census().1;
            drop(out);
            after - before
        };
        // Warm-up: whatever a first call sets up once.
        for tile in [64, 8] {
            calls(tile);
        }
        let (one_tile, tiles_512) = (calls(64), calls(8));
        println!("census, mode {n}: {one_tile} allocations at 1 tile, {tiles_512} at 512");
        assert!(
            tiles_512 <= one_tile,
            "mode {n}: {tiles_512} allocations at tile 8 (512 tiles) against {one_tile} at \
             tile 64 (one tile)"
        );
    }
}
