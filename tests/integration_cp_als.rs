//! Integration: CP-ALS end-to-end — the application whose bottleneck
//! motivates the paper. Sequential and distributed runs must agree, fit
//! exact low-rank tensors, and the distributed version's communication
//! must be dominated by its MTTKRP collectives (Eq. (14) per mode).

use mttkrp_core::{cp_als, model, par::dist_cp_als, CpAlsOptions, Problem};
use mttkrp_tensor::{DenseTensor, KruskalTensor, Shape};

#[test]
fn sequential_and_distributed_agree_on_noisy_data() {
    let truth = KruskalTensor::random(&Shape::new(&[8, 8, 8]), 2, 100);
    let clean = truth.full();
    let noise = DenseTensor::random(Shape::new(&[8, 8, 8]), 101);
    let sigma = 0.05 * clean.frob_norm() / noise.frob_norm();
    let x = DenseTensor::from_vec(
        clean.shape().clone(),
        clean
            .data()
            .iter()
            .zip(noise.data())
            .map(|(&c, &n)| c + sigma * n)
            .collect(),
    );
    let opts = CpAlsOptions {
        max_iters: 40,
        tol: 1e-9,
        seed: 5,
    };
    let s = cp_als(&x, 2, &opts);
    let d = dist_cp_als(&x, 2, &[2, 2, 2], &opts);
    let sf = *s.fit_history.last().unwrap();
    let df = *d.fit_history.last().unwrap();
    assert!(sf > 0.9, "sequential fit {sf}");
    assert!((sf - df).abs() < 1e-3, "fits diverged: {sf} vs {df}");
}

#[test]
fn distributed_model_reconstructs_like_sequential_model() {
    let truth = KruskalTensor::random(&Shape::new(&[6, 4, 4]), 3, 200);
    let x = truth.full();
    let opts = CpAlsOptions {
        max_iters: 500,
        tol: 1e-13,
        seed: 11,
    };
    let d = dist_cp_als(&x, 3, &[2, 2, 1], &opts);
    let fit = d.model.fit_to(&x);
    assert!(fit > 0.999, "assembled distributed model fit {fit}");
}

#[test]
fn per_sweep_communication_tracks_mttkrp_model() {
    // One CP-ALS sweep does one Algorithm-3 MTTKRP per mode plus
    // lower-order (R^2-sized) reductions. Measured per-sweep max words
    // should be close to sum over modes of Eq. (14) + small overhead.
    let dims = [8usize, 8, 8];
    let r = 4usize;
    let truth = KruskalTensor::random(&Shape::new(&dims), r, 300);
    let x = truth.full();
    let sweeps = 3usize;
    let run = dist_cp_als(
        &x,
        r,
        &[2, 2, 2],
        &CpAlsOptions {
            max_iters: sweeps,
            tol: 0.0,
            seed: 1,
        },
    );
    assert_eq!(run.iterations, sweeps);

    let p = Problem::new(&[8, 8, 8], r as u64);
    let per_mode = model::alg3_cost(&p, &[2, 2, 2]); // one-way words
    let mttkrp_words = 3.0 * per_mode * sweeps as f64;
    let max_received = run.stats.iter().map(|s| s.words_received).max().unwrap() as f64;
    // Received >= the MTTKRP traffic, and the overhead (grams, norms,
    // fit scalars, initial setup) stays within ~3x for this tiny R.
    assert!(
        max_received >= mttkrp_words,
        "{max_received} < {mttkrp_words}"
    );
    assert!(
        max_received < 4.0 * mttkrp_words,
        "overhead too large: {max_received} vs {mttkrp_words}"
    );
}

/// FNV-1a over every bit of a 15-sweep `dist_cp_als` run on a closed-form
/// tensor: the assembled factors, the weights and the fit history. The
/// entries span 2^29 in magnitude, so the order in which a rank sums its
/// block's `‖X‖²` shows in the fit's last bits.
fn dist_cp_als_hash(dims: &[usize], r: usize, grid: &[usize]) -> u64 {
    let shape = Shape::new(dims);
    let data = (0..shape.num_entries())
        .map(|lin| (((37 * lin + 11) % 101) as f64 / 101.0 - 0.5) * (1u64 << (lin % 29)) as f64)
        .collect();
    let x = DenseTensor::from_vec(shape, data);
    let opts = CpAlsOptions {
        max_iters: 15,
        tol: 0.0,
        seed: 7,
    };
    let run = dist_cp_als(&x, r, grid, &opts);
    assert_eq!(run.iterations, 15);
    let words = (run.model.factors.iter().flat_map(|f| f.data()))
        .chain(&run.model.weights)
        .chain(&run.fit_history)
        .map(|v| v.to_bits());
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn distributed_cp_als_reproduces_its_recorded_bits() {
    let cases: [(&[usize], usize, &[usize], u64); 2] = [
        (&[8, 4, 6], 2, &[2, 2, 2], 0xcb3702c3fe10f5a5),
        (&[4, 4, 4], 2, &[2, 2, 1], 0x871d8bf879bfc2b7),
    ];
    for (dims, r, grid, want) in cases {
        let got = dist_cp_als_hash(dims, r, grid);
        assert_eq!(got, want, "{dims:?} R{r} on {grid:?}: {got:#018x}");
    }
}

#[test]
fn rank_one_tensor_recovered_quickly() {
    let truth = KruskalTensor::random(&Shape::new(&[10, 6, 4]), 1, 400);
    let x = truth.full();
    let run = cp_als(
        &x,
        1,
        &CpAlsOptions {
            max_iters: 100,
            tol: 1e-12,
            seed: 2,
        },
    );
    assert!(run.converged);
    assert!(*run.fit_history.last().unwrap() > 0.99999);
}

#[test]
fn over_ranked_fit_does_not_degrade() {
    // Fitting rank 4 to a rank-2 tensor should reach (essentially) perfect
    // fit — extra components decay to ~zero weight.
    let truth = KruskalTensor::random(&Shape::new(&[6, 6, 6]), 2, 500);
    let x = truth.full();
    let run = cp_als(
        &x,
        4,
        &CpAlsOptions {
            max_iters: 200,
            tol: 1e-12,
            seed: 3,
        },
    );
    assert!(*run.fit_history.last().unwrap() > 0.999);
}

#[test]
fn factor_shapes_roundtrip() {
    let x = DenseTensor::random(Shape::new(&[5, 7, 3]), 600);
    let run = cp_als(&x, 2, &CpAlsOptions::default());
    assert_eq!(run.model.order(), 3);
    assert_eq!(run.model.rank(), 2);
    assert_eq!(run.model.shape().dims(), &[5, 7, 3]);
}
