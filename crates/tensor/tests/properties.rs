//! Property-based tests for the dense tensor substrate: algebraic
//! identities that must hold for arbitrary shapes and data.

use mttkrp_tensor::{
    fold, gram_hadamard, khatri_rao, khatri_rao_colex, matricize, mttkrp_reference,
    mttkrp_via_matmul, DenseTensor, KruskalTensor, Matrix, Shape,
};
use proptest::prelude::*;

/// Strategy: a small tensor shape (2-4 modes, dims 1-5).
fn shape_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=5, 2..=4)
}

/// Strategy: shape plus rank and a seed.
fn problem_strategy() -> impl Strategy<Value = (Vec<usize>, usize, u64)> {
    (shape_strategy(), 1usize..=4, 0u64..1000)
}

fn build(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    let shape = Shape::new(dims);
    let x = DenseTensor::random(shape, seed);
    let factors = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, r, seed ^ ((k as u64 + 1) * 7919)))
        .collect();
    (x, factors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn linearize_delinearize_roundtrip(dims in shape_strategy(), frac in 0.0f64..1.0) {
        let shape = Shape::new(&dims);
        let lin = ((shape.num_entries() - 1) as f64 * frac) as usize;
        let mut idx = vec![0; shape.order()];
        shape.delinearize_into(lin, &mut idx);
        prop_assert_eq!(shape.linearize(&idx), lin);
    }

    #[test]
    fn matricize_fold_roundtrip(
        (dims, _, seed) in problem_strategy(),
        mode_frac in 0.0f64..1.0,
    ) {
        let shape = Shape::new(&dims);
        let n = ((dims.len() - 1) as f64 * mode_frac) as usize;
        let x = DenseTensor::random(shape.clone(), seed);
        let back = fold(&matricize(&x, n), &shape, n);
        prop_assert_eq!(back, x);
    }

    #[test]
    fn matricize_preserves_norm((dims, _, seed) in problem_strategy()) {
        let shape = Shape::new(&dims);
        let x = DenseTensor::random(shape, seed);
        for n in 0..dims.len() {
            let m = matricize(&x, n);
            prop_assert!((m.frob_norm() - x.frob_norm()).abs() < 1e-10);
        }
    }

    #[test]
    fn mttkrp_reference_equals_matmul_path((dims, r, seed) in problem_strategy()) {
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..dims.len() {
            let a = mttkrp_reference(&x, &refs, n);
            let b = mttkrp_via_matmul(&x, &refs, n);
            prop_assert!(a.max_abs_diff(&b) < 1e-9 * (1.0 + a.frob_norm()));
        }
    }

    #[test]
    fn mttkrp_linear_in_tensor((dims, r, seed) in problem_strategy(), alpha in -3.0f64..3.0) {
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let scaled = DenseTensor::from_vec(
            x.shape().clone(),
            x.data().iter().map(|&v| alpha * v).collect(),
        );
        let b1 = mttkrp_reference(&x, &refs, 0);
        let b2 = mttkrp_reference(&scaled, &refs, 0);
        let expect = Matrix::from_fn(b1.rows(), b1.cols(), |i, j| alpha * b1[(i, j)]);
        prop_assert!(b2.max_abs_diff(&expect) < 1e-9 * (1.0 + expect.frob_norm()));
    }

    #[test]
    fn mttkrp_linear_in_each_factor((dims, r, seed) in problem_strategy(), alpha in -2.0f64..2.0) {
        // Scaling one participating factor scales the output linearly.
        let (x, mut factors) = build(&dims, r, seed);
        let n = 0;
        let k = dims.len() - 1; // != n since order >= 2
        let refs: Vec<&Matrix> = factors.iter().collect();
        let b1 = mttkrp_reference(&x, &refs, n);
        factors[k] = Matrix::from_fn(factors[k].rows(), r, |i, j| alpha * factors[k][(i, j)]);
        let refs2: Vec<&Matrix> = factors.iter().collect();
        let b2 = mttkrp_reference(&x, &refs2, n);
        let expect = Matrix::from_fn(b1.rows(), b1.cols(), |i, j| alpha * b1[(i, j)]);
        prop_assert!(b2.max_abs_diff(&expect) < 1e-9 * (1.0 + expect.frob_norm()));
    }

    #[test]
    fn krp_gram_identity(rows_a in 1usize..6, rows_b in 1usize..6, r in 1usize..5, seed in 0u64..500) {
        let a = Matrix::random(rows_a, r, seed);
        let b = Matrix::random(rows_b, r, seed + 1);
        let krp = khatri_rao(&a, &b);
        let lhs = krp.gram();
        let rhs = gram_hadamard(&[&a, &b]);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10 * (1.0 + lhs.frob_norm()));
    }

    #[test]
    fn krp_colex_row_structure(rows in prop::collection::vec(1usize..4, 2..4), r in 1usize..4, seed in 0u64..500) {
        // Row j of the colex KRP is the entrywise product of factor rows at
        // the colex delinearization of j.
        let mats: Vec<Matrix> = rows
            .iter()
            .enumerate()
            .map(|(k, &m)| Matrix::random(m, r, seed + k as u64))
            .collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let krp = khatri_rao_colex(&refs);
        let total: usize = rows.iter().product();
        prop_assert_eq!(krp.rows(), total);
        for j in (0..total).step_by(1 + total / 7) {
            let mut rem = j;
            let mut expect = vec![1.0f64; r];
            for (k, &m) in rows.iter().enumerate() {
                let i = rem % m;
                rem /= m;
                for (e, &v) in expect.iter_mut().zip(mats[k].row(i)) {
                    *e *= v;
                }
            }
            for (c, &e) in expect.iter().enumerate() {
                prop_assert!((krp[(j, c)] - e).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn kruskal_norm_matches_dense(dims in shape_strategy(), r in 1usize..4, seed in 0u64..500) {
        // The Gram-Hadamard norm identity CP-ALS's fit relies on.
        let kt = KruskalTensor::random(&Shape::new(&dims), r, seed);
        let refs: Vec<&Matrix> = kt.factors.iter().collect();
        let v = gram_hadamard(&refs);
        let w = &kt.weights;
        let clever: f64 = (0..r)
            .flat_map(|a| (0..r).map(move |b| (a, b)))
            .map(|(a, b)| w[a] * v[(a, b)] * w[b])
            .sum();
        let direct = kt.full().frob_norm().powi(2);
        prop_assert!((clever - direct).abs() < 1e-7 * (1.0 + direct));
    }

    #[test]
    fn kruskal_mttkrp_closed_form(dims in prop::collection::vec(2usize..5, 3..=3), seed in 0u64..500) {
        // For X = full(Kruskal(U)), MTTKRP with the model's own factors
        // satisfies B = U^(n) * hadamard_{k!=n}(U^(k)T U^(k)) (with unit
        // weights) -- the identity CP-ALS's normal equations rely on.
        let r = 2;
        let kt = KruskalTensor::random(&Shape::new(&dims), r, seed);
        let x = kt.full();
        let refs: Vec<&Matrix> = kt.factors.iter().collect();
        for n in 0..dims.len() {
            let b = mttkrp_reference(&x, &refs, n);
            let others: Vec<&Matrix> = kt
                .factors
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != n)
                .map(|(_, f)| f)
                .collect();
            let v = gram_hadamard(&others);
            let expect = kt.factors[n].matmul(&v);
            prop_assert!(b.max_abs_diff(&expect) < 1e-8 * (1.0 + expect.frob_norm()));
        }
    }

    #[test]
    fn subtensor_entries_match(
        dims in prop::collection::vec(1usize..6, 2..5),
        cuts in prop::collection::vec((0usize..6, 0usize..6), 4),
        seed in 0u64..500,
    ) {
        // Any non-empty range per mode: ranges that start and end mid-run,
        // single-index ranges, and I_0 = 1 (every run is one entry).
        let shape = Shape::new(&dims);
        let x = DenseTensor::random(shape, seed);
        let ranges: Vec<(usize, usize)> = dims
            .iter()
            .zip(&cuts)
            .map(|(&d, &(a, b))| {
                let lo = a % d;
                (lo, lo + 1 + b % (d - lo))
            })
            .collect();
        let sub = x.subtensor(&ranges);
        let mut idx = vec![0usize; dims.len()];
        for lin in 0..sub.num_entries() {
            sub.shape().delinearize_into(lin, &mut idx);
            let full_idx: Vec<usize> = idx
                .iter()
                .zip(&ranges)
                .map(|(&i, &(lo, _))| lo + i)
                .collect();
            prop_assert_eq!(sub.data()[lin], x.get(&full_idx));
        }
    }

    #[test]
    fn gram_psd(rows in 1usize..8, cols in 1usize..6, seed in 0u64..500) {
        // x^T G x >= 0 for any x when G = A^T A.
        let a = Matrix::random(rows, cols, seed);
        let g = a.gram();
        let x = Matrix::random(cols, 1, seed + 9);
        let gx = g.matmul(&x);
        let mut quad = 0.0;
        for i in 0..cols {
            quad += x[(i, 0)] * gx[(i, 0)];
        }
        prop_assert!(quad >= -1e-10);
    }
}
