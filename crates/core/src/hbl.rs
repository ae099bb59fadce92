//! Hölder–Brascamp–Lieb machinery behind the lower-bound proofs
//! (Section IV-A of the paper), plus the data behind Figure 1.
//!
//! An MTTKRP iteration point is `(i_1, ..., i_N, r)`. The `N+1` data arrays
//! induce projections of the iteration space:
//! - `phi_j`, `j in [N]`: `(i_1,...,i_N,r) -> (i_j, r)` — the factor
//!   matrices (input for `j != n`, output for `j = n`);
//! - `phi_{N+1}`: `(i_1,...,i_N,r) -> (i_1,...,i_N)` — the tensor.
//!
//! Lemma 4.1 bounds `|F| <= prod_j |phi_j(F)|^{s_j}` for any `s` in the
//! polytope `{s in [0,1]^{N+1} : Delta s >= 1}`; Lemma 4.2 shows the
//! exponent sum is minimized at `s* = (1/N, ..., 1/N, 1-1/N)`.
//!
//! The `paper` binary's `fig1` section checks Lemmas 4.1-4.4 on Figure 1's
//! points; its `fig2` section holds an executed run's segments to
//! [`segment_iteration_bound`].

use std::collections::HashSet;

/// An iteration-space point `(i_1, ..., i_N, r)`.
type Point = Vec<usize>;

/// The `Delta` matrix of the MTTKRP Hölder-Brascamp-Lieb LP (Lemma 4.2):
/// `Delta = [[I_{NxN}, 1_{Nx1}], [1_{1xN}, 0]]`, returned row-major as
/// `(N+1) x (N+1)` with `delta[i][j] = 1` iff loop index `i` is used by
/// projection `j`. Columns `0..N` are the factor matrices; column `N` is
/// the tensor. Rows `0..N` are the tensor indices; row `N` is `r`.
pub fn mttkrp_delta(order: usize) -> Vec<Vec<u8>> {
    assert!(order >= 2, "MTTKRP needs order >= 2");
    let d = order + 1;
    let mut m = vec![vec![0u8; d]; d];
    for i in 0..order {
        m[i][i] = 1; // index i_k used by factor k
        m[i][order] = 1; // index i_k used by the tensor
        m[order][i] = 1; // index r used by factor k
    }
    m
}

/// The optimal exponents `s* = (1/N, ..., 1/N, 1 - 1/N)` of Lemma 4.2,
/// with `sum s* = 2 - 1/N`.
pub fn optimal_exponents(order: usize) -> Vec<f64> {
    assert!(order >= 2);
    let n = order as f64;
    let mut s = vec![1.0 / n; order];
    s.push(1.0 - 1.0 / n);
    s
}

/// Checks feasibility `Delta s >= 1` (componentwise) for the MTTKRP `Delta`.
pub fn is_feasible(order: usize, s: &[f64]) -> bool {
    let delta = mttkrp_delta(order);
    if s.len() != order + 1 || s.iter().any(|&x| !(0.0..=1.0).contains(&x)) {
        return false;
    }
    (0..=order).all(|i| {
        let row: f64 = (0..=order).map(|j| delta[i][j] as f64 * s[j]).sum();
        row >= 1.0 - 1e-12
    })
}

/// The projection `phi_j` of a set of iteration points onto array `j`:
/// `j in 0..N` projects to `(i_j, r)`; `j = N` projects to `(i_1,...,i_N)`.
/// Returns the number of *distinct* array entries touched.
fn projection_size(points: &[Point], order: usize, j: usize) -> usize {
    assert!(j <= order, "projection index out of range");
    let mut set: HashSet<Vec<usize>> = HashSet::with_capacity(points.len());
    for p in points {
        assert_eq!(p.len(), order + 1, "point arity mismatch");
        if j < order {
            set.insert(vec![p[j], p[order]]);
        } else {
            set.insert(p[..order].to_vec());
        }
    }
    set.len()
}

/// All `N+1` projection sizes of a set of iteration points.
pub fn projection_sizes(points: &[Point], order: usize) -> Vec<usize> {
    (0..=order)
        .map(|j| projection_size(points, order, j))
        .collect()
}

/// The Hölder-Brascamp-Lieb upper bound `prod_j |phi_j(F)|^{s_j}` for the
/// optimal exponents (Lemma 4.1 with Lemma 4.2's `s*`).
pub fn hbl_upper_bound(points: &[Point], order: usize) -> f64 {
    let sizes = projection_sizes(points, order);
    let s = optimal_exponents(order);
    sizes
        .iter()
        .zip(&s)
        .map(|(&sz, &e)| (sz as f64).powf(e))
        .product()
}

/// Lemma 4.3: `max prod x_i^{s_i}` subject to `sum x_i <= c`, `x >= 0`
/// equals `c^{sum s} * prod (s_j / sum s)^{s_j}`.
pub fn lemma43_max_product(s: &[f64], c: f64) -> f64 {
    assert!(s.iter().all(|&x| x > 0.0), "exponents must be positive");
    assert!(c >= 0.0);
    let total: f64 = s.iter().sum();
    c.powf(total) * s.iter().map(|&sj| (sj / total).powf(sj)).product::<f64>()
}

/// Lemma 4.4: `min sum x_i` subject to `prod x_i^{s_i} >= c`, `x >= 0`
/// equals `(c / prod s_i^{s_i})^{1/sum s} * sum s`.
pub fn lemma44_min_sum(s: &[f64], c: f64) -> f64 {
    assert!(s.iter().all(|&x| x > 0.0), "exponents must be positive");
    assert!(c > 0.0);
    let total: f64 = s.iter().sum();
    let denom: f64 = s.iter().map(|&si| si.powf(si)).product();
    (c / denom).powf(1.0 / total) * total
}

/// The per-segment iteration bound used in Theorem 4.1's proof:
/// `|F| <= (3M)^{2-1/N} / N` for a segment with `M` loads/stores.
pub fn segment_iteration_bound(order: usize, m: u64) -> f64 {
    let s = optimal_exponents(order);
    let bound = lemma43_max_product(&s, 3.0 * m as f64);
    // The paper additionally shows prod (s_j/sum s)^{s_j} <= 1/N, so
    // bound <= (3M)^{2-1/N}/N; we return the tighter Lemma 4.3 value.
    bound
}

/// The six example iteration points of the paper's Figure 1
/// (`N = 3`, `I_k = 15`, `R = 4`), 1-based exactly as printed:
/// a=(5,1,1,1), b=(3,3,15,1), c=(7,10,2,2), d=(4,14,11,3), e=(11,2,2,4),
/// f=(14,14,14,4).
pub fn figure1_points() -> Vec<Point> {
    vec![
        vec![5, 1, 1, 1],
        vec![3, 3, 15, 1],
        vec![7, 10, 2, 2],
        vec![4, 14, 11, 3],
        vec![11, 2, 2, 4],
        vec![14, 14, 14, 4],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn delta_structure() {
        let d = mttkrp_delta(3);
        // Rows 0..3: identity + tensor column of ones.
        assert_eq!(d[0], vec![1, 0, 0, 1]);
        assert_eq!(d[1], vec![0, 1, 0, 1]);
        assert_eq!(d[2], vec![0, 0, 1, 1]);
        // Row 3 (r): ones for factors, 0 for tensor.
        assert_eq!(d[3], vec![1, 1, 1, 0]);
    }

    #[test]
    fn optimal_exponents_feasible_and_sum() {
        for order in 2..=6 {
            let s = optimal_exponents(order);
            assert!(is_feasible(order, &s), "s* infeasible for N={order}");
            let total: f64 = s.iter().sum();
            let expect = 2.0 - 1.0 / order as f64;
            assert!((total - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn lp_optimality_spot_check() {
        // Lemma 4.2: no feasible s has a smaller sum than 2 - 1/N.
        // Spot-check against a grid of feasible candidates for N = 3.
        let order = 3;
        let best: f64 = 2.0 - 1.0 / order as f64;
        let steps = 10;
        for a in 0..=steps {
            for b in 0..=steps {
                for c in 0..=steps {
                    for t in 0..=steps {
                        let s = [
                            a as f64 / steps as f64,
                            b as f64 / steps as f64,
                            c as f64 / steps as f64,
                            t as f64 / steps as f64,
                        ];
                        if is_feasible(order, &s) {
                            let total: f64 = s.iter().sum();
                            assert!(total >= best - 1e-9);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lp_duality_proves_optimality_for_all_orders() {
        // Lemma 4.2's proof: t* = s* is feasible for the dual
        // (max 1^T t s.t. Delta^T t <= 1), so by weak duality no feasible
        // primal point can have a smaller objective than 1^T s* = 2 - 1/N.
        for order in 2..=8 {
            let delta = mttkrp_delta(order);
            let s = optimal_exponents(order);
            // Dual feasibility: for every column j, sum_i delta[i][j]*s[i] <= 1.
            for j in 0..=order {
                let col: f64 = (0..=order).map(|i| delta[i][j] as f64 * s[i]).sum();
                assert!(
                    col <= 1.0 + 1e-12,
                    "N={order}: dual constraint {j} violated ({col})"
                );
            }
            // Primal feasibility already checked by is_feasible.
            assert!(is_feasible(order, &s));
        }
    }

    #[test]
    fn figure1_projection_sizes() {
        // All six points are distinct in every projection, as the figure
        // shows: each phi_j(F) has 6 elements.
        let pts = figure1_points();
        let sizes = projection_sizes(&pts, 3);
        assert_eq!(sizes, vec![6, 6, 6, 6]);
        // |F| = 6 <= prod 6^{s_j} = 6^{2-1/3}.
        let bound = hbl_upper_bound(&pts, 3);
        assert!((bound - 6f64.powf(5.0 / 3.0)).abs() < 1e-9);
        assert!(6.0 <= bound);
    }

    #[test]
    fn figure1_specific_projection_phi2() {
        // The paper lists phi_2(F) (projection onto (i_2, r)) as
        // a(1,1), b(3,1), c(10,2), d(14,3), e(2,4), f(14,4).
        let pts = figure1_points();
        let mut proj: Vec<(usize, usize)> = pts.iter().map(|p| (p[1], p[3])).collect();
        proj.sort_unstable();
        let mut expect = vec![(1, 1), (3, 1), (10, 2), (14, 3), (2, 4), (14, 4)];
        expect.sort_unstable();
        assert_eq!(proj, expect);
    }

    #[test]
    fn hbl_inequality_on_full_blocks() {
        // For a full block F = [b]^N x [r], |F| = b^N * r and the bound is
        // (b*r)^{N * 1/N} * (b^N)^{1-1/N} = b^N * r: tight.
        let order = 3;
        let (b, r) = (3usize, 2usize);
        let mut pts = Vec::new();
        for i1 in 0..b {
            for i2 in 0..b {
                for i3 in 0..b {
                    for c in 0..r {
                        pts.push(vec![i1, i2, i3, c]);
                    }
                }
            }
        }
        let bound = hbl_upper_bound(&pts, order);
        let count = pts.len() as f64;
        assert!(count <= bound + 1e-9);
        assert!(
            (bound - count).abs() < 1e-9,
            "bound should be tight on blocks"
        );
    }

    #[test]
    fn hbl_inequality_on_random_subsets() {
        // Lemma 4.1 must hold for arbitrary subsets of the iteration space.
        let order = 4;
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50 {
            let npts = 1 + (trial % 40);
            let pts: Vec<Point> = (0..npts)
                .map(|_| (0..=order).map(|_| rng.gen_range(0..6)).collect())
                .collect();
            // Deduplicate (F is a set).
            let set: HashSet<Point> = pts.into_iter().collect();
            let pts: Vec<Point> = set.into_iter().collect();
            let bound = hbl_upper_bound(&pts, order);
            assert!(
                pts.len() as f64 <= bound + 1e-9,
                "HBL violated: |F|={} > {bound}",
                pts.len()
            );
        }
    }

    #[test]
    fn lemma43_closed_form_beats_samples() {
        // The closed form must dominate random feasible points.
        let s = [0.5, 0.25, 0.8];
        let c = 10.0;
        let opt = lemma43_max_product(&s, c);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let raw: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            let total: f64 = raw.iter().sum();
            let x: Vec<f64> = raw.iter().map(|&v| v / total * c).collect();
            let val: f64 = x.iter().zip(&s).map(|(&xi, &si)| xi.powf(si)).product();
            assert!(val <= opt * (1.0 + 1e-9));
        }
    }

    #[test]
    fn lemma43_attained_at_optimizer() {
        // x_j = c*s_j/sum s attains the maximum.
        let s = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0];
        let c = 7.0;
        let total: f64 = s.iter().sum();
        let val: f64 = s.iter().map(|&sj| (c * sj / total).powf(sj)).product();
        assert!((val - lemma43_max_product(&s, c)).abs() < 1e-9 * val);
    }

    #[test]
    fn lemma44_closed_form_bounds_samples() {
        let s = [0.5, 0.5, 0.7];
        let c = 5.0;
        let opt = lemma44_min_sum(&s, c);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x: Vec<f64> = (0..3).map(|_| rng.gen_range(0.1..20.0)).collect();
            let prod: f64 = x.iter().zip(&s).map(|(&xi, &si)| xi.powf(si)).product();
            if prod >= c {
                let total: f64 = x.iter().sum();
                assert!(total >= opt * (1.0 - 1e-9));
            }
        }
    }

    #[test]
    fn lemma44_attained_at_optimizer() {
        let s = [0.25, 0.25, 0.25, 0.75];
        let c = 3.0;
        let total: f64 = s.iter().sum();
        let denom: f64 = s.iter().map(|&si| si.powf(si)).product();
        let scale = (c / denom).powf(1.0 / total);
        // x_j = s_j * scale satisfies the constraint with equality...
        let prod: f64 = s.iter().map(|&sj| (sj * scale).powf(sj)).product();
        assert!((prod - c).abs() < 1e-9 * c);
        let sum: f64 = s.iter().map(|&sj| sj * scale).sum();
        assert!((sum - lemma44_min_sum(&s, c)).abs() < 1e-9 * sum);
    }

    #[test]
    fn segment_bound_dominated_by_paper_simplification() {
        // Lemma 4.3 value <= (3M)^{2-1/N} / N (the paper's simplification).
        for order in 2..=5 {
            let n = order as f64;
            for &m in &[16u64, 256, 4096] {
                let tight = segment_iteration_bound(order, m);
                let loose = (3.0 * m as f64).powf(2.0 - 1.0 / n) / n;
                assert!(tight <= loose * (1.0 + 1e-12));
            }
        }
    }
}
