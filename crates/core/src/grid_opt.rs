//! Processor-grid selection: exhaustive search over integer factorizations
//! of `P`, minimizing the modeled communication cost of Algorithms 3 / 4.
//!
//! The paper prescribes real-valued grids
//! (`P_k ~ I_k / (I P_0 / P)^(1/N)`, `P_0 ~ (NR)^(N/(2N-1)) / (I/P)^((N-1)/(2N-1))`);
//! the integer search recovers these shapes. Every grid it returns runs:
//! the data distributions cut each mode into `P_k` blocks with
//! `split_range`, evenly where `P_k` divides `I_k`. The modeled cost is the
//! paper's even-split closed form.

use crate::model;
use crate::problem::Problem;

/// All ordered factorizations of `p` into `ndims` positive factors.
///
/// The count is modest for realistic inputs (compositions of the prime
/// multiset), but grows with the number of divisors; intended for
/// `p <= 2^32`-ish and `ndims <= 5`.
pub fn factorizations(p: u64, ndims: usize) -> Vec<Vec<u64>> {
    assert!(p >= 1 && ndims >= 1);
    fn rec(p: u64, ndims: usize, out: &mut Vec<Vec<u64>>, prefix: &mut Vec<u64>) {
        if ndims == 1 {
            prefix.push(p);
            out.push(prefix.clone());
            prefix.pop();
            return;
        }
        // Enumerate divisors of p.
        let mut d = 1u64;
        while d * d <= p {
            if p.is_multiple_of(d) {
                // A perfect square's root is visited twice; the dedup below
                // drops the repeated subtree.
                for &f in &[d, p / d] {
                    prefix.push(f);
                    rec(p / f, ndims - 1, out, prefix);
                    prefix.pop();
                }
            }
            d += 1;
        }
    }
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    rec(p, ndims, &mut out, &mut prefix);
    out.sort_unstable();
    out.dedup();
    out
}

/// Best Algorithm 3 grid: the factorization `P = P_1 * ... * P_N`
/// minimizing [`model::alg3_cost`]. Returns `(grid, modeled_cost)`.
pub fn optimize_alg3_grid(p: &Problem, procs: u64) -> (Vec<u64>, f64) {
    let mut best: Option<(Vec<u64>, f64)> = None;
    for grid in factorizations(procs, p.order()) {
        let cost = model::alg3_cost(p, &grid);
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((grid, cost));
        }
    }
    best.expect("at least the trivial factorization exists")
}

/// Best Algorithm 4 grid: the factorization `P = P_0 * P_1 * ... * P_N`
/// minimizing [`model::alg4_cost`]. Returns `(p0, grid, modeled_cost)`.
pub fn optimize_alg4_grid(p: &Problem, procs: u64) -> (u64, Vec<u64>, f64) {
    let mut best: Option<(u64, Vec<u64>, f64)> = None;
    for f in factorizations(procs, p.order() + 1) {
        let (p0, grid) = (f[0], &f[1..]);
        let cost = model::alg4_cost(p, p0, grid);
        if best.as_ref().is_none_or(|(_, _, c)| cost < *c) {
            best = Some((p0, grid.to_vec(), cost));
        }
    }
    best.expect("at least the trivial factorization exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorizations_of_8_into_3() {
        let f = factorizations(8, 3);
        // Compositions of 2^3 into 3 ordered factors: C(5,2) = 10.
        assert_eq!(f.len(), 10);
        assert!(f.contains(&vec![2, 2, 2]));
        assert!(f.contains(&vec![8, 1, 1]));
        assert!(f.contains(&vec![1, 4, 2]));
        for g in &f {
            assert_eq!(g.iter().product::<u64>(), 8);
        }
    }

    #[test]
    fn factorizations_of_12_into_2() {
        let f = factorizations(12, 2);
        // (1,12),(2,6),(3,4),(4,3),(6,2),(12,1)
        assert_eq!(f.len(), 6);
    }

    #[test]
    fn factorizations_single_dim() {
        assert_eq!(factorizations(30, 1), vec![vec![30]]);
    }

    #[test]
    fn cubical_problem_prefers_cubical_grid() {
        let p = Problem::cubical(3, 64, 4);
        let (grid, _) = optimize_alg3_grid(&p, 64);
        assert_eq!(grid, vec![4, 4, 4]);
    }

    #[test]
    fn skewed_problem_prefers_skewed_grid() {
        // One long mode: parallelize it more to shrink its (P/Pk-1)*IkR/P
        // term... the cost term for mode k falls with larger Pk, and long
        // modes have the largest terms, so Pk should grow with Ik.
        let p = Problem::new(&[64, 8, 8], 4);
        let (grid, _) = optimize_alg3_grid(&p, 16);
        assert!(grid[0] >= grid[1] && grid[0] >= grid[2], "grid = {grid:?}");
    }

    #[test]
    fn alg4_chooses_p0_1_in_small_p_regime() {
        // NR << (I/P)^{1-1/N}: Algorithm 3 is optimal, P0 = 1.
        let p = Problem::cubical(3, 256, 2);
        let (p0, _, cost) = optimize_alg4_grid(&p, 8);
        assert_eq!(p0, 1);
        let (_, cost3) = optimize_alg3_grid(&p, 8);
        assert!((cost - cost3).abs() < 1e-9);
    }

    #[test]
    fn alg4_chooses_p0_gt_1_in_large_p_regime() {
        // Large rank relative to I/P: partitioning the rank dimension wins.
        let p = Problem::cubical(3, 16, 4096);
        let (p0, _, cost4) = optimize_alg4_grid(&p, 4096);
        assert!(p0 > 1, "expected P0 > 1, got {p0}");
        let (_, cost3) = optimize_alg3_grid(&p, 4096);
        assert!(cost4 < cost3);
    }

    #[test]
    fn optimizer_matches_brute_force_small() {
        let p = Problem::new(&[12, 6, 4], 3);
        let (grid, cost) = optimize_alg3_grid(&p, 12);
        for f in factorizations(12, 3) {
            assert!(model::alg3_cost(&p, &f) >= cost - 1e-12);
        }
        assert_eq!(grid.iter().product::<u64>(), 12);
    }
}
