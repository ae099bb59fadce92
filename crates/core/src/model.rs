//! Analytic communication-cost models for every algorithm in the paper,
//! used to (a) price the execution planner's candidates, (b) cross-validate
//! the simulators (measured == modeled in the evenly divisible cases; the
//! `paper` binary's `validate` section) and (c) regenerate the paper's
//! Figure 4, whose curves are themselves model evaluations at `I = 2^45`,
//! `R = 2^15`, `P` up to `2^30` (its `fig4` section). Section V-D3's
//! real-valued `P_0` prescription sits beside `table_par`'s searched `P_0`.

use crate::problem::Problem;

// ---------------------------------------------------------------------------
// Sequential models (Section V-A, V-B, VI-A)
// ---------------------------------------------------------------------------

/// Algorithm 1 exact cost: `W = I + I*R*(N+1)` words.
pub fn alg1_cost(p: &Problem) -> u128 {
    let i = p.tensor_entries();
    let ir = p.iteration_space();
    i + ir * (p.order() as u128 + 1)
}

/// Algorithm 2 *exact* cost for block size `b` and mode `n`, accounting for
/// ragged edge blocks:
/// `W = I + R * ( sum_{k != n} I_k * NB / nb_k  +  2 * I_n * NB / nb_n )`,
/// where `nb_k = ceil(I_k / b)` and `NB = prod_k nb_k`.
///
/// (The per-mode sums factorize because block extents are independent
/// across modes; loads of `X` total exactly `I`.)
pub fn alg2_cost_exact(p: &Problem, n: usize, b: u64) -> u128 {
    assert!(n < p.order(), "mode out of range");
    assert!(b >= 1);
    let nb: Vec<u128> = p
        .dims
        .iter()
        .map(|&d| (d as u128).div_ceil(b as u128))
        .collect();
    let total_blocks: u128 = nb.iter().product();
    let r = p.rank as u128;
    let mut factor_words: u128 = 0;
    for (k, &ik) in p.dims.iter().enumerate() {
        let per_mode = ik as u128 * (total_blocks / nb[k]);
        factor_words += if k == n { 2 * per_mode } else { per_mode };
    }
    p.tensor_entries() + r * factor_words
}

/// Algorithm 2 upper bound, Eq. (12):
/// `W <= I + ceil(I_1/b) * ... * ceil(I_N/b) * R * (N+1) * b`.
pub fn alg2_cost_upper(p: &Problem, b: u64) -> f64 {
    let nb: u128 = p
        .dims
        .iter()
        .map(|&d| (d as u128).div_ceil(b as u128))
        .product();
    p.tensor_entries() as f64 + nb as f64 * p.rank as f64 * (p.order() as f64 + 1.0) * b as f64
}

/// The cost-minimizing Algorithm 2 block size for a fast memory of `m`
/// words: scans every feasible `b` up to the Eq. (11) limit
/// ([`crate::seq::choose_block_size`]) and returns `(b, exact_cost)` with
/// the smallest [`alg2_cost_exact`]. Ragged edge blocks make the exact cost
/// non-monotone in `b`, so the largest feasible block is not always best —
/// this is the entry point the execution planner uses.
pub fn alg2_best_block(p: &Problem, n: usize, m: u64) -> (u64, u128) {
    let order = p.order();
    if m as usize <= order {
        // Eq. (11) admits no block at all; b = 1 degenerates to Algorithm 1.
        return (1, alg2_cost_exact(p, n, 1));
    }
    let b_max = (crate::seq::choose_block_size(m as usize, order) as u64)
        .min(p.dims.iter().copied().max().unwrap_or(1))
        .max(1);
    let mut best = (1u64, alg2_cost_exact(p, n, 1));
    for b in 2..=b_max {
        let cost = alg2_cost_exact(p, n, b);
        if cost < best.1 {
            best = (b, cost);
        }
    }
    best
}

/// Model of the sequential matmul baseline's I/O
/// (see `seq::matmul`): KRP formation `~ 2 (I/I_n) R` plus blocked matmul
/// `I_n R + I * ceil(R/t) + (I/I_n) R * ceil(I_n/t)`, `t = floor(sqrt(M/3))`.
pub fn seq_matmul_cost(p: &Problem, n: usize, m: u64) -> f64 {
    let i = p.tensor_entries() as f64;
    let i_n = p.dims[n] as f64;
    let r = p.rank as f64;
    let krows = i / i_n;
    let t = ((m as f64 / 3.0).sqrt().floor()).max(1.0);
    let krp = 2.0 * krows * r;
    let mm = i_n * r + i * (r / t).ceil() + krows * r * (i_n / t).ceil();
    krp + mm
}

// ---------------------------------------------------------------------------
// Parallel models (Section V-C, V-D, VI-B)
// ---------------------------------------------------------------------------

/// Algorithm 3 modeled cost (Eq. (14) with even distributions):
/// `W = sum_k (P/P_k - 1) * I_k * R / P` words per processor (one-way; the
/// bucket collectives send and receive this many words each).
///
/// `grid` is `(P_1, ..., P_N)`; the mode `n` term is the Reduce-Scatter.
pub fn alg3_cost(p: &Problem, grid: &[u64]) -> f64 {
    assert_eq!(grid.len(), p.order(), "grid arity mismatch");
    let procs: u128 = grid.iter().map(|&g| g as u128).product();
    let r = p.rank as f64;
    let mut w = 0.0;
    for (&ik, &pk) in p.dims.iter().zip(grid) {
        let q = procs / pk as u128;
        let wk = ik as f64 * r / procs as f64;
        w += (q as f64 - 1.0) * wk;
    }
    w
}

/// Algorithm 4 modeled cost (Eq. (18) with even distributions):
/// `W = (P_0 - 1) * I / P + sum_k (P/(P_0 P_k) - 1) * I_k * R / P`.
///
/// `grid` is `(P_1, ..., P_N)`; `p0` partitions the rank dimension. With
/// `p0 = 1` this reduces exactly to [`alg3_cost`].
pub fn alg4_cost(p: &Problem, p0: u64, grid: &[u64]) -> f64 {
    assert_eq!(grid.len(), p.order(), "grid arity mismatch");
    assert!(p0 >= 1);
    let procs: u128 = grid.iter().map(|&g| g as u128).product::<u128>() * p0 as u128;
    let i = p.tensor_entries() as f64;
    let r = p.rank as f64;
    let mut w = (p0 as f64 - 1.0) * i / procs as f64;
    for (&ik, &pk) in p.dims.iter().zip(grid) {
        let q = procs / (p0 as u128 * pk as u128);
        let wk = ik as f64 * r / procs as f64;
        w += (q as f64 - 1.0) * wk;
    }
    w
}

/// The paper's optimal `P_0` prescription (Section V-D3):
/// `P_0 ~ (N R)^(N/(2N-1)) / (I/P)^((N-1)/(2N-1))`, clamped to `[1, P]`.
pub fn alg4_optimal_p0_real(p: &Problem, procs: u64) -> f64 {
    let n = p.order() as f64;
    let i = p.tensor_entries() as f64;
    let r = p.rank as f64;
    let ip = i / procs as f64;
    ((n * r).powf(n / (2.0 * n - 1.0)) / ip.powf((n - 1.0) / (2.0 * n - 1.0)))
        .clamp(1.0, procs as f64)
}

/// Per-rank *message* count of Algorithm 3 (latency proxy): each of the
/// `N` bucket collectives over a hyperslice of size `q_k = P/P_k` sends
/// `q_k - 1` messages per rank.
pub fn alg3_messages(p: &Problem, grid: &[u64]) -> u64 {
    assert_eq!(grid.len(), p.order(), "grid arity mismatch");
    let procs: u64 = grid.iter().product();
    grid.iter().map(|&pk| procs / pk - 1).sum()
}

// ---------------------------------------------------------------------------
// Matmul baseline (CARMA; Demmel et al. [10], used in Section VI-B)
// ---------------------------------------------------------------------------

/// Communication-optimal rectangular matmul bandwidth cost for multiplying
/// matrices with dimension triple `(m, k, n)` (so `m*k`, `k*n` inputs and
/// `m*n` output) on `procs` processors, assuming unbounded memory.
///
/// With dims sorted `d1 >= d2 >= d3` the three CARMA regimes are:
/// - one large dimension  (`P <= d1/d2`):            `W = d2*d3`;
/// - two large dimensions (`d1/d2 <= P <= d1 d2/d3^2`): `W = d3*sqrt(d1 d2/P)`;
/// - three large dimensions (`P >= d1 d2/d3^2`):     `W = (d1 d2 d3/P)^(2/3)`.
///
/// The regimes meet continuously at the boundaries. `P = 1` returns 0.
pub fn carma_cost(m: u64, k: u64, n: u64, procs: u64) -> f64 {
    if procs <= 1 {
        return 0.0;
    }
    let mut d = [m as f64, k as f64, n as f64];
    d.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let (d1, d2, d3) = (d[0], d[1], d[2]);
    let p = procs as f64;
    if p <= d1 / d2 {
        d2 * d3
    } else if p <= d1 * d2 / (d3 * d3) {
        d3 * (d1 * d2 / p).sqrt()
    } else {
        (d1 * d2 * d3 / p).powf(2.0 / 3.0)
    }
}

/// The MTTKRP-via-matmul baseline cost of Section VI-B: multiply
/// `X_(n)` (`I_n x I/I_n`) by the Khatri-Rao product (`I/I_n x R`) with a
/// communication-optimal matmul. Per the paper, the Khatri-Rao product is
/// assumed to be formed for free in the right distribution.
pub fn mm_baseline_cost(p: &Problem, n: usize, procs: u64) -> f64 {
    let i: u128 = p.tensor_entries();
    let i_n = p.dims[n];
    let k = (i / i_n as u128) as u64;
    carma_cost(i_n, k, p.rank, procs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg1_cost_formula() {
        let p = Problem::new(&[3, 4, 5], 2);
        assert_eq!(alg1_cost(&p), 60 + 120 * 4);
    }

    #[test]
    fn alg2_exact_reduces_to_alg1_at_b1() {
        let p = Problem::new(&[3, 4, 5], 2);
        for n in 0..3 {
            assert_eq!(alg2_cost_exact(&p, n, 1), alg1_cost(&p));
        }
    }

    #[test]
    fn alg2_exact_even_division_matches_eq12() {
        // When b divides every I_k, the exact cost equals Eq. (12) exactly.
        let p = Problem::new(&[4, 4, 8], 3);
        let b = 2;
        for n in 0..3 {
            let exact = alg2_cost_exact(&p, n, b) as f64;
            let upper = alg2_cost_upper(&p, b);
            assert_eq!(exact, upper, "mode {n}");
        }
    }

    #[test]
    fn alg2_exact_below_upper_when_ragged() {
        let p = Problem::new(&[5, 7, 3], 2);
        for n in 0..3 {
            assert!(alg2_cost_exact(&p, n, 2) as f64 <= alg2_cost_upper(&p, 2));
        }
    }

    #[test]
    fn alg2_bigger_blocks_cost_less() {
        let p = Problem::new(&[16, 16, 16], 4);
        let c1 = alg2_cost_exact(&p, 0, 1);
        let c2 = alg2_cost_exact(&p, 0, 2);
        let c4 = alg2_cost_exact(&p, 0, 4);
        assert!(c1 > c2 && c2 > c4);
    }

    #[test]
    fn alg3_reduces_from_alg4_with_p0_1() {
        let p = Problem::new(&[8, 8, 8], 4);
        let grid = [2u64, 2, 2];
        assert!((alg3_cost(&p, &grid) - alg4_cost(&p, 1, &grid)).abs() < 1e-12);
    }

    #[test]
    fn alg3_cost_cubical_hand_check() {
        // I_k = 8, R = 4, grid 2x2x2 (P=8): each term (8/2-1)*8*4/8 = 12,
        // total 36.
        let p = Problem::new(&[8, 8, 8], 4);
        assert!((alg3_cost(&p, &[2, 2, 2]) - 36.0).abs() < 1e-12);
    }

    #[test]
    fn alg4_tensor_term_appears() {
        let p = Problem::new(&[8, 8, 8], 4);
        // P = 16 with P0 = 2, grid 2x2x2: tensor term (2-1)*512/16 = 32.
        let c = alg4_cost(&p, 2, &[2, 2, 2]);
        let factor_terms: f64 = 3.0 * ((16.0 / 4.0) - 1.0) * (8.0 * 4.0 / 16.0);
        assert!((c - (32.0 + factor_terms)).abs() < 1e-12);
    }

    #[test]
    fn carma_regimes_continuous() {
        // d1=2^30, d2=d3=2^15: boundaries at P=2^15 (both) -- the curve is
        // flat then falls as P^{-2/3}.
        let m = 1u64 << 15;
        let k = 1u64 << 30;
        let r = 1u64 << 15;
        let flat = carma_cost(m, k, r, 4);
        assert!((flat - (1u64 << 30) as f64).abs() < 1.0);
        let at_boundary = carma_cost(m, k, r, 1 << 15);
        assert!((at_boundary - (1u64 << 30) as f64) < 2.0);
        let beyond = carma_cost(m, k, r, 1 << 18);
        assert!(beyond < at_boundary);
        // 3-large-dims formula: (2^60/2^18)^{2/3} = 2^28.
        assert!((beyond - (1u64 << 28) as f64).abs() < 1.0);
    }

    #[test]
    fn carma_two_large_regime() {
        // m = n = 2^10, k = 2^20: 1-large until P = 2^10; two-large between
        // 2^10 and d1 d2/d3^2 = 2^10; again empty. Use m=2^12, k=2^20,
        // n=2^4: boundaries d1/d2 = 2^8, d1 d2 / d3^2 = 2^24.
        let w = carma_cost(1 << 12, 1 << 20, 1 << 4, 1 << 16);
        // two-large: d3*sqrt(d1*d2/P) = 2^4 * sqrt(2^32/2^16) = 2^12.
        assert!((w - (1u64 << 12) as f64).abs() < 1.0);
    }

    #[test]
    fn figure4_claims_shape() {
        // At the Figure 4 scale Algorithm 4 on its best grid beats matmul
        // from P = 2^5 on.
        let p = Problem::cubical(3, 1 << 15, 1 << 15);
        for &procs in &[1u64 << 5, 1 << 10, 1 << 17, 1 << 25, 1 << 30] {
            let ours = crate::grid_opt::optimize_alg4_grid(&p, procs).2;
            let mm = mm_baseline_cost(&p, 0, procs);
            assert!(
                ours < mm,
                "P=2^{}: ours {ours:.3e} !< mm {mm:.3e}",
                procs.ilog2()
            );
        }
    }

    #[test]
    fn alg4_p0_prescription_crosses_one() {
        let p = Problem::cubical(3, 1 << 15, 1 << 15);
        // Small P: P0 = 1 (clamped). Large P: P0 > 1.
        assert_eq!(alg4_optimal_p0_real(&p, 1 << 10), 1.0);
        assert!(alg4_optimal_p0_real(&p, 1 << 29) > 1.0);
    }

    #[test]
    fn alg3_message_count_hand_check() {
        // grid 2x2x2: three hyperslices of size 4, so 3 * (4-1) = 9
        // messages per rank.
        let p = Problem::new(&[8, 8, 8], 4);
        assert_eq!(alg3_messages(&p, &[2, 2, 2]), 9);
        // grid 8x1x1: slices of sizes 1, 8, 8 -> 0 + 7 + 7.
        assert_eq!(alg3_messages(&p, &[8, 1, 1]), 14);
    }

    #[test]
    fn best_block_beats_every_alternative() {
        let p = Problem::new(&[13, 24, 7], 5);
        let m = 600;
        let (b, cost) = alg2_best_block(&p, 1, m);
        assert!(b >= 1);
        let b_max = crate::seq::choose_block_size(m as usize, 3) as u64;
        for alt in 1..=b_max.min(24) {
            assert!(cost <= alg2_cost_exact(&p, 1, alt), "beaten by b = {alt}");
        }
    }

    #[test]
    fn best_block_degenerates_with_tiny_memory() {
        let p = Problem::new(&[8, 8, 8], 2);
        let (b, cost) = alg2_best_block(&p, 0, 3);
        assert_eq!(b, 1);
        assert_eq!(cost, alg1_cost(&p));
    }

    #[test]
    fn seq_matmul_cost_positive_and_decreasing_in_m() {
        let p = Problem::new(&[64, 64, 64], 16);
        let small = seq_matmul_cost(&p, 0, 12);
        let large = seq_matmul_cost(&p, 0, 12_000);
        assert!(small > large);
        assert!(large > 0.0);
    }
}
