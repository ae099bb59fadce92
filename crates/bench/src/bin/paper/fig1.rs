//! **Figure 1** and Lemmas 4.1-4.4: a subset `F` of the 4-way iteration
//! space (`N = 3`, `I_k = 15`, `R = 4`), its projections onto the data
//! arrays, and the Hölder-Brascamp-Lieb inequality and exponent LP that the
//! lower-bound proofs rest on.

use super::Section;
use mttkrp_core::hbl;

pub fn section() -> Section {
    let mut s = Section::default();
    let points = hbl::figure1_points();
    let labels = ['a', 'b', 'c', 'd', 'e', 'f'];
    s.line("# Figure 1: iteration-space subset and its projections\n");
    s.line("Subset F of [15]^3 x [4] (1-based as in the paper) and phi_4(F), the tensor entries:");
    for (l, p) in labels.iter().zip(&points) {
        let [i1, i2, i3, r] = [p[0], p[1], p[2], p[3]];
        s.line(format!(
            "  {l} = ({i1}, {i2}, {i3}, r={r}) -> X({i1}, {i2}, {i3})"
        ));
    }
    // Factor-matrix projections phi_j, j in [N]: the (i_j, r) entries of A^(j).
    for j in 0..3 {
        let entries = labels
            .iter()
            .zip(&points)
            .map(|(l, p)| format!("{l}({}, {})", p[j], p[3]));
        s.line(format!(
            "phi_{}(F), entries (i_{0}, r) of A^({0}): {}",
            j + 1,
            entries.collect::<Vec<_>>().join(" ")
        ));
    }
    let sizes = hbl::projection_sizes(&points, 3);
    let exps = hbl::optimal_exponents(3);
    s.line(format!("\n|phi_j(F)| = {sizes:?}, s* = {exps:.3?}"));
    let touched = sizes.iter().sum::<usize>() as f64;
    let bound = hbl::hbl_upper_bound(&points, 3);
    let most = hbl::lemma43_max_product(&exps, touched);
    let least = hbl::lemma44_min_sum(&exps, 6.0);
    // Lemma 4.2 by weak duality: s* is feasible for the primal (Delta s >= 1)
    // and for the dual (Delta^T t <= 1), so no feasible s sums to less.
    let delta = hbl::mttkrp_delta(3);
    let dual = |j: usize| {
        (0..4)
            .map(|i| f64::from(delta[i][j]) * exps[i])
            .sum::<f64>()
    };
    s.claim("every projection phi_j(F) has 6 entries", sizes == [6; 4]);
    s.claim("Lemma 4.1 holds on F", 6.0 <= bound);
    s.claim(
        "Lemma 4.2: s* is feasible and dual-feasible, so 2 - 1/N is the least exponent sum",
        hbl::is_feasible(3, &exps) && (0..4).all(|j| dual(j) <= 1.0 + 1e-12),
    );
    s.pin(
        "sum s*; Lemma 4.1's prod_j |phi_j(F)|^(s*_j) = 6^(5/3); Lemma 4.3's max prod_j x_j^(s*_j) at sum_j x_j <= 24; Lemma 4.4's min sum_j x_j at prod_j x_j^(s*_j) >= 6",
        &[exps.iter().sum(), bound, most, least],
        &[1.67, 19.81, 21.68, 11.10],
    );
    s.claim(
        "F lies within Lemmas 4.3 and 4.4",
        bound <= most && touched >= least,
    );
    s
}
