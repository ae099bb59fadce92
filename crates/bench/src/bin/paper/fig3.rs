//! **Figure 3**: the phase-by-phase data motion of the Parallel Stationary
//! Tensor Algorithm (Algorithm 3) for `N = 3`, mode `n = 1` (paper
//! numbering; `n = 0` here), on a `2 x 3 x 2` grid, with *measured*
//! per-phase words for every rank, read from the ledgers of the one
//! Algorithm 3 rank body (`par::stationary_rank`).

use super::Section;
use mttkrp_bench::setup_problem;
use mttkrp_core::{model, par, Problem};
use mttkrp_netsim::ProcessorGrid;
use mttkrp_tensor::{mttkrp_reference, Matrix};

pub fn section() -> Section {
    let mut s = Section::default();
    let (x, factors) = setup_problem(&[4, 6, 4], 2, 3);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let run = par::mttkrp_stationary(&x, &refs, 0, &[2, 3, 2]);
    s.line("# Figure 3: Algorithm 3 phases on a 2x3x2 grid (P = 12), n = 1 (paper numbering)\n");
    s.line("(a) start: each processor owns its subtensor and a 1/|hyperslice|");
    s.line("    part of each mode's factor block row");
    s.line("(b,c) All-Gather factor rows within hyperslices (modes k != n)");
    s.line("(d) local MTTKRP contribution");
    s.line("(e) Reduce-Scatter within the mode-n hyperslice\n");
    s.line("measured words received per rank and phase; the local compute (d) moves none:\n");
    s.line(" rank   coords   AG A^(2) (b)   AG A^(3) (c)   Red-Scat (e)");
    let (mut sum, mut three_phases) = ([0u64; 3], true);
    for (rank, ledger) in run.ledgers.iter().enumerate() {
        let c = ProcessorGrid::new(&[2, 3, 2]).coords(rank);
        let phases = ledger.phases();
        three_phases &= phases.len() == 3;
        let [b, ag, e] = [0, 1, 2].map(|i| phases.get(i).map_or(0, |t| t.words_received));
        sum = [sum[0] + b, sum[1] + ag, sum[2] + e];
        let at = format!("({},{},{})", c[0] + 1, c[1] + 1, c[2] + 1);
        s.line(format!("{rank:>5} {at:>8} {b:>14} {ag:>14} {e:>14}"));
    }
    let [b, ag, e] = sum;
    s.line(format!("  sum {:>8} {b:>14} {ag:>14} {e:>14}", ""));

    let err = run.output.max_abs_diff(&mttkrp_reference(&x, &refs, 0));
    let messages = model::alg3_messages(&Problem::new(&[4, 6, 4], 2), &[2, 3, 2]);
    let sent: Vec<u64> = run.stats.iter().map(|st| st.messages_sent).collect();

    s.claim(
        format!("the assembled B^(1) matches the oracle within 1e-10 (max |diff| = {err:.2e})"),
        err < 1e-10,
    );
    s.claim(
        "the ledgers hold just (b), (c) and (e), whose factor rows total 36, 40 and 40 words: the tensor never moves",
        three_phases && sum == [36, 40, 40],
    );
    s.claim(
        "every rank sends sum_k (P/P_k - 1) = 13 messages, the bucket collectives' count",
        messages == 13 && sent.iter().all(|&m| m == messages),
    );
    s
}
