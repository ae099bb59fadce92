//! The *communication schedule* of the paper's parallel algorithms, as
//! data: which collectives each rank participates in, over which
//! communicator, and exactly how many words the bucket (ring) algorithms
//! of [`crate::collectives`] make it send and receive in each one.
//!
//! This is the contract every run of the algorithm meets, on any transport:
//! a run is faithful to the schedule iff its measured per-rank
//! [`crate::TrafficLedger`] equals the prediction collective by collective.
//!
//! The predictions are pure arithmetic — nothing is executed — derived
//! from the ring algorithms' structure:
//!
//! - **All-Gather** over blocks of sizes `w_0..w_{q-1}`: rank `i` forwards
//!   the blocks originating at `i, i-1, ..., i-(q-2)` (all but block
//!   `i+1`), and receives every block but its own. So
//!   `sent = total - w_{i+1 mod q}`, `received = total - w_i`, in `q - 1`
//!   messages each way.
//! - **Reduce-Scatter** over segments `w_0..w_{q-1}`: rank `i` forwards
//!   partials of every segment but `i` and receives partials of every
//!   segment but `i - 1`. So `sent = total - w_i`,
//!   `received = total - w_{i-1 mod q}`, in `q - 1` messages each way.
//!
//! Both collapse to `(q - 1) * w` each way for balanced blocks — the
//! bandwidth-optimal bucket cost the paper assumes (Section V-C3).

use crate::grid::ProcessorGrid;
use crate::stats::CommStats;

// ---------------------------------------------------------------------------
// Block distributions
// ---------------------------------------------------------------------------

/// Half-open sub-range `idx` of `[0, len)` split into `parts` contiguous
/// pieces as evenly as possible (the first `len % parts` pieces get one
/// extra element). This is the block distribution every data layout in the
/// workspace uses — the canonical definition lives here so the simulator,
/// the schedule predictions, and the real runtimes all split identically.
///
/// # Panics
/// Panics if `parts == 0` or `idx >= parts`.
pub fn split_range(len: usize, parts: usize, idx: usize) -> (usize, usize) {
    assert!(parts > 0 && idx < parts, "bad split {idx}/{parts}");
    let base = len / parts;
    let rem = len % parts;
    let start = idx * base + idx.min(rem);
    let size = base + usize::from(idx < rem);
    (start, start + size)
}

/// The length of piece `idx` of `split_range(len, parts, idx)`.
fn split_len(len: usize, parts: usize, idx: usize) -> usize {
    let (a, b) = split_range(len, parts, idx);
    b - a
}

/// The sizes of all pieces of `split_range(len, parts, _)`.
pub fn split_sizes(len: usize, parts: usize) -> Vec<usize> {
    (0..parts).map(|i| split_len(len, parts, i)).collect()
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// One collective in an algorithm's communication schedule, named by its
/// role (the line of the paper's pseudocode it implements).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Algorithm 4 Line 3: All-Gather of the subtensor across the
    /// rank-dimension fiber.
    TensorAllGather,
    /// Algorithm 3 Line 4 / Algorithm 4 Line 5: All-Gather of the mode-`k`
    /// factor chunks.
    FactorAllGather {
        /// The tensor mode `k` whose factor block is gathered.
        mode: usize,
    },
    /// Algorithm 3 Line 7 / Algorithm 4 Line 8 / the matmul baseline's
    /// final step: Reduce-Scatter of the output contributions.
    OutputReduceScatter,
    /// Traffic no schedule predicts: what a [`crate::SimMachine`] program
    /// moves (Section VII's all-modes MTTKRP, CP-ALS's all-reduces, tests).
    Unscheduled,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::TensorAllGather => write!(f, "all-gather(tensor)"),
            Phase::FactorAllGather { mode } => write!(f, "all-gather(A^({mode}))"),
            Phase::OutputReduceScatter => write!(f, "reduce-scatter(B)"),
            Phase::Unscheduled => write!(f, "unscheduled"),
        }
    }
}

/// Predicted traffic of one rank in one collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseTraffic {
    /// Which collective.
    pub phase: Phase,
    /// Words this rank sends in it.
    pub words_sent: u64,
    /// Words this rank receives in it.
    pub words_received: u64,
    /// Point-to-point messages this rank sends in it (`q - 1` for a ring
    /// collective over `q > 1` ranks, `0` for a singleton).
    pub messages_sent: u64,
}

/// The full predicted schedule of one rank: its collectives in execution
/// order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankSchedule {
    /// World rank.
    rank: usize,
    /// Collectives in the order the rank executes them.
    pub phases: Vec<PhaseTraffic>,
}

/// Sums a sequence of per-collective records into one [`CommStats`] — the
/// single definition used by both the schedule predictions here and the
/// transports' measured [`crate::TrafficLedger`]s, so predicted and measured
/// totals can never drift in how they aggregate.
pub(crate) fn sum_phase_traffic(phases: &[PhaseTraffic]) -> CommStats {
    let mut s = CommStats::default();
    for p in phases {
        s.words_sent += p.words_sent;
        s.words_received += p.words_received;
        s.messages_sent += p.messages_sent;
    }
    s
}

impl RankSchedule {
    /// Sum of this rank's per-phase traffic.
    pub fn totals(&self) -> CommStats {
        sum_phase_traffic(&self.phases)
    }
}

/// The predicted communication schedule of a parallel MTTKRP: one
/// [`RankSchedule`] per world rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommSchedule {
    /// Per-rank schedules, indexed by world rank.
    pub ranks: Vec<RankSchedule>,
}

impl CommSchedule {
    /// Number of ranks in the schedule.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }
}

// ---------------------------------------------------------------------------
// Ring-collective predictions
// ---------------------------------------------------------------------------

/// Predicted traffic of local rank `me` in a ring All-Gather over blocks of
/// the given sizes (in words).
pub(crate) fn all_gather_traffic(phase: Phase, sizes: &[usize], me: usize) -> PhaseTraffic {
    let q = sizes.len();
    assert!(me < q, "local rank out of range");
    if q == 1 {
        return PhaseTraffic {
            phase,
            words_sent: 0,
            words_received: 0,
            messages_sent: 0,
        };
    }
    let total: usize = sizes.iter().sum();
    PhaseTraffic {
        phase,
        words_sent: (total - sizes[(me + 1) % q]) as u64,
        words_received: (total - sizes[me]) as u64,
        messages_sent: (q - 1) as u64,
    }
}

/// Predicted traffic of local rank `me` in a ring Reduce-Scatter over
/// segments of the given sizes (in words).
pub(crate) fn reduce_scatter_traffic(phase: Phase, sizes: &[usize], me: usize) -> PhaseTraffic {
    let q = sizes.len();
    assert!(me < q, "local rank out of range");
    if q == 1 {
        return PhaseTraffic {
            phase,
            words_sent: 0,
            words_received: 0,
            messages_sent: 0,
        };
    }
    let total: usize = sizes.iter().sum();
    PhaseTraffic {
        phase,
        words_sent: (total - sizes[me]) as u64,
        words_received: (total - sizes[(me + q - 1) % q]) as u64,
        messages_sent: (q - 1) as u64,
    }
}

// ---------------------------------------------------------------------------
// Algorithm schedules
// ---------------------------------------------------------------------------

/// Asserts the grid precondition shared by the schedule predictions, the
/// simulator runs, and the rank sharders: one grid extent per mode, each at
/// least 1. Any extent is accepted — mode `k` is cut into `P_k` blocks by
/// [`split_range`], and a block is empty where `P_k > I_k`. Public so every
/// layer validates identically.
pub fn check_grid(dims: &[usize], grid: &[usize]) {
    assert_eq!(grid.len(), dims.len(), "need one grid dimension per mode");
    assert!(
        grid.iter().all(|&g| g >= 1),
        "grid extents must be at least 1"
    );
}

/// The schedule of Algorithm 3 (parallel stationary MTTKRP) for output mode
/// `mode` on the `N`-way grid `grid`. Rank `p` owns the block rows
/// `split_range(I_k, P_k, p_k)` of mode `k`.
///
/// Per rank, in execution order: one `FactorAllGather { mode: k }` over the
/// mode-`k` hyperslice for every `k != mode` (ascending `k`), then one
/// `OutputReduceScatter` over the mode-`mode` hyperslice.
pub fn alg3_schedule(dims: &[usize], r: usize, mode: usize, grid: &[usize]) -> CommSchedule {
    check_grid(dims, grid);
    assert!(mode < dims.len(), "mode out of range");
    let pgrid = ProcessorGrid::new(grid);
    let ranks = (0..pgrid.num_ranks())
        .map(|me| {
            let coords = pgrid.coords(me);
            let mut phases = Vec::with_capacity(dims.len());
            for (k, (&ik, &pk)) in dims.iter().zip(grid).enumerate() {
                let comm = pgrid.hyperslice_comm(me, k);
                let my_idx = comm.local_index(me).expect("member of own hyperslice");
                let block_rows = split_len(ik, pk, coords[k]);
                let sizes: Vec<usize> = split_sizes(block_rows, comm.size())
                    .into_iter()
                    .map(|rows| rows * r)
                    .collect();
                phases.push(if k == mode {
                    reduce_scatter_traffic(Phase::OutputReduceScatter, &sizes, my_idx)
                } else {
                    all_gather_traffic(Phase::FactorAllGather { mode: k }, &sizes, my_idx)
                });
            }
            // Execution order: all-gathers for k != mode ascending, then the
            // reduce-scatter last.
            let rs = phases.remove(mode);
            phases.push(rs);
            RankSchedule { rank: me, phases }
        })
        .collect();
    CommSchedule { ranks }
}

/// The schedule of Algorithm 4 (parallel general MTTKRP) for output mode
/// `mode`, rank-dimension cut `p0` and mode grid `grid`; total ranks
/// `p0 * prod(grid)`. Rank `p` owns the columns `split_range(R, P_0, p_0)`
/// and the block rows `split_range(I_k, P_k, p_k)` of mode `k`.
///
/// Per rank, in execution order: `TensorAllGather` over the rank-dimension
/// fiber, one `FactorAllGather { mode: k }` for every `k != mode`
/// (ascending), then `OutputReduceScatter`.
pub fn alg4_schedule(
    dims: &[usize],
    r: usize,
    mode: usize,
    p0: usize,
    grid: &[usize],
) -> CommSchedule {
    check_grid(dims, grid);
    assert!(mode < dims.len(), "mode out of range");
    assert!(p0 >= 1, "P_0 must be at least 1");
    let order = dims.len();
    let mut gdims = Vec::with_capacity(order + 1);
    gdims.push(p0);
    gdims.extend_from_slice(grid);
    let pgrid = ProcessorGrid::new(&gdims);

    let ranks = (0..pgrid.num_ranks())
        .map(|me| {
            let coords = pgrid.coords(me);
            let cols = split_len(r, p0, coords[0]);
            let block_rows: Vec<usize> = (0..order)
                .map(|k| split_len(dims[k], grid[k], coords[k + 1]))
                .collect();
            let sub_len: usize = block_rows.iter().product();
            let mut phases = Vec::with_capacity(order + 1);
            // Line 3: subtensor all-gather across the dimension-0 fiber.
            let fiber = pgrid.fiber_comm(me, 0);
            let my_fiber_idx = fiber.local_index(me).expect("member of own fiber");
            let sizes = split_sizes(sub_len, fiber.size());
            phases.push(all_gather_traffic(
                Phase::TensorAllGather,
                &sizes,
                my_fiber_idx,
            ));
            // Lines 5 and 8: factor all-gathers and the output
            // reduce-scatter over {p' : p'_0 = p_0, p'_k = p_k}.
            for (k, &rows_k) in block_rows.iter().enumerate() {
                let varying: Vec<usize> = (0..=order).filter(|&j| j != 0 && j != k + 1).collect();
                let comm = pgrid.slice_comm(me, &varying);
                let my_idx = comm.local_index(me).expect("member of own slice");
                let sizes: Vec<usize> = split_sizes(rows_k, comm.size())
                    .into_iter()
                    .map(|rows| rows * cols)
                    .collect();
                phases.push(if k == mode {
                    reduce_scatter_traffic(Phase::OutputReduceScatter, &sizes, my_idx)
                } else {
                    all_gather_traffic(Phase::FactorAllGather { mode: k }, &sizes, my_idx)
                });
            }
            // Execution order: tensor gather, factor gathers ascending,
            // reduce-scatter last (phases[0] is the tensor gather; the mode
            // entry sits at offset mode + 1).
            let rs = phases.remove(mode + 1);
            phases.push(rs);
            RankSchedule { rank: me, phases }
        })
        .collect();
    CommSchedule { ranks }
}

/// The schedule of the 1D parallel matmul baseline for output mode `mode`
/// on `procs` ranks: a single `OutputReduceScatter` of the `I_mode x R`
/// partial products over the world communicator.
pub fn par_matmul_schedule(dims: &[usize], r: usize, mode: usize, procs: usize) -> CommSchedule {
    assert!(mode < dims.len(), "mode out of range");
    assert!(procs >= 1, "need at least one processor");
    let sizes: Vec<usize> = split_sizes(dims[mode], procs)
        .into_iter()
        .map(|rows| rows * r)
        .collect();
    let ranks = (0..procs)
        .map(|me| RankSchedule {
            rank: me,
            phases: vec![reduce_scatter_traffic(
                Phase::OutputReduceScatter,
                &sizes,
                me,
            )],
        })
        .collect();
    CommSchedule { ranks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives;
    use crate::machine::SimMachine;
    use crate::transport::PeerExchange;

    // -- block splits (moved here from mttkrp-core, which re-exports) ------

    #[test]
    fn even_split() {
        assert_eq!(split_range(12, 4, 0), (0, 3));
        assert_eq!(split_range(12, 4, 3), (9, 12));
    }

    #[test]
    fn uneven_split_front_loaded() {
        // 10 into 4: sizes 3,3,2,2.
        assert_eq!(split_sizes(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_range(10, 4, 1), (3, 6));
        assert_eq!(split_range(10, 4, 2), (6, 8));
    }

    #[test]
    fn pieces_partition_the_range() {
        for len in 0..20 {
            for parts in 1..8 {
                let mut covered = 0;
                for i in 0..parts {
                    let (a, b) = split_range(len, parts, i);
                    assert_eq!(a, covered);
                    covered = b;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn more_parts_than_elements_gives_empty_tails() {
        assert_eq!(split_sizes(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(split_range(2, 4, 3), (2, 2));
    }

    #[test]
    #[should_panic]
    fn bad_index_panics() {
        let _ = split_range(5, 2, 2);
    }

    // -- ring predictions vs. measured collectives -------------------------

    #[test]
    fn all_gather_prediction_matches_measurement_uneven() {
        let sizes = [3usize, 1, 4, 2];
        let p = sizes.len();
        let res = SimMachine::new(p).run(|rank| {
            let world = rank.world();
            let me = rank.world_rank();
            let local = vec![me as f64; sizes[me]];
            collectives::all_gather(rank, &world, &local)
        });
        for me in 0..p {
            let predicted = all_gather_traffic(Phase::TensorAllGather, &sizes, me);
            assert_eq!(res.stats[me].words_sent, predicted.words_sent, "rank {me}");
            assert_eq!(res.stats[me].words_received, predicted.words_received);
            assert_eq!(res.stats[me].messages_sent, predicted.messages_sent);
        }
    }

    #[test]
    fn reduce_scatter_prediction_matches_measurement_uneven() {
        let sizes = [2usize, 5, 1];
        let p = sizes.len();
        let res = SimMachine::new(p).run(|rank| {
            let world = rank.world();
            let total: usize = sizes.iter().sum();
            let data = vec![1.0; total];
            collectives::reduce_scatter(rank, &world, &data, &sizes)
        });
        for me in 0..p {
            let predicted = reduce_scatter_traffic(Phase::OutputReduceScatter, &sizes, me);
            assert_eq!(res.stats[me].words_sent, predicted.words_sent, "rank {me}");
            assert_eq!(res.stats[me].words_received, predicted.words_received);
            assert_eq!(res.stats[me].messages_sent, predicted.messages_sent);
        }
    }

    #[test]
    fn singleton_collectives_are_free() {
        let ag = all_gather_traffic(Phase::TensorAllGather, &[7], 0);
        let rs = reduce_scatter_traffic(Phase::OutputReduceScatter, &[7], 0);
        for t in [ag, rs] {
            assert_eq!(t.words_sent, 0);
            assert_eq!(t.words_received, 0);
            assert_eq!(t.messages_sent, 0);
        }
    }

    // -- algorithm schedules ----------------------------------------------

    #[test]
    fn alg3_schedule_matches_eq14_balanced() {
        // dims 8^3, R = 4, grid 2x2x2: every collective is balanced, so
        // each rank's total is Eq. (14) = 36 words each way.
        let s = alg3_schedule(&[8, 8, 8], 4, 1, &[2, 2, 2]);
        assert_eq!(s.num_ranks(), 8);
        for rs in &s.ranks {
            assert_eq!(rs.phases.len(), 3);
            assert_eq!(rs.phases[0].phase, Phase::FactorAllGather { mode: 0 });
            assert_eq!(rs.phases[1].phase, Phase::FactorAllGather { mode: 2 });
            assert_eq!(rs.phases[2].phase, Phase::OutputReduceScatter);
            let t = rs.totals();
            assert_eq!(t.words_sent, 36);
            assert_eq!(t.words_received, 36);
        }
    }

    #[test]
    fn alg4_schedule_reduces_to_alg3_at_p0_1() {
        let dims = [8usize, 4, 8];
        let grid = [2usize, 1, 2];
        let a3 = alg3_schedule(&dims, 6, 0, &grid);
        let a4 = alg4_schedule(&dims, 6, 0, 1, &grid);
        assert_eq!(a3.num_ranks(), a4.num_ranks());
        for (r3, r4) in a3.ranks.iter().zip(&a4.ranks) {
            // Alg 4 has the extra (free) tensor all-gather up front.
            assert_eq!(r4.phases[0].phase, Phase::TensorAllGather);
            assert_eq!(r4.phases[0].words_sent, 0);
            assert_eq!(r3.phases[..], r4.phases[1..]);
        }
    }

    #[test]
    fn alg4_schedule_matches_eq18_balanced() {
        // dims 8^3, R = 8, P0 = 2, grid 2x2x2 (P = 16): tensor term
        // (P0-1) * I/P = 32; factor terms (4-1)*4 = 12 each (k != n), and
        // the reduce-scatter also 12 — Eq. (18) = 68 per rank each way.
        let s = alg4_schedule(&[8, 8, 8], 8, 0, 2, &[2, 2, 2]);
        assert_eq!(s.num_ranks(), 16);
        for rs in &s.ranks {
            let t = rs.totals();
            assert_eq!(t.words_sent, 68, "rank {}", rs.rank);
            assert_eq!(t.words_received, 68);
        }
    }

    #[test]
    fn par_matmul_schedule_is_flat_in_p() {
        // (1 - 1/P) * I_n * R each way.
        for procs in [2usize, 4, 8] {
            let s = par_matmul_schedule(&[8, 8, 8], 4, 0, procs);
            let expect = (8 * 4 / procs * (procs - 1)) as u64;
            for rs in &s.ranks {
                assert_eq!(rs.totals().words_received, expect);
            }
        }
    }

    #[test]
    fn uneven_grid_counts_each_ranks_blocks() {
        // I_0 = 5 on P_0 = 2: blocks of 3 and 2 rows, cut 1/1/1/0 and
        // 1/1/0/0 over each 4-rank hyperslice; modes 1 and 2 cut 2 rows
        // 1/1/0/0. Rank 6 = (0, 1, 1) is index 2 of both gathers (total 4,
        // own 0, next 0) and index 3 of the reduce-scatter (total 6, own 0,
        // previous 2).
        let s = alg3_schedule(&[5, 4, 4], 2, 0, &[2, 2, 2]);
        let words: Vec<(u64, u64)> = s
            .ranks
            .iter()
            .map(|rs| rs.totals())
            .map(|t| (t.words_sent, t.words_received))
            .collect();
        let expect = [
            (8, 10),
            (10, 8),
            (10, 10),
            (8, 8),
            (10, 10),
            (10, 8),
            (14, 12),
            (8, 12),
        ];
        assert_eq!(words, expect);
        let rank6: Vec<(u64, u64)> = s.ranks[6]
            .phases
            .iter()
            .map(|t| (t.words_sent, t.words_received))
            .collect();
        assert_eq!(rank6, [(4, 4), (4, 4), (6, 4)]);
    }
}
