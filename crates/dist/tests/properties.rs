//! Property tests for the sharded runtime over loopback TCP: across random
//! shapes, rank counts, and grid factorizations — dividing or not — for
//! Algorithms 3 and 4 and the 1D matmul baseline, a `DistBackend` run on a
//! TCP machine
//!
//! 1. equals the same plan run over in-process channels bit for bit — its
//!    output and every rank's ledger — and the sequential oracle to 1e-10;
//! 2. moves on every rank the words the netsim schedule predicts,
//!    collective by collective.

use mttkrp_core::{grid_opt, Problem};
use mttkrp_dist::{DistBackend, DistReport};
use mttkrp_exec::{Algorithm, Backend, MachineSpec, Plan, Planner, SimBackend, TransportSpec};
use mttkrp_netsim::schedule::CommSchedule;
use mttkrp_netsim::TrafficLedger;
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
use proptest::prelude::*;

fn build(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    let factor = |(k, &d): (usize, &usize)| Matrix::random(d, r, seed ^ ((k as u64 + 1) * 7919));
    (
        DenseTensor::random(Shape::new(dims), seed),
        dims.iter().enumerate().map(factor).collect(),
    )
}

/// Each rank's measured ledger equals its predicted phases, collective by
/// collective.
fn assert_on_schedule(ledgers: &[TrafficLedger], predicted: &CommSchedule, what: &str) {
    assert_eq!(ledgers.len(), predicted.num_ranks(), "{what}");
    for (me, (ledger, rank)) in ledgers.iter().zip(&predicted.ranks).enumerate() {
        let table = ledger.diff_table(&rank.phases);
        assert!(ledger.matches(&rank.phases), "{what} rank {me}:\n{table}");
    }
}

/// Distributes `p = 2^exp` ranks over `order` grid dimensions using the
/// selector digits, returning a grid whose product is `p`.
fn pick_grid(mut exp: u32, order: usize, selector: u64) -> Vec<usize> {
    let mut grid = vec![1usize; order];
    let mut sel = selector;
    while exp > 0 {
        grid[(sel % order as u64) as usize] *= 2;
        sel = sel / order as u64 + 1;
        exp -= 1;
    }
    grid
}

/// Ordered factorization number `selector` (mod their count) of `p` into
/// `parts` factors.
fn pick_factorization(p: usize, parts: usize, selector: u64) -> Vec<usize> {
    let all = grid_opt::factorizations(p as u64, parts);
    all[(selector % all.len() as u64) as usize]
        .iter()
        .map(|&f| f as usize)
        .collect()
}

/// A `p`-rank machine whose ranks talk over loopback TCP.
fn tcp_cluster(p: usize) -> MachineSpec {
    MachineSpec::cluster(p, 1, 1 << 14).with_transport(TransportSpec::Tcp)
}

/// The plan for `x`'s rank-`r` problem at output mode `mode` on a `p`-rank
/// TCP machine, pinned to `algorithm`.
fn tcp_plan(x: &DenseTensor, r: usize, mode: usize, p: usize, algorithm: Algorithm) -> Plan {
    let problem = Problem::from_shape(x.shape(), r);
    let mut plan = Planner::new(tcp_cluster(p)).plan_executable(&problem, mode);
    plan.algorithm = algorithm;
    plan
}

/// Runs `plan`, whose machine is a TCP one, and the same plan on an
/// in-process machine, both through `DistBackend`. Loopback TCP must
/// reproduce the channel run bit for bit, ledgers included, every rank's
/// ledger must match the schedule collective by collective, and the output
/// must be within 1e-10 of `oracle`. Returns the TCP run.
fn tcp_matches_channel(
    plan: &Plan,
    x: &DenseTensor,
    refs: &[&Matrix],
    oracle: &Matrix,
    what: &str,
) -> DistReport {
    assert_eq!(plan.machine.transport, TransportSpec::Tcp, "{what}");
    let tcp = DistBackend::new().run_instrumented(plan, x, refs);
    let mut chan_plan = plan.clone();
    chan_plan.machine.transport = TransportSpec::InProcess;
    let chan = DistBackend::new().run_instrumented(&chan_plan, x, refs);
    assert!(
        tcp.report.output.data() == chan.report.output.data(),
        "{what}: output"
    );
    assert_eq!(tcp.ledgers, chan.ledgers, "{what}: ledgers");
    if let Some(predicted) = DistBackend::predicted_schedule(plan) {
        assert_on_schedule(&tcp.ledgers, &predicted, what);
    }
    let diff = tcp.report.output.max_abs_diff(oracle);
    assert!(diff < 1e-10, "{what}: diff {diff}");
    tcp
}

/// `proptest!` for one property under two test names, `cases` split evenly
/// between them: the RNG is seeded per name, so each half draws its own inputs.
macro_rules! proptest_halves {
    (cases: $cases:expr, $(#[$doc:meta])* fn $a:ident | $b:ident $args:tt $body:block) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases / 2))]
            $(#[$doc])* #[test] fn $a $args $body
            $(#[$doc])* #[test] fn $b $args $body
        }
    };
}

proptest_halves! {
    cases: 64,
    /// Every grid runs: Algorithm 3 on a random factorization of `p`,
    /// Algorithm 4 on another and the matmul baseline on `p` ranks; and the
    /// planner plans distributed for every `p > 1`. Dims up to 9 against
    /// `p` up to 16 and R up to 8 make `P_k > I_k` and `P_0 > R` common:
    /// those ranks own nothing.
    fn every_grid_runs_exactly | every_grid_runs_exactly_over_tcp(
        dims in prop::collection::vec(1usize..=9, 3..=4), r in 1usize..=8, p in 1usize..=16,
        selector in 0u64..1_000_000, seed in 0u64..1000, mode_frac in 0.0f64..1.0,
    ) {
        let mode = ((dims.len() - 1) as f64 * mode_frac) as usize;
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let oracle = mttkrp_reference(&x, &refs, mode);
        let cut = pick_factorization(p, dims.len() + 1, selector / 7);
        for algorithm in [
            Algorithm::ParStationary { grid: pick_factorization(p, dims.len(), selector) },
            Algorithm::ParGeneral { p0: cut[0], grid: cut[1..].to_vec() },
            Algorithm::ParMatmul { procs: p },
        ] {
            let what = format!("{algorithm}, dims {dims:?}, mode {mode}");
            tcp_matches_channel(&tcp_plan(&x, r, mode, p, algorithm), &x, &refs, &oracle, &what);
        }

        let problem = Problem::from_shape(x.shape(), r);
        let plan = Planner::new(tcp_cluster(p)).plan_executable(&problem, mode);
        prop_assert_eq!(plan.algorithm.is_sequential(), p == 1, "{}", plan.algorithm);
    }
}

proptest_halves! {
    cases: 32,
    /// The whole backend on the plan the planner picks for `P ∈ {1, 2, 4,
    /// 8}`: a one-rank machine plans sequentially, which the backend must
    /// also handle; a parallel plan also matches the simulator bitwise.
    fn dist_backend_matches_oracle_and_sim_across_ranks
        | dist_backend_matches_oracle_and_sim_over_tcp(
        dim_sel in prop::collection::vec(1usize..5, 3..=4), r in 1usize..7, seed in 0u64..1000,
        ranks_exp in 0u32..4, mode_frac in 0.0f64..1.0,
    ) {
        // Dims are multiples of 2 up to 8.
        let dims: Vec<usize> = dim_sel.iter().map(|&s| 2 * s).collect();
        let mode = ((dims.len() - 1) as f64 * mode_frac) as usize;
        let ranks = 1usize << ranks_exp;
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let oracle = mttkrp_reference(&x, &refs, mode);
        let problem = Problem::from_shape(x.shape(), r);
        let plan = Planner::new(tcp_cluster(ranks)).plan_executable(&problem, mode);

        let what = format!("P = {ranks}, dims {dims:?}, mode {mode}");
        let out = tcp_matches_channel(&plan, &x, &refs, &oracle, &what);
        if !plan.algorithm.is_sequential() {
            let sim = SimBackend::new().execute(&plan, &x, &refs);
            prop_assert!(out.report.output.data() == sim.output.data(), "{what}");
        }
    }
}

proptest_halves! {
    cases: 32,
    fn stationary_matches_schedule_on_random_grids
        | stationary_matches_schedule_on_random_grids_over_tcp(
        mults in prop::collection::vec(1usize..4, 3..=3), r in 1usize..5, seed in 0u64..1000,
        ranks_exp in 0u32..4, selector in 0u64..10_000, mode_frac in 0.0f64..1.0,
    ) {
        let grid = pick_grid(ranks_exp, mults.len(), selector);
        let dims: Vec<usize> = grid.iter().zip(&mults).map(|(&g, &m)| g * m).collect();
        let mode = ((dims.len() - 1) as f64 * mode_frac) as usize;
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let oracle = mttkrp_reference(&x, &refs, mode);

        let what = format!("grid {grid:?}, dims {dims:?}, mode {mode}");
        let plan = tcp_plan(&x, r, mode, 1 << ranks_exp, Algorithm::ParStationary { grid });
        tcp_matches_channel(&plan, &x, &refs, &oracle, &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn general_matches_schedule_on_random_grids(
        mults in prop::collection::vec(1usize..4, 3..=3), r_base in 1usize..4, seed in 0u64..1000,
        p0_exp in 0u32..3, grid_exp in 0u32..3, selector in 0u64..10_000, mode_frac in 0.0f64..1.0,
    ) {
        let p0 = 1usize << p0_exp;
        let r = r_base * p0; // P_0 divides R by construction
        let grid = pick_grid(grid_exp, mults.len(), selector);
        let dims: Vec<usize> = grid.iter().zip(&mults).map(|(&g, &m)| g * m).collect();
        let mode = ((dims.len() - 1) as f64 * mode_frac) as usize;
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let oracle = mttkrp_reference(&x, &refs, mode);

        let what = format!("{p0}x{grid:?}, dims {dims:?}, mode {mode}");
        let p = p0 << grid_exp;
        let plan = tcp_plan(&x, r, mode, p, Algorithm::ParGeneral { p0, grid });
        tcp_matches_channel(&plan, &x, &refs, &oracle, &what);
    }

    #[test]
    fn matmul_matches_schedule_on_random_shapes_over_tcp(
        mults in prop::collection::vec(1usize..4, 3..=4), r in 1usize..5, seed in 0u64..1000,
        ranks_exp in 0u32..4, mode_frac in 0.0f64..1.0,
    ) {
        // The slab mode (the last mode other than the output's) takes a
        // multiple of P, so P divides it.
        let procs = 1usize << ranks_exp;
        let mode = ((mults.len() - 1) as f64 * mode_frac) as usize;
        let slab = (0..mults.len()).rev().find(|&k| k != mode).unwrap();
        let dims: Vec<usize> = mults
            .iter()
            .enumerate()
            .map(|(k, &m)| if k == slab { m * procs } else { m })
            .collect();
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let oracle = mttkrp_reference(&x, &refs, mode);

        let what = format!("P = {procs}, dims {dims:?}, mode {mode}");
        let plan = tcp_plan(&x, r, mode, procs, Algorithm::ParMatmul { procs });
        tcp_matches_channel(&plan, &x, &refs, &oracle, &what);
    }
}

/// The acceptance configuration, pinned as a plain test: a 4-rank run over
/// loopback TCP is bit-identical to the single-node executor's result for
/// the same plan, and its per-rank traffic equals the netsim prediction.
#[test]
fn four_rank_run_is_bit_identical_and_word_exact() {
    let (x, factors) = build(&[16, 16, 16], 8, 42);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(x.shape(), 8);
    let machine = MachineSpec::cluster(4, 1, 1 << 16);
    let plan = Planner::new(machine.clone().with_transport(TransportSpec::Tcp))
        .plan_executable(&problem, 0);
    assert!(!plan.algorithm.is_sequential(), "expected a parallel plan");

    // Single-node execution of the same plan (what plan_and_execute runs).
    let (single_plan, single) = mttkrp_exec::plan_and_execute(&machine, &x, &refs, 0);
    assert_eq!(single_plan.algorithm, plan.algorithm);

    let oracle = mttkrp_reference(&x, &refs, 0);
    let out = tcp_matches_channel(&plan, &x, &refs, &oracle, "P = 4");
    assert_eq!(
        out.report.output.data(),
        single.output.data(),
        "dist output must be bit-identical to the single-node executor"
    );
    let predicted = DistBackend::predicted_schedule(&plan).unwrap();
    assert!(predicted.num_ranks() >= 4);
    for (ledger, rank) in out.ledgers.iter().zip(&predicted.ranks) {
        assert_eq!(ledger.totals(), rank.totals());
    }
}
