//! Property tests for the sharded runtime, generic over the transport:
//! across random shapes, rank counts, and grid factorizations — dividing
//! or not — over in-process channels *and* loopback TCP sockets, for
//! Algorithms 3 and 4 and the 1D matmul baseline —
//!
//! 1. `DistBackend` matches the sequential oracle to 1e-10 (and the
//!    simulator bitwise — same shards, same ring order, same kernel);
//! 2. each rank's measured sent/received word counts equal the netsim
//!    schedule prediction, collective by collective.

use mttkrp_core::{grid_opt, par, Problem};
use mttkrp_dist::{
    mttkrp_dist_general_on, mttkrp_dist_matmul_on, mttkrp_dist_stationary_on, DistBackend, DistRun,
    TransportKind,
};
use mttkrp_exec::{Backend, MachineSpec, Planner, SimBackend};
use mttkrp_netsim::schedule::{self, CommSchedule};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
use proptest::prelude::*;

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

/// The whole-backend property, shared by both transports: oracle within
/// 1e-10 always; for parallel plans, bitwise identity with the simulator
/// and per-collective schedule word-exactness.
fn backend_matches_oracle_and_sim(
    kind: TransportKind,
    dim_sel: &[usize],
    r: usize,
    seed: u64,
    ranks_exp: u32,
    mode_frac: f64,
) {
    // Dims are multiples of 2 up to 8; a one-rank machine plans
    // sequentially, which the backend must also handle.
    let dims: Vec<usize> = dim_sel.iter().map(|&s| 2 * s).collect();
    let mode = ((dims.len() - 1) as f64 * mode_frac) as usize;
    let ranks = 1usize << ranks_exp; // P ∈ {1, 2, 4, 8}
    let (x, factors) = build(&dims, r, seed);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(x.shape(), r);

    let plan =
        Planner::new(MachineSpec::cluster(ranks, 1, 1 << 14)).plan_executable(&problem, mode);
    let backend = DistBackend::with_transport(kind);
    let out = backend.run_instrumented(&plan, &x, &refs);

    // 1e-10 of the sequential oracle, always.
    let oracle = mttkrp_reference(&x, &refs, mode);
    assert!(
        out.report.output.max_abs_diff(&oracle) < 1e-10,
        "{kind:?}, P = {ranks}, dims {dims:?}, mode {mode}: diff {}",
        out.report.output.max_abs_diff(&oracle)
    );

    if !plan.algorithm.is_sequential() {
        // Bitwise identical to the simulator replaying the same plan.
        let sim = SimBackend::new().execute(&plan, &x, &refs);
        assert!(out.report.output.data() == sim.output.data());

        // Measured traffic == netsim prediction, collective by
        // collective, on every rank.
        let predicted = DistBackend::predicted_schedule(&plan).unwrap();
        assert_eq!(out.ledgers.len(), predicted.num_ranks());
        for (me, ledger) in out.ledgers.iter().enumerate() {
            assert!(
                ledger.matches(&predicted.ranks[me].phases),
                "{kind:?} rank {me}:\n{}",
                ledger.diff_table(&predicted.ranks[me].phases)
            );
        }
    }
}

/// The Algorithm 3 sweep body, shared by both transports: bitwise output
/// identity against the netsim run and `ledger == schedule` per
/// collective on a random factorization of `P` over the modes.
fn stationary_sweep(
    kind: TransportKind,
    mults: &[usize],
    r: usize,
    seed: u64,
    ranks_exp: u32,
    selector: u64,
    mode_frac: f64,
) {
    let grid = pick_grid(ranks_exp, mults.len(), selector);
    let dims: Vec<usize> = grid.iter().zip(mults).map(|(&g, &m)| g * m).collect();
    let mode = ((dims.len() - 1) as f64 * mode_frac) as usize;
    let (x, factors) = build(&dims, r, seed);
    let refs: Vec<&Matrix> = factors.iter().collect();

    let dist: DistRun = mttkrp_dist_stationary_on(kind, &x, &refs, mode, &grid);
    let sim = par::mttkrp_stationary(&x, &refs, mode, &grid);
    assert!(dist.output.data() == sim.output.data());
    assert_eq!(&dist.stats, &sim.stats);

    let predicted = schedule::alg3_schedule(&dims, r, mode, &grid);
    for (me, ledger) in dist.ledgers.iter().enumerate() {
        assert!(
            ledger.matches(&predicted.ranks[me].phases),
            "{kind:?} rank {me}:\n{}",
            ledger.diff_table(&predicted.ranks[me].phases)
        );
    }
    let oracle = mttkrp_reference(&x, &refs, mode);
    assert!(dist.output.max_abs_diff(&oracle) < 1e-10);
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

/// Every grid runs: Algorithm 3 on a random factorization of `p`, Algorithm
/// 4 on another and the matmul baseline on `p` ranks each match the
/// simulator bitwise, the schedule collective by collective, and the oracle
/// to 1e-10; and the planner plans distributed for every `p > 1`. Dims up to
/// 9 against `p` up to 16 and R up to 8 make `P_k > I_k` and `P_0 > R`
/// common: those ranks own nothing.
fn uneven_grids_run_exactly(
    kind: TransportKind,
    dims: &[usize],
    r: usize,
    p: usize,
    selector: u64,
    seed: u64,
    mode_frac: f64,
) {
    let mode = ((dims.len() - 1) as f64 * mode_frac) as usize;
    let (x, factors) = build(dims, r, seed);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let oracle = mttkrp_reference(&x, &refs, mode);
    let check = |what: &str, dist: DistRun, sim: DistRun, predicted: CommSchedule| {
        assert!(dist.output.data() == sim.output.data(), "{kind:?} {what}");
        assert_eq!(dist.ledgers.len(), predicted.num_ranks(), "{kind:?} {what}");
        for (me, ledger) in dist.ledgers.iter().enumerate() {
            let want = &predicted.ranks[me].phases[..];
            assert_eq!(ledger.phases(), want, "{kind:?} {what} rank {me}");
        }
        let diff = dist.output.max_abs_diff(&oracle);
        assert!(diff < 1e-10, "{kind:?} {what}: diff {diff}");
    };

    let grid = pick_factorization(p, dims.len(), selector);
    check(
        &format!("alg3 {grid:?}"),
        mttkrp_dist_stationary_on(kind, &x, &refs, mode, &grid),
        par::mttkrp_stationary(&x, &refs, mode, &grid),
        schedule::alg3_schedule(dims, r, mode, &grid),
    );
    let cut = pick_factorization(p, dims.len() + 1, selector / 7);
    let (p0, grid) = (cut[0], &cut[1..]);
    check(
        &format!("alg4 {p0}x{grid:?}"),
        mttkrp_dist_general_on(kind, &x, &refs, mode, p0, grid),
        par::mttkrp_general(&x, &refs, mode, p0, grid),
        schedule::alg4_schedule(dims, r, mode, p0, grid),
    );
    check(
        "matmul",
        mttkrp_dist_matmul_on(kind, &x, &refs, mode, p),
        par::mttkrp_par_matmul(&x, &refs, mode, p),
        schedule::par_matmul_schedule(dims, r, mode, p),
    );

    let problem = Problem::from_shape(x.shape(), r);
    let plan = Planner::new(MachineSpec::cluster(p, 1, 1 << 14)).plan_executable(&problem, mode);
    assert_eq!(plan.algorithm.is_sequential(), p == 1, "{}", plan.algorithm);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_grid_runs_exactly(
        dims in prop::collection::vec(1usize..=9, 3..=4),
        r in 1usize..=8,
        p in 1usize..=16,
        selector in 0u64..1_000_000,
        seed in 0u64..1000,
        mode_frac in 0.0f64..1.0,
    ) {
        uneven_grids_run_exactly(TransportKind::Channel, &dims, r, p, selector, seed, mode_frac);
    }

    #[test]
    fn every_grid_runs_exactly_over_tcp(
        dims in prop::collection::vec(1usize..=9, 3..=4),
        r in 1usize..=8,
        p in 1usize..=16,
        selector in 0u64..1_000_000,
        seed in 0u64..1000,
        mode_frac in 0.0f64..1.0,
    ) {
        uneven_grids_run_exactly(TransportKind::Tcp, &dims, r, p, selector, seed, mode_frac);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dist_backend_matches_oracle_and_sim_across_ranks(
        dim_sel in prop::collection::vec(1usize..5, 3..=4),
        r in 1usize..7,
        seed in 0u64..1000,
        ranks_exp in 0u32..4,
        mode_frac in 0.0f64..1.0,
    ) {
        backend_matches_oracle_and_sim(
            TransportKind::Channel, &dim_sel, r, seed, ranks_exp, mode_frac,
        );
    }

    #[test]
    fn dist_backend_matches_oracle_and_sim_over_tcp(
        dim_sel in prop::collection::vec(1usize..5, 3..=4),
        r in 1usize..7,
        seed in 0u64..1000,
        ranks_exp in 0u32..4,
        mode_frac in 0.0f64..1.0,
    ) {
        backend_matches_oracle_and_sim(
            TransportKind::Tcp, &dim_sel, r, seed, ranks_exp, mode_frac,
        );
    }

    #[test]
    fn stationary_matches_schedule_on_random_grids(
        mults in prop::collection::vec(1usize..4, 3..=3),
        r in 1usize..5,
        seed in 0u64..1000,
        ranks_exp in 0u32..4,
        selector in 0u64..10_000,
        mode_frac in 0.0f64..1.0,
    ) {
        stationary_sweep(
            TransportKind::Channel, &mults, r, seed, ranks_exp, selector, mode_frac,
        );
    }

    #[test]
    fn stationary_matches_schedule_on_random_grids_over_tcp(
        mults in prop::collection::vec(1usize..4, 3..=3),
        r in 1usize..5,
        seed in 0u64..1000,
        ranks_exp in 0u32..4,
        selector in 0u64..10_000,
        mode_frac in 0.0f64..1.0,
    ) {
        stationary_sweep(
            TransportKind::Tcp, &mults, r, seed, ranks_exp, selector, mode_frac,
        );
    }

    #[test]
    fn general_matches_schedule_on_random_grids(
        mults in prop::collection::vec(1usize..4, 3..=3),
        r_base in 1usize..4,
        seed in 0u64..1000,
        p0_exp in 0u32..3,
        grid_exp in 0u32..3,
        selector in 0u64..10_000,
        mode_frac in 0.0f64..1.0,
    ) {
        let p0 = 1usize << p0_exp;
        let r = r_base * p0; // P_0 divides R by construction
        let grid = pick_grid(grid_exp, mults.len(), selector);
        let dims: Vec<usize> = grid.iter().zip(&mults).map(|(&g, &m)| g * m).collect();
        let mode = ((dims.len() - 1) as f64 * mode_frac) as usize;
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();

        // Alternate fabrics across cases: Algorithm 4's four-collective
        // schedule runs the TCP codec on half the sweep at no extra cost.
        let kind = if seed % 2 == 0 { TransportKind::Channel } else { TransportKind::Tcp };
        let dist = mttkrp_dist_general_on(kind, &x, &refs, mode, p0, &grid);
        let sim = par::mttkrp_general(&x, &refs, mode, p0, &grid);
        prop_assert!(dist.output.data() == sim.output.data());
        prop_assert_eq!(&dist.stats, &sim.stats);

        let predicted = schedule::alg4_schedule(&dims, r, mode, p0, &grid);
        for (me, ledger) in dist.ledgers.iter().enumerate() {
            prop_assert!(
                ledger.matches(&predicted.ranks[me].phases),
                "{kind:?} rank {me}:\n{}",
                ledger.diff_table(&predicted.ranks[me].phases)
            );
        }
        let oracle = mttkrp_reference(&x, &refs, mode);
        prop_assert!(dist.output.max_abs_diff(&oracle) < 1e-10);
    }

    #[test]
    fn matmul_matches_schedule_on_random_shapes_over_tcp(
        mults in prop::collection::vec(1usize..4, 3..=4),
        r in 1usize..5,
        seed in 0u64..1000,
        ranks_exp in 0u32..4,
        mode_frac in 0.0f64..1.0,
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

        let dist = mttkrp_dist_matmul_on(TransportKind::Tcp, &x, &refs, mode, procs);
        let sim = par::mttkrp_par_matmul(&x, &refs, mode, procs);
        prop_assert!(dist.output.data() == sim.output.data());
        prop_assert_eq!(&dist.stats, &sim.stats);

        let predicted = schedule::par_matmul_schedule(&dims, r, mode, procs);
        for (me, (ledger, sim_ledger)) in dist.ledgers.iter().zip(&sim.ledgers).enumerate() {
            prop_assert!(
                ledger.matches(&predicted.ranks[me].phases),
                "tcp rank {me}:\n{}",
                ledger.diff_table(&predicted.ranks[me].phases)
            );
            prop_assert_eq!(ledger, sim_ledger);
        }
        let oracle = mttkrp_reference(&x, &refs, mode);
        prop_assert!(dist.output.max_abs_diff(&oracle) < 1e-10);
    }
}

/// The acceptance configuration, pinned as a plain test — once per
/// transport: a >= 4-rank dist run is bit-identical to the single-node
/// executor's result for the same plan, and its per-rank traffic equals
/// the netsim prediction.
#[test]
fn four_rank_run_is_bit_identical_and_word_exact() {
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        let (x, factors) = build(&[16, 16, 16], 8, 42);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = Problem::from_shape(x.shape(), 8);
        let machine = MachineSpec::cluster(4, 1, 1 << 16);
        let plan = Planner::new(machine.clone()).plan_executable(&problem, 0);
        assert!(!plan.algorithm.is_sequential(), "expected a parallel plan");

        // Single-node execution of the same plan (what plan_and_execute runs).
        let (single_plan, single) = mttkrp_exec::plan_and_execute(&machine, &x, &refs, 0);
        assert_eq!(single_plan.algorithm, plan.algorithm);

        let out = DistBackend::with_transport(kind).run_instrumented(&plan, &x, &refs);
        assert_eq!(
            out.report.output.data(),
            single.output.data(),
            "{kind:?}: dist output must be bit-identical to the single-node executor"
        );

        let predicted = DistBackend::predicted_schedule(&plan).unwrap();
        assert!(predicted.num_ranks() >= 4);
        for (me, ledger) in out.ledgers.iter().enumerate() {
            assert!(
                ledger.matches(&predicted.ranks[me].phases),
                "{kind:?}: rank {me} traffic deviates from the netsim schedule:\n{}",
                ledger.diff_table(&predicted.ranks[me].phases)
            );
            assert_eq!(ledger.totals(), predicted.ranks[me].totals());
        }
    }
}
