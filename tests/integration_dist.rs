//! Cross-crate integration: the sharded multi-rank runtime against the
//! whole stack — planner, simulator, native executor, and the netsim
//! schedule predictions.

use mttkrp_core::Problem;
use mttkrp_dist::DistBackend;
use mttkrp_exec::{
    plan_and_execute, Backend, ExecCost, MachineSpec, Planner, SimBackend, TransportSpec,
    DEFAULT_CACHE_WORDS,
};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};

fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    let shape = Shape::new(dims);
    let x = DenseTensor::random(shape.clone(), seed);
    let factors = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, r, seed + 300 + k as u64))
        .collect();
    (x, factors)
}

/// The acceptance criterion, end to end: a >= 4-rank dist run over
/// loopback TCP is bit-identical to the single-node executor over channels
/// and word-exact against the netsim prediction, for every output mode.
#[test]
fn dist_run_is_bit_identical_and_word_exact_all_modes() {
    let (x, factors) = setup(&[16, 16, 16], 16, 5);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(x.shape(), 16);
    let machine = MachineSpec::cluster(8, 1, 1 << 16);
    let tcp = machine.clone().with_transport(TransportSpec::Tcp);
    for mode in 0..3 {
        let plan = Planner::new(tcp.clone()).plan_executable(&problem, mode);
        assert!(!plan.algorithm.is_sequential(), "mode {mode}");

        let out = DistBackend::new().run_instrumented(&plan, &x, &refs);
        let (_, single) = plan_and_execute(&machine, &x, &refs, mode);
        assert_eq!(
            out.report.output.data(),
            single.output.data(),
            "mode {mode}: dist over TCP differs from the single-node executor"
        );

        let predicted = DistBackend::predicted_schedule(&plan).unwrap();
        for (me, ledger) in out.ledgers.iter().enumerate() {
            assert_eq!(
                ledger.phases(),
                &predicted.ranks[me].phases[..],
                "mode {mode} rank {me}"
            );
        }

        let oracle = mttkrp_reference(&x, &refs, mode);
        assert!(out.report.output.max_abs_diff(&oracle) < 1e-10);
    }
}

/// The dist backend's reported cost over loopback TCP agrees with the
/// simulator's for the same plan: the words the socket transport charged
/// are the words the channel fabric charged.
#[test]
fn dist_cost_agrees_with_sim_cost() {
    let (x, factors) = setup(&[8, 8, 8], 8, 6);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(x.shape(), 8);
    let machine =
        MachineSpec::cluster(8, 1, DEFAULT_CACHE_WORDS).with_transport(TransportSpec::Tcp);
    let plan = Planner::new(machine).plan_executable(&problem, 1);
    let dist = DistBackend::new().execute(&plan, &x, &refs);
    let sim = SimBackend::new().execute(&plan, &x, &refs);
    let words = |cost: &ExecCost| match *cost {
        ExecCost::ParComm {
            max_recv_words,
            max_sent_words,
            total_words,
            ranks,
        } => (max_recv_words, max_sent_words, total_words, ranks),
        ref other => panic!("expected ParComm costs, got {other:?}"),
    };
    assert_eq!(words(&dist.cost), words(&sim.cost));
}

/// A prime rank count larger than every mode and the rank still gets a
/// distributed plan: blocks are `split_range` pieces, some of them empty,
/// and their ranks join every collective with zero-word blocks.
#[test]
fn dist_backend_runs_idle_ranks_on_a_prime_rank_count() {
    let (x, factors) = setup(&[7, 5, 11], 5, 7);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(x.shape(), 5);
    let plan = Planner::new(MachineSpec::cluster(13, 1, 1 << 12)).plan_executable(&problem, 0);
    assert!(!plan.algorithm.is_sequential(), "{}", plan.algorithm);

    let out = DistBackend::new().run_instrumented(&plan, &x, &refs);
    let predicted = DistBackend::predicted_schedule(&plan).unwrap();
    assert_eq!(out.ledgers.len(), 13);
    for (me, ledger) in out.ledgers.iter().enumerate() {
        assert_eq!(
            ledger.phases(),
            &predicted.ranks[me].phases[..],
            "rank {me}"
        );
    }
    let oracle = mttkrp_reference(&x, &refs, 0);
    assert!(out.report.output.max_abs_diff(&oracle) < 1e-10);
}

/// `Plan::explain` names the distribution for cluster plans, so "4 ranks,
/// 2x2x1 grid, Algorithm N" is visible before anything executes — and the
/// transport the machine wires those ranks with.
#[test]
fn cluster_plan_explains_its_distribution() {
    let problem = Problem::new(&[64, 64, 64], 64);
    let plan = Planner::new(MachineSpec::cluster(8, 2, 1 << 16)).plan_executable(&problem, 0);
    let text = plan.explain();
    assert!(!plan.algorithm.is_sequential());
    assert!(text.contains("distribution: 8 ranks"), "{text}");
    assert!(text.contains("grid"), "{text}");
    assert!(text.contains("transport: in-process channels"), "{text}");
}

/// The acceptance criterion over the wire: a TCP-machine plan executes the
/// identical rank programs over loopback sockets, and both gates (bitwise
/// output, schedule word-exactness) hold exactly as they do over channels.
#[test]
fn tcp_machine_is_bit_identical_and_word_exact() {
    let (x, factors) = setup(&[16, 16, 16], 8, 8);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(x.shape(), 8);
    let machine = MachineSpec::cluster(4, 1, 1 << 16).with_transport(TransportSpec::Tcp);
    let plan = Planner::new(machine.clone()).plan_executable(&problem, 0);
    assert!(!plan.algorithm.is_sequential());
    assert!(plan.explain().contains("transport: tcp sockets"));

    let out = DistBackend::new().run_instrumented(&plan, &x, &refs);
    let (_, single) = plan_and_execute(&machine, &x, &refs, 0);
    assert_eq!(
        out.report.output.data(),
        single.output.data(),
        "tcp run differs from the single-node executor"
    );
    let predicted = DistBackend::predicted_schedule(&plan).unwrap();
    for (me, ledger) in out.ledgers.iter().enumerate() {
        assert!(
            ledger.matches(&predicted.ranks[me].phases),
            "rank {me} deviates from the schedule over tcp:\n{}",
            ledger.diff_table(&predicted.ranks[me].phases)
        );
    }
}
