//! Integration: the `mttkrp-als` engine end-to-end through the umbrella
//! crate — fit behavior on random tensors (property-tested), synthetic
//! rank-R recovery, cross-backend bitwise identity, and the sweep plan: tree
//! sweeps against the per-mode reference and tensor passes per sweep.

use mttkrp::als::{cp_als, AlsConfig, BackendChoice};
use mttkrp::core::cp_als::CpAlsOptions;
use mttkrp::exec::MachineSpec;
use mttkrp::tensor::{DenseTensor, KruskalTensor, Shape};
use proptest::prelude::*;

fn native_config(rank: usize) -> AlsConfig {
    AlsConfig::new(rank)
        .with_machine(MachineSpec::shared(2, 1 << 12))
        .with_backend(BackendChoice::Native)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ALS never increases the residual: the fit trace is monotone
    /// non-decreasing (tiny float slack) on arbitrary random dense
    /// tensors, across shapes, ranks, and init seeds.
    #[test]
    fn fit_is_monotone_nondecreasing_per_sweep(
        dims in prop::collection::vec(2usize..7, 3..=4),
        r in 1usize..5,
        data_seed in 0u64..500,
        init_seed in 0u64..500,
    ) {
        let x = DenseTensor::random(Shape::new(&dims), data_seed);
        let run = cp_als(
            &x,
            &native_config(r).with_sweeps(10).with_tol(0.0).with_seed(init_seed),
        );
        prop_assert_eq!(run.sweeps(), 10);
        for w in run.fit_history().windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-10, "fit decreased: {:?}", w);
        }
        // One plan per mode, however many sweeps, on every configuration.
        prop_assert_eq!(run.cache_misses(), dims.len());
    }

    /// Sweeps over the dimension tree are exact Gauss-Seidel ALS: from the
    /// same start the engine's fits equal those of the per-mode reference
    /// (`core::cp_als` on `local_mttkrp`) up to rounding, whether the sweep
    /// plan shares partials everywhere, nowhere, or on one side only.
    #[test]
    fn tree_sweeps_equal_the_per_mode_reference(
        case in 0usize..6,
        rank_pick in 0usize..4,
        threads in 1usize..3,
        data_seed in 0u64..500,
        init_seed in 0u64..500,
    ) {
        // (dims, ranks): 2- to 5-way, extents of 1, and ranks on both sides
        // of a dropped-extent product (a range whose partial would outgrow
        // the tensor runs per mode). Ranks stay where the Gram-Hadamard is
        // generically nonsingular: the reference has no ridge fallback.
        let cases: [(&[usize], &[usize]); 6] = [
            (&[5, 4], &[1, 3, 4]),
            (&[4, 5, 3], &[2, 3, 4, 6]),
            (&[3, 1, 4], &[1, 2, 3]),
            (&[3, 4, 2, 3], &[2, 5, 7, 8]),
            (&[2, 3, 1, 2], &[2, 3]),
            (&[2, 3, 2, 2, 2], &[2, 4, 5]),
        ];
        let (dims, ranks) = cases[case];
        let r = ranks[rank_pick % ranks.len()];
        let x = DenseTensor::random(Shape::new(dims), data_seed);
        let run = cp_als(
            &x,
            &AlsConfig::new(r)
                .with_machine(MachineSpec::shared(threads, 1 << 12))
                .with_backend(BackendChoice::Native)
                .with_sweeps(4)
                .with_tol(0.0)
                .with_seed(init_seed),
        );
        let options = CpAlsOptions { max_iters: 4, tol: 0.0, seed: init_seed };
        let reference = mttkrp::core::cp_als::cp_als(&x, r, &options).fit_history;
        prop_assert_eq!(run.sweeps(), 4);
        for (sweep, (fit, want)) in run.fit_history().iter().zip(&reference).enumerate() {
            prop_assert!(
                (fit - want).abs() <= 1e-9,
                "dims {:?} R = {} sweep {}: engine {} vs reference {} under\n{}",
                dims, r, sweep + 1, fit, want, run.sweep_plan
            );
        }
        // The ledgers hold whatever the sweep plan shares.
        prop_assert_eq!(run.cache_misses(), dims.len());
        prop_assert_eq!(run.cache_hits(), 0);
        for sweep in &run.trace {
            prop_assert_eq!(sweep.tensor_passes, run.sweep_plan.tensor_passes());
            prop_assert_eq!(sweep.mode_exec_times.len(), dims.len());
        }
    }

    /// A synthetic rank-R Kruskal tensor is recovered to fit >= 0.999.
    /// ALS is a local method, so the engine is given the standard
    /// multi-start treatment: up to three deterministic init seeds, pass
    /// if any restart reaches the target (almost always the first).
    #[test]
    fn synthetic_rank_r_tensor_is_recovered(
        r in 1usize..4,
        data_seed in 0u64..200,
    ) {
        let x = KruskalTensor::random(&Shape::new(&[8, 7, 6]), r, data_seed).full();
        let best = (0..3)
            .map(|restart| {
                cp_als(
                    &x,
                    &native_config(r)
                        .with_sweeps(500)
                        .with_tol(1e-13)
                        .with_seed(data_seed.wrapping_add(1000 + 77 * restart)),
                )
                .fit()
            })
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(best >= 0.999, "best fit over 3 restarts = {best}");
    }
}

/// The engine is deterministic across the native and dist backends on a
/// shared sequential machine: both execute the identical single-thread
/// kernel, so the factor matrices agree bit for bit.
#[test]
fn native_and_dist_channel_backends_are_bitwise_identical() {
    let x = KruskalTensor::random(&Shape::new(&[9, 8, 7]), 3, 50).full();
    let base = AlsConfig::new(3)
        .with_machine(MachineSpec::shared(1, 1 << 12))
        .with_sweeps(25)
        .with_tol(0.0)
        .with_seed(4);
    let native = cp_als(&x, &base.clone().with_backend(BackendChoice::Native));
    let dist = cp_als(&x, &base.with_backend(BackendChoice::Dist));
    assert_eq!(native.backend_names, vec!["native"; 3]);
    assert_eq!(dist.backend_names, vec!["dist"; 3]);
    assert_eq!(native.model.weights, dist.model.weights);
    for (a, b) in native.model.factors.iter().zip(&dist.model.factors) {
        assert_eq!(a.data(), b.data());
    }
    assert_eq!(native.fit_history(), dist.fit_history());
}

/// The fit identity the engine tracks (off the last mode's MTTKRP) agrees
/// with a materialized `|X - M|` computation.
#[test]
fn identity_fit_matches_materialized_fit() {
    let x = DenseTensor::random(Shape::new(&[7, 6, 5]), 60);
    let run = cp_als(&x, &native_config(3).with_sweeps(30).with_tol(1e-11));
    let direct = run.model.fit_to(&x);
    assert!(
        (direct - run.fit()).abs() < 1e-6,
        "identity fit {} vs materialized {direct}",
        run.fit()
    );
}

/// Passes over the tensor per sweep, counted by the engine: two where each
/// half of the modes shares a partial, one per mode on a 2-way tensor (a
/// half is one mode), wherever `R` outgrows the dropped extents, and on any
/// cluster machine.
#[test]
fn tensor_passes_per_sweep_are_what_the_sweep_plan_predicts() {
    let one_rank = MachineSpec::shared(1, 1 << 14);
    let cluster = MachineSpec::cluster(8, 1, 1 << 16);
    for (dims, r, machine, backend, passes) in [
        (
            &[20usize, 20, 20, 20][..],
            16,
            &one_rank,
            BackendChoice::Native,
            2,
        ),
        (&[12, 10, 8], 3, &one_rank, BackendChoice::Native, 2),
        (&[12, 10, 8], 3, &one_rank, BackendChoice::Dist, 2),
        (&[9, 8], 3, &one_rank, BackendChoice::Native, 2),
        (&[12, 10, 8], 9, &one_rank, BackendChoice::Native, 3),
        (&[8, 8, 8, 8], 3, &cluster, BackendChoice::Sim, 4),
        (&[8, 8, 8], 4, &cluster, BackendChoice::Dist, 3),
    ] {
        let x = DenseTensor::random(Shape::new(dims), 70);
        let config = AlsConfig::new(r)
            .with_machine(machine.clone())
            .with_backend(backend)
            .with_sweeps(2)
            .with_tol(0.0);
        let run = cp_als(&x, &config);
        assert_eq!(
            run.sweep_plan.tensor_passes(),
            passes,
            "{dims:?} R = {r}:\n{}",
            run.sweep_plan
        );
        for sweep in &run.trace {
            assert_eq!(sweep.tensor_passes, passes, "{dims:?} R = {r}");
        }
        assert_eq!(run.cache_misses(), dims.len());
        let text = run.explain();
        assert!(text.contains("sweep plan for dims"), "{text}");
        let contracted = (run.sweep_plan.steps.iter())
            .filter(|s| s.tree.is_leaf() && s.tree.parent.is_some())
            .count();
        assert_eq!(text.matches("not executed").count(), contracted, "{text}");
    }
}
