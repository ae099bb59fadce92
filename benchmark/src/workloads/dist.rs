//! `dist-grid`: the dist runtime, timed on one rank and counted on eight.
//!
//! One sample is a *round* of `mttkrp_dist_stationary` on a 1x1x1 grid, every
//! mode (each a part timed on its own): sharding, the rank program, collectives and assembly with nothing
//! running beside them. Each block then runs a few rounds at P = 8 through the
//! planner and `DistBackend::run_instrumented`. Eight rank threads on two
//! vCPUs time the scheduler, so only what they count is kept: words and
//! messages per rank, which must equal the netsim schedule collective by
//! collective and repeat exactly.

use super::{
    machine, median_us, plain_first, plan_lines, timed_modes, Checker, Layers, Operands, Workload,
};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use mttkrp_core::kernels::local_mttkrp;
use mttkrp_core::{bounds, Problem};
use mttkrp_dist::layout::shard_alg3;
use mttkrp_dist::{mttkrp_dist_stationary, DistBackend};
use mttkrp_exec::{plan_and_execute, MachineSpec, Plan, Planner, DEFAULT_CACHE_WORDS};
use mttkrp_netsim::CommStats;
use mttkrp_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

const DIMS: [usize; 3] = [64, 32, 32];
const RANK: usize = 32;
const ONE_RANK: [usize; 3] = [1, 1, 1];
/// Ranks of the counted rounds.
const RANKS: usize = 8;
/// Rounds at P = 8 per block; counts repeat, so a few suffice.
const COUNTED_ROUNDS: usize = 5;
/// One-rank rounds run before the clock starts.
const WARMUP_ROUNDS: usize = 3;
/// `dist.comm_words` of the baseline: the shape, the rank and P are fixed, so
/// the count does not depend on the seed, and a round that moves more words
/// at its busiest rank than this is a failed operation. A change that moves
/// fewer lowers the constant in a benchmark change of its own.
const COMM_WORDS_BASELINE: u64 = 6656;

/// What one P = 8 round counted, summed over its modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counted {
    /// The most words any rank sent plus received.
    comm_words: u64,
    /// The most words any rank sent.
    sent_max: u64,
    /// The most words any rank received.
    recv_max: u64,
    /// The most messages any rank sent.
    msgs_max: u64,
    /// Words sent by all ranks together.
    words_total: u64,
}

/// One MTTKRP problem, its one-rank reference outputs and its P = 8 plans.
pub struct Dist {
    ops: Operands,
    /// Output of a first one-rank run per mode; one-rank outputs must
    /// reproduce it bit for bit, P = 8 outputs to rounding.
    direct: Vec<Matrix>,
    plans: Vec<Plan>,
    /// What the last counted rounds found.
    counted: Counted,
}

impl Dist {
    /// Generates the operands, plans the P = 8 rounds and warms up.
    pub fn new(seed: u64) -> Dist {
        let ops = Operands::random(&DIMS, RANK, seed);
        let refs = ops.refs();
        let direct = (0..DIMS.len())
            .map(|n| mttkrp_dist_stationary(&ops.x, &refs, n, &ONE_RANK).output)
            .collect();
        let planner = Planner::new(MachineSpec::cluster(RANKS, 1, DEFAULT_CACHE_WORDS));
        let problem = Problem::from_shape(ops.x.shape(), RANK);
        let plans = (0..DIMS.len())
            .map(|n| planner.plan_executable(&problem, n))
            .collect();
        let dist = Dist {
            ops,
            direct,
            plans,
            counted: Counted::default(),
        };
        for _ in 0..WARMUP_ROUNDS {
            black_box(dist.round());
        }
        dist
    }

    /// The timed operation: the whole dist runtime on a single rank.
    fn round(&self) -> Vec<Matrix> {
        (0..DIMS.len()).map(|n| self.one_rank(n)).collect()
    }

    fn one_rank(&self, n: usize) -> Matrix {
        mttkrp_dist_stationary(&self.ops.x, &self.ops.refs(), n, &ONE_RANK).output
    }

    /// One one-rank round, each mode timed in milliseconds and then checked.
    fn timed_round(&self, check: &mut Checker) -> Vec<f64> {
        timed_modes(&self.direct, check, |n| self.one_rank(n))
    }

    /// The counted rounds: per mode and round one operation for the output
    /// and one for the ledgers, and one per later round for repeating the
    /// first round's counts exactly and for staying within
    /// [`COMM_WORDS_BASELINE`]. Keeps the counts of a round, and returns
    /// whether every ledger equalled its predicted schedule and the median
    /// wall time of a round in milliseconds.
    fn counted_rounds(&mut self, check: &mut Checker) -> (bool, f64) {
        let refs = self.ops.refs();
        let backend = DistBackend::new();
        let mut rounds = Vec::with_capacity(COUNTED_ROUNDS);
        let mut round_ms = Vec::with_capacity(COUNTED_ROUNDS);
        let mut schedule_match = true;
        for _ in 0..COUNTED_ROUNDS {
            let start = Instant::now();
            let mut counted = Counted::default();
            for (n, plan) in self.plans.iter().enumerate() {
                let out = backend.run_instrumented(plan, &self.ops.x, &refs);
                check.close(&out.report.output, &self.direct[n]);
                let matches = DistBackend::predicted_schedule(plan).is_some_and(|schedule| {
                    schedule.ranks.len() == out.ledgers.len()
                        && out
                            .ledgers
                            .iter()
                            .zip(&schedule.ranks)
                            .all(|(ledger, rank)| ledger.matches(&rank.phases))
                });
                check.op(matches);
                schedule_match &= matches;
                let totals: Vec<CommStats> = out.ledgers.iter().map(|l| l.totals()).collect();
                let most = |of: fn(&CommStats) -> u64| totals.iter().map(of).max().unwrap_or(0);
                counted.comm_words += most(CommStats::total_words);
                counted.sent_max += most(|t| t.words_sent);
                counted.recv_max += most(|t| t.words_received);
                counted.msgs_max += most(|t| t.messages_sent);
                counted.words_total += totals.iter().map(|t| t.words_sent).sum::<u64>();
            }
            round_ms.push(start.elapsed().as_secs_f64() * 1e3);
            rounds.push(counted);
        }
        for round in &rounds {
            check.op(*round == rounds[0] && round.comm_words <= COMM_WORDS_BASELINE);
        }
        self.counted = rounds[0];
        (schedule_match, median(&round_ms))
    }

    /// The counts of a round, by per-layer metric name.
    fn counts(&self) -> Vec<(&'static str, f64)> {
        let c = &self.counted;
        vec![
            ("dist.comm_words", c.comm_words as f64),
            ("dist.words_sent_max", c.sent_max as f64),
            ("dist.words_recv_max", c.recv_max as f64),
            ("dist.msgs_max", c.msgs_max as f64),
            ("dist.words_total", c.words_total as f64),
        ]
    }
}

impl Workload for Dist {
    fn verify(&self, check: &mut Checker) {
        for (direct, oracle) in self.direct.iter().zip(self.ops.oracle()) {
            check.close(direct, &oracle);
        }
    }

    fn corrupt_reference(&mut self) {
        self.direct[0].data_mut()[0] += 1.0;
    }

    fn tensor_words(&self) -> usize {
        self.ops.x.num_entries()
    }

    fn unit(&self) -> &'static str {
        "one-rank round"
    }

    /// The P = 8 plans of the counted rounds; the timed one-rank rounds go
    /// through `mttkrp_dist_stationary`, which takes its grid, not a plan.
    fn plans(&self) -> Vec<String> {
        let planner = Planner::new(MachineSpec::cluster(RANKS, 1, DEFAULT_CACHE_WORDS));
        plan_lines(&planner, &DIMS, RANK)
    }

    fn companions(&self) -> Vec<(&'static str, f64)> {
        self.counts()
    }

    fn run(&mut self, samples: usize, check: &mut Checker) -> Vec<Vec<f64>> {
        let times = (0..samples).map(|_| self.timed_round(check)).collect();
        self.counted_rounds(check);
        times
    }

    fn run_traced(
        &mut self,
        samples: usize,
        check: &mut Checker,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Vec<f64>, Vec<f64>) {
        let refs = self.ops.refs();
        let mut plain = Vec::with_capacity(samples);
        for op in 0..samples {
            if plain_first(op) {
                plain.push(self.timed_round(check).iter().sum());
            }
            let (outputs, root) = tracer.time(None, "op.rank_round", op, || self.round());
            for (got, want) in outputs.iter().zip(&self.direct) {
                check.bits(got, want);
            }
            if !plain_first(op) {
                plain.push(self.timed_round(check).iter().sum());
            }
            // Replay the two parts of a one-rank run that can run alone; the
            // rank thread, its singleton collectives and the assembly stay
            // behind as the root's self time.
            for n in 0..DIMS.len() {
                tracer.time(Some(root), "dist.shard", op, || {
                    black_box(shard_alg3(&self.ops.x, &refs, n, &ONE_RANK))
                });
                tracer.time(Some(root), "dist.local_mttkrp", op, || {
                    black_box(local_mttkrp(&self.ops.x, &refs, n))
                });
            }
            // The same round on the single-node path, for the ratio.
            tracer.time(None, "cmp.native_round", op, || {
                for n in 0..DIMS.len() {
                    black_box(plan_and_execute(&machine(), &self.ops.x, &refs, n));
                }
            });
        }
        let rounds = tracer.durations("op.rank_round");
        layers.insert(
            "dist.shard_ms",
            DIMS.len() as f64 * median_us(tracer, "dist.shard") / 1e3,
        );
        layers.insert(
            "dist.rank_over_native",
            summarize(&rounds).quiet / summarize(&tracer.durations("cmp.native_round")).quiet,
        );

        let (schedule_match, round_ms_p8) = self.counted_rounds(check);
        layers.extend(self.counts());
        layers.insert("dist.schedule_match", f64::from(u8::from(schedule_match)));
        layers.insert("dist.round_ms_p8", round_ms_p8);
        // The paper's memory-independent bound holds per MTTKRP, so a round
        // of N is held against N times it; 0 where the bound is vacuous.
        let bound = DIMS.len() as f64 * bounds::par_best_mi(&self.plans[0].problem, RANKS as u64);
        layers.insert(
            "dist.words_over_bound",
            if bound > 0.0 {
                self.counted.comm_words as f64 / bound
            } else {
                0.0
            },
        );

        (plain, rounds.iter().map(|us| us / 1e3).collect())
    }
}
