//! `cube3` and `lowrank4`: the native kernel through the exec front door.
//!
//! One sample is a *round*: `plan_and_execute` for every mode in turn, each
//! mode a part timed on its own. Modes differ 1.5x in cost on equal flop
//! counts, so a statistic over all calls would hop between modes; a round
//! does not.

use super::{
    machine, median_us, one_thread_pool, plain_first, plan_cached_hit_us, plan_lines,
    tiles_per_mode, timed_modes, Checker, Layers, Operands, Workload, KERNEL_METRICS, KERNEL_SPANS,
};
use crate::machine::nproc;
use crate::stats::{quiet_sum, spread, summarize};
use crate::trace::Tracer;
use mttkrp_core::{bounds, Problem};
use mttkrp_exec::{
    mttkrp_native, plan_and_execute, Backend, ExecCost, MachineSpec, Plan, Planner, SimBackend,
    DEFAULT_CACHE_WORDS,
};
use mttkrp_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Rounds run before the clock starts.
const WARMUP_ROUNDS: usize = 3;
/// Rounds on all cores for `exec.par_speedup`.
const PAR_ROUNDS: usize = 10;
/// Rounds of the big problem for `exec.big_round_ms`: as many as the fewest
/// samples a gated timing rests on (a traced run shorter than that takes as
/// many as it takes samples).
const BIG_ROUNDS: usize = 100;
/// Fast memory, in words, of the small machine: 256 KiB. Planned for it, both
/// timed tensors take two blocks per mode, as the big ones do at the default
/// 16 MiB. The timed plan itself is one tile, since the operands fit the cache
/// it is blocked for, so the kernel's tile loop is checked (every run) and
/// Algorithm 2's words are counted (traced runs) on the small machine.
const SMALL_CACHE_WORDS: usize = 1 << 15;

fn small_machine() -> MachineSpec {
    MachineSpec::shared(1, SMALL_CACHE_WORDS)
}

/// Floating-point operations of one MTTKRP in the paper's atomic form: every
/// point of the `I x R` iteration space takes `N - 1` multiplies and one add.
pub fn flops_per_mode(dims: &[usize], rank: usize) -> f64 {
    let entries: f64 = dims.iter().map(|&d| d as f64).product();
    dims.len() as f64 * entries * rank as f64
}

/// Bytes one MTTKRP must touch at least, computed from the array sizes: the
/// tensor once and every factor (the output among them) once. Cache misses
/// move more; nothing here measures them.
pub fn bytes_per_mode(dims: &[usize], rank: usize) -> f64 {
    let entries: f64 = dims.iter().map(|&d| d as f64).product();
    let factor_words: f64 = dims.iter().map(|&d| (d * rank) as f64).sum();
    8.0 * (entries + factor_words)
}

/// A dense MTTKRP problem run through `plan_and_execute`.
pub struct Kernel {
    /// The timed operands. They fit this box's 2 MiB private L2: what sits in
    /// the shared last-level cache or beyond is timed at the neighbours'
    /// mercy (a 16 MiB stream varied 3x within minutes while arithmetic in
    /// registers held to 5%), and cannot be gated on.
    ops: Operands,
    /// Edge of the same problem at the issue's size: far outside L2 and past
    /// the tile edge, so the kernel's blocking is at work. Run in the traced
    /// run, reported, never gated.
    big_edge: usize,
    /// [`Operands::direct`]; every timed output must equal it bit for bit.
    direct: Vec<Matrix>,
    seed: u64,
}

impl Kernel {
    /// 56^3, R = 32: a 1.3 MiB tensor at 12 flop/byte (160^3, 31 MiB, as the
    /// big one).
    pub fn cube3(seed: u64) -> Kernel {
        Kernel::new(&[56, 56, 56], 32, 160, seed)
    }

    /// 20^4, R = 5: a 1.2 MiB tensor at 2.5 flop/byte and a rank no vector
    /// width divides (48^4, 40 MiB, as the big one).
    pub fn lowrank4(seed: u64) -> Kernel {
        Kernel::new(&[20, 20, 20, 20], 5, 48, seed)
    }

    fn new(dims: &[usize], rank: usize, big_edge: usize, seed: u64) -> Kernel {
        let ops = Operands::random(dims, rank, seed);
        let direct = ops.direct();
        let kernel = Kernel {
            ops,
            big_edge,
            direct,
            seed,
        };
        for _ in 0..WARMUP_ROUNDS {
            black_box(kernel.round());
        }
        kernel
    }

    fn dims(&self) -> &[usize] {
        self.ops.x.shape().dims()
    }

    fn big_dims(&self) -> Vec<usize> {
        vec![self.big_edge; self.ops.order()]
    }

    /// The timed operation: the front door, every mode.
    fn round(&self) -> Vec<Matrix> {
        (0..self.ops.order()).map(|n| self.front_door(n)).collect()
    }

    fn front_door(&self, n: usize) -> Matrix {
        plan_and_execute(&machine(), &self.ops.x, &self.ops.refs(), n)
            .1
            .output
    }

    /// One round, each mode timed in milliseconds and then checked.
    fn timed_round(&self, check: &mut Checker) -> Vec<f64> {
        timed_modes(&self.direct, check, |n| self.front_door(n))
    }

    /// exec: the same problem at the issue's size, outside the private cache
    /// and past the tile edge, so the kernel's blocking is at work: where a
    /// change to it would show. The shared cache levels it lives in are the
    /// neighbours' too, so the numbers are read, not gated. `round_ms` is the
    /// timed problem's round.
    fn big_rounds(&self, rounds: usize, round_ms: f64, check: &mut Checker, layers: &mut Layers) {
        let rank = self.ops.rank();
        let big = Operands::random(&self.big_dims(), rank, self.seed);
        let refs = big.refs();
        let direct = big.direct();
        for (direct, oracle) in direct.iter().zip(big.oracle()) {
            check.close(direct, &oracle);
        }
        let rows: Vec<Vec<f64>> = (0..rounds)
            .map(|_| {
                timed_modes(&direct, check, |n| {
                    plan_and_execute(&machine(), &big.x, &refs, n).1.output
                })
            })
            .collect();
        let whole: Vec<f64> = rows.iter().map(|parts| parts.iter().sum()).collect();
        let big_round_ms = quiet_sum(&rows);
        layers.insert("exec.big_round_ms", big_round_ms);
        layers.insert("exec.big_round_ms.p50", summarize(&whole).p50);
        layers.insert("exec.big_round_ms.n", whole.len() as f64);
        layers.insert("exec.big_spread", spread(&whole));
        let entries_ratio = big.x.num_entries() as f64 / self.ops.x.num_entries() as f64;
        layers.insert(
            "exec.big_over_small",
            big_round_ms / round_ms / entries_ratio,
        );
        // The big plans: their tiles, and the words the model says they move
        // (what the simulator would count, word for word; `sim_words` checks
        // that on a plan it can afford).
        let problem = Problem::from_shape(big.x.shape(), rank);
        let planner = Planner::new(machine());
        let plans: Vec<Plan> = (0..big.order())
            .map(|n| planner.plan_executable(&problem, n))
            .collect();
        let tile = plans[0].native_tile();
        let tiles: usize = tiles_per_mode(&self.big_dims(), tile).iter().product();
        layers.insert("exec.big_tile", tile as f64);
        layers.insert("exec.big_tiles", tiles as f64);
        let words: f64 = plans.iter().map(|plan| plan.predicted_cost).sum();
        layers.insert("exec.big_plan_words", words);
    }

    /// exec: an exact count beside the noisy clock. The word-exact simulator
    /// runs the timed operands through the plan for the small machine
    /// (Algorithm 2, two blocks per mode, as the big plan has; the big plan
    /// itself would take it 40 s a mode). Loads plus stores must equal the
    /// plan's predicted cost word for word.
    fn sim_words(&self, check: &mut Checker, layers: &mut Layers) {
        let refs = self.ops.refs();
        let problem = Problem::from_shape(self.ops.x.shape(), self.ops.rank());
        let small = Planner::new(small_machine());
        let (mut sim_words, mut bound) = (0u64, 0.0);
        for (n, want) in self.direct.iter().enumerate() {
            let plan = small.plan_executable(&problem, n);
            let report = SimBackend::new().execute(&plan, &self.ops.x, &refs);
            check.close(&report.output, want);
            let ExecCost::SeqIo { loads, stores, .. } = report.cost else {
                check.op(false);
                continue;
            };
            check.op((loads + stores) as f64 == plan.predicted_cost);
            sim_words += loads + stores;
            bound += bounds::seq_best(&problem, SMALL_CACHE_WORDS as u64);
        }
        layers.insert("exec.sim_words", sim_words as f64);
        layers.insert("exec.sim_words_over_bound", sim_words as f64 / bound);
    }
}

impl Workload for Kernel {
    fn verify(&self, check: &mut Checker) {
        let refs = self.ops.refs();
        for (n, (direct, oracle)) in self.direct.iter().zip(self.ops.oracle()).enumerate() {
            check.close(direct, &oracle);
            // The same mode through the kernel's tile loop.
            let (plan, report) = plan_and_execute(&small_machine(), &self.ops.x, &refs, n);
            let tiles: usize = tiles_per_mode(self.dims(), plan.native_tile())
                .iter()
                .product();
            check.op(tiles > 1);
            check.close(&report.output, &oracle);
        }
    }

    fn unit(&self) -> &'static str {
        "round"
    }

    fn plans(&self) -> Vec<String> {
        let rank = self.ops.rank();
        let planner = Planner::new(machine());
        let mut lines = plan_lines(&planner, self.dims(), rank);
        lines.extend(plan_lines(&planner, &self.big_dims(), rank));
        lines.extend(
            plan_lines(&Planner::new(small_machine()), self.dims(), rank)
                .iter()
                .map(|line| format!("{line} (M = {SMALL_CACHE_WORDS} words)")),
        );
        lines
    }

    fn corrupt_reference(&mut self) {
        self.direct[0].data_mut()[0] += 1.0;
    }

    fn tensor_words(&self) -> usize {
        self.ops.x.num_entries()
    }

    fn run(&mut self, samples: usize, check: &mut Checker) -> Vec<Vec<f64>> {
        (0..samples).map(|_| self.timed_round(check)).collect()
    }

    fn run_traced(
        &mut self,
        samples: usize,
        check: &mut Checker,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Vec<f64>, Vec<f64>) {
        let order = self.ops.order();
        let rank = self.ops.rank();
        let refs = self.ops.refs();
        let problem = Problem::from_shape(self.ops.x.shape(), rank);
        let planner = Planner::new(machine());
        let pool = one_thread_pool();

        let mut plain = Vec::with_capacity(samples);
        for op in 0..samples {
            if plain_first(op) {
                plain.push(self.timed_round(check).iter().sum());
            }
            let (outputs, root) = tracer.time(None, "op.round", op, || self.round());
            for (got, want) in outputs.iter().zip(&self.direct) {
                check.bits(got, want);
            }
            if !plain_first(op) {
                plain.push(self.timed_round(check).iter().sum());
            }
            // Replay what the front door did, one layer at a time.
            for (n, want) in self.direct.iter().enumerate() {
                let (plan, _) = tracer.time(Some(root), "exec.plan", op, || {
                    planner.plan_executable(&problem, n)
                });
                let (out, _) = tracer.time(Some(root), KERNEL_SPANS[n], op, || {
                    mttkrp_native(&self.ops.x, &refs, n, plan.native_tile(), &pool)
                });
                check.bits(&out, want);
            }
        }
        let rounds = tracer.durations("op.round");
        let round_ms = summarize(&rounds).quiet / 1e3;

        // exec: planner and plan cache.
        layers.insert("exec.plan_us", median_us(tracer, "exec.plan"));
        layers.insert(
            "exec.plan_cached_us",
            plan_cached_hit_us(&planner, &problem),
        );

        // exec: the raw kernel, mode by mode, and the front door over it.
        let kernel_ms: Vec<f64> = (0..order)
            .map(|n| summarize(&tracer.durations(KERNEL_SPANS[n])).quiet / 1e3)
            .collect();
        for (n, ms) in kernel_ms.iter().enumerate() {
            layers.insert(KERNEL_METRICS[n], *ms);
        }
        let kernels_ms: f64 = kernel_ms.iter().sum();
        layers.insert("exec.execute_over_kernel", round_ms / kernels_ms);
        let (fastest, slowest) = kernel_ms
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &ms| (lo.min(ms), hi.max(ms)));
        layers.insert("exec.mode_asymmetry", slowest / fastest);

        // exec: against the probed roofline. Byte figures are computed from
        // array sizes, not measured.
        let dims = self.dims();
        let flops = order as f64 * flops_per_mode(dims, rank);
        let bytes = order as f64 * bytes_per_mode(dims, rank);
        let gflops = flops / (round_ms * 1e6);
        let flop_per_byte = flops / bytes;
        let tensor_gbs = (order * 8 * self.ops.x.num_entries()) as f64 / (round_ms * 1e6);
        layers.insert("exec.gflops", gflops);
        layers.insert("exec.flop_per_byte", flop_per_byte);
        layers.insert("exec.tensor_gbs", tensor_gbs);
        let (fma, stream) = (layers["probe.fma_gflops"], layers["probe.stream_gbs"]);
        layers.insert("exec.frac_fma_peak", gflops / fma);
        layers.insert("exec.frac_stream", tensor_gbs / stream);
        layers.insert(
            "exec.roofline_frac",
            gflops / fma.min(stream * flop_per_byte),
        );

        self.big_rounds(samples.min(BIG_ROUNDS), round_ms, check, layers);
        self.sim_words(check, layers);

        // exec: all cores against one. On a shared two-vCPU box this measures
        // the neighbours as much as the program; informational.
        let all_cores = MachineSpec::shared(nproc(), DEFAULT_CACHE_WORDS);
        let par_ms: Vec<f64> = (0..PAR_ROUNDS)
            .map(|_| {
                let start = Instant::now();
                for n in 0..order {
                    black_box(plan_and_execute(&all_cores, &self.ops.x, &refs, n));
                }
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layers.insert("exec.par_speedup", round_ms / summarize(&par_ms).quiet);

        (plain, rounds.iter().map(|us| us / 1e3).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube3_formulas_match_hand_computed_values() {
        // 56^3 at R = 32: I = 175 616 entries, N * I * R flops a mode.
        let dims = [56, 56, 56];
        assert_eq!(flops_per_mode(&dims, 32), 16_859_136.0);
        // Tensor plus three 56 x 32 factors (5 376 words), eight bytes a word.
        assert_eq!(bytes_per_mode(&dims, 32), 1_447_936.0);
        let ratio = flops_per_mode(&dims, 32) / bytes_per_mode(&dims, 32);
        assert!((ratio - 11.6436).abs() < 1e-4, "{ratio}");
        // Against the tensor's bytes alone: R * N / 8 = 12 flop/byte.
        assert_eq!(flops_per_mode(&dims, 32) / (8.0 * 175_616.0), 12.0);
    }

    #[test]
    fn lowrank4_is_two_and_a_half_flops_per_tensor_byte() {
        let dims = [20, 20, 20, 20];
        let entries = 20f64.powi(4);
        assert_eq!(flops_per_mode(&dims, 5) / (8.0 * entries), 2.5);
    }

    #[test]
    fn a_small_kernel_workload_checks_clean() {
        // Edges past the small machine's tile (31 at this rank), as the real
        // workloads have.
        let mut w = Kernel::new(&[40, 36, 34], 3, 8, 11);
        let mut check = Checker::default();
        w.verify(&mut check);
        let times = w.run(2, &mut check);
        assert_eq!(times.len(), 2);
        // Per mode: the reference, a tile count and the tiled output; then
        // two rounds.
        assert_eq!((check.attempted, check.failed), (3 * 3 + 2 * 3, 0));
        assert!(check.max_rel_err < 1e-12);
    }
}
