//! `serve-burst`: a closed loop of 32-request bursts into an in-process
//! `Server`.
//!
//! One sample is a *burst*: from the first `Server::submit` to the last
//! `ResponseHandle::wait`. Every burst holds the same 32 requests over twelve
//! tiny plan keys, so the queue coalesces them the same way each time and the
//! kernel is a small part of the whole. No byte crosses a wire: a wire
//! optimisation predicts no change here, a queue optimisation none on
//! `serve-socket`.

use super::{
    machine, one_thread_pool, plain_first, plan_cached_hit_us, plan_lines, Checker, Layers,
    Operands, Workload,
};
use crate::stats::summarize;
use crate::trace::Tracer;
use mttkrp_core::Problem;
use mttkrp_exec::{mttkrp_native, Planner};
use mttkrp_serve::{MttkrpRequest, MttkrpResponse, Server, ServerConfig};
use mttkrp_tensor::Matrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SHAPES: [[usize; 3]; 4] = [[8, 6, 4], [6, 8, 4], [4, 8, 6], [8, 4, 6]];
const RANK: usize = 4;
const MODES: usize = 3;
/// Requests per burst, and the largest batch the server may form.
const BURST: usize = 32;
/// Bursts sent before the clock starts.
const WARMUP_BURSTS: usize = 200;
/// Burst pairs (capture on, capture off) timed for `obs.capture_overhead`.
const CAPTURE_PAIRS: usize = 100;

/// A running in-process server and the burst it is sent.
pub struct Burst {
    server: Server,
    shapes: Vec<Operands>,
    /// [`Operands::direct`] per key, shape-major.
    direct: Vec<Matrix>,
}

/// Shape and mode of the burst's `k`-th request: shapes rotate fastest, so
/// same-key requests are never adjacent and coalescing has work to do.
fn key_of(k: usize) -> (usize, usize) {
    (k % SHAPES.len(), (k / SHAPES.len()) % MODES)
}

impl Burst {
    /// Starts the server (one worker) and warms every plan key.
    pub fn new(seed: u64) -> Burst {
        let shapes: Vec<Operands> = SHAPES
            .iter()
            .enumerate()
            .map(|(i, dims)| Operands::random(dims, RANK, seed.wrapping_add(10 * i as u64)))
            .collect();
        let direct = shapes.iter().flat_map(Operands::direct).collect();
        let server = Server::start(ServerConfig {
            machine: machine(),
            workers: 1,
            max_batch: BURST,
            ..ServerConfig::default()
        });
        let mut burst = Burst {
            server,
            shapes,
            direct,
        };
        let mut warmup = Checker::default();
        burst.run(WARMUP_BURSTS, &mut warmup);
        burst
    }

    /// The timed operation: submit everything, then wait for everything.
    fn burst(&self) -> Vec<MttkrpResponse> {
        let handles: Vec<_> = (0..BURST)
            .map(|k| {
                let (shape, mode) = key_of(k);
                let ops = &self.shapes[shape];
                self.server.submit(MttkrpRequest::new(
                    Arc::clone(&ops.x),
                    Arc::clone(&ops.factors),
                    mode,
                ))
            })
            .collect();
        handles.into_iter().map(|h| h.wait()).collect()
    }

    fn check_burst(&self, responses: &[MttkrpResponse], check: &mut Checker) {
        for (k, response) in responses.iter().enumerate() {
            let (shape, mode) = key_of(k);
            check.bits(&response.report.output, &self.direct[shape * MODES + mode]);
        }
    }

    /// One burst, timed in milliseconds, then checked.
    fn timed_burst(&self, check: &mut Checker) -> f64 {
        let start = Instant::now();
        let responses = self.burst();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.check_burst(&responses, check);
        ms
    }
}

impl Workload for Burst {
    fn verify(&self, check: &mut Checker) {
        let oracle = self.shapes.iter().flat_map(Operands::oracle);
        for (direct, oracle) in self.direct.iter().zip(oracle) {
            check.close(direct, &oracle);
        }
    }

    fn corrupt_reference(&mut self) {
        self.direct[0].data_mut()[0] += 1.0;
    }

    fn tensor_words(&self) -> usize {
        self.shapes[0].x.num_entries()
    }

    fn unit(&self) -> &'static str {
        "burst of 32 requests"
    }

    fn plans(&self) -> Vec<String> {
        let planner = Planner::new(machine());
        SHAPES
            .iter()
            .flat_map(|dims| plan_lines(&planner, dims, RANK))
            .collect()
    }

    fn run(&mut self, samples: usize, check: &mut Checker) -> Vec<Vec<f64>> {
        (0..samples)
            .map(|_| vec![self.timed_burst(check)])
            .collect()
    }

    fn run_traced(
        &mut self,
        samples: usize,
        check: &mut Checker,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Vec<f64>, Vec<f64>) {
        let pool = one_thread_pool();
        let (mut queued_us, mut exec_us) = (0.0, 0.0);
        let mut plain = Vec::with_capacity(samples);
        for op in 0..samples {
            if plain_first(op) {
                plain.push(self.timed_burst(check));
            }
            let (responses, root) = tracer.time(None, "op.burst", op, || self.burst());
            self.check_burst(&responses, check);
            if !plain_first(op) {
                plain.push(self.timed_burst(check));
            }
            for response in &responses {
                queued_us += response.timing.queued.as_secs_f64() * 1e6;
                exec_us += response.timing.exec.as_secs_f64() * 1e6;
            }
            // Replay the burst's 32 kernels back to back; the rest of the
            // burst (queue, batcher, plan cache, reply channels, hand-offs
            // between three threads) stays behind as the root's self time.
            tracer.time(Some(root), "exec.kernel", op, || {
                for (k, response) in responses.iter().enumerate() {
                    let (shape, mode) = key_of(k);
                    let ops = &self.shapes[shape];
                    let tile = response.plan.native_tile();
                    black_box(mttkrp_native(&ops.x, &ops.refs(), mode, tile, &pool));
                }
            });
        }
        let served = (samples * BURST) as f64;
        layers.insert("serve.queue_us", queued_us / served);
        layers.insert("serve.exec_us", exec_us / served);

        let stats = self.server.stats();
        layers.insert("serve.mean_batch", stats.mean_batch_size());
        layers.insert("serve.largest_batch", stats.largest_batch as f64);
        layers.insert("exec.plan_cache.hits", stats.cache.hits as f64);
        layers.insert("exec.plan_cache.misses", stats.cache.misses as f64);
        layers.insert(
            "exec.plan_cache.hit_rate",
            stats.cache.hit_rate().unwrap_or(0.0),
        );
        let problem = Problem::from_shape(self.shapes[0].x.shape(), RANK);
        layers.insert(
            "exec.plan_cached_us",
            plan_cached_hit_us(&Planner::new(machine()), &problem),
        );

        // obs: the same burst with the workspace's own capture switched on,
        // alternating so both sides see the same box.
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for _ in 0..CAPTURE_PAIRS {
            let capture = mttkrp_obs::capture();
            on.push(self.timed_burst(check));
            drop(capture);
            off.push(self.timed_burst(check));
        }
        layers.insert(
            "obs.capture_overhead",
            summarize(&on).quiet / summarize(&off).quiet,
        );

        let traced = tracer.durations("op.burst");
        (plain, traced.iter().map(|us| us / 1e3).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_holds_every_key_and_no_adjacent_repeats() {
        let keys: Vec<(usize, usize)> = (0..BURST).map(key_of).collect();
        let distinct: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), SHAPES.len() * MODES);
        assert!(keys.windows(2).all(|w| w[0] != w[1]));
    }
}
