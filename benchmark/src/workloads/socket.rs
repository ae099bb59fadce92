//! `serve-socket`: one closed-loop client on one connection to a `NetServer`.
//!
//! One sample is a *cycle*: a blocking `Client::mttkrp` round trip for each of
//! the nine plan keys (three shapes of one size, every mode), each a part timed
//! on its own. The keys cost differently, so a statistic over all requests
//! would pick out the cheapest key; a cycle holds them all, and the reported
//! time is the mean over the keys of each key's quiet-box latency.

use super::{
    machine, median_us, one_thread_pool, plain_first, plan_lines, Checker, Layers, Operands,
    Workload,
};
use crate::stats::{median, percentile};
use crate::trace::{self_times, Tracer};
use mttkrp_dist::wire;
use mttkrp_exec::{mttkrp_native, Planner};
use mttkrp_serve::net::protocol;
use mttkrp_serve::{Client, NetConfig, NetServer, ServerConfig};
use mttkrp_tensor::Matrix;
use std::time::Instant;

/// Three shapes of 110 592 entries (0.84 MiB request frames), so every
/// request frames and copies the same bytes while the kernel sees three
/// aspect ratios.
const SHAPES: [[usize; 3]; 3] = [[48, 48, 48], [96, 48, 24], [24, 48, 96]];
const RANK: usize = 16;
const MODES: usize = 3;
/// Requests per cycle: every shape, every mode.
const KEYS: usize = SHAPES.len() * MODES;
/// Cycles sent before the clock starts.
const WARMUP_CYCLES: usize = 1;
/// The server's shed counter (`serve::net::listener::metric::SHED`).
const SHED_COUNTER: &str = "serve.net.shed";

/// A running front door, its one client, and the operands it is sent.
pub struct Socket {
    net: Option<NetServer>,
    client: Option<Client>,
    shapes: Vec<Operands>,
    /// [`Operands::direct`] per key, shape-major; a served output must equal
    /// it bit for bit.
    direct: Vec<Matrix>,
    /// Round trips made, warm-up included.
    sent: u64,
}

impl Socket {
    /// Starts the server (one worker), connects, and warms every plan key.
    pub fn new(seed: u64) -> Socket {
        let shapes: Vec<Operands> = SHAPES
            .iter()
            .enumerate()
            .map(|(i, dims)| Operands::random(dims, RANK, seed.wrapping_add(10 * i as u64)))
            .collect();
        let direct = shapes.iter().flat_map(Operands::direct).collect();
        let net = NetServer::start(NetConfig {
            server: ServerConfig {
                machine: machine(),
                workers: 1,
                ..ServerConfig::default()
            },
            ..NetConfig::default()
        })
        .expect("bind a loopback listener");
        let client = Client::connect(net.addr()).expect("connect to the listener");
        let mut socket = Socket {
            net: Some(net),
            client: Some(client),
            shapes,
            direct,
            sent: 0,
        };
        let mut warmup = Checker::default();
        socket.run(WARMUP_CYCLES, &mut warmup);
        socket
    }

    fn net(&self) -> &NetServer {
        self.net.as_ref().expect("server runs until drop")
    }

    /// One round trip for key `key`; a refused or failed request is `None`.
    fn request(&mut self, key: usize) -> Option<Matrix> {
        let ops = &self.shapes[key / MODES];
        self.sent += 1;
        self.client
            .as_mut()
            .expect("client lives until drop")
            .mttkrp(&ops.x, &ops.factors, key % MODES)
            .ok()
            .map(|reply| reply.output)
    }

    fn check_reply(&self, key: usize, reply: Option<Matrix>, check: &mut Checker) {
        match reply {
            Some(output) => check.bits(&output, &self.direct[key]),
            None => check.op(false),
        }
    }

    /// One cycle over the plan keys, each request timed and then checked.
    /// Every latency is divided by the number of keys, so that a cycle's
    /// parts add up to the mean latency of its requests in milliseconds.
    fn timed_cycle(&mut self, check: &mut Checker) -> Vec<f64> {
        (0..KEYS)
            .map(|key| {
                let start = Instant::now();
                let reply = self.request(key);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                self.check_reply(key, reply, check);
                ms / KEYS as f64
            })
            .collect()
    }
}

impl Drop for Socket {
    /// Says goodbye before the listener goes, then drains and joins it.
    fn drop(&mut self) {
        self.client.take();
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
    }
}

impl Workload for Socket {
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
        "request (mean over a cycle of 9 plan keys)"
    }

    fn plans(&self) -> Vec<String> {
        let planner = Planner::new(machine());
        SHAPES
            .iter()
            .flat_map(|dims| plan_lines(&planner, dims, RANK))
            .collect()
    }

    fn run(&mut self, samples: usize, check: &mut Checker) -> Vec<Vec<f64>> {
        (0..samples).map(|_| self.timed_cycle(check)).collect()
    }

    fn run_traced(
        &mut self,
        samples: usize,
        check: &mut Checker,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> (Vec<f64>, Vec<f64>) {
        let pool = one_thread_pool();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        // Where replayed frames are written: one buffer, kept across replays
        // as a socket's are, so that the replay allocates what the program
        // allocates and nothing more.
        let mut bytes = Vec::new();
        let (mut queued_us, mut exec_us, mut replays) = (0.0, 0.0, 0u64);

        for cycle in 0..samples {
            if plain_first(cycle) {
                plain.push(self.timed_cycle(check).iter().sum());
            }
            let mut cycle_us = 0.0;
            for key in 0..KEYS {
                let op = cycle * KEYS + key;
                let (reply, root) = tracer.time(None, "op.request", op, || self.request(key));
                cycle_us += tracer.spans()[root].dur_us;
                self.check_reply(key, reply, check);

                // Replay the request's path in this thread, one layer at a
                // time, on the same operands. What the socket adds (system
                // calls, copies through the kernel, thread hand-offs) has no
                // replay and stays behind as the root's self time.
                let ops = &self.shapes[key / MODES];
                let mode = key % MODES;
                let under = Some(root);
                let (frame, _) = tracer.time(under, "serve.proto.encode_req", op, || {
                    protocol::encode_mttkrp_request(1, &ops.x, &ops.factors, mode)
                });
                bytes.clear();
                tracer.time(under, "wire.write_req", op, || {
                    wire::write_frame(&mut bytes, &frame).expect("write to a Vec")
                });
                let (frame, _) = tracer.time(under, "wire.read_req", op, || {
                    wire::read_frame(&mut bytes.as_slice()).expect("read back a frame")
                });
                let (request, _) = tracer.time(under, "serve.proto.decode_req", op, || {
                    protocol::decode_mttkrp_request(&frame).expect("decode a request")
                });
                let server = self.net().server();
                let (response, call) =
                    tracer.time(under, "serve.inproc_call", op, || server.call(request));
                check.bits(&response.report.output, &self.direct[key]);
                queued_us += response.timing.queued.as_secs_f64() * 1e6;
                exec_us += response.timing.exec.as_secs_f64() * 1e6;
                replays += 1;
                let refs = ops.refs();
                tracer.time(Some(call), "exec.kernel", op, || {
                    mttkrp_native(&ops.x, &refs, mode, response.plan.native_tile(), &pool)
                });
                let (frame, _) = tracer.time(under, "serve.proto.encode_resp", op, || {
                    protocol::encode_mttkrp_response(1, &response)
                });
                bytes.clear();
                tracer.time(under, "wire.write_resp", op, || {
                    wire::write_frame(&mut bytes, &frame).expect("write to a Vec")
                });
                let (frame, _) = tracer.time(under, "wire.read_resp", op, || {
                    wire::read_frame(&mut bytes.as_slice()).expect("read back a frame")
                });
                tracer.time(under, "serve.proto.decode_resp", op, || {
                    protocol::decode_mttkrp_response(&frame).expect("decode a response")
                });
            }
            traced.push(cycle_us / 1e3 / KEYS as f64);
            if !plain_first(cycle) {
                plain.push(self.timed_cycle(check).iter().sum());
            }
        }

        for (metric, span) in [
            ("serve.proto.encode_req_us", "serve.proto.encode_req"),
            ("serve.proto.decode_req_us", "serve.proto.decode_req"),
            ("serve.proto.encode_resp_us", "serve.proto.encode_resp"),
            ("serve.proto.decode_resp_us", "serve.proto.decode_resp"),
            ("serve.inproc_call_us", "serve.inproc_call"),
        ] {
            layers.insert(metric, median_us(tracer, span));
        }
        layers.insert(
            "wire.write_us",
            median_us(tracer, "wire.write_req") + median_us(tracer, "wire.write_resp"),
        );
        layers.insert(
            "wire.read_us",
            median_us(tracer, "wire.read_req") + median_us(tracer, "wire.read_resp"),
        );
        let requests_us = tracer.durations("op.request");
        let request_us = median(&requests_us);
        // The tail and the rate of the closed loop (one client: the rate is
        // one over the mean latency). The tail on this box moves 15 % and
        // more between runs; both are there to be read.
        layers.insert("serve.req_ms_p99", percentile(&requests_us, 0.99) / 1e3);
        layers.insert(
            "serve.req_per_s",
            1e6 * requests_us.len() as f64 / requests_us.iter().sum::<f64>(),
        );
        let inproc_us = layers["serve.inproc_call_us"];
        layers.insert(
            "serve.inproc_over_execute",
            inproc_us / median_us(tracer, "exec.kernel"),
        );
        layers.insert("serve.socket_over_inproc", request_us / inproc_us);
        layers.insert("serve.queue_us", queued_us / replays as f64);
        layers.insert("serve.exec_us", exec_us / replays as f64);
        let (requests, unaccounted_us) = self_times(tracer.spans()).by_name["op.request"];
        layers.insert("serve.unaccounted_us", unaccounted_us / requests as f64);

        let stats = self.net().stats();
        layers.insert("serve.mean_batch", stats.mean_batch_size());
        layers.insert("serve.largest_batch", stats.largest_batch as f64);
        layers.insert(
            "serve.bytes_in_per_req",
            stats.bytes_in as f64 / self.sent as f64,
        );
        layers.insert(
            "serve.bytes_out_per_req",
            stats.bytes_out as f64 / self.sent as f64,
        );
        layers.insert(
            "serve.shed",
            self.net().metrics().counter_value(SHED_COUNTER) as f64,
        );
        layers.insert("exec.plan_cache.hits", stats.cache.hits as f64);
        layers.insert("exec.plan_cache.misses", stats.cache.misses as f64);
        layers.insert(
            "exec.plan_cache.hit_rate",
            stats.cache.hit_rate().unwrap_or(0.0),
        );
        (plain, traced)
    }
}
