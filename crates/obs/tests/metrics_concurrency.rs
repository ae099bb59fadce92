//! A histogram's min and max load their cell before they touch it, and
//! store only when the value moves. Four threads that keep setting new
//! minima and maxima into one histogram, in lock step, must leave exactly
//! what the same values recorded one after another leave: a skipped update
//! that should have landed shows here.

use mttkrp_obs::MetricsRegistry;
use std::sync::Barrier;

const THREADS: u64 = 4;
const ROUNDS: u64 = 500;
const MID: u64 = 1 << 20;

/// What thread `t` records in round `i`: a new maximum and a new minimum,
/// interleaved with every other thread's in the same round.
fn values(t: u64, i: u64) -> [u64; 2] {
    let step = THREADS * i + t + 1;
    [MID + step, MID - step]
}

#[test]
fn concurrent_minima_and_maxima_land_as_the_serial_fold() {
    let registry = MetricsRegistry::new();
    let histogram = registry.histogram_handle("test.latency_us");
    let round = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (histogram, round) = (&histogram, &round);
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    round.wait();
                    for v in values(t, i) {
                        histogram.record(v);
                    }
                }
            });
        }
    });

    let serial = MetricsRegistry::new();
    let fold = serial.histogram_handle("test.latency_us");
    for i in 0..ROUNDS {
        for t in 0..THREADS {
            for v in values(t, i) {
                fold.record(v);
            }
        }
    }
    let (got, want) = (histogram.snapshot(), fold.snapshot());
    assert_eq!(got.count, THREADS * ROUNDS * 2);
    assert_eq!(got.min, MID - THREADS * ROUNDS);
    assert_eq!(got.max, MID + THREADS * ROUNDS);
    assert_eq!(got, want, "count, sum, min, max and buckets");
}
