//! Metrics keep one cell per thread slot, and a thread gives its slot back
//! when it exits. A thousand short-lived threads, a few alive at a time,
//! each update a counter, a gauge, a histogram and a labeled member of one
//! registry; the registry's snapshot must equal the snapshot of the same
//! updates made one after another on one thread. An update lost when a
//! slot changes hands, or counted twice in a reused cell, shows here.

use mttkrp_obs::MetricsRegistry;

const THREADS: u64 = 1000;
/// Threads alive at once.
const WAVE: u64 = 8;

/// Thread `t`'s updates, through handles resolved on that thread (odd
/// `t`) or by name (even `t`).
fn update(reg: &MetricsRegistry, t: u64) {
    let label = format!("shape{}", t % 5);
    let (v, delta) = (t * 37 % 1009, t as i64 - 500);
    if t % 2 == 1 {
        reg.counter_handle("churn.requests").add(t + 1);
        reg.gauge_handle("churn.depth").add(delta);
        reg.histogram_handle("churn.exec_us").record(v);
        reg.labeled_handle("churn.exec_us.shape", &label).record(v);
    } else {
        reg.counter_add("churn.requests", t + 1);
        reg.gauge_add("churn.depth", delta);
        reg.histogram_record("churn.exec_us", v);
        reg.histogram_record_labeled("churn.exec_us.shape", &label, v);
    }
}

#[test]
fn a_thousand_short_lived_threads_fold_like_one() {
    let churned = MetricsRegistry::new();
    for wave in 0..THREADS / WAVE {
        std::thread::scope(|scope| {
            for t in wave * WAVE..(wave + 1) * WAVE {
                let churned = &churned;
                scope.spawn(move || update(churned, t));
            }
        });
    }

    let serial = MetricsRegistry::new();
    for t in 0..THREADS {
        update(&serial, t);
    }
    let snapshot = churned.snapshot();
    assert_eq!(snapshot.len(), 3 + 5, "three metrics and five labels");
    assert_eq!(snapshot, serial.snapshot());
    assert_eq!(
        churned.counter_value("churn.requests"),
        THREADS * (THREADS + 1) / 2
    );
    assert_eq!(churned.histogram("churn.exec_us").count, THREADS);
}
