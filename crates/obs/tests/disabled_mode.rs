//! Property: with tracing disabled, *no* sequence of emission calls leaves
//! any observable residue — the next capture starts from a perfectly clean
//! slate. This is what makes it safe to leave instrumentation compiled into
//! every layer unconditionally.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disabled_emissions_leave_no_residue(
        ops in prop::collection::vec((0u8..4, 0u64..1_000_000), 0..64),
    ) {
        prop_assert!(!mttkrp_obs::enabled());
        // Fire an arbitrary interleaving of every emission helper.
        for &(kind, v) in &ops {
            match kind {
                0 => {
                    let mut s = mttkrp_obs::span("kernel");
                    prop_assert!(!s.is_active());
                    prop_assert!(s.id().is_none());
                    s.record("mode", v);
                }
                1 => mttkrp_obs::counter_add("prop.counter", v),
                2 => mttkrp_obs::gauge_add("prop.gauge", v as i64 - 500_000),
                _ => mttkrp_obs::histogram_record("prop.hist", v),
            }
        }
        // A capture opened afterwards sees exactly nothing.
        let rec = mttkrp_obs::capture().finish();
        prop_assert!(rec.spans.is_empty(), "spans leaked: {}", rec.spans.len());
        prop_assert!(rec.metrics.is_empty(), "metrics leaked: {}", rec.metrics.len());
    }
}
