//! Property tests for the histogram implementation.
//!
//! Invariants:
//! - bucket bounds are strictly increasing (construction rejects
//!   anything else, and sorted-deduped generated bounds are accepted);
//! - every observation lands in exactly one bucket: the per-bucket
//!   totals always sum to `count`, and `sum` is the exact total of the
//!   observed values;
//! - each observation lands in the *correct* bucket (first bound `>=`
//!   value, else overflow), checked against a naive reference;
//! - snapshots are insensitive to recording order.
//!
//! Every case records through a [`Histogram`] handle built with the
//! generated bounds.

use aide_obs::{Histogram, MetricsRegistry};
use proptest::prelude::*;

/// Sorted, deduplicated, non-empty bounds.
fn bounds_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10_000, 1..10).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// A handle on `h` with `bounds`. Handles take `'static` bounds; each
/// generated case leaks its few words.
fn handle(bounds: &[u64]) -> Histogram {
    Histogram::with_bounds("h", Box::leak(bounds.to_vec().into_boxed_slice()))
}

/// Reference bucketing: index of the first bound `>=` value, else the
/// overflow slot.
fn reference_bucket(bounds: &[u64], value: u64) -> usize {
    bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(bounds.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bucket_totals_preserve_count_and_sum(
        bounds in bounds_strategy(),
        values in proptest::collection::vec(0u64..20_000, 0..60),
    ) {
        let (r, h) = (MetricsRegistry::new(), handle(&bounds));
        for &v in &values {
            r.observe(&h, v);
        }
        let snap = r.snapshot();
        if values.is_empty() {
            prop_assert!(snap.histograms.is_empty() || snap.histograms["h"].count == 0);
        } else {
            let h = &snap.histograms["h"];
            prop_assert_eq!(h.bounds.clone(), bounds.clone(), "bounds preserved");
            prop_assert!(h.bounds.windows(2).all(|w| w[0] < w[1]), "bounds monotone");
            prop_assert_eq!(h.buckets.len(), bounds.len() + 1);
            prop_assert_eq!(h.buckets.iter().sum::<u64>(), values.len() as u64);
            prop_assert_eq!(h.count, values.len() as u64);
            prop_assert_eq!(h.sum, values.iter().sum::<u64>());
        }
    }

    #[test]
    fn observations_land_in_the_reference_bucket(
        bounds in bounds_strategy(),
        values in proptest::collection::vec(0u64..20_000, 1..60),
    ) {
        let (r, h) = (MetricsRegistry::new(), handle(&bounds));
        let mut want = vec![0u64; bounds.len() + 1];
        for &v in &values {
            r.observe(&h, v);
            want[reference_bucket(&bounds, v)] += 1;
        }
        prop_assert_eq!(r.snapshot().histograms["h"].buckets.clone(), want);
    }

    #[test]
    fn snapshot_is_recording_order_independent(
        bounds in bounds_strategy(),
        values in proptest::collection::vec(0u64..20_000, 1..40),
    ) {
        let h = handle(&bounds);
        let fwd = MetricsRegistry::new();
        for &v in &values {
            fwd.observe(&h, v);
        }
        let rev = MetricsRegistry::new();
        for &v in values.iter().rev() {
            rev.observe(&h, v);
        }
        prop_assert_eq!(fwd.snapshot(), rev.snapshot());
        prop_assert_eq!(fwd.render_json(), rev.render_json());
    }
}
