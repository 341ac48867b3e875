//! Property tests for the metrics histogram: percentiles against an exact
//! sorted-reference implementation, merge associativity, and the empty /
//! one-sample edge cases the bucket walk must get right.

use proptest::prelude::*;
use shasta_obs::metrics::Histogram;

/// The specification the histogram promises: nearest-rank percentile at
/// log₂-bucket resolution, clamped to the exact max. Computed here from
/// the raw sorted samples, with its own copies of the bucket maths, so a
/// bug in `Histogram`'s incremental bookkeeping cannot hide in a shared
/// helper.
fn reference_percentile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let rank = (((q / 100.0) * n as f64).ceil() as u64).clamp(1, n);
    let v = sorted[(rank - 1) as usize];
    let bucket = (64 - v.leading_zeros()) as usize;
    let upper = match bucket {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    };
    Some(upper.min(*sorted.last().unwrap()))
}

fn from_samples(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Samples spanning bucket 0, the small exact buckets, and wide ones —
/// `u64` values with a log-uniform-ish spread via a shifted range.
fn sample_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u32..63, 0u64..1024).prop_map(|(shift, lo)| lo.wrapping_shl(shift)),
        0..200,
    )
}

proptest! {
    #[test]
    fn percentiles_match_sorted_reference(samples in sample_strategy()) {
        let h = from_samples(&samples);
        for q in [0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            prop_assert_eq!(
                h.percentile(q),
                reference_percentile(&samples, q),
                "q = {}, n = {}",
                q,
                samples.len()
            );
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), samples.iter().copied().min());
        prop_assert_eq!(h.max(), samples.iter().copied().max());
        prop_assert_eq!(h.sum(), samples.iter().fold(0u64, |a, &b| a.saturating_add(b)));
    }

    #[test]
    fn merge_is_associative_and_matches_concatenation(
        a in sample_strategy(),
        b in sample_strategy(),
        c in sample_strategy(),
    ) {
        let (ha, hb, hc) = (from_samples(&a), from_samples(&b), from_samples(&c));

        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);

        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);

        prop_assert_eq!(&left, &right);

        // Both equal recording the concatenated sample stream directly.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &from_samples(&all));
        for q in [50.0, 95.0, 99.0] {
            prop_assert_eq!(left.percentile(q), reference_percentile(&all, q));
        }
    }

    #[test]
    fn merging_empty_is_identity(samples in sample_strategy()) {
        let h = from_samples(&samples);
        let mut merged = h.clone();
        merged.merge(&Histogram::new());
        prop_assert_eq!(&merged, &h);
        let mut from_empty = Histogram::new();
        from_empty.merge(&h);
        prop_assert_eq!(&from_empty, &h);
    }

    #[test]
    fn one_sample_is_reported_exactly(v in (0u32..63, 0u64..1024).prop_map(|(s, lo)| lo.wrapping_shl(s))) {
        let mut h = Histogram::new();
        h.record(v);
        for q in [0.0, 50.0, 95.0, 99.0, 100.0] {
            prop_assert_eq!(h.percentile(q), Some(v), "q = {}", q);
        }
        prop_assert_eq!((h.min(), h.max(), h.count(), h.sum()), (Some(v), Some(v), 1, v));
    }
}

#[test]
fn empty_histogram_has_no_percentiles() {
    let h = Histogram::new();
    for q in [0.0, 50.0, 99.0, 100.0] {
        assert_eq!(h.percentile(q), None);
    }
    assert_eq!((h.count(), h.min(), h.max()), (0, None, None));
}
