//! Property tests for the telemetry histograms (insert/merge/quantile
//! invariants and sk-snap round trips) and for the JSON writer, whose
//! output the parser must read back as the value written.

use proptest::prelude::*;
use sk_obs::hist::{bucket_ceil, bucket_floor, bucket_of, N_BUCKETS};
use sk_obs::json::{parse, Json};
use sk_obs::Histogram;
use sk_snap::{Persist, Reader, Writer};

fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A JSON value decoded from `tape`: each word picks a kind and its
/// payload. Strings draw on quotes, backslashes, control and non-ASCII
/// characters; floats on integral values and every finite bit pattern.
fn json_from(tape: &mut impl Iterator<Item = u64>, depth: u32) -> Json {
    const CHARS: [char; 10] = ['a', 'Z', '"', '\\', '\n', '\u{1}', '\u{1f}', '/', 'µ', '→'];
    let Some(w) = tape.next() else { return Json::Null };
    let text = |w: u64| (0..w % 6).map(|i| CHARS[((w >> (8 * i + 3)) % 10) as usize]).collect();
    let len = if depth < 4 { (w >> 3) % 4 } else { 0 };
    match w % 7 {
        0 => Json::Null,
        1 => Json::Bool(w & 8 != 0),
        2 => Json::Int(w as i64),
        3 if w & 8 == 0 => Json::Float((w >> 40) as f64 - 8e6),
        3 => Some(f64::from_bits(w)).filter(|f| f.is_finite()).map_or(Json::Null, Json::Float),
        4 => Json::Str(text(w)),
        5 => Json::Arr((0..len).map(|_| json_from(tape, depth + 1)).collect()),
        _ => Json::Obj(
            (0..len)
                .map(|i| (text(w.rotate_right(8 * i as u32)), json_from(tape, depth + 1)))
                .collect(),
        ),
    }
}

proptest! {
    /// Aggregates follow the recorded stream exactly, and every value
    /// falls inside its bucket's [floor, ceil] range.
    #[test]
    fn insert_aggregates_and_buckets(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let h = hist_of(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        let expect_sum = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        prop_assert_eq!(h.sum(), expect_sum);
        if values.is_empty() {
            prop_assert!(h.is_empty());
            prop_assert_eq!(h.min(), None);
            prop_assert_eq!(h.max(), None);
        } else {
            prop_assert_eq!(h.min(), values.iter().min().copied());
            prop_assert_eq!(h.max(), values.iter().max().copied());
        }
        for &v in &values {
            let b = bucket_of(v);
            prop_assert!(b < N_BUCKETS);
            prop_assert!(bucket_floor(b) <= v && v <= bucket_ceil(b),
                "value {} outside bucket {} range [{}, {}]",
                v, b, bucket_floor(b), bucket_ceil(b));
        }
        let bucket_total: u64 = h.nonzero_buckets().iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, values.len() as u64);
    }

    /// Merging two histograms equals the histogram of the concatenated
    /// streams.
    #[test]
    fn merge_is_concatenation(
        a in proptest::collection::vec(any::<u64>(), 0..100),
        b in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let ha = hist_of(&a);
        let hb = hist_of(&b);
        ha.merge_from(&hb);
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        prop_assert!(ha.same_as(&hist_of(&ab)));
    }

    /// Quantiles are clamped into [min, max] and monotone in q.
    #[test]
    fn quantiles_bounded_and_monotone(
        values in proptest::collection::vec(0u64..1_000_000, 1..200),
        qs in proptest::collection::vec(0u32..=100, 1..8),
    ) {
        let h = hist_of(&values);
        let lo = h.min().unwrap();
        let hi = h.max().unwrap();
        let mut sorted = qs.clone();
        sorted.sort_unstable();
        let mut prev = None;
        for qi in sorted {
            let q = qi as f64 / 100.0;
            let v = h.quantile(q);
            prop_assert!(lo <= v && v <= hi, "q{} = {} outside [{}, {}]", q, v, lo, hi);
            if let Some(p) = prev {
                prop_assert!(v >= p, "quantile not monotone: q{} gave {} after {}", q, v, p);
            }
            prev = Some(v);
        }
        // The quantile estimate never misses the true rank value by more
        // than one power-of-two bucket: the true value's bucket ceiling
        // (clamped the same way) IS the estimate.
        let mut vs = values.clone();
        vs.sort_unstable();
        let rank = ((0.5 * vs.len() as f64).ceil() as usize).max(1) - 1;
        let true_median = vs[rank];
        let est = h.quantile(0.5);
        prop_assert!(est >= true_median.min(hi) || bucket_of(est) >= bucket_of(true_median));
    }

    /// Histograms survive a sk-snap save/load round trip bit-exactly.
    #[test]
    fn persist_round_trip(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let h = hist_of(&values);
        let mut w = Writer::new();
        h.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = Histogram::load(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert!(h.same_as(&back));
        prop_assert_eq!(h.count(), back.count());
        prop_assert_eq!(h.sum(), back.sum());
        prop_assert_eq!(h.min(), back.min());
        prop_assert_eq!(h.max(), back.max());
    }

    /// The writer's output reads back as the value written, bit for bit
    /// on floats.
    #[test]
    fn json_writer_round_trips_through_the_parser(
        tape in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let v = json_from(&mut tape.into_iter(), 0);
        let text = v.to_string();
        let back = parse(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
        prop_assert_eq!(back.to_string(), text);
        prop_assert_eq!(back, v);
    }
}
