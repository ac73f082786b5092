//! Concurrency proptests: the sharded counters must never lose an
//! increment no matter how many threads hammer them, how the increments
//! are sized, or how the work is split — and the span ring's seqlock
//! must never hand a reader a torn record, no matter how the writer's
//! overwrites interleave with concurrent scans.

use mmc_obs::span::{SpanKind, SpanRecord, ThreadRing};
use mmc_obs::{Counter, Gauge, Registry};
use proptest::prelude::*;
use std::sync::Arc;

/// A record whose every field is derived from one index, so a reader
/// can prove the record it got back is internally consistent (untorn).
fn coded(i: u64) -> SpanRecord {
    SpanRecord {
        job: i,
        kind: SpanKind::ALL[(i % 10) as usize],
        thread: if i.is_multiple_of(4) { None } else { Some(i as u32) },
        start_ns: i.wrapping_mul(3),
        dur_ns: i ^ 0xABCD_1234,
        pred: i.wrapping_mul(7),
        val: i.wrapping_mul(11),
        args: [i as u32, (i >> 1) as u32, (i >> 2) as u32, (i >> 3) as u32],
    }
}

/// The tear check: every field must agree with the record's `job` index.
fn assert_coded(r: &SpanRecord) {
    let expect = coded(r.job);
    assert_eq!(*r, expect, "torn record for index {}", r.job);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// N threads x M increments of arbitrary size: the final sum is the
    /// exact total, for any interleaving the scheduler produces.
    #[test]
    fn sharded_counter_never_drops_increments(
        threads in 1usize..12,
        per_thread in prop::collection::vec(0u64..1_000_000, 1..64),
    ) {
        let counter = Arc::new(Counter::new());
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&counter);
                let incs = per_thread.clone();
                std::thread::spawn(move || {
                    for &n in &incs {
                        c.add(n);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = threads as u64 * per_thread.iter().sum::<u64>();
        prop_assert_eq!(counter.get(), expected);
    }

    /// Histograms observed from many threads keep count and sum exact,
    /// and the bucket totals always add up to the count.
    #[test]
    fn concurrent_histogram_totals_stay_exact(
        threads in 1usize..8,
        values in prop::collection::vec(0u64..1_000_000_000, 1..48),
    ) {
        let registry = Arc::new(Registry::new());
        let hist = registry.histogram("h");
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let h = Arc::clone(&hist);
                let vals = values.clone();
                std::thread::spawn(move || {
                    for &v in &vals {
                        h.observe(v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let full = registry.snapshot();
        let snap = full.histogram("h").expect("histogram registered");
        let n = threads as u64 * values.len() as u64;
        prop_assert_eq!(snap.count, n);
        prop_assert_eq!(snap.sum, threads as u64 * values.iter().sum::<u64>());
        prop_assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), n);
    }

    /// Interleaved registration and mutation through a shared registry:
    /// every name interns to the same instrument, so per-name totals are
    /// exact even when threads race to create them.
    #[test]
    fn registry_interning_is_race_free(
        threads in 2usize..10,
        adds in 1u64..500,
    ) {
        let registry = Arc::new(Registry::new());
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let r = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for _ in 0..adds {
                        r.counter("shared.total").add(1);
                        r.gauge("shared.level").add(1);
                    }
                    r.counter(&format!("private.{i}")).add(adds);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = registry.snapshot();
        prop_assert_eq!(snap.counter("shared.total"), Some(threads as u64 * adds));
        prop_assert_eq!(snap.gauge("shared.level"), Some((threads as u64 * adds) as i64));
        for i in 0..threads {
            prop_assert_eq!(snap.counter(&format!("private.{i}")), Some(adds));
        }
    }

    /// One writer overwriting a small ring while reader threads scan it
    /// continuously: no scan ever returns a torn record (nor, for a
    /// job-filtered scan, another job's record), and a quiescent scan
    /// afterwards returns exactly the most recent `capacity` spans in
    /// push order.
    #[test]
    fn ring_scans_never_tear_under_concurrent_overwrite(
        capacity in 1usize..64,
        pushes in 1u64..2_000,
        readers in 1usize..4,
    ) {
        let ring = Arc::new(ThreadRing::new(capacity));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let r = Arc::clone(&ring);
                let s = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    let mut hits = Vec::new();
                    while !s.load(std::sync::atomic::Ordering::Acquire) {
                        for rec in r.scan() {
                            assert_coded(&rec);
                            seen += 1;
                        }
                        // `coded(i)` is job `i`: ask for one that lives
                        // in the ring for a while, then is overwritten.
                        hits.clear();
                        r.scan_job(pushes / 2, &mut hits);
                        for rec in &hits {
                            assert_coded(rec);
                            assert_eq!(rec.job, pushes / 2);
                        }
                    }
                    seen
                })
            })
            .collect();
        for i in 0..pushes {
            ring.push(&coded(i));
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        // Quiescent scan: exactly the newest min(pushes, capacity) spans,
        // in push order, none torn.
        let live = ring.scan();
        let expect_lo = pushes.saturating_sub(capacity as u64);
        prop_assert_eq!(live.len() as u64, pushes - expect_lo);
        for (offset, rec) in live.iter().enumerate() {
            assert_coded(rec);
            prop_assert_eq!(rec.job, expect_lo + offset as u64);
        }
        prop_assert_eq!(ring.head(), pushes);
        let mut newest = Vec::new();
        ring.scan_job(pushes - 1, &mut newest);
        prop_assert_eq!(newest, vec![coded(pushes - 1)]);
    }

    /// The consuming sweep never double-reports and never skips a span
    /// that was still live at sweep time: consecutive `collect_new`
    /// calls partition the pushed indices (modulo overwrite loss, which
    /// can only drop the *oldest* spans between sweeps).
    #[test]
    fn ring_collect_new_partitions_pushes(
        capacity in 1usize..48,
        batches in prop::collection::vec(1u64..96, 1..8),
    ) {
        let ring = ThreadRing::new(capacity);
        let mut next = 0u64;
        let mut collected: Vec<u64> = Vec::new();
        for batch in &batches {
            for _ in 0..*batch {
                ring.push(&coded(next));
                next += 1;
            }
            for rec in ring.collect_new() {
                assert_coded(&rec);
                collected.push(rec.job);
            }
        }
        // No duplicates, strictly increasing (each sweep resumes past
        // the watermark), and the final span is always reported.
        prop_assert!(collected.windows(2).all(|w| w[0] < w[1]), "{collected:?}");
        prop_assert_eq!(*collected.last().unwrap(), next - 1);
        // A sweep after quiescence finds nothing left.
        prop_assert!(ring.collect_new().is_empty());
        // Only overwrite can lose spans, and it only loses the oldest:
        // each batch contributes at least its newest min(batch, capacity).
        let min_kept: u64 =
            batches.iter().map(|b| (*b).min(capacity as u64)).sum();
        prop_assert!(collected.len() as u64 >= min_kept, "{} < {min_kept}", collected.len());
    }
}

/// A non-proptest sanity check that gauges tolerate concurrent set/add
/// without tearing (the last set wins, adds on top remain bounded).
#[test]
fn gauge_concurrent_set_and_add_is_sane() {
    let gauge = Arc::new(Gauge::new());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let g = Arc::clone(&gauge);
            std::thread::spawn(move || {
                for i in 0..1000i64 {
                    g.set(i);
                    g.add(1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let v = gauge.get();
    assert!((0..=1004).contains(&v), "gauge value {v} out of plausible range");
}
