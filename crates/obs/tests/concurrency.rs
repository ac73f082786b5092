//! Concurrency proptests: the counters must never lose an increment no
//! matter how many threads hammer them, how the increments are sized, or
//! how the work is split — and the span log must keep exactly its newest
//! spans, hand each span to one drain, and give every job back its own
//! spans while many threads emit and another collects.

use mmc_obs::span::{self, SpanKind, SpanLog, SpanRecord};
use mmc_obs::{Counter, Gauge, Registry};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// A record whose every field is derived from one index, so a test can
/// tell which push a record came from and that it came back whole.
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

/// The pushes with indices `lo..hi`, as [`coded`] records.
fn coded_range(lo: u64, hi: u64) -> Vec<SpanRecord> {
    (lo..hi).map(coded).collect()
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

    /// A small log keeps exactly the newest `capacity` spans, in push
    /// order, however far the pushes wrap it; a job whose only span was
    /// overwritten collects nothing.
    #[test]
    fn log_overwrite_keeps_the_newest_capacity_spans_in_push_order(
        capacity in 1usize..64,
        pushes in 0u64..2_000,
    ) {
        let mut log = SpanLog::new(capacity);
        for i in 0..pushes {
            log.push(coded(i));
        }
        prop_assert_eq!(log.pushed(), pushes);
        let lo = pushes.saturating_sub(capacity as u64);
        prop_assert_eq!(log.drain(), coded_range(lo, pushes));
        if pushes > 0 {
            // `coded(i)` is job `i`.
            prop_assert_eq!(log.collect_job(pushes - 1), vec![coded(pushes - 1)]);
        }
        if lo > 0 {
            prop_assert!(log.collect_job(lo - 1).is_empty());
        }
    }

    /// Successive drains partition the pushes: each returns exactly the
    /// spans pushed since the previous drain that the log still holds
    /// (the newest `min(batch, capacity)`), so no span is reported twice
    /// and the last one pushed is always reported.
    #[test]
    fn log_drains_partition_the_pushes(
        capacity in 1usize..48,
        batches in prop::collection::vec(0u64..96, 1..8),
    ) {
        let mut log = SpanLog::new(capacity);
        let mut next = 0u64;
        let mut reported: Vec<u64> = Vec::new();
        for batch in &batches {
            let first = next;
            for _ in 0..*batch {
                log.push(coded(next));
                next += 1;
            }
            let got = log.drain();
            let lo = first.max(next.saturating_sub(capacity as u64));
            prop_assert_eq!(&got, &coded_range(lo, next));
            reported.extend(got.iter().map(|r| r.job));
        }
        prop_assert!(reported.windows(2).all(|w| w[0] < w[1]), "{reported:?}");
        if next > 0 {
            prop_assert_eq!(reported.last().copied(), Some(next - 1));
        }
        prop_assert!(log.drain().is_empty());
    }
}

/// Long-lived emitting threads (indices `0..LONG`) and the spans each
/// emits; short-lived ones take the next `SHORT` indices.
const LONG: u32 = 3;
const LONG_SPANS: u32 = 400;
const SHORT: u32 = 200;
const SHORT_SPANS: u32 = 4;

/// The record thread `t` emits as its `i`-th span: jobs alternate with
/// `i`, and the start time is unique, so collections sort by it alone.
fn emitted(t: u32, i: u32, jobs: [u64; 2]) -> SpanRecord {
    SpanRecord {
        job: jobs[(i % 2) as usize],
        kind: if t < LONG { SpanKind::Tile } else { SpanKind::Read },
        thread: Some(t),
        start_ns: 1_000 * u64::from(t) + u64::from(i),
        dur_ns: u64::from(i),
        pred: u64::from(t),
        val: u64::from(t) + u64::from(i),
        args: [t, i, 0, 0],
    }
}

fn emit_record(r: &SpanRecord) {
    span::emit(r.job, r.kind, r.thread, r.start_ns, r.dur_ns, r.pred, r.val, r.args);
}

/// Three long-lived and 200 short-lived threads emit two interleaved
/// jobs into the one process-wide log while another thread collects
/// and drains it all the while. Every collection returns only whole
/// records of its job; afterwards `collect_job` returns each job's
/// spans exactly and the drains together returned every span once.
#[test]
fn one_log_serves_many_emitters_and_a_concurrent_collector() {
    let jobs = [span::new_job(), span::new_job()];
    let mut expect: [Vec<SpanRecord>; 2] = [Vec::new(), Vec::new()];
    for t in 0..LONG + SHORT {
        for i in 0..if t < LONG { LONG_SPANS } else { SHORT_SPANS } {
            expect[(i % 2) as usize].push(emitted(t, i, jobs));
        }
    }
    for e in &mut expect {
        e.sort_by_key(|r| r.start_ns);
    }

    let done = AtomicBool::new(false);
    let start = Barrier::new(LONG as usize + 2);
    let drained = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            start.wait();
            let mut drained = Vec::new();
            while !done.load(Ordering::Acquire) {
                for (j, job) in jobs.iter().enumerate() {
                    for r in span::collect_job(*job) {
                        let (t, i) = (r.args[0], r.args[1]);
                        assert_eq!(r, emitted(t, i, jobs));
                        assert_eq!(i % 2, j as u32);
                    }
                }
                drained.extend(span::drain());
            }
            drained
        });
        let mut emitters: Vec<_> = (0..LONG)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for i in 0..LONG_SPANS {
                        emit_record(&emitted(t, i, jobs));
                    }
                })
            })
            .collect();
        emitters.push(s.spawn(|| {
            start.wait();
            for t in LONG..LONG + SHORT {
                std::thread::spawn(move || {
                    for i in 0..SHORT_SPANS {
                        emit_record(&emitted(t, i, jobs));
                    }
                })
                .join()
                .unwrap();
            }
        }));
        for e in emitters {
            e.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let mut drained = collector.join().unwrap();
        drained.extend(span::drain());
        drained
    });

    for (j, job) in jobs.iter().enumerate() {
        assert_eq!(span::collect_job(*job), expect[j]);
    }
    let mut drained: Vec<SpanRecord> =
        drained.into_iter().filter(|r| jobs.contains(&r.job)).collect();
    drained.sort_by_key(|r| r.start_ns);
    let mut all: Vec<SpanRecord> = expect.concat();
    all.sort_by_key(|r| r.start_ns);
    assert_eq!(drained, all);
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
