//! The benchmark's arithmetic: tail choice, self time, tile imbalance
//! and throughput aggregation.

use mmc_perfbench::layers::self_time_of;
use mmc_perfbench::stats::{
    fingerprint, fingerprint_update, gflops, imbalance_parts, median, nearest_rank, self_time,
    tail, tail_percentile, Interval, FINGERPRINT_SEED,
};
use mmc_perfbench::Rng;
use multicore_matmul::obs::span::{SpanKind, SpanRecord};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 1000 samples: p99 leaves exactly 10 beyond; p100 would leave none.
    assert_eq!(tail_percentile(1000), Some(99.0));
    // 132 samples: p92 has rank 122 (10 beyond), p93 has rank 123 (9).
    assert_eq!(tail_percentile(132), Some(92.0));
    // 20 samples: p50 has rank 10, so exactly 10 beyond.
    assert_eq!(tail_percentile(20), Some(50.0));
    // 11 samples: only p1..p9 (rank 1) leave 10 beyond.
    assert_eq!(tail_percentile(11), Some(9.0));
    assert_eq!(tail_percentile(10), None);
    assert_eq!(tail_percentile(0), None);

    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&samples).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond, t.samples), (99.0, 990.0, 10, 1000));
    for n in [11, 20, 57, 132, 480, 1000, 4321] {
        let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = tail(&samples).unwrap();
        assert!(t.beyond >= 10, "n={n}: {t:?}");
        // One percentile higher would leave fewer than ten beyond.
        let next = ((t.percentile + 1.0) / 100.0 * n as f64).ceil() as usize;
        assert!(t.percentile == 99.0 || n - next < 10, "n={n}: {t:?}");
    }
}

#[test]
fn too_few_samples_fall_back_to_the_maximum() {
    let t = tail(&[3.0, 1.0, 2.0]).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond, t.samples), (100.0, 3.0, 0, 3));
    assert!(tail(&[]).is_none());
}

#[test]
fn order_statistics() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    let s: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&s, 50.0), 5.0);
    assert_eq!(nearest_rank(&s, 91.0), 10.0);
    assert_eq!(nearest_rank(&s, 1.0), 1.0);
}

#[test]
fn self_time_subtracts_the_union_of_child_coverage() {
    let parent = Interval { start: 100, end: 200 };
    assert_eq!(self_time(parent, &[]), 100);
    // Two overlapping children cover 120..160 once, not twice.
    let kids = [Interval { start: 120, end: 150 }, Interval { start: 140, end: 160 }];
    assert_eq!(self_time(parent, &kids), 60);
    // Children are clipped to the parent; disjoint ones add up.
    let kids = [
        Interval { start: 50, end: 110 },
        Interval { start: 170, end: 180 },
        Interval { start: 190, end: 400 },
    ];
    assert_eq!(self_time(parent, &kids), 100 - 10 - 10 - 10);
    // A child covering everything leaves no self time.
    assert_eq!(self_time(parent, &[Interval { start: 0, end: 1000 }]), 0);
    assert_eq!(Interval::from_dur(5, 10), Interval { start: 5, end: 15 });
}

fn span(kind: SpanKind, thread: Option<u32>, start_ns: u64, dur_ns: u64) -> SpanRecord {
    SpanRecord { job: 1, kind, thread, start_ns, dur_ns, pred: 0, val: 0, args: [0; 4] }
}

#[test]
fn span_self_time_only_counts_nested_spans_on_the_same_thread() {
    let spans = [
        // A pc span on thread 0 with a pack_a and an ic span inside it.
        span(SpanKind::LoopPc, Some(0), 0, 100),
        span(SpanKind::PackA, Some(0), 0, 20),
        span(SpanKind::LoopIc, Some(0), 20, 70),
        // The same window on thread 1 must not count against thread 0.
        span(SpanKind::PackA, Some(1), 30, 50),
        // A span starting inside but ending outside is not nested.
        span(SpanKind::PackB, Some(0), 95, 50),
    ];
    assert_eq!(self_time_of(SpanKind::LoopPc, &spans), 10);
    // ic spans have no children: their self time is their length.
    assert_eq!(self_time_of(SpanKind::LoopIc, &spans), 70);
    assert_eq!(self_time_of(SpanKind::Tile, &spans), 0);
}

#[test]
fn tile_imbalance_is_busiest_worker_over_mean_of_all_workers() {
    let imbalance = |busy: &[f64], workers| {
        let (max, mean) = imbalance_parts(busy, workers);
        max / mean
    };
    // One tile on one of two workers: twice the mean.
    assert_eq!(imbalance(&[8.0], 2), 2.0);
    assert_eq!(imbalance(&[5.0, 5.0], 2), 1.0);
    assert_eq!(imbalance(&[6.0, 2.0], 2), 1.5);
    // More busy threads than the nominal worker count: use what ran.
    assert_eq!(imbalance(&[3.0, 3.0, 3.0], 2), 1.0);
    assert_eq!(imbalance_parts(&[], 2), (0.0, 0.0));
}

#[test]
fn ladder_throughput_is_total_flops_over_total_time() {
    // Sixteen 1-GFLOP calls at 0.1 s and one 16-GFLOP call at 0.8 s:
    // 32 GFLOP in 2.4 s, not the mean of the per-call rates.
    let mut ops = vec![(1e9, 0.1); 16];
    ops.push((16e9, 0.8));
    let agg = gflops(&ops);
    assert!((agg - 32.0 / 2.4).abs() < 1e-9, "{agg}");
    let mean_rate = ops.iter().map(|(f, s)| f / s / 1e9).sum::<f64>() / ops.len() as f64;
    assert!((mean_rate - agg).abs() > 0.5, "a per-call mean would differ: {mean_rate}");
    assert_eq!(gflops(&[]), 0.0);
}

#[test]
fn fingerprints_fold_and_see_bit_patterns() {
    let v = [1.0, -0.0, 2.5, f64::MIN_POSITIVE];
    let whole = fingerprint(&v);
    let split = fingerprint_update(fingerprint_update(FINGERPRINT_SEED, &v[..1]), &v[1..]);
    assert_eq!(whole, split);
    assert_ne!(fingerprint(&[0.0]), fingerprint(&[-0.0]));
    assert_ne!(fingerprint(&[1.0, 2.0]), fingerprint(&[2.0, 1.0]));
}

#[test]
fn the_seed_fixes_every_random_choice() {
    let draw = |seed| {
        let mut r = Rng::new(seed, 7);
        let mut v: Vec<u32> = (0..20).collect();
        r.shuffle(&mut v);
        (v, r.next_u64(), r.below(10), r.unit())
    };
    assert_eq!(draw(1), draw(1));
    assert_ne!(draw(1), draw(2));
    let mut r = Rng::new(3, 0);
    assert!((0..1000).map(|_| r.unit()).all(|u| u > 0.0 && u <= 1.0));
}
