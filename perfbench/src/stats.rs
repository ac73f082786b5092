//! The benchmark's arithmetic: order statistics, the tail-percentile
//! choice, span self time, tile imbalance and throughput aggregation.
//! Pure functions, so the tests in `tests/arithmetic.rs` pin them down.

/// A closed-open time interval in nanoseconds, `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Start, ns.
    pub start: u64,
    /// End, ns (`>= start`).
    pub end: u64,
}

impl Interval {
    /// The interval `[start, start + dur)`.
    pub fn from_dur(start: u64, dur: u64) -> Interval {
        Interval { start, end: start.saturating_add(dur) }
    }

    /// Length in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Median of `v` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-th percentile by nearest rank (`0 < p <= 100`): the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// A latency tail: the highest whole percentile that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen, e.g. `99.0`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// How many samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile `p` in `1..=99` whose nearest rank
/// leaves at least [`TAIL_BEYOND`] samples above it, or `None` when
/// there are too few samples for any (fewer than 11).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    (1..=99u32).rev().map(f64::from).find(|&p| {
        let rank = ((p / 100.0) * samples as f64).ceil() as usize;
        rank >= 1 && samples.saturating_sub(rank) >= TAIL_BEYOND
    })
}

/// The tail of `samples` (see [`tail_percentile`]); falls back to the
/// maximum, labelled percentile 100 with nothing beyond, when there are
/// too few samples. `None` only for an empty slice.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(match tail_percentile(n) {
        Some(p) => {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            Tail { percentile: p, value: s[rank - 1], beyond: n - rank, samples: n }
        }
        None => Tail { percentile: 100.0, value: s[n - 1], beyond: 0, samples: n },
    })
}

/// Self time of `parent`: its length minus the part of it covered by
/// the union of `children` (each clipped to the parent, overlaps
/// counted once).
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval { start: c.start.max(parent.start), end: c.end.min(parent.end) })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut cur: Option<Interval> = None;
    for c in clipped {
        match cur {
            Some(ref mut u) if c.start <= u.end => u.end = u.end.max(c.end),
            _ => {
                if let Some(u) = cur {
                    covered += u.dur();
                }
                cur = Some(c);
            }
        }
    }
    if let Some(u) = cur {
        covered += u.dur();
    }
    parent.dur() - covered
}

/// Tile imbalance of one parallel call: the busiest worker's tile time
/// over the mean across all `workers` the call could use (idle workers
/// count as zero). `1.0` is perfect balance; a call that runs one tile on
/// one of two workers reads `2.0`. Returns `(max, mean)` so callers can
/// aggregate several calls as a ratio of sums.
pub fn imbalance_parts(busy_per_worker: &[f64], workers: usize) -> (f64, f64) {
    let workers = workers.max(busy_per_worker.len()).max(1);
    let max = busy_per_worker.iter().copied().fold(0.0, f64::max);
    let mean = busy_per_worker.iter().sum::<f64>() / workers as f64;
    (max, mean)
}

/// Throughput of a set of operations in GFLOP/s: total FLOPs over total
/// seconds. A mixed ladder is weighted by time spent, not averaged per
/// operation — a mean of per-call rates would let the many fast small
/// calls outvote the few large ones that carry the same share of work.
pub fn gflops(ops: &[(f64, f64)]) -> f64 {
    let (flops, secs) = ops.iter().fold((0.0, 0.0), |(f, s), &(of, os)| (f + of, s + os));
    if secs > 0.0 {
        flops / secs / 1e9
    } else {
        0.0
    }
}

/// Starting state of [`fingerprint_update`].
pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the bit patterns of `data`, one 64-bit word at a time —
/// a fingerprint for comparing products bit for bit without keeping
/// them. Folding consecutive slices gives the fingerprint of their
/// concatenation.
pub fn fingerprint_update(h: u64, data: &[f64]) -> u64 {
    data.iter().fold(h, |h, v| (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3))
}

/// [`fingerprint_update`] of a whole slice.
pub fn fingerprint(data: &[f64]) -> u64 {
    fingerprint_update(FINGERPRINT_SEED, data)
}
