//! Per-job span tracing: one bounded, process-wide span log.
//!
//! The flight-recorder layer of the predicted-vs-measured loop. Every
//! work unit of the parallel executor (`tile`) and every stage of the
//! out-of-core pipeline (read, stage, stall, accumulate) emits one
//! [`SpanRecord`] carrying both its
//! *measured* wall time and the *predicted* cost the closed forms assign
//! to it. The [`crate::drift`] module turns a batch of spans into
//! per-phase measured/predicted ratios.
//!
//! ## Design
//!
//! * **One log behind one mutex.** [`emit`] copies the span into a
//!   single [`SpanLog`] of [`LOG_CAPACITY`] spans. Spans come once per
//!   work unit or panel stage, not per FLOP: a few thousand per second
//!   at most, so an uncontended lock per emit is lost in the work it
//!   measures. The buffer is allocated once at full capacity and never
//!   grows, so its pages fault in only as the log fills.
//! * **Overwrite-oldest.** A full log overwrites its oldest span; the
//!   most recent [`LOG_CAPACITY`] spans of the process always survive.
//! * **Collected by job, drained by watermark.** [`collect_job`] copies
//!   a job's spans without consuming them, which is safe because job ids
//!   are process-unique. It scans only the spans pushed since the job
//!   began: [`new_job`] notes the log's push count for the last 256 jobs.
//!   [`drain`] is the consuming sweep (one watermark) for consumers that
//!   take every span, such as a benchmark's end-of-run scrape.
//! * **Per-job context.** The `TraceContext` is a process-global id
//!   allocator plus a *thread-local* current job: [`new_job`] allocates
//!   a process-unique id and makes it current on the calling thread,
//!   and the runners capture it once at entry and propagate it into
//!   their worker closures explicitly (worker-pool threads cannot
//!   inherit the caller's thread-local). Thread-locality keeps
//!   concurrently running jobs — parallel tests, `mmc serve` — from
//!   stamping each other's spans. Job 0 means "unattributed".
//!
//! Recording is on by default (`MMC_SPANS=off` or [`set_enabled`]
//! disables it); the `perf` bin uses [`set_enabled`] to A/B the
//! recorder's own overhead, published as the `gemm_q64_nospans` record.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Spans the process-wide log holds: 32,768 records of 72 bytes
/// (2.25 MiB): every span of a 15 s perfbench serve_mixed run (21,241).
pub const LOG_CAPACITY: usize = 32_768;

/// Jobs whose start [`SpanLog::start_job`] keeps; collecting an older
/// job scans the whole log, as for a job id [`new_job`] never handed out.
const JOB_STARTS: usize = 256;

/// What a span measures — one work unit of the parallel executor or one
/// stage of the out-of-core pipeline. The loop and pack kinds are
/// recorded by no current executor; they stay so that traces and tools
/// that name them keep decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// One work unit of the parallel executor: a `µ×µ` sub-tile of `C`
    /// blocks through all of `k` (the rayon work item).
    Tile = 0,
    /// One `jc`/`NC` macro-step of a BLIS-style 5-loop (not emitted).
    LoopJc = 1,
    /// One `pc`/`KC` macro-step of a 5-loop (not emitted).
    LoopPc = 2,
    /// One `ic`/`MC` macro-step of a 5-loop (not emitted).
    LoopIc = 3,
    /// Packing one `MC×KC` A panel (not emitted).
    PackA = 4,
    /// Packing one `KC×NC` B panel (not emitted).
    PackB = 5,
    /// One positioned panel read by an ooc I/O thread.
    Read = 6,
    /// One full stage iteration of an ooc I/O thread (buffer claim,
    /// read, in-order delivery).
    Stage = 7,
    /// Time the ooc compute thread spent blocked waiting for a staged
    /// panel.
    Stall = 8,
    /// One `gemm_into` call over a staged panel pair.
    Accumulate = 9,
}

impl SpanKind {
    /// Stable lowercase phase name used in drift reports and trace lanes.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Tile => "tile",
            SpanKind::LoopJc => "jc",
            SpanKind::LoopPc => "pc",
            SpanKind::LoopIc => "ic",
            SpanKind::PackA => "pack_a",
            SpanKind::PackB => "pack_b",
            SpanKind::Read => "read",
            SpanKind::Stage => "stage",
            SpanKind::Stall => "stall",
            SpanKind::Accumulate => "accumulate",
        }
    }

    /// Unit of the span's `pred`/`val` payload counters.
    pub fn unit(self) -> &'static str {
        match self {
            SpanKind::Tile
            | SpanKind::LoopJc
            | SpanKind::LoopPc
            | SpanKind::LoopIc
            | SpanKind::Accumulate => "flop",
            SpanKind::PackA | SpanKind::PackB | SpanKind::Read | SpanKind::Stage => "byte",
            SpanKind::Stall => "ns",
        }
    }

    /// Decode the `repr(u8)` discriminant.
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::Tile,
            1 => SpanKind::LoopJc,
            2 => SpanKind::LoopPc,
            3 => SpanKind::LoopIc,
            4 => SpanKind::PackA,
            5 => SpanKind::PackB,
            6 => SpanKind::Read,
            7 => SpanKind::Stage,
            8 => SpanKind::Stall,
            9 => SpanKind::Accumulate,
            _ => return None,
        })
    }

    /// Every kind, in discriminant order.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Tile,
        SpanKind::LoopJc,
        SpanKind::LoopPc,
        SpanKind::LoopIc,
        SpanKind::PackA,
        SpanKind::PackB,
        SpanKind::Read,
        SpanKind::Stage,
        SpanKind::Stall,
        SpanKind::Accumulate,
    ];
}

/// One recorded span: a fixed-width value type, copied into the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Job id the span is attributed to (see [`new_job`]; 0 means
    /// unattributed).
    pub job: u64,
    /// Which phase this span measures.
    pub kind: SpanKind,
    /// Worker-pool thread index, or `None` for the caller/driver thread.
    pub thread: Option<u32>,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Measured wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Predicted cost of the step in [`SpanKind::unit`] units (FLOPs for
    /// compute phases, bytes for pack/I-O phases) from the closed forms.
    pub pred: u64,
    /// Actual work done, same unit as `pred`.
    pub val: u64,
    /// Phase-specific coordinates (tile origin, panel extents, ...).
    pub args: [u32; 4],
}

/// A bounded, overwrite-oldest log of spans: the most recent `capacity`
/// spans in push order, a drain watermark, and where each recent job
/// began. The process keeps one, behind the recorder's mutex; tests
/// build small ones.
pub struct SpanLog {
    /// Span `i` sits at `i % capacity`. Reserved once at full capacity
    /// on the first push and never reallocated.
    spans: Vec<SpanRecord>,
    capacity: usize,
    /// Total spans ever pushed.
    pushed: u64,
    /// Spans below this index were handed out by [`SpanLog::drain`].
    drained: u64,
    /// `(job, pushed)` when each of the last [`JOB_STARTS`] jobs began.
    starts: VecDeque<(u64, u64)>,
}

impl SpanLog {
    /// An empty log that will hold the most recent `capacity` spans
    /// (at least 1). Allocates nothing until the first push.
    pub const fn new(capacity: usize) -> SpanLog {
        SpanLog {
            spans: Vec::new(),
            capacity: if capacity == 0 { 1 } else { capacity },
            pushed: 0,
            drained: 0,
            starts: VecDeque::new(),
        }
    }

    /// Total spans ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Append one span, overwriting the oldest once the log is full.
    pub fn push(&mut self, rec: SpanRecord) {
        if self.spans.len() < self.capacity {
            self.spans.reserve_exact(self.capacity - self.spans.len());
            self.spans.push(rec);
        } else {
            self.spans[(self.pushed % self.capacity as u64) as usize] = rec;
        }
        self.pushed += 1;
    }

    /// Note that `job` begins now, so [`SpanLog::collect_job`] can skip
    /// every span pushed before it.
    pub fn start_job(&mut self, job: u64) {
        if self.starts.len() == JOB_STARTS {
            self.starts.pop_front();
        }
        self.starts.push_back((job, self.pushed));
    }

    /// The spans with index `from` or later that are still in the log,
    /// in push order.
    fn since(&self, from: u64) -> impl Iterator<Item = &SpanRecord> {
        let oldest = self.pushed - self.spans.len() as u64;
        (oldest.max(from)..self.pushed).map(|i| &self.spans[(i % self.capacity as u64) as usize])
    }

    /// Every span in the log stamped with `job`, in push order, without
    /// consuming. Scans from the job's start when it is one of the last
    /// [`JOB_STARTS`] jobs, else the whole log.
    pub fn collect_job(&self, job: u64) -> Vec<SpanRecord> {
        let from = self.starts.iter().rev().find(|(j, _)| *j == job).map_or(0, |&(_, at)| at);
        self.since(from).filter(|r| r.job == job).copied().collect()
    }

    /// Every span pushed since the last drain that is still in the log,
    /// in push order; advances the watermark past them.
    pub fn drain(&mut self) -> Vec<SpanRecord> {
        let out = self.since(self.drained).copied().collect();
        self.drained = self.pushed;
        out
    }
}

/// The process-wide log.
fn log() -> MutexGuard<'static, SpanLog> {
    static LOG: Mutex<SpanLog> = Mutex::new(SpanLog::new(LOG_CAPACITY));
    // No update can panic halfway (a push writes one slot, then bumps
    // the count), so a poisoned log is still valid; and a worker's emit
    // must not panic because another thread did.
    LOG.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static CURRENT_JOB: Cell<u64> = const { Cell::new(0) };
}

const ENABLED_UNSET: u8 = 0;
const ENABLED_ON: u8 = 1;
const ENABLED_OFF: u8 = 2;
static ENABLED: AtomicU8 = AtomicU8::new(ENABLED_UNSET);

/// Is span recording on? Defaults to on; `MMC_SPANS=off` (or `0`)
/// disables it at process level, [`set_enabled`] overrides at runtime.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        ENABLED_ON => true,
        ENABLED_OFF => false,
        _ => {
            let on = !matches!(std::env::var("MMC_SPANS").as_deref(), Ok("off") | Ok("0"));
            ENABLED.store(if on { ENABLED_ON } else { ENABLED_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Force span recording on or off (e.g. the `perf` bin's overhead A/B).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { ENABLED_ON } else { ENABLED_OFF }, Ordering::Relaxed);
}

static NEXT_JOB: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique job id and make it the calling thread's
/// current trace context. Runners capture the current job once at entry
/// and carry it into their worker closures.
///
/// The log's push count is noted before the id is handed out, so no
/// span of the job can sit below it; [`collect_job`] starts there.
pub fn new_job() -> u64 {
    let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
    log().start_job(job);
    CURRENT_JOB.with(|c| c.set(job));
    job
}

/// The calling thread's current job id (0 before any [`new_job`] on
/// this thread — "unattributed").
pub fn current_job() -> u64 {
    CURRENT_JOB.with(|c| c.get())
}

/// Nanoseconds since the process trace epoch (first call wins; all span
/// timestamps share this origin so exec and ooc spans merge onto one
/// timeline).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Record one span in the process-wide log. No-op while recording is
/// disabled.
#[allow(clippy::too_many_arguments)]
pub fn emit(
    job: u64,
    kind: SpanKind,
    thread: Option<u32>,
    start_ns: u64,
    dur_ns: u64,
    pred: u64,
    val: u64,
    args: [u32; 4],
) {
    if !enabled() {
        return;
    }
    log().push(SpanRecord { job, kind, thread, start_ns, dur_ns, pred, val, args });
}

/// Sort by start time; ties put pool threads in index order before the
/// caller/driver thread.
fn sort_spans(spans: &mut [SpanRecord]) {
    spans.sort_by_key(|r| (r.start_ns, r.thread.is_none(), r.thread, r.kind, r.args));
}

/// Snapshot every span in the log stamped with `job`, sorted by start
/// time. Non-consuming — job uniqueness makes repeated collection
/// idempotent, and the log recycles by overwriting.
///
/// The scan starts at the log's push count when the job began, so its
/// cost follows the spans written since then rather than the log's
/// capacity. A job older than the last 256 scans the whole log.
pub fn collect_job(job: u64) -> Vec<SpanRecord> {
    let mut out = log().collect_job(job);
    sort_spans(&mut out);
    out
}

/// Consuming sweep of the log (one watermark), sorted by start time —
/// the drain for consumers that take every span.
pub fn drain() -> Vec<SpanRecord> {
    let mut out = log().drain();
    sort_spans(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that touch the process-global recorder (emit/collect/enable)
    /// serialize on this lock so the default multi-threaded test harness
    /// cannot interleave them.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn kind_discriminants_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_u8(kind as u8), Some(kind));
            assert!(!kind.name().is_empty() && !kind.unit().is_empty());
        }
        assert_eq!(SpanKind::from_u8(10), None);
    }

    #[test]
    fn collect_job_isolates_and_is_idempotent() {
        let _g = global_lock();
        let job_a = new_job();
        emit(job_a, SpanKind::Tile, Some(0), now_ns(), 5, 10, 10, [0; 4]);
        let job_b = new_job();
        emit(job_b, SpanKind::Read, None, now_ns(), 5, 20, 20, [1; 4]);
        let b = collect_job(job_b);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].kind, SpanKind::Read);
        assert_eq!(b[0].job, job_b);
        // Non-consuming: both jobs still fully visible.
        assert_eq!(collect_job(job_b), b);
        assert_eq!(collect_job(job_a).len(), 1);
    }

    #[test]
    fn collect_job_returns_interleaved_jobs_from_several_rings_exactly() {
        let _g = global_lock();
        let (job_a, job_b) = (new_job(), new_job());
        // Three threads alive at once, each emitting the two jobs' spans
        // interleaved.
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for t in 0..3u32 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for i in 0..40u32 {
                        let job = if i % 2 == 0 { job_a } else { job_b };
                        let at = 1_000 * u64::from(i) + u64::from(t);
                        emit(job, SpanKind::PackB, Some(t), at, 1, 2, 3, [t, i, 0, 0]);
                    }
                    start.wait();
                });
            }
        });
        let expect = |parity: u32| -> Vec<SpanRecord> {
            let job = if parity == 0 { job_a } else { job_b };
            let mut v: Vec<SpanRecord> = (0..3u32)
                .flat_map(|t| (0..40u32).filter(move |i| i % 2 == parity).map(move |i| (t, i)))
                .map(|(t, i)| SpanRecord {
                    job,
                    kind: SpanKind::PackB,
                    thread: Some(t),
                    start_ns: 1_000 * u64::from(i) + u64::from(t),
                    dur_ns: 1,
                    pred: 2,
                    val: 3,
                    args: [t, i, 0, 0],
                })
                .collect();
            sort_spans(&mut v);
            v
        };
        assert_eq!(collect_job(job_a), expect(0));
        assert_eq!(collect_job(job_b), expect(1));
    }

    #[test]
    fn disabled_recorder_emits_nothing() {
        let _g = global_lock();
        let job = new_job();
        set_enabled(false);
        emit(job, SpanKind::Tile, Some(0), now_ns(), 1, 1, 1, [0; 4]);
        set_enabled(true);
        emit(job, SpanKind::PackA, Some(0), now_ns(), 1, 1, 1, [0; 4]);
        let spans = collect_job(job);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::PackA);
    }

    #[test]
    fn collected_spans_sort_by_start_time() {
        let _g = global_lock();
        let job = new_job();
        emit(job, SpanKind::Tile, Some(1), 5000, 1, 1, 1, [0; 4]);
        emit(job, SpanKind::Tile, Some(1), 3000, 1, 1, 1, [0; 4]);
        emit(job, SpanKind::Tile, Some(1), 4000, 1, 1, 1, [0; 4]);
        let starts: Vec<u64> = collect_job(job).iter().map(|r| r.start_ns).collect();
        assert_eq!(starts, vec![3000, 4000, 5000]);
    }

    #[test]
    fn exited_threads_hand_their_rings_to_new_threads() {
        let _g = global_lock();
        let job = new_job();
        // One short-lived thread at a time, each gone before the next.
        for i in 0..200u32 {
            std::thread::spawn(move || emit(job, SpanKind::Read, None, now_ns(), 1, 1, 1, [i; 4]))
                .join()
                .unwrap();
        }
        // An exited thread's spans stay in the log: all 200 are collectable.
        let mut seen: Vec<u32> = collect_job(job).iter().map(|r| r.args[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<u32>>());
    }

    /// A job's spans are all found, and no other job's come back, when
    /// the log already holds older spans and another thread writes more
    /// than half a log of unrelated spans meanwhile.
    #[test]
    fn collect_job_scans_from_the_job_start_and_finds_every_span() {
        let _g = global_lock();
        let before = new_job();
        for i in 0..600u32 {
            emit(before, SpanKind::Tile, None, now_ns(), 1, 1, 1, [i; 4]);
        }
        let job = new_job();
        let other = new_job();
        for i in 0..5u32 {
            emit(job, SpanKind::Tile, None, now_ns(), 1, 1, 1, [i; 4]);
        }
        let noise = LOG_CAPACITY / 2 + 1;
        std::thread::spawn(move || {
            for i in 0..noise as u32 {
                emit(other, SpanKind::Read, Some(1), now_ns(), 1, 1, 1, [i; 4]);
            }
            for i in 5..8u32 {
                emit(job, SpanKind::Tile, Some(1), now_ns(), 1, 1, 1, [i; 4]);
            }
        })
        .join()
        .unwrap();
        for i in 8..10u32 {
            emit(job, SpanKind::Tile, None, now_ns(), 1, 1, 1, [i; 4]);
        }
        let got = collect_job(job);
        assert!(got.iter().all(|r| r.job == job && r.kind == SpanKind::Tile));
        let mut seen: Vec<u32> = got.iter().map(|r| r.args[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u32>>());
        assert_eq!(collect_job(other).len(), noise);
        assert_eq!(collect_job(before).len(), 600);
    }

    #[test]
    fn job_context_is_thread_local() {
        let _g = global_lock();
        let here = new_job();
        let there = std::thread::spawn(|| (current_job(), new_job())).join().unwrap();
        // Fresh thread starts unattributed, and its new_job does not
        // disturb this thread's context.
        assert_eq!(there.0, 0);
        assert_ne!(there.1, here);
        assert_eq!(current_job(), here);
    }
}
