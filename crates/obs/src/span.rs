//! Per-job span tracing: lock-free per-thread ring-buffer recorders.
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
//! * **No allocation or locking on the hot path.** Each thread owns a
//!   fixed-capacity ring of seqlock slots, taken on its first emit (one
//!   `Mutex` lock, amortized to zero) from a process-global list. When
//!   the thread exits its ring goes to a free list and the next new
//!   thread adopts it, so short-lived threads do not each leave a ring
//!   behind. [`emit`] is a thread-local lookup plus nine relaxed atomic
//!   stores.
//! * **Overwrite-oldest.** A ring that fills wraps and overwrites its
//!   oldest spans; the most recent `capacity` spans per thread always
//!   survive. Each slot carries a sequence word (odd while a write is in
//!   flight, `2·(index+1)` once the slot holds span `index`), so a
//!   reader can detect and skip a slot torn by a concurrent overwrite
//!   instead of reporting a frankenspan.
//! * **Drained on demand.** [`collect_job`] snapshots every registered
//!   ring without consuming, which is safe precisely because job ids are
//!   process-unique: stale spans from other jobs are skipped on their job
//!   word alone, and rings recycle themselves by overwriting. [`drain`]
//!   is the consuming sweep (per-ring watermark) for scraper-style
//!   consumers such as the future `mmc serve` flight recorder. Neither
//!   ever blocks a writer, and both copy the ring list and scan outside
//!   the registration mutex, so a collection never holds up a new thread
//!   adopting its ring.
//! * **Per-job context.** The `TraceContext` is a process-global id
//!   allocator plus a *thread-local* current job: [`new_job`] allocates
//!   a process-unique id and makes it current on the calling thread,
//!   and the runners capture it once at entry and propagate it into
//!   their worker closures explicitly (worker-pool threads cannot
//!   inherit the caller's thread-local). Thread-locality keeps
//!   concurrently running jobs — parallel tests, a future `mmc serve` —
//!   from stamping each other's spans. Job 0 means "unattributed".
//!
//! Recording is on by default (`MMC_SPANS=off` or [`set_enabled`]
//! disables it); the `perf` bin uses [`set_enabled`] to A/B the
//! recorder's own overhead, published as the `gemm_q64_nospans` record.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of `u64` payload words in one encoded span.
pub const SPAN_WORDS: usize = 8;

/// Default per-thread ring capacity, in spans (~0.5 MiB per thread).
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Thread id stored in a span that was emitted outside any worker pool
/// (the caller thread of a parallel region, or the ooc compute driver).
pub const NO_THREAD: u32 = u32::MAX;

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

/// One recorded span: a fixed-width value type that encodes to exactly
/// [`SPAN_WORDS`] words so the ring never allocates.
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

impl SpanRecord {
    /// Pack into the ring's word representation.
    fn encode(&self) -> [u64; SPAN_WORDS] {
        let thread = self.thread.unwrap_or(NO_THREAD);
        [
            self.job,
            (self.kind as u64) | ((thread as u64) << 32),
            self.start_ns,
            self.dur_ns,
            self.pred,
            self.val,
            (self.args[0] as u64) | ((self.args[1] as u64) << 32),
            (self.args[2] as u64) | ((self.args[3] as u64) << 32),
        ]
    }

    /// Unpack a word representation; `None` for an invalid kind byte
    /// (only reachable through a torn read the seqlock failed to catch,
    /// which the caller treats the same as a caught tear).
    fn decode(w: &[u64; SPAN_WORDS]) -> Option<SpanRecord> {
        let kind = SpanKind::from_u8((w[1] & 0xff) as u8)?;
        let thread_raw = (w[1] >> 32) as u32;
        Some(SpanRecord {
            job: w[0],
            kind,
            thread: (thread_raw != NO_THREAD).then_some(thread_raw),
            start_ns: w[2],
            dur_ns: w[3],
            pred: w[4],
            val: w[5],
            args: [w[6] as u32, (w[6] >> 32) as u32, w[7] as u32, (w[7] >> 32) as u32],
        })
    }
}

/// One seqlock slot: `seq` is odd while a write is in flight and
/// `2·(index+1)` once the slot holds span `index`.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SPAN_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot { seq: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// A fixed-capacity, overwrite-oldest span ring with exactly one writer
/// (the owning thread) and any number of concurrent readers.
///
/// Writes never block and never fail; a read that races an overwrite
/// skips the (oldest) slots being replaced rather than tearing them.
pub struct ThreadRing {
    slots: Box<[Slot]>,
    /// Total spans ever pushed (monotonic; slot for span `i` is
    /// `i % capacity`). Written only by the owner thread.
    head: AtomicU64,
    /// Consumed watermark, advanced only by [`ThreadRing::collect_new`].
    drained: AtomicU64,
}

impl ThreadRing {
    /// A ring holding the most recent `capacity` spans.
    pub fn new(capacity: usize) -> ThreadRing {
        let cap = capacity.max(1);
        ThreadRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever pushed.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Record one span. **Single-writer**: must only be called from the
    /// thread that owns the ring — the global recorder guarantees this
    /// by keying rings off a thread-local.
    pub fn push(&self, rec: &SpanRecord) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        let words = rec.encode();
        // Seqlock write: mark in-flight (odd), publish the payload, then
        // stamp the slot with this span's even sequence. The fences keep
        // the payload stores inside the odd/even window for readers.
        slot.seq.store(2 * head + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        fence(Ordering::Release);
        slot.seq.store(2 * (head + 1), Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Seqlock read of span index `i`; `None` if the slot was overwritten
    /// or is mid-write.
    fn read(&self, i: u64) -> Option<SpanRecord> {
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        let want = 2 * (i + 1);
        if slot.seq.load(Ordering::Acquire) != want {
            return None;
        }
        let mut words = [0u64; SPAN_WORDS];
        for (out, w) in words.iter_mut().zip(slot.words.iter()) {
            *out = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != want {
            return None;
        }
        SpanRecord::decode(&words)
    }

    /// Indices of the spans still live in the ring (the most recent
    /// `capacity`).
    fn live(&self) -> std::ops::Range<u64> {
        let head = self.head.load(Ordering::Acquire);
        head.saturating_sub(self.slots.len() as u64)..head
    }

    /// Snapshot every live span (at most the most recent `capacity`)
    /// without consuming. Safe from any thread, concurrently with the
    /// writer; spans overwritten mid-scan are skipped, never torn.
    pub fn scan(&self) -> Vec<SpanRecord> {
        self.live().filter_map(|i| self.read(i)).collect()
    }

    /// Append every live span stamped with `job` to `out`, without
    /// consuming. A slot whose job word differs is skipped after one
    /// load, never decoded; a matching slot gets the full seqlock read,
    /// so the tearing guarantees of [`ThreadRing::scan`] hold.
    pub fn scan_job(&self, job: u64, out: &mut Vec<SpanRecord>) {
        for i in self.live() {
            let slot = &self.slots[(i % self.slots.len() as u64) as usize];
            if slot.words[0].load(Ordering::Relaxed) != job {
                continue;
            }
            // The pre-check is a plain load outside the seqlock; only the
            // validated read decides.
            if let Some(rec) = self.read(i).filter(|r| r.job == job) {
                out.push(rec);
            }
        }
    }

    /// Drain every span not yet consumed (at most the most recent
    /// `capacity`), advancing the watermark. Same tearing guarantees as
    /// [`ThreadRing::scan`]; concurrent drains of one ring race only on
    /// which of them reports a span.
    pub fn collect_new(&self) -> Vec<SpanRecord> {
        let head = self.head.load(Ordering::Acquire);
        let lo =
            self.drained.load(Ordering::Acquire).max(head.saturating_sub(self.slots.len() as u64));
        let mut out = Vec::with_capacity((head - lo) as usize);
        for i in lo..head {
            if let Some(rec) = self.read(i) {
                out.push(rec);
            }
        }
        self.drained.store(head, Ordering::Release);
        out
    }
}

/// Every ring ever created, plus the rings of exited threads that no
/// thread owns right now (registration and recycling only; the hot path
/// never touches it).
struct Rings {
    /// Every ring, registered for good: an exited thread's spans stay
    /// collectable until its ring's next owner overwrites them.
    all: Vec<Arc<ThreadRing>>,
    /// Rings whose thread exited, waiting for a new thread to adopt them.
    free: Vec<Arc<ThreadRing>>,
}

fn lock_rings() -> std::sync::MutexGuard<'static, Rings> {
    static RINGS: Mutex<Rings> = Mutex::new(Rings { all: Vec::new(), free: Vec::new() });
    // Every update is a single push or pop, so a poisoned list is still
    // valid; and `LocalRing::drop` must not panic.
    RINGS.lock().unwrap_or_else(|e| e.into_inner())
}

/// A snapshot of every registered ring, so readers scan without holding
/// the registration mutex that new threads need to adopt a ring.
fn registered_rings() -> Vec<Arc<ThreadRing>> {
    lock_rings().all.clone()
}

/// The calling thread's ring: a recycled one if some thread has exited,
/// else a new one, registered once.
fn adopt_ring() -> Arc<ThreadRing> {
    let mut rings = lock_rings();
    if let Some(ring) = rings.free.pop() {
        return ring;
    }
    let ring = Arc::new(ThreadRing::new(ring_capacity()));
    rings.all.push(Arc::clone(&ring));
    ring
}

/// Thread-local ring slot. Dropped when its thread exits, which hands
/// the ring to the free list, so the number of rings stays bounded by
/// the peak number of live emitting threads rather than growing with
/// every short-lived I/O or job thread.
struct LocalRing(OnceLock<Arc<ThreadRing>>);

impl Drop for LocalRing {
    fn drop(&mut self) {
        // The owner is gone, so the ring's single-writer rule carries
        // over to whichever thread adopts it next.
        if let Some(ring) = self.0.take() {
            lock_rings().free.push(ring);
        }
    }
}

/// Per-thread ring capacity: `MMC_SPAN_RING` spans, default
/// [`DEFAULT_RING_CAPACITY`]. Read once per process.
pub fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("MMC_SPAN_RING")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v >= 1)
            .unwrap_or(DEFAULT_RING_CAPACITY)
    })
}

thread_local! {
    static LOCAL_RING: LocalRing = const { LocalRing(OnceLock::new()) };
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
pub fn new_job() -> u64 {
    let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
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

/// Record one span on the calling thread's ring (adopted from an exited
/// thread or created and registered on first use). No-op while recording
/// is disabled.
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
    let rec = SpanRecord { job, kind, thread, start_ns, dur_ns, pred, val, args };
    // `try_with`: a span emitted while this thread's locals are being
    // torn down is dropped rather than panicking.
    let _ = LOCAL_RING.try_with(|local| local.0.get_or_init(adopt_ring).push(&rec));
}

fn sort_spans(spans: &mut [SpanRecord]) {
    spans.sort_by_key(|r| {
        (r.start_ns, r.thread.map_or(u64::from(NO_THREAD), u64::from), r.kind, r.args)
    });
}

/// Snapshot every live span stamped with `job`, across all rings,
/// sorted by start time. Non-consuming — job uniqueness makes repeated
/// collection idempotent, and rings recycle by overwriting.
pub fn collect_job(job: u64) -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for ring in registered_rings() {
        ring.scan_job(job, &mut out);
    }
    sort_spans(&mut out);
    out
}

/// Consuming sweep of every ring (per-ring watermark), sorted by start
/// time — the scraper-style drain for flight-recorder consumers. Cold
/// path: never blocks writers, and holds the registration mutex only to
/// snapshot the ring list.
pub fn drain() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for ring in registered_rings() {
        out.extend(ring.collect_new());
    }
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

    fn rec(i: u64) -> SpanRecord {
        SpanRecord {
            job: 7,
            kind: SpanKind::ALL[(i % 10) as usize],
            thread: if i.is_multiple_of(3) { None } else { Some(i as u32) },
            start_ns: 1000 + i,
            dur_ns: 10 * i,
            pred: i * i,
            val: i * i + 1,
            args: [i as u32, 2, 3, 4],
        }
    }

    #[test]
    fn record_encode_decode_round_trips() {
        for i in 0..32 {
            let r = rec(i);
            assert_eq!(SpanRecord::decode(&r.encode()), Some(r));
        }
        // NO_THREAD sentinel maps to thread: None, not Some(MAX).
        let r = SpanRecord { thread: None, ..rec(1) };
        assert_eq!(SpanRecord::decode(&r.encode()).unwrap().thread, None);
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
    fn ring_keeps_most_recent_capacity_spans() {
        let ring = ThreadRing::new(8);
        for i in 0..20 {
            ring.push(&rec(i));
        }
        let got = ring.collect_new();
        // 20 pushed into 8 slots: exactly spans 12..20 survive.
        assert_eq!(got.len(), 8);
        for (k, r) in got.iter().enumerate() {
            assert_eq!(*r, rec(12 + k as u64));
        }
        // Watermark: nothing new to drain, but a scan still sees all 8.
        assert!(ring.collect_new().is_empty());
        assert_eq!(ring.scan().len(), 8);
        ring.push(&rec(99));
        assert_eq!(ring.collect_new(), vec![rec(99)]);
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
        // Three threads alive at once (so three distinct rings), each
        // emitting the two jobs' spans interleaved.
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
        let before = lock_rings().all.len();
        // One short-lived thread at a time: at most one live emitter
        // besides this test thread.
        for i in 0..200u32 {
            std::thread::spawn(move || emit(job, SpanKind::Read, None, now_ns(), 1, 1, 1, [i; 4]))
                .join()
                .unwrap();
        }
        let created = lock_rings().all.len() - before;
        assert!(created <= 2, "200 sequential threads created {created} rings");
        // Adopted rings keep their earlier spans: all 200 are collectable.
        let mut seen: Vec<u32> = collect_job(job).iter().map(|r| r.args[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<u32>>());
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
