//! The double-buffered prefetch pipeline: dedicated I/O threads stream
//! panels from [`TiledFile`]s through a bounded ring of reusable buffers
//! into the compute loop.
//!
//! Memory is bounded by construction: the pool owns a fixed number of
//! panel buffers sized for the largest staged panel, and an I/O thread
//! *first* takes a free buffer (blocking on a condvar when compute lags —
//! that wait is the backpressure) and only then claims the next staging
//! request. Claiming in that order keeps the in-flight set aligned with
//! the staging order, so the earliest panel the compute side is waiting
//! for is always either staged or in flight — the pipeline cannot
//! deadlock however threads interleave.
//!
//! Panels may complete out of order across threads; the compute side
//! reorders them with a min-heap keyed on sequence number (bounded by the
//! pool size, since every queued panel holds a buffer). Buffers return to
//! the pool via [`Prefetcher::recycle`], waking stalled I/O threads.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mmc_obs::span::{self, SpanKind};
use serde::{Deserialize, Serialize};

use crate::tiled::{TiledError, TiledFile};

/// One panel to stage: a rectangle of blocks from one source file.
#[derive(Clone, Debug)]
pub struct StageRequest {
    /// Position in the staging order; panels are handed to compute in
    /// ascending `seq`.
    pub seq: usize,
    /// Index into the prefetcher's file table.
    pub file: usize,
    /// Top-left block row of the panel.
    pub bi0: u32,
    /// Top-left block column of the panel.
    pub bj0: u32,
    /// Panel height in blocks.
    pub rows: u32,
    /// Panel width in blocks.
    pub cols: u32,
}

/// A staged panel: the filled buffer plus its provenance.
#[derive(Debug)]
pub struct StagedPanel {
    /// The request this panel answers.
    pub seq: usize,
    /// Panel height in blocks.
    pub rows: u32,
    /// Panel width in blocks.
    pub cols: u32,
    /// Block-major contents, `rows·cols·q²` elements. Return the
    /// allocation with [`Prefetcher::recycle`] when done.
    pub data: Vec<f64>,
}

/// Aggregate pipeline statistics, reported in the JSON metrics snapshot.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PrefetchStats {
    /// Total bytes read from tiled files.
    pub bytes_read: u64,
    /// Panels staged through the ring.
    pub panels_staged: u64,
    /// Seconds the compute side spent waiting for a panel (prefetch
    /// stall — disk is the bottleneck).
    pub stall_seconds: f64,
    /// Seconds I/O threads spent waiting for a free buffer
    /// (backpressure — compute is the bottleneck).
    pub buffer_wait_seconds: f64,
    /// Summed wall-clock seconds of the positioned reads.
    pub io_seconds: f64,
    /// Peak bytes checked out of the buffer pool at once: the measured
    /// resident panel memory, compared against the budget.
    pub peak_resident_bytes: u64,
}

struct Shared {
    files: Vec<Arc<TiledFile>>,
    queue: Mutex<VecDeque<StageRequest>>,
    pool: Mutex<Vec<Vec<f64>>>,
    pool_cv: Condvar,
    shutdown: AtomicBool,
    bytes_read: AtomicU64,
    // Nanosecond counters; f64 addition under a lock would also work but
    // atomics keep the hot path lock-free.
    buffer_wait_ns: AtomicU64,
    io_ns: AtomicU64,
    checked_out_bytes: AtomicU64,
    peak_resident_bytes: AtomicU64,
    // Trace job of the spawning (compute) thread, stamped onto the I/O
    // threads' recorder spans — workers cannot see the caller's
    // thread-local job.
    job: u64,
}

impl Shared {
    fn note_checkout(&self, bytes: u64) {
        let now = self.checked_out_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident_bytes.fetch_max(now, Ordering::Relaxed);
    }
}

/// Min-heap entry ordered by sequence number.
struct Pending(StagedPanel);

impl PartialEq for Pending {
    fn eq(&self, other: &Pending) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Pending) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Pending) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest seq on top.
        other.0.seq.cmp(&self.0.seq)
    }
}

/// The pipeline handle held by the compute loop.
pub struct Prefetcher {
    shared: Arc<Shared>,
    rx: mpsc::Receiver<(usize, Result<StagedPanel, TiledError>)>,
    workers: Vec<JoinHandle<()>>,
    reorder: BinaryHeap<Pending>,
    next_seq: usize,
    total: usize,
    stall_seconds: f64,
    panels_staged: u64,
    failed: bool,
}

impl Prefetcher {
    /// Launch `io_threads` staging threads over `requests` (which must be
    /// numbered `0..requests.len()` in `seq`), with a pool of
    /// `pool_buffers` reusable buffers of `panel_elems` elements each.
    ///
    /// `pool_buffers` bounds resident panel memory at
    /// `pool_buffers · panel_elems · 8` bytes; it must be at least
    /// `held + 1` where `held` is the most panels the compute loop keeps
    /// un-recycled at once (two for an A/B panel pair).
    pub fn spawn(
        files: Vec<Arc<TiledFile>>,
        requests: Vec<StageRequest>,
        pool_buffers: usize,
        io_threads: usize,
        panel_elems: usize,
    ) -> Prefetcher {
        assert!(io_threads >= 1, "need at least one I/O thread");
        assert!(pool_buffers >= 3, "double buffering needs >= 3 panel buffers");
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(r.seq, i, "requests must be pre-sorted by seq");
            assert!(r.file < files.len(), "request names unknown file {}", r.file);
            let q = files[r.file].header().q;
            assert!(
                r.rows as usize * r.cols as usize * q * q <= panel_elems,
                "panel {} exceeds the buffer size",
                r.seq
            );
        }
        let total = requests.len();
        let shared = Arc::new(Shared {
            files,
            queue: Mutex::new(requests.into()),
            pool: Mutex::new((0..pool_buffers).map(|_| vec![0.0; panel_elems]).collect()),
            pool_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            bytes_read: AtomicU64::new(0),
            buffer_wait_ns: AtomicU64::new(0),
            io_ns: AtomicU64::new(0),
            checked_out_bytes: AtomicU64::new(0),
            peak_resident_bytes: AtomicU64::new(0),
            job: span::current_job(),
        });
        let (tx, rx) = mpsc::channel();
        let workers = (0..io_threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("mmc-ooc-io-{tid}"))
                    .spawn(move || worker(tid, &shared, &tx))
                    .expect("spawn I/O thread")
            })
            .collect();
        Prefetcher {
            shared,
            rx,
            workers,
            reorder: BinaryHeap::new(),
            next_seq: 0,
            total,
            stall_seconds: 0.0,
            panels_staged: 0,
            failed: false,
        }
    }

    /// The next panel in staging order, blocking (and counting the stall)
    /// until its I/O completes. `None` once every request is delivered.
    ///
    /// Not an `Iterator`: the caller must hand buffers back through
    /// [`Prefetcher::recycle`] between calls, which borrows `self`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<StagedPanel, TiledError>> {
        if self.failed || self.next_seq == self.total {
            return None;
        }
        loop {
            if let Some(p) = self.reorder.peek() {
                if p.0.seq == self.next_seq {
                    self.next_seq += 1;
                    self.panels_staged += 1;
                    return Some(Ok(self.reorder.pop().unwrap().0));
                }
            }
            let start = Instant::now();
            let stall_start = if span::enabled() { span::now_ns() } else { 0 };
            let msg = self.rx.recv();
            let stalled = start.elapsed();
            self.stall_seconds += stalled.as_secs_f64();
            crate::metrics::stall_us().observe(stalled.as_micros() as u64);
            if span::enabled() {
                // Perfect prefetch overlap predicts zero stall, so
                // pred = 0 and val carries the measured nanoseconds.
                let ns = stalled.as_nanos() as u64;
                span::emit(
                    self.shared.job,
                    SpanKind::Stall,
                    None,
                    stall_start,
                    ns,
                    0,
                    ns,
                    [self.next_seq as u32, 0, 0, 0],
                );
            }
            match msg {
                Ok((_, Ok(panel))) => self.reorder.push(Pending(panel)),
                Ok((_, Err(e))) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                Err(mpsc::RecvError) => {
                    // Workers gone without delivering next_seq: only
                    // reachable after an error already surfaced.
                    self.failed = true;
                    return None;
                }
            }
        }
    }

    /// Return a panel buffer to the pool, waking any stalled I/O thread.
    pub fn recycle(&self, buf: Vec<f64>) {
        self.shared.checked_out_bytes.fetch_sub((buf.capacity() * 8) as u64, Ordering::Relaxed);
        let mut pool = self.shared.pool.lock().unwrap();
        pool.push(buf);
        crate::metrics::pool_free().set(pool.len() as i64);
        drop(pool);
        self.shared.pool_cv.notify_one();
    }

    /// Stop the I/O threads and collect the pipeline statistics.
    pub fn finish(mut self) -> PrefetchStats {
        self.join_workers();
        let shared = &self.shared;
        PrefetchStats {
            bytes_read: shared.bytes_read.load(Ordering::Relaxed),
            panels_staged: self.panels_staged,
            stall_seconds: self.stall_seconds,
            buffer_wait_seconds: shared.buffer_wait_ns.load(Ordering::Relaxed) as f64 / 1e9,
            io_seconds: shared.io_ns.load(Ordering::Relaxed) as f64 / 1e9,
            peak_resident_bytes: shared.peak_resident_bytes.load(Ordering::Relaxed),
        }
    }

    fn join_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.pool_cv.notify_all();
        // Drain the channel so no worker blocks on a full... (mpsc is
        // unbounded, so draining is only about dropping buffers early).
        while self.rx.try_recv().is_ok() {}
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.join_workers();
        }
    }
}

fn worker(
    tid: usize,
    shared: &Shared,
    tx: &mpsc::Sender<(usize, Result<StagedPanel, TiledError>)>,
) {
    loop {
        // Take a free buffer FIRST (see module docs: claiming the buffer
        // before the request keeps in-flight panels aligned with the
        // staging order, which is what rules out deadlock).
        let stage_start = if span::enabled() { span::now_ns() } else { 0 };
        let wait_start = Instant::now();
        let mut buf = {
            let mut pool = shared.pool.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(b) = pool.pop() {
                    crate::metrics::pool_free().set(pool.len() as i64);
                    break b;
                }
                pool = shared.pool_cv.wait(pool).unwrap();
            }
        };
        let waited = wait_start.elapsed();
        shared.buffer_wait_ns.fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        crate::metrics::buffer_wait_us().observe(waited.as_micros() as u64);
        shared.note_checkout((buf.capacity() * 8) as u64);

        let req = {
            let mut queue = shared.queue.lock().unwrap();
            let req = queue.pop_front();
            crate::metrics::queue_depth().set(queue.len() as i64);
            req
        };
        let Some(req) = req else {
            // No work left: put the buffer back (dropping it would be
            // fine, returning it keeps the pool's inventory intact) and
            // retire this thread.
            shared.checked_out_bytes.fetch_sub((buf.capacity() * 8) as u64, Ordering::Relaxed);
            shared.pool.lock().unwrap().push(buf);
            shared.pool_cv.notify_one();
            return;
        };

        let file = &shared.files[req.file];
        let q = file.header().q;
        let elems = req.rows as usize * req.cols as usize * q * q;
        buf.resize(elems, 0.0);
        let read_start = if span::enabled() { span::now_ns() } else { 0 };
        let io_start = Instant::now();
        let result = file.read_panel(req.bi0, req.bj0, req.rows, req.cols, &mut buf[..elems]);
        let dur = io_start.elapsed();
        shared.io_ns.fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        crate::metrics::read_us().observe(dur.as_micros() as u64);
        if span::enabled() {
            let requested = (elems * 8) as u64;
            let got = *result.as_ref().unwrap_or(&0);
            span::emit(
                shared.job,
                SpanKind::Read,
                Some(tid as u32),
                read_start,
                dur.as_nanos() as u64,
                requested,
                got,
                [req.file as u32, req.seq as u32, req.rows, req.cols],
            );
            span::emit(
                shared.job,
                SpanKind::Stage,
                Some(tid as u32),
                stage_start,
                span::now_ns().saturating_sub(stage_start),
                requested,
                got,
                [req.file as u32, req.seq as u32, req.rows, req.cols],
            );
        }

        let msg = match result {
            Ok(bytes) => {
                shared.bytes_read.fetch_add(bytes, Ordering::Relaxed);
                crate::metrics::bytes_read().add(bytes);
                crate::metrics::panels_staged().add(1);
                Ok(StagedPanel { seq: req.seq, rows: req.rows, cols: req.cols, data: buf })
            }
            Err(e) => {
                shared.checked_out_bytes.fetch_sub((buf.capacity() * 8) as u64, Ordering::Relaxed);
                Err(e)
            }
        };
        let errored = msg.is_err();
        if tx.send((req.seq, msg)).is_err() || errored {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiled::write_matrix;
    use mmc_exec::BlockMatrix;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmc-pipe-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("m.tiled")
    }

    fn requests_for(rows: u32, cols: u32, ph: u32, pw: u32) -> Vec<StageRequest> {
        let mut reqs = Vec::new();
        for bi0 in (0..rows).step_by(ph as usize) {
            for bj0 in (0..cols).step_by(pw as usize) {
                let seq = reqs.len();
                reqs.push(StageRequest {
                    seq,
                    file: 0,
                    bi0,
                    bj0,
                    rows: ph.min(rows - bi0),
                    cols: pw.min(cols - bj0),
                });
            }
        }
        reqs
    }

    #[test]
    fn streams_every_panel_in_order_with_bounded_memory() {
        let path = tmp("stream");
        let q = 4;
        let m = BlockMatrix::pseudo_random(7, 5, q, 3);
        write_matrix(&path, &m).unwrap();
        let file = Arc::new(TiledFile::open(&path).unwrap());
        let reqs = requests_for(7, 5, 3, 2);
        let n_reqs = reqs.len();
        let panel_elems = 3 * 2 * q * q;
        let pool_buffers = 3;
        let mut pf =
            Prefetcher::spawn(vec![Arc::clone(&file)], reqs.clone(), pool_buffers, 2, panel_elems);
        let mut seen = 0usize;
        while let Some(panel) = pf.next() {
            let panel = panel.unwrap();
            assert_eq!(panel.seq, seen, "panels arrive in staging order");
            let req = &reqs[panel.seq];
            let got = BlockMatrix::from_vec(
                panel.rows,
                panel.cols,
                q,
                panel.data[..panel.rows as usize * panel.cols as usize * q * q].to_vec(),
            );
            for bi in 0..panel.rows {
                for bj in 0..panel.cols {
                    assert_eq!(got.block(bi, bj), m.block(req.bi0 + bi, req.bj0 + bj));
                }
            }
            pf.recycle(panel.data);
            seen += 1;
        }
        assert_eq!(seen, n_reqs);
        let stats = pf.finish();
        assert_eq!(stats.panels_staged, n_reqs as u64);
        assert!(
            stats.peak_resident_bytes <= (pool_buffers * panel_elems * 8) as u64,
            "peak {} exceeds pool bound",
            stats.peak_resident_bytes
        );
        // Every block of the matrix crossed the pipeline exactly once.
        assert_eq!(stats.bytes_read, 7 * 5 * (q * q * 8) as u64);
    }

    #[test]
    fn slow_consumer_never_deadlocks() {
        // Many more panels than buffers, multiple I/O threads, and a
        // consumer that holds two panels at a time (the A/B pattern).
        let path = tmp("slow");
        let q = 2;
        let m = BlockMatrix::pseudo_random(16, 16, q, 5);
        write_matrix(&path, &m).unwrap();
        let file = Arc::new(TiledFile::open(&path).unwrap());
        let reqs = requests_for(16, 16, 2, 2); // 64 panels
        let mut pf = Prefetcher::spawn(vec![file], reqs, 3, 3, 2 * 2 * q * q);
        let mut held: Vec<Vec<f64>> = Vec::new();
        let mut count = 0;
        while let Some(panel) = pf.next() {
            held.push(panel.unwrap().data);
            if held.len() == 2 {
                for b in held.drain(..) {
                    pf.recycle(b);
                }
            }
            count += 1;
        }
        assert_eq!(count, 64);
        let stats = pf.finish();
        assert_eq!(stats.panels_staged, 64);
    }

    #[test]
    fn io_error_surfaces_to_compute() {
        let path = tmp("err");
        let q = 3;
        let m = BlockMatrix::pseudo_random(4, 4, q, 9);
        write_matrix(&path, &m).unwrap();
        // Truncate the file *after* opening: header validation passed on
        // the full file, but panel reads past the new EOF must fail
        // cleanly (fs::write truncates the same inode in place, so the
        // open handle sees the shorter file).
        let file = Arc::new(TiledFile::open(&path).unwrap());
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let reqs = requests_for(4, 4, 2, 2);
        let mut pf = Prefetcher::spawn(vec![file], reqs, 3, 1, 2 * 2 * q * q);
        let mut saw_err = false;
        while let Some(panel) = pf.next() {
            match panel {
                Ok(p) => pf.recycle(p.data),
                Err(e) => {
                    saw_err = true;
                    assert!(e.to_string().contains(&path.display().to_string()));
                    break;
                }
            }
        }
        assert!(saw_err, "truncated read must surface an error");
    }

    #[test]
    fn dropping_mid_stream_joins_workers() {
        let path = tmp("drop");
        let q = 2;
        let m = BlockMatrix::pseudo_random(8, 8, q, 1);
        write_matrix(&path, &m).unwrap();
        let file = Arc::new(TiledFile::open(&path).unwrap());
        let reqs = requests_for(8, 8, 2, 2);
        let mut pf = Prefetcher::spawn(vec![file], reqs, 3, 2, 2 * 2 * q * q);
        let p = pf.next().unwrap().unwrap();
        pf.recycle(p.data);
        drop(pf); // must not hang on stalled workers
    }
}
