//! `serve_mixed`: an open loop of seeded Poisson arrivals against an
//! in-process `Server` on loopback — one submitting connection on the
//! calling thread, one waiting connection on a second thread.
//!
//! Every job is timed from its due time, not from when the generator
//! got round to sending it. Completions are observed by polling `status`
//! for every outstanding job, so a fast job is never credited with a
//! slower predecessor's finish time the way `wait` in submission order
//! would credit it.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use multicore_matmul::exec::blocking::active_plan;
use multicore_matmul::exec::{gemm_parallel_with_plan, BlockMatrix};
use multicore_matmul::obs::span::{self, SpanKind};
use multicore_matmul::ooc::write_pseudo_random;
use multicore_matmul::serve::{
    checksum_f64, serve_variant, MemJobSpec, OocJobSpec, ServeConfig, Server,
};
use multicore_matmul::strassen::{strassen_multiply, StrassenOpts, DEFAULT_CUTOFF};
use serde::Value;

use crate::host::{peak_rss_mib, reset_peak_rss};
use crate::layers::{served_tiling, ExecCounters, ExecTrace};
use crate::ooc_stream::file_fingerprint;
use crate::report::Outcome;
use crate::stats::{fingerprint, median, nearest_rank, tail};
use crate::{timed, Rng, RunCfg, SETUP_REPS};

/// Why this workload is in the benchmark.
pub const WHY: &str = "the only workload with admission pricing, queueing and concurrent jobs, \
                       dominated by cache-resident products, per-call thread spawns and oversubscription";

/// Poisson arrival rate, jobs per second: about half of what the server
/// completes with this mix on a two-core host (goodput levels off near
/// 21 GFLOP/s, about 65 jobs/s).
pub const RATE_PER_S: f64 = 32.0;
/// The server's RAM budget: a Strassen n=1024 job and a classic one do
/// not fit together, so large jobs sometimes queue, but every job fits
/// alone.
pub const RAM_BUDGET: u64 = 96 << 20;
/// Order and block side of the out-of-core job files.
const OOC_ORDER: u32 = 8;
const OOC_Q: usize = 64;
/// Staging budget of each out-of-core job: a fifth of its operands.
const OOC_BUDGET: u64 = 3 * (OOC_ORDER as u64 * OOC_Q as u64).pow(2) * 8 / 5;
/// File pairs the out-of-core jobs draw from.
const OOC_PAIRS: usize = 2;
/// Distinct small specs the small jobs draw from.
const SMALL_SPECS: usize = 24;
/// How long the waiting thread sleeps when a poll finds nothing done.
const POLL: Duration = Duration::from_micros(500);
/// A run whose generator sends later than this at p99 fell behind.
const LATE_LIMIT_MS: f64 = 50.0;
/// Jobs each set-up runs through the server to warm it up.
const WARMUP_JOBS: f64 = 2.0;
/// How long outstanding jobs may take to finish after the last arrival.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Server settings and arrival rate, for the stamp.
pub fn stamp_fields() -> Vec<(String, String)> {
    vec![
        ("serve_rate_per_s".into(), format!("{RATE_PER_S}")),
        ("serve_ram_budget_bytes".into(), RAM_BUDGET.to_string()),
        ("serve_max_concurrent".into(), ServeConfig::default().max_concurrent.to_string()),
    ]
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Small,
    Medium,
    Strassen,
    Ooc,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Small => "small",
            Class::Medium => "medium",
            Class::Strassen => "strassen",
            Class::Ooc => "ooc",
        }
    }
}

/// The seeded job mix: distinct specs jobs are drawn from.
struct Pool {
    small: Vec<MemJobSpec>,
    medium: Vec<MemJobSpec>,
    strassen: Vec<MemJobSpec>,
    /// Seeds of the `(A, B)` out-of-core operand pairs.
    ooc: Vec<(u64, u64)>,
}

fn mem(order: u32, q: usize, rng: &mut Rng, algo: &str) -> MemJobSpec {
    MemJobSpec {
        m: order,
        n: order,
        z: order,
        q,
        seed_a: rng.next_u64() >> 12,
        seed_b: rng.next_u64() >> 12,
        algo: algo.into(),
    }
}

impl Pool {
    fn new(seed: u64) -> Pool {
        let mut rng = Rng::new(seed, 4);
        // Every (n, q) pair with n in 128..=512 and q in {32, 64}, three
        // times over with fresh operand seeds: the seed changes values,
        // never the work.
        let small = (0..SMALL_SPECS)
            .map(|k| {
                let n = 128 * (1 + k % 4);
                let q = if (k / 4) % 2 == 0 { 32 } else { 64 };
                mem((n / q) as u32, q, &mut rng, "classic")
            })
            .collect();
        let medium = (0..2).map(|_| mem(16, 64, &mut rng, "classic")).collect();
        let strassen = (0..2).map(|_| mem(16, 64, &mut rng, "strassen")).collect();
        let ooc = (0..OOC_PAIRS).map(|_| (rng.next_u64(), rng.next_u64())).collect();
        Pool { small, medium, strassen, ooc }
    }

    fn mem_spec(&self, class: Class, i: usize) -> Option<&MemJobSpec> {
        match class {
            Class::Small => Some(&self.small[i]),
            Class::Medium => Some(&self.medium[i]),
            Class::Strassen => Some(&self.strassen[i]),
            Class::Ooc => None,
        }
    }

    fn flops(&self, class: Class, i: usize) -> f64 {
        let (order, q) = match self.mem_spec(class, i) {
            Some(s) => (s.m, s.q),
            None => (OOC_ORDER, OOC_Q),
        };
        2.0 * ((order as usize * q) as f64).powi(3)
    }
}

/// The specs the admission-pricing probe prices: every in-memory spec of
/// the mix and one out-of-core spec.
pub fn pricing_specs(seed: u64) -> (Vec<MemJobSpec>, OocJobSpec) {
    let p = Pool::new(seed);
    let mem = p.small.iter().chain(&p.medium).chain(&p.strassen).cloned().collect();
    (mem, ooc_spec("a.tiled", "b.tiled", "c.tiled"))
}

fn ooc_spec(a: &str, b: &str, out: &str) -> OocJobSpec {
    OocJobSpec {
        a: a.into(),
        b: b.into(),
        out: out.into(),
        mem_budget_bytes: OOC_BUDGET,
        io_threads: 2,
    }
}

fn submit_line(spec: &MemJobSpec) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"kind\":\"mem\",\"m\":{},\"n\":{},\"z\":{},\"q\":{},\"seed_a\":{},\
         \"seed_b\":{},\"algo\":\"{}\"}}\n",
        spec.m, spec.n, spec.z, spec.q, spec.seed_a, spec.seed_b, spec.algo
    )
}

fn submit_ooc_line(spec: &OocJobSpec) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"kind\":\"ooc\",\"a\":{},\"b\":{},\"out\":{},\
         \"mem_budget_bytes\":{},\"io_threads\":{}}}\n",
        crate::host::json_str(&spec.a),
        crate::host::json_str(&spec.b),
        crate::host::json_str(&spec.out),
        spec.mem_budget_bytes,
        spec.io_threads
    )
}

/// One line-JSON client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes of a reply line not yet complete when a read timed out.
    partial: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::new(s.try_clone()?), writer: s, partial: Vec::new() })
    }

    fn send(&mut self, lines: &str) -> std::io::Result<()> {
        self.writer.write_all(lines.as_bytes())
    }

    /// The next reply line.
    fn recv(&mut self) -> std::io::Result<Value> {
        self.recv_by(None)?.ok_or_else(|| std::io::ErrorKind::TimedOut.into())
    }

    /// The next reply line, or `None` once `deadline` has passed.
    fn recv_by(&mut self, deadline: Option<Instant>) -> std::io::Result<Option<Value>> {
        use std::io::ErrorKind::{InvalidData, TimedOut, UnexpectedEof, WouldBlock};
        loop {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|l| l < Duration::from_micros(20)) {
                return Ok(None);
            }
            self.writer.set_read_timeout(left)?;
            match self.reader.read_until(b'\n', &mut self.partial) {
                Ok(0) => return Err(std::io::Error::new(UnexpectedEof, "server closed")),
                Ok(_) if self.partial.ends_with(b"\n") => {
                    let line = std::mem::take(&mut self.partial);
                    let line = String::from_utf8_lossy(&line);
                    return serde_json::from_str(&line)
                        .map(Some)
                        .map_err(|e| std::io::Error::new(InvalidData, e.to_string()));
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A submitted job travelling from the submitting to the waiting thread.
struct Submitted {
    id: u64,
    class: Class,
    spec: usize,
    due: Instant,
    sent: Instant,
    rtt_s: f64,
    out: Option<String>,
}

/// A job the waiting thread saw finish.
struct Finished {
    job: Submitted,
    latency_s: f64,
    done: bool,
    service_s: f64,
    checksum: Option<u64>,
    trace_job: u64,
}

/// The job's final state if it left the queue, else the job back.
fn finished(job: Submitted, v: &Value, now: Instant) -> Result<Finished, Submitted> {
    let state = v.get("state").and_then(Value::as_str).unwrap_or("failed");
    if state == "queued" || state == "running" {
        return Err(job);
    }
    let field = |k: &str| v.get("report").and_then(|r| r.get(k));
    Ok(Finished {
        latency_s: now.duration_since(job.due).as_secs_f64(),
        done: state == "done",
        service_s: field("elapsed_seconds").and_then(Value::as_f64).unwrap_or(0.0),
        checksum: field("checksum").and_then(Value::as_u64),
        trace_job: field("trace_job").and_then(Value::as_u64).unwrap_or(0),
        job,
    })
}

/// What the waiting thread hands back.
#[derive(Default)]
struct Waited {
    finished: Vec<Finished>,
    lost: usize,
    running_samples: Vec<f64>,
    stats: Option<Value>,
    ended: Option<Instant>,
    /// When `stats` sampling started (jobs due before it ran unsampled).
    sample_from: Option<Instant>,
}

/// The waiting connection: poll `status` for every outstanding job
/// until the submitter hangs up and nothing is left, or the drain limit
/// passes. From `sample_from` on (traced runs) it also samples `stats`
/// every 50 ms.
fn wait_loop(
    conn: &mut Conn,
    rx: mpsc::Receiver<Submitted>,
    sample_from: Option<Instant>,
) -> Waited {
    let mut w = Waited { sample_from, ..Waited::default() };
    let mut outstanding: Vec<Submitted> = Vec::new();
    let mut hung_up: Option<Instant> = None;
    let mut last_sample = Instant::now();
    loop {
        if outstanding.is_empty() && hung_up.is_none() {
            match rx.recv() {
                Ok(s) => outstanding.push(s),
                Err(_) => hung_up = Some(Instant::now()),
            }
        }
        loop {
            match rx.try_recv() {
                Ok(s) => outstanding.push(s),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    hung_up.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }
        let sampling = sample_from.is_some_and(|t| Instant::now() >= t);
        if sampling && last_sample.elapsed() >= Duration::from_millis(50) {
            last_sample = Instant::now();
            let running = conn
                .send("{\"cmd\":\"stats\"}\n")
                .and_then(|_| conn.recv())
                .ok()
                .and_then(|v| v.get("stats")?.get("running")?.as_f64());
            w.running_samples.extend(running);
        }
        if outstanding.is_empty() {
            if hung_up.is_some() {
                break;
            }
            continue;
        }
        let batch: String = outstanding
            .iter()
            .map(|s| format!("{{\"cmd\":\"status\",\"job_id\":{}}}\n", s.id))
            .collect();
        let replies: Option<Vec<Value>> = conn
            .send(&batch)
            .ok()
            .and_then(|_| (0..outstanding.len()).map(|_| conn.recv().ok()).collect());
        let Some(replies) = replies else { break };
        let now = Instant::now();
        let before = outstanding.len();
        let mut still = Vec::with_capacity(before);
        for (job, v) in outstanding.drain(..).zip(&replies) {
            match finished(job, v, now) {
                Ok(f) => w.finished.push(f),
                Err(job) => still.push(job),
            }
        }
        outstanding = still;
        if hung_up.is_some_and(|t| t.elapsed() > DRAIN_LIMIT) {
            break;
        }
        if outstanding.len() == before {
            std::thread::sleep(POLL);
        }
    }
    w.ended = Some(Instant::now());
    w.lost = outstanding.len();
    w.stats = conn.send("{\"cmd\":\"stats\"}\n").and_then(|_| conn.recv()).ok();
    w
}

fn ooc_paths(cfg: &RunCfg<'_>, pair: usize) -> (String, String) {
    let p = |n: String| cfg.work.file(&n).to_string_lossy().into_owned();
    (p(format!("serve_a{pair}.tiled")), p(format!("serve_b{pair}.tiled")))
}

fn stop(server: Server) {
    server.shutdown();
    server.wait();
}

/// Start a server, write the out-of-core operand files, and warm both
/// job paths up with one small and one out-of-core job.
fn setup(cfg: &RunCfg<'_>, pool: &Pool) -> Result<Server, String> {
    let config = ServeConfig { ram_budget_bytes: RAM_BUDGET, ..ServeConfig::default() };
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let warm = || -> Result<(), String> {
        for (i, &(sa, sb)) in pool.ooc.iter().enumerate() {
            let (a, b) = ooc_paths(cfg, i);
            write_pseudo_random(a.as_ref(), OOC_ORDER, OOC_ORDER, OOC_Q, sa)
                .map_err(|e| e.to_string())?;
            write_pseudo_random(b.as_ref(), OOC_ORDER, OOC_ORDER, OOC_Q, sb)
                .map_err(|e| e.to_string())?;
        }
        let mut conn = Conn::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let (a, b) = ooc_paths(cfg, 0);
        let out = cfg.work.file("serve_warm.tiled").to_string_lossy().into_owned();
        for line in [submit_line(&pool.small[0]), submit_ooc_line(&ooc_spec(&a, &b, &out))] {
            conn.send(&line).map_err(|e| e.to_string())?;
            let v = conn.recv().map_err(|e| e.to_string())?;
            let id = v.get("job_id").and_then(Value::as_u64).ok_or("warm-up job refused")?;
            conn.send(&format!("{{\"cmd\":\"wait\",\"job_id\":{id}}}\n"))
                .map_err(|e| e.to_string())?;
            let v = conn.recv().map_err(|e| e.to_string())?;
            if v.get("state").and_then(Value::as_str) != Some("done") {
                return Err(format!("warm-up job ended {:?}", v.get("state")));
            }
        }
        Ok(())
    };
    match warm() {
        Ok(()) => Ok(server),
        Err(e) => {
            stop(server);
            Err(e)
        }
    }
}

/// Reference checksums, computed once per distinct spec through the
/// direct APIs the server runs.
struct References<'p> {
    pool: &'p Pool,
    mem: BTreeMap<(Class, usize), u64>,
    ooc: BTreeMap<usize, u64>,
}

impl References<'_> {
    fn mem(&mut self, class: Class, i: usize) -> u64 {
        let pool = self.pool;
        *self.mem.entry((class, i)).or_insert_with(|| {
            let spec = pool.mem_spec(class, i).expect("in-memory class");
            let a = BlockMatrix::pseudo_random(spec.m, spec.z, spec.q, spec.seed_a);
            let b = BlockMatrix::pseudo_random(spec.z, spec.n, spec.q, spec.seed_b);
            let tiling = served_tiling();
            let plan = active_plan::<f64>();
            let c = if class == Class::Strassen {
                let opts =
                    StrassenOpts { cutoff: DEFAULT_CUTOFF, variant: serve_variant(), plan, tiling };
                strassen_multiply(&a, &b, &opts).0
            } else {
                gemm_parallel_with_plan(&a, &b, tiling, serve_variant(), plan)
            };
            checksum_f64(c.data())
        })
    }

    fn ooc(&mut self, pair: usize) -> u64 {
        let (sa, sb) = self.pool.ooc[pair];
        *self.ooc.entry(pair).or_insert_with(|| {
            let a = BlockMatrix::pseudo_random(OOC_ORDER, OOC_ORDER, OOC_Q, sa);
            let b = BlockMatrix::pseudo_random(OOC_ORDER, OOC_ORDER, OOC_Q, sb);
            let c = gemm_parallel_with_plan(
                &a,
                &b,
                served_tiling(),
                serve_variant(),
                active_plan::<f64>(),
            );
            fingerprint(c.data())
        })
    }
}

/// The arrival schedule: `RATE_PER_S · seconds` Poisson arrivals (their
/// times are then uniform order statistics), and a job mix dealt from
/// shuffled decks of 20 — 16 small, 1 classic n=1024, 1 Strassen n=1024,
/// 2 out-of-core — so every seed offers the same work.
fn schedule(pool: &Pool, seed: u64, seconds: f64) -> Vec<(f64, Class, usize)> {
    let mut rng = Rng::new(seed, 5);
    let n = (RATE_PER_S * seconds).round().max(1.0) as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut small: Vec<usize> = Vec::new();
    let mut deck: Vec<(Class, usize)> = Vec::new();
    times
        .into_iter()
        .enumerate()
        .map(|(k, t)| {
            if deck.is_empty() {
                deck.extend(std::iter::repeat_n((Class::Small, 0), 16));
                deck.push((Class::Medium, k % pool.medium.len()));
                deck.push((Class::Strassen, k % pool.strassen.len()));
                deck.extend((0..2).map(|j| (Class::Ooc, j % pool.ooc.len())));
                rng.shuffle(&mut deck);
            }
            let (class, mut i) = deck.pop().expect("dealt deck");
            if class == Class::Small {
                if small.is_empty() {
                    small.extend(0..pool.small.len());
                    rng.shuffle(&mut small);
                }
                i = small.pop().expect("dealt small deck");
            }
            (t, class, i)
        })
        .collect()
}

/// Run the workload.
pub fn run(cfg: &RunCfg<'_>) -> Outcome {
    let pool = Pool::new(cfg.seed);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            stop(s);
        }
        let (r, secs) = timed(|| setup(cfg, &pool));
        match r {
            Ok(s) => server = Some(s),
            Err(e) => {
                eprintln!("serve_mixed: set-up failed: {e}");
                out.attempted = 1;
                out.failed = 1;
                return out;
            }
        }
        setups.push(secs);
    }
    let server = server.expect("set up at least once");
    let addr = server.local_addr();
    let arrivals = schedule(&pool, cfg.seed, cfg.seconds);
    let (mut submit, mut waiting) = match (Conn::connect(addr), Conn::connect(addr)) {
        (Ok(s), Ok(w)) => (s, w),
        _ => {
            stop(server);
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };

    let before = ExecCounters::read();
    let (tx, rx) = mpsc::channel();
    reset_peak_rss();
    let start = Instant::now();
    let mut late_ms = Vec::new();
    let mut refused = 0u64;
    let (w, submitted_flops) = std::thread::scope(|scope| {
        // Traced runs sample `stats` over the second half only, so the
        // first half measures the same jobs without that load.
        let sample_from = cfg.trace.then(|| start + Duration::from_secs_f64(cfg.seconds / 2.0));
        let waiter = scope.spawn(move || wait_loop(&mut waiting, rx, sample_from));
        // Submissions are pipelined: the generator never waits for a
        // reply before the next due time, and reads replies (in order)
        // while it sleeps.
        let mut offered = 0.0;
        let mut pending: VecDeque<Submitted> = VecDeque::new();
        let mut broken = false;
        let mut on_reply = |v: Value, pending: &mut VecDeque<Submitted>| {
            let Some(mut job) = pending.pop_front() else { return };
            job.rtt_s = job.sent.elapsed().as_secs_f64();
            match v.get("job_id").and_then(Value::as_u64) {
                Some(id) => {
                    job.id = id;
                    // The waiting thread only hangs up when the server
                    // stopped answering; the job is lost with it.
                    if tx.send(job).is_err() {
                        refused += 1;
                    }
                }
                None => refused += 1,
            }
        };
        for (k, &(t, class, i)) in arrivals.iter().enumerate() {
            let due = start + Duration::from_secs_f64(t);
            while !broken {
                match submit.recv_by(Some(due)) {
                    Ok(Some(v)) => on_reply(v, &mut pending),
                    Ok(None) => break,
                    Err(_) => broken = true,
                }
            }
            let sent = Instant::now();
            late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
            offered += pool.flops(class, i);
            let (line, out) = match pool.mem_spec(class, i) {
                Some(spec) => (submit_line(spec), None),
                None => {
                    let (a, b) = ooc_paths(cfg, i);
                    let o =
                        cfg.work.file(&format!("serve_c{k}.tiled")).to_string_lossy().into_owned();
                    (submit_ooc_line(&ooc_spec(&a, &b, &o)), Some(o))
                }
            };
            broken |= submit.send(&line).is_err();
            pending.push_back(Submitted { id: 0, class, spec: i, due, sent, rtt_s: 0.0, out });
        }
        let drain_by = Instant::now() + DRAIN_LIMIT;
        while !broken && !pending.is_empty() {
            match submit.recv_by(Some(drain_by)) {
                Ok(Some(v)) => on_reply(v, &mut pending),
                _ => broken = true,
            }
        }
        refused += pending.len() as u64;
        drop(tx);
        (waiter.join().expect("waiting thread"), offered)
    });
    let wall = w.ended.unwrap_or_else(Instant::now).duration_since(start).as_secs_f64();
    let peak = peak_rss_mib();
    let exec_delta = ExecCounters::read().since(before);
    stop(server);

    // Checks, outside every timed region.
    let mut refs = References { pool: &pool, mem: BTreeMap::new(), ooc: BTreeMap::new() };
    let mut wrong = 0u64;
    let mut good_flops = 0.0;
    for f in &w.finished {
        let ok = f.done
            && match &f.job.out {
                None => f.checksum == Some(refs.mem(f.job.class, f.job.spec)),
                Some(path) => {
                    let fp = file_fingerprint(path.as_ref());
                    let _ = std::fs::remove_file(path);
                    fp == Some(refs.ooc(f.job.spec))
                }
            };
        if ok {
            good_flops += pool.flops(f.job.class, f.job.spec);
        } else {
            wrong += 1;
        }
    }
    out.attempted = arrivals.len() as u64;
    out.failed = refused + wrong + w.lost as u64;

    let late_p99 = if late_ms.is_empty() {
        0.0
    } else {
        let mut s = late_ms.clone();
        s.sort_by(f64::total_cmp);
        nearest_rank(&s, 99.0)
    };
    if late_p99 > LATE_LIMIT_MS {
        eprintln!("serve_mixed: invalid run: generator p99 lateness {late_p99:.1} ms > {LATE_LIMIT_MS} ms");
        out.failed = out.failed.max(1);
        out.notes.push(format!("INVALID: the generator fell behind (p99 late {late_p99:.3} ms)"));
    }
    let latencies_ms: Vec<f64> =
        w.finished.iter().filter(|f| f.done).map(|f| f.latency_s * 1e3).collect();
    if cfg.trace {
        report_layers(&mut out, &pool, &w, exec_delta, (submitted_flops, good_flops), late_p99);
    } else {
        out.set("setup_s", median(&setups));
        out.set("gflops", good_flops / wall / 1e9);
        out.set("p50_ms", median(&latencies_ms));
        out.set_tail(tail(&latencies_ms));
        out.set("peak_rss_mib", peak);
        out.notes.push(format!(
            "{} arrivals at {RATE_PER_S}/s over {:.1} s, p99 generator lateness {late_p99:.3} ms",
            arrivals.len(),
            cfg.seconds
        ));
    }
    out
}

fn report_layers(
    out: &mut Outcome,
    pool: &Pool,
    w: &Waited,
    exec_delta: ExecCounters,
    (submitted_flops, good_flops): (f64, f64),
    late_p99: f64,
) {
    let done: Vec<&Finished> = w.finished.iter().filter(|f| f.done).collect();
    let ms = |v: Vec<f64>| median(&v) * 1e3;
    out.set("serve.submit.rtt_ms", ms(w.finished.iter().map(|f| f.job.rtt_s).collect()));
    out.set(
        "serve.queue_wait_ms",
        ms(done.iter().map(|f| f.latency_s - f.service_s - f.job.rtt_s).collect()),
    );
    for class in [Class::Small, Class::Medium, Class::Strassen, Class::Ooc] {
        let service = done.iter().filter(|f| f.job.class == class).map(|f| f.service_s).collect();
        out.set(&format!("serve.service_ms.{}", class.name()), ms(service));
    }
    out.set(
        "serve.running_mean",
        w.running_samples.iter().sum::<f64>() / w.running_samples.len().max(1) as f64,
    );
    let stats = w.stats.as_ref().and_then(|v| v.get("stats"));
    let stat = |path: &[&str]| {
        let v = stats.and_then(|s| path.iter().try_fold(s, |v, k| v.get(k)));
        v.and_then(Value::as_f64).unwrap_or(0.0)
    };
    out.set("serve.ram_peak_frac", stat(&["ram_peak_bytes"]) / RAM_BUDGET as f64);
    out.set("serve.completed", stat(&["counts", "completed"]) - WARMUP_JOBS);
    out.set("serve.rejected", stat(&["counts", "rejected"]));
    out.set("serve.failed", stat(&["counts", "failed"]));
    out.set(
        "serve.goodput_frac",
        if submitted_flops > 0.0 { good_flops / submitted_flops } else { 0.0 },
    );
    out.set("loadgen.late_ms", late_p99);

    // The exec layer under the served classic jobs: every span the rings
    // still hold, grouped by the jobs' trace ids. One consuming sweep, so
    // the cost does not grow with the number of jobs.
    let mut by_job: BTreeMap<u64, Vec<span::SpanRecord>> = BTreeMap::new();
    for s in span::drain() {
        by_job.entry(s.job).or_default().push(s);
    }
    let mut exec = ExecTrace::default();
    let tiling = served_tiling();
    let mut halves = [Vec::new(), Vec::new()];
    for f in &done {
        let spans = by_job.remove(&f.trace_job).unwrap_or_default();
        exec.absorb(&spans, ExecCounters::default(), None);
        let classic = pool.mem_spec(f.job.class, f.job.spec).filter(|s| s.algo == "classic");
        if let Some(spec) = classic {
            let tiles = spec.m.div_ceil(tiling.tile_m) * spec.n.div_ceil(tiling.tile_n);
            let seen = spans.iter().filter(|s| s.kind == SpanKind::Tile).count() as u64;
            exec.spans_lost += (tiles as u64).saturating_sub(seen);
        }
        if f.service_s > 0.0 {
            let sampled = w.sample_from.is_some_and(|t| f.job.due >= t);
            halves[sampled as usize].push(pool.flops(f.job.class, f.job.spec) / f.service_s / 1e9);
        }
    }
    exec.counters = exec_delta;
    exec.report(out);
    out.set("bench.spans_lost", exec.spans_lost as f64);
    let (plain, traced) = (median(&halves[0]), median(&halves[1]));
    out.set("bench.trace_overhead_frac", if plain > 0.0 { 1.0 - traced / plain } else { 0.0 });
}
