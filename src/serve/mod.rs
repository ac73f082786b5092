//! `mmc serve` — a model-driven GEMM-as-a-service daemon.
//!
//! A long-running TCP server (std-only, zero new dependencies) that
//! accepts concurrent multiply jobs — in-memory shapes and out-of-core
//! `.tiled` paths — over the line-delimited JSON protocol of
//! [`protocol`], prices each one up front with the paper's model
//! ([`scheduler::price_mem`] / [`scheduler::price_ooc`]), and packs
//! compatible jobs onto a shared worker pool without ever overcommitting
//! the configured RAM budget ([`scheduler::Scheduler`]).
//!
//! Every dispatched job runs as a cancellable job unit
//! ([`mmc_exec::job::CancelToken`](crate::exec::CancelToken))
//! under its own span-trace job, and its completion report embeds the
//! predicted-vs-measured drift over the traced phases. The same port
//! answers `GET /metrics` with the Prometheus exposition of the global
//! registry.

pub mod protocol;
pub mod scheduler;

pub use protocol::{parse_request, Request};
pub use scheduler::{
    default_tiling, price_mem, price_ooc, JobPrice, JobReport, JobSpec, JobState, MemJobSpec,
    OocJobSpec, Rejection, Scheduler, ServeCounts, ServeStats,
};

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use crate::exec::kernel;
use crate::exec::{
    exec_drift, gemm_into, BlockMatrix, CancelToken, ExecModel, GemmOpts, KernelVariant, TracedRun,
};
use crate::obs::{span, SCHEMA_VERSION};
use crate::ooc::{ooc_multiply_cancellable, OocError, OocOpts, TiledFile};
use crate::sim::MachineConfig;
use crate::strassen::{strassen_multiply_cancellable, StrassenOpts};
use serde::Serialize;

/// How a [`Server`] is configured.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Total RAM budget for concurrently running jobs, bytes.
    pub ram_budget_bytes: u64,
    /// Maximum jobs on the pool at once.
    pub max_concurrent: usize,
    /// Machine model used for admission pricing.
    pub machine: MachineConfig,
    /// Drift band for per-job reports.
    pub band: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ram_budget_bytes: 256 << 20,
            max_concurrent: 4,
            machine: MachineConfig::quad_q32(),
            band: crate::obs::drift::DEFAULT_BAND,
        }
    }
}

/// FNV-1a folded one 64-bit word at a time over the bit patterns of
/// `data` (`h = (h ^ bits) · prime`, 64-bit offset basis and prime) —
/// bit-identity evidence a client can verify against a direct-API run
/// without shipping the matrix. Bit patterns, not values: `0.0` and
/// `-0.0` differ.
pub fn checksum_f64(data: &[f64]) -> u64 {
    data.iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, v| (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3))
}

/// The kernel variant the server runs everything with: the process's
/// dispatched variant ([`kernel::variant`], which honours `MMC_KERNEL`),
/// so served jobs run, and count their FLOPs under, the same variant as
/// every other entry point. Exposed so tests can reproduce results
/// bit-exactly through the direct APIs.
pub fn serve_variant() -> KernelVariant {
    kernel::variant()
}

struct Shared {
    scheduler: Scheduler,
    addr: SocketAddr,
}

impl Shared {
    /// Stop admitting and poke the accept loop awake with a self-connect.
    fn initiate_shutdown(&self) {
        self.scheduler.shutdown();
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running serve daemon. Dropping the handle does not stop it; call
/// [`Server::shutdown`] then [`Server::wait`] for a clean exit.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    job_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Measure the host ([`crate::obs::host_roofs`]), bind, spawn the
    /// accept loop and the dispatcher, and return. Measuring here, once,
    /// keeps the STREAM sweep out of every job's drift pricing.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        crate::obs::host_roofs();
        let listener =
            TcpListener::bind(config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable bind address")
            })?)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(
                config.ram_budget_bytes,
                config.max_concurrent,
                config.machine,
                config.band,
            ),
            addr,
        });
        let job_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let dispatcher = {
            let shared = Arc::clone(&shared);
            let handles = Arc::clone(&job_handles);
            thread::spawn(move || {
                while let Some((id, spec, price, token)) = shared.scheduler.next_runnable() {
                    let shared = Arc::clone(&shared);
                    let h =
                        thread::spawn(move || run_job(&shared.scheduler, id, spec, price, token));
                    let mut handles = handles.lock().unwrap();
                    // Reap finished job threads as we go, so the list holds
                    // only running jobs instead of one handle per job ever run.
                    let mut i = 0;
                    while i < handles.len() {
                        if handles[i].is_finished() {
                            let _ = handles.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                    handles.push(h);
                }
            })
        };

        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.scheduler.is_shutdown() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Replies are small single writes: send them at once
                    // instead of waiting out the client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let shared = Arc::clone(&shared);
                    thread::spawn(move || {
                        let _ = handle_connection(stream, &shared);
                    });
                }
            })
        };

        Ok(Server { shared, accept: Some(accept), dispatcher: Some(dispatcher), job_handles })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The admission controller, for in-process inspection (tests, CLI).
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.scheduler
    }

    /// Begin a clean shutdown: stop admitting, cancel queued jobs, trip
    /// the tokens of running jobs, and unblock the accept loop.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Block until the accept loop, the dispatcher and every dispatched
    /// job thread have exited. Call [`Server::shutdown`] first (or let a
    /// client's `shutdown` command do it).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        loop {
            let drained: Vec<JoinHandle<()>> =
                std::mem::take(&mut *self.job_handles.lock().unwrap());
            if drained.is_empty() {
                break;
            }
            for h in drained {
                let _ = h.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

fn run_job(sched: &Scheduler, id: u64, spec: JobSpec, price: JobPrice, token: CancelToken) {
    let started = Instant::now();
    let outcome = match &spec {
        JobSpec::Mem(m) => run_mem_job(sched, id, m, &price, &token),
        JobSpec::Ooc(o) => run_ooc_job(sched, id, o, &price, &token),
    };
    crate::obs::global().histogram("serve.job_us").observe(started.elapsed().as_micros() as u64);
    sched.finish(id, outcome);
}

fn run_mem_job(
    sched: &Scheduler,
    id: u64,
    spec: &MemJobSpec,
    price: &JobPrice,
    token: &CancelToken,
) -> JobState {
    let started = Instant::now();
    let tiling = default_tiling(&sched.machine);
    let variant = serve_variant();
    let a = BlockMatrix::pseudo_random(spec.m, spec.z, spec.q, spec.seed_a);
    let b = BlockMatrix::pseudo_random(spec.z, spec.n, spec.q, spec.seed_b);
    let trace_job = span::new_job();
    let epoch_ns = span::now_ns();
    let strassen = spec.algo == "strassen";
    let c = if strassen {
        let opts = StrassenOpts {
            variant,
            tiling,
            ..StrassenOpts::with_cutoff::<f64>(crate::strassen::DEFAULT_CUTOFF)
        };
        strassen_multiply_cancellable(&a, &b, &opts, Some(token)).map(|(c, _report)| c)
    } else {
        let mut c = BlockMatrix::zeros(spec.m, spec.n, spec.q);
        let opts = GemmOpts { variant, cancel: Some(token) };
        gemm_into(&mut c, &a, &b, tiling, &opts).then_some(c)
    };
    let spans = span::collect_job(trace_job);
    let Some(c) = c else {
        return JobState::Cancelled;
    };
    // The drift model prices the classic block schedule; a Strassen run
    // intentionally does less multiplication work, so comparing it would
    // only report the algorithmic gap as "drift".
    let drift = if strassen {
        None
    } else {
        let run = TracedRun { job: trace_job, epoch_ns, variant, spans };
        let model = ExecModel::for_run(&a, &b, variant);
        Some(exec_drift(&run, &model, sched.band))
    };
    JobState::Done(Box::new(JobReport {
        schema_version: SCHEMA_VERSION,
        job_id: id,
        kind: "mem".into(),
        trace_job,
        elapsed_seconds: started.elapsed().as_secs_f64(),
        price: price.clone(),
        peak_resident_bytes: price.footprint_bytes,
        within_budget: true,
        checksum: Some(checksum_f64(c.data())),
        out: None,
        sigma_f_blocks_per_s: None,
        drift,
    }))
}

fn run_ooc_job(
    sched: &Scheduler,
    id: u64,
    spec: &OocJobSpec,
    price: &JobPrice,
    token: &CancelToken,
) -> JobState {
    let started = Instant::now();
    let opts = OocOpts {
        mem_budget_bytes: spec.mem_budget_bytes,
        io_threads: spec.io_threads.max(1),
        variant: serve_variant(),
        machine: sched.machine.clone(),
        sigma_ratio_hint: 0.1,
    };
    match ooc_multiply_cancellable(
        Path::new(&spec.a),
        Path::new(&spec.b),
        Path::new(&spec.out),
        &opts,
        token,
    ) {
        Err(OocError::Cancelled) => JobState::Cancelled,
        Err(e) => JobState::Failed(e.to_string()),
        Ok(report) => JobState::Done(Box::new(JobReport {
            schema_version: SCHEMA_VERSION,
            job_id: id,
            kind: "ooc".into(),
            trace_job: report.trace_job,
            elapsed_seconds: started.elapsed().as_secs_f64(),
            price: price.clone(),
            peak_resident_bytes: report.peak_resident_bytes,
            within_budget: report.within_budget,
            checksum: None,
            out: Some(spec.out.clone()),
            sigma_f_blocks_per_s: report.sigma_f_blocks_per_s,
            drift: report.drift.clone(),
        })),
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct SubmitResp {
    ok: bool,
    job_id: u64,
    price: JobPrice,
}

#[derive(Serialize)]
struct RejectResp {
    ok: bool,
    rejected: bool,
    error: String,
    predicted_footprint_bytes: Option<u64>,
    ram_budget_bytes: u64,
}

#[derive(Serialize)]
struct JobResp {
    ok: bool,
    job_id: u64,
    state: String,
    price: JobPrice,
    report: Option<JobReport>,
    error: Option<String>,
}

#[derive(Serialize)]
struct StatsResp {
    ok: bool,
    stats: ServeStats,
}

#[derive(Serialize)]
struct MetricsResp {
    ok: bool,
    text: String,
}

#[derive(Serialize)]
struct ShutdownResp {
    ok: bool,
    shutting_down: bool,
}

fn job_resp(id: u64, state: JobState, price: JobPrice) -> String {
    let (report, error) = match &state {
        JobState::Done(r) => (Some((**r).clone()), None),
        JobState::Failed(e) => (None, Some(e.clone())),
        _ => (None, None),
    };
    protocol::response_line(&JobResp {
        ok: true,
        job_id: id,
        state: state.name().to_string(),
        price,
        report,
        error,
    })
}

/// Handle one parsed request; the bool says whether to start server
/// shutdown after writing the response.
fn handle_request(req: Request, shared: &Shared) -> (String, bool) {
    let sched = &shared.scheduler;
    let submit = |spec: JobSpec, priced: Result<JobPrice, String>| match priced {
        Err(error) => {
            sched.note_rejected();
            protocol::response_line(&RejectResp {
                ok: false,
                rejected: true,
                error,
                predicted_footprint_bytes: None,
                ram_budget_bytes: sched.ram_budget_bytes,
            })
        }
        Ok(price) => match sched.submit(spec, price) {
            Ok((job_id, price)) => protocol::response_line(&SubmitResp { ok: true, job_id, price }),
            Err(rej) => protocol::response_line(&RejectResp {
                ok: false,
                rejected: true,
                error: rej.error,
                predicted_footprint_bytes: rej.predicted_footprint_bytes,
                ram_budget_bytes: rej.ram_budget_bytes,
            }),
        },
    };
    match req {
        Request::SubmitMem(spec) => {
            let priced = price_mem(&spec, &sched.machine);
            (submit(JobSpec::Mem(spec), priced), false)
        }
        Request::SubmitOoc(spec) => {
            let priced = ooc_shape(&spec)
                .and_then(|(m, n, z, q)| price_ooc(&spec, m, n, z, q, &sched.machine));
            (submit(JobSpec::Ooc(spec), priced), false)
        }
        Request::Status(id) => (
            match sched.status(id) {
                Some((state, price)) => job_resp(id, state, price),
                None => protocol::error_line(&format!("unknown job {id}")),
            },
            false,
        ),
        Request::Wait(id) => (
            match sched.wait(id) {
                Some((state, price)) => job_resp(id, state, price),
                None => protocol::error_line(&format!("unknown job {id}")),
            },
            false,
        ),
        Request::Cancel(id) => (
            match sched.cancel(id) {
                Some(state) => protocol::response_line(&JobResp {
                    ok: true,
                    job_id: id,
                    state: state.to_string(),
                    price: sched.status(id).map(|(_, p)| p).unwrap_or(JobPrice {
                        flops: 0.0,
                        t_data: 0.0,
                        footprint_bytes: 0,
                        staging: None,
                    }),
                    report: None,
                    error: None,
                }),
                None => protocol::error_line(&format!("unknown job {id}")),
            },
            false,
        ),
        Request::Stats => {
            (protocol::response_line(&StatsResp { ok: true, stats: sched.stats() }), false)
        }
        Request::Metrics => (
            protocol::response_line(&MetricsResp {
                ok: true,
                text: crate::obs::global().render_prometheus(),
            }),
            false,
        ),
        Request::Shutdown => {
            (protocol::response_line(&ShutdownResp { ok: true, shutting_down: true }), true)
        }
    }
}

/// Validate an out-of-core submission's files and return the product
/// shape `(m, n, z, q)` for pricing.
fn ooc_shape(spec: &OocJobSpec) -> Result<(u32, u32, u32, usize), String> {
    let a = TiledFile::open(Path::new(&spec.a)).map_err(|e| format!("open {}: {e}", spec.a))?;
    let b = TiledFile::open(Path::new(&spec.b)).map_err(|e| format!("open {}: {e}", spec.b))?;
    let (ha, hb) = (a.header(), b.header());
    if ha.q != hb.q {
        return Err(format!("block size mismatch: A has q={}, B has q={}", ha.q, hb.q));
    }
    if ha.cols != hb.rows {
        return Err(format!(
            "shape mismatch: A is {}x{} blocks, B is {}x{} blocks",
            ha.rows, ha.cols, hb.rows, hb.cols
        ));
    }
    Ok((ha.rows, hb.cols, ha.cols, ha.q))
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    let mut first = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        if first && (line.starts_with("GET ") || line.starts_with("HEAD ")) {
            return serve_http(&line, &mut reader, &mut writer);
        }
        first = false;
        if line.trim().is_empty() {
            continue;
        }
        let (mut resp, shutdown_after) = match protocol::parse_request(&line) {
            Ok(req) => handle_request(req, shared),
            Err(e) => (protocol::error_line(&e), false),
        };
        // Reply and newline in one write: one segment per reply.
        resp.push('\n');
        writer.write_all(resp.as_bytes())?;
        writer.flush()?;
        if shutdown_after {
            shared.initiate_shutdown();
            return Ok(());
        }
    }
}

/// Minimal HTTP for scrapers: `GET /metrics` returns the Prometheus
/// exposition; anything else 404s. One request per connection.
fn serve_http(
    request_line: &str,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) -> io::Result<()> {
    // Drain the request headers so the client sees a clean close.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 0 {
        if header == "\r\n" || header == "\n" {
            break;
        }
        header.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        ("200 OK", crate::obs::global().render_prometheus())
    } else {
        ("404 Not Found", format!("no such path {path}; try /metrics\n"))
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()?;
    let _ = writer.shutdown(Shutdown::Both);
    let _ = reader.read(&mut [0u8; 1]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        let a = [1.0f64, 2.0, 3.0];
        let b = [3.0f64, 2.0, 1.0];
        assert_eq!(checksum_f64(&a), checksum_f64(&a));
        assert_ne!(checksum_f64(&a), checksum_f64(&b));
        assert_ne!(checksum_f64(&[0.0]), checksum_f64(&[-0.0]), "bit patterns, not values");
    }

    #[test]
    fn checksum_is_word_wise_fnv1a() {
        let data = [1.0f64, -0.0, f64::MIN_POSITIVE, 3.5e300, -2.25, f64::NAN];
        let mut want = 0xcbf2_9ce4_8422_2325_u64;
        for v in data {
            want ^= v.to_bits();
            want = want.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(checksum_f64(&data), want);
        assert_eq!(checksum_f64(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn serve_variant_is_available_on_this_host() {
        assert!(serve_variant().is_available());
        assert_eq!(serve_variant(), kernel::variant());
    }
}
