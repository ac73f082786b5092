//! End-to-end tests of `mmc serve`: a real TCP server on an ephemeral
//! port, concurrent in-memory and out-of-core jobs whose combined naive
//! footprint exceeds the RAM budget, bit-identity against the direct
//! APIs, model-priced rejections, mid-job cancellation, the Prometheus
//! endpoint, and clean shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use multicore_matmul::exec::{gemm_parallel_with_kernel, BlockMatrix};
use multicore_matmul::ooc::{ooc_multiply, write_pseudo_random, OocOpts};
use multicore_matmul::serve::{
    checksum_f64, default_tiling, price_mem, price_ooc, serve_variant, MemJobSpec, OocJobSpec,
    ServeConfig, Server,
};
use multicore_matmul::sim::MachineConfig;
use multicore_matmul::strassen::{strassen_multiply, StrassenOpts, DEFAULT_CUTOFF};
use serde::Value;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to serve daemon");
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn call(&mut self, request: &str) -> Value {
        // Request and newline in one write, so Nagle never holds the
        // newline back waiting for the server's delayed ACK.
        self.writer.write_all(format!("{request}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response line");
        assert!(!line.is_empty(), "server closed the connection mid-request");
        serde_json::from_str(&line).expect("response is JSON")
    }
}

fn u64_of(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("missing {key} in {v:?}"))
}

fn str_of<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key} in {v:?}"))
}

fn submit_mem(c: &mut Client, s: &MemJobSpec) -> Value {
    c.call(&format!(
        r#"{{"cmd":"submit","kind":"mem","m":{},"n":{},"z":{},"q":{},"seed_a":{},"seed_b":{},"algo":"{}"}}"#,
        s.m, s.n, s.z, s.q, s.seed_a, s.seed_b, s.algo
    ))
}

fn submit_ooc(c: &mut Client, s: &OocJobSpec) -> Value {
    c.call(&format!(
        r#"{{"cmd":"submit","kind":"ooc","a":"{}","b":"{}","out":"{}","mem_budget_bytes":{},"io_threads":{}}}"#,
        s.a, s.b, s.out, s.mem_budget_bytes, s.io_threads
    ))
}

fn wait_job(c: &mut Client, id: u64) -> Value {
    c.call(&format!(r#"{{"cmd":"wait","job_id":{id}}}"#))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmc-serve-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tentpole acceptance scenario: eight concurrent jobs (six
/// in-memory, two out-of-core) whose combined predicted footprint
/// exceeds the server's RAM budget. All of them must complete
/// bit-identically to the direct APIs, every report must embed a drift
/// section, and the scheduler's peak-resident gauge must stay within
/// the budget.
#[test]
fn concurrent_jobs_pack_within_budget_and_match_direct_apis() {
    let machine = MachineConfig::quad_q32();
    let dir = scratch_dir("pack");

    let mem_specs: Vec<MemJobSpec> = (0..6)
        .map(|i| MemJobSpec {
            m: 4,
            n: 4,
            z: 4,
            q: 16,
            seed_a: 10 + i,
            seed_b: 20 + i,
            algo: "classic".into(),
        })
        .collect();
    let mut ooc_specs = Vec::new();
    for i in 0..2u64 {
        let (fa, fb, fc) = (
            dir.join(format!("a{i}.tiled")),
            dir.join(format!("b{i}.tiled")),
            dir.join(format!("c{i}.tiled")),
        );
        write_pseudo_random(&fa, 6, 6, 8, 100 + i).unwrap();
        write_pseudo_random(&fb, 6, 6, 8, 200 + i).unwrap();
        ooc_specs.push(OocJobSpec {
            a: fa.display().to_string(),
            b: fb.display().to_string(),
            out: fc.display().to_string(),
            mem_budget_bytes: 16 << 10,
            io_threads: 2,
        });
    }

    // Size the budget from the model prices themselves: every job fits
    // alone, the eight together do not.
    let mut footprints: Vec<u64> =
        mem_specs.iter().map(|s| price_mem(s, &machine).unwrap().footprint_bytes).collect();
    for s in &ooc_specs {
        footprints.push(price_ooc(s, 6, 6, 6, 8, &machine).unwrap().footprint_bytes);
    }
    let combined: u64 = footprints.iter().sum();
    let budget = (combined / 2).max(*footprints.iter().max().unwrap());
    assert!(combined > budget, "the 8 jobs must not all fit at once");

    let server = Server::start(ServeConfig {
        ram_budget_bytes: budget,
        max_concurrent: 4,
        machine: machine.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr());

    let mut ids = Vec::new();
    for s in &mem_specs {
        let resp = submit_mem(&mut client, s);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{resp:?}");
        ids.push(u64_of(&resp, "job_id"));
    }
    for s in &ooc_specs {
        let resp = submit_ooc(&mut client, s);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{resp:?}");
        ids.push(u64_of(&resp, "job_id"));
    }

    // Every job completes, with a drift section in every report.
    let mut reports = Vec::new();
    for &id in &ids {
        let resp = wait_job(&mut client, id);
        assert_eq!(str_of(&resp, "state"), "done", "job {id}: {resp:?}");
        let report = resp.get("report").cloned().expect("done job carries a report");
        assert!(
            !matches!(report.get("drift"), None | Some(Value::Null)),
            "job {id} report must embed predicted-vs-measured drift"
        );
        assert_eq!(report.get("within_budget").and_then(Value::as_bool), Some(true));
        reports.push(report);
    }

    // Bit-identity, in-memory jobs: the served checksum equals a direct
    // gemm over the same deterministic operands.
    let tiling = default_tiling(&machine);
    let variant = serve_variant();
    for (spec, report) in mem_specs.iter().zip(&reports) {
        let a = BlockMatrix::pseudo_random(spec.m, spec.z, spec.q, spec.seed_a);
        let b = BlockMatrix::pseudo_random(spec.z, spec.n, spec.q, spec.seed_b);
        let c = gemm_parallel_with_kernel(&a, &b, tiling, variant);
        assert_eq!(
            report.get("checksum").and_then(Value::as_u64),
            Some(checksum_f64(c.data())),
            "served product must be bit-identical to the direct API"
        );
    }

    // Bit-identity, out-of-core jobs: the served .tiled file equals a
    // direct ooc_multiply with the same options.
    for (i, spec) in ooc_specs.iter().enumerate() {
        let direct_out = dir.join(format!("direct{i}.tiled"));
        let mut opts = OocOpts::new(spec.mem_budget_bytes);
        opts.io_threads = spec.io_threads;
        opts.variant = variant;
        opts.machine = machine.clone();
        ooc_multiply(
            std::path::Path::new(&spec.a),
            std::path::Path::new(&spec.b),
            &direct_out,
            &opts,
        )
        .unwrap();
        let served = std::fs::read(&spec.out).unwrap();
        let direct = std::fs::read(&direct_out).unwrap();
        assert_eq!(served, direct, "served .tiled output must be byte-identical");
    }

    // Budget evidence: the peak-resident gauge never exceeded the
    // budget, and the stats command agrees.
    let peak = server.scheduler().ram_peak_bytes();
    assert!(peak > 0 && peak <= budget, "peak {peak} vs budget {budget}");
    let stats = client.call(r#"{"cmd":"stats"}"#);
    let s = stats.get("stats").expect("stats body");
    assert_eq!(u64_of(s, "ram_peak_bytes"), peak);
    assert_eq!(u64_of(s, "ram_budget_bytes"), budget);
    let counts = s.get("counts").expect("counts");
    assert_eq!(u64_of(counts, "completed"), ids.len() as u64);
    assert_eq!(u64_of(counts, "failed"), 0);

    client.call(r#"{"cmd":"shutdown"}"#);
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The host's rates and the serve variant's kernel roof are measured
/// once per process, when the server starts, and never again by a
/// served job; each classic job's report still carries the exec `tile`
/// drift phase, priced from that one roof, with finite ratios.
#[test]
fn served_jobs_share_one_host_measurement() {
    use multicore_matmul::obs::roofline::{
        HOST_MEASUREMENTS_COUNTER, KERNEL_ROOF_MEASUREMENTS_COUNTER,
    };
    let measurements = || {
        let snapshot = multicore_matmul::obs::global().snapshot();
        (
            snapshot.counter(HOST_MEASUREMENTS_COUNTER),
            snapshot.counter(KERNEL_ROOF_MEASUREMENTS_COUNTER),
        )
    };
    let server = Server::start(ServeConfig::default()).unwrap();
    assert_eq!(measurements(), (Some(1), Some(1)), "Server::start measures the host");
    let mut client = Client::connect(server.local_addr());

    let ids: Vec<u64> = (0..5)
        .map(|i| {
            let spec = MemJobSpec {
                m: 3 + i as u32,
                n: 4,
                z: 5,
                q: 16,
                seed_a: 40 + i,
                seed_b: 50 + i,
                algo: "classic".into(),
            };
            u64_of(&submit_mem(&mut client, &spec), "job_id")
        })
        .collect();
    for id in ids {
        let resp = wait_job(&mut client, id);
        assert_eq!(str_of(&resp, "state"), "done", "job {id}: {resp:?}");
        if !multicore_matmul::obs::span::enabled() {
            continue;
        }
        let phases = resp
            .get("report")
            .and_then(|r| r.get("drift"))
            .and_then(|d| d.get("phases"))
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("job {id} carries exec drift phases: {resp:?}"));
        let names: Vec<&str> = phases.iter().map(|p| str_of(p, "phase")).collect();
        assert_eq!(names, ["tile"], "job {id}");
        for p in phases {
            for key in ["ratio", "units_ratio"] {
                let r = p.get(key).and_then(Value::as_f64);
                assert!(r.is_some_and(f64::is_finite), "job {id} {key}: {p:?}");
            }
        }
    }
    assert_eq!(measurements(), (Some(1), Some(1)), "no served job measured the host again");

    client.call(r#"{"cmd":"shutdown"}"#);
    server.wait();
}

/// A request line longer than the server's cap is not buffered whole:
/// the client gets an error reply, that connection closes, and the
/// server goes on answering other clients. The same cap bounds the
/// header lines of an HTTP request.
#[test]
fn over_long_request_lines_are_refused_and_the_server_lives_on() {
    use multicore_matmul::serve::MAX_LINE_BYTES;
    let server = Server::start(ServeConfig::default()).unwrap();

    // 1 MiB with no newline, written from its own thread: the server
    // stops reading after the cap, so the rest of the write may fail.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    // A server that buffered the whole line would never reply: fail
    // instead of hanging.
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 1 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    let reply: Value = serde_json::from_str(&line).expect("reply is JSON");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false), "{reply:?}");
    assert!(str_of(&reply, "error").contains(&MAX_LINE_BYTES.to_string()), "{reply:?}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "connection closed: {line:?}");
    flood.join().unwrap();

    // An HTTP request with an over-long header line gets a 431.
    let mut http = TcpStream::connect(server.local_addr()).unwrap();
    let header = format!("X-Long: {}\r\n\r\n", "y".repeat(MAX_LINE_BYTES as usize));
    let _ = http.write_all(format!("GET /metrics HTTP/1.1\r\n{header}").as_bytes());
    let mut response = String::new();
    let _ = http.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");

    // The next client is served as usual.
    let mut client = Client::connect(server.local_addr());
    let resp = client.call(r#"{"cmd":"stats"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{resp:?}");
    client.call(r#"{"cmd":"shutdown"}"#);
    server.wait();
}

/// Jobs whose predicted footprint exceeds the whole budget are rejected
/// at submission, and the rejection carries the predicted footprint.
#[test]
fn rejection_carries_the_predicted_footprint() {
    let machine = MachineConfig::quad_q32();
    let server = Server::start(ServeConfig {
        ram_budget_bytes: 1 << 20,
        machine: machine.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr());

    let spec =
        MemJobSpec { m: 64, n: 64, z: 64, q: 32, seed_a: 1, seed_b: 2, algo: "classic".into() };
    let price = price_mem(&spec, &machine).unwrap();
    assert!(price.footprint_bytes > 1 << 20);

    let resp = submit_mem(&mut client, &spec);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(resp.get("rejected").and_then(Value::as_bool), Some(true));
    assert_eq!(u64_of(&resp, "predicted_footprint_bytes"), price.footprint_bytes);
    assert_eq!(u64_of(&resp, "ram_budget_bytes"), 1 << 20);
    assert!(str_of(&resp, "error").contains("exceeds"));

    // A bad spec (unreadable tiled file) is also a clean rejection.
    let resp = submit_ooc(
        &mut client,
        &OocJobSpec {
            a: "/nonexistent/a.tiled".into(),
            b: "/nonexistent/b.tiled".into(),
            out: "/nonexistent/c.tiled".into(),
            mem_budget_bytes: 1 << 16,
            io_threads: 1,
        },
    );
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert!(str_of(&resp, "error").contains("a.tiled"));

    assert_eq!(server.scheduler().stats().counts.rejected, 2);
    client.call(r#"{"cmd":"shutdown"}"#);
    server.wait();
}

/// Cancelling jobs — one likely mid-flight, one still queued — leaves
/// the pool serving everything behind them.
#[test]
fn cancellation_leaves_the_pool_serving() {
    let machine = MachineConfig::quad_q32();
    // One worker: job 1 runs, jobs 2 and 3 queue behind it.
    let server = Server::start(ServeConfig {
        ram_budget_bytes: 1 << 30,
        max_concurrent: 1,
        machine: machine.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr());

    // ~2 GFLOP: long enough that it is still mid-flight while the two
    // cancel round-trips (sub-millisecond each) happen behind it.
    let big =
        MemJobSpec { m: 16, n: 16, z: 16, q: 64, seed_a: 1, seed_b: 2, algo: "classic".into() };
    let small = MemJobSpec { m: 3, n: 3, z: 3, q: 8, seed_a: 3, seed_b: 4, algo: "classic".into() };
    let id1 = u64_of(&submit_mem(&mut client, &big), "job_id");
    let id2 = u64_of(&submit_mem(&mut client, &small), "job_id");
    let id3 = u64_of(&submit_mem(&mut client, &small), "job_id");

    // Cancel the queued middle job first (job 1 still holds the single
    // worker slot, so job 2 is deterministically queued), then the
    // likely-mid-flight head.
    let resp = client.call(&format!(r#"{{"cmd":"cancel","job_id":{id2}}}"#));
    assert_eq!(str_of(&resp, "state"), "cancelled", "queued job cancels immediately");
    let resp = client.call(&format!(r#"{{"cmd":"cancel","job_id":{id1}}}"#));
    assert!(matches!(str_of(&resp, "state"), "cancelling" | "cancelled" | "done"), "{resp:?}");

    // Both reach a terminal state; the job behind them still completes
    // bit-identically.
    let s1 = wait_job(&mut client, id1);
    assert!(matches!(str_of(&s1, "state"), "cancelled" | "done"), "{s1:?}");
    let s2 = wait_job(&mut client, id2);
    assert_eq!(str_of(&s2, "state"), "cancelled");
    let s3 = wait_job(&mut client, id3);
    assert_eq!(str_of(&s3, "state"), "done", "pool keeps serving after cancellations: {s3:?}");
    let a = BlockMatrix::pseudo_random(small.m, small.z, small.q, small.seed_a);
    let b = BlockMatrix::pseudo_random(small.z, small.n, small.q, small.seed_b);
    let c = gemm_parallel_with_kernel(&a, &b, default_tiling(&machine), serve_variant());
    let report = s3.get("report").expect("report");
    assert_eq!(report.get("checksum").and_then(Value::as_u64), Some(checksum_f64(c.data())));

    // Cancelling an unknown job is a clean error, not a panic.
    let resp = client.call(r#"{"cmd":"cancel","job_id":9999}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));

    client.call(r#"{"cmd":"shutdown"}"#);
    server.wait();
}

/// `"algo":"strassen"` jobs run the Winograd recursion server-side:
/// admitted with the Morton copies plus recursion workspace in their
/// footprint, priced with sub-cubic FLOPs, and bit-identical to the
/// direct `strassen_multiply` API under the server's own options.
#[test]
fn strassen_jobs_reserve_workspace_and_match_the_direct_api() {
    let machine = MachineConfig::quad_q32();
    let server =
        Server::start(ServeConfig { machine: machine.clone(), ..ServeConfig::default() }).unwrap();
    let mut client = Client::connect(server.local_addr());

    let classic =
        MemJobSpec { m: 16, n: 16, z: 16, q: 8, seed_a: 5, seed_b: 6, algo: "classic".into() };
    let mut strassen = classic.clone();
    strassen.algo = "strassen".into();

    let rc = submit_mem(&mut client, &classic);
    let rs = submit_mem(&mut client, &strassen);
    assert_eq!(rc.get("ok").and_then(Value::as_bool), Some(true), "{rc:?}");
    assert_eq!(rs.get("ok").and_then(Value::as_bool), Some(true), "{rs:?}");
    // Same shape, but the strassen admission reserves the recursion
    // workspace on top of the operands.
    let fp = |v: &Value| {
        u64_of(v.get("price").expect("submit response carries the price"), "footprint_bytes")
    };
    assert!(fp(&rs) > fp(&rc), "strassen footprint {} must exceed classic {}", fp(&rs), fp(&rc));

    let done_report = |client: &mut Client, id: u64| {
        let resp = wait_job(client, id);
        assert_eq!(str_of(&resp, "state"), "done", "{resp:?}");
        resp.get("report").cloned().expect("done job carries a report")
    };
    let classic_report = done_report(&mut client, u64_of(&rc, "job_id"));
    let strassen_report = done_report(&mut client, u64_of(&rs, "job_id"));

    // The classic drift model does not apply to the recursion.
    assert!(!matches!(classic_report.get("drift"), None | Some(Value::Null)));
    assert!(matches!(strassen_report.get("drift"), None | Some(Value::Null)));
    assert_eq!(strassen_report.get("within_budget").and_then(Value::as_bool), Some(true));

    // Bit-identity against the direct API with the server's options.
    let a = BlockMatrix::pseudo_random(strassen.m, strassen.z, strassen.q, strassen.seed_a);
    let b = BlockMatrix::pseudo_random(strassen.z, strassen.n, strassen.q, strassen.seed_b);
    let opts = StrassenOpts {
        variant: serve_variant(),
        tiling: default_tiling(&machine),
        ..StrassenOpts::with_cutoff::<f64>(DEFAULT_CUTOFF)
    };
    let (c, report) = strassen_multiply(&a, &b, &opts);
    assert!(report.depth > 0, "16 blocks above the default cutoff must recurse");
    assert_eq!(
        strassen_report.get("checksum").and_then(Value::as_u64),
        Some(checksum_f64(c.data())),
        "served strassen product must be bit-identical to the direct API"
    );

    // An unknown algorithm is a clean protocol error.
    let resp =
        client.call(r#"{"cmd":"submit","kind":"mem","m":2,"n":2,"z":2,"q":4,"algo":"karatsuba"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert!(str_of(&resp, "error").contains("unknown algo"), "{resp:?}");

    client.call(r#"{"cmd":"shutdown"}"#);
    server.wait();
}

/// The same port speaks enough HTTP for a Prometheus scraper, and the
/// JSON protocol mirrors the exposition in its `metrics` command.
#[test]
fn metrics_endpoint_serves_prometheus_over_http() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr());

    // Run one job so serve metrics exist.
    let spec = MemJobSpec { m: 2, n: 2, z: 2, q: 8, seed_a: 5, seed_b: 6, algo: "classic".into() };
    let id = u64_of(&submit_mem(&mut client, &spec), "job_id");
    assert_eq!(str_of(&wait_job(&mut client, id), "state"), "done");

    // Plain HTTP GET on the same port.
    let mut http = TcpStream::connect(server.local_addr()).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("text/plain"), "{response}");
    assert!(response.contains("serve_jobs_submitted"), "{response}");
    assert!(response.contains("serve_ram_peak_bytes"), "{response}");

    // Unknown paths 404 without killing the server.
    let mut http = TcpStream::connect(server.local_addr()).unwrap();
    http.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    // The JSON protocol exposes the same text.
    let resp = client.call(r#"{"cmd":"metrics"}"#);
    assert!(str_of(&resp, "text").contains("serve_jobs_submitted"));

    // Malformed JSON gets an error response, and the connection lives on.
    let resp = client.call("this is not json");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    let resp = client.call(r#"{"cmd":"stats"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));

    client.call(r#"{"cmd":"shutdown"}"#);
    server.wait();
}
