//! End-to-end tests of the out-of-core subsystem: tiled-file round
//! trips under random shapes, corruption rejection, bit-identity of the
//! streamed product against the in-core executor for every kernel
//! variant, and the `mmc ooc` CLI surface.

use multicore_matmul::ooc::{
    ooc_multiply, write_pseudo_random, OocOpts, OocReport, TiledError, TiledFile,
};
use multicore_matmul::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmc-ooc-it-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mmc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmc")).args(args).output().expect("run mmc binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any block matrix — ragged shapes, q values (including primes and
    /// sizes that do not divide typical panel widths) — survives the
    /// disk round trip bit-exactly.
    #[test]
    fn tiled_files_round_trip_any_shape(
        rows in 1u32..9,
        cols in 1u32..9,
        q in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(7), Just(8), Just(13)],
        seed in any::<u64>(),
    ) {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(format!("m-{rows}-{cols}-{q}-{seed}.tiled"));
        let m = BlockMatrix::pseudo_random(rows, cols, q, seed);
        multicore_matmul::ooc::tiled::write_matrix(&path, &m).unwrap();
        let back = TiledFile::open(&path).unwrap().read_matrix().unwrap();
        prop_assert_eq!(back, m);
        std::fs::remove_file(&path).unwrap();
    }

    /// Flipping any single byte of the 32 checksummed header bytes is
    /// rejected at open (the checksum itself is covered too: flipping a
    /// checksum byte mismatches the recomputation).
    #[test]
    fn corrupted_headers_never_open(
        byte in 0usize..40,
        bit in 0u8..8,
    ) {
        let dir = tmp_dir("corrupt");
        let path = dir.join(format!("c-{byte}-{bit}.tiled"));
        write_pseudo_random(&path, 2, 2, 4, 1).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[byte] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        let result = TiledFile::open(&path);
        prop_assert!(
            matches!(result, Err(TiledError::BadHeader(_, _))),
            "header corruption at byte {} bit {} must be rejected", byte, bit
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The streamed product is bit-identical to the in-core executor on
    /// ragged shapes where alpha and beta do not divide the dimensions.
    #[test]
    fn ooc_multiply_matches_in_core_on_ragged_shapes(
        m in 1u32..7,
        n in 1u32..7,
        z in 1u32..7,
        q in prop_oneof![Just(3usize), Just(4), Just(5)],
        budget_blocks in 5u64..24,
        seed in 0u64..1000,
    ) {
        let dir = tmp_dir("ragged");
        let tag = format!("{m}-{n}-{z}-{q}-{budget_blocks}-{seed}");
        let a_path = dir.join(format!("a-{tag}.tiled"));
        let b_path = dir.join(format!("b-{tag}.tiled"));
        let c_path = dir.join(format!("c-{tag}.tiled"));
        write_pseudo_random(&a_path, m, z, q, seed).unwrap();
        write_pseudo_random(&b_path, z, n, q, seed + 1).unwrap();
        let mut opts = OocOpts::new(budget_blocks * (q * q * 8) as u64);
        opts.io_threads = 1 + (seed as usize % 3);
        let report = ooc_multiply(&a_path, &b_path, &c_path, &opts).unwrap();
        prop_assert!(report.within_budget,
            "peak {} > budget {}", report.peak_resident_bytes, report.budget_bytes);
        let a = BlockMatrix::pseudo_random(m, z, q, seed);
        let b = BlockMatrix::pseudo_random(z, n, q, seed + 1);
        let want = gemm_parallel_with_kernel(
            &a, &b, Tiling { tile_m: 2, tile_n: 2, tile_k: 3 }, opts.variant);
        let got = TiledFile::open(&c_path).unwrap().read_matrix().unwrap();
        prop_assert_eq!(got, want);
        for p in [&a_path, &b_path, &c_path] {
            std::fs::remove_file(p).unwrap();
        }
    }
}

/// The acceptance criterion verbatim: for every kernel variant this CPU
/// can run, `ooc multiply == gemm_parallel` with `==`, on a matrix whose
/// three operands exceed the budget by well over 2x.
#[test]
fn ooc_multiply_is_bit_identical_for_every_kernel_variant() {
    let dir = tmp_dir("kernels");
    let (m, z, n, q) = (10u32, 9u32, 11u32, 8usize);
    let a_path = dir.join("a.tiled");
    let b_path = dir.join("b.tiled");
    write_pseudo_random(&a_path, m, z, q, 21).unwrap();
    write_pseudo_random(&b_path, z, n, q, 22).unwrap();
    let a = BlockMatrix::pseudo_random(m, z, q, 21);
    let b = BlockMatrix::pseudo_random(z, n, q, 22);
    let operand_blocks = (m * z + z * n + m * n) as u64;
    for variant in multicore_matmul::exec::kernel::variants_available() {
        let c_path = dir.join(format!("c-{}.tiled", variant.name()));
        let budget_blocks = 30u64;
        assert!(operand_blocks >= 2 * budget_blocks, "test must exceed budget 2x");
        let mut opts = OocOpts::new(budget_blocks * (q * q * 8) as u64);
        opts.variant = variant;
        let report = ooc_multiply(&a_path, &b_path, &c_path, &opts).unwrap();
        assert!(
            report.within_budget,
            "{}: peak {} > budget {}",
            variant.name(),
            report.peak_resident_bytes,
            report.budget_bytes
        );
        let got = TiledFile::open(&c_path).unwrap().read_matrix().unwrap();
        // Compare against a *different* tiling than the ooc staging uses:
        // bit-identity must hold across decompositions.
        let want =
            gemm_parallel_with_kernel(&a, &b, Tiling { tile_m: 4, tile_n: 5, tile_k: 2 }, variant);
        assert_eq!(got, want, "ooc != in-core for {}", variant.name());
    }
}

#[test]
fn cli_gen_multiply_verify_round_trip_with_metrics() {
    let dir = tmp_dir("cli");
    let a = dir.join("a.tiled");
    let b = dir.join("b.tiled");
    let c = dir.join("c.tiled");
    let trace = dir.join("trace.json");
    let (ok, _, stderr) = mmc(&[
        "ooc",
        "gen",
        "--out",
        a.to_str().unwrap(),
        "--rows",
        "9",
        "--cols",
        "8",
        "--q",
        "8",
        "--seed",
        "3",
    ]);
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = mmc(&[
        "ooc",
        "gen",
        "--out",
        b.to_str().unwrap(),
        "--rows",
        "8",
        "--cols",
        "7",
        "--q",
        "8",
        "--seed",
        "4",
    ]);
    assert!(ok, "{stderr}");
    // 9*8 + 8*7 + 9*7 = 191 blocks of operands, 16k budget = 32 blocks.
    let (ok, stdout, stderr) = mmc(&[
        "ooc",
        "multiply",
        "--a",
        a.to_str().unwrap(),
        "--b",
        b.to_str().unwrap(),
        "--out",
        c.to_str().unwrap(),
        "--mem-budget",
        "16k",
        "--io-threads",
        "2",
        "--json",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let report: OocReport = serde_json::from_str(&stdout).expect("multiply --json parses");
    assert!(
        report.within_budget,
        "peak {} > budget {}",
        report.peak_resident_bytes, report.budget_bytes
    );
    assert!(report.peak_resident_bytes <= 16 * 1024);
    assert_eq!((report.m, report.n, report.z), (9, 7, 8));
    assert!(report.prefetch.bytes_read > 0);
    // The trace is the run's recorder spans (one lane per span kind and
    // thread) plus the registry counters.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&trace_text).expect("trace is JSON");
    assert!(parsed.get("traceEvents").is_some(), "{trace_text}");
    assert!(trace_text.contains("ooc.bytes_read"), "counter in trace");
    if multicore_matmul::obs::span::enabled() {
        assert!(trace_text.contains("\"io0 read\""), "I/O lane in trace");
        assert!(trace_text.contains("\"caller accumulate\""), "compute lane in trace");
    }
    let (ok, stdout, stderr) = mmc(&[
        "ooc",
        "verify",
        "--a",
        a.to_str().unwrap(),
        "--b",
        b.to_str().unwrap(),
        "--c",
        c.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("bit-identical"), "{stdout}");
}

#[test]
fn cli_missing_and_corrupt_inputs_fail_cleanly() {
    let dir = tmp_dir("cli-errors");
    let missing = dir.join("does-not-exist.tiled");
    let b = dir.join("b.tiled");
    let (ok, _, stderr) = mmc(&[
        "ooc",
        "gen",
        "--out",
        b.to_str().unwrap(),
        "--rows",
        "2",
        "--cols",
        "2",
        "--q",
        "4",
    ]);
    assert!(ok, "{stderr}");

    // Missing input: error mentions the path, exit is nonzero, no panic.
    let (ok, _, stderr) = mmc(&[
        "ooc",
        "multiply",
        "--a",
        missing.to_str().unwrap(),
        "--b",
        b.to_str().unwrap(),
        "--out",
        dir.join("c.tiled").to_str().unwrap(),
        "--mem-budget",
        "1m",
    ]);
    assert!(!ok);
    assert!(stderr.contains("does-not-exist.tiled"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Corrupt input: checksum failure is a clean error too.
    let corrupt = dir.join("corrupt.tiled");
    let mut bytes = std::fs::read(&b).unwrap();
    bytes[10] ^= 0xFF;
    std::fs::write(&corrupt, &bytes).unwrap();
    let (ok, _, stderr) = mmc(&[
        "ooc",
        "verify",
        "--a",
        corrupt.to_str().unwrap(),
        "--b",
        b.to_str().unwrap(),
        "--c",
        b.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("not a tiled matrix file"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // A budget too small for even the minimal staging is a usage-level
    // error with guidance, not a panic.
    let (ok, _, stderr) = mmc(&[
        "ooc",
        "multiply",
        "--a",
        b.to_str().unwrap(),
        "--b",
        b.to_str().unwrap(),
        "--out",
        dir.join("c.tiled").to_str().unwrap(),
        "--mem-budget",
        "128",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--mem-budget"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn cli_output_path_errors_are_clean_across_subcommands() {
    let dir = tmp_dir("cli-out-errors");
    let bad_out = dir.join("no-such-dir").join("x.tiled");
    // ooc gen to an unwritable path.
    let (ok, _, stderr) = mmc(&[
        "ooc",
        "gen",
        "--out",
        bad_out.to_str().unwrap(),
        "--rows",
        "2",
        "--cols",
        "2",
        "--q",
        "4",
    ]);
    assert!(!ok);
    assert!(stderr.contains("no-such-dir"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // trace --out to an unwritable path (satellite: file args across the
    // CLI fail with a message, not a panic).
    let bad_trace = dir.join("no-such-dir").join("t.json");
    let (ok, _, stderr) = mmc(&[
        "trace",
        "--algo",
        "shared_opt",
        "--order",
        "8",
        "--out",
        bad_trace.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("error writing"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
