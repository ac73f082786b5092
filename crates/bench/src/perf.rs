//! Machine-readable performance records (`BENCH_*.json`).
//!
//! Criterion's reports are for humans; CI and the figure pipeline want
//! flat JSON. A [`PerfRecord`] is one timed measurement (suite, name,
//! problem size, seconds, optional derived rate); [`write_records`]
//! serializes a batch to `BENCH_<suite>.json` in a target directory. The
//! `perf` binary (`cargo run -p mmc-bench --bin perf`) emits records for
//! the executor and the simulator.

use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// One timed measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerfRecord {
    /// Suite the record belongs to (`"exec"`, `"sim"`, ...).
    pub suite: String,
    /// Measurement name within the suite.
    pub name: String,
    /// Problem order (blocks per matrix dimension).
    pub order: u32,
    /// Wall-clock seconds: the best of the timed runs, or their median
    /// when [`PerfRecord::spread`] is present.
    pub seconds: f64,
    /// Work per run, in the unit named by `rate_unit` (0 if untimed work).
    pub work: f64,
    /// Unit of `work` (`"flop"`, `"events"`, ...).
    pub rate_unit: String,
    /// Micro-kernel variant the measurement ran on (`"scalar"`,
    /// `"avx2_fma"`, `"neon"`), or `"-"` for records where no kernel is
    /// involved (simulator suites), so the perf trajectory attributes
    /// speedups to the kernel in use.
    #[serde(default = "PerfRecord::no_kernel")]
    pub kernel: String,
    /// Sample statistics of a record timed as a median over several runs
    /// (absent for best-of-N records and in files written before the
    /// field).
    #[serde(default)]
    pub spread: Option<Spread>,
}

/// The distribution of a record's timed runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// Timed runs.
    pub samples: u32,
    /// Median seconds.
    pub median_s: f64,
    /// First-quartile seconds.
    pub q1_s: f64,
    /// Third-quartile seconds.
    pub q3_s: f64,
}

impl PerfRecord {
    /// Placeholder kernel name for suites that don't run one.
    fn no_kernel() -> String {
        "-".to_string()
    }

    /// Work per second (`work / seconds`); 0 if the timing is degenerate.
    pub fn rate(&self) -> f64 {
        if self.seconds > 0.0 {
            self.work / self.seconds
        } else {
            0.0
        }
    }
}

/// A batch of records plus the file layout they serialize to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Report schema version ([`mmc_obs::SCHEMA_VERSION`]); files
    /// written before the field read back as 0.
    #[serde(default)]
    pub schema_version: u32,
    /// Suite name; the file is `BENCH_<suite>.json`.
    pub suite: String,
    /// The measurements.
    pub records: Vec<PerfRecord>,
    /// Roofline points for the kernel-variant records (empty for suites
    /// that don't run kernels, and for files written before the field).
    #[serde(default)]
    pub roofline: Vec<mmc_obs::RooflineRecord>,
    /// Git commit the record was measured at (best-effort `git
    /// rev-parse HEAD`; `"unknown"` when git or the repo is missing,
    /// and for files written before the field).
    #[serde(default = "unknown_commit")]
    pub git_commit: String,
    /// Predicted-vs-measured drift reports captured alongside the
    /// timings (exec and ooc legs; empty for suites without traced
    /// runs and for files written before the field).
    #[serde(default)]
    pub drift: Vec<mmc_obs::DriftReport>,
}

/// Placeholder for reports measured outside a git checkout.
fn unknown_commit() -> String {
    "unknown".to_string()
}

/// Best-effort commit stamp: `git rev-parse HEAD` in the current
/// directory, `"unknown"` when git is absent, the cwd is not a repo, or
/// the output is not a hex id.
pub fn git_commit() -> String {
    let out = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output();
    match out {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout).trim().to_string();
            if !text.is_empty() && text.chars().all(|c| c.is_ascii_hexdigit()) {
                text
            } else {
                unknown_commit()
            }
        }
        _ => unknown_commit(),
    }
}

impl PerfReport {
    /// Assemble a report, stamping the current schema version and the
    /// checkout's commit id.
    pub fn new(
        suite: &str,
        records: Vec<PerfRecord>,
        roofline: Vec<mmc_obs::RooflineRecord>,
    ) -> PerfReport {
        PerfReport {
            schema_version: mmc_obs::SCHEMA_VERSION,
            suite: suite.to_string(),
            records,
            roofline,
            git_commit: git_commit(),
            drift: Vec::new(),
        }
    }

    /// The record named `name`, if present.
    pub fn record(&self, name: &str) -> Option<&PerfRecord> {
        self.records.iter().find(|r| r.name == name)
    }
}

/// Serialize `records` to `<dir>/BENCH_<suite>.json` (pretty-printed),
/// returning the path written.
pub fn write_records(dir: &Path, suite: &str, records: &[PerfRecord]) -> io::Result<PathBuf> {
    write_report(dir, &PerfReport::new(suite, records.to_vec(), Vec::new()))
}

/// Serialize a full report (records + roofline points) to
/// `<dir>/BENCH_<suite>.json`, returning the path written.
pub fn write_report(dir: &Path, report: &PerfReport) -> io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{}.json", report.suite));
    let file = std::fs::File::create(&path)?;
    serde_json::to_writer_pretty(file, report).map_err(io::Error::other)?;
    Ok(path)
}

/// Compare fresh exec records against a committed baseline report: any
/// kernel-variant record whose rate drops more than `tolerance`
/// (fractional, e.g. `0.2`) below the baseline's is a regression.
/// Returns human-readable regression lines (empty = gate passes).
/// Records missing from either side are skipped — new benchmarks must
/// not fail the gate, and retired ones must not block it.
pub fn regressions(baseline: &PerfReport, fresh: &PerfReport, tolerance: f64) -> Vec<String> {
    let mut out = Vec::new();
    for base in &baseline.records {
        let Some(now) = fresh.record(&base.name) else { continue };
        let (base_rate, now_rate) = (base.rate(), now.rate());
        if base_rate <= 0.0 {
            continue;
        }
        if now_rate < base_rate * (1.0 - tolerance) {
            out.push(format!(
                "{}: {:.3e} {}/s vs baseline {:.3e} ({:+.1}%)",
                base.name,
                now_rate,
                base.rate_unit,
                base_rate,
                100.0 * (now_rate / base_rate - 1.0),
            ));
        }
    }
    out
}

/// Time `f` (one warmup + `runs` timed runs) and return the best seconds.
pub fn best_seconds<F: FnMut()>(runs: u32, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Time `f` (one warmup + `runs` timed runs) and return the median and
/// quartiles of the timed runs.
pub fn sampled_seconds<F: FnMut()>(runs: u32, mut f: F) -> Spread {
    f();
    let mut secs: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let at = |frac: f64| secs[((secs.len() - 1) as f64 * frac).round() as usize];
    Spread { samples: secs.len() as u32, median_s: at(0.5), q1_s: at(0.25), q3_s: at(0.75) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_and_land_in_named_file() {
        let dir = std::env::temp_dir().join(format!("mmc-perf-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records = vec![PerfRecord {
            suite: "exec".into(),
            name: "gemm_parallel/tradeoff".into(),
            order: 8,
            seconds: 0.25,
            work: 1.0e9,
            rate_unit: "flop".into(),
            kernel: "avx2_fma".into(),
            spread: None,
        }];
        let path = write_records(&dir, "exec", &records).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap() == "BENCH_exec.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let back: PerfReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.records, records);
        assert!((back.records[0].rate() - 4.0e9).abs() < 1.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kernel_field_defaults_for_pre_kernel_records() {
        // BENCH_*.json written before the kernel subsystem lacks the
        // field; deserialization fills the placeholder.
        let old = r#"{"suite":"sim","name":"lru/shared_opt","order":20,
                      "seconds":0.1,"work":8000.0,"rate_unit":"block_fmas"}"#;
        let rec: PerfRecord = serde_json::from_str(old).unwrap();
        assert_eq!(rec.kernel, "-");
    }

    fn rec(name: &str, seconds: f64) -> PerfRecord {
        PerfRecord {
            suite: "exec".into(),
            name: name.into(),
            order: 6,
            seconds,
            work: 1.0e9,
            rate_unit: "flop".into(),
            kernel: "scalar".into(),
            spread: None,
        }
    }

    #[test]
    fn regression_gate_flags_big_drops_only() {
        let baseline = PerfReport::new(
            "exec",
            vec![rec("gemm_q64/scalar", 1.0), rec("gemm_q64/avx2_fma", 0.5), rec("gone", 1.0)],
            Vec::new(),
        );
        let fresh = PerfReport::new(
            "exec",
            vec![
                rec("gemm_q64/scalar", 1.1),    // 9% slower: within tolerance
                rec("gemm_q64/avx2_fma", 0.75), // 33% slower: regression
                rec("brand_new", 5.0),          // not in baseline: skipped
            ],
            Vec::new(),
        );
        let bad = regressions(&baseline, &fresh, 0.2);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("gemm_q64/avx2_fma"), "{bad:?}");
        assert!(regressions(&baseline, &fresh, 0.5).is_empty());
    }

    #[test]
    fn old_reports_read_with_schema_defaults() {
        let old = r#"{"suite":"exec","records":[]}"#;
        let rep: PerfReport = serde_json::from_str(old).unwrap();
        assert_eq!(rep.schema_version, 0);
        assert!(rep.roofline.is_empty());
        assert_eq!(rep.git_commit, "unknown");
        assert!(rep.drift.is_empty());
        assert_eq!(PerfReport::new("exec", vec![], vec![]).schema_version, mmc_obs::SCHEMA_VERSION);
    }

    #[test]
    fn commit_stamp_is_hex_or_unknown() {
        let c = git_commit();
        assert!(
            c == "unknown" || (c.len() == 40 && c.chars().all(|ch| ch.is_ascii_hexdigit())),
            "{c}"
        );
        // Fresh reports carry the stamp.
        let rep = PerfReport::new("exec", vec![], vec![]);
        assert_eq!(rep.git_commit, c);
    }

    #[test]
    fn sampled_seconds_orders_its_quartiles() {
        let s = sampled_seconds(5, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert_eq!(s.samples, 5);
        assert!(0.0 <= s.q1_s && s.q1_s <= s.median_s && s.median_s <= s.q3_s);
        // A record with a spread round-trips.
        let r = PerfRecord { spread: Some(s.clone()), ..rec("gen", s.median_s) };
        let back: PerfRecord = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back.spread, Some(s));
    }

    #[test]
    fn best_seconds_is_positive() {
        let s = best_seconds(2, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert!(s >= 0.0 && s.is_finite());
    }
}
