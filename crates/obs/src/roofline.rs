//! Roofline records: arithmetic intensity, achieved GFLOP/s, and a
//! measured memory-bandwidth ceiling, so `BENCH_exec.json` carries the
//! machine's position under the roofline every PR.
//!
//! The roofline model bounds attainable performance by
//! `min(peak_gflops, arithmetic_intensity × bandwidth)`. The flat roof is
//! the kernel's own measured rate (`mmc_exec::kernel::roof_gflops`: its
//! block kernel timed on hot-cache blocks, per variant and element
//! type) times the threads that ran; bandwidth is measured directly with
//! a STREAM-triad style sweep over an array far larger than any cache on
//! the paper's machines.
//!
//! Both rates belong to the machine, not to a run, so each is measured
//! once per process: [`host_roofs`] here, the kernel roofs in `mmc-exec`
//! (counted under [`KERNEL_ROOF_MEASUREMENTS_COUNTER`]).

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use std::time::Instant;

/// One roofline point for a named kernel run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RooflineRecord {
    /// Record name (e.g. `gemm_q64/avx2_fma`).
    pub name: String,
    /// Kernel variant that produced the point.
    pub kernel: String,
    /// Executor blocking the run executed under: `mu=..` for the block
    /// executor's `µ×µ` work units, `mc=.. kc=.. nc=..` (elements) in
    /// records from the retired 5-loop executor, empty in older records.
    #[serde(default)]
    pub blocking: String,
    /// Problem order (matrix blocks per side).
    pub order: usize,
    /// Useful floating-point operations performed.
    pub flops: u64,
    /// Wall-clock seconds for the run.
    pub seconds: f64,
    /// Achieved GFLOP/s (`flops / seconds / 1e9`).
    pub gflops: f64,
    /// Bytes moved to/from memory. Measured LLC-miss traffic when
    /// hardware counters are live, else the model's compulsory traffic.
    pub bytes_moved: u64,
    /// Where `bytes_moved` came from: `"llc_misses"` or `"model"`.
    pub bytes_source: String,
    /// Arithmetic intensity in FLOP/byte (`flops / bytes_moved`).
    pub arithmetic_intensity: f64,
    /// Measured STREAM-triad memory bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// The flat roof, GFLOP/s: the kernel's measured single-core roof
    /// times the threads that ran.
    pub peak_gflops: f64,
    /// Achieved fraction of the roofline bound, in percent:
    /// `100 × gflops / min(peak_gflops, intensity × bandwidth)`.
    pub percent_of_peak: f64,
}

impl RooflineRecord {
    /// Assemble a record from raw measurements, deriving the
    /// intensity/percent-of-peak fields.
    #[allow(clippy::too_many_arguments)]
    pub fn from_measurements(
        name: &str,
        kernel: &str,
        blocking: &str,
        order: usize,
        flops: u64,
        seconds: f64,
        bytes_moved: u64,
        bytes_source: &str,
        bandwidth_gbs: f64,
        peak_gflops: f64,
    ) -> RooflineRecord {
        let gflops = if seconds > 0.0 { flops as f64 / seconds / 1e9 } else { 0.0 };
        let arithmetic_intensity =
            if bytes_moved > 0 { flops as f64 / bytes_moved as f64 } else { 0.0 };
        let roof = roofline_bound(arithmetic_intensity, bandwidth_gbs, peak_gflops);
        let percent_of_peak = if roof > 0.0 { 100.0 * gflops / roof } else { 0.0 };
        RooflineRecord {
            name: name.to_string(),
            kernel: kernel.to_string(),
            blocking: blocking.to_string(),
            order,
            flops,
            seconds,
            gflops,
            bytes_moved,
            bytes_source: bytes_source.to_string(),
            arithmetic_intensity,
            bandwidth_gbs,
            peak_gflops,
            percent_of_peak,
        }
    }
}

/// The attainable GFLOP/s at `intensity` FLOP/byte under the roofline:
/// `min(peak_gflops, intensity × bandwidth_gbs)`.
pub fn roofline_bound(intensity: f64, bandwidth_gbs: f64, peak_gflops: f64) -> f64 {
    (intensity * bandwidth_gbs).min(peak_gflops)
}

/// The host's measured memory rate, the roof of memory-bound work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostRoofs {
    /// Sustained memory bandwidth, GB/s, from a STREAM-triad sweep.
    pub stream_gbs: f64,
}

/// Registry counter bumped each time [`host_roofs`] measures the host;
/// it reads at most 1 in any process.
pub const HOST_MEASUREMENTS_COUNTER: &str = "obs.host_roofs.measurements";

/// Registry counter bumped each time `mmc_exec::kernel::roof_gflops`
/// measures a kernel roof; it reads at most one per (variant, element
/// type) pair in any process.
pub const KERNEL_ROOF_MEASUREMENTS_COUNTER: &str = "obs.kernel_roof.measurements";

/// The host's rates, measured on the first call and cached for the rest
/// of the process: the STREAM sweep streams 12 MiB six times, which takes
/// longer than a small product, so no run should pay for it again. This
/// is the one source of the rates; a stored machine profile would fill
/// it in place of the measurement.
pub fn host_roofs() -> HostRoofs {
    static ROOFS: OnceLock<HostRoofs> = OnceLock::new();
    *ROOFS.get_or_init(|| {
        crate::registry::global().counter(HOST_MEASUREMENTS_COUNTER).add(1);
        HostRoofs { stream_gbs: stream_triad_bandwidth_gbs() }
    })
}

/// Measure sustained memory bandwidth with a STREAM-triad kernel
/// (`a[i] = b[i] + s * c[i]`, 3 × 8 bytes moved per element) over arrays
/// too large for any cache level, returning the best-of-`passes` GB/s.
fn stream_triad_bandwidth_gbs() -> f64 {
    const N: usize = 1 << 19; // 3 arrays × 4 MiB: beyond the paper's largest L2/L3.
    const PASSES: usize = 5;
    let b = vec![1.0f64; N];
    let c = vec![2.0f64; N];
    let mut a = vec![0.0f64; N];
    let s = 3.0f64;
    // Warm-up pass populates pages and caches steady state.
    triad(&mut a, &b, &c, s);
    let mut best = 0.0f64;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        triad(&mut a, &b, &c, s);
        let dt = t0.elapsed().as_secs_f64();
        if dt > 0.0 {
            best = best.max((3 * N * 8) as f64 / dt / 1e9);
        }
    }
    std::hint::black_box(&a);
    best
}

fn triad(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    for i in 0..a.len() {
        a[i] = b[i] + s * c[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_bound_takes_the_min() {
        // Memory-bound region: low intensity.
        assert_eq!(roofline_bound(0.5, 10.0, 100.0), 5.0);
        // Compute-bound region: high intensity.
        assert_eq!(roofline_bound(50.0, 10.0, 100.0), 100.0);
    }

    #[test]
    fn record_derives_intensity_and_percent() {
        let r = RooflineRecord::from_measurements(
            "gemm_q64/scalar",
            "scalar",
            "mc=6 kc=8 nc=8",
            6,
            2_000_000_000,
            1.0,
            1_000_000_000,
            "model",
            10.0,
            100.0,
        );
        assert!((r.gflops - 2.0).abs() < 1e-12);
        assert!((r.arithmetic_intensity - 2.0).abs() < 1e-12);
        // Roof = min(100, 2 × 10) = 20 GFLOP/s → 10% of peak.
        assert!((r.percent_of_peak - 10.0).abs() < 1e-9);
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = RooflineRecord::from_measurements(
            "x",
            "scalar",
            "",
            4,
            100,
            0.5,
            50,
            "llc_misses",
            1.0,
            2.0,
        );
        let text = serde_json::to_string(&r).unwrap();
        let back: RooflineRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn bandwidth_measurement_is_positive() {
        let bw = stream_triad_bandwidth_gbs();
        assert!(bw > 0.0, "triad bandwidth must be positive, got {bw}");
    }

    #[test]
    fn host_roofs_measure_once_per_process() {
        let first = host_roofs();
        assert_eq!(host_roofs(), first);
        let measured = crate::registry::global().snapshot().counter(HOST_MEASUREMENTS_COUNTER);
        assert_eq!(measured, Some(1));
    }

    #[test]
    fn blocking_field_defaults_for_legacy_records() {
        // Records written before the 5-loop macro-kernel have no
        // `blocking` key; deserialization must not reject them.
        let legacy = r#"{"name":"old","kernel":"scalar","order":2,"flops":1,
            "seconds":1.0,"gflops":0.0,"bytes_moved":1,"bytes_source":"model",
            "arithmetic_intensity":1.0,"bandwidth_gbs":1.0,"peak_gflops":1.0,
            "percent_of_peak":0.0}"#;
        let r: RooflineRecord = serde_json::from_str(legacy).unwrap();
        assert_eq!(r.blocking, "");
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let r =
            RooflineRecord::from_measurements("z", "scalar", "", 1, 0, 0.0, 0, "model", 0.0, 0.0);
        assert_eq!(r.gflops, 0.0);
        assert_eq!(r.arithmetic_intensity, 0.0);
        assert_eq!(r.percent_of_peak, 0.0);
    }
}
