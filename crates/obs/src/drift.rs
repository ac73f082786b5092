//! Predicted-vs-measured drift reports over traced spans.
//!
//! The paper's contribution is a *closed-form* cost model; this module
//! is where the model is held to account per phase rather than in
//! aggregate. Each traced phase (the executor's tile work units, an ooc
//! pipeline stage) contributes one [`PhaseSample`]: its measured wall
//! time next to the time the closed forms predict for the same work
//! (FLOPs over the roofline peak for compute phases, bytes over the
//! measured stream bandwidth for traffic phases, the `T_data` three-term
//! split for out-of-core stages). [`DriftReport::from_samples`] turns
//! the samples into measured/predicted ratios, flags every phase whose
//! ratio leaves the configured band, and serializes with the shared
//! [`crate::SCHEMA_VERSION`] stamp.
//!
//! Ratios are **always finite**: a missing or non-positive prediction
//! falls back to [`MIN_PREDICTION`] so a drift consumer (the CI
//! `trace-smoke` job, the future `mmc serve` admission controller) can
//! compare and sort ratios without NaN/inf special cases.

use serde::{Deserialize, Serialize};

use crate::SCHEMA_VERSION;

/// Floor substituted for non-positive or non-finite predictions so
/// ratios stay finite (microseconds / units).
pub const MIN_PREDICTION: f64 = 1e-9;

/// Default relative band: a phase is in band while
/// `max(ratio, 1/ratio) <= 1 + band`. The closed forms are floors
/// (no overheads), so the default tolerates a 2x gap before flagging.
pub const DEFAULT_BAND: f64 = 1.0;

/// Raw per-phase aggregate handed to [`DriftReport::from_samples`] by an
/// instrumented runner.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSample {
    /// Stable phase name (`jc`, `pc`, `ic`, `pack_a`, `read`, ...).
    pub phase: String,
    /// Number of spans aggregated into this phase.
    pub spans: u64,
    /// Summed measured wall time, microseconds.
    pub measured_us: f64,
    /// Summed predicted time from the closed forms, microseconds.
    pub predicted_us: f64,
    /// Unit of the work counters below (`flop`, `byte`, `ns`).
    pub unit: String,
    /// Actual work the phase performed, in `unit`s.
    pub measured_units: f64,
    /// Work the closed forms assign to the phase, in `unit`s.
    pub predicted_units: f64,
}

/// One phase of a drift report: measured vs predicted, with the ratio
/// and band verdict precomputed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseDrift {
    /// Stable phase name (`jc`, `pc`, `ic`, `pack_a`, `read`, ...).
    pub phase: String,
    /// Number of spans aggregated into this phase.
    pub spans: u64,
    /// Summed measured wall time, microseconds.
    pub measured_us: f64,
    /// Summed predicted time, microseconds (floored at
    /// [`MIN_PREDICTION`] before the ratio).
    pub predicted_us: f64,
    /// `measured_us / predicted_us` — always finite, `> 1` means slower
    /// than the model.
    pub ratio: f64,
    /// Unit of the work counters (`flop`, `byte`, `ns`).
    pub unit: String,
    /// Actual work performed, in `unit`s.
    pub measured_units: f64,
    /// Work the closed forms assign, in `unit`s.
    pub predicted_units: f64,
    /// `measured_units / predicted_units` — always finite; `1.0` means
    /// the instrumentation accounts for exactly the modeled work.
    pub units_ratio: f64,
    /// Whether `ratio` stays within the report's band.
    pub in_band: bool,
}

/// A structured drift report for one traced job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// Shared report schema version (see [`crate::SCHEMA_VERSION`]);
    /// reports written before the field read back as 0.
    #[serde(default)]
    pub schema_version: u32,
    /// Which runner produced the trace (`exec` or `ooc`).
    pub source: String,
    /// Trace job id the spans were collected under.
    pub job: u64,
    /// Relative band phases were judged against.
    pub band: f64,
    /// Per-phase measured vs predicted, in the runner's phase order.
    pub phases: Vec<PhaseDrift>,
    /// Names of the phases outside the band, same order as `phases`.
    pub flagged: Vec<String>,
}

/// Finite measured/predicted ratio: non-finite or non-positive
/// predictions are floored at [`MIN_PREDICTION`], non-finite measures
/// read as zero.
pub fn finite_ratio(measured: f64, predicted: f64) -> f64 {
    let m = if measured.is_finite() && measured > 0.0 { measured } else { 0.0 };
    let p = if predicted.is_finite() && predicted > MIN_PREDICTION {
        predicted
    } else {
        MIN_PREDICTION
    };
    // m/p can still overflow for astronomical measured values; clamp so
    // the "always finite" contract holds unconditionally.
    (m / p).min(f64::MAX)
}

/// Is a finite ratio within `band` of 1.0 in either direction?
pub fn in_band(ratio: f64, band: f64) -> bool {
    let band = if band.is_finite() && band > 0.0 { band } else { DEFAULT_BAND };
    ratio > 0.0 && ratio <= 1.0 + band && ratio >= 1.0 / (1.0 + band)
}

impl DriftReport {
    /// Build a report from raw phase samples: compute both ratios per
    /// phase, judge each against `band`, and collect the flagged names.
    /// Samples with zero spans are dropped (an absent phase is not
    /// drift — e.g. the scalar tile path has no pack phases).
    pub fn from_samples(source: &str, job: u64, band: f64, samples: Vec<PhaseSample>) -> Self {
        let band = if band.is_finite() && band > 0.0 { band } else { DEFAULT_BAND };
        let phases: Vec<PhaseDrift> = samples
            .into_iter()
            .filter(|s| s.spans > 0)
            .map(|s| {
                let ratio = finite_ratio(s.measured_us, s.predicted_us);
                PhaseDrift {
                    phase: s.phase,
                    spans: s.spans,
                    measured_us: s.measured_us,
                    predicted_us: s.predicted_us.max(MIN_PREDICTION),
                    ratio,
                    unit: s.unit,
                    measured_units: s.measured_units,
                    predicted_units: s.predicted_units,
                    units_ratio: finite_ratio(s.measured_units, s.predicted_units),
                    in_band: in_band(ratio, band),
                }
            })
            .collect();
        let flagged = phases.iter().filter(|p| !p.in_band).map(|p| p.phase.clone()).collect();
        DriftReport {
            schema_version: SCHEMA_VERSION,
            source: source.to_string(),
            job,
            band,
            phases,
            flagged,
        }
    }

    /// Every ratio in the report is finite (an invariant the CI smoke
    /// job asserts end-to-end).
    pub fn all_finite(&self) -> bool {
        self.phases.iter().all(|p| p.ratio.is_finite() && p.units_ratio.is_finite())
    }

    /// Human-readable table for the CLI (one line per phase plus a
    /// verdict line).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "drift [{}] job {} band ±{:.0}%\n",
            self.source,
            self.job,
            self.band * 100.0
        ));
        out.push_str(&format!(
            "  {:<12} {:>7} {:>12} {:>12} {:>8}  {}\n",
            "phase", "spans", "measured", "predicted", "ratio", "verdict"
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<12} {:>7} {:>10.2}ms {:>10.2}ms {:>8.3}  {}\n",
                p.phase,
                p.spans,
                p.measured_us / 1e3,
                p.predicted_us / 1e3,
                p.ratio,
                if p.in_band { "ok" } else { "DRIFT" }
            ));
        }
        if self.flagged.is_empty() {
            out.push_str("  all phases within band\n");
        } else {
            out.push_str(&format!("  drifting: {}\n", self.flagged.join(", ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(phase: &str, spans: u64, measured_us: f64, predicted_us: f64) -> PhaseSample {
        PhaseSample {
            phase: phase.to_string(),
            spans,
            measured_us,
            predicted_us,
            unit: "flop".to_string(),
            measured_units: 100.0,
            predicted_units: 100.0,
        }
    }

    #[test]
    fn ratios_are_always_finite() {
        for (m, p) in [
            (0.0, 0.0),
            (1.0, 0.0),
            (f64::NAN, 2.0),
            (3.0, f64::NAN),
            (f64::INFINITY, f64::INFINITY),
            (-5.0, -5.0),
            (1e300, 1e-300),
        ] {
            assert!(finite_ratio(m, p).is_finite(), "finite_ratio({m}, {p})");
        }
    }

    #[test]
    fn band_judgement_is_symmetric() {
        // band 1.0 accepts [0.5, 2.0].
        assert!(in_band(1.0, 1.0));
        assert!(in_band(2.0, 1.0));
        assert!(in_band(0.5, 1.0));
        assert!(!in_band(2.01, 1.0));
        assert!(!in_band(0.49, 1.0));
        assert!(!in_band(0.0, 1.0));
        // Degenerate bands fall back to the default.
        assert!(in_band(1.9, f64::NAN));
        assert!(in_band(1.9, -3.0));
    }

    #[test]
    fn report_flags_out_of_band_phases_and_drops_empty_ones() {
        let report = DriftReport::from_samples(
            "exec",
            42,
            1.0,
            vec![
                sample("jc", 4, 1000.0, 900.0),
                sample("pc", 8, 5000.0, 1000.0),
                sample("pack_a", 0, 0.0, 0.0),
            ],
        );
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.phases.len(), 2, "zero-span phase dropped");
        assert!(report.phases[0].in_band);
        assert!(!report.phases[1].in_band);
        assert_eq!(report.flagged, vec!["pc".to_string()]);
        assert!(report.all_finite());
        let text = report.render_text();
        assert!(text.contains("DRIFT") && text.contains("drifting: pc"), "{text}");
    }

    #[test]
    fn report_survives_degenerate_predictions() {
        let report = DriftReport::from_samples(
            "ooc",
            1,
            0.5,
            vec![sample("read", 2, 123.0, 0.0), sample("stall", 1, 0.0, f64::NAN)],
        );
        assert!(report.all_finite());
        // Zero prediction: enormous but finite ratio, flagged.
        assert!(report.phases[0].ratio > 1e6 && report.phases[0].ratio.is_finite());
        assert_eq!(report.flagged.len(), 2);
    }

    #[test]
    fn report_serde_round_trips() {
        let report = DriftReport::from_samples("exec", 9, 1.0, vec![sample("ic", 3, 10.0, 8.0)]);
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: DriftReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert!(text.contains("\"schema_version\""), "{text}");
    }
}
