//! The lock-free metrics registry: counters, gauges and log-bucketed
//! histograms behind a global snapshot API.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path takes no lock.** A [`Counter`] is one `AtomicU64`
//!    bumped with one relaxed `fetch_add`. Instrumented code calls this
//!    once per work unit or ooc panel, not per FLOP, so the cost
//!    disappears under the arithmetic it counts.
//! 2. **Registration is cold.** [`Registry::counter`] takes a `Mutex`
//!    only to intern the name; call sites cache the returned
//!    `Arc<Counter>` in a `OnceLock` and never look it up again.
//! 3. **Snapshots are serializable.** [`RegistrySnapshot`] derives
//!    `Serialize`/`Deserialize` so `mmc counters --json` and the golden
//!    reconciliation tests read the same structure, and
//!    [`Registry::render_prometheus`] emits the text exposition format
//!    `mmc serve` answers `GET /metrics` with.
//!
//! Counter reads ([`Counter::get`]) are relaxed loads: exact once the
//! writing threads have quiesced (the reconciliation tests read after
//! `join`), monotone otherwise.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n` (lock-free, relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (queue depths, pool occupancy).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (possibly negative) to the gauge.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: bucket `i` holds values `v` with `bit_width(v) == i`,
/// i.e. `v == 0` in bucket 0 and `2^(i-1) <= v < 2^i` in bucket `i`.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` observations (latencies in
/// microseconds, sizes in bytes). One relaxed `fetch_add` per bucket
/// observation plus count and sum — no locks, no allocation.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wrapping on overflow, like Prometheus).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// Upper bound (inclusive) of log2 bucket `idx`: 0, 1, 3, 7, ...
fn bucket_le(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// One counter in a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Total at snapshot time.
    pub value: u64,
}

/// One gauge in a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// One non-empty histogram bucket: `count` observations `<= le`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket (`2^i - 1`).
    pub le: u64,
    /// Observations that fell in this bucket (not cumulative).
    pub count: u64,
}

/// One histogram in a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty buckets, ascending `le`.
    pub buckets: Vec<HistogramBucket>,
    /// Median estimate ([`HistogramSnapshot::quantile`] at 0.5); `None`
    /// when empty or read back from a snapshot that predates the field.
    #[serde(default)]
    pub p50: Option<u64>,
    /// 95th-percentile estimate; `None` when empty.
    #[serde(default)]
    pub p95: Option<u64>,
    /// 99th-percentile estimate; `None` when empty.
    #[serde(default)]
    pub p99: Option<u64>,
}

impl HistogramSnapshot {
    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `q`-th observation (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return Some(b.le);
            }
        }
        self.buckets.last().map(|b| b.le)
    }

    /// The quantile summary (p50/p95/p99) this snapshot's buckets imply.
    fn with_quantiles(mut self) -> HistogramSnapshot {
        self.p50 = self.quantile(0.5);
        self.p95 = self.quantile(0.95);
        self.p99 = self.quantile(0.99);
        self
    }
}

/// A point-in-time copy of every registered metric, **sorted by metric
/// name** so two snapshots of the same state serialize byte-identically
/// regardless of which thread registered which metric first.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// A named collection of metrics. Most code uses the process-wide
/// [`global`] registry; tests may build private ones.
pub struct Registry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
        }
    }

    /// The counter named `name`, registering it on first use. Cold path:
    /// cache the `Arc` at the call site rather than calling per event.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Copy every metric's current value. Entries are sorted by name:
    /// registration order depends on which thread's instrumentation ran
    /// first, and `--json` reports and golden tests need byte-stable
    /// output across those interleavings.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| CounterSnapshot { name: n.clone(), value: c.get() })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(n, g)| GaugeSnapshot { name: n.clone(), value: g.get() })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| {
                let buckets = (0..BUCKETS)
                    .filter_map(|i| {
                        let count = h.buckets[i].load(Ordering::Relaxed);
                        (count > 0).then(|| HistogramBucket { le: bucket_le(i), count })
                    })
                    .collect();
                HistogramSnapshot {
                    name: n.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    buckets,
                    p50: None,
                    p95: None,
                    p99: None,
                }
                .with_quantiles()
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        RegistrySnapshot { counters, gauges, histograms }
    }

    /// Render the registry in the Prometheus text exposition format
    /// (counters, gauges, and cumulative-bucket histograms), for the
    /// future `mmc serve` scraper.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for c in &snap.counters {
            let name = prom_name(&c.name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
        }
        for g in &snap.gauges {
            let name = prom_name(&g.name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.value));
        }
        for h in &snap.histograms {
            let name = prom_name(&h.name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for b in &h.buckets {
                cumulative += b.count;
                out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cumulative}\n", b.le));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        // Quantile estimates (log2-bucket upper bounds) go out as their
        // own `_quantile`-suffixed gauge family. They used to be
        // summary-style `name{quantile="..."}` samples under the
        // `# TYPE name histogram` declaration — an exposition-format
        // violation (a histogram family may only carry `_bucket`,
        // `_sum` and `_count` samples) that conformant scrapers reject.
        for h in &snap.histograms {
            let name = prom_name(&h.name);
            let quantiles: Vec<(&str, u64)> = [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)]
                .into_iter()
                .filter_map(|(q, v)| v.map(|v| (q, v)))
                .collect();
            if quantiles.is_empty() {
                continue;
            }
            out.push_str(&format!("# TYPE {name}_quantile gauge\n"));
            for (q, v) in quantiles {
                out.push_str(&format!("{name}_quantile{{quantile=\"{q}\"}} {v}\n"));
            }
        }
        out
    }
}

/// Find-or-insert under the registration mutex.
fn intern<T: Default>(table: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut table = table.lock().unwrap();
    if let Some((_, v)) = table.iter().find(|(n, _)| n == name) {
        return Arc::clone(v);
    }
    let v = Arc::new(T::default());
    table.push((name.to_string(), Arc::clone(&v)));
    v
}

/// Sanitize a metric name for the Prometheus exposition format.
fn prom_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' }).collect()
}

/// The process-wide registry every instrumented crate writes to.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("t.adds");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(3);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8 * 1000 * 3);
        assert_eq!(reg.snapshot().counter("t.adds"), Some(24000));
    }

    #[test]
    fn interning_returns_the_same_metric() {
        let reg = Registry::new();
        reg.counter("x").add(1);
        reg.counter("x").add(1);
        assert_eq!(reg.counter("x").get(), 2);
        reg.gauge("g").set(-5);
        assert_eq!(reg.gauge("g").get(), -5);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        h.observe(0); // bucket le=0
        h.observe(1); // le=1
        h.observe(2); // le=3
        h.observe(3); // le=3
        h.observe(1000); // le=1023
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let reg = Registry::new();
        let hh = reg.histogram("lat");
        for v in [0, 1, 2, 3, 1000] {
            hh.observe(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").unwrap();
        let les: Vec<u64> = hs.buckets.iter().map(|b| b.le).collect();
        assert_eq!(les, vec![0, 1, 3, 1023]);
        let counts: Vec<u64> = hs.buckets.iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![1, 1, 2, 1]);
        assert_eq!(hs.quantile(0.5), Some(3));
        assert_eq!(hs.quantile(1.0), Some(1023));
    }

    #[test]
    fn snapshot_carries_quantile_estimates() {
        let reg = Registry::new();
        let h = reg.histogram("q");
        // 50 observations at 10 (le=15), one outlier at 1000 (le=1023):
        // p50 and p95 sit in the le=15 bucket, p99 (rank 51 of 51) falls
        // on the outlier's bucket.
        for _ in 0..50 {
            h.observe(10);
        }
        h.observe(1000);
        let snap = reg.snapshot();
        let hs = snap.histogram("q").unwrap();
        assert_eq!(hs.p50, Some(15));
        assert_eq!(hs.p95, Some(15));
        assert_eq!(hs.p99, Some(1023));
        assert_eq!(hs.p50, hs.quantile(0.5));
        // Empty histograms report no quantiles.
        let reg2 = Registry::new();
        reg2.histogram("empty");
        let snap2 = reg2.snapshot();
        let empty = snap2.histogram("empty").unwrap();
        assert_eq!((empty.p50, empty.p95, empty.p99), (None, None, None));
    }

    #[test]
    fn exposition_renders_quantiles_as_their_own_gauge_family() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us");
        for v in [4, 4, 4, 4, 500] {
            h.observe(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lat_us_quantile gauge\n"), "{text}");
        assert!(text.contains("lat_us_quantile{quantile=\"0.5\"} 7\n"), "{text}");
        assert!(text.contains("lat_us_quantile{quantile=\"0.95\"} 511\n"), "{text}");
        assert!(text.contains("lat_us_quantile{quantile=\"0.99\"} 511\n"), "{text}");
        // Never again as summary-style samples of the histogram family.
        assert!(!text.contains("lat_us{quantile="), "{text}");
        // An empty histogram emits no quantile family at all.
        let reg2 = Registry::new();
        reg2.histogram("empty_us");
        let text2 = reg2.render_prometheus();
        assert!(!text2.contains("empty_us_quantile"), "{text2}");
    }

    /// Exposition-format conformance: every sample line must belong to
    /// its declared family — bare `name` samples for counters/gauges,
    /// and only `name_bucket{le=…}` / `name_sum` / `name_count` samples
    /// under a `# TYPE name histogram` declaration. The old renderer
    /// violated this with `name{quantile=…}` lines under histograms.
    #[test]
    fn exposition_is_conformant_per_declared_family() {
        let reg = Registry::new();
        reg.counter("jobs.total").add(7);
        reg.gauge("ram.in_use").set(123);
        let h = reg.histogram("job_us");
        for v in [1, 8, 64, 4000] {
            h.observe(v);
        }
        let text = reg.render_prometheus();

        let mut declared: Vec<(String, String)> = Vec::new(); // (name, type)
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let mut parts = line["# TYPE ".len()..].split_whitespace();
            let name = parts.next().unwrap().to_string();
            let ty = parts.next().unwrap().to_string();
            assert!(["counter", "gauge", "histogram"].contains(&ty.as_str()), "{line}");
            declared.push((name, ty));
        }

        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let sample = line.split([' ', '{']).next().unwrap();
            // Find the family this sample belongs to.
            let family = declared
                .iter()
                .find(|(name, ty)| match ty.as_str() {
                    "histogram" => {
                        [format!("{name}_bucket"), format!("{name}_sum"), format!("{name}_count")]
                            .contains(&sample.to_string())
                    }
                    _ => sample == name,
                })
                .unwrap_or_else(|| panic!("sample {sample:?} belongs to no declared family"));
            // Histogram families may not carry quantile-labelled samples.
            if family.1 == "histogram" {
                assert!(
                    !line.contains("quantile="),
                    "histogram family {} carries a quantile sample: {line}",
                    family.0
                );
            }
        }
        // And the quantile gauges exist, under their own declaration.
        assert!(text.contains("# TYPE job_us_quantile gauge\n"), "{text}");
    }

    #[test]
    fn snapshots_sort_by_name_not_registration_order() {
        let reg = Registry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.gauge("m.mid").set(3);
        reg.gauge("b.gauge").set(4);
        reg.histogram("z.h").observe(1);
        reg.histogram("a.h").observe(2);
        let snap = reg.snapshot();
        let counter_names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(counter_names, vec!["a.first", "z.last"]);
        let gauge_names: Vec<&str> = snap.gauges.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(gauge_names, vec!["b.gauge", "m.mid"]);
        let hist_names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(hist_names, vec!["a.h", "z.h"]);
        // Byte-stable: the same state serializes identically however
        // registration interleaved.
        let reg2 = Registry::new();
        reg2.histogram("a.h").observe(2);
        reg2.histogram("z.h").observe(1);
        reg2.gauge("b.gauge").set(4);
        reg2.gauge("m.mid").set(3);
        reg2.counter("a.first").add(2);
        reg2.counter("z.last").add(1);
        assert_eq!(
            serde_json::to_string_pretty(&snap).unwrap(),
            serde_json::to_string_pretty(&reg2.snapshot()).unwrap()
        );
    }

    #[test]
    fn quantile_on_empty_is_none() {
        let reg = Registry::new();
        reg.histogram("empty");
        assert_eq!(reg.snapshot().histogram("empty").unwrap().quantile(0.5), None);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = Registry::new();
        reg.counter("mmc_exec.flops").add(42);
        reg.gauge("pool free").set(3);
        let h = reg.histogram("read_us");
        h.observe(5);
        h.observe(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE mmc_exec_flops counter\nmmc_exec_flops 42\n"));
        assert!(text.contains("# TYPE pool_free gauge\npool_free 3\n"));
        assert!(text.contains("# TYPE read_us histogram\n"));
        assert!(text.contains("read_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("read_us_sum 105\nread_us_count 2\n"));
        // Cumulative buckets are monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("read_us_bucket{le=\"")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets must be cumulative: {text}");
            last = v;
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(-2);
        reg.histogram("h").observe(9);
        let snap = reg.snapshot();
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
