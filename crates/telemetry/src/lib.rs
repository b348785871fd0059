//! # cbrain-telemetry
//!
//! A std-only metrics and tracing layer for the workspace: named atomic
//! [`Counter`]s, [`Gauge`]s and fixed-bucket latency [`Histogram`]s collected
//! in a [`Registry`], a lightweight span API ([`Span`] / [`span!`]) that
//! records elapsed wall-clock into histograms on drop, and a deterministic
//! Prometheus text-format renderer ([`render_prometheus`]) plus a minimal
//! HTTP/1.0 exposition listener ([`http::MetricsServer`], `GET /metrics`
//! only) so any standard scraper can watch a daemon.
//!
//! ## Determinism contract
//!
//! The repo's testing discipline is byte-identity, and telemetry must not
//! perturb it:
//!
//! * metric iteration order is the sorted order of the full metric name
//!   (labels included), so two scrapes of an idle process after identical
//!   workloads render identical exposition text;
//! * no timestamps are ever emitted;
//! * histogram sums are accumulated in integer **microseconds-style
//!   micro-units** (`round(v * 1e6)`) so rendering is a deterministic
//!   integer-derived decimal, never a float-accumulation artifact;
//! * bucket bounds are fixed at registration ([`DURATION_BUCKETS`],
//!   [`SIZE_BUCKETS`]) and rendered with Rust's deterministic `f64`
//!   `Display`.
//!
//! ## The kill switch
//!
//! `CBRAIN_TELEMETRY=off` (or `0` / `false` / `no`) disables the *timing*
//! side: [`Histogram::observe`] returns immediately and [`Span::start`]
//! skips the clock read, so the disabled cost on a hot path is one
//! `Relaxed` atomic load. Counters and gauges keep counting regardless:
//! they are plain relaxed integer adds (cheaper than a useful amount of
//! work to guard) and the daemon's `stats` / `progress` wire responses are
//! backed by them, so switching telemetry off must not zero the protocol.
//! This is the second environment variable consumed below `cbrain::config`
//! (the first is `CBRAIN_FORCE_SCALAR` in `cbrain-simd`, for the same
//! dependency-order reason), and this crate is the only reader of it.
//!
//! ## Example
//!
//! ```
//! use cbrain_telemetry::{Registry, DURATION_BUCKETS};
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache_hits_total", "compiled-layer cache hits");
//! hits.add(3);
//! let lat = reg.histogram("compile_seconds", "compile latency", &DURATION_BUCKETS);
//! {
//!     let _span = cbrain_telemetry::span!(lat);
//!     // ... timed work ...
//! }
//! let text = cbrain_telemetry::render_prometheus(&reg.samples());
//! assert!(text.contains("cache_hits_total 3"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub mod http;

/// Environment variable holding the telemetry kill switch.
///
/// Unset or any value other than `off`/`0`/`false`/`no` (case-insensitive,
/// trimmed) enables timing; those four values disable it. Read once on
/// first use; [`set_enabled`] overrides programmatically for tests.
pub const ENV_TELEMETRY: &str = "CBRAIN_TELEMETRY";

/// Tri-state enabled flag: 0 = uninitialised, 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when the given `CBRAIN_TELEMETRY` value means "disabled".
fn value_means_off(v: &str) -> bool {
    matches!(
        v.trim().to_ascii_lowercase().as_str(),
        "off" | "0" | "false" | "no"
    )
}

#[cold]
fn init_enabled() -> bool {
    let on = match std::env::var(ENV_TELEMETRY) {
        Ok(v) => !value_means_off(&v),
        Err(_) => true,
    };
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Is the timing side of telemetry enabled?
///
/// After the first call this is a single `Relaxed` load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_enabled(),
    }
}

/// Programmatic override of the kill switch (wins over the environment).
///
/// Intended for tests and tools; affects the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Default latency bucket upper bounds, in seconds.
///
/// Fixed for the whole workspace so exposition is diff-stable across
/// binaries and versions: 500µs to 10s, roughly ×2–×2.5 per step.
pub const DURATION_BUCKETS: [f64; 14] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Default size/count bucket upper bounds (batch sizes, fan-outs).
pub const SIZE_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// A monotonically increasing `u64` counter.
///
/// Updates are `Relaxed` atomic adds and are **not** gated by the kill
/// switch (see the crate docs: the wire protocol reads them).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zero counter (normally obtained via [`Registry::counter`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge (current level of something: queue depth, in-flight).
///
/// Updates are `Relaxed` atomic adds and are **not** gated by the kill
/// switch.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh zero gauge (normally obtained via [`Registry::gauge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Add a signed delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Current value clamped at zero (for `u64` wire fields).
    #[inline]
    pub fn get_clamped(&self) -> u64 {
        self.get().max(0) as u64
    }
}

/// Micro-units per observed unit: sums are kept as `round(v * 1e6)`.
const MICRO: f64 = 1e6;

/// A fixed-bucket histogram with lock-free `Relaxed` recording.
///
/// Bucket bounds are upper bounds (`le`); an implicit `+Inf` bucket is
/// always present. [`Histogram::observe`] is gated by the kill switch.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_micro: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A fresh histogram with the given finite upper bounds, which must be
    /// strictly increasing (normally obtained via [`Registry::histogram`]).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_micro: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation (no-op when telemetry is off).
    #[inline]
    pub fn observe(&self, v: f64) {
        if !enabled() {
            return;
        }
        self.observe_always(v);
    }

    /// Record one observation regardless of the kill switch.
    ///
    /// Used for structural metrics (batch sizes) whose recording cost is
    /// not a clock read; also keeps unit tests independent of global state.
    pub fn observe_always(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let micro = (v * MICRO).round();
        let micro = if micro.is_finite() && micro >= 0.0 {
            micro as u64
        } else {
            0
        };
        self.sum_micro.fetch_add(micro, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration in seconds (no-op when telemetry is off).
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        if !enabled() {
            return;
        }
        self.observe_always(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (recovered from integer micro-units).
    pub fn sum(&self) -> f64 {
        self.sum_micro.load(Ordering::Relaxed) as f64 / MICRO
    }

    /// Cumulative bucket counts, one per bound plus the final `+Inf`.
    pub fn cumulative_buckets(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }

    /// The finite upper bounds this histogram was built with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

/// A drop-guard that records elapsed wall-clock into a [`Histogram`].
///
/// When telemetry is off the construction cost is one relaxed load and no
/// clock is read.
#[derive(Debug)]
pub struct Span {
    hist: Arc<Histogram>,
    start: Option<Instant>,
}

impl Span {
    /// Start timing against `hist`.
    pub fn start(hist: &Arc<Histogram>) -> Self {
        Self {
            hist: Arc::clone(hist),
            start: if enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.hist.observe_always(start.elapsed().as_secs_f64());
        }
    }
}

/// Start a [`Span`] guard recording into a histogram when dropped.
///
/// Two forms:
///
/// * `span!(hist)` — `hist` is an `Arc<Histogram>`;
/// * `span!(registry, "name", "help")` — get-or-register a
///   [`DURATION_BUCKETS`] histogram by name in `registry`, then start.
#[macro_export]
macro_rules! span {
    ($hist:expr) => {
        $crate::Span::start(&$hist)
    };
    ($registry:expr, $name:expr, $help:expr) => {
        $crate::Span::start(&$registry.histogram($name, $help, &$crate::DURATION_BUCKETS))
    };
}

/// What kind of metric a [`Sample`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Point-in-time level.
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// The value part of a [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// An unscaled gauge carrying a ratio (rendered as `f64`).
    GaugeF64(f64),
    /// Histogram snapshot.
    Histogram {
        /// Finite upper bounds.
        bounds: Vec<f64>,
        /// Cumulative counts per bound, final entry = `+Inf` = `count`.
        cumulative: Vec<u64>,
        /// Sum of observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

/// One rendered metric: full name (labels included), help text, kind, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full metric name, optionally with a `{label="value"}` suffix.
    pub name: String,
    /// Help text for the `# HELP` line.
    pub help: String,
    /// Metric kind for the `# TYPE` line.
    pub kind: MetricKind,
    /// The sampled value.
    pub value: SampleValue,
}

impl Sample {
    /// The name with any `{label...}` suffix stripped — the series family.
    pub fn base_name(&self) -> &str {
        match self.name.find('{') {
            Some(i) => &self.name[..i],
            None => &self.name,
        }
    }

    /// The inner label text (`k="v",...`) if the name carries labels.
    pub fn labels(&self) -> Option<&str> {
        let open = self.name.find('{')?;
        let inner = &self.name[open + 1..];
        inner.strip_suffix('}')
    }
}

enum Metric {
    Counter(Arc<Counter>, String),
    Gauge(Arc<Gauge>, String),
    Histogram(Arc<Histogram>, String),
}

impl fmt::Debug for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Counter(c, _) => write!(f, "Counter({})", c.get()),
            Metric::Gauge(g, _) => write!(f, "Gauge({})", g.get()),
            Metric::Histogram(h, _) => write!(f, "Histogram(count={})", h.count()),
        }
    }
}

/// A named collection of metrics with get-or-register semantics.
///
/// Handles ([`Arc<Counter>`] etc.) are cheap to clone and lock-free to
/// update; the registry mutex is touched only at registration and when
/// sampling. Names sort deterministically (a `BTreeMap`), which is what
/// makes the exposition diff-stable.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry used by call sites below the daemon
    /// (persist) that have no registry handy.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or register a counter. Panics if `name` is already registered
    /// as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new()), help.to_string()))
        {
            Metric::Counter(c, _) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register a gauge. Panics if `name` is already registered as
    /// a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()), help.to_string()))
        {
            Metric::Gauge(g, _) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register a histogram (bounds are fixed by the first
    /// registration). Panics if `name` is already registered as a
    /// different kind.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Arc::new(Histogram::new(bounds)), help.to_string())
        }) {
            Metric::Histogram(h, _) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Snapshot every metric, sorted by full name.
    pub fn samples(&self) -> Vec<Sample> {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .map(|(name, metric)| match metric {
                Metric::Counter(c, help) => Sample {
                    name: name.clone(),
                    help: help.clone(),
                    kind: MetricKind::Counter,
                    value: SampleValue::Counter(c.get()),
                },
                Metric::Gauge(g, help) => Sample {
                    name: name.clone(),
                    help: help.clone(),
                    kind: MetricKind::Gauge,
                    value: SampleValue::Gauge(g.get()),
                },
                Metric::Histogram(h, help) => Sample {
                    name: name.clone(),
                    help: help.clone(),
                    kind: MetricKind::Histogram,
                    value: SampleValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        cumulative: h.cumulative_buckets(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                },
            })
            .collect()
    }
}

/// Merge sample sets into one sorted, name-deduplicated list.
///
/// On duplicate full names the sample from the *earlier* set wins, so a
/// caller can overlay computed samples over registry-resident ones.
pub fn merge_samples(sets: Vec<Vec<Sample>>) -> Vec<Sample> {
    let mut merged: BTreeMap<String, Sample> = BTreeMap::new();
    for set in sets {
        for s in set {
            merged.entry(s.name.clone()).or_insert(s);
        }
    }
    merged.into_values().collect()
}

/// Format an `f64` the way the exposition does (Rust `Display`, which is
/// deterministic shortest-round-trip for these values).
pub fn format_f64(v: f64) -> String {
    format!("{v}")
}

/// Render samples as Prometheus text format (version 0.0.4).
///
/// `samples` must be sorted by name (as [`Registry::samples`] and
/// [`merge_samples`] return them). `# HELP` / `# TYPE` are emitted once
/// per series family; no timestamps are emitted, so output for identical
/// metric values is byte-identical.
pub fn render_prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_base: Option<String> = None;
    for s in samples {
        let base = s.base_name().to_string();
        if last_base.as_deref() != Some(base.as_str()) {
            out.push_str(&format!("# HELP {} {}\n", base, s.help));
            out.push_str(&format!("# TYPE {} {}\n", base, s.kind.as_str()));
            last_base = Some(base.clone());
        }
        match &s.value {
            SampleValue::Counter(v) => out.push_str(&format!("{} {v}\n", s.name)),
            SampleValue::Gauge(v) => out.push_str(&format!("{} {v}\n", s.name)),
            SampleValue::GaugeF64(v) => out.push_str(&format!("{} {}\n", s.name, format_f64(*v))),
            SampleValue::Histogram {
                bounds,
                cumulative,
                sum,
                count,
            } => {
                let labels = s.labels();
                let series = |le: &str| match labels {
                    Some(l) => format!("{base}_bucket{{{l},le=\"{le}\"}}"),
                    None => format!("{base}_bucket{{le=\"{le}\"}}"),
                };
                for (b, c) in bounds.iter().zip(cumulative.iter()) {
                    out.push_str(&format!("{} {c}\n", series(&format_f64(*b))));
                }
                if let Some(c) = cumulative.last() {
                    out.push_str(&format!("{} {c}\n", series("+Inf")));
                }
                let suffixed = |suffix: &str| match labels {
                    Some(l) => format!("{base}_{suffix}{{{l}}}"),
                    None => format!("{base}_{suffix}"),
                };
                out.push_str(&format!("{} {}\n", suffixed("sum"), format_f64(*sum)));
                out.push_str(&format!("{} {count}\n", suffixed("count")));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that flip the global kill switch.
    fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_and_gauge_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.add(-5);
        assert_eq!(g.get(), -4);
        assert_eq!(g.get_clamped(), 0);
        g.set(7);
        assert_eq!(g.get_clamped(), 7);
    }

    #[test]
    fn histogram_buckets_and_sum_are_exact() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe_always(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.cumulative_buckets(), vec![2, 3, 4, 5]);
        assert_eq!(h.sum(), 106.0);
    }

    #[test]
    fn kill_switch_gates_observe_but_not_counters() {
        let _guard = switch_lock();
        set_enabled(false);
        let h = Histogram::new(&DURATION_BUCKETS);
        h.observe(1.0);
        h.observe_duration(Duration::from_millis(5));
        assert_eq!(h.count(), 0, "observe must be a no-op when off");
        let c = Counter::new();
        c.inc();
        assert_eq!(c.get(), 1, "counters keep counting when off");
        set_enabled(true);
        h.observe(1.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn span_records_on_drop_only_when_enabled() {
        let _guard = switch_lock();
        set_enabled(true);
        let reg = Registry::new();
        let h = reg.histogram("t_seconds", "test", &DURATION_BUCKETS);
        {
            let _s = span!(h);
        }
        assert_eq!(h.count(), 1);
        set_enabled(false);
        {
            let _s = span!(h);
        }
        assert_eq!(h.count(), 1, "disabled span must not record");
        set_enabled(true);
        {
            let _s = span!(reg, "t_seconds", "test");
        }
        assert_eq!(h.count(), 2, "registry-form span reuses the histogram");
    }

    #[test]
    fn registry_get_or_register_returns_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "x");
        let b = reg.counter("x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x", "x");
        let _ = reg.gauge("x", "x");
    }

    #[test]
    fn samples_are_sorted_and_render_is_deterministic() {
        let reg = Registry::new();
        reg.counter("b_total", "bee").add(2);
        reg.gauge("a_depth", "ay").set(3);
        reg.counter("c_total{shard=\"s1\"}", "cee").inc();
        reg.counter("c_total{shard=\"s0\"}", "cee").inc();
        let names: Vec<_> = reg.samples().iter().map(|s| s.name.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let one = render_prometheus(&reg.samples());
        let two = render_prometheus(&reg.samples());
        assert_eq!(one, two);
        // HELP/TYPE once per family, even with two labeled series.
        assert_eq!(one.matches("# TYPE c_total counter").count(), 1);
        assert!(one.contains("c_total{shard=\"s0\"} 1\n"));
    }

    #[test]
    fn render_histogram_series_shape() {
        let reg = Registry::new();
        let h = reg.histogram("lat_seconds{req=\"x\"}", "latency", &[0.5, 1.0]);
        h.observe_always(0.25);
        h.observe_always(2.0);
        let text = render_prometheus(&reg.samples());
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{req=\"x\",le=\"0.5\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{req=\"x\",le=\"1\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{req=\"x\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_seconds_sum{req=\"x\"} 2.25\n"));
        assert!(text.contains("lat_seconds_count{req=\"x\"} 2\n"));
    }

    #[test]
    fn merge_prefers_earlier_sets_and_sorts() {
        let a = vec![Sample {
            name: "m".into(),
            help: "first".into(),
            kind: MetricKind::Gauge,
            value: SampleValue::Gauge(1),
        }];
        let b = vec![
            Sample {
                name: "m".into(),
                help: "second".into(),
                kind: MetricKind::Gauge,
                value: SampleValue::Gauge(2),
            },
            Sample {
                name: "a".into(),
                help: "ay".into(),
                kind: MetricKind::Counter,
                value: SampleValue::Counter(0),
            },
        ];
        let merged = merge_samples(vec![a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].name, "a");
        assert_eq!(merged[1].help, "first");
    }

    #[test]
    fn value_means_off_rules() {
        for v in ["off", "OFF", " 0 ", "false", "No"] {
            assert!(value_means_off(v), "{v:?} should disable");
        }
        for v in ["on", "1", "", "yes", "anything"] {
            assert!(!value_means_off(v), "{v:?} should enable");
        }
    }
}
