//! Global metrics registry: counters, gauges, log-linear histograms.
//!
//! Metrics are always on — an increment is one relaxed atomic add on a
//! leaked `&'static AtomicU64` cell, so handles are `Copy` and a hot
//! call site pays the name lookup once by caching the handle in a
//! `OnceLock` (see `lorafusion-tensor`'s pool for the pattern).
//!
//! Every histogram shares the one global log-linear bucket table of
//! [`crate::hist`], so histograms merge by adding counts and their
//! quantiles are deterministic; recording is a binary search over that
//! cached `&'static` table plus one relaxed add.
//!
//! The registry feeds two exporters: [`metrics_snapshot`] (a compact
//! name→value dump that [`crate::validate::metrics_json`] renders) and
//! [`sample_counters`], which appends timestamped samples that
//! [`crate::chrome`] turns into Perfetto counter tracks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

struct Entry {
    name: &'static str,
    kind: Kind,
    cells: &'static [AtomicU64],
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn leak_cells(n: usize) -> &'static [AtomicU64] {
    Box::leak((0..n).map(|_| AtomicU64::new(0)).collect::<Box<[_]>>())
}

fn register(name: &'static str, kind: Kind) -> &'static [AtomicU64] {
    let mut registry = registry().lock().unwrap();
    if let Some(entry) = registry.iter().find(|e| e.name == name) {
        assert_eq!(
            entry.kind, kind,
            "metric {name:?} registered twice with different kinds"
        );
        return entry.cells;
    }
    let cells = leak_cells(if kind == Kind::Histogram {
        crate::hist::bounds().len() + 1
    } else {
        1
    });
    registry.push(Entry { name, kind, cells });
    cells
}

/// Intern a dynamic metric name (deduplicated, leaked once). Use for
/// reporter scalars whose names are built at runtime; prefer string
/// literals at fixed call sites.
pub fn intern(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut names = NAMES.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    if let Some(existing) = names.iter().find(|n| **n == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    names.push(leaked);
    leaked
}

/// Monotonic counter.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
    /// Reset to zero (compatibility shims and tests only).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins gauge holding an `f64`.
#[derive(Clone, Copy)]
pub struct Gauge(&'static AtomicU64);

impl Gauge {
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Log-linear histogram over the global [`crate::hist::bounds`] table,
/// plus an overflow bucket.
#[derive(Clone, Copy)]
pub struct Histogram(&'static [AtomicU64]);

impl Histogram {
    /// One binary search over the cached bucket table, one relaxed add.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0[crate::hist::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }
    pub fn total(&self) -> u64 {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
    /// `(upper_bound, count)` pairs; the overflow bucket reports
    /// `u64::MAX` as its bound.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        buckets_of(self.0)
    }
    /// Deterministic quantile of the recorded values under the
    /// [`crate::hist`] contract (upper bound of the bucket where the
    /// cumulative count reaches `ceil(q · total)`; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        crate::hist::quantile_from_buckets(&self.buckets(), q)
    }
}

fn buckets_of(cells: &[AtomicU64]) -> Vec<(u64, u64)> {
    let bounds = crate::hist::bounds();
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let bound = bounds.get(i).copied().unwrap_or(u64::MAX);
            (bound, c.load(Ordering::Relaxed))
        })
        .collect()
}

/// Look up or create the counter `name`.
pub fn counter(name: &'static str) -> Counter {
    Counter(&register(name, Kind::Counter)[0])
}

/// Look up or create the gauge `name`.
pub fn gauge(name: &'static str) -> Gauge {
    Gauge(&register(name, Kind::Gauge)[0])
}

/// Look up or create the histogram `name`.
pub fn histogram(name: &'static str) -> Histogram {
    Histogram(register(name, Kind::Histogram))
}

/// Point-in-time value of one registered metric.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    pub name: &'static str,
    pub kind: Kind,
    /// Counter count, gauge value, or histogram total.
    pub value: f64,
    /// Histogram `(upper_bound, count)` pairs; empty otherwise.
    pub buckets: Vec<(u64, u64)>,
}

/// Snapshot every registered metric, sorted by name.
pub fn metrics_snapshot() -> Vec<MetricSnapshot> {
    let registry = registry().lock().unwrap();
    let mut out: Vec<MetricSnapshot> = registry
        .iter()
        .map(|e| {
            let first = e.cells[0].load(Ordering::Relaxed);
            let (value, buckets) = match e.kind {
                Kind::Counter => (first as f64, Vec::new()),
                Kind::Gauge => (f64::from_bits(first), Vec::new()),
                Kind::Histogram => {
                    let buckets = buckets_of(e.cells);
                    (buckets.iter().map(|&(_, c)| c).sum::<u64>() as f64, buckets)
                }
            };
            MetricSnapshot {
                name: e.name,
                kind: e.kind,
                value,
                buckets,
            }
        })
        .collect();
    out.sort_by_key(|s| s.name);
    out
}

/// One timestamped counter-track sample for the Chrome exporter.
#[derive(Debug, Clone)]
pub struct CounterSample {
    pub name: &'static str,
    pub ts_us: f64,
    pub value: f64,
}

fn samples() -> &'static Mutex<Vec<CounterSample>> {
    static SAMPLES: OnceLock<Mutex<Vec<CounterSample>>> = OnceLock::new();
    SAMPLES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Hard cap on stored samples so long sweeps (fig14 runs dozens of
/// simulations) cannot balloon the trace; drops are counted in
/// `trace.samples.dropped`, never silent.
const MAX_SAMPLES: usize = 100_000;

/// Record one sample of every counter and gauge at the current trace
/// timestamp. Call at coarse boundaries (phase starts, sim
/// completions, reporter finish) — per-increment sampling would swamp
/// the trace.
pub fn sample_counters() {
    let ts_us = crate::now_us();
    let registry = registry().lock().unwrap();
    let mut samples = samples().lock().unwrap();
    for e in registry.iter() {
        let value = match e.kind {
            Kind::Counter => e.cells[0].load(Ordering::Relaxed) as f64,
            Kind::Gauge => f64::from_bits(e.cells[0].load(Ordering::Relaxed)),
            Kind::Histogram => continue,
        };
        if samples.len() >= MAX_SAMPLES {
            drop(samples);
            drop(registry);
            counter("trace.samples.dropped").incr();
            return;
        }
        samples.push(CounterSample {
            name: e.name,
            ts_us,
            value,
        });
    }
}

/// Snapshot the recorded counter samples (non-destructive).
pub fn counter_samples() -> Vec<CounterSample> {
    samples().lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let c = counter("test.counter.basic");
        let before = c.get();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name returns the same cell.
        counter("test.counter.basic").incr();
        assert_eq!(c.get(), before + 6);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = gauge("test.gauge.basic");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);

        let h = histogram("test.hist.basic");
        h.record(3);
        h.record(64);
        h.record(1_000_000);
        h.record(u64::MAX);
        assert_eq!(h.total(), 4);
        let buckets = h.buckets();
        assert_eq!(buckets.len(), crate::hist::bounds().len() + 1);
        let nonzero: Vec<(u64, u64)> = buckets.into_iter().filter(|&(_, c)| c > 0).collect();
        assert_eq!(
            nonzero,
            vec![(3, 1), (64, 1), (1_048_576, 1), (u64::MAX, 1)],
            "inclusive upper bounds; 1e6 lands in the (917504, 1048576] sub-bucket"
        );
        assert_eq!(h.quantile(0.5), 64);
    }

    #[test]
    fn snapshot_contains_registered_metrics() {
        counter("test.snapshot.counter").add(7);
        gauge("test.snapshot.gauge").set(1.25);
        let snap = metrics_snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name).collect();
        assert!(names.contains(&"test.snapshot.counter"));
        assert!(names.contains(&"test.snapshot.gauge"));
        assert!(names.windows(2).all(|w| w[0] <= w[1]), "sorted by name");
        let g = snap
            .iter()
            .find(|s| s.name == "test.snapshot.gauge")
            .unwrap();
        assert_eq!(g.value, 1.25);
        assert_eq!(g.kind, Kind::Gauge);
    }

    #[test]
    fn interning_deduplicates() {
        let a = intern("test.intern.name");
        let b = intern(&format!("test.intern.{}", "name"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn sampling_records_counters() {
        counter("test.sample.counter").add(3);
        sample_counters();
        let samples = counter_samples();
        assert!(samples
            .iter()
            .any(|s| s.name == "test.sample.counter" && s.value >= 3.0));
    }
}
