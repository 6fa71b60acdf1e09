//! Named counters and timers, cheap enough for the round-loop hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Locks `mutex`, recovering from poisoning: these mutexes only guard
/// map insertions and histogram bumps, which cannot be left in a
/// half-updated state observable through this API, so a panic on
/// another thread must not cascade into every later metrics call.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared registry of named [`Counter`]s and [`Timer`]s.
///
/// Handles are looked up once (get-or-create by name) and then touched
/// lock-free; cloning a `Registry` clones the `Arc`, so a swarm and the
/// CLI that launched it observe the same totals. [`Registry::global`]
/// is the process default; tests construct private registries for
/// isolation.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    timers: Mutex<BTreeMap<String, Arc<TimerCell>>>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide default registry.
    #[must_use]
    pub fn global() -> Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new).clone()
    }

    /// The counter named `name`, created at zero on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = lock(&self.inner.counters);
        let cell = counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            cell: Arc::clone(cell),
        }
    }

    /// The timer named `name`, created empty on first use.
    #[must_use]
    pub fn timer(&self, name: &str) -> Timer {
        let mut timers = lock(&self.inner.timers);
        let cell = timers
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(TimerCell::default()));
        Timer {
            cell: Arc::clone(cell),
        }
    }

    /// All counter totals, sorted by name.
    #[must_use]
    pub fn counter_totals(&self) -> Vec<(String, u64)> {
        lock(&self.inner.counters)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect()
    }

    /// All timer snapshots, sorted by name.
    #[must_use]
    pub fn timer_snapshots(&self) -> Vec<(String, TimerSnapshot)> {
        lock(&self.inner.timers)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.snapshot()))
            .collect()
    }
}

/// A monotonically increasing event counter.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `value` if it is below it (max-gauge use,
    /// e.g. peak population).
    pub fn record_max(&self, value: u64) {
        self.cell.fetch_max(value, Ordering::Relaxed);
    }

    /// Current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct TimerCell {
    total_ns: AtomicU64,
    histogram: Mutex<Histogram>,
}

impl TimerCell {
    fn record(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.total_ns.fetch_add(nanos, Ordering::Relaxed);
        lock(&self.histogram).record(nanos);
    }

    fn snapshot(&self) -> TimerSnapshot {
        let histogram = lock(&self.histogram);
        TimerSnapshot {
            total_secs: self.total_ns.load(Ordering::Relaxed) as f64 / 1e9,
            count: histogram.count(),
            p50_ns: histogram.percentile(50.0),
            p95_ns: histogram.percentile(95.0),
            p99_ns: histogram.percentile(99.0),
            max_ns: histogram.max(),
        }
    }
}

/// Accumulates wall-clock durations for one named phase.
#[derive(Clone)]
pub struct Timer {
    cell: Arc<TimerCell>,
}

impl Timer {
    /// Records one elapsed duration.
    pub fn record(&self, elapsed: Duration) {
        self.cell.record(elapsed);
    }

    /// Times one call of `f`, records the elapsed wall time and
    /// returns it, so a caller keeping its own aggregate (the profiler)
    /// reads the same duration the timer recorded. The registry's timers
    /// are the only clock the engine reads.
    pub fn time(&self, f: impl FnOnce()) -> Duration {
        let started = Instant::now();
        f();
        let elapsed = started.elapsed();
        self.cell.record(elapsed);
        elapsed
    }

    /// Point-in-time totals and percentiles.
    #[must_use]
    pub fn snapshot(&self) -> TimerSnapshot {
        self.cell.snapshot()
    }
}

/// Summary of one timer: totals plus approximate percentiles.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimerSnapshot {
    /// Sum of recorded durations, in seconds.
    pub total_secs: f64,
    /// Number of recorded durations.
    pub count: u64,
    /// Approximate median duration in nanoseconds, `None` when empty.
    pub p50_ns: Option<u64>,
    /// Approximate 95th-percentile duration, `None` when empty.
    /// Defaults to `None` when reading snapshots written before the
    /// field existed.
    #[serde(default)]
    pub p95_ns: Option<u64>,
    /// Approximate 99th-percentile duration, `None` when empty.
    pub p99_ns: Option<u64>,
    /// Exact maximum recorded duration, `None` when empty.
    pub max_ns: Option<u64>,
}

/// A log-bucketed histogram of `u64` samples (power-of-two buckets).
///
/// Percentiles are approximate — a bucket's samples are reported as the
/// bucket's lower bound, clamped to the exact observed `[min, max]` —
/// which makes the single-sample case exact and keeps the error within
/// a factor of two elsewhere. No allocation after construction.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if let Some(bucket) = self.buckets.get_mut(Histogram::bucket_index(value)) {
            *bucket += 1;
        }
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The approximate `p`-th percentile (`0.0..=100.0`), `None` when
    /// empty. `p <= 0` yields the minimum, `p >= 100` the maximum.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let fraction = (p / 100.0).clamp(0.0, 1.0);
        // 1-based rank of the sample to report.
        let rank = ((fraction * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extremes are tracked exactly; report them exactly.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (index, &bucket_count) in self.buckets.iter().enumerate() {
            seen += bucket_count;
            if seen >= rank {
                let lower_bound = if index == 0 { 0 } else { 1u64 << index };
                return Some(lower_bound.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_arithmetic() {
        let registry = Registry::new();
        let counter = registry.counter("arrivals");
        counter.incr();
        counter.add(4);
        assert_eq!(counter.get(), 5);
        counter.record_max(3);
        assert_eq!(counter.get(), 5, "record_max never lowers");
        // Same name, same cell.
        assert_eq!(registry.counter("arrivals").get(), 5);
        assert_eq!(registry.counter_totals(), vec![("arrivals".to_string(), 5)]);
        counter.record_max(9);
        assert_eq!(counter.get(), 9);
    }

    #[test]
    fn counters_are_shared_across_threads() {
        let registry = Registry::new();
        let counter = registry.counter("shared");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        counter.incr();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(counter.get(), 4000);
    }

    #[test]
    fn timer_records_and_snapshots() {
        let registry = Registry::new();
        let timer = registry.timer("phase");
        timer.record(Duration::from_micros(100));
        timer.record(Duration::from_micros(300));
        let elapsed = timer.time(|| std::thread::sleep(Duration::from_micros(50)));
        assert!(elapsed >= Duration::from_micros(50));
        let snapshot = timer.snapshot();
        assert_eq!(snapshot.count, 3);
        assert!(snapshot.total_secs >= 450e-6);
        assert!(snapshot.p50_ns.is_some());
        assert!(snapshot.max_ns.unwrap() >= 300_000);
    }

    #[test]
    fn histogram_empty_has_no_percentiles() {
        let histogram = Histogram::new();
        assert_eq!(histogram.count(), 0);
        assert_eq!(histogram.percentile(50.0), None);
        assert_eq!(histogram.min(), None);
        assert_eq!(histogram.max(), None);
        assert_eq!(histogram.mean(), None);
    }

    // With one sample, every percentile is exact.
    #[test]
    fn histogram_single_sample_is_exact() {
        let mut histogram = Histogram::new();
        histogram.record(12345);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(histogram.percentile(p), Some(12345), "p={p}");
        }
        assert_eq!(histogram.mean(), Some(12345.0));
    }

    #[test]
    fn histogram_zero_sample_is_representable() {
        let mut histogram = Histogram::new();
        histogram.record(0);
        assert_eq!(histogram.percentile(50.0), Some(0));
        assert_eq!(histogram.max(), Some(0));
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_bounded() {
        let mut histogram = Histogram::new();
        for value in [1u64, 2, 3, 10, 100, 1000, 10_000, 100_000] {
            histogram.record(value);
        }
        let mut last = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let value = histogram.percentile(p).unwrap();
            assert!(value >= last, "p={p}: {value} < {last}");
            assert!((1..=100_000).contains(&value), "p={p}: {value}");
            last = value;
        }
        assert_eq!(histogram.percentile(100.0), Some(100_000));
        assert_eq!(histogram.percentile(0.0), Some(1));
    }

    #[test]
    fn histogram_extreme_values_do_not_overflow() {
        let mut histogram = Histogram::new();
        histogram.record(u64::MAX);
        histogram.record(1);
        assert_eq!(histogram.max(), Some(u64::MAX));
        assert_eq!(histogram.percentile(100.0), Some(u64::MAX));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snapshot = TimerSnapshot {
            total_secs: 1.5,
            count: 3,
            p50_ns: Some(10),
            p95_ns: Some(80),
            p99_ns: Some(90),
            max_ns: Some(95),
        };
        let text = serde_json::to_string(&snapshot).unwrap();
        let back: TimerSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snapshot);
    }

    // Snapshots serialized before `p95_ns` existed must still load.
    #[test]
    fn snapshot_tolerates_missing_p95() {
        let text = r#"{"total_secs":1.5,"count":3,"p50_ns":10,"p99_ns":90,"max_ns":95}"#;
        let back: TimerSnapshot = serde_json::from_str(text).unwrap();
        assert_eq!(back.p95_ns, None);
        assert_eq!(back.p99_ns, Some(90));
    }

    #[test]
    fn snapshot_reports_all_three_quantiles() {
        let registry = Registry::new();
        let timer = registry.timer("quantiles");
        for micros in 1..=100 {
            timer.record(Duration::from_micros(micros));
        }
        let snapshot = timer.snapshot();
        let p50 = snapshot.p50_ns.unwrap();
        let p95 = snapshot.p95_ns.unwrap();
        let p99 = snapshot.p99_ns.unwrap();
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= snapshot.max_ns.unwrap());
    }
}
