//! Ring-buffer-backed time series with bounded memory.
//!
//! [`SeriesStore`] keeps one bounded [`RingSeries`] per named scalar
//! signal (entropy, population, utilization, …), sampled on a
//! configurable stride. Memory is bounded by `capacity` samples per
//! series: once a ring is full the oldest sample is evicted and counted,
//! so a million-round run costs the same memory as a thousand-round one.
//!
//! The store converts to and from a flat stream of [`SeriesPoint`]s,
//! which [`crate::records`] writes and reads as JSON lines (the
//! profiler's `.rounds.jsonl`).
//!
//! # Example
//!
//! ```
//! use bt_obs::SeriesStore;
//!
//! let mut store = SeriesStore::new(2, 128); // every 2nd tick, 128 samples max
//! for tick in 0..10 {
//!     store.record("entropy", tick, tick as f64 / 10.0);
//! }
//! let entropy = store.get("entropy").unwrap();
//! assert_eq!(entropy.len(), 5); // ticks 0, 2, 4, 6, 8
//! assert_eq!(entropy.latest(), Some((8, 0.8)));
//! ```

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

/// One `(tick, value)` sample of a named series — the unit of the
/// JSON-lines export format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// The series the sample belongs to.
    pub series: String,
    /// Sample tick (round number, step index, …).
    pub tick: u64,
    /// Sampled value.
    pub value: f64,
}

/// A bounded ring of `(tick, value)` samples for one signal.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSeries {
    capacity: usize,
    samples: VecDeque<(u64, f64)>,
    evicted: u64,
}

impl RingSeries {
    fn new(capacity: usize) -> Self {
        RingSeries {
            capacity,
            samples: VecDeque::with_capacity(capacity.min(1024)),
            evicted: 0,
        }
    }

    fn push(&mut self, tick: u64, value: f64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back((tick, value));
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted to honor the capacity bound.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The most recent sample, if any.
    #[must_use]
    pub fn latest(&self) -> Option<(u64, f64)> {
        self.samples.back().copied()
    }

    /// Iterates over retained `(tick, value)` samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// Mean of the retained values, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64)
    }

    /// Minimum retained value with its tick, `None` when empty. NaN
    /// samples are skipped (they are unordered).
    #[must_use]
    pub fn min(&self) -> Option<(u64, f64)> {
        self.samples
            .iter()
            .filter(|&&(_, v)| !v.is_nan())
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// A set of named [`RingSeries`] sharing one sampling stride and one
/// per-series capacity bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesStore {
    stride: u64,
    capacity: usize,
    series: BTreeMap<String, RingSeries>,
}

impl SeriesStore {
    /// Creates a store sampling every `stride`-th tick, keeping at most
    /// `capacity` samples per series. Zero values are normalized to 1.
    #[must_use]
    pub fn new(stride: u64, capacity: usize) -> Self {
        SeriesStore {
            stride: stride.max(1),
            capacity: capacity.max(1),
            series: BTreeMap::new(),
        }
    }

    /// The sampling stride.
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The per-series capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `tick` falls on the sampling stride.
    #[must_use]
    pub fn accepts(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.stride)
    }

    /// Records a sample if `tick` falls on the stride; returns whether it
    /// was kept.
    pub fn record(&mut self, name: &str, tick: u64, value: f64) -> bool {
        if !self.accepts(tick) {
            return false;
        }
        self.series
            .entry(name.to_string())
            .or_insert_with(|| RingSeries::new(self.capacity))
            .push(tick, value);
        true
    }

    /// The series named `name`, if any samples were recorded for it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&RingSeries> {
        self.series.get(name)
    }

    /// All series names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// Flattens the retained samples into a point stream, ordered by
    /// series name then tick.
    #[must_use]
    pub fn points(&self) -> Vec<SeriesPoint> {
        let mut out = Vec::new();
        for (name, ring) in &self.series {
            for (tick, value) in ring.iter() {
                out.push(SeriesPoint {
                    series: name.clone(),
                    tick,
                    value,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_filters_ticks() {
        let mut store = SeriesStore::new(3, 16);
        for tick in 0..10 {
            store.record("x", tick, tick as f64);
        }
        let ring = store.get("x").unwrap();
        let ticks: Vec<u64> = ring.iter().map(|(t, _)| t).collect();
        assert_eq!(ticks, vec![0, 3, 6, 9]);
        assert!(store.accepts(6));
        assert!(!store.accepts(7));
    }

    #[test]
    fn capacity_bounds_memory_and_counts_evictions() {
        let mut store = SeriesStore::new(1, 4);
        for tick in 0..10 {
            store.record("x", tick, tick as f64);
        }
        let ring = store.get("x").unwrap();
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.evicted(), 6);
        let ticks: Vec<u64> = ring.iter().map(|(t, _)| t).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9], "oldest samples evicted first");
        assert_eq!(ring.latest(), Some((9, 9.0)));
    }

    #[test]
    fn degenerate_parameters_are_normalized() {
        let store = SeriesStore::new(0, 0);
        assert_eq!(store.stride(), 1);
        assert_eq!(store.capacity(), 1);
    }

    #[test]
    fn summary_statistics() {
        let mut store = SeriesStore::new(1, 16);
        for (tick, v) in [(0, 0.5), (1, 0.2), (2, 0.8)] {
            store.record("e", tick, v);
        }
        let ring = store.get("e").unwrap();
        assert_eq!(ring.min(), Some((1, 0.2)));
        assert!((ring.mean().unwrap() - 0.5).abs() < 1e-12);
        assert!(store.get("missing").is_none());
        assert_eq!(store.names(), vec!["e"]);
    }

    #[test]
    fn nan_values_do_not_poison_min() {
        let mut store = SeriesStore::new(1, 8);
        store.record("x", 0, f64::NAN);
        store.record("x", 1, 2.0);
        assert_eq!(store.get("x").unwrap().min(), Some((1, 2.0)));
    }
}
