//! Measurement collectors for simulation experiments.
//!
//! [`Histogram`] — fixed-width bins with overflow tracking — is what the
//! experiments in this workspace need (the swarm snapshot's piece-count
//! distribution).

/// A fixed-width histogram over `[min, max)` with overflow/underflow bins.
///
/// # Example
///
/// ```
/// use bt_des::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// h.record(1.0);
/// h.record(3.0);
/// h.record(3.5);
/// h.record(42.0); // overflow
/// assert_eq!(h.bin_count(1), 2); // [2, 4)
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning
    /// `[min, max)`.
    ///
    /// Returns `None` if `bins == 0`, the bounds are not finite, or
    /// `min >= max`.
    #[must_use]
    pub fn new(min: f64, max: f64, bins: usize) -> Option<Self> {
        if bins == 0 || !min.is_finite() || !max.is_finite() || min >= max {
            return None;
        }
        Some(Histogram {
            min,
            max,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Records a sample. NaN counts as overflow (it is certainly not in
    /// any bin, and silently dropping samples would skew totals).
    pub fn record(&mut self, x: f64) {
        if x.is_nan() || x >= self.max {
            self.overflow += 1;
        } else if x < self.min {
            self.underflow += 1;
        } else {
            let width = (self.max - self.min) / self.bins.len() as f64;
            let idx = (((x - self.min) / width) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Number of bins.
    #[must_use]
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// Total samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for i in 0..10 {
            h.record(f64::from(i) + 0.5);
        }
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 1, "bin {i}");
        }
        assert_eq!(h.underflow, 0);
        assert_eq!(h.overflow, 0);
    }

    #[test]
    fn out_of_range_and_nan() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(-0.1);
        h.record(1.0); // max is exclusive
        h.record(f64::NAN);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn invalid_construction() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 0.0, 4).is_none());
        assert!(Histogram::new(0.0, f64::INFINITY, 4).is_none());
        assert!(Histogram::new(2.0, 2.0, 4).is_none());
    }

    #[test]
    fn bin_count_is_fixed() {
        let h = Histogram::new(0.0, 8.0, 4).unwrap();
        assert_eq!(h.n_bins(), 4);
    }
}
