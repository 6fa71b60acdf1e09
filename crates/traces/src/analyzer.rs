//! Phase segmentation of traces.
//!
//! Recovers the paper's three download phases from the two logged series
//! alone (cumulative bytes and potential-set size), mirroring how the
//! phases manifest in Fig. 2:
//!
//! * **bootstrap** — the prefix before the client holds two pieces (it is
//!   still acquiring, or stuck holding, its first tradable piece);
//! * **last download** — the suffix during which the potential set never
//!   exceeds one again (progress only via new peers trickling in);
//! * **efficient** — everything in between.

use serde::{Deserialize, Serialize};

use crate::record::Trace;

/// Result of segmenting a trace into phases.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Number of samples in the trace.
    pub total_samples: usize,
    /// Samples spent in the bootstrap phase.
    pub bootstrap_samples: usize,
    /// Samples spent in the efficient download phase.
    pub efficient_samples: usize,
    /// Samples spent in the last download phase.
    pub last_samples: usize,
    /// Seconds spent in the bootstrap phase.
    pub bootstrap_secs: f64,
    /// Seconds spent in the efficient phase.
    pub efficient_secs: f64,
    /// Seconds spent in the last download phase.
    pub last_secs: f64,
    /// Mean download rate during the efficient phase (bytes/sec; 0 if the
    /// phase is empty).
    pub efficient_rate: f64,
}

impl PhaseSummary {
    /// Fraction of trace time spent in the bootstrap phase (0 for empty
    /// traces).
    #[must_use]
    pub fn bootstrap_fraction(&self) -> f64 {
        let total = self.bootstrap_secs + self.efficient_secs + self.last_secs;
        if total == 0.0 {
            0.0
        } else {
            self.bootstrap_secs / total
        }
    }

    /// Fraction of trace time spent in the last download phase.
    #[must_use]
    pub fn last_fraction(&self) -> f64 {
        let total = self.bootstrap_secs + self.efficient_secs + self.last_secs;
        if total == 0.0 {
            0.0
        } else {
            self.last_secs / total
        }
    }
}

/// Segments a trace into the three phases.
///
/// # Example
///
/// ```
/// use bt_traces::analyzer::segment;
/// use bt_traces::{Trace, TraceSample};
///
/// let trace = Trace {
///     client: "c".into(),
///     swarm: "s".into(),
///     piece_bytes: 100,
///     pieces: 4,
///     completed: true,
///     samples: vec![
///         TraceSample { t: 0.0, bytes: 0, potential: 0 },   // bootstrap
///         TraceSample { t: 10.0, bytes: 100, potential: 0 },// bootstrap
///         TraceSample { t: 20.0, bytes: 200, potential: 5 },// efficient
///         TraceSample { t: 30.0, bytes: 300, potential: 4 },// efficient
///         TraceSample { t: 40.0, bytes: 300, potential: 0 },// last
///         TraceSample { t: 50.0, bytes: 400, potential: 1 },// last
///     ],
/// };
/// let phases = segment(&trace);
/// assert_eq!(phases.bootstrap_samples, 2);
/// assert_eq!(phases.efficient_samples, 2);
/// assert_eq!(phases.last_samples, 2);
/// ```
#[must_use]
pub fn segment(trace: &Trace) -> PhaseSummary {
    let n = trace.samples.len();
    if n == 0 {
        return PhaseSummary {
            total_samples: 0,
            bootstrap_samples: 0,
            efficient_samples: 0,
            last_samples: 0,
            bootstrap_secs: 0.0,
            efficient_secs: 0.0,
            last_secs: 0.0,
            efficient_rate: 0.0,
        };
    }
    let pieces = trace.pieces_series();
    // Bootstrap: samples before the client holds its second piece.
    let bootstrap_end = pieces.iter().position(|&p| p >= 2).unwrap_or(n);
    // Last phase: the suffix (after bootstrap) in which the potential set
    // never exceeds 1 again.
    let mut last_start = n;
    while last_start > bootstrap_end && trace.samples[last_start - 1].potential <= 1 {
        last_start -= 1;
    }
    // A trailing completed sample with potential 0 is the natural end of a
    // finished download, not a last phase; require the stall to span more
    // than one sample to count.
    if n - last_start <= 1 {
        last_start = n;
    }
    let span = |from: usize, to: usize| -> f64 {
        if from >= to {
            0.0
        } else {
            let start_t = trace.samples[from].t;
            let end_t = if to < n {
                trace.samples[to].t
            } else {
                trace.samples[n - 1].t
            };
            (end_t - start_t).max(0.0)
        }
    };
    let efficient_rate = if bootstrap_end < last_start {
        let d_bytes = trace.samples[last_start - 1]
            .bytes
            .saturating_sub(trace.samples[bootstrap_end].bytes);
        let d_t = trace.samples[last_start - 1].t - trace.samples[bootstrap_end].t;
        if d_t > 0.0 {
            d_bytes as f64 / d_t
        } else {
            0.0
        }
    } else {
        0.0
    };
    PhaseSummary {
        total_samples: n,
        bootstrap_samples: bootstrap_end,
        efficient_samples: last_start - bootstrap_end,
        last_samples: n - last_start,
        bootstrap_secs: span(0, bootstrap_end),
        efficient_secs: span(bootstrap_end, last_start),
        last_secs: span(last_start, n),
        efficient_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceSample;

    fn trace(samples: Vec<(f64, u64, u32)>) -> Trace {
        Trace {
            client: "c".into(),
            swarm: "s".into(),
            piece_bytes: 100,
            pieces: 10,
            completed: false,
            samples: samples
                .into_iter()
                .map(|(t, bytes, potential)| TraceSample {
                    t,
                    bytes,
                    potential,
                })
                .collect(),
        }
    }

    #[test]
    fn empty_trace_all_zero() {
        let p = segment(&trace(vec![]));
        assert_eq!(p.total_samples, 0);
        assert_eq!(p.bootstrap_fraction(), 0.0);
        assert_eq!(p.last_fraction(), 0.0);
    }

    #[test]
    fn smooth_trace_is_mostly_efficient() {
        let samples: Vec<(f64, u64, u32)> = (0..10)
            .map(|i| (f64::from(i) * 10.0, u64::try_from(i).unwrap() * 100, 8))
            .collect();
        let p = segment(&trace(samples));
        assert!(p.efficient_samples >= 7, "{p:?}");
        assert_eq!(p.last_samples, 0);
        assert!(p.efficient_rate > 0.0);
    }

    #[test]
    fn long_bootstrap_detected() {
        let mut samples = vec![(0.0, 0, 0)];
        for i in 1..8 {
            samples.push((f64::from(i) * 10.0, 100, 0)); // stuck at 1 piece
        }
        for i in 8..12 {
            samples.push((f64::from(i) * 10.0, u64::try_from(i - 6).unwrap() * 100, 5));
        }
        let p = segment(&trace(samples));
        assert!(p.bootstrap_samples >= 8, "{p:?}");
        assert!(p.bootstrap_fraction() >= 0.5, "{p:?}");
        assert!(p.last_fraction() < 0.5);
    }

    #[test]
    fn long_last_phase_detected() {
        let mut samples = Vec::new();
        for i in 0..5 {
            samples.push((f64::from(i) * 10.0, u64::try_from(i).unwrap() * 200, 6));
        }
        for i in 5..15 {
            samples.push((f64::from(i) * 10.0, 800 + u64::try_from(i).unwrap() * 10, 1));
        }
        let p = segment(&trace(samples));
        assert!(p.last_samples >= 9, "{p:?}");
        assert!(p.last_fraction() >= 0.5, "{p:?}");
    }

    #[test]
    fn single_trailing_zero_not_a_last_phase() {
        let samples = vec![
            (0.0, 0, 0),
            (10.0, 200, 5),
            (20.0, 500, 5),
            (30.0, 1000, 0), // finished, potential drops — not a stall
        ];
        let p = segment(&trace(samples));
        assert_eq!(p.last_samples, 0, "{p:?}");
    }

    #[test]
    fn fractions_sum_to_one_for_nonempty() {
        let samples: Vec<(f64, u64, u32)> = (0..20)
            .map(|i| {
                (
                    f64::from(i),
                    u64::try_from(i).unwrap() * 50,
                    if i < 15 { 4 } else { 1 },
                )
            })
            .collect();
        let p = segment(&trace(samples));
        let total = p.bootstrap_fraction()
            + p.last_fraction()
            + p.efficient_secs / (p.bootstrap_secs + p.efficient_secs + p.last_secs);
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_counts_partition() {
        let samples: Vec<(f64, u64, u32)> = (0..30)
            .map(|i| (f64::from(i), u64::try_from(i).unwrap() * 40, 3))
            .collect();
        let p = segment(&trace(samples));
        assert_eq!(
            p.bootstrap_samples + p.efficient_samples + p.last_samples,
            p.total_samples
        );
    }
}
