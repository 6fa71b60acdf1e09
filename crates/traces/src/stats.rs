//! Aggregate statistics over trace collections.
//!
//! The per-trace view lives in [`crate::analyzer`]; this module summarizes
//! whole collections — the level at which a measurement study reports its
//! results (completion rates, download-time distributions, per-phase time
//! shares).

use serde::{Deserialize, Serialize};

use crate::analyzer::segment;
use crate::record::Trace;

/// Aggregate summary of a trace collection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionSummary {
    /// Number of traces.
    pub traces: usize,
    /// Traces whose client finished the download.
    pub completed: usize,
    /// Mean download duration over completed traces (seconds; NaN if none).
    pub mean_duration_secs: f64,
    /// Mean download rate over completed traces (bytes/sec; NaN if none).
    pub mean_rate: f64,
    /// Mean fraction of trace time spent in each phase
    /// (bootstrap, efficient, last), averaged over all traces.
    pub phase_shares: [f64; 3],
}

/// Summarizes a collection of traces.
///
/// # Example
///
/// ```
/// use bt_traces::generator::{generate, TraceScenario};
/// use bt_traces::stats::summarize;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let traces = generate(TraceScenario::Smooth, 3, 1)?;
/// let summary = summarize(&traces);
/// assert_eq!(summary.traces, 3);
/// assert!(summary.phase_shares[1] > 0.5, "smooth = mostly efficient");
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn summarize(traces: &[Trace]) -> CollectionSummary {
    let completed: Vec<&Trace> = traces.iter().filter(|t| t.completed).collect();
    let mean_duration_secs = if completed.is_empty() {
        f64::NAN
    } else {
        completed.iter().map(|t| t.duration()).sum::<f64>() / completed.len() as f64
    };
    let mean_rate = if completed.is_empty() {
        f64::NAN
    } else {
        completed.iter().map(|t| t.mean_rate()).sum::<f64>() / completed.len() as f64
    };
    let mut shares = [0.0; 3];
    let mut counted = 0usize;
    for trace in traces {
        let phases = segment(trace);
        let total = phases.bootstrap_secs + phases.efficient_secs + phases.last_secs;
        if total > 0.0 {
            shares[0] += phases.bootstrap_secs / total;
            shares[1] += phases.efficient_secs / total;
            shares[2] += phases.last_secs / total;
            counted += 1;
        }
    }
    if counted > 0 {
        for share in &mut shares {
            *share /= counted as f64;
        }
    }
    CollectionSummary {
        traces: traces.len(),
        completed: completed.len(),
        mean_duration_secs,
        mean_rate,
        phase_shares: shares,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceSample;

    fn trace(completed: bool, samples: Vec<(f64, u64, u32)>) -> Trace {
        Trace {
            client: "c".into(),
            swarm: "s".into(),
            piece_bytes: 100,
            pieces: 10,
            completed,
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
    fn summarize_counts_and_rates() {
        let traces = vec![
            trace(true, vec![(0.0, 0, 5), (10.0, 500, 5), (20.0, 1000, 5)]),
            trace(false, vec![(0.0, 0, 0), (10.0, 100, 0)]),
        ];
        let s = summarize(&traces);
        assert_eq!(s.traces, 2);
        assert_eq!(s.completed, 1);
        assert!((s.mean_duration_secs - 20.0).abs() < 1e-12);
        assert!((s.mean_rate - 50.0).abs() < 1e-12);
        let share_sum: f64 = s.phase_shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "{:?}", s.phase_shares);
    }

    #[test]
    fn summarize_empty_collection() {
        let s = summarize(&[]);
        assert_eq!(s.traces, 0);
        assert!(s.mean_duration_secs.is_nan());
        assert_eq!(s.phase_shares, [0.0; 3]);
    }
}
