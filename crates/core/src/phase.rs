//! The three download phases (§3.2) and state classification.

use serde::{Deserialize, Serialize};

use crate::state::DownloadState;

/// The phase of the download process a state belongs to.
///
/// * [`Phase::Bootstrap`] — the peer is acquiring, or holding untradable,
///   its first piece (`b + n ≤ 1`); progress is governed by `α`.
/// * [`Phase::Efficient`] — the potential set is non-empty (or connections
///   are active) and pieces flow at rate `≈ n`.
/// * [`Phase::LastDownload`] — the potential set has emptied after real
///   progress (`b + n > 1`, `i = 0`, `n = 0`); progress is governed by `γ`.
/// * [`Phase::Done`] — the absorbing state `(0, B, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Acquiring a tradable first piece.
    Bootstrap,
    /// Steady piece exchange with a non-empty potential set.
    Efficient,
    /// Waiting for final pieces with an empty potential set.
    LastDownload,
    /// Download complete.
    Done,
}

impl Phase {
    /// Classifies a state for a file of `pieces` pieces.
    ///
    /// # Example
    ///
    /// ```
    /// use bt_model::{DownloadState, Phase};
    ///
    /// assert_eq!(Phase::classify(DownloadState::INITIAL, 200), Phase::Bootstrap);
    /// assert_eq!(Phase::classify(DownloadState::new(3, 50, 12), 200), Phase::Efficient);
    /// assert_eq!(Phase::classify(DownloadState::new(0, 198, 0), 200), Phase::LastDownload);
    /// assert_eq!(Phase::classify(DownloadState::absorbed(200), 200), Phase::Done);
    /// ```
    #[must_use]
    pub fn classify(state: DownloadState, pieces: u32) -> Phase {
        if state.is_absorbed(pieces) {
            Phase::Done
        } else if state.stock() <= 1 {
            Phase::Bootstrap
        } else if state.i == 0 && state.n == 0 {
            Phase::LastDownload
        } else {
            Phase::Efficient
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Phase::Bootstrap => "bootstrap",
            Phase::Efficient => "efficient",
            Phase::LastDownload => "last-download",
            Phase::Done => "done",
        };
        f.write_str(name)
    }
}

/// Per-phase step counts accumulated over a trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSojourns {
    /// Steps spent in the bootstrap phase.
    pub bootstrap: u64,
    /// Steps spent in the efficient download phase.
    pub efficient: u64,
    /// Steps spent in the last download phase.
    pub last_download: u64,
}

impl PhaseSojourns {
    /// Records one step spent in `phase` (steps in [`Phase::Done`] are not
    /// counted).
    pub fn record(&mut self, phase: Phase) {
        match phase {
            Phase::Bootstrap => self.bootstrap += 1,
            Phase::Efficient => self.efficient += 1,
            Phase::LastDownload => self.last_download += 1,
            Phase::Done => {}
        }
    }

    /// Total counted steps.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bootstrap + self.efficient + self.last_download
    }
}

/// Cumulative phase-boundary predictions for an average peer, in rounds
/// from joining: the rounds at which the bootstrap phase ends, the
/// efficient phase ends, and the download completes.
///
/// Built from a [`crate::evolution::Timeline`]'s mean per-phase sojourns,
/// this is the analytical series `btlab report` compares measured
/// observer boundaries against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseBoundaries {
    /// Mean round at which the bootstrap phase ends.
    pub bootstrap_end: f64,
    /// Mean round at which the efficient phase ends.
    pub efficient_end: f64,
    /// Mean round at which the download completes.
    pub completion: f64,
}

impl PhaseBoundaries {
    /// Accumulates mean per-phase sojourns (bootstrap, efficient, last
    /// download — the layout of `Timeline::mean_sojourns`) into
    /// cumulative boundaries.
    #[must_use]
    pub fn from_mean_sojourns(sojourns: [f64; 3]) -> Self {
        let bootstrap_end = sojourns[0];
        let efficient_end = bootstrap_end + sojourns[1];
        PhaseBoundaries {
            bootstrap_end,
            efficient_end,
            completion: efficient_end + sojourns[2],
        }
    }

    /// The per-phase durations `[bootstrap, efficient, last]` implied by
    /// the boundaries.
    #[must_use]
    pub fn durations(&self) -> [f64; 3] {
        [
            self.bootstrap_end,
            self.efficient_end - self.bootstrap_end,
            self.completion - self.efficient_end,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_bootstrap() {
        assert_eq!(
            Phase::classify(DownloadState::INITIAL, 10),
            Phase::Bootstrap
        );
        assert_eq!(
            Phase::classify(DownloadState::new(0, 1, 0), 10),
            Phase::Bootstrap
        );
        // One piece plus an untraded potential peer is still bootstrap.
        assert_eq!(
            Phase::classify(DownloadState::new(0, 1, 3), 10),
            Phase::Bootstrap
        );
    }

    #[test]
    fn trading_states_are_efficient() {
        assert_eq!(
            Phase::classify(DownloadState::new(1, 1, 2), 10),
            Phase::Efficient
        );
        assert_eq!(
            Phase::classify(DownloadState::new(0, 5, 1), 10),
            Phase::Efficient
        );
        // Connections still active even with empty potential set: pieces
        // are in flight, so the peer is not stalled.
        assert_eq!(
            Phase::classify(DownloadState::new(2, 5, 0), 10),
            Phase::Efficient
        );
    }

    #[test]
    fn stalled_late_states_are_last_download() {
        assert_eq!(
            Phase::classify(DownloadState::new(0, 9, 0), 10),
            Phase::LastDownload
        );
        assert_eq!(
            Phase::classify(DownloadState::new(0, 2, 0), 10),
            Phase::LastDownload
        );
    }

    #[test]
    fn absorbed_is_done() {
        assert_eq!(
            Phase::classify(DownloadState::absorbed(10), 10),
            Phase::Done
        );
    }

    #[test]
    fn sojourns_accumulate() {
        let mut s = PhaseSojourns::default();
        s.record(Phase::Bootstrap);
        s.record(Phase::Bootstrap);
        s.record(Phase::Efficient);
        s.record(Phase::LastDownload);
        s.record(Phase::Done); // not counted
        assert_eq!(s.bootstrap, 2);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn boundaries_accumulate_and_invert() {
        let b = PhaseBoundaries::from_mean_sojourns([3.0, 40.0, 7.0]);
        assert_eq!(b.bootstrap_end, 3.0);
        assert_eq!(b.efficient_end, 43.0);
        assert_eq!(b.completion, 50.0);
        assert_eq!(b.durations(), [3.0, 40.0, 7.0]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Phase::Bootstrap.to_string(), "bootstrap");
        assert_eq!(Phase::LastDownload.to_string(), "last-download");
    }
}
