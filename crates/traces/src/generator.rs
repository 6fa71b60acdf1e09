//! Synthetic trace generation.
//!
//! Drives a [`bt_swarm`] swarm with instrumented observer peers and turns
//! their per-round logs into [`Trace`]s, adding sub-piece measurement
//! jitter (a real client reports partially downloaded pieces, so the byte
//! counter moves between piece completions).
//!
//! Three scenario presets recreate the archetypes the paper's Fig. 2
//! exhibits:
//!
//! * [`TraceScenario::Smooth`] — a large peer-set size keeps the potential
//!   set well above `k` throughout, giving a smooth download;
//! * [`TraceScenario::LastPhase`] — a small peer-set size makes the
//!   potential set collapse near the end (significant last download
//!   phase);
//! * [`TraceScenario::BootstrapStall`] — a skewed swarm with
//!   replication-weighted first pieces leaves newcomers holding untradable
//!   pieces (significant bootstrap phase).

use bt_markov::SeedStream;
use bt_swarm::config::{BootstrapInjection, InitialPieces};
use bt_swarm::{Swarm, SwarmConfig};
use rand::Rng;

use crate::record::{Trace, TraceSample};
use crate::Result;

/// Seconds of wall-clock time one simulation round represents in generated
/// traces (a piece-exchange period; arbitrary but fixed).
pub const SECONDS_PER_ROUND: f64 = 10.0;

/// The archetype a generated collection should exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceScenario {
    /// Smooth download without a predominant bootstrap or last phase
    /// (Fig. 2(a)/(b)).
    Smooth,
    /// Significant last download phase (Fig. 2(c)/(d)).
    LastPhase,
    /// Significant bootstrap phase (Fig. 2(e)/(f)).
    BootstrapStall,
}

impl TraceScenario {
    /// The swarm configuration that produces this archetype.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors (none for these
    /// constants; kept fallible for robustness).
    pub fn config(self, observers: u32, seed: u64) -> Result<SwarmConfig> {
        let config = match self {
            TraceScenario::Smooth => SwarmConfig::builder()
                .pieces(120)
                .max_connections(7)
                .neighbor_set_size(40)
                .arrival_rate(2.0)
                .initial_leechers(50)
                .initial_pieces(InitialPieces::Random { count: 30 })
                .max_rounds(600)
                .observers(observers)
                .seed(seed)
                .build()?,
            TraceScenario::LastPhase => SwarmConfig::builder()
                .pieces(120)
                .max_connections(7)
                .neighbor_set_size(6)
                .arrival_rate(1.0)
                .initial_leechers(25)
                .initial_pieces(InitialPieces::Random { count: 30 })
                .seed_uploads_per_round(1)
                .join_eviction(false)
                .max_rounds(1_200)
                .observers(observers)
                .seed(seed)
                .build()?,
            TraceScenario::BootstrapStall => SwarmConfig::builder()
                .pieces(120)
                .max_connections(7)
                .neighbor_set_size(4)
                .arrival_rate(0.05)
                .initial_leechers(100)
                .initial_pieces(InitialPieces::Skewed {
                    count: 30,
                    strength: 0.3,
                })
                .bootstrap(BootstrapInjection::Weighted { seed_weight: 0.01 })
                .seed_uploads_per_round(1)
                .observe_from(100)
                .max_rounds(1_500)
                .observers(observers)
                .seed(seed)
                .build()?,
        };
        Ok(config)
    }

    /// Human-readable scenario name (used in trace metadata).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceScenario::Smooth => "smooth",
            TraceScenario::LastPhase => "last-phase",
            TraceScenario::BootstrapStall => "bootstrap-stall",
        }
    }
}

/// Generates `observers` traces under the given scenario.
///
/// The traces come from the swarm's observer peers; incomplete downloads
/// (observers still running when the simulation ends) are included with
/// `completed = false`, since the bootstrap-stall archetype is precisely
/// about clients that barely progress.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn generate(scenario: TraceScenario, observers: u32, seed: u64) -> Result<Vec<Trace>> {
    let config = scenario.config(observers, seed)?;
    let piece_bytes = config.piece_bytes;
    let pieces = config.pieces;
    let metrics = Swarm::new(config).run();
    let mut jitter_rng = SeedStream::new(seed).rng("trace-jitter", 0);
    let traces = metrics
        .observers
        .iter()
        .map(|log| {
            // Peers depart the round they complete, before metric sampling,
            // so completion is the round the depart stage noted on the log.
            let completed = log.completed_round.is_some();
            let start_round = log.rounds.first().copied().unwrap_or(0);
            let samples = log
                .rounds
                .iter()
                .zip(&log.pieces)
                .zip(&log.potential)
                .map(|((&round, &held), &potential)| {
                    // Sub-piece jitter: a real client reports bytes of
                    // partially downloaded pieces. Only while incomplete
                    // and actively connected can bytes run ahead.
                    let base = u64::from(held) * piece_bytes;
                    let jitter = if held < pieces && potential > 0 {
                        jitter_rng.gen_range(0..piece_bytes / 2)
                    } else {
                        0
                    };
                    TraceSample {
                        t: (round - start_round) as f64 * SECONDS_PER_ROUND,
                        bytes: (base + jitter).min(u64::from(pieces) * piece_bytes),
                        potential,
                    }
                })
                .collect::<Vec<_>>();
            // Enforce monotone bytes despite jitter.
            let mut samples = samples;
            let mut high = 0u64;
            for s in &mut samples {
                high = high.max(s.bytes);
                s.bytes = high;
            }
            // Close a completed trace with a full-file sample at the
            // completion round (the client logs its own finish).
            if let Some(completed_round) = log.completed_round {
                samples.push(TraceSample {
                    t: (completed_round.max(start_round) - start_round) as f64 * SECONDS_PER_ROUND,
                    bytes: u64::from(pieces) * piece_bytes,
                    potential: 0,
                });
            }
            Trace {
                client: format!("{}-{}", scenario.name(), log.id),
                swarm: scenario.name().to_string(),
                piece_bytes,
                pieces,
                completed,
                samples,
            }
        })
        .collect();
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_generate_valid_traces() {
        for scenario in [
            TraceScenario::Smooth,
            TraceScenario::LastPhase,
            TraceScenario::BootstrapStall,
        ] {
            let traces = generate(scenario, 3, 1).unwrap();
            assert_eq!(traces.len(), 3, "{scenario:?}");
            for t in &traces {
                t.validate().unwrap_or_else(|e| panic!("{scenario:?}: {e}"));
                assert!(!t.samples.is_empty());
                assert_eq!(t.swarm, scenario.name());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(TraceScenario::Smooth, 2, 9).unwrap();
        let b = generate(TraceScenario::Smooth, 2, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_vary_output() {
        let a = generate(TraceScenario::Smooth, 2, 1).unwrap();
        let b = generate(TraceScenario::Smooth, 2, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn smooth_scenario_completes_observers() {
        let traces = generate(TraceScenario::Smooth, 4, 3).unwrap();
        let completed = traces.iter().filter(|t| t.completed).count();
        assert!(
            completed >= 3,
            "smooth swarm should complete most observers, got {completed}/4"
        );
    }

    #[test]
    fn jitter_never_breaks_piece_floor() {
        let traces = generate(TraceScenario::Smooth, 2, 5).unwrap();
        for t in &traces {
            for (s, held) in t.samples.iter().zip(t.pieces_series()) {
                // Reported bytes are at least the completed pieces and less
                // than one piece ahead.
                assert!(s.bytes >= u64::from(held) * t.piece_bytes - t.piece_bytes.min(s.bytes));
            }
        }
    }

    #[test]
    fn scenario_names_are_distinct() {
        let names: std::collections::HashSet<&str> = [
            TraceScenario::Smooth.name(),
            TraceScenario::LastPhase.name(),
            TraceScenario::BootstrapStall.name(),
        ]
        .into();
        assert_eq!(names.len(), 3);
    }
}
