//! Per-round telemetry: time-series recording and online phase
//! detection.
//!
//! A [`TelemetryRecorder`] attached to a [`Swarm`](crate::Swarm) turns the
//! point-in-time [`Snapshot`] into a first-class per-round time-series
//! layer:
//!
//! * every `stride`-th round it captures a [`TelemetrySample`] —
//!   population, replication entropy, the availability histogram,
//!   per-peer piece-count quantiles, and connection-slot utilization —
//!   streaming the full run as JSON lines;
//! * an online [`PhaseDetector`] per observer peer tags rounds as
//!   bootstrap / efficient / last-download using the §3 potential-set
//!   criteria ([`bt_model::Phase::classify`]) and emits each transition
//!   as a [`PhaseEvent`] through the stream and the `tracing` layer
//!   (target `bt_swarm::phase`).
//!
//! The JSON-lines stream is a sequence of [`TelemetryRecord`]s, one per
//! line: a leading `Meta`, then `Sample` / `Phase` records in round
//! order, written and read through [`bt_obs::records`]. Anomaly capture
//! lives in the swarm doctor ([`crate::monitors`]).

use std::io::Write;

use serde::{Deserialize, Serialize};

use bt_model::{DownloadState, Phase};

use crate::config::SwarmConfig;
use crate::snapshot::Snapshot;

/// Version of the telemetry stream schema.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// Run-level header of a telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryMeta {
    /// Stream schema version ([`TELEMETRY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Number of pieces `B`.
    pub pieces: u32,
    /// Connection cap `k`.
    pub max_connections: u32,
    /// Neighbor-set size `s`.
    pub neighbor_set_size: u32,
    /// RNG seed of the run.
    pub seed: u64,
    /// Sampling stride in rounds.
    pub stride: u64,
}

/// One per-round swarm-level sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySample {
    /// Round the sample was taken.
    pub round: u64,
    /// Leecher population.
    pub population: u64,
    /// Replication entropy `min(d)/max(d)` (§6), exactly the
    /// [`Snapshot::capture`] value.
    pub entropy: f64,
    /// Pieces currently held by nobody.
    pub extinct_pieces: u64,
    /// Availability histogram: `availability[r]` pieces are replicated
    /// exactly `r` times.
    pub availability: Vec<u64>,
    /// Piece-count quantiles over peers: min, p25, p50, p75, max.
    pub piece_quantiles: [u32; 5],
    /// Mean active-connection degree.
    pub mean_degree: f64,
    /// Connection-slot utilization: mean degree over the cap `k`.
    pub slot_utilization: f64,
}

impl TelemetrySample {
    /// Derives a sample from a snapshot.
    #[must_use]
    // bt-lint: allow(pub-unused) test oracle: the full-scan sample the incremental one is checked against
    pub fn from_snapshot(snapshot: &Snapshot, max_connections: u32) -> Self {
        let q = |fraction: f64| -> u32 {
            if snapshot.piece_counts.is_empty() {
                return 0;
            }
            let idx = ((snapshot.piece_counts.len() - 1) as f64 * fraction).round() as usize;
            snapshot.piece_counts.get(idx).copied().unwrap_or(0)
        };
        let mean_degree = snapshot.mean_degree();
        let slot_utilization = if max_connections == 0 {
            0.0
        } else {
            mean_degree / f64::from(max_connections)
        };
        TelemetrySample {
            round: snapshot.round,
            population: snapshot.population,
            entropy: snapshot.entropy,
            extinct_pieces: snapshot.extinct_pieces() as u64,
            availability: snapshot.availability.clone(),
            piece_quantiles: [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)],
            mean_degree,
            slot_utilization,
        }
    }
}

/// A phase transition of one observer peer, detected online.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseEvent {
    /// The observer peer.
    pub peer: u64,
    /// Round the peer entered the phase.
    pub round: u64,
    /// The phase entered.
    pub phase: Phase,
}

/// One line of the JSON-lines telemetry stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryRecord {
    /// Run-level header (first record of a stream).
    Meta(TelemetryMeta),
    /// A per-round swarm sample.
    Sample(TelemetrySample),
    /// An observer phase transition.
    Phase(PhaseEvent),
}

/// Measured phase boundaries of one observer, in absolute rounds,
/// reconstructed from its [`PhaseEvent`] stream. `btlab report` averages
/// these across completed observers and compares them against the
/// analytical [`bt_model::PhaseBoundaries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverBoundaries {
    /// The observer peer.
    pub peer: u64,
    /// Estimated join round (one before the first observation).
    pub join: u64,
    /// Round of the first transition out of bootstrap, if any.
    pub bootstrap_end: Option<u64>,
    /// Round of the first entry into the last-download phase (or
    /// completion when the peer finishes straight from trading).
    pub efficient_end: Option<u64>,
    /// Round the peer completed and departed.
    pub completion: Option<u64>,
}

impl ObserverBoundaries {
    /// Reconstructs boundaries from one peer's transitions, in stream
    /// order. Returns `None` on an empty slice.
    #[must_use]
    pub fn from_events(events: &[PhaseEvent]) -> Option<Self> {
        let first = events.first()?;
        let peer = first.peer;
        let join = first.round.saturating_sub(1);
        let bootstrap_end = events
            .iter()
            .find(|e| e.phase != Phase::Bootstrap)
            .map(|e| e.round);
        let completion = events
            .iter()
            .find(|e| e.phase == Phase::Done)
            .map(|e| e.round);
        let efficient_end = events
            .iter()
            .find(|e| e.phase == Phase::LastDownload)
            .map(|e| e.round)
            .or(completion);
        Some(ObserverBoundaries {
            peer,
            join,
            bootstrap_end,
            efficient_end,
            completion,
        })
    }

    /// Per-phase durations `[bootstrap, efficient, last]` in rounds since
    /// joining; `None` until the observer has completed.
    #[must_use]
    pub fn durations(&self) -> Option<[f64; 3]> {
        let completion = self.completion?;
        let bootstrap_end = self.bootstrap_end.unwrap_or(completion);
        let efficient_end = self.efficient_end.unwrap_or(completion);
        Some([
            (bootstrap_end - self.join) as f64,
            efficient_end.saturating_sub(bootstrap_end) as f64,
            completion.saturating_sub(efficient_end) as f64,
        ])
    }
}

/// Online phase classification of one observer peer against the §3
/// potential-set criteria.
///
/// Fed one `(pieces, potential, connections)` observation per round, the
/// detector maps it to the model state `(n, b, i)` and reports a
/// [`PhaseEvent`] whenever [`Phase::classify`] changes its answer.
#[derive(Debug, Clone)]
pub struct PhaseDetector {
    peer: u64,
    pieces: u32,
    current: Option<Phase>,
}

impl PhaseDetector {
    /// Creates a detector for observer `peer` in a file of `pieces`
    /// pieces.
    #[must_use]
    pub fn new(peer: u64, pieces: u32) -> Self {
        PhaseDetector {
            peer,
            pieces,
            current: None,
        }
    }

    /// The observed peer.
    #[must_use]
    pub fn peer(&self) -> u64 {
        self.peer
    }

    /// The phase last classified, if any observation was made.
    #[must_use]
    pub fn current(&self) -> Option<Phase> {
        self.current
    }

    /// Classifies one per-round observation; returns the transition event
    /// if the phase changed.
    pub fn observe(
        &mut self,
        round: u64,
        pieces_held: u32,
        potential: u32,
        connections: u32,
    ) -> Option<PhaseEvent> {
        let state = DownloadState::new(connections, pieces_held, potential);
        self.transition_to(Phase::classify(state, self.pieces), round)
    }

    /// Marks the peer as departed-on-completion (observers leave the
    /// swarm the round they finish, so they stop appearing in samples).
    pub fn complete(&mut self, round: u64) -> Option<PhaseEvent> {
        self.transition_to(Phase::Done, round)
    }

    fn transition_to(&mut self, phase: Phase, round: u64) -> Option<PhaseEvent> {
        if self.current == Some(phase) {
            return None;
        }
        self.current = Some(phase);
        Some(PhaseEvent {
            peer: self.peer,
            round,
            phase,
        })
    }
}

/// Construction options of a [`TelemetryRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryOptions {
    /// Sample every `stride`-th round (zero is normalized to 1). Phase
    /// detection stays per-round regardless.
    pub stride: u64,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions { stride: 1 }
    }
}

/// One observer peer's state in a round, as handed to the recorder by
/// the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverSample {
    /// The observer peer id.
    pub peer: u64,
    /// Pieces held.
    pub pieces: u32,
    /// Potential-set size.
    pub potential: u32,
    /// Active connections.
    pub connections: u32,
}

/// The per-round telemetry pipeline attached to a swarm via
/// [`Swarm::attach_telemetry`](crate::Swarm::attach_telemetry).
pub struct TelemetryRecorder {
    meta: Option<TelemetryMeta>,
    stride: u64,
    writer: Option<Box<dyn Write + Send>>,
    detectors: Vec<PhaseDetector>,
    phase_events: Vec<PhaseEvent>,
    samples: u64,
}

impl TelemetryRecorder {
    /// Creates a recorder that counts samples and detects phases; give
    /// it a stream with [`to_writer`](Self::to_writer).
    #[must_use]
    pub fn new(options: TelemetryOptions) -> Self {
        TelemetryRecorder {
            meta: None,
            stride: options.stride.max(1),
            writer: None,
            detectors: Vec::new(),
            phase_events: Vec::new(),
            samples: 0,
        }
    }

    /// Streams records to `writer`.
    #[must_use]
    pub fn to_writer(mut self, writer: Box<dyn Write + Send>) -> Self {
        self.writer = Some(writer);
        self
    }

    /// Binds the recorder to a run's configuration, emitting the stream
    /// header. Called by `Swarm::attach_telemetry`.
    pub fn bind(&mut self, config: &SwarmConfig) {
        if self.meta.is_some() {
            return;
        }
        let meta = TelemetryMeta {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            pieces: config.pieces,
            max_connections: config.max_connections,
            neighbor_set_size: config.neighbor_set_size,
            seed: config.seed,
            stride: self.stride,
        };
        self.write_record(&TelemetryRecord::Meta(meta.clone()));
        self.meta = Some(meta);
    }

    /// Records one round from a pre-built sample: feeds phase detectors
    /// every round and streams a sample on the stride.
    pub fn record_sample(&mut self, sample: &TelemetrySample, observers: &[ObserverSample]) {
        let Some(pieces) = self.meta.as_ref().map(|m| m.pieces) else {
            debug_assert!(false, "record_sample before bind");
            return;
        };
        let round = sample.round;

        // Online phase detection, every round.
        let mut events = Vec::new();
        for obs in observers {
            if !self.detectors.iter().any(|d| d.peer() == obs.peer) {
                self.detectors.push(PhaseDetector::new(obs.peer, pieces));
            }
            if let Some(detector) = self.detectors.iter_mut().find(|d| d.peer() == obs.peer) {
                events.extend(detector.observe(round, obs.pieces, obs.potential, obs.connections));
            }
        }
        // Observers that vanished from the sample departed on completion.
        for detector in &mut self.detectors {
            if detector.current() != Some(Phase::Done)
                && !observers.iter().any(|o| o.peer == detector.peer())
            {
                events.extend(detector.complete(round));
            }
        }
        for event in events {
            self.emit_phase(event);
        }

        // Sampling on the stride.
        if round.is_multiple_of(self.stride) {
            self.write_record(&TelemetryRecord::Sample(sample.clone()));
            self.samples += 1;
        }
    }

    /// Flushes the stream writer; called when the run finishes.
    pub fn finish(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            if let Err(e) = writer.flush() {
                tracing::warn!(target: "bt_swarm::telemetry", error = e.to_string(); "telemetry flush failed");
            }
        }
    }

    /// All phase transitions detected so far, in emission order.
    #[must_use]
    // bt-lint: allow(pub-unused) integration-test access: the telemetry suite reads the detected transitions
    pub fn phase_events(&self) -> &[PhaseEvent] {
        &self.phase_events
    }

    /// Number of samples emitted (after the stride).
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The stream header, once bound to a run.
    #[must_use]
    pub fn meta(&self) -> Option<&TelemetryMeta> {
        self.meta.as_ref()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn emit_phase(&mut self, event: PhaseEvent) {
        tracing::info!(
            target: "bt_swarm::phase",
            peer = event.peer,
            round = event.round,
            phase = event.phase.to_string();
            "observer phase transition"
        );
        self.write_record(&TelemetryRecord::Phase(event));
        self.phase_events.push(event);
    }

    /// Writes one record to the stream; a failing writer is dropped
    /// (with a warning) rather than aborting the simulation.
    fn write_record(&mut self, record: &TelemetryRecord) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        if let Err(e) = bt_obs::records::write_line(writer, record) {
            tracing::warn!(target: "bt_swarm::telemetry", error = e.to_string(); "telemetry write failed; disabling stream");
            self.writer = None;
        }
    }
}

impl std::fmt::Debug for TelemetryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRecorder")
            .field("samples", &self.samples)
            .field("phase_events", &self.phase_events.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_walks_the_three_phases() {
        let mut d = PhaseDetector::new(3, 10);
        // Fresh peer: bootstrap.
        let e = d.observe(1, 0, 0, 0).unwrap();
        assert_eq!(e.phase, Phase::Bootstrap);
        assert_eq!(e.round, 1);
        // Still bootstrap: no event.
        assert!(d.observe(2, 1, 2, 0).is_none());
        // Trading: efficient.
        assert_eq!(d.observe(3, 2, 3, 1).unwrap().phase, Phase::Efficient);
        // Stalled late: last-download.
        assert_eq!(d.observe(9, 8, 0, 0).unwrap().phase, Phase::LastDownload);
        // Departure: done.
        assert_eq!(d.complete(12).unwrap().phase, Phase::Done);
        assert!(d.complete(13).is_none(), "done is absorbing");
        assert_eq!(d.current(), Some(Phase::Done));
    }

    #[test]
    fn detector_maps_connections_into_stock() {
        let mut d = PhaseDetector::new(0, 10);
        // One piece, one connection: stock 2 > 1, efficient.
        assert_eq!(d.observe(1, 1, 0, 1).unwrap().phase, Phase::Efficient);
    }

    #[test]
    fn boundaries_from_full_walk() {
        let ev = |round, phase| PhaseEvent {
            peer: 2,
            round,
            phase,
        };
        let events = [
            ev(1, Phase::Bootstrap),
            ev(4, Phase::Efficient),
            ev(40, Phase::LastDownload),
            ev(46, Phase::Done),
        ];
        let b = ObserverBoundaries::from_events(&events).unwrap();
        assert_eq!(b.peer, 2);
        assert_eq!(b.join, 0);
        assert_eq!(b.bootstrap_end, Some(4));
        assert_eq!(b.efficient_end, Some(40));
        assert_eq!(b.completion, Some(46));
        assert_eq!(b.durations(), Some([4.0, 36.0, 6.0]));

        // A peer that finishes straight from trading has no last phase.
        let events = [
            ev(3, Phase::Bootstrap),
            ev(5, Phase::Efficient),
            ev(20, Phase::Done),
        ];
        let b = ObserverBoundaries::from_events(&events).unwrap();
        assert_eq!(b.join, 2);
        assert_eq!(b.efficient_end, Some(20));
        assert_eq!(b.durations(), Some([3.0, 15.0, 0.0]));

        // An incomplete observer has no durations yet.
        let events = [ev(1, Phase::Bootstrap)];
        let b = ObserverBoundaries::from_events(&events).unwrap();
        assert_eq!(b.completion, None);
        assert_eq!(b.durations(), None);
        assert!(ObserverBoundaries::from_events(&[]).is_none());
    }
}
