//! The swarm doctor: built-in invariant monitors, sampling harness, and
//! diagnosis-bundle emission.
//!
//! The generic machinery ([`bt_obs::Monitor`], [`bt_obs::MonitorSet`],
//! [`bt_obs::DiagnosisBundle`]) lives in `bt-obs`; this module supplies
//! the swarm-specific half:
//!
//! * [`MonitorSample`] — the state slice captured at the sampling
//!   cadence: audit tallies, piece totals, degrees, the replication
//!   index next to its from-scratch oracle, and per-observer phases;
//! * the built-in monitors — [`PieceConservation`],
//!   [`ReplicationOracle`], [`EntropyCollapse`] (one-club detection per
//!   Zhu & Hajek, arXiv 1110.2753), [`PhaseMonotonic`], and
//!   [`SlotBalance`], plus the opt-in [`ObserverStall`];
//! * [`SwarmDoctor`] — the harness the engine drives: a bounded ring of
//!   recent checks (`flight.json`), a trailing telemetry window, and the
//!   bundle writer that captures forensic context the moment a check
//!   fails;
//! * [`FaultSpec`] — seeded fault injection that deliberately corrupts
//!   the swarm mid-run, proving the monitors fire (and giving
//!   `btlab doctor --inject-fault` its demo).
//!
//! Everything here reads state and makes **zero RNG calls**: attaching a
//! doctor leaves a same-seed run byte-identical (locked in by
//! `crates/swarm/tests/determinism.rs`).

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use bt_model::{DownloadState, Phase};
use bt_obs::{DiagnosisBundle, Monitor, MonitorReport, MonitorSet, Violation};

use crate::audit::SwarmAudit;
use crate::engine::SwarmCore;
use crate::selection::replication_counts;
use crate::telemetry::TelemetrySample;

/// One observer peer's state inside a [`MonitorSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverPhase {
    /// Observer peer sequence number.
    pub peer: u64,
    /// Pieces the observer holds.
    pub pieces: u32,
    /// Phase the §3 criteria classify it into right now.
    pub phase: Phase,
}

/// The state slice the monitors judge, captured once per sampled round.
///
/// Capturing is a read-only scan — O(population) plus one
/// [`replication_counts`] rebuild for the oracle — and makes no RNG
/// calls.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSample {
    /// Round the sample was taken.
    pub round: u64,
    /// Leecher population.
    pub population: u64,
    /// Number of pieces `B`.
    pub pieces: u32,
    /// Connection cap `k`.
    pub max_connections: u32,
    /// Total pieces held across all alive peers.
    pub held_total: u64,
    /// Sum of active-connection list lengths (connection endpoints).
    pub degree_sum: u64,
    /// Largest single connection list.
    pub max_degree: u64,
    /// The audit tallies at capture time.
    pub audit: SwarmAudit,
    /// Replication entropy `min(d)/max(d)`.
    pub entropy: f64,
    /// The incrementally maintained replication counts.
    pub replication: Vec<u64>,
    /// The from-scratch rebuild of the same counts (the oracle).
    pub oracle: Vec<u64>,
    /// Observer peers currently alive, with their classified phases.
    pub observers: Vec<ObserverPhase>,
}

impl MonitorSample {
    /// Captures a sample from the core.
    #[must_use]
    pub(crate) fn capture(core: &SwarmCore) -> MonitorSample {
        let mut held_total = 0u64;
        let mut degree_sum = 0u64;
        let mut max_degree = 0u64;
        let mut observers = Vec::new();
        for &id in core.tracker.peers() {
            let peer = core.store.peer(id);
            let pieces_held = core.store.have(id.into()).count();
            held_total += u64::from(pieces_held);
            let degree = peer.connections.len() as u64;
            degree_sum += degree;
            max_degree = max_degree.max(degree);
            if core.config.observes(id.seq()) {
                let connections = peer.connections.len() as u32;
                let potential = core.potential_of(peer);
                let state = DownloadState::new(connections, pieces_held, potential);
                observers.push(ObserverPhase {
                    peer: id.seq(),
                    pieces: pieces_held,
                    phase: Phase::classify(state, core.config.pieces),
                });
            }
        }
        let oracle = replication_counts(
            core.config.pieces,
            core.tracker
                .peers()
                .iter()
                .map(|&id| core.store.have(id.into())),
        );
        MonitorSample {
            round: core.round,
            population: core.tracker.len() as u64,
            pieces: core.config.pieces,
            max_connections: core.config.max_connections,
            held_total,
            degree_sum,
            max_degree,
            audit: core.audit,
            entropy: core.replication.entropy(),
            replication: core.replication.counts().to_vec(),
            oracle,
            observers,
        }
    }
}

fn violation(monitor: &'static str, sample: &MonitorSample, detail: String) -> Violation {
    Violation {
        monitor: monitor.to_string(),
        round: sample.round,
        detail,
        subjects: Vec::new(),
    }
}

/// Pieces held must equal pieces granted minus pieces carried away —
/// the audit identity every legitimate mutation path preserves. A piece
/// that appears in a bitfield without passing through
/// [`SwarmCore::acquire_piece`] / [`SwarmCore::receive_block`] (or
/// vanishes without a departure) breaks it.
#[derive(Debug, Default)]
pub struct PieceConservation;

impl Monitor<MonitorSample> for PieceConservation {
    fn name(&self) -> &'static str {
        "piece-conservation"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let expected = sample.audit.expected_held();
        if sample.held_total == expected {
            return Vec::new();
        }
        vec![violation(
            self.name(),
            sample,
            format!(
                "peers hold {} pieces but the audit accounts for {} \
                 (acquired {} − departed {})",
                sample.held_total,
                expected,
                sample.audit.pieces_acquired,
                sample.audit.pieces_departed
            ),
        )]
    }
}

/// The incrementally maintained [`crate::ReplicationIndex`] must agree
/// with a from-scratch rebuild over all alive bitfields (its
/// property-test oracle, checked continuously at runtime).
#[derive(Debug, Default)]
pub struct ReplicationOracle;

impl Monitor<MonitorSample> for ReplicationOracle {
    fn name(&self) -> &'static str {
        "replication-oracle"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        if sample.replication == sample.oracle {
            return Vec::new();
        }
        let divergent: Vec<u64> = sample
            .replication
            .iter()
            .zip(&sample.oracle)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(p, _)| p as u64)
            .take(8)
            .collect();
        let first = divergent.first().copied().unwrap_or(0) as usize;
        let mut v = violation(
            self.name(),
            sample,
            format!(
                "replication index diverged from the rebuild on {} piece(s); \
                 first: piece {} has index {} vs oracle {}",
                sample
                    .replication
                    .iter()
                    .zip(&sample.oracle)
                    .filter(|(a, b)| a != b)
                    .count(),
                first,
                sample.replication.get(first).copied().unwrap_or(0),
                sample.oracle.get(first).copied().unwrap_or(0),
            ),
        );
        v.subjects = divergent;
        vec![v]
    }
}

/// Entropy floor / one-club detection (Zhu & Hajek, arXiv 1110.2753):
/// once the swarm has been healthy, replication entropy `min(d)/max(d)`
/// dropping below the floor with a non-trivial population means
/// availability mass has collapsed onto one piece set. Fires once per
/// collapse episode, re-arming when entropy recovers.
#[derive(Debug)]
pub struct EntropyCollapse {
    /// Entropy below this value counts as collapsed.
    pub floor: f64,
    /// Populations below this are ignored (endgame noise).
    pub min_population: u64,
    seen_healthy: bool,
    in_violation: bool,
}

impl EntropyCollapse {
    /// A detector with the given floor and population threshold.
    #[must_use]
    pub fn new(floor: f64, min_population: u64) -> Self {
        EntropyCollapse {
            floor,
            min_population,
            seen_healthy: false,
            in_violation: false,
        }
    }
}

impl Monitor<MonitorSample> for EntropyCollapse {
    fn name(&self) -> &'static str {
        "entropy-collapse"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        if sample.population < self.min_population {
            return Vec::new();
        }
        if sample.entropy >= self.floor {
            self.seen_healthy = true;
            self.in_violation = false;
            return Vec::new();
        }
        // Below the floor. Startup skew (before the swarm was ever
        // healthy) is expected — §6's skewed-start experiments begin
        // there deliberately.
        if !self.seen_healthy || self.in_violation {
            return Vec::new();
        }
        self.in_violation = true;
        vec![violation(
            self.name(),
            sample,
            format!(
                "entropy {:.4} fell below floor {:.4} at population {} \
                 (one-club collapse)",
                sample.entropy, self.floor, sample.population
            ),
        )]
    }
}

/// Tracked history of one observer for [`PhaseMonotonic`].
#[derive(Debug, Clone, Copy)]
struct ObserverTrack {
    last_pieces: u32,
    left_bootstrap: bool,
}

/// Observer downloads must progress monotonically: pieces held never
/// decrease, and once an observer has left the bootstrap phase it must
/// not be classified as bootstrap again (steady-state must not regress
/// to flash-crowd). Oscillation between the efficient and last-download
/// phases is legitimate — the potential set can refill when new peers
/// arrive — so it is deliberately not flagged.
#[derive(Debug, Default)]
pub struct PhaseMonotonic {
    tracks: BTreeMap<u64, ObserverTrack>,
}

impl Monitor<MonitorSample> for PhaseMonotonic {
    fn name(&self) -> &'static str {
        "phase-monotonic"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let name = self.name();
        let mut violations = Vec::new();
        for obs in &sample.observers {
            let track = self.tracks.entry(obs.peer).or_insert(ObserverTrack {
                last_pieces: obs.pieces,
                left_bootstrap: false,
            });
            if obs.pieces < track.last_pieces {
                let mut v = violation(
                    name,
                    sample,
                    format!(
                        "observer {} lost pieces: {} -> {}",
                        obs.peer, track.last_pieces, obs.pieces
                    ),
                );
                v.subjects = vec![obs.peer];
                violations.push(v);
            }
            track.last_pieces = track.last_pieces.max(obs.pieces);
            if obs.phase == Phase::Bootstrap {
                if track.left_bootstrap {
                    let mut v = violation(
                        name,
                        sample,
                        format!(
                            "observer {} regressed to the bootstrap phase \
                             with {} pieces",
                            obs.peer, obs.pieces
                        ),
                    );
                    v.subjects = vec![obs.peer];
                    violations.push(v);
                }
            } else {
                track.left_bootstrap = true;
            }
        }
        violations
    }
}

/// Tracked progress of one observer for [`ObserverStall`].
#[derive(Debug, Clone, Copy)]
struct StallTrack {
    last_pieces: u32,
    since: u64,
    reported: bool,
}

/// Observers must keep downloading: an incomplete observer that gains no
/// piece for `limit` rounds has stalled — typically on an empty
/// potential set, with nothing left to trade. Opt-in via
/// [`DoctorOptions::stall_rounds`]. Fires once per stall episode,
/// re-arming when the observer progresses; departed and complete
/// observers are dropped.
#[derive(Debug)]
pub struct ObserverStall {
    /// Rounds without progress that count as a stall (zero is
    /// normalized to 1).
    pub limit: u64,
    tracks: BTreeMap<u64, StallTrack>,
}

impl ObserverStall {
    /// A detector firing after `limit` rounds without progress.
    #[must_use]
    pub fn new(limit: u64) -> Self {
        ObserverStall {
            limit: limit.max(1),
            tracks: BTreeMap::new(),
        }
    }
}

impl Monitor<MonitorSample> for ObserverStall {
    fn name(&self) -> &'static str {
        "observer-stall"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let name = self.name();
        let limit = self.limit;
        let incomplete = |o: &&ObserverPhase| o.pieces < sample.pieces;
        self.tracks.retain(|peer, _| {
            sample
                .observers
                .iter()
                .filter(incomplete)
                .any(|o| o.peer == *peer)
        });
        let mut violations = Vec::new();
        for obs in sample.observers.iter().filter(incomplete) {
            let fresh = StallTrack {
                last_pieces: obs.pieces,
                since: sample.round,
                reported: false,
            };
            let track = self.tracks.entry(obs.peer).or_insert(fresh);
            if obs.pieces > track.last_pieces {
                *track = fresh;
                continue;
            }
            let stalled = sample.round.saturating_sub(track.since);
            if stalled >= limit && !track.reported {
                track.reported = true;
                let mut v = violation(
                    name,
                    sample,
                    format!(
                        "observer {} stalled at {}/{} pieces for {} rounds \
                         (phase {})",
                        obs.peer, obs.pieces, sample.pieces, stalled, obs.phase
                    ),
                );
                v.subjects = vec![obs.peer];
                violations.push(v);
            }
        }
        violations
    }
}

/// Connection-slot accounting must balance: the sum of connection-list
/// lengths equals twice the audit's net open pairs (every pair
/// contributes two endpoints), and no list exceeds the cap `k`. A
/// half-open connection (one side pushed without the reciprocal) shows
/// up as an odd endpoint imbalance.
#[derive(Debug, Default)]
pub struct SlotBalance;

impl Monitor<MonitorSample> for SlotBalance {
    fn name(&self) -> &'static str {
        "slot-balance"
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let mut violations = Vec::new();
        let expected = 2 * sample.audit.expected_connections();
        if sample.degree_sum != expected {
            violations.push(violation(
                self.name(),
                sample,
                format!(
                    "connection endpoints {} != 2 × (opened {} − closed {}) = {}",
                    sample.degree_sum, sample.audit.conn_opened, sample.audit.conn_closed, expected
                ),
            ));
        }
        if sample.max_degree > u64::from(sample.max_connections) {
            violations.push(violation(
                self.name(),
                sample,
                format!(
                    "a peer holds {} connections, exceeding the cap k = {}",
                    sample.max_degree, sample.max_connections
                ),
            ));
        }
        violations
    }
}

/// The standard monitor battery with the given entropy thresholds.
#[must_use]
pub fn default_monitors(
    entropy_floor: f64,
    entropy_min_population: u64,
) -> MonitorSet<MonitorSample> {
    let mut set = MonitorSet::new();
    set.push(Box::new(PieceConservation));
    set.push(Box::new(ReplicationOracle));
    set.push(Box::new(EntropyCollapse::new(
        entropy_floor,
        entropy_min_population,
    )));
    set.push(Box::new(PhaseMonotonic::default()));
    set.push(Box::new(SlotBalance));
    set
}

/// Configuration of a [`SwarmDoctor`].
#[derive(Debug, Clone, PartialEq)]
pub struct DoctorOptions {
    /// Check every `cadence`-th round (zero is normalized to 1).
    pub cadence: u64,
    /// Entropy floor for [`EntropyCollapse`].
    pub entropy_floor: f64,
    /// Minimum population for entropy checks.
    pub entropy_min_population: u64,
    /// Ring capacity of the per-check events written to `flight.json`.
    pub flight_capacity: usize,
    /// Trailing telemetry samples retained for the bundle.
    pub trail_capacity: usize,
    /// Where diagnosis bundles land (`<root>/diagnosis-<run_id>/`);
    /// `None` disables bundle emission.
    pub bundle_root: Option<PathBuf>,
    /// Stable identifier of this run, used in the bundle directory name.
    pub run_id: String,
    /// Adds [`ObserverStall`] to the battery: fire when an observer makes
    /// no piece progress for this many rounds. `None` leaves it out.
    pub stall_rounds: Option<u64>,
}

impl Default for DoctorOptions {
    fn default() -> Self {
        DoctorOptions {
            cadence: 8,
            entropy_floor: 0.02,
            entropy_min_population: 16,
            flight_capacity: 64,
            trail_capacity: 32,
            bundle_root: None,
            run_id: "run".to_string(),
            stall_rounds: None,
        }
    }
}

/// One per-check event retained in the doctor's `flight.json` ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoctorFlightEvent {
    /// Round of the check.
    pub round: u64,
    /// Leecher population.
    pub population: u64,
    /// Replication entropy.
    pub entropy: f64,
    /// Total pieces held.
    pub held_total: u64,
    /// Connection endpoints.
    pub degree_sum: u64,
}

/// One peer's state in the bundle's peer slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerSliceEntry {
    /// Peer sequence number.
    pub seq: u64,
    /// Round the peer joined.
    pub joined_round: u64,
    /// Pieces held.
    pub pieces: u32,
    /// Completion fraction.
    pub completion: f64,
    /// Neighbor count.
    pub neighbors: u64,
    /// Active connections.
    pub connections: u64,
    /// Whether the peer has shaken (§7.1).
    pub shaken: bool,
    /// Whether the peer is bandwidth-limited.
    pub slow: bool,
}

/// The `meta.json` document of a diagnosis bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleMeta {
    /// Monitor schema version.
    pub schema_version: u32,
    /// Run identifier (the bundle directory suffix).
    pub run_id: String,
    /// Round of the first violating check.
    pub round: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Number of pieces `B`.
    pub pieces: u32,
    /// Connection cap `k`.
    pub max_connections: u32,
    /// Population at capture.
    pub population: u64,
    /// Active pipeline stage names.
    pub pipeline: Vec<String>,
    /// Monitors that were running.
    pub monitors: Vec<String>,
    /// The violations that triggered the bundle.
    pub violations: Vec<Violation>,
    /// Audit tallies at capture.
    pub audit: SwarmAudit,
}

/// Context the engine hands the doctor when a bundle must be emitted:
/// everything the monitors cannot see from the sample alone.
#[derive(Debug)]
pub(crate) struct BundleContext {
    pub seed: u64,
    pub pipeline: Vec<String>,
    pub peers: Vec<PeerSliceEntry>,
    pub profile: Option<bt_obs::ProfileReport>,
}

/// The outcome of a doctored run.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// Monitors that ran, in check order.
    pub monitors: Vec<String>,
    /// The accumulated check/violation record.
    pub report: MonitorReport,
    /// Directory of the diagnosis bundle, when one was written.
    pub bundle_dir: Option<PathBuf>,
}

impl DoctorReport {
    /// Whether no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// The runtime harness the engine drives: monitors plus the forensic
/// capture machinery (recent-check ring, trailing telemetry, bundles).
pub struct SwarmDoctor {
    options: DoctorOptions,
    set: MonitorSet<MonitorSample>,
    flight: VecDeque<DoctorFlightEvent>,
    trail: VecDeque<TelemetrySample>,
    bundle_dir: Option<PathBuf>,
}

impl std::fmt::Debug for SwarmDoctor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwarmDoctor")
            .field("options", &self.options)
            .field("monitors", &self.set.names())
            .field("bundle_dir", &self.bundle_dir)
            .finish_non_exhaustive()
    }
}

impl SwarmDoctor {
    /// A doctor running the standard battery under the given options,
    /// plus [`ObserverStall`] when [`DoctorOptions::stall_rounds`] is set.
    #[must_use]
    pub fn new(mut options: DoctorOptions) -> Self {
        if options.cadence == 0 {
            options.cadence = 1;
        }
        let mut set = default_monitors(options.entropy_floor, options.entropy_min_population);
        if let Some(limit) = options.stall_rounds {
            set.push(Box::new(ObserverStall::new(limit)));
        }
        SwarmDoctor {
            set,
            flight: VecDeque::new(),
            trail: VecDeque::new(),
            bundle_dir: None,
            options,
        }
    }

    /// The sampling options.
    #[must_use]
    pub fn options(&self) -> &DoctorOptions {
        &self.options
    }

    /// Whether `round` is a sampled round.
    #[must_use]
    pub fn due(&self, round: u64) -> bool {
        round.is_multiple_of(self.options.cadence)
    }

    /// Feeds one sampled round through the monitors, returning the fresh
    /// violations. Records the check in the `flight.json` ring and the
    /// trailing telemetry window as a side effect.
    pub(crate) fn observe(
        &mut self,
        sample: &MonitorSample,
        telemetry: TelemetrySample,
    ) -> Vec<Violation> {
        if self.flight.len() == self.options.flight_capacity.max(1) {
            self.flight.pop_front();
        }
        self.flight.push_back(DoctorFlightEvent {
            round: sample.round,
            population: sample.population,
            entropy: sample.entropy,
            held_total: sample.held_total,
            degree_sum: sample.degree_sum,
        });
        if self.trail.len() == self.options.trail_capacity.max(1) {
            self.trail.pop_front();
        }
        self.trail.push_back(telemetry);
        self.set.check(sample)
    }

    /// Whether a diagnosis bundle was already written this run.
    #[must_use]
    pub fn bundle_written(&self) -> bool {
        self.bundle_dir.is_some()
    }

    /// Writes the diagnosis bundle for the first violating check:
    /// `meta.json`, `flight.json`, `telemetry.jsonl`, `peers.json`, and
    /// (when profiling is attached) `profile.json`.
    pub(crate) fn emit_bundle(
        &mut self,
        sample: &MonitorSample,
        violations: &[Violation],
        context: &BundleContext,
    ) -> std::io::Result<Option<PathBuf>> {
        let Some(root) = self.options.bundle_root.clone() else {
            return Ok(None);
        };
        let bundle = DiagnosisBundle::create(&root, &self.options.run_id)?;
        let reason = violations
            .first()
            .map_or_else(|| "violation".to_string(), |v| v.monitor.clone());
        let dump = FlightDumpDoc {
            reason,
            round: sample.round,
            recorded: self.set.report().checks,
            events: self.flight.iter().cloned().collect(),
        };
        let meta = BundleMeta {
            schema_version: bt_obs::MONITOR_SCHEMA_VERSION,
            run_id: self.options.run_id.clone(),
            round: sample.round,
            seed: context.seed,
            pieces: sample.pieces,
            max_connections: sample.max_connections,
            population: sample.population,
            pipeline: context.pipeline.clone(),
            monitors: self.set.names().iter().map(|n| (*n).to_string()).collect(),
            violations: self.set.report().violations.clone(),
            audit: sample.audit,
        };
        bundle.write_json("meta.json", &meta)?;
        bundle.write_json("flight.json", &dump)?;
        let trail: Vec<&TelemetrySample> = self.trail.iter().collect();
        bundle.write_lines("telemetry.jsonl", &trail)?;
        bundle.write_json("peers.json", &context.peers)?;
        if let Some(profile) = &context.profile {
            bundle.write_json("profile.json", profile)?;
        }
        self.bundle_dir = Some(bundle.dir().to_path_buf());
        Ok(self.bundle_dir.clone())
    }

    /// Consumes the doctor, yielding the run's report.
    #[must_use]
    pub fn finish(self) -> DoctorReport {
        DoctorReport {
            monitors: self.set.names().iter().map(|n| (*n).to_string()).collect(),
            report: self.set.into_report(),
            bundle_dir: self.bundle_dir,
        }
    }
}

/// The `flight.json` document: the recent-check ring at the first
/// violation. `recorded` counts every check, including rotated-out ones.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FlightDumpDoc {
    reason: String,
    round: u64,
    recorded: u64,
    events: Vec<DoctorFlightEvent>,
}

/// The kinds of deliberate corruption [`FaultSpec`] can inject.
///
/// Each targets a specific invariant so the seeded-fault tests can prove
/// every built-in monitor actually fires:
///
/// * [`FaultKind::UnaccountedPiece`] sets a bitfield bit directly,
///   bypassing both the replication index and the audit —
///   `piece-conservation` and `replication-oracle` fire;
/// * [`FaultKind::IndexDrift`] bumps the replication index without any
///   matching grant — only `replication-oracle` fires;
/// * [`FaultKind::HalfOpenConnection`] pushes a one-sided connection —
///   `slot-balance` fires on the odd endpoint imbalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Grant a peer a piece behind the engine's back.
    UnaccountedPiece,
    /// Bump the replication index with no matching possession.
    IndexDrift,
    /// Open a connection on one side only.
    HalfOpenConnection,
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unaccounted-piece" => Ok(FaultKind::UnaccountedPiece),
            "index-drift" => Ok(FaultKind::IndexDrift),
            "half-open-connection" => Ok(FaultKind::HalfOpenConnection),
            other => Err(format!(
                "unknown fault kind `{other}`; use unaccounted-piece, \
                 index-drift, or half-open-connection"
            )),
        }
    }
}

/// A scheduled fault: corrupt the swarm at the end of `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Round after whose stages the fault is applied.
    pub round: u64,
    /// What to corrupt.
    pub kind: FaultKind,
}

/// Builds the bundle's peer slice: the violation subjects first, then
/// alive peers in join order up to `cap` entries.
pub(crate) fn peer_slice(core: &SwarmCore, subjects: &[u64], cap: usize) -> Vec<PeerSliceEntry> {
    let mut seqs: Vec<u64> = Vec::new();
    for &s in subjects {
        if !seqs.contains(&s) {
            seqs.push(s);
        }
    }
    for &id in core.tracker.peers() {
        if seqs.len() >= cap {
            break;
        }
        if !seqs.contains(&id.seq()) {
            seqs.push(id.seq());
        }
    }
    let mut out = Vec::new();
    for &id in core.tracker.peers() {
        if !seqs.contains(&id.seq()) {
            continue;
        }
        let peer = core.store.peer(id);
        let have = core.store.have(id.into());
        out.push(PeerSliceEntry {
            seq: id.seq(),
            joined_round: peer.joined_round,
            pieces: have.count(),
            completion: have.completion(),
            neighbors: peer.neighbors.len() as u64,
            connections: peer.connections.len() as u64,
            shaken: peer.shaken,
            slow: peer.slow,
        });
        if out.len() >= cap {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64) -> MonitorSample {
        MonitorSample {
            round,
            population: 20,
            pieces: 10,
            max_connections: 3,
            held_total: 0,
            degree_sum: 0,
            max_degree: 0,
            audit: SwarmAudit::default(),
            entropy: 1.0,
            replication: vec![0; 10],
            oracle: vec![0; 10],
            observers: Vec::new(),
        }
    }

    #[test]
    fn conservation_fires_on_unaccounted_pieces() {
        let mut m = PieceConservation;
        let mut s = sample(8);
        s.held_total = 5;
        s.audit.pieces_acquired = 5;
        assert!(m.check(&s).is_empty());
        s.held_total = 6;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].monitor, "piece-conservation");
        assert!(v[0].detail.contains("hold 6"), "{}", v[0].detail);
    }

    #[test]
    fn oracle_fires_on_divergence_with_subjects() {
        let mut m = ReplicationOracle;
        let mut s = sample(8);
        assert!(m.check(&s).is_empty());
        s.replication[3] = 7;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].subjects, vec![3]);
        assert!(v[0].detail.contains("piece 3"), "{}", v[0].detail);
    }

    #[test]
    fn entropy_latches_healthy_then_fires_once_per_episode() {
        let mut m = EntropyCollapse::new(0.1, 10);
        // Startup skew: below floor before ever being healthy — ignored.
        let mut s = sample(0);
        s.entropy = 0.01;
        assert!(m.check(&s).is_empty());
        // Healthy arms the latch.
        s.entropy = 0.8;
        assert!(m.check(&s).is_empty());
        // Collapse fires exactly once for the episode.
        s.entropy = 0.01;
        assert_eq!(m.check(&s).len(), 1);
        assert!(m.check(&s).is_empty(), "episode already reported");
        // Recovery re-arms; the next collapse is a fresh episode.
        s.entropy = 0.5;
        assert!(m.check(&s).is_empty());
        s.entropy = 0.0;
        assert_eq!(m.check(&s).len(), 1);
        // Tiny populations are ignored entirely.
        s.population = 3;
        s.entropy = 0.0;
        assert!(m.check(&s).is_empty());
    }

    #[test]
    fn phase_monotonic_allows_efficient_lastdownload_oscillation() {
        let mut m = PhaseMonotonic::default();
        let mut s = sample(8);
        s.observers = vec![ObserverPhase {
            peer: 4,
            pieces: 3,
            phase: Phase::Efficient,
        }];
        assert!(m.check(&s).is_empty());
        s.observers[0].phase = Phase::LastDownload;
        s.observers[0].pieces = 5;
        assert!(m.check(&s).is_empty());
        s.observers[0].phase = Phase::Efficient;
        s.observers[0].pieces = 6;
        assert!(
            m.check(&s).is_empty(),
            "last-download -> efficient is legitimate (potential refill)"
        );
    }

    #[test]
    fn phase_monotonic_fires_on_bootstrap_regression_and_piece_loss() {
        let mut m = PhaseMonotonic::default();
        let mut s = sample(8);
        s.observers = vec![ObserverPhase {
            peer: 4,
            pieces: 5,
            phase: Phase::Efficient,
        }];
        assert!(m.check(&s).is_empty());
        s.observers[0].phase = Phase::Bootstrap;
        s.observers[0].pieces = 5;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("regressed"), "{}", v[0].detail);
        s.observers[0].phase = Phase::Efficient;
        s.observers[0].pieces = 2;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("lost pieces"), "{}", v[0].detail);
    }

    /// A sample at `round` holding one observer per `(peer, pieces)`.
    fn observed(round: u64, observers: &[(u64, u32)]) -> MonitorSample {
        let mut s = sample(round);
        s.observers = observers
            .iter()
            .map(|&(peer, pieces)| ObserverPhase {
                peer,
                pieces,
                phase: Phase::LastDownload,
            })
            .collect();
        s
    }

    #[test]
    fn observer_stall_fires_once_per_episode_at_cadence_one() {
        let mut m = ObserverStall::new(3);
        // First sighting at round 1; rounds 2-3 are 1 and 2 rounds stalled.
        for round in 1..=3 {
            assert!(
                m.check(&observed(round, &[(4, 2)])).is_empty(),
                "round {round}"
            );
        }
        let v = m.check(&observed(4, &[(4, 2)]));
        assert_eq!(v.len(), 1, "three rounds without progress");
        assert_eq!(v[0].monitor, "observer-stall");
        assert_eq!(v[0].subjects, vec![4]);
        assert!(
            v[0].detail.contains("2/10 pieces for 3 rounds"),
            "{}",
            v[0].detail
        );
        assert!(v[0].detail.contains("last-download"), "{}", v[0].detail);
        assert!(
            m.check(&observed(5, &[(4, 2)])).is_empty(),
            "episode already reported"
        );
        // Progress re-arms; the next stall is a fresh episode.
        assert!(m.check(&observed(6, &[(4, 3)])).is_empty());
        assert!(m.check(&observed(8, &[(4, 3)])).is_empty());
        assert_eq!(m.check(&observed(9, &[(4, 3)])).len(), 1);
    }

    #[test]
    fn observer_stall_counts_rounds_not_checks_above_cadence_one() {
        // Sampled every 4th round: the stall length is measured in rounds.
        let mut m = ObserverStall::new(5);
        assert!(m.check(&observed(4, &[(1, 0), (2, 0)])).is_empty());
        assert!(
            m.check(&observed(8, &[(1, 0), (2, 1)])).is_empty(),
            "4 rounds < 5"
        );
        // Peer 1 has stalled 8 rounds; peer 2 progressed at round 8.
        let v = m.check(&observed(12, &[(1, 0), (2, 1)]));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].subjects, vec![1]);
        assert!(v[0].detail.contains("for 8 rounds"), "{}", v[0].detail);
        let v = m.check(&observed(16, &[(1, 0), (2, 1)]));
        assert_eq!(v.len(), 1, "peer 2 stalled 8 rounds since its progress");
        assert_eq!(v[0].subjects, vec![2]);
        // Zero is normalized: any round without progress is a stall.
        assert_eq!(ObserverStall::new(0).limit, 1);
    }

    #[test]
    fn observer_stall_drops_departed_and_complete_observers() {
        let mut m = ObserverStall::new(2);
        assert!(m.check(&observed(1, &[(1, 4), (2, 10)])).is_empty());
        // Peer 1 departs; peer 2 holds all 10 pieces and cannot stall.
        assert!(m.check(&observed(2, &[(2, 10)])).is_empty());
        assert!(m.check(&observed(5, &[(2, 10)])).is_empty());
        // A returning id starts a fresh track instead of firing at once.
        assert!(m.check(&observed(6, &[(1, 4)])).is_empty());
        assert!(m.check(&observed(7, &[(1, 4)])).is_empty());
        assert_eq!(m.check(&observed(8, &[(1, 4)])).len(), 1);
    }

    #[test]
    fn slot_balance_fires_on_imbalance_and_cap_breach() {
        let mut m = SlotBalance;
        let mut s = sample(8);
        s.audit.conn_opened = 4;
        s.audit.conn_closed = 1;
        s.degree_sum = 6;
        s.max_degree = 3;
        assert!(m.check(&s).is_empty());
        s.degree_sum = 7;
        assert_eq!(m.check(&s).len(), 1, "odd endpoint imbalance");
        s.degree_sum = 6;
        s.max_degree = 4;
        let v = m.check(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("cap"), "{}", v[0].detail);
    }

    #[test]
    fn default_battery_names() {
        let set = default_monitors(0.02, 16);
        assert_eq!(
            set.names(),
            vec![
                "piece-conservation",
                "replication-oracle",
                "entropy-collapse",
                "phase-monotonic",
                "slot-balance"
            ]
        );
    }

    #[test]
    fn fault_kind_parses() {
        assert_eq!(
            "unaccounted-piece".parse::<FaultKind>().unwrap(),
            FaultKind::UnaccountedPiece
        );
        assert_eq!(
            "index-drift".parse::<FaultKind>().unwrap(),
            FaultKind::IndexDrift
        );
        assert_eq!(
            "half-open-connection".parse::<FaultKind>().unwrap(),
            FaultKind::HalfOpenConnection
        );
        assert!("bogus".parse::<FaultKind>().is_err());
    }

    #[test]
    fn doctor_cadence_normalized_and_due() {
        let doctor = SwarmDoctor::new(DoctorOptions {
            cadence: 0,
            ..DoctorOptions::default()
        });
        assert!(doctor.due(1));
        let doctor = SwarmDoctor::new(DoctorOptions {
            cadence: 4,
            ..DoctorOptions::default()
        });
        assert!(doctor.due(8));
        assert!(!doctor.due(9));
    }
}
