//! The swarm doctor: a fixed battery of invariant checks, the sampling
//! harness the engine drives, and diagnosis-bundle emission.
//!
//! On every sampled round [`SwarmDoctor`] captures a state slice (audit
//! tallies, piece totals, degrees, the replication index next to its
//! from-scratch oracle, and per-observer phases) and runs its battery
//! over it, always in this order:
//!
//! 1. `piece-conservation` — §5's piece economy;
//! 2. `replication-oracle` — the index against its rebuild;
//! 3. `entropy-collapse` — §6's entropy floor, read as one-club
//!    detection per Zhu & Hajek, arXiv 1110.2753;
//! 4. `phase-monotonic` — the §3 phase criteria;
//! 5. `slot-balance` — connection-slot accounting;
//! 6. `observer-stall`, only when [`DoctorOptions::stall_rounds`] is set.
//!
//! The stateless checks are plain functions; the ones that keep history
//! between samples are fields of the doctor, which also keeps the check
//! count, every violation, a ring of the last 64 checks (`flight.json`)
//! and the last 32 telemetry samples, and writes the diagnosis bundle
//! the moment a check fails. [`FaultSpec`] injects seeded corruption
//! mid-run, proving the checks fire (and giving `btlab doctor
//! --inject-fault` its demo).
//!
//! Everything here reads state and makes **zero RNG calls**: attaching a
//! doctor leaves a same-seed run byte-identical (locked in by
//! `crates/swarm/tests/determinism.rs`).

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use bt_model::{DownloadState, Phase};
use bt_obs::records;

use crate::audit::SwarmAudit;
use crate::engine::SwarmCore;
use crate::selection::replication_counts;
use crate::telemetry::TelemetrySample;

/// Schema version stamped into monitor reports and diagnosis bundles.
pub const MONITOR_SCHEMA_VERSION: u32 = 1;

/// Checks the `flight.json` ring keeps, ending at the violating one.
const FLIGHT_CAPACITY: usize = 64;

/// Trailing telemetry samples the bundle's `telemetry.jsonl` keeps.
const TRAIL_CAPACITY: usize = 32;

const PIECE_CONSERVATION: &str = "piece-conservation";
const REPLICATION_ORACLE: &str = "replication-oracle";
const ENTROPY_COLLAPSE: &str = "entropy-collapse";
const PHASE_MONOTONIC: &str = "phase-monotonic";
const SLOT_BALANCE: &str = "slot-balance";
const OBSERVER_STALL: &str = "observer-stall";

/// The battery every doctor runs, in check order; `observer-stall`
/// follows when it is on.
const BATTERY: [&str; 5] = [
    PIECE_CONSERVATION,
    REPLICATION_ORACLE,
    ENTROPY_COLLAPSE,
    PHASE_MONOTONIC,
    SLOT_BALANCE,
];

/// One invariant violation found by a monitor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The monitor that found it (stable kebab-case name).
    pub monitor: String,
    /// The round at which the check failed.
    pub round: u64,
    /// Human-readable description with the numbers that disagreed.
    pub detail: String,
    /// Identifiers involved (peer sequence numbers or piece ids,
    /// monitor-dependent); empty when the violation is global.
    pub subjects: Vec<u64>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] round {}: {}",
            self.monitor, self.round, self.detail
        )
    }
}

/// The outcome of a monitored run: how many sampled rounds were checked
/// and every violation found, in detection order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Report schema version ([`MONITOR_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Number of sampled rounds checked.
    pub checks: u64,
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
}

impl Default for MonitorReport {
    fn default() -> Self {
        MonitorReport::new()
    }
}

impl MonitorReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        MonitorReport {
            schema_version: MONITOR_SCHEMA_VERSION,
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// Whether no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One observer peer's state inside a [`MonitorSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ObserverPhase {
    /// Observer peer sequence number.
    pub peer: u64,
    /// Pieces the observer holds.
    pub pieces: u32,
    /// Phase the §3 criteria classify it into right now.
    pub phase: Phase,
}

/// The state slice the battery judges, captured once per sampled round.
///
/// Capturing is a read-only scan — O(population) plus one
/// [`replication_counts`] rebuild for the oracle — and makes no RNG
/// calls.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MonitorSample {
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

/// `piece-conservation`: pieces held must equal pieces granted minus
/// pieces carried away — the audit identity every legitimate mutation
/// path preserves. A piece that appears in a bitfield without passing
/// through [`SwarmCore::acquire_piece`] / [`SwarmCore::receive_block`]
/// (or vanishes without a departure) breaks it.
fn piece_conservation(sample: &MonitorSample) -> Vec<Violation> {
    let expected = sample.audit.expected_held();
    if sample.held_total == expected {
        return Vec::new();
    }
    vec![violation(
        PIECE_CONSERVATION,
        sample,
        format!(
            "peers hold {} pieces but the audit accounts for {} \
             (acquired {} − departed {})",
            sample.held_total, expected, sample.audit.pieces_acquired, sample.audit.pieces_departed
        ),
    )]
}

/// `replication-oracle`: the incrementally maintained
/// [`crate::ReplicationIndex`] must agree with a from-scratch rebuild
/// over all alive bitfields (its property-test oracle, checked
/// continuously at runtime).
fn replication_oracle(sample: &MonitorSample) -> Vec<Violation> {
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
        REPLICATION_ORACLE,
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

/// `entropy-collapse`: the entropy floor read as one-club detection
/// (Zhu & Hajek, arXiv 1110.2753). Once the swarm has been healthy,
/// replication entropy `min(d)/max(d)` dropping below the floor with a
/// non-trivial population means availability mass has collapsed onto
/// one piece set. Fires once per collapse episode, re-arming when
/// entropy recovers.
#[derive(Debug)]
struct EntropyCollapse {
    /// Entropy below this value counts as collapsed.
    floor: f64,
    /// Populations below this are ignored (endgame noise).
    min_population: u64,
    seen_healthy: bool,
    in_violation: bool,
}

impl EntropyCollapse {
    fn new(floor: f64, min_population: u64) -> Self {
        EntropyCollapse {
            floor,
            min_population,
            seen_healthy: false,
            in_violation: false,
        }
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
            ENTROPY_COLLAPSE,
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

/// `phase-monotonic`: observer downloads must progress monotonically:
/// pieces held never decrease, and once an observer has left the
/// bootstrap phase it must not be classified as bootstrap again
/// (steady-state must not regress to flash-crowd). Oscillation between
/// the efficient and last-download phases is legitimate — the potential
/// set can refill when new peers arrive — so it is deliberately not
/// flagged.
#[derive(Debug, Default)]
struct PhaseMonotonic {
    tracks: BTreeMap<u64, ObserverTrack>,
}

impl PhaseMonotonic {
    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let mut violations = Vec::new();
        for obs in &sample.observers {
            let track = self.tracks.entry(obs.peer).or_insert(ObserverTrack {
                last_pieces: obs.pieces,
                left_bootstrap: false,
            });
            if obs.pieces < track.last_pieces {
                let mut v = violation(
                    PHASE_MONOTONIC,
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
                        PHASE_MONOTONIC,
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

/// `observer-stall`: observers must keep downloading: an incomplete
/// observer that gains no piece for `limit` rounds has stalled —
/// typically on an empty potential set, with nothing left to trade.
/// Opt-in via [`DoctorOptions::stall_rounds`]. Fires once per stall
/// episode, re-arming when the observer progresses; departed and
/// complete observers are dropped.
#[derive(Debug)]
struct ObserverStall {
    /// Rounds without progress that count as a stall (zero is
    /// normalized to 1).
    limit: u64,
    tracks: BTreeMap<u64, StallTrack>,
}

impl ObserverStall {
    fn new(limit: u64) -> Self {
        ObserverStall {
            limit: limit.max(1),
            tracks: BTreeMap::new(),
        }
    }

    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
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
                    OBSERVER_STALL,
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

/// `slot-balance`: connection-slot accounting must balance: the sum of
/// connection-list lengths equals twice the audit's net open pairs
/// (every pair contributes two endpoints), and no list exceeds the cap
/// `k`. A half-open connection (one side pushed without the reciprocal)
/// shows up as an odd endpoint imbalance.
fn slot_balance(sample: &MonitorSample) -> Vec<Violation> {
    let mut violations = Vec::new();
    let expected = 2 * sample.audit.expected_connections();
    if sample.degree_sum != expected {
        violations.push(violation(
            SLOT_BALANCE,
            sample,
            format!(
                "connection endpoints {} != 2 × (opened {} − closed {}) = {}",
                sample.degree_sum, sample.audit.conn_opened, sample.audit.conn_closed, expected
            ),
        ));
    }
    if sample.max_degree > u64::from(sample.max_connections) {
        violations.push(violation(
            SLOT_BALANCE,
            sample,
            format!(
                "a peer holds {} connections, exceeding the cap k = {}",
                sample.max_degree, sample.max_connections
            ),
        ));
    }
    violations
}

/// Configuration of a [`SwarmDoctor`].
#[derive(Debug, Clone, PartialEq)]
pub struct DoctorOptions {
    /// Check every `cadence`-th round (zero is normalized to 1).
    pub cadence: u64,
    /// Entropy floor of the `entropy-collapse` check.
    pub entropy_floor: f64,
    /// Minimum population for entropy checks.
    pub entropy_min_population: u64,
    /// Where diagnosis bundles land (`<root>/diagnosis-<run_id>/`);
    /// `None` disables bundle emission.
    pub bundle_root: Option<PathBuf>,
    /// Stable identifier of this run, used in the bundle directory name.
    pub run_id: String,
    /// Adds `observer-stall` to the battery: fire when an observer makes
    /// no piece progress for this many rounds. `None` leaves it out.
    pub stall_rounds: Option<u64>,
}

impl Default for DoctorOptions {
    fn default() -> Self {
        DoctorOptions {
            cadence: 8,
            entropy_floor: 0.02,
            entropy_min_population: 16,
            bundle_root: None,
            run_id: "run".to_string(),
            stall_rounds: None,
        }
    }
}

/// One per-check event retained in the doctor's `flight.json` ring.
#[derive(Debug, Clone, Serialize)]
struct DoctorFlightEvent {
    /// Round of the check.
    round: u64,
    /// Leecher population.
    population: u64,
    /// Replication entropy.
    entropy: f64,
    /// Total pieces held.
    held_total: u64,
    /// Connection endpoints.
    degree_sum: u64,
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

/// The runtime harness the engine drives: the battery, its report, and
/// the forensic capture (recent-check ring, trailing telemetry,
/// bundle).
#[derive(Debug)]
pub struct SwarmDoctor {
    options: DoctorOptions,
    entropy: EntropyCollapse,
    phases: PhaseMonotonic,
    /// Present when [`DoctorOptions::stall_rounds`] is set.
    stall: Option<ObserverStall>,
    report: MonitorReport,
    flight: VecDeque<DoctorFlightEvent>,
    trail: VecDeque<TelemetrySample>,
    bundle_dir: Option<PathBuf>,
}

impl SwarmDoctor {
    /// A doctor running the battery under the given options, with
    /// `observer-stall` when [`DoctorOptions::stall_rounds`] is set.
    #[must_use]
    pub fn new(mut options: DoctorOptions) -> Self {
        options.cadence = options.cadence.max(1);
        SwarmDoctor {
            entropy: EntropyCollapse::new(options.entropy_floor, options.entropy_min_population),
            phases: PhaseMonotonic::default(),
            stall: options.stall_rounds.map(ObserverStall::new),
            report: MonitorReport::new(),
            flight: VecDeque::new(),
            trail: VecDeque::new(),
            bundle_dir: None,
            options,
        }
    }

    /// Whether `round` is a sampled round.
    #[must_use]
    pub fn due(&self, round: u64) -> bool {
        round.is_multiple_of(self.options.cadence)
    }

    /// The names of the checks this doctor runs, in check order.
    fn monitors(&self) -> Vec<String> {
        let stall = self.stall.as_ref().map(|_| OBSERVER_STALL);
        BATTERY
            .into_iter()
            .chain(stall)
            .map(str::to_string)
            .collect()
    }

    /// Runs the battery over one sample, counting the check and keeping
    /// its violations in the report. Returns the fresh violations.
    fn check(&mut self, sample: &MonitorSample) -> Vec<Violation> {
        let mut fresh = piece_conservation(sample);
        fresh.extend(replication_oracle(sample));
        fresh.extend(self.entropy.check(sample));
        fresh.extend(self.phases.check(sample));
        fresh.extend(slot_balance(sample));
        if let Some(stall) = &mut self.stall {
            fresh.extend(stall.check(sample));
        }
        self.report.checks += 1;
        self.report.violations.extend(fresh.iter().cloned());
        fresh
    }

    /// Feeds one sampled round through the battery, returning the fresh
    /// violations. Records the check in the `flight.json` ring and the
    /// trailing telemetry window as a side effect.
    pub(crate) fn observe(
        &mut self,
        sample: &MonitorSample,
        telemetry: TelemetrySample,
    ) -> Vec<Violation> {
        if self.flight.len() == FLIGHT_CAPACITY {
            self.flight.pop_front();
        }
        self.flight.push_back(DoctorFlightEvent {
            round: sample.round,
            population: sample.population,
            entropy: sample.entropy,
            held_total: sample.held_total,
            degree_sum: sample.degree_sum,
        });
        if self.trail.len() == TRAIL_CAPACITY {
            self.trail.pop_front();
        }
        self.trail.push_back(telemetry);
        self.check(sample)
    }

    /// Whether a diagnosis bundle was already written this run.
    #[must_use]
    pub fn bundle_written(&self) -> bool {
        self.bundle_dir.is_some()
    }

    /// Writes the diagnosis bundle for the first violating check into
    /// `<bundle_root>/diagnosis-<run_id>/`: `meta.json`, `flight.json`,
    /// `telemetry.jsonl`, `peers.json`, and (when profiling is attached)
    /// `profile.json`. Every I/O error is returned: a failed bundle
    /// write must never take the run down with it.
    pub(crate) fn emit_bundle(
        &mut self,
        sample: &MonitorSample,
        violations: &[Violation],
        context: &BundleContext,
    ) -> std::io::Result<Option<PathBuf>> {
        let Some(root) = &self.options.bundle_root else {
            return Ok(None);
        };
        let dir = root.join(format!("diagnosis-{}", self.options.run_id));
        let reason = violations
            .first()
            .map_or_else(|| "violation".to_string(), |v| v.monitor.clone());
        let dump = FlightDumpDoc {
            reason,
            round: sample.round,
            recorded: self.report.checks,
            events: self.flight.iter().cloned().collect(),
        };
        let meta = BundleMeta {
            schema_version: MONITOR_SCHEMA_VERSION,
            run_id: self.options.run_id.clone(),
            round: sample.round,
            seed: context.seed,
            pieces: sample.pieces,
            max_connections: sample.max_connections,
            population: sample.population,
            pipeline: context.pipeline.clone(),
            monitors: self.monitors(),
            violations: self.report.violations.clone(),
            audit: sample.audit,
        };
        // `write_doc` creates the directory.
        records::write_doc(&dir.join("meta.json"), &meta)?;
        records::write_doc(&dir.join("flight.json"), &dump)?;
        let mut trail = Vec::new();
        for telemetry in &self.trail {
            records::write_line(&mut trail, telemetry)?;
        }
        std::fs::write(dir.join("telemetry.jsonl"), trail)?;
        records::write_doc(&dir.join("peers.json"), &context.peers)?;
        if let Some(profile) = &context.profile {
            records::write_doc(&dir.join("profile.json"), profile)?;
        }
        self.bundle_dir = Some(dir.clone());
        Ok(Some(dir))
    }

    /// Consumes the doctor, yielding the run's report.
    #[must_use]
    pub fn finish(self) -> DoctorReport {
        DoctorReport {
            monitors: self.monitors(),
            report: self.report,
            bundle_dir: self.bundle_dir,
        }
    }
}

/// The `flight.json` document: the recent-check ring at the first
/// violation. `recorded` counts every check, including rotated-out ones.
#[derive(Debug, Serialize)]
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
    fn violation_displays_with_monitor_and_round() {
        let v = Violation {
            monitor: "piece-conservation".to_string(),
            round: 17,
            detail: "held 5 != acquired 4".to_string(),
            subjects: vec![],
        };
        assert_eq!(
            v.to_string(),
            "[piece-conservation] round 17: held 5 != acquired 4"
        );
    }

    #[test]
    fn clean_report_round_trips() {
        let report = SwarmDoctor::new(DoctorOptions::default()).finish().report;
        assert!(report.is_clean());
        let text = serde_json::to_string(&report).unwrap();
        let back: MonitorReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn doctor_accumulates_checks_and_violations() {
        // `piece-conservation` is stateless; `entropy-collapse` latches
        // once healthy and re-arms on recovery.
        let mut doctor = SwarmDoctor::new(DoctorOptions::default());
        let mut s = sample(8);
        s.entropy = 0.01;
        assert!(doctor.check(&s).is_empty(), "low start is not a collapse");
        s.entropy = 0.8;
        assert!(doctor.check(&s).is_empty(), "healthy sample arms the latch");
        s.entropy = 0.01;
        let fresh = doctor.check(&s);
        assert_eq!(fresh.len(), 1, "latched check fires on the collapse");
        assert_eq!(fresh[0].monitor, "entropy-collapse");
        s.entropy = 0.8;
        s.held_total = 1;
        let fresh = doctor.check(&s);
        assert_eq!(
            fresh.len(),
            1,
            "conservation fires on the stray piece; the recovery re-arms the latch"
        );
        assert_eq!(fresh[0].monitor, "piece-conservation");
        s.entropy = 0.01;
        s.held_total = 0;
        let fresh = doctor.check(&s);
        assert_eq!(
            fresh.len(),
            1,
            "re-armed latch fires on the second collapse"
        );

        let report = doctor.finish().report;
        assert_eq!(report.checks, 5);
        let monitors: Vec<&str> = report
            .violations
            .iter()
            .map(|v| v.monitor.as_str())
            .collect();
        assert_eq!(
            monitors,
            ["entropy-collapse", "piece-conservation", "entropy-collapse"]
        );
        assert!(!report.is_clean());
        assert_eq!(report.schema_version, MONITOR_SCHEMA_VERSION);
    }

    #[test]
    fn conservation_fires_on_unaccounted_pieces() {
        let mut s = sample(8);
        s.held_total = 5;
        s.audit.pieces_acquired = 5;
        assert!(piece_conservation(&s).is_empty());
        s.held_total = 6;
        let v = piece_conservation(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].monitor, "piece-conservation");
        assert!(v[0].detail.contains("hold 6"), "{}", v[0].detail);
    }

    #[test]
    fn oracle_fires_on_divergence_with_subjects() {
        let mut s = sample(8);
        assert!(replication_oracle(&s).is_empty());
        s.replication[3] = 7;
        let v = replication_oracle(&s);
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
        let mut s = sample(8);
        s.audit.conn_opened = 4;
        s.audit.conn_closed = 1;
        s.degree_sum = 6;
        s.max_degree = 3;
        assert!(slot_balance(&s).is_empty());
        s.degree_sum = 7;
        assert_eq!(slot_balance(&s).len(), 1, "odd endpoint imbalance");
        s.degree_sum = 6;
        s.max_degree = 4;
        let v = slot_balance(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("cap"), "{}", v[0].detail);
    }

    #[test]
    fn default_battery_names() {
        let battery = [
            "piece-conservation",
            "replication-oracle",
            "entropy-collapse",
            "phase-monotonic",
            "slot-balance",
        ];
        let report = SwarmDoctor::new(DoctorOptions::default()).finish();
        assert_eq!(report.monitors, battery);
        let report = SwarmDoctor::new(DoctorOptions {
            stall_rounds: Some(6),
            ..DoctorOptions::default()
        })
        .finish();
        assert_eq!(report.monitors.len(), 6);
        assert_eq!(report.monitors[..5], battery);
        assert_eq!(report.monitors[5], "observer-stall");
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
