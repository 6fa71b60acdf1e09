//! Round observers: the doctor, the telemetry recorder and the heartbeat
//! emitter, each shown the swarm once per round after the stages ran.
//!
//! [`Swarm`](crate::Swarm) keeps the attached observers in one list,
//! runs them in [`OBSERVERS`] order and times each under the registry
//! timer `obs.<name>`, which the run manifest sums into `obs_share`.
//! Observers get the core through a shared reference, and this module
//! lies outside `bt-lint`'s RNG-sanctioned files, so the
//! `rng-reachability` rule fails any observer hook that could reach the
//! model RNG: watching a run cannot change it.

use std::any::Any;

use crate::engine::SwarmCore;
use crate::monitors::{peer_slice, BundleContext, MonitorSample, SwarmDoctor};
use crate::snapshot::availability_of;
use crate::telemetry::{ObserverSample, TelemetryRecorder, TelemetrySample};

/// Observer names in the order they run each round.
pub(crate) const OBSERVERS: [&str; 3] = ["doctor", "telemetry", "heartbeat"];

/// A read-only per-round hook of the swarm engine.
pub(crate) trait RoundObserver: Any + Send {
    /// One of [`OBSERVERS`]; the observer is timed as `obs.<name>`.
    fn name(&self) -> &'static str;

    /// Observes the state after round `core.round()`; `stages` names
    /// the pipeline in execution order.
    fn on_round(&mut self, core: &SwarmCore, stages: &[&'static str]);

    /// Flushes at the end of a run, or when the observer is detached.
    fn finish(&mut self, core: &SwarmCore);
}

/// The current round's [`TelemetrySample`], built from the streaming
/// sketches instead of a full population scan: replication counts
/// and availability bins off the replication index (O(pieces)),
/// piece-count quantiles off the [`bt_obs::CountCells`] maintained
/// by the possession mutators (O(pieces)), and the mean degree from
/// the audit's connection balance (O(1)) — bit-identical to the
/// [`crate::snapshot::Snapshot::capture`] +
/// [`TelemetrySample::from_snapshot`] path
/// (`sketch_sample_matches_snapshot_oracle` locks the equivalence).
pub(crate) fn current_sample(core: &SwarmCore) -> TelemetrySample {
    let replication = core.replication.counts();
    let population = core.tracker.len() as u64;
    let q = |fraction: f64| core.piece_cells.quantile(fraction).unwrap_or(0);
    // Every open connection contributes exactly two endpoints, so the
    // audit balance reproduces the per-peer degree sum without a
    // scan. Exact in f64: the endpoint total stays far below 2^53.
    let mean_degree = if population == 0 {
        0.0
    } else {
        2.0 * (core.audit.conn_opened as f64 - core.audit.conn_closed as f64) / population as f64
    };
    let k = core.config.max_connections;
    let slot_utilization = if k == 0 {
        0.0
    } else {
        mean_degree / f64::from(k)
    };
    TelemetrySample {
        round: core.round,
        population,
        entropy: core.replication.entropy(),
        extinct_pieces: replication.iter().filter(|&&d| d == 0).count() as u64,
        availability: availability_of(replication),
        piece_quantiles: [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)],
        mean_degree,
        slot_utilization,
    }
}

/// Runs the monitors on the doctor's cadence, writing the diagnosis
/// bundle on the first violation. The report is built when the doctor
/// is detached ([`SwarmDoctor::finish`]).
impl RoundObserver for SwarmDoctor {
    fn name(&self) -> &'static str {
        "doctor"
    }

    fn on_round(&mut self, core: &SwarmCore, stages: &[&'static str]) {
        if !self.due(core.round) {
            return;
        }
        let sample = MonitorSample::capture(core);
        let violations = self.observe(&sample, current_sample(core));
        if violations.is_empty() {
            return;
        }
        for v in &violations {
            tracing::warn!(target: "bt_swarm::doctor", "{}", v);
        }
        if self.bundle_written() {
            return;
        }
        let subjects: Vec<u64> = violations
            .iter()
            .flat_map(|v| v.subjects.iter().copied())
            .collect();
        let context = BundleContext {
            seed: core.config.seed,
            pipeline: stages.iter().map(|name| (*name).to_string()).collect(),
            peers: peer_slice(core, &subjects, 32),
            profile: core.profile.report(),
        };
        match self.emit_bundle(&sample, &violations, &context) {
            Ok(Some(dir)) => tracing::warn!(
                target: "bt_swarm::doctor",
                "diagnosis bundle written to {}",
                dir.display()
            ),
            Ok(None) => {}
            Err(e) => tracing::warn!(
                target: "bt_swarm::doctor",
                "failed to write diagnosis bundle: {}",
                e
            ),
        }
    }

    fn finish(&mut self, _core: &SwarmCore) {}
}

/// Feeds the recorder the sketch-built sample plus the per-observer
/// `(pieces, potential, connections)` states driving online phase
/// detection.
impl RoundObserver for TelemetryRecorder {
    fn name(&self) -> &'static str {
        "telemetry"
    }

    fn on_round(&mut self, core: &SwarmCore, _stages: &[&'static str]) {
        let observers: Vec<ObserverSample> = core
            .tracker
            .peers()
            .iter()
            .copied()
            .filter(|id| core.config.observes(id.seq()))
            .map(|id| ObserverSample {
                peer: id.seq(),
                pieces: core.store.have(id.into()).count(),
                potential: core.potential_size(id),
                connections: core.store.peer(id).connections.len() as u32,
            })
            .collect();
        self.record_sample(&current_sample(core), &observers);
    }

    fn finish(&mut self, _core: &SwarmCore) {
        TelemetryRecorder::finish(self);
    }
}

/// The current round's heartbeat pulse: population off the tracker,
/// entropy off the replication index, and the swarm phase from the
/// median piece count ([`bt_obs::swarm_phase`]) — all O(pieces)
/// sketch reads, no population scan.
fn heartbeat_pulse(core: &SwarmCore) -> bt_obs::HeartbeatPulse {
    let population = core.tracker.len() as u64;
    let median_pieces = u64::from(core.piece_cells.quantile(0.5).unwrap_or(0));
    bt_obs::HeartbeatPulse {
        round: core.round,
        population,
        entropy: core.replication.entropy(),
        phase: bt_obs::swarm_phase(population, median_pieces, core.config.pieces),
    }
}

/// Beats when the emitter's wall-clock cadence says one is due; the
/// finish writes the final beat and marks `run.status.json` finished.
/// Emission errors are logged, never fatal: a full disk must not kill a
/// multi-hour run.
impl RoundObserver for bt_obs::HeartbeatEmitter {
    fn name(&self) -> &'static str {
        "heartbeat"
    }

    fn on_round(&mut self, core: &SwarmCore, _stages: &[&'static str]) {
        if !self.due() {
            return;
        }
        // Audited: a beat reads the registry's `obs.*` timer totals for
        // its `obs_share` and writes only the heartbeat files; nothing
        // flows back into the model. bt-lint: allow(shared-interior-mut)
        if let Err(e) = self.beat(&heartbeat_pulse(core)) {
            tracing::warn!(target: "bt_swarm", "heartbeat emission failed: {e}");
        }
    }

    fn finish(&mut self, core: &SwarmCore) {
        // Audited: as for a beat. bt-lint: allow(shared-interior-mut)
        if let Err(e) = bt_obs::HeartbeatEmitter::finish(self, &heartbeat_pulse(core)) {
            tracing::warn!(target: "bt_swarm", "heartbeat finalization failed: {e}");
        }
    }
}
