//! Per-round metrics sampling.

use bt_model::{DownloadState, Phase};

use crate::engine::SwarmCore;
use crate::stages::RoundStage;

/// Compact code a [`Phase`] is traced under in cohort streams
/// (`Bootstrap=0`, `Efficient=1`, `LastDownload=2`, `Done=3`).
pub(crate) fn phase_code(phase: Phase) -> u8 {
    match phase {
        Phase::Bootstrap => 0,
        Phase::Efficient => 1,
        Phase::LastDownload => 2,
        Phase::Done => 3,
    }
}

/// Samples population, replication entropy (straight off the
/// replication index — the old engine rescanned every bitfield here),
/// potential-set sizes bucketed by pieces held, slot utilization, and
/// the per-observer trajectories.
#[derive(Debug, Default)]
pub struct SampleMetrics;

// bt-stage: reads(config, replication, round, store, tracker), writes(audit, cohort, metrics, profile)
impl RoundStage for SampleMetrics {
    fn name(&self) -> &'static str {
        "sample"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        let round = core.round;
        let population = core.tracker.len();
        core.profile
            .add_work("sample.peers_sampled", population as u64);
        core.audit.metric_samples += population as u64;
        core.metrics.population.push((round, population as u64));
        // Replication entropy over the leecher population.
        core.metrics.entropy.push((round, core.replication.entropy()));
        // Potential-set sizes and utilization are steady-state
        // measurements, so they respect the warm-up.
        let in_steady_state = round >= core.config.metrics_warmup_rounds;
        let k = f64::from(core.config.max_connections);
        let obs_lo = u64::from(core.config.observe_from);
        let obs_hi = obs_lo + u64::from(core.config.observers);
        let mut conn_total = 0usize;
        for i in 0..population {
            let id = core.tracker.peers()[i];
            let potential = core.potential_size(id);
            let held = core.store.peer(id).have.count() as usize;
            if in_steady_state {
                core.metrics.potential_sum_by_pieces[held] += f64::from(potential);
                core.metrics.potential_count_by_pieces[held] += 1;
            }
            conn_total += core.store.peer(id).connections.len();
            if core.cohort.is_member(id.seq()) {
                let connections = core.store.peer(id).connections.len() as u32;
                let pieces = held as u32;
                core.cohort.observe(round, id.seq(), pieces, connections);
                let state = DownloadState::new(connections, pieces, potential);
                let phase = Phase::classify(state, core.config.pieces);
                core.cohort.phase(round, id.seq(), phase_code(phase));
            }
            if (obs_lo..obs_hi).contains(&id.seq()) {
                let connections = core.store.peer(id).connections.len() as u32;
                let pieces = core.store.peer(id).have.count();
                let log = core
                    .metrics
                    .observers
                    .iter_mut()
                    .find(|l| l.id == id)
                    .expect("observer log pre-created at spawn");
                log.rounds.push(round);
                log.pieces.push(pieces);
                log.potential.push(potential);
                log.connections.push(connections);
            }
        }
        if in_steady_state && population > 0 {
            core.metrics.utilization_sum += conn_total as f64 / (population as f64 * k);
            core.metrics.utilization_samples += 1;
        }
    }
}
