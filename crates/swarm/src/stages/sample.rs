//! Per-round metrics sampling.

use bt_model::{DownloadState, Phase};
use bt_obs::cohort_phase;

use crate::engine::SwarmCore;
use crate::stages::RoundStage;

/// The [`bt_obs::cohort_phase`] tag a [`Phase`] is traced under in
/// cohort streams.
pub(crate) fn phase_code(phase: Phase) -> u8 {
    match phase {
        Phase::Bootstrap => cohort_phase::BOOTSTRAP,
        Phase::Efficient => cohort_phase::EFFICIENT,
        Phase::LastDownload => cohort_phase::LAST_DOWNLOAD,
        Phase::Done => cohort_phase::DONE,
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
        core.metrics
            .entropy
            .push((round, core.replication.entropy()));
        // Potential-set sizes and utilization are steady-state
        // measurements, so they respect the warm-up.
        let in_steady_state = round >= core.config.metrics_warmup_rounds;
        let k = f64::from(core.config.max_connections);
        let mut conn_total = 0usize;
        for i in 0..population {
            let id = core.tracker.peers()[i];
            // One slab lookup per peer: the pieces held and every
            // neighbor's tradability come from the possession table.
            let peer = core.store.peer(id);
            let potential = core.potential_of(peer);
            let connections = peer.connections.len() as u32;
            let pieces = core.store.have(id.into()).count();
            if in_steady_state {
                core.metrics.potential_sum_by_pieces[pieces as usize] += f64::from(potential);
                core.metrics.potential_count_by_pieces[pieces as usize] += 1;
            }
            conn_total += connections as usize;
            if core.cohort.is_member(id.seq()) {
                core.cohort.observe(round, id.seq(), pieces, connections);
                let state = DownloadState::new(connections, pieces, potential);
                let phase = Phase::classify(state, core.config.pieces);
                core.cohort.phase(round, id.seq(), phase_code(phase));
            }
            if let Some(log) = core.observer_log(id) {
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
