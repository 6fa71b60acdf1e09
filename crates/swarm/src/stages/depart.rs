//! Departures: completed peers leave immediately.

use crate::engine::SwarmCore;
use crate::peer::PeerId;
use crate::stages::RoundStage;

/// Removes every peer that completed its download this round (the
/// paper's no-seeding assumption) and counts its completion into the
/// completion statistics (and the completion stream, when attached),
/// unless it joined during the metrics warm-up window.
///
/// Disabling this stage turns the swarm into a closed population where
/// finished peers linger as de-facto seeds — useful for seeding-ratio
/// scenarios, though completion metrics then stay empty.
#[derive(Debug, Default)]
pub struct DepartCompleted {
    done: Vec<PeerId>,
}

// bt-stage: reads(config, round), writes(audit, cohort, completion_stream, metrics, obs, piece_cells, profile, replication, store, tracker)
impl RoundStage for DepartCompleted {
    fn name(&self) -> &'static str {
        "depart"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        self.done.clear();
        for &id in core.tracker.peers() {
            if core.store.have(id.into()).is_complete() {
                self.done.push(id);
            }
        }
        core.profile
            .add_work("depart.departures", self.done.len() as u64);
        for &id in &self.done {
            // core.depart is the audit hook: it tallies the departure,
            // the pieces carried away, and the connections closed.
            let held = core.store.have(id.into()).count();
            let peer = core.depart(id);
            core.cohort.depart(core.round, id.seq(), held);
            // Peers that joined during warm-up carry transient startup
            // dynamics; they depart normally but are not counted.
            if peer.joined_round >= core.config.metrics_warmup_rounds {
                // The acquisition log is already in round order.
                let rounds = peer.acquisition_rounds();
                core.metrics.completions.record(
                    peer.joined_round,
                    core.round,
                    rounds.iter().map(|&r| u64::from(r)),
                    peer.slow,
                );
                core.completion_stream
                    .write(id, peer.joined_round, core.round, rounds, peer.slow);
                let round = core.round;
                if let Some(log) = core.observer_log(id) {
                    log.completed_round = Some(round);
                }
                core.obs.completions.incr();
            }
            core.metrics.departures += 1;
            core.obs.departures.incr();
        }
    }
}
