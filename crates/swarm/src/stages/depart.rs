//! Departures: completed peers leave immediately.

use crate::engine::SwarmCore;
use crate::metrics::CompletionRecord;
use crate::peer::PeerId;
use crate::stages::RoundStage;

/// Removes every peer that completed its download this round (the
/// paper's no-seeding assumption) and records its completion, unless it
/// joined during the metrics warm-up window.
///
/// Disabling this stage turns the swarm into a closed population where
/// finished peers linger as de-facto seeds — useful for seeding-ratio
/// scenarios, though completion metrics then stay empty.
#[derive(Debug, Default)]
pub struct DepartCompleted {
    done: Vec<PeerId>,
}

// bt-stage: reads(config, round), writes(audit, cohort, metrics, obs, piece_cells, profile, replication, store, tracker)
impl RoundStage for DepartCompleted {
    fn name(&self) -> &'static str {
        "depart"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        self.done.clear();
        for &id in core.tracker.peers() {
            if core.store.peer(id).have.is_complete() {
                self.done.push(id);
            }
        }
        core.profile
            .add_work("depart.departures", self.done.len() as u64);
        for &id in &self.done {
            // core.depart is the audit hook: it tallies the departure,
            // the pieces carried away, and the connections closed.
            let peer = core.depart(id);
            core.cohort.depart(core.round, id.seq(), peer.have.count());
            // Peers that joined during warm-up carry transient startup
            // dynamics; they depart normally but leave no record.
            if peer.joined_round >= core.config.metrics_warmup_rounds {
                let mut acq: Vec<u64> = peer
                    .piece_round
                    .iter()
                    .copied()
                    .filter(|&r| r != u64::MAX)
                    .collect();
                acq.sort_unstable();
                core.metrics.completions.push(CompletionRecord {
                    id,
                    joined_round: peer.joined_round,
                    completed_round: core.round,
                    acquisition_rounds: acq,
                    slow: peer.slow,
                });
                core.obs.completions.incr();
            }
            core.metrics.departures += 1;
            core.obs.departures.incr();
        }
    }
}
