//! Neighbor-set maintenance: symmetric top-up from the tracker.

use crate::engine::SwarmCore;
use crate::peer::PeerId;
use crate::stages::RoundStage;

/// Tops every under-populated neighbor set back up to `s` with a fresh
/// tracker handout (paper §2.1: periodic tracker contact).
///
/// The handout excludes the peer's current neighbors by borrowing the
/// neighbor list in place — the old engine cloned it per peer per round.
///
/// Tracker contact is amortized by `reannounce_interval`: the top-up
/// runs only on rounds where `(round - 1) % interval == 0` (rounds 1,
/// R+1, 2R+1, …), so the default of 1 re-announces every round — the
/// original behavior, RNG stream included — while larger values shrink
/// `maintain.handout_entries` at the cost of staler neighborhoods.
///
/// Work counters: `maintain.handout_entries` counts peers handed out,
/// `maintain.tracker_probes` the candidates the tracker examined to
/// pick them.
#[derive(Debug, Default)]
pub struct MaintainNeighbors {
    handout: Vec<PeerId>,
}

// bt-stage: reads(config, round, tracker), writes(audit, cohort, profile, rng, store)
impl RoundStage for MaintainNeighbors {
    fn name(&self) -> &'static str {
        "maintain"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        // Pre-reannounce configs deserialize the interval as 0; treat
        // that as the old every-round behavior.
        let interval = core.config.reannounce_interval.max(1);
        if !core.round.saturating_sub(1).is_multiple_of(interval) {
            return;
        }
        let s = core.config.neighbor_set_size as usize;
        let (mut handed, mut probes) = (0u64, 0u64);
        // No stage mutates the tracker's alive list mid-round, so
        // indexing it afresh each iteration observes a stable order.
        for i in 0..core.tracker.len() {
            let id = core.tracker.peers()[i];
            let need = s.saturating_sub(core.store.peer(id).neighbors.len());
            if need == 0 {
                continue;
            }
            probes += core.tracker.handout_into(
                &mut self.handout,
                id,
                &core.store.peer(id).neighbors,
                need,
                &mut core.rng,
            );
            let entries = self.handout.len() as u64;
            if entries > 0 {
                core.profile.add_peer_work(id.seq(), entries);
                core.cohort.handout(core.round, id.seq(), entries as u32);
            }
            handed += entries;
            for &other in &self.handout {
                core.add_symmetric_neighbor(id, other, false);
            }
        }
        core.profile.add_work("maintain.handout_entries", handed);
        core.profile.add_work("maintain.tracker_probes", probes);
        core.audit.neighbor_handouts += handed;
    }
}
