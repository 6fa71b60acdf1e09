//! Peer-set shaking (§7.1).

use crate::engine::SwarmCore;
use crate::peer::PeerRef;
use crate::stages::RoundStage;

/// Peers crossing the `shake_at` completion threshold drop their whole
/// neighbor set exactly once; the maintenance stage refills them from
/// the tracker next round. A no-op when `shake_at` is unset (the
/// default pipeline omits the stage entirely in that case).
///
/// The neighbor list is emptied in place, so it keeps the `s` slots
/// reserved when the peer joined.
#[derive(Debug, Default)]
pub struct ShakePeers {
    ex_neighbors: Vec<PeerRef>,
}

// bt-stage: reads(config, round, tracker), writes(audit, cohort, obs, profile, store)
impl RoundStage for ShakePeers {
    fn name(&self) -> &'static str {
        "shake"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        let Some(threshold) = core.config.shake_at else {
            return;
        };
        let mut shaken = 0u64;
        for i in 0..core.tracker.len() {
            let id = core.tracker.peers()[i];
            let peer = core.store.peer(id);
            if peer.shaken || core.store.have(id.into()).completion() < threshold {
                continue;
            }
            core.audit.conn_closed += core.store.peer(id).connections.len() as u64;
            // `append` empties the list but keeps its allocation.
            self.ex_neighbors.clear();
            self.ex_neighbors
                .append(&mut core.store.peer_mut(id).neighbors);
            core.store.peer_mut(id).shake();
            core.obs.shakes.incr();
            core.cohort.shake(core.round, id.seq());
            shaken += 1;
            for &other in &self.ex_neighbors {
                if let Some(o) = core.store.at_mut(other) {
                    o.remove_neighbor(id.into());
                }
            }
        }
        core.profile.add_work("shake.peers_shaken", shaken);
        core.audit.shaken_peers += shaken;
    }
}
