//! Connection pruning.

use rand::Rng;

use crate::engine::SwarmCore;
use crate::peer::PeerRef;
use crate::stages::RoundStage;

/// Drops connections that lost mutual interest or fail the per-round
/// `p_r` survival roll (the paper's re-encounter probability).
#[derive(Debug, Default)]
pub struct PruneConnections {
    pairs: Vec<(PeerRef, PeerRef)>,
}

// bt-stage: reads(config, round, tracker), writes(audit, cohort, profile, rng, store)
impl RoundStage for PruneConnections {
    fn name(&self) -> &'static str {
        "prune"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        core.collect_connection_pairs(&mut self.pairs);
        core.profile
            .add_work("prune.pairs_checked", self.pairs.len() as u64);
        for &(a, b) in &self.pairs {
            let (peer_a, peer_b) = (core.store.peer_at(a), core.store.peer_at(b));
            let tradable = peer_a.have.can_trade_with(&peer_b.have);
            let (seq_a, seq_b) = (peer_a.id.seq(), peer_b.id.seq());
            let survives = core.rng.gen::<f64>() < core.config.p_reencounter;
            if !tradable || !survives {
                core.store.peer_at_mut(a).connections.retain(|&p| p != b);
                core.store.peer_at_mut(b).connections.retain(|&p| p != a);
                core.audit.conn_closed += 1;
                core.cohort.slot(core.round, seq_a, seq_b, false);
                core.cohort.slot(core.round, seq_b, seq_a, false);
            }
        }
    }
}
