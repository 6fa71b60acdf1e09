//! Connection pruning.

use rand::Rng;

use crate::engine::SwarmCore;
use crate::peer::PeerId;
use crate::stages::RoundStage;

/// Drops connections that lost mutual interest or fail the per-round
/// `p_r` survival roll (the paper's re-encounter probability).
#[derive(Debug, Default)]
pub struct PruneConnections {
    pairs: Vec<(PeerId, PeerId)>,
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
            let tradable = core
                .store
                .peer(a)
                .have
                .can_trade_with(&core.store.peer(b).have);
            let survives = core.rng.gen::<f64>() < core.config.p_reencounter;
            if !tradable || !survives {
                core.store.peer_mut(a).connections.retain(|&p| p != b);
                core.store.peer_mut(b).connections.retain(|&p| p != a);
                core.audit.conn_closed += 1;
                core.cohort.slot(core.round, a.seq(), b.seq(), false);
                core.cohort.slot(core.round, b.seq(), a.seq(), false);
            }
        }
    }
}
