//! Connection pruning.

use rand::Rng;

use crate::engine::SwarmCore;
use crate::peer::PeerRef;
use crate::stages::RoundStage;

/// Drops connections that lost mutual interest or fail the per-round
/// `p_r` survival roll (the paper's re-encounter probability).
///
/// Tradability is read from the possession table's rows and the
/// sequence numbers from the id table, so a pair that survives costs
/// no slab lookup.
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
            let tradable = core.store.have(a).can_trade_with(core.store.have(b));
            let (seq_a, seq_b) = (core.store.id_at(a).seq(), core.store.id_at(b).seq());
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
