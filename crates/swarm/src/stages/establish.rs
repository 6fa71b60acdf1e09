//! Connection establishment.

use std::cmp::Reverse;

use rand::Rng;

use crate::engine::SwarmCore;
use crate::peer::{Peer, PeerId};
use crate::stages::RoundStage;

/// Fills free connection slots from the potential set: tit-for-tat
/// preference with an optimistic-unchoke slot, success probability
/// `p_n`, capped at `k` connections and optionally at
/// `new_connections_per_round` initiations.
#[derive(Debug, Default)]
pub struct EstablishConnections {
    order: Vec<PeerId>,
    tradable: Vec<PeerId>,
    candidates: Vec<PeerId>,
}

// bt-stage: reads(config, round, tracker), writes(audit, cohort, obs, profile, rng, store)
impl RoundStage for EstablishConnections {
    fn name(&self) -> &'static str {
        "establish"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        let k = core.config.max_connections as usize;
        // Randomized service order prevents low ids from monopolizing
        // slots (Fisher–Yates, identical RNG consumption to a shuffle).
        self.order.clear();
        self.order.extend_from_slice(core.tracker.peers());
        for i in (1..self.order.len()).rev() {
            let j = core.rng.gen_range(0..=i);
            self.order.swap(i, j);
        }
        let attempt_cap = core
            .config
            .new_connections_per_round
            .map_or(usize::MAX, |c| c as usize);
        // Candidate-viability comparisons, for cost attribution: the
        // neighbors a peer's first attempt scans, plus the tradable
        // entries each later attempt re-filters.
        let blind = core.config.blind_encounters;
        let mut total_comparisons = 0u64;
        for &id in &self.order {
            let mut initiated = 0usize;
            let mut comparisons = 0u64;
            loop {
                if initiated >= attempt_cap || core.store.peer(id).connections.len() >= k {
                    break;
                }
                // Potential candidates; with blind encounters the remote
                // slot occupancy is unknown at selection time.
                let store = &core.store;
                let me = store.peer(id);
                let open = |other: PeerId, remote: &Peer| {
                    !me.is_connected(other) && (blind || remote.connections.len() < k)
                };
                self.candidates.clear();
                if initiated == 0 {
                    // Bitfields and liveness cannot change inside this
                    // stage: the first attempt's scan also keeps the
                    // alive, tradable neighbors for later attempts, which
                    // re-filter only those for open slots.
                    comparisons += me.neighbors.len() as u64;
                    self.tradable.clear();
                    for &other in &me.neighbors {
                        let Some(remote) = store.get(other) else {
                            continue;
                        };
                        if me.have.can_trade_with(&remote.have) {
                            self.tradable.push(other);
                            if open(other, remote) {
                                self.candidates.push(other);
                            }
                        }
                    }
                } else {
                    comparisons += self.tradable.len() as u64;
                    self.candidates.extend(
                        self.tradable
                            .iter()
                            .copied()
                            .filter(|&other| open(other, store.peer(other))),
                    );
                }
                if self.candidates.is_empty() {
                    break;
                }
                // Optimistic unchoke or tit-for-tat preference.
                let choice = if core.rng.gen::<f64>() < core.config.optimistic_prob {
                    self.candidates[core.rng.gen_range(0..self.candidates.len())]
                } else {
                    // Ids are unique, so the least key is the peer a sort
                    // would put first.
                    *self
                        .candidates
                        .iter()
                        .min_by_key(|&&c| (Reverse(me.credit_for(c)), c))
                        .expect("candidates checked non-empty")
                };
                // A blind attempt against a fully busy target fails.
                core.obs.conn_attempts.incr();
                let target_busy = core.store.peer(choice).connections.len() >= k;
                if !target_busy && core.rng.gen::<f64>() < core.config.p_new_connection {
                    core.store.peer_mut(id).connections.push(choice);
                    core.store.peer_mut(choice).connections.push(id);
                    core.obs.conn_successes.incr();
                    core.audit.conn_opened += 1;
                    core.cohort.slot(core.round, id.seq(), choice.seq(), true);
                    core.cohort.slot(core.round, choice.seq(), id.seq(), true);
                    initiated += 1;
                } else {
                    // Failed attempt consumes the round's chance with this
                    // candidate; stop trying to avoid infinite retries.
                    break;
                }
            }
            if comparisons > 0 {
                core.profile.add_peer_work(id.seq(), comparisons);
            }
            total_comparisons += comparisons;
        }
        core.profile
            .add_work("establish.candidate_comparisons", total_comparisons);
    }
}
