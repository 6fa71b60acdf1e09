//! Piece exchange: one piece per direction per connection, executed as
//! a two-phase plan/commit stage.
//!
//! **Plan** (parallel, read-only): over an immutable [`CoreView`], every
//! connection pair gets a ranked candidate list per direction, drawn
//! from a stateless [`PlanStream`] keyed off run seed + round + the
//! pair's sequence numbers + direction. Worker threads only distribute
//! pairs across shards; since no decision depends on which shard made
//! it, the output is byte-identical at every `--threads` value and a
//! 1-shard plan equals an N-shard plan exactly.
//!
//! **Commit** (serial, RNG-free): applies decisions in canonical pair
//! order — live tradability re-check, candidate resolution against live
//! taken/possession state, block transfers, credits, budgets, audit,
//! cohort, piece-cell, and profiler events all land in deterministic
//! order.
//!
//! Candidates are ranked against *start-of-round* bitfields: the
//! paper's peers select against the replication state advertised at the
//! start of the round, not against in-flight deliveries. Block
//! continuity (finishing an in-flight partial piece) is resolved live
//! at commit — it depends on mid-round partial state but needs no
//! randomness.

use crate::engine::{CoreView, SwarmCore};
use crate::peer::{Peer, PeerId};
use crate::piece::Bitfield;
use crate::selection::{rank_pieces, PlanStream};
use crate::stages::RoundStage;

/// Executes the round's exchanges under strict tit-for-tat: every
/// connection swaps one piece in each direction, or nothing at all.
///
/// This is the engine's hot path, and all per-peer state lives in
/// slot-indexed scratch tables reused across rounds (the generational
/// store keeps slot indices dense, so the tables stay small):
///
/// * `rep` — the downloader's neighbor-local replication view, computed
///   once per round from pre-exchange bitfields for every pair member;
/// * `taken` — pieces already claimed this round per peer;
/// * `budgets` — remaining upload budget (slow-peer bandwidth class);
/// * `plans` — per-pair ranked candidate lists from the plan phase.
///
/// `stamp` marks which slots were initialized this round; stale entries
/// from earlier rounds are never read, so nothing needs clearing.
#[derive(Debug, Default)]
pub struct ExchangePieces {
    pairs: Vec<(PeerId, PeerId)>,
    stamp: Vec<u64>,
    rep: Vec<Vec<u64>>,
    taken: Vec<Vec<u32>>,
    budgets: Vec<u32>,
    plans: Vec<PairPlan>,
    involved: Vec<PeerId>,
    threads: u32,
}

/// The plan phase's output for one connection pair: a ranked candidate
/// list per download direction (`down_lo` = the lower-sequence peer
/// downloads from the higher, `down_hi` the reverse).
#[derive(Debug, Default)]
struct PairPlan {
    down_lo: Vec<u32>,
    down_hi: Vec<u32>,
}

/// Prefer finishing an in-flight partial piece the uploader has (block
/// continuity); otherwise the caller resolves a planned candidate.
fn continue_piece(downloader: &Peer, uploader_have: &Bitfield) -> Option<u32> {
    downloader
        .partial
        .keys()
        .copied()
        .filter(|&piece| uploader_have.contains(piece))
        .min()
}

/// Resolves the piece one direction of a pair actually downloads:
/// block continuity first, then the best planned candidate the
/// downloader neither holds nor has already claimed this round, then —
/// mirroring the serial fallback — the best unheld candidate even if
/// claimed elsewhere (duplicates are deduplicated on receipt).
fn resolve_candidate(
    downloader: &Peer,
    uploader_have: &Bitfield,
    candidates: &[u32],
    taken: &[u32],
) -> Option<u32> {
    if let Some(piece) = continue_piece(downloader, uploader_have) {
        return Some(piece);
    }
    candidates
        .iter()
        .copied()
        .find(|&c| !downloader.have.contains(c) && !taken.contains(&c))
        .or_else(|| {
            candidates
                .iter()
                .copied()
                .find(|&c| !downloader.have.contains(c))
        })
}

/// Fills the neighbor-local replication views for one shard of involved
/// peers, counting scanned bitfield words into `words` for cost
/// attribution.
fn fill_rep_shard(view: CoreView<'_>, tasks: &mut [(PeerId, &mut Vec<u64>)], words: &mut u64) {
    let pieces = view.config.pieces as usize;
    let words_per_field = (pieces as u64).div_ceil(64);
    for (id, counts) in tasks {
        let peer = view.store.peer(*id);
        counts.clear();
        counts.resize(pieces, 0);
        for &n in &peer.neighbors {
            if let Some(other) = view.store.get(n) {
                other.have.accumulate_into(counts);
                *words += words_per_field;
            }
        }
    }
}

/// Plans one shard of connection pairs: per direction, a ranked
/// candidate list drawn from that direction's [`PlanStream`].
fn plan_pairs_shard(
    view: CoreView<'_>,
    rep: &[Vec<u64>],
    pairs: &[(PeerId, PeerId)],
    plans: &mut [PairPlan],
) {
    let strategy = view.config.piece_selection;
    let seed = view.config.seed;
    // A downloader invalidates at most one candidate per other
    // connection (a claim or a mid-round acquisition), so k + 1 ranked
    // candidates always leave a usable one when any exists.
    let limit = view.config.max_connections as usize + 1;
    for (&(a, b), plan) in pairs.iter().zip(plans) {
        let peer_a = view.store.peer(a);
        let peer_b = view.store.peer(b);
        let mut stream = PlanStream::pair(seed, view.round, a.seq(), b.seq(), 0);
        rank_pieces(
            strategy,
            &peer_a.have,
            &peer_b.have,
            &rep[a.slot() as usize],
            limit,
            &mut stream,
            &mut plan.down_lo,
        );
        let mut stream = PlanStream::pair(seed, view.round, a.seq(), b.seq(), 1);
        rank_pieces(
            strategy,
            &peer_b.have,
            &peer_a.have,
            &rep[b.slot() as usize],
            limit,
            &mut stream,
            &mut plan.down_hi,
        );
    }
}

impl ExchangePieces {
    /// The read-only plan phase: initializes the round's scratch tables,
    /// fills the neighbor-local replication views, and ranks candidate
    /// pieces for every pair direction — sharded across the configured
    /// worker count. Returns the number of bitfield words scanned while
    /// accumulating replication views, for cost attribution.
    fn plan(&mut self, core: &SwarmCore) -> u64 {
        let round = core.round;
        let view = core.view();

        // Serial prepare walk: stamp the slots involved this round and
        // reset their budgets and claim lists. Views are computed from
        // pre-exchange bitfields: the paper's peers select against the
        // replication state advertised at the start of the round.
        let capacity = view.store.capacity();
        if self.stamp.len() < capacity {
            self.stamp.resize(capacity, 0);
            self.rep.resize_with(capacity, Vec::new);
            self.taken.resize_with(capacity, Vec::new);
            self.budgets.resize(capacity, 0);
        }
        self.involved.clear();
        for &(a, b) in &self.pairs {
            for id in [a, b] {
                let slot = id.slot() as usize;
                if self.stamp[slot] == round {
                    continue;
                }
                self.stamp[slot] = round;
                self.involved.push(id);
                // Heterogeneous bandwidth: slow peers can serve only a
                // bounded number of block-transfers per round.
                self.budgets[slot] = if view.store.peer(id).slow {
                    view.config.slow_upload_budget
                } else {
                    u32::MAX
                };
                self.taken[slot].clear();
            }
        }
        let workers = (self.threads.max(1) as usize).min(self.involved.len().max(1));

        // Parallel replication-view fill. Each involved peer owns a
        // distinct slot, so handing shards disjoint `&mut` count
        // buffers needs no locking: the buffers come from one
        // `iter_mut` pass (slot order) zipped against the involved ids
        // sorted the same way.
        self.involved.sort_unstable_by_key(|id| id.slot());
        let stamp = &self.stamp;
        let mut tasks: Vec<(PeerId, &mut Vec<u64>)> = self
            .involved
            .iter()
            .copied()
            .zip(
                self.rep
                    .iter_mut()
                    .enumerate()
                    .filter(|&(slot, _)| stamp[slot] == round)
                    .map(|(_, counts)| counts),
            )
            .collect();
        let mut lane_words = vec![0u64; workers];
        if workers <= 1 {
            fill_rep_shard(view, &mut tasks, &mut lane_words[0]);
        } else {
            let shard = tasks.len().div_ceil(workers).max(1);
            std::thread::scope(|scope| {
                for (task_shard, words) in tasks.chunks_mut(shard).zip(lane_words.iter_mut()) {
                    scope.spawn(move || fill_rep_shard(view, task_shard, words));
                }
            });
        }
        // Fixed lane-order merge (summation commutes, but the order is
        // pinned anyway so the merge never becomes scheduling-visible).
        let words_scanned: u64 = lane_words.iter().sum();

        // Parallel pair planning over immutable replication views.
        self.plans.resize_with(self.pairs.len(), PairPlan::default);
        let rep = &self.rep;
        let pair_workers = (self.threads.max(1) as usize).min(self.pairs.len().max(1));
        if pair_workers <= 1 {
            plan_pairs_shard(view, rep, &self.pairs, &mut self.plans);
        } else {
            let shard = self.pairs.len().div_ceil(pair_workers).max(1);
            let pairs = &self.pairs;
            std::thread::scope(|scope| {
                for (pair_shard, plan_shard) in
                    pairs.chunks(shard).zip(self.plans.chunks_mut(shard))
                {
                    scope.spawn(move || plan_pairs_shard(view, rep, pair_shard, plan_shard));
                }
            });
        }
        words_scanned
    }

    /// The serial, RNG-free commit phase: applies planned decisions in
    /// canonical pair order. Returns the number of block transfers.
    fn commit(&mut self, core: &mut SwarmCore) -> u64 {
        let mut transfers = 0u64;
        for i in 0..self.pairs.len() {
            let (a, b) = self.pairs[i];
            let (slot_a, slot_b) = (a.slot() as usize, b.slot() as usize);
            // Strict tit-for-tat needs upload budget on both sides.
            if self.budgets[slot_a] == 0 || self.budgets[slot_b] == 0 {
                continue;
            }
            // Re-check tradability live: earlier commits this round may
            // have exhausted the novelty.
            if !core
                .store
                .peer(a)
                .have
                .can_trade_with(&core.store.peer(b).have)
            {
                core.store.peer_mut(a).connections.retain(|&p| p != b);
                core.store.peer_mut(b).connections.retain(|&p| p != a);
                core.audit.conn_closed += 1;
                core.cohort.slot(core.round, a.seq(), b.seq(), false);
                core.cohort.slot(core.round, b.seq(), a.seq(), false);
                continue;
            }
            let wanted_a = resolve_candidate(
                core.store.peer(a),
                &core.store.peer(b).have,
                &self.plans[i].down_lo,
                &self.taken[slot_a],
            );
            let wanted_b = resolve_candidate(
                core.store.peer(b),
                &core.store.peer(a).have,
                &self.plans[i].down_hi,
                &self.taken[slot_b],
            );
            // Strict tit-for-tat: the swap happens only if both
            // directions carry a block.
            let (Some(piece_a), Some(piece_b)) = (wanted_a, wanted_b) else {
                continue;
            };
            if core.receive_block(a, piece_a) {
                core.store.peer_mut(a).record_credit(b);
                core.cohort
                    .acquire(core.round, a.seq(), piece_a, bt_obs::acquire_source::EXCHANGE);
            }
            if core.receive_block(b, piece_b) {
                core.store.peer_mut(b).record_credit(a);
                core.cohort
                    .acquire(core.round, b.seq(), piece_b, bt_obs::acquire_source::EXCHANGE);
            }
            // One block moved in each direction.
            core.obs.pieces_exchanged.add(2);
            transfers += 2;
            core.profile.add_peer_work(a.seq(), 1);
            core.profile.add_peer_work(b.seq(), 1);
            self.taken[slot_a].push(piece_a);
            self.taken[slot_b].push(piece_b);
            self.budgets[slot_a] = self.budgets[slot_a].saturating_sub(1);
            self.budgets[slot_b] = self.budgets[slot_b].saturating_sub(1);
        }
        transfers
    }
}

// bt-stage: plan-reads(config, round, tracker), commit-writes(audit, cohort, obs, piece_cells, profile, replication, store)
impl RoundStage for ExchangePieces {
    fn name(&self) -> &'static str {
        "exchange"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        core.collect_connection_pairs(&mut self.pairs);
        let words_scanned = self.plan(core);
        core.profile
            .add_work("exchange.bitfield_words", words_scanned);
        let transfers = self.commit(core);
        core.profile.add_work("exchange.piece_transfers", transfers);
    }

    fn set_threads(&mut self, threads: u32) {
        self.threads = threads;
    }
}
