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
use crate::peer::{Peer, PeerRef};
use crate::piece::{lane_words, Row};
use crate::selection::{PlanStream, Ranker};
use crate::stages::RoundStage;

/// Executes the round's exchanges under strict tit-for-tat: every
/// connection swaps one piece in each direction, or nothing at all.
///
/// This is the engine's hot path, and all per-peer state lives in
/// slot-indexed scratch tables reused across rounds (the generational
/// store keeps slot indices dense, so the tables stay small):
///
/// * `lanes` — the downloader's neighbor-local replication view, one
///   byte lane per piece ([`Row::accumulate_lanes`]), computed once
///   per round from pre-exchange rows for every pair member;
/// * `taken` — pieces already claimed this round per peer;
/// * `budgets` — remaining upload budget (slow-peer bandwidth class);
/// * `earlier` — how many of a peer's pairs the prepare walk has passed;
/// * `plans` — per-pair list lengths and commit positions from the plan
///   phase, and `ranks` — the lists themselves: one flat table in which
///   pair `i` owns the window of `2 * stride` ranks at `2 * stride * i`,
///   its `lo` direction's `rank_stride` ranks, then its `hi`
///   direction's. The table outlives the round, so a warm plan table
///   allocates nothing.
///
/// `stamp` marks which slots were initialized this round; stale entries
/// from earlier rounds are never read, so nothing needs clearing.
///
/// `pairs` holds each connection as two 8-byte slab references. The
/// plan reads possession from the store's possession table and the
/// sequence numbers its streams need from the store's id table, so it
/// looks up no peer but the fill's downloaders (for their neighbor
/// lists); the commit looks up the peers whose partial pieces and
/// credit it reads and writes.
#[derive(Debug, Default)]
pub struct ExchangePieces {
    pairs: Vec<(PeerRef, PeerRef)>,
    stamp: Vec<u64>,
    lanes: Vec<u64>,
    taken: Vec<Vec<u32>>,
    budgets: Vec<u32>,
    earlier: Vec<u32>,
    plans: Vec<PairPlan>,
    ranks: Vec<u32>,
    involved: Vec<PeerRef>,
    threads: u32,
}

/// The plan phase's output for one connection pair: the length of the
/// ranked candidate list of each download direction (`lo` = the
/// lower-sequence peer downloads from the higher, `hi` the reverse),
/// and for each downloader the number of its pairs that commit before
/// this one (`earlier_lo`, `earlier_hi`). The lists themselves live in
/// the pair's window of the flat rank table.
#[derive(Debug, Default, Clone, Copy)]
struct PairPlan {
    len_lo: u32,
    len_hi: u32,
    earlier_lo: u32,
    earlier_hi: u32,
}

/// Ranks one direction of a pair may keep: each earlier pair of the
/// downloader in commit order claims (and may acquire) at most one
/// piece, so at its `j`-th pair at most `j` ranked candidates can be
/// invalid and `j + 1` ranks always hold the first usable one. A peer
/// has at most `k` connections, so `k + 1` ranks always suffice.
fn rank_stride(max_connections: u32) -> usize {
    max_connections as usize + 1
}

/// Prefer finishing an in-flight partial piece the uploader has (block
/// continuity); otherwise the caller resolves a planned candidate.
fn continue_piece(downloader: &Peer, uploader_have: Row<'_>) -> Option<u32> {
    downloader
        .partial
        .keys()
        .copied()
        .filter(|&piece| uploader_have.contains(piece))
        .min()
}

/// Resolves the piece one direction of a pair actually downloads:
/// block continuity first, then the planned candidates
/// ([`first_usable`]).
fn resolve_candidate(
    downloader: &Peer,
    downloader_have: Row<'_>,
    uploader_have: Row<'_>,
    candidates: &[u32],
    taken: &[u32],
    earlier: u32,
) -> Option<u32> {
    if let Some(piece) = continue_piece(downloader, uploader_have) {
        return Some(piece);
    }
    first_usable(downloader_have, candidates, taken, earlier)
}

/// The best planned candidate the downloader neither holds nor has
/// already claimed this round, then — mirroring the serial fallback —
/// the best unheld candidate even if claimed elsewhere (duplicates are
/// deduplicated on receipt).
///
/// Each of the downloader's `earlier` pairs claims at most one piece,
/// so at most `earlier` ranks can be invalid and the plan draws only
/// `earlier + 1` of them.
fn first_usable(have: Row<'_>, candidates: &[u32], taken: &[u32], earlier: u32) -> Option<u32> {
    if let Some(rank) = candidates
        .iter()
        .position(|&c| !have.contains(c) && !taken.contains(&c))
    {
        debug_assert!(
            rank <= earlier as usize,
            "resolution skipped {rank} ranks after {earlier} earlier pairs"
        );
        return Some(candidates[rank]);
    }
    candidates.iter().copied().find(|&c| !have.contains(c))
}

/// One shard's work counts: the shard's own unit (bitfield words or
/// ranked candidates) and its slab lookups (only the fill makes any:
/// one per downloader, for its neighbor list). Shards look up peers
/// uncounted ([`PeerStore::lookup`](crate::store::PeerStore::lookup)); the
/// lookups are added to the store's probe count after the join.
#[derive(Debug, Clone, Copy, Default)]
struct ShardWork {
    units: u64,
    probes: u64,
}

impl ShardWork {
    /// Resolves a peer the shard knows is alive, counting the lookup.
    fn peer<'a>(&mut self, view: CoreView<'a>, r: PeerRef) -> &'a Peer {
        self.probes += 1;
        view.store
            .lookup(r)
            .expect("peer departed but was referenced")
    }
}

/// Fills the neighbor-local replication views for one shard of involved
/// peers, counting scanned bitfield words for cost attribution. Each
/// downloader is looked up for its neighbor list; the neighbors are
/// read as rows, their liveness checked against the id table.
fn fill_lanes_shard(view: CoreView<'_>, tasks: &mut [(PeerRef, &mut [u64])], work: &mut ShardWork) {
    let words_per_field = u64::from(view.config.pieces).div_ceil(64);
    for (r, lanes) in tasks {
        let peer = work.peer(view, *r);
        // Byte lanes count exactly up to 255 neighbors. The config
        // builder caps the neighbor set there, but its fields are
        // public, so an edited config must fail here rather than carry
        // counts into the next lane.
        assert!(
            peer.neighbors.len() <= 255,
            "neighbor set overflows a byte lane"
        );
        lanes.fill(0);
        for &n in &peer.neighbors {
            if let Some(theirs) = view.store.have_at(n) {
                theirs.accumulate_lanes(lanes);
                work.units += words_per_field;
            }
        }
    }
}

/// Plans one shard of connection pairs: per direction, a ranked
/// candidate list drawn from that direction's [`PlanStream`], ranked
/// into the shard's own scratch list and copied into the pair's window
/// of `ranks` (the shard's part of the flat table). Counts the
/// candidates the ranker examined. Reads rows and the id table only:
/// no slab lookup.
fn plan_pairs_shard(
    view: CoreView<'_>,
    lanes: &[u64],
    pairs: &[(PeerRef, PeerRef)],
    plans: &mut [PairPlan],
    ranks: &mut [u32],
    work: &mut ShardWork,
) {
    let mut ranker = Ranker::new(view.config.piece_selection);
    let mut ranked = Vec::new();
    let seed = view.config.seed;
    let lane_stride = lane_words(view.config.pieces);
    let view_of = |r: PeerRef| {
        let at = r.slot() as usize * lane_stride;
        &lanes[at..at + lane_stride]
    };
    let stride = rank_stride(view.config.max_connections);
    let windows = ranks.chunks_exact_mut(2 * stride);
    for ((&(a, b), plan), window) in pairs.iter().zip(plans).zip(windows) {
        let (seq_a, seq_b) = (view.store.id_at(a).seq(), view.store.id_at(b).seq());
        let (have_a, have_b) = (view.store.have(a), view.store.have(b));
        let (down_lo, down_hi) = window.split_at_mut(stride);
        let mut stream = PlanStream::pair(seed, view.round, seq_a, seq_b, 0);
        work.units += ranker.rank(
            have_a,
            have_b,
            view_of(a),
            stride.min(plan.earlier_lo as usize + 1),
            &mut stream,
            &mut ranked,
        );
        down_lo[..ranked.len()].copy_from_slice(&ranked);
        plan.len_lo = ranked.len() as u32;
        let mut stream = PlanStream::pair(seed, view.round, seq_a, seq_b, 1);
        work.units += ranker.rank(
            have_b,
            have_a,
            view_of(b),
            stride.min(plan.earlier_hi as usize + 1),
            &mut stream,
            &mut ranked,
        );
        down_hi[..ranked.len()].copy_from_slice(&ranked);
        plan.len_hi = ranked.len() as u32;
    }
}

/// The plan phase's work counts, for cost attribution.
#[derive(Default)]
struct PlanWork {
    /// Bitfield words scanned while filling replication views.
    words: u64,
    /// Candidates the rankers examined.
    candidates: u64,
}

impl ExchangePieces {
    /// The read-only plan phase: initializes the round's scratch tables,
    /// fills the neighbor-local replication views, and ranks candidate
    /// pieces for every pair direction — sharded across the configured
    /// worker count.
    fn plan(&mut self, core: &SwarmCore) -> PlanWork {
        let round = core.round;
        let view = core.view();

        // Serial prepare walk: stamp the slots involved this round,
        // reset their budgets and claim lists, and number each pair
        // within its members' pairs in canonical (commit) order. Views
        // are computed from pre-exchange bitfields: the paper's peers
        // select against the replication state advertised at the start
        // of the round.
        let capacity = view.store.capacity();
        let stride = lane_words(view.config.pieces);
        if self.stamp.len() < capacity {
            self.stamp.resize(capacity, 0);
            self.taken.resize_with(capacity, Vec::new);
            self.budgets.resize(capacity, 0);
            self.earlier.resize(capacity, 0);
        }
        if self.lanes.len() < capacity * stride {
            self.lanes.resize(capacity * stride, 0);
        }
        if self.plans.len() < self.pairs.len() {
            self.plans.resize_with(self.pairs.len(), PairPlan::default);
        }
        let window = 2 * rank_stride(view.config.max_connections);
        if self.ranks.len() < self.pairs.len() * window {
            self.ranks.resize(self.pairs.len() * window, 0);
        }
        self.involved.clear();
        for (&(a, b), plan) in self.pairs.iter().zip(&mut self.plans) {
            for r in [a, b] {
                let slot = r.slot() as usize;
                if self.stamp[slot] == round {
                    continue;
                }
                self.stamp[slot] = round;
                self.involved.push(r);
                // Heterogeneous bandwidth: slow peers can serve only a
                // bounded number of block-transfers per round.
                self.budgets[slot] = if view.store.peer_at(r).slow {
                    view.config.slow_upload_budget
                } else {
                    u32::MAX
                };
                self.taken[slot].clear();
                self.earlier[slot] = 0;
            }
            plan.earlier_lo = self.earlier[a.slot() as usize];
            plan.earlier_hi = self.earlier[b.slot() as usize];
            self.earlier[a.slot() as usize] += 1;
            self.earlier[b.slot() as usize] += 1;
        }
        let workers = (self.threads.max(1) as usize).min(self.involved.len().max(1));

        // Parallel replication-view fill. Each involved peer owns a
        // distinct slot, so handing shards disjoint `&mut` lane
        // windows needs no locking: the windows come from one
        // `chunks_exact_mut` pass (slot order) zipped against the
        // involved ids sorted the same way.
        self.involved.sort_unstable_by_key(|r| r.slot());
        let stamp = &self.stamp;
        let mut tasks: Vec<(PeerRef, &mut [u64])> = self
            .involved
            .iter()
            .copied()
            .zip(
                self.lanes
                    .chunks_exact_mut(stride)
                    .enumerate()
                    .filter(|&(slot, _)| stamp[slot] == round)
                    .map(|(_, lanes)| lanes),
            )
            .collect();
        let mut fill_work = vec![ShardWork::default(); workers];
        if workers <= 1 {
            fill_lanes_shard(view, &mut tasks, &mut fill_work[0]);
        } else {
            let shard = tasks.len().div_ceil(workers).max(1);
            std::thread::scope(|scope| {
                for (task_shard, work) in tasks.chunks_mut(shard).zip(fill_work.iter_mut()) {
                    scope.spawn(move || fill_lanes_shard(view, task_shard, work));
                }
            });
        }

        // Parallel pair planning over immutable replication views.
        let lanes = &self.lanes;
        let pairs = &self.pairs;
        let plans = &mut self.plans[..pairs.len()];
        let ranks = &mut self.ranks[..pairs.len() * window];
        let pair_workers = (self.threads.max(1) as usize).min(pairs.len().max(1));
        let mut plan_work = vec![ShardWork::default(); pair_workers];
        if pair_workers <= 1 {
            plan_pairs_shard(view, lanes, pairs, plans, ranks, &mut plan_work[0]);
        } else {
            let shard = pairs.len().div_ceil(pair_workers).max(1);
            std::thread::scope(|scope| {
                for (((pair_shard, plan_shard), rank_shard), work) in pairs
                    .chunks(shard)
                    .zip(plans.chunks_mut(shard))
                    .zip(ranks.chunks_mut(shard * window))
                    .zip(plan_work.iter_mut())
                {
                    scope.spawn(move || {
                        plan_pairs_shard(view, lanes, pair_shard, plan_shard, rank_shard, work);
                    });
                }
            });
        }
        // Fixed lane-order merges (summation commutes, but the order is
        // pinned anyway so the merge never becomes scheduling-visible).
        let total = |work: &[ShardWork], unit: fn(&ShardWork) -> u64| work.iter().map(unit).sum();
        view.store.add_probes(total(&fill_work, |w| w.probes));
        PlanWork {
            words: total(&fill_work, |w| w.units),
            candidates: total(&plan_work, |w| w.units),
        }
    }

    /// The serial, RNG-free commit phase: applies planned decisions in
    /// canonical pair order. Returns the number of block transfers.
    fn commit(&mut self, core: &mut SwarmCore) -> u64 {
        let mut transfers = 0u64;
        let stride = rank_stride(core.config.max_connections);
        let windows = self.ranks.chunks_exact(2 * stride);
        for (i, window) in windows.take(self.pairs.len()).enumerate() {
            let (ref_a, ref_b) = self.pairs[i];
            let (slot_a, slot_b) = (ref_a.slot() as usize, ref_b.slot() as usize);
            // Strict tit-for-tat needs upload budget on both sides.
            if self.budgets[slot_a] == 0 || self.budgets[slot_b] == 0 {
                continue;
            }
            let (a, b) = (core.store.id_at(ref_a), core.store.id_at(ref_b));
            let (have_a, have_b) = (core.store.have(ref_a), core.store.have(ref_b));
            // Re-check tradability live: earlier commits this round may
            // have exhausted the novelty.
            if !have_a.can_trade_with(have_b) {
                core.store.peer_mut(a).connections.retain(|&p| p != ref_b);
                core.store.peer_mut(b).connections.retain(|&p| p != ref_a);
                core.audit.conn_closed += 1;
                core.cohort.slot(core.round, a.seq(), b.seq(), false);
                core.cohort.slot(core.round, b.seq(), a.seq(), false);
                continue;
            }
            let plan = self.plans[i];
            let (down_lo, down_hi) = window.split_at(stride);
            let wanted_a = resolve_candidate(
                core.store.peer_at(ref_a),
                have_a,
                have_b,
                &down_lo[..plan.len_lo as usize],
                &self.taken[slot_a],
                plan.earlier_lo,
            );
            let wanted_b = resolve_candidate(
                core.store.peer_at(ref_b),
                have_b,
                have_a,
                &down_hi[..plan.len_hi as usize],
                &self.taken[slot_b],
                plan.earlier_hi,
            );
            // Strict tit-for-tat: the swap happens only if both
            // directions carry a block.
            let (Some(piece_a), Some(piece_b)) = (wanted_a, wanted_b) else {
                continue;
            };
            if core.receive_block(a, piece_a) {
                core.store.peer_mut(a).record_credit(ref_b);
                core.cohort.acquire(
                    core.round,
                    a.seq(),
                    piece_a,
                    bt_obs::acquire_source::EXCHANGE,
                );
            }
            if core.receive_block(b, piece_b) {
                core.store.peer_mut(b).record_credit(ref_a);
                core.cohort.acquire(
                    core.round,
                    b.seq(),
                    piece_b,
                    bt_obs::acquire_source::EXCHANGE,
                );
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
        // The two phases' own timers (`exchange.plan`, `exchange.commit`)
        // split the stage's `round.exchange` time; they are not stage
        // timers, so nothing that sums `round.*` counts them twice.
        let mut work = PlanWork::default();
        core.obs.exchange_plan.time(|| work = self.plan(core));
        core.profile.add_work("exchange.bitfield_words", work.words);
        core.profile
            .add_work("exchange.rank_candidates", work.candidates);
        let mut transfers = 0;
        let commit_timer = core.obs.exchange_commit.clone();
        commit_timer.time(|| transfers = self.commit(core));
        core.profile.add_work("exchange.piece_transfers", transfers);
    }

    fn set_threads(&mut self, threads: u32) {
        self.threads = threads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PieceSelection;
    use crate::piece::Bitfield;

    fn bf(pieces: u32, have: &[u32]) -> Bitfield {
        let mut b = Bitfield::new(pieces);
        for &p in have {
            b.set(p);
        }
        b
    }

    /// Ranks every wanted piece under uniform replication, so the list
    /// order is the stream's alone.
    fn ranked(mine: &Bitfield, theirs: &Bitfield, seed: u64) -> Vec<u32> {
        let lanes = vec![0u64; lane_words(mine.len())];
        let mut stream = PlanStream::pair(seed, 1, 0, 1, 0);
        let mut out = Vec::new();
        Ranker::new(PieceSelection::RarestFirst).rank(
            mine.row(),
            theirs.row(),
            &lanes,
            8,
            &mut stream,
            &mut out,
        );
        out
    }

    #[test]
    fn taken_pieces_avoided_when_alternatives_exist() {
        let mine = bf(4, &[]);
        let theirs = bf(4, &[0, 1]);
        for seed in 0..20 {
            let candidates = ranked(&mine, &theirs, seed);
            assert_eq!(first_usable(mine.row(), &candidates, &[0], 1), Some(1));
        }
    }

    #[test]
    fn taken_fallback_when_everything_claimed() {
        // Piece 2 is already claimed, but it is all the uploader has.
        let mine = bf(4, &[]);
        let theirs = bf(4, &[2]);
        let candidates = ranked(&mine, &theirs, 5);
        assert_eq!(first_usable(mine.row(), &candidates, &[2], 1), Some(2));
    }

    #[test]
    fn pieces_acquired_mid_round_are_skipped() {
        // An earlier pair completed piece 0 after the plan ranked it.
        let theirs = bf(4, &[0, 3]);
        let candidates = ranked(&bf(4, &[]), &theirs, 1);
        assert_eq!(
            first_usable(bf(4, &[0]).row(), &candidates, &[0], 1),
            Some(3)
        );
        assert_eq!(
            first_usable(bf(4, &[0, 3]).row(), &candidates, &[0, 3], 2),
            None
        );
    }

    #[test]
    #[should_panic(expected = "overflows a byte lane")]
    fn an_edited_config_cannot_overflow_a_lane() {
        // The builder rejects s > 255; editing the public field after
        // the build must still not let lane counts carry.
        let mut config = crate::config::SwarmConfig::builder()
            .pieces(8)
            .initial_leechers(300)
            .initial_pieces(crate::config::InitialPieces::Random { count: 2 })
            .build()
            .expect("valid config");
        config.neighbor_set_size = 300;
        let mut swarm = crate::engine::Swarm::new(config);
        for _ in 0..3 {
            swarm.step_round();
        }
    }
}
