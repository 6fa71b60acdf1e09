//! Piece exchange: one piece per direction per connection, executed as
//! a two-phase plan/commit stage.
//!
//! **Plan** (parallel, read-only): over an immutable [`CoreView`], every
//! downloader gets a ranked candidate list per download direction,
//! drawn from a stateless [`PlanStream`] keyed off run seed + round +
//! the pair's sequence numbers + direction. Worker threads only
//! distribute downloaders across shards; since no decision depends on
//! which shard made it, the output is byte-identical at every
//! `--threads` value and a 1-shard plan equals an N-shard plan exactly.
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

use std::collections::BTreeMap;

use crate::engine::{CoreView, SwarmCore};
use crate::peer::{PeerId, PeerRef};
use crate::piece::{row_words, set_piece, Row};
use crate::selection::{PlanStream, Ranker};
use crate::stages::RoundStage;

/// Executes the round's exchanges under strict tit-for-tat: every
/// connection swaps one piece in each direction, or nothing at all.
///
/// This is the engine's hot path, and all per-peer state lives in
/// slot-indexed scratch tables reused across rounds (the generational
/// store keeps slot indices dense, so the tables stay small):
///
/// * `taken` — pieces already claimed this round per peer;
/// * `budgets` — remaining upload budget (slow-peer bandwidth class);
/// * `regions` — the peer's pair count and where its directions and
///   rank windows start in `dirs` and `ranks`.
///
/// and in tables laid out per downloader, in the order the prepare walk
/// first meets them:
///
/// * `dirs` — each downloader's download directions in canonical pair
///   order, each with its uploader and pick stream;
/// * `ranks` — each downloader's rank lists: its `j`-th direction owns
///   the window of `j + 1` ranks at `j(j + 1)/2` of its region, ended
///   by a sentinel when shorter.
///
/// `plans` holds, per pair, each member's direction number (`earlier`),
/// which is how the commit finds a direction's window. The tables
/// outlive the round, so a warm plan allocates nothing but its shards'
/// scratch.
///
/// `stamp` marks which slots were initialized this round; stale entries
/// from earlier rounds are never read, so nothing needs clearing.
///
/// `pairs` holds each connection as two 8-byte slab references. The
/// plan reads possession from the store's possession table and the
/// sequence numbers its streams need from the store's id table, so it
/// looks up no peer but the downloaders (for their neighbor lists and
/// partial pieces); the commit looks up the peers whose partial pieces
/// and credit it reads and writes.
#[derive(Debug, Default)]
pub struct ExchangePieces {
    pairs: Vec<(PeerRef, PeerRef)>,
    stamp: Vec<u64>,
    taken: Vec<Vec<u32>>,
    budgets: Vec<u32>,
    regions: Vec<Region>,
    plans: Vec<PairPlan>,
    dirs: Vec<Direction>,
    ranks: Vec<u32>,
    involved: Vec<PeerRef>,
    threads: u32,
}

/// For one connection pair, the number of each member's pairs that
/// commit before this one: `earlier_lo` for the lower-sequence peer,
/// which downloads from the higher in direction 0, and `earlier_hi` for
/// the higher, direction 1. It is the direction's number among its
/// downloader's directions.
#[derive(Debug, Default, Clone, Copy)]
struct PairPlan {
    earlier_lo: u32,
    earlier_hi: u32,
}

/// One involved peer's part of the plan tables: its pair count (the
/// prepare walk's running count while it numbers the pairs), and where
/// its directions start in `dirs` and its rank windows in `ranks`.
#[derive(Debug, Default, Clone, Copy)]
struct Region {
    pairs: u32,
    dirs: u32,
    ranks: u32,
}

/// One download direction, as its downloader's planner reads it: the
/// uploader and the direction's pick stream, both fixed by the prepare
/// walk, which meets the pair's two ends and sequence numbers anyway.
#[derive(Debug, Clone, Copy)]
struct Direction {
    uploader: PeerRef,
    stream: PlanStream,
}

impl Direction {
    /// A placeholder the prepare walk overwrites; its uploader is a
    /// detached reference, which never resolves.
    fn unset() -> Self {
        Direction {
            uploader: PeerId::synthetic(0).into(),
            stream: PlanStream::pair(0, 0, 0, 0, 0),
        }
    }
}

/// Ends a rank window that holds fewer than its `j + 1` ranks.
const NO_RANK: u32 = u32::MAX;

/// Offset of direction `j`'s window in its downloader's rank region:
/// windows of 1, 2, … ranks follow one another.
fn triangle(j: u32) -> usize {
    let j = j as usize;
    j * (j + 1) / 2
}

/// Prefer finishing an in-flight partial piece the uploader has (block
/// continuity); otherwise the caller resolves a planned candidate.
fn continue_piece(partial: &BTreeMap<u32, u32>, uploader_have: Row<'_>) -> Option<u32> {
    partial
        .keys()
        .copied()
        .filter(|&piece| uploader_have.contains(piece))
        .min()
}

/// Resolves the piece one direction of a pair actually downloads:
/// block continuity over the downloader's `partial` pieces first, then
/// the planned candidates ([`first_usable`]).
fn resolve_candidate(
    partial: &BTreeMap<u32, u32>,
    downloader_have: Row<'_>,
    uploader_have: Row<'_>,
    candidates: &[u32],
    taken: &[u32],
    earlier: u32,
) -> Option<u32> {
    if let Some(piece) = continue_piece(partial, uploader_have) {
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
/// so at most `earlier` ranks can be invalid and the plan draws at most
/// `earlier + 1` of them ([`draw_lists`] stops sooner).
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

/// Draws one downloader's rank lists into `windows`, its directions in
/// commit order: `directions` yields each one's uploader row and
/// stream, and direction `j` fills the window of `j + 1` ranks at
/// [`triangle`]`(j)`, ended by [`NO_RANK`] when shorter. The ranker's
/// view must already be the downloader's. Returns the ranks drawn.
///
/// The stop set (scratch `stop`) starts as the downloader's
/// start-of-round `partial` pieces, and every drawn piece joins it. A
/// list ends at its first piece outside the set. Only a piece one of
/// the downloader's earlier pairs resolves at commit can be unusable to
/// a later one, and such a piece is a partial piece or was drawn for
/// that earlier pair (continuity resolves partial pieces,
/// [`first_usable`] drawn ones). So the first piece outside the set is
/// usable, and [`first_usable`] and its fallback return what they would
/// over all `j + 1` ranks.
fn draw_lists<'a>(
    ranker: &mut Ranker,
    stop: &mut [u64],
    mine: Row<'_>,
    partial: impl IntoIterator<Item = u32>,
    directions: impl IntoIterator<Item = (Row<'a>, PlanStream)>,
    windows: &mut [u32],
) -> u64 {
    stop.fill(0);
    for piece in partial {
        set_piece(stop, mine.len(), piece);
    }
    let mut drawn = 0;
    for (j, (theirs, mut stream)) in directions.into_iter().enumerate() {
        let window = &mut windows[triangle(j as u32)..][..=j];
        ranker.start(mine, theirs);
        let mut len = 0;
        while len < window.len() {
            let Some(piece) = ranker.draw(&mut stream) else {
                break;
            };
            window[len] = piece;
            len += 1;
            if set_piece(stop, mine.len(), piece) {
                break;
            }
        }
        if let Some(end) = window.get_mut(len) {
            *end = NO_RANK;
        }
        drawn += len as u64;
    }
    drawn
}

/// One shard's work counts: bitfield words read into the neighbor
/// views, ranks drawn, and slab lookups (one per downloader, for its
/// neighbor list and partial pieces). Shards look up peers uncounted
/// ([`PeerStore::lookup`](crate::store::PeerStore::lookup)); the
/// lookups are added to the store's probe count after the join.
#[derive(Debug, Clone, Copy, Default)]
struct ShardWork {
    words: u64,
    ranks: u64,
    probes: u64,
}

/// What every plan shard reads besides the core: the downloaders'
/// directions and the per-slot regions.
#[derive(Clone, Copy)]
struct PlanTables<'a> {
    view: CoreView<'a>,
    dirs: &'a [Direction],
    regions: &'a [Region],
}

/// Plans one shard of downloaders, whose rank regions are `ranks`
/// (starting at `offset` in the full table). For each downloader, one
/// slab lookup reads its neighbor list into the ranker's view (live
/// neighbors as rows, through the id table) and its partial pieces; then
/// [`draw_lists`] draws its directions.
fn plan_downloaders_shard(
    tables: PlanTables<'_>,
    downloaders: &[PeerRef],
    ranks: &mut [u32],
    offset: usize,
    work: &mut ShardWork,
) {
    let view = tables.view;
    let pieces = view.config.pieces;
    let mut ranker = Ranker::new(view.config.piece_selection, pieces);
    let mut stop = vec![0; row_words(pieces)];
    for &d in downloaders {
        let region = tables.regions[d.slot() as usize];
        work.probes += 1;
        let peer = view
            .store
            .lookup(d)
            .expect("peer departed but was referenced");
        let read = ranker.set_view(peer.neighbors.iter().filter_map(|&n| view.store.have_at(n)));
        work.words += read * row_words(pieces) as u64;
        let dirs = &tables.dirs[region.dirs as usize..][..region.pairs as usize];
        let directions = dirs
            .iter()
            .map(|dir| (view.store.have(dir.uploader), dir.stream));
        let windows = &mut ranks[region.ranks as usize - offset..][..triangle(region.pairs)];
        let mine = view.store.have(d);
        let partial = peer.partial.keys().copied();
        work.ranks += draw_lists(&mut ranker, &mut stop, mine, partial, directions, windows);
    }
}

/// The plan phase's work counts, for cost attribution.
#[derive(Default)]
struct PlanWork {
    /// Bitfield words read into the neighbor views.
    words: u64,
    /// Ranks drawn.
    ranks: u64,
}

impl ExchangePieces {
    /// The read-only plan phase: initializes the round's scratch tables,
    /// lays out every downloader's directions and rank windows, and
    /// draws the ranks — sharded by downloader across the configured
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
        if self.stamp.len() < capacity {
            self.stamp.resize(capacity, 0);
            self.taken.resize_with(capacity, Vec::new);
            self.budgets.resize(capacity, 0);
            self.regions.resize(capacity, Region::default());
        }
        if self.plans.len() < self.pairs.len() {
            self.plans.resize_with(self.pairs.len(), PairPlan::default);
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
                self.regions[slot].pairs = 0;
            }
            plan.earlier_lo = self.regions[a.slot() as usize].pairs;
            plan.earlier_hi = self.regions[b.slot() as usize].pairs;
            self.regions[a.slot() as usize].pairs += 1;
            self.regions[b.slot() as usize].pairs += 1;
        }

        // Lay out each downloader's directions and rank windows, then
        // list its directions in canonical order, keying each pick
        // stream off the pair's sequence numbers and the direction.
        let (mut dirs_len, mut ranks_len) = (0, 0);
        for r in &self.involved {
            let region = &mut self.regions[r.slot() as usize];
            region.dirs = dirs_len as u32;
            region.ranks = ranks_len as u32;
            dirs_len += region.pairs as usize;
            ranks_len += triangle(region.pairs);
        }
        if self.dirs.len() < dirs_len {
            self.dirs.resize(dirs_len, Direction::unset());
        }
        if self.ranks.len() < ranks_len {
            self.ranks.resize(ranks_len, 0);
        }
        let (seed, round) = (view.config.seed, view.round);
        for (&(a, b), plan) in self.pairs.iter().zip(&self.plans) {
            let (seq_a, seq_b) = (view.store.id_at(a).seq(), view.store.id_at(b).seq());
            let stream = |dir| PlanStream::pair(seed, round, seq_a, seq_b, dir);
            let start = |r: PeerRef| self.regions[r.slot() as usize].dirs as usize;
            self.dirs[start(a) + plan.earlier_lo as usize] = Direction {
                uploader: b,
                stream: stream(0),
            };
            self.dirs[start(b) + plan.earlier_hi as usize] = Direction {
                uploader: a,
                stream: stream(1),
            };
        }

        // Parallel planning: each shard takes a run of downloaders and
        // the contiguous part of `ranks` their regions make up, so
        // handing shards disjoint `&mut` windows needs no locking.
        let tables = PlanTables {
            view,
            dirs: &self.dirs,
            regions: &self.regions,
        };
        let workers = (self.threads.max(1) as usize).min(self.involved.len().max(1));
        let mut work = vec![ShardWork::default(); workers];
        let ranks = &mut self.ranks[..ranks_len];
        if workers <= 1 {
            plan_downloaders_shard(tables, &self.involved, ranks, 0, &mut work[0]);
        } else {
            let shard = self.involved.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let mut rest = ranks;
                let mut offset = 0;
                for (downloaders, work) in self.involved.chunks(shard).zip(work.iter_mut()) {
                    let last = tables.regions[downloaders[downloaders.len() - 1].slot() as usize];
                    let end = last.ranks as usize + triangle(last.pairs);
                    let (mine, tail) = std::mem::take(&mut rest).split_at_mut(end - offset);
                    rest = tail;
                    let start = offset;
                    scope.spawn(move || {
                        plan_downloaders_shard(tables, downloaders, mine, start, work)
                    });
                    offset = end;
                }
            });
        }
        // Fixed shard-order merges (summation commutes, but the order is
        // pinned anyway so the merge never becomes scheduling-visible).
        let total = |unit: fn(&ShardWork) -> u64| work.iter().map(unit).sum();
        view.store.add_probes(total(|w| w.probes));
        PlanWork {
            words: total(|w| w.words),
            ranks: total(|w| w.ranks),
        }
    }

    /// The rank list of `r`'s download direction number `earlier`.
    fn list(&self, r: PeerRef, earlier: u32) -> &[u32] {
        let start = self.regions[r.slot() as usize].ranks as usize + triangle(earlier);
        let window = &self.ranks[start..=start + earlier as usize];
        let len = window.iter().position(|&c| c == NO_RANK);
        &window[..len.unwrap_or(window.len())]
    }

    /// The serial, RNG-free commit phase: applies planned decisions in
    /// canonical pair order. Returns the number of block transfers.
    fn commit(&mut self, core: &mut SwarmCore) -> u64 {
        let mut transfers = 0u64;
        for (i, &(ref_a, ref_b)) in self.pairs.iter().enumerate() {
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
            let wanted_a = resolve_candidate(
                &core.store.peer_at(ref_a).partial,
                have_a,
                have_b,
                self.list(ref_a, plan.earlier_lo),
                &self.taken[slot_a],
                plan.earlier_lo,
            );
            let wanted_b = resolve_candidate(
                &core.store.peer_at(ref_b).partial,
                have_b,
                have_a,
                self.list(ref_b, plan.earlier_hi),
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
            .add_work("exchange.rank_candidates", work.ranks);
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bf(pieces: u32, have: &[u32]) -> Bitfield {
        let mut b = Bitfield::new(pieces);
        for &p in have {
            b.set(p);
        }
        b
    }

    /// Ranks up to eight wanted pieces under uniform replication (an
    /// empty view), so the list order is the stream's alone.
    fn ranked(mine: &Bitfield, theirs: &Bitfield, seed: u64) -> Vec<u32> {
        let mut ranker = Ranker::new(PieceSelection::RarestFirst, mine.len());
        ranker.set_view([]);
        ranker.start(mine.row(), theirs.row());
        let mut stream = PlanStream::pair(seed, 1, 0, 1, 0);
        std::iter::from_fn(|| ranker.draw(&mut stream))
            .take(8)
            .collect()
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
    fn a_list_stops_at_its_first_piece_outside_the_stop_set() {
        // Every direction's uploader holds all eight pieces. Partial
        // piece 5 and the pieces earlier directions drew cannot end a
        // list; the first other piece does.
        let pieces = 8;
        let mine = Bitfield::new(pieces);
        let full = bf(pieces, &(0..pieces).collect::<Vec<_>>());
        let mut ranker = Ranker::new(PieceSelection::RandomFirst, pieces);
        let mut stop = vec![0; row_words(pieces)];
        let streams = (0..4).map(|dir| (full.row(), PlanStream::pair(3, 1, 0, 1, dir)));
        let mut windows = vec![0; triangle(4)];
        let drawn = draw_lists(
            &mut ranker,
            &mut stop,
            mine.row(),
            [5],
            streams,
            &mut windows,
        );
        let mut seen = vec![5];
        let mut total = 0;
        for j in 0..4u32 {
            let window = &windows[triangle(j)..][..=j as usize];
            let len = window
                .iter()
                .position(|&c| c == NO_RANK)
                .unwrap_or(window.len());
            let list = &window[..len];
            total += len as u64;
            let (last, before) = list.split_last().expect("every list draws a rank");
            assert!(before.iter().all(|c| seen.contains(c)), "{list:?}");
            assert!(
                !seen.contains(last) || len == j as usize + 1,
                "direction {j} drew past a usable piece: {list:?}"
            );
            seen.extend_from_slice(list);
        }
        assert_eq!(drawn, total);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// A downloader's stopped lists resolve to the same pieces as
        /// the full `earlier + 1` lists, with `have`, `taken` and the
        /// partial table updated between its pairs as the commit does,
        /// including pairs whose swap the other side cancels.
        #[test]
        fn stopped_lists_resolve_like_full_lists(
            pieces in 1u32..80,
            pairs in 1usize..=7,
            blocks in 1u32..4,
            density in 0u8..100,
            random_first in prop::bool::ANY,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut row = |density: u8| {
                let mut b = Bitfield::new(pieces);
                for p in 0..pieces {
                    if rng.gen_range(0..100u8) < density {
                        b.set(p);
                    }
                }
                b
            };
            let mut have = row(density / 2);
            let uploaders: Vec<Bitfield> = (0..pairs).map(|_| row(density)).collect();
            let neighbors: Vec<Bitfield> = (0..5).map(|_| row(50)).collect();
            let mut partial = BTreeMap::new();
            for p in 0..pieces {
                if blocks > 1 && !have.contains(p) && rng.gen_range(0..10) == 0 {
                    partial.insert(p, rng.gen_range(1..blocks));
                }
            }
            let strategy = if random_first {
                PieceSelection::RandomFirst
            } else {
                PieceSelection::RarestFirst
            };
            let streams: Vec<PlanStream> = (0..pairs as u64)
                .map(|j| PlanStream::pair(seed, 2, j, j + 1, j % 2))
                .collect();
            let directions = || uploaders.iter().map(Bitfield::row).zip(streams.iter().copied());

            let mut ranker = Ranker::new(strategy, pieces);
            ranker.set_view(neighbors.iter().map(Bitfield::row));
            let mut stop = vec![0; row_words(pieces)];
            let mut stopped = vec![0; triangle(pairs as u32)];
            let start_partial = partial.keys().copied();
            draw_lists(&mut ranker, &mut stop, have.row(), start_partial, directions(), &mut stopped);
            let full: Vec<Vec<u32>> = directions()
                .enumerate()
                .map(|(j, (theirs, mut stream))| {
                    ranker.start(have.row(), theirs);
                    std::iter::from_fn(|| ranker.draw(&mut stream)).take(j + 1).collect()
                })
                .collect();

            let mut taken = Vec::new();
            for (j, uploader) in uploaders.iter().enumerate() {
                let window = &stopped[triangle(j as u32)..][..=j];
                let len = window.iter().position(|&c| c == NO_RANK).unwrap_or(window.len());
                let (mine, theirs, earlier) = (have.row(), uploader.row(), j as u32);
                let short = resolve_candidate(&partial, mine, theirs, &window[..len], &taken, earlier);
                let long = resolve_candidate(&partial, mine, theirs, &full[j], &taken, earlier);
                prop_assert_eq!(short, long, "direction {} of {}", j, pairs);
                // The other side cancels some swaps: nothing is claimed.
                let Some(piece) = short.filter(|_| rng.gen_range(0..4) != 0) else {
                    continue;
                };
                taken.push(piece);
                if !have.contains(piece) {
                    let got = partial.entry(piece).or_insert(0);
                    *got += 1;
                    if *got == blocks {
                        partial.remove(&piece);
                        have.set(piece);
                    }
                }
            }
        }
    }

    /// A stage that shrinks the neighbor-set size in the config once
    /// the first round has filled the neighbor sets.
    #[derive(Debug)]
    struct ShrinkNeighborSetSize;

    impl RoundStage for ShrinkNeighborSetSize {
        fn name(&self) -> &'static str {
            "shrink"
        }

        fn run(&mut self, core: &mut SwarmCore) {
            if core.round > 1 {
                core.config.neighbor_set_size = 3;
            }
        }
    }

    #[test]
    fn an_edited_config_cannot_overflow_the_planes() {
        // The count planes grow with the neighbor rows a view reads, not
        // with the configured neighbor-set size: a neighbor set of 300,
        // or a config edited below the neighbor sets already built,
        // still plans every round.
        let wide = crate::config::SwarmConfig::builder()
            .pieces(8)
            .initial_leechers(300)
            .neighbor_set_size(300)
            .initial_pieces(crate::config::InitialPieces::Random { count: 2 })
            .build()
            .expect("valid config");
        let mut swarm = crate::engine::Swarm::new(wide.clone());
        for _ in 0..3 {
            swarm.step_round();
            swarm.assert_invariants();
        }

        let config = crate::config::SwarmConfig {
            neighbor_set_size: 20,
            ..wide
        };
        let mut stages = crate::stages::default_pipeline(&config);
        let exchange = stages
            .iter()
            .position(|stage| stage.name() == "exchange")
            .expect("the default pipeline exchanges");
        stages.insert(exchange, Box::new(ShrinkNeighborSetSize));
        let mut swarm =
            crate::engine::Swarm::with_pipeline(config, bt_obs::Registry::default(), stages);
        // The neighbor sets now exceed the edited s, which the
        // invariants forbid, so this half only has to run.
        for _ in 0..3 {
            swarm.step_round();
        }
    }
}
