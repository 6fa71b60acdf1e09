//! The swarm simulation engine.
//!
//! A round-based protocol simulation. One round corresponds to one
//! piece-exchange period (one step of the paper's Markov model): arrivals
//! are a Poisson process, each round every active connection swaps one
//! piece in each direction under strict tit-for-tat, and peers depart the
//! moment they complete. A `Clock` of two tick counts orders the
//! arrivals against the rounds.
//!
//! The engine is layered (see DESIGN.md, "Swarm engine architecture"):
//!
//! * [`crate::store::PeerStore`] — a generational slab holding the
//!   peers; stale [`PeerId`]s stop resolving instead of aliasing;
//! * [`crate::replication::ReplicationIndex`] — global per-piece
//!   replication counts maintained incrementally on acquire / arrival /
//!   departure events;
//! * [`crate::stages`] — the round as a pipeline of [`RoundStage`]s
//!   (maintain, bootstrap, prune, establish, exchange, depart, shake,
//!   sample), each swappable per scenario.
//!
//! [`SwarmCore`] is the state the stages operate on; [`Swarm`] couples a
//! core with a pipeline and the attached round observers (the
//! `observe` module).

use std::any::Any;

use rand::rngs::StdRng;
use rand::Rng;

use bt_markov::dist::sample_exponential;
use bt_markov::SeedStream;

use crate::audit::SwarmAudit;
use crate::config::{InitialPieces, SwarmConfig};
use crate::metrics::{CompletionMeta, CompletionStream, ObserverLog, SwarmMetrics};
use crate::monitors::{DoctorOptions, DoctorReport, FaultKind, FaultSpec, SwarmDoctor};
use crate::obs::SwarmObs;
use crate::observe::{RoundObserver, OBSERVERS};
use crate::peer::{Peer, PeerId, PeerRef};
use crate::replication::ReplicationIndex;
use crate::selection::replication_counts;
use crate::stages::{default_pipeline, RoundStage};
use crate::store::PeerStore;
use crate::telemetry::TelemetryRecorder;
use crate::tracker::Tracker;

/// Clock ticks in one round: a round is one simulated second, and a
/// tick is one microsecond.
const ROUND_TICKS: u64 = 1_000_000;

/// Ticks to the next Poisson arrival at `rate` arrivals per round: an
/// exponential gap, rounded to the nearest tick.
///
/// # Panics
///
/// Panics if the gap is negative, NaN, or too large to represent.
fn arrival_gap(rate: f64, rng: &mut StdRng) -> u64 {
    let secs = sample_exponential(rate, rng);
    assert!(
        secs.is_finite() && secs >= 0.0,
        "time must be finite and non-negative, got {secs}"
    );
    let ticks = secs * ROUND_TICKS as f64;
    assert!(ticks <= u64::MAX as f64, "time overflow: {secs} seconds");
    ticks.round() as u64
}

/// The two pending events of [`Swarm::drive`]: the next Poisson
/// arrival and the next round, as tick counts.
///
/// Events on the same tick fire in the order they were scheduled, so
/// the clock records which of the two was scheduled last.
#[derive(Debug)]
struct Clock {
    /// Tick of the pending arrival; `None` when the arrival rate is 0.
    arrival: Option<u64>,
    /// Tick of the pending round.
    round: u64,
    /// Whether the pending arrival was scheduled after the pending round.
    arrival_last: bool,
}

impl Clock {
    /// A clock with round 1 pending and, scheduled before it, the first
    /// arrival at tick `first_arrival` (none when the rate is 0).
    fn new(first_arrival: Option<u64>) -> Self {
        Clock {
            arrival: first_arrival,
            round: ROUND_TICKS,
            arrival_last: false,
        }
    }

    /// Whether the pending arrival fires before the pending round.
    fn arrival_first(&self) -> bool {
        self.arrival
            .is_some_and(|at| at < self.round || (at == self.round && !self.arrival_last))
    }

    /// Schedules the next arrival `gap` ticks after the one firing.
    fn arrival_after(&mut self, gap: u64) {
        let at = self.arrival.expect("an arrival is firing");
        self.arrival = Some(at.checked_add(gap).expect("sim time overflow"));
        self.arrival_last = true;
    }

    /// Schedules the next round one round after the one firing.
    fn round_after(&mut self) {
        self.round = self
            .round
            .checked_add(ROUND_TICKS)
            .expect("sim time overflow");
        self.arrival_last = false;
    }
}

/// The swarm state the round stages operate on: configuration, peer
/// store, tracker, replication index, RNG, metrics, and counters.
///
/// Stages reach the fields directly and mutate possession through
/// [`acquire_piece`](SwarmCore::acquire_piece),
/// [`receive_block`](SwarmCore::receive_block), and
/// [`depart`](SwarmCore::depart), which keep the replication index in
/// sync with piece possession. Possession itself lives in the peer
/// store's dense table, read through
/// [`PeerStore::pieces_of`](crate::store::PeerStore::pieces_of).
#[derive(Debug)]
pub struct SwarmCore {
    pub(crate) config: SwarmConfig,
    pub(crate) store: PeerStore,
    pub(crate) tracker: Tracker,
    pub(crate) replication: ReplicationIndex,
    pub(crate) round: u64,
    pub(crate) rng: StdRng,
    pub(crate) metrics: SwarmMetrics,
    pub(crate) obs: SwarmObs,
    pub(crate) profile: bt_obs::ProfileSink,
    pub(crate) audit: SwarmAudit,
    pub(crate) piece_cells: bt_obs::CountCells,
    pub(crate) cohort: bt_obs::CohortSink,
    pub(crate) completion_stream: CompletionStream,
    /// Scratch for the tracker handout of each join, reused so a join
    /// allocates no handout buffer.
    pub(crate) join_handout: Vec<PeerId>,
}

/// An immutable, `Sync` view of the swarm state a parallel plan phase
/// may read: configuration, peer store, and the round number.
///
/// [`SwarmCore`] itself is not `Sync` (its cohort sink owns a boxed
/// writer), so stages that shard read-only planning across worker
/// threads borrow this view instead. Store probe counting is atomic, so
/// concurrent reads through the view stay `&self` and race-free.
#[derive(Debug, Clone, Copy)]
pub struct CoreView<'a> {
    /// The run configuration.
    pub config: &'a SwarmConfig,
    /// The peer store, read-only.
    pub store: &'a PeerStore,
    /// Current round number.
    pub round: u64,
}

impl SwarmCore {
    /// The immutable view of the fields a parallel plan phase reads.
    #[must_use]
    pub fn view(&self) -> CoreView<'_> {
        CoreView {
            config: &self.config,
            store: &self.store,
            round: self.round,
        }
    }

    /// The configuration this swarm runs under.
    #[must_use]
    pub fn config(&self) -> &SwarmConfig {
        &self.config
    }

    /// Current round number (0 before the first round).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The peer store.
    #[must_use]
    pub fn store(&self) -> &PeerStore {
        &self.store
    }

    /// The metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &SwarmMetrics {
        &self.metrics
    }

    /// Grants `id` the given piece at the current round (bootstrap
    /// injection, seed upload, initial endowment). Returns `true` and
    /// updates the replication index if the piece was new.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive.
    pub fn acquire_piece(&mut self, id: PeerId, piece: u32) -> bool {
        let acquired = self.store.acquire(id.into(), piece, self.round);
        if acquired {
            self.count_acquisition(id, piece);
        }
        acquired
    }

    /// Delivers one block of `piece` to `id`. Returns `true` and updates
    /// the replication index if this block completed the piece.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive.
    pub fn receive_block(&mut self, id: PeerId, piece: u32) -> bool {
        let blocks = self.config.blocks_per_piece;
        let acquired = self
            .store
            .receive_block(id.into(), piece, blocks, self.round);
        if acquired {
            self.count_acquisition(id, piece);
        }
        acquired
    }

    /// Moves the replication index, the audit and the piece-count cells
    /// for `id`'s new `piece`.
    fn count_acquisition(&mut self, id: PeerId, piece: u32) {
        self.replication.on_acquire(piece);
        self.audit.pieces_acquired += 1;
        let count = self.store.have(id.into()).count();
        self.piece_cells.shift(count - 1, count);
    }

    /// Removes `id` from the swarm: deregisters it, updates the
    /// replication index for the pieces it carried away (read from its
    /// row before the slot is freed), and removes neighbor backlinks.
    /// Returns the departed peer for the caller to record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive.
    pub fn depart(&mut self, id: PeerId) -> Peer {
        let have = self
            .store
            .have_at(id.into())
            .expect("departing peer must be alive");
        let held = have.count();
        self.replication.on_departure(have);
        self.piece_cells.decr(held);
        self.audit.pieces_departed += u64::from(held);
        let peer = self.store.remove(id).expect("departing peer must be alive");
        self.audit.conn_closed += peer.connections.len() as u64;
        self.audit.departures += 1;
        self.tracker.deregister(id);
        for &other in &peer.neighbors {
            if let Some(o) = self.store.at_mut(other) {
                o.remove_neighbor(id.into());
            }
        }
        peer
    }

    /// The potential set size of `id`: alive neighbors with mutual
    /// tradability (the quantity the paper's download model tracks).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive.
    #[must_use]
    pub fn potential_size(&self, id: PeerId) -> u32 {
        self.potential_of(self.store.peer(id))
    }

    /// [`potential_size`](Self::potential_size) of a peer already looked
    /// up: its neighbors' rows are read from the possession table, so
    /// no neighbor's slot is touched.
    pub(crate) fn potential_of(&self, me: &Peer) -> u32 {
        let mine = self.store.have(me.id.into());
        me.neighbors
            .iter()
            .filter(|&&n| {
                self.store
                    .have_at(n)
                    .is_some_and(|theirs| mine.can_trade_with(theirs))
            })
            .count() as u32
    }

    /// The log of observer `id`, or `None` if `id` is not an observer.
    ///
    /// Every arrival with a `seq` in the observed range gets its log at
    /// spawn, and arrivals spawn in `seq` order, so the log of `seq` is
    /// entry `seq - observe_from`: an index, not a search.
    pub(crate) fn observer_log(&mut self, id: PeerId) -> Option<&mut ObserverLog> {
        if !self.config.observes(id.seq()) {
            return None;
        }
        let index = id.seq() - u64::from(self.config.observe_from);
        let log = self.metrics.observers.get_mut(index as usize)?;
        debug_assert_eq!(log.id, id, "observer logs are kept in seq order");
        Some(log)
    }

    /// Collects all current connections as canonical `(low, high)`
    /// pairs, sorted by the sequence numbers of both ends, into `out`
    /// (cleared first).
    ///
    /// The tracker lists peers in `seq` order, so sorting each peer's
    /// higher-`seq` partners (at most `k`, their `seq`s read from the
    /// store's id table) and appending them builds the sorted list
    /// without a global sort.
    pub(crate) fn collect_connection_pairs(&self, out: &mut Vec<(PeerRef, PeerRef)>) {
        out.clear();
        let mut partners: Vec<PeerId> = Vec::with_capacity(self.config.max_connections as usize);
        for &id in self.tracker.peers() {
            partners.clear();
            partners.extend(
                self.store
                    .peer(id)
                    .connections
                    .iter()
                    .map(|&other| self.store.id_at(other))
                    .filter(|&other| id < other),
            );
            partners.sort_unstable();
            out.extend(partners.iter().map(|&other| (id.into(), other.into())));
        }
    }

    /// Makes `a` and `b` neighbors symmetrically. With `evict` set (used
    /// when integrating a joining peer), a full side evicts a random
    /// neighbor it is not actively connected to — so newcomers always find
    /// room, as when a BitTorrent client accepts an incoming connection.
    /// Without it (steady-state top-ups), the add fails if either side is
    /// full, keeping established neighborhoods stable between tracker
    /// contacts.
    ///
    /// The relation is symmetric, so one scan of `a`'s list decides
    /// membership for both sides and the link is pushed on each without
    /// a second check.
    pub fn add_symmetric_neighbor(&mut self, a: PeerId, b: PeerId, evict: bool) -> bool {
        if a == b || self.store.peer(a).is_neighbor(b.into()) {
            return false;
        }
        let s = self.config.neighbor_set_size as usize;
        for id in [a, b] {
            if self.store.peer(id).neighbors.len() >= s && (!evict || !self.evict_idle_neighbor(id))
            {
                return false;
            }
        }
        self.store.peer_mut(a).neighbors.push(b.into());
        self.store.peer_mut(b).neighbors.push(a.into());
        true
    }

    /// Evicts a uniformly random neighbor of `id` that is not an active
    /// connection, removing the backlink too. Returns false if every
    /// neighbor is connected.
    ///
    /// The idle neighbors are the list minus the connections: every
    /// connection is a neighbor and no neighbor is listed twice
    /// ([`Swarm::assert_invariants`] checks both). A connection listed
    /// twice, which only a seeded half-open fault produces, is counted
    /// once, so the draw's bound is the idle count in every state. The
    /// victim is the `pick`-th idle entry in list order, found in one
    /// scan, or indexed directly when nothing is connected; removing it
    /// by index keeps the order of the rest.
    fn evict_idle_neighbor(&mut self, id: PeerId) -> bool {
        let me = self.store.peer(id);
        debug_assert!(
            me.connections.iter().all(|c| me.neighbors.contains(c)),
            "{id} is connected to a non-neighbor"
        );
        let connections = &me.connections;
        let connected = (0..connections.len())
            .filter(|&i| !connections[..i].contains(&connections[i]))
            .count();
        let idle_count = me.neighbors.len().saturating_sub(connected);
        if idle_count == 0 {
            return false;
        }
        let pick = self.rng.gen_range(0..idle_count);
        let me = self.store.peer_mut(id);
        let at = if me.connections.is_empty() {
            pick
        } else {
            let connections = &me.connections;
            me.neighbors
                .iter()
                .enumerate()
                .filter(|(_, n)| !connections.contains(n))
                .nth(pick)
                .expect("pick is within the idle count")
                .0
        };
        let victim = me.neighbors.remove(at);
        if let Some(v) = self.store.at_mut(victim) {
            if let Some(back) = v.neighbors.iter().position(|&n| n == id.into()) {
                v.neighbors.remove(back);
            }
            v.connections.retain(|&p| p != id.into());
        }
        true
    }

    pub(crate) fn spawn_peer(&mut self) -> PeerId {
        let round = self.round;
        // Exactly `s` neighbor and `k` connection slots: both are hard
        // caps, so neither list ever grows past its reservation.
        let (s, k) = (
            self.config.neighbor_set_size as usize,
            self.config.max_connections as usize,
        );
        let id = self.store.insert_with(|id| {
            let mut peer = Peer::new(id, round);
            peer.neighbors.reserve_exact(s);
            peer.connections.reserve_exact(k);
            peer
        });
        self.piece_cells.incr(0);
        if self.config.slow_peer_fraction > 0.0 {
            let slow = self.rng.gen::<f64>() < self.config.slow_peer_fraction;
            self.store.peer_mut(id).slow = slow;
        }
        // Initial neighbor handout on join (tracker contact). With
        // bootstrap relief (§4.3), the tracker fills up to half the slots
        // with peers trapped in the bootstrap phase, so the newcomer's
        // fresh pieces reach them.
        let mut trapped = Vec::new();
        if self.config.bootstrap_relief {
            trapped.extend(
                self.tracker
                    .peers()
                    .iter()
                    .copied()
                    .filter(|&p| self.store.have(p.into()).count() <= 1),
            );
            let take = (s / 2).min(trapped.len());
            for i in 0..take {
                let j = self.rng.gen_range(i..trapped.len());
                trapped.swap(i, j);
            }
            trapped.truncate(take);
        }
        // The tracker's share lands in a buffer kept across joins.
        let mut handout = std::mem::take(&mut self.join_handout);
        self.tracker
            .handout_into(&mut handout, id, &trapped, s - trapped.len(), &mut self.rng);
        let evict = self.config.join_eviction;
        for &other in trapped.iter().chain(&handout) {
            self.add_symmetric_neighbor(id, other, evict);
        }
        self.join_handout = handout;
        self.tracker.register(id);
        self.metrics.arrivals += 1;
        self.obs.arrivals.incr();
        self.obs
            .peak_population
            .record_max(self.tracker.len() as u64);
        if self.config.observes(id.seq()) {
            self.metrics.observers.push(ObserverLog::new(id));
        }
        // Offer the arrival to the cohort reservoir: one private-RNG draw
        // per arrival when enabled, zero model-RNG impact either way.
        self.cohort.offer_join(round, id.seq());
        id
    }

    pub(crate) fn endow_initial(&mut self, id: PeerId) {
        let endowment = self.config.initial_pieces;
        let pieces = self.config.pieces;
        match endowment {
            InitialPieces::Empty => {}
            InitialPieces::Random { count } => {
                let mut got = 0;
                let mut guard = 0;
                while got < count && guard < 100_000 {
                    guard += 1;
                    let p = self.rng.gen_range(0..pieces);
                    if self.acquire_piece(id, p) {
                        self.cohort
                            .acquire(self.round, id.seq(), p, bt_obs::acquire_source::ENDOW);
                        got += 1;
                    }
                }
            }
            InitialPieces::Skewed { count, strength } => {
                let weights: Vec<f64> = (0..pieces).map(|j| strength.powi(j as i32)).collect();
                let mut got = 0;
                let mut guard = 0;
                while got < count && guard < 10_000 {
                    guard += 1;
                    let p = bt_markov::chain::sample_index(&weights, &mut self.rng) as u32;
                    if self.acquire_piece(id, p) {
                        self.cohort
                            .acquire(self.round, id.seq(), p, bt_obs::acquire_source::ENDOW);
                        got += 1;
                    }
                }
            }
        }
    }

    /// Applies a scheduled fault (see [`FaultKind`]): deliberate
    /// corruption that bypasses the accounting paths, so the seeded-fault
    /// tests can prove the monitors fire. Makes no RNG calls — targets
    /// are picked deterministically in join order.
    pub(crate) fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::UnaccountedPiece => {
                // Prefer a piece some other peer also holds, so a later
                // departure of the corrupted peer cannot underflow the
                // replication index.
                let target = self
                    .tracker
                    .peers()
                    .iter()
                    .copied()
                    .find(|&id| !self.store.have(id.into()).is_complete());
                if let Some(id) = target {
                    let have = self.store.have(id.into());
                    let piece = have
                        .iter_missing()
                        .find(|&p| self.replication.counts()[p as usize] > 0)
                        .or_else(|| have.iter_missing().next());
                    // The bit is written through the store but bypasses
                    // the acquisition log and the replication index.
                    // The piece-count cells move with it: no monitor
                    // checks them, and a cell left behind would
                    // underflow at the peer's next acquisition.
                    if let Some(piece) = piece {
                        self.store.set_unlogged(id.into(), piece);
                        let count = self.store.have(id.into()).count();
                        self.piece_cells.shift(count - 1, count);
                    }
                }
            }
            FaultKind::IndexDrift => {
                if self.config.pieces > 0 {
                    self.replication.on_acquire(0);
                }
            }
            FaultKind::HalfOpenConnection => {
                let k = self.config.max_connections as usize;
                let mut found = None;
                'outer: for &id in self.tracker.peers() {
                    let peer = self.store.peer(id);
                    if peer.connections.len() >= k {
                        continue;
                    }
                    for &n in &peer.neighbors {
                        if !peer.is_connected(n) && self.store.at(n).is_some() {
                            found = Some((id, n));
                            break 'outer;
                        }
                    }
                }
                if let Some((a, b)) = found {
                    self.store.peer_mut(a).connections.push(b);
                }
            }
        }
    }
}

/// One pipeline slot: a stage plus its pre-resolved phase timer.
struct PipelineEntry {
    timer: bt_obs::Timer,
    stage: Box<dyn RoundStage>,
}

/// One observer slot, in [`OBSERVERS`] order: the `obs.<name>` timer
/// and the observer, when attached.
struct ObserverSlot {
    timer: bt_obs::Timer,
    observer: Option<Box<dyn RoundObserver>>,
}

/// A running (or finished) swarm simulation: a [`SwarmCore`] driven
/// through a stage pipeline each round.
///
/// # Example
///
/// ```
/// use bt_swarm::{Swarm, SwarmConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SwarmConfig::builder()
///     .pieces(20)
///     .max_connections(3)
///     .neighbor_set_size(8)
///     .arrival_rate(1.0)
///     .initial_leechers(10)
///     .max_rounds(200)
///     .seed(42)
///     .build()?;
/// let metrics = Swarm::new(config).run();
/// assert!(metrics.departures > 0, "someone should finish in 200 rounds");
/// # Ok(())
/// # }
/// ```
pub struct Swarm {
    core: SwarmCore,
    pipeline: Vec<PipelineEntry>,
    /// The pipeline's stage names, in execution order.
    stage_names: Vec<&'static str>,
    observers: Vec<ObserverSlot>,
    fault: Option<FaultSpec>,
}

impl std::fmt::Debug for Swarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Swarm")
            .field("core", &self.core)
            .field("pipeline", &self.stage_names)
            .finish_non_exhaustive()
    }
}

impl Swarm {
    /// Creates a swarm with its initial leechers in place, counting into
    /// the process-global [`bt_obs::Registry`].
    #[must_use]
    pub fn new(config: SwarmConfig) -> Self {
        // Audited: one-time handle resolution at construction, never in
        // the round loop. bt-lint: allow(shared-interior-mut)
        Swarm::with_registry(config, bt_obs::Registry::global())
    }

    /// Like [`Swarm::new`], but counters and phase timers accumulate in
    /// the given registry — used by tests and harnesses that need
    /// isolated totals.
    #[must_use]
    pub fn with_registry(config: SwarmConfig, registry: bt_obs::Registry) -> Self {
        let stages = default_pipeline(&config);
        Swarm::with_pipeline(config, registry, stages)
    }

    /// Creates a swarm that runs a custom stage pipeline instead of
    /// [`default_pipeline`] — the hook for scenario ablations (shaking
    /// off, no departures, an experimental policy stage, …). Stages run
    /// in the given order every round, each under the phase timer
    /// `round.<name>` named after its [`RoundStage::name`].
    #[must_use]
    pub fn with_pipeline(
        config: SwarmConfig,
        registry: bt_obs::Registry,
        stages: Vec<Box<dyn RoundStage>>,
    ) -> Self {
        let rng = SeedStream::new(config.seed).rng("swarm", 0);
        let stage_names = stages.iter().map(|stage| stage.name()).collect();
        let observers = OBSERVERS
            .iter()
            .map(|name| ObserverSlot {
                timer: registry.timer(&format!("obs.{name}")),
                observer: None,
            })
            .collect();
        let pipeline = stages
            .into_iter()
            .map(|stage| PipelineEntry {
                timer: registry.timer(&format!("round.{}", stage.name())),
                stage,
            })
            .collect();
        let mut core = SwarmCore {
            metrics: SwarmMetrics::new(config.pieces),
            store: PeerStore::new(config.pieces),
            tracker: Tracker::new(),
            replication: ReplicationIndex::new(config.pieces),
            round: 0,
            rng,
            obs: SwarmObs::new(registry),
            profile: bt_obs::ProfileSink::default(),
            audit: SwarmAudit::default(),
            piece_cells: bt_obs::CountCells::new(config.pieces),
            cohort: bt_obs::CohortSink::disabled(),
            completion_stream: CompletionStream::default(),
            join_handout: Vec::new(),
            config,
        };
        for _ in 0..core.config.initial_leechers {
            let id = core.spawn_peer();
            core.endow_initial(id);
        }
        Swarm {
            core,
            pipeline,
            stage_names,
            observers,
            fault: None,
        }
    }

    /// The configuration this swarm runs under.
    #[must_use]
    pub fn config(&self) -> &SwarmConfig {
        &self.core.config
    }

    /// The metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &SwarmMetrics {
        &self.core.metrics
    }

    /// Current leecher population.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.core.tracker.len() as u64
    }

    /// Current round number.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.core.round
    }

    /// The stage names of the active pipeline, in execution order.
    #[must_use]
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stage_names.clone()
    }

    /// Sets the worker-thread count for stages with a parallel plan
    /// phase (currently the exchange stage). Purely a throughput knob:
    /// the determinism contract guarantees byte-identical outputs at
    /// every value. Values below 1 are treated as 1.
    pub fn set_threads(&mut self, threads: u32) {
        for entry in &mut self.pipeline {
            entry.stage.set_threads(threads.max(1));
        }
    }

    /// The global per-piece replication counts, maintained incrementally
    /// by the replication index.
    #[must_use]
    pub fn replication_counts(&self) -> &[u64] {
        self.core.replication.counts()
    }

    /// Identifiers of the currently alive peers, in join order.
    #[must_use]
    pub fn alive_peer_ids(&self) -> Vec<PeerId> {
        self.core.tracker.peers().to_vec()
    }

    /// The possession bitfield of an alive peer: its row of the store's
    /// possession table.
    ///
    /// # Panics
    ///
    /// Panics if the peer has departed.
    #[must_use]
    pub fn peer_bitfield(&self, id: PeerId) -> crate::piece::Row<'_> {
        self.core.store.pieces_of(id)
    }

    /// The active-connection count of an alive peer.
    ///
    /// # Panics
    ///
    /// Panics if the peer has departed.
    #[must_use]
    pub fn peer_connection_count(&self, id: PeerId) -> u32 {
        self.core.store.peer(id).connections.len() as u32
    }

    /// The neighbors of an alive peer, in the order its list holds them.
    ///
    /// # Panics
    ///
    /// Panics if the peer has departed.
    #[must_use]
    // bt-lint: allow(pub-unused) integration-test access: the determinism suite pins a join wave's neighbor lists
    pub fn peer_neighbor_ids(&self, id: PeerId) -> Vec<PeerId> {
        let store = &self.core.store;
        store
            .peer(id)
            .neighbors
            .iter()
            .map(|&n| store.id_at(n))
            .collect()
    }

    /// Attaches a per-round telemetry recorder, binding it to this run's
    /// configuration. Subsequent rounds feed it samples and
    /// phase-detector observations.
    pub fn attach_telemetry(&mut self, mut recorder: TelemetryRecorder) {
        recorder.bind(&self.core.config);
        self.attach(Box::new(recorder));
    }

    /// Detaches and returns the telemetry recorder (flushing its stream),
    /// e.g. to inspect it after driving rounds with [`Swarm::step_round`].
    // bt-lint: allow(pub-unused) integration-test access: the telemetry suite reads the recorder after a run
    pub fn take_telemetry(&mut self) -> Option<TelemetryRecorder> {
        self.detach()
    }

    /// Enables cost-attribution profiling for subsequent rounds (see
    /// [`bt_obs::ProfileSink`]). The profiler makes no RNG calls and
    /// never feeds back into stage decisions, so attaching it leaves a
    /// same-seed run byte-identical — the property
    /// `crates/swarm/tests/determinism.rs` locks in.
    pub fn attach_profiler(&mut self, options: bt_obs::ProfileOptions) {
        self.core.profile = bt_obs::ProfileSink::enabled(options);
    }

    /// Detaches and returns the profiling sink, leaving profiling
    /// disabled — e.g. to write artifacts after driving rounds with
    /// [`Swarm::step_round`]. The returned sink is disabled (and its
    /// report `None`) when no profiler was attached.
    pub fn take_profile(&mut self) -> bt_obs::ProfileSink {
        std::mem::take(&mut self.core.profile)
    }

    /// Attaches a deterministic reservoir-sampled peer cohort of `size`
    /// members, streaming JSON-lines lifecycle events (join, piece
    /// acquisitions, choke-slot changes, phase transitions, departure)
    /// to `writer`. Membership is drawn from a private RNG stream salted
    /// off the run seed — the sink makes no model RNG calls, so
    /// attaching it leaves a same-seed run byte-identical (locked by
    /// `crates/swarm/tests/determinism.rs`). Peers already alive (the
    /// initial leechers) are offered to the reservoir immediately, in
    /// join order.
    pub fn attach_cohort(&mut self, size: u32, writer: Box<dyn std::io::Write + Send>) {
        let options = bt_obs::CohortOptions {
            size,
            seed: self.core.config.seed,
        };
        let mut sink = bt_obs::CohortSink::enabled(options, writer);
        let round = self.core.round;
        for i in 0..self.core.tracker.len() {
            let id = self.core.tracker.peers()[i];
            sink.offer_join(round, id.seq());
        }
        self.core.cohort = sink;
    }

    /// Detaches and returns the cohort sink (flushing its stream),
    /// leaving cohort tracing disabled — e.g. to count its events after
    /// driving rounds with [`Swarm::step_round`].
    // bt-lint: allow(pub-unused) integration-test access: the determinism suite reads the sink after a run
    pub fn take_cohort(&mut self) -> bt_obs::CohortSink {
        let mut sink = std::mem::replace(&mut self.core.cohort, bt_obs::CohortSink::disabled());
        sink.finish();
        sink
    }

    /// Streams one [`CompletionRecord`](crate::metrics::CompletionRecord)
    /// per counted completion to `writer`, after a
    /// [`CompletionMeta`] header written now: the per-peer acquisition
    /// rounds that [`SwarmMetrics::completions`] only sums. The stream
    /// only reads what the depart stage already has and makes no RNG
    /// calls, so attaching it leaves a same-seed run byte-identical.
    /// Read it back with [`read_completions`](crate::metrics::read_completions).
    pub fn attach_completions(&mut self, writer: Box<dyn std::io::Write + Send>) {
        let meta = CompletionMeta {
            schema_version: crate::metrics::COMPLETION_SCHEMA_VERSION,
            pieces: self.core.config.pieces,
            warmup_rounds: self.core.config.metrics_warmup_rounds,
        };
        self.core.completion_stream = CompletionStream::enabled(meta, writer);
    }

    /// Attaches a heartbeat emitter (see [`bt_obs::HeartbeatEmitter`]):
    /// subsequent rounds emit wall-clock-cadenced progress records to
    /// the emitter's run directory. The emitter only reads swarm state
    /// and makes no model RNG calls, so attaching it leaves a same-seed
    /// run byte-identical — `crates/swarm/tests/determinism.rs` locks
    /// the property in. Emission errors are logged, never fatal: a full
    /// disk must not kill a multi-hour run.
    pub fn attach_heartbeat(&mut self, emitter: bt_obs::HeartbeatEmitter) {
        self.attach(Box::new(emitter));
    }

    /// Detaches and returns the heartbeat emitter after writing its
    /// final beat and marking `run.status.json` finished — e.g. after
    /// driving rounds with [`Swarm::step_round`]. `None` when no
    /// emitter was attached.
    // bt-lint: allow(pub-unused) integration-test access: the determinism suite finishes the heartbeat after a run
    pub fn take_heartbeat(&mut self) -> Option<bt_obs::HeartbeatEmitter> {
        self.detach()
    }

    /// Attaches a [`SwarmDoctor`]: subsequent rounds are checked against
    /// the built-in invariant monitors at the doctor's cadence. Like the
    /// profiler and telemetry, the doctor only reads state and makes no
    /// RNG calls, so attaching it leaves a same-seed run byte-identical.
    pub fn attach_doctor(&mut self, options: DoctorOptions) {
        self.attach(Box::new(SwarmDoctor::new(options)));
    }

    /// Detaches the doctor and returns its report, e.g. after driving
    /// rounds with [`Swarm::step_round`]. `None` when no doctor was
    /// attached.
    pub fn take_doctor_report(&mut self) -> Option<DoctorReport> {
        self.detach().map(SwarmDoctor::finish)
    }

    /// Puts `observer` in its slot, replacing any observer of its kind.
    fn attach(&mut self, observer: Box<dyn RoundObserver>) {
        let index = OBSERVERS
            .iter()
            .position(|&name| name == observer.name())
            .expect("every observer is listed in OBSERVERS");
        self.observers[index].observer = Some(observer);
    }

    /// Finishes and detaches the attached observer of type `T`.
    fn detach<T: RoundObserver>(&mut self) -> Option<T> {
        let slot = self.observers.iter_mut().find(|slot| {
            slot.observer
                .as_deref()
                .is_some_and(|observer| (observer as &dyn Any).is::<T>())
        })?;
        let mut observer = slot.observer.take()?;
        observer.finish(&self.core);
        (observer as Box<dyn Any>)
            .downcast()
            .ok()
            .map(|observer| *observer)
    }

    /// Schedules a deliberate invariant-breaking fault (see
    /// [`FaultKind`]) to be applied after the stages of the given round —
    /// the test-only hook behind `btlab doctor --inject-fault`, proving
    /// the monitors fire and the diagnosis bundle lands.
    pub fn schedule_fault(&mut self, fault: FaultSpec) {
        self.fault = Some(fault);
    }

    /// Runs the simulation to its stop condition and returns the metrics.
    #[must_use]
    pub fn run(mut self) -> SwarmMetrics {
        self.drive();
        self.core.metrics
    }

    /// Like [`Swarm::run`], but also returns the profiling sink, so its
    /// artifacts can be written, and the doctor's report. The sink is
    /// disabled (report `None`) unless [`Swarm::attach_profiler`] was
    /// called first; the doctor's report is `None` unless
    /// [`Swarm::attach_doctor`] was.
    #[must_use]
    pub fn run_diagnosed(mut self) -> (SwarmMetrics, bt_obs::ProfileSink, Option<DoctorReport>) {
        self.drive();
        let report = self.take_doctor_report();
        let SwarmCore {
            metrics, profile, ..
        } = self.core;
        (metrics, profile, report)
    }

    /// Fires arrivals and rounds in clock order until the stop condition
    /// holds after a round; the arrival still pending then is dropped.
    fn drive(&mut self) {
        let _span = tracing::info_span!(target: "bt_swarm", "swarm.run").entered();
        tracing::info!(
            target: "bt_swarm",
            pieces = self.core.config.pieces,
            k = self.core.config.max_connections,
            s = self.core.config.neighbor_set_size,
            lambda = self.core.config.arrival_rate,
            initial = self.core.config.initial_leechers,
            seed = self.core.config.seed;
            "swarm run starting"
        );
        let core = &mut self.core;
        let mut clock = Clock::new(
            (core.config.arrival_rate > 0.0)
                .then(|| arrival_gap(core.config.arrival_rate, &mut core.rng)),
        );
        loop {
            if clock.arrival_first() {
                self.core.spawn_peer();
                clock.arrival_after(arrival_gap(
                    self.core.config.arrival_rate,
                    &mut self.core.rng,
                ));
                continue;
            }
            self.core.round += 1;
            self.execute_round();
            let done_rounds = self.core.round >= self.core.config.max_rounds;
            let done_completions = self
                .core
                .config
                .stop_after_completions
                .is_some_and(|n| self.core.metrics.completions.count() >= n);
            if done_rounds || done_completions {
                break;
            }
            clock.round_after();
        }
        self.core.metrics.rounds_run = self.core.round;
        for slot in &mut self.observers {
            if let Some(observer) = slot.observer.as_mut() {
                observer.finish(&self.core);
            }
        }
        self.core.cohort.finish();
        self.core.completion_stream.finish();
        tracing::info!(
            target: "bt_swarm",
            rounds = self.core.metrics.rounds_run,
            arrivals = self.core.metrics.arrivals,
            departures = self.core.metrics.departures,
            completions = self.core.metrics.completions.count(),
            final_population = self.core.metrics.final_population(),
            pieces = self.core.config.pieces,
            k = self.core.config.max_connections,
            s = self.core.config.neighbor_set_size,
            seed = self.core.config.seed;
            "swarm run finished"
        );
    }

    /// Runs exactly one round without the arrival clock (step-level
    /// control for tests and custom harnesses). Note: Poisson arrivals
    /// are fired only by [`Swarm::run`]'s clock, so stepped swarms see no
    /// new arrivals.
    pub fn step_round(&mut self) {
        self.core.round += 1;
        self.execute_round();
        self.core.metrics.rounds_run = self.core.round;
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[cfg(test)]
    fn peer(&self, id: PeerId) -> &Peer {
        self.core.store.peer(id)
    }

    #[cfg(test)]
    fn alive_ids(&self) -> Vec<PeerId> {
        self.core.tracker.peers().to_vec()
    }

    fn execute_round(&mut self) {
        let _span = tracing::debug_span!(target: "bt_swarm::round", "swarm.round").entered();
        self.core.obs.rounds.incr();
        self.core.profile.begin_round(self.core.round);
        for entry in &mut self.pipeline {
            self.core.profile.begin_stage(entry.stage.name());
            let probes_before = self.core.store.probe_count();
            // The stage's one clock reading: the registry timer records
            // it as `round.<stage>` and the profiler gets the same value.
            let elapsed = entry.timer.time(|| entry.stage.run(&mut self.core));
            let probes = self.core.store.probe_count().wrapping_sub(probes_before);
            self.core.profile.add_work("store.slab_probes", probes);
            // Audited: the profiler folds the stage time into its own
            // histograms, never read back by model code; the registry
            // `Mutex` it is linked to is a same-named `record` method.
            // bt-lint: allow(shared-interior-mut)
            self.core.profile.end_stage(elapsed);
        }
        self.core.profile.end_round();
        if self.fault.is_some_and(|f| f.round == self.core.round) {
            let fault = self.fault.take().expect("fault presence just checked");
            self.core.apply_fault(fault.kind);
        }
        // Each attached observer runs under its `obs.<name>` timer
        // (unobserved runs pay nothing): the manifest sums them into
        // `obs_share`, the quantity the `--obs-budget` gate checks.
        for slot in &mut self.observers {
            let Some(observer) = slot.observer.as_mut() else {
                continue;
            };
            slot.timer
                .time(|| observer.on_round(&self.core, &self.stage_names));
        }
        tracing::debug!(
            target: "bt_swarm::round",
            round = self.core.round,
            population = self.core.tracker.len(),
            departures = self.core.metrics.departures;
            "round complete"
        );
    }

    /// Checks the structural invariants: symmetric neighbor and
    /// connection relations, connections a subset of neighbors, neither
    /// list holding a peer twice, the `s` and `k` caps, each acquisition log
    /// agreeing with its bitfield, and the replication index agreeing
    /// with a from-scratch rebuild (its property-test oracle); used by
    /// tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn assert_invariants(&self) {
        let core = &self.core;
        for &id in core.tracker.peers() {
            let peer = core.store.peer(id);
            assert!(
                peer.neighbors.len() <= core.config.neighbor_set_size as usize,
                "{id} exceeds s"
            );
            assert!(
                peer.connections.len() <= core.config.max_connections as usize,
                "{id} exceeds k"
            );
            // The join path counts idle neighbors as the list minus the
            // connections, which needs both lists free of repeats.
            for list in [&peer.neighbors, &peer.connections] {
                assert!(
                    (1..list.len()).all(|i| !list[..i].contains(&list[i])),
                    "{id} lists a peer twice"
                );
            }
            let log = peer.acquisition_rounds();
            assert_eq!(
                log.len(),
                core.store.have(id.into()).count() as usize,
                "{id}'s acquisition log disagrees with its bitfield"
            );
            assert!(
                log.windows(2).all(|w| w[0] <= w[1]),
                "{id}'s acquisition log decreases"
            );
            assert!(
                log.last().is_none_or(|&r| u64::from(r) <= core.round),
                "{id}'s acquisition log runs past round {}",
                core.round
            );
            for &n in &peer.neighbors {
                let other = core
                    .store
                    .at(n)
                    .unwrap_or_else(|| panic!("{id} lists departed neighbor {n:?}"));
                assert!(
                    other.is_neighbor(id.into()),
                    "neighbor relation asymmetric: {id} {}",
                    other.id
                );
            }
            for &c in &peer.connections {
                let other = core
                    .store
                    .at(c)
                    .unwrap_or_else(|| panic!("{id} connected to departed {c:?}"));
                assert!(
                    peer.is_neighbor(c),
                    "{id} connected to non-neighbor {}",
                    other.id
                );
                assert!(
                    other.is_connected(id.into()),
                    "connection asymmetric: {id} {}",
                    other.id
                );
            }
        }
        // The oracle recounts the possession table's rows of the live
        // peers, never the index's own bookkeeping.
        let oracle = replication_counts(
            core.config.pieces,
            core.tracker
                .peers()
                .iter()
                .map(|&id| core.store.have(id.into())),
        );
        assert_eq!(
            core.replication.counts(),
            &oracle[..],
            "replication index diverged from the from-scratch rebuild"
        );
        let mut cells_oracle = vec![0u64; core.config.pieces as usize + 1];
        for &id in core.tracker.peers() {
            cells_oracle[core.store.have(id.into()).count() as usize] += 1;
        }
        assert_eq!(
            core.piece_cells.counts(),
            &cells_oracle[..],
            "piece-count cells diverged from the per-peer recount"
        );
    }
}

/// An in-memory stream a test keeps a handle to after the swarm owns
/// its writer.
#[cfg(test)]
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

#[cfg(test)]
impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

#[cfg(test)]
impl std::io::Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `config` to its stop condition with a completion stream
/// attached: the metrics, and the per-peer records read back from the
/// stream, whose count the metrics must agree with.
#[cfg(test)]
fn run_recorded(config: SwarmConfig) -> (SwarmMetrics, Vec<crate::metrics::CompletionRecord>) {
    let buf = SharedBuf::default();
    let mut swarm = Swarm::new(config);
    swarm.attach_completions(Box::new(buf.clone()));
    let metrics = swarm.run();
    let (_, records) = crate::metrics::read_completions(&buf.contents()[..]).unwrap();
    assert_eq!(records.len() as u64, metrics.completions.count());
    (metrics, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BootstrapInjection, PieceSelection};
    use crate::telemetry::TelemetrySample;

    fn small_config(seed: u64) -> SwarmConfig {
        SwarmConfig::builder()
            .pieces(12)
            .max_connections(3)
            .neighbor_set_size(6)
            .arrival_rate(0.5)
            .initial_leechers(12)
            .max_rounds(120)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn run_completes_downloads() {
        let (metrics, records) = run_recorded(small_config(1));
        assert!(metrics.departures > 0, "no peer completed in 120 rounds");
        assert_eq!(metrics.departures as usize, records.len());
        for rec in &records {
            assert_eq!(rec.acquisition_rounds.len(), 12);
            assert!(rec.completed_round >= rec.joined_round);
            for w in rec.acquisition_rounds.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Swarm::new(small_config(7)).run();
        let b = Swarm::new(small_config(7)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Swarm::new(small_config(1)).run();
        let b = Swarm::new(small_config(2)).run();
        assert_ne!(a, b);
    }

    #[test]
    fn invariants_hold_every_round() {
        let mut swarm = Swarm::new(small_config(3));
        for _ in 0..60 {
            swarm.step_round();
            swarm.assert_invariants();
        }
    }

    // The tentpole equivalence: the sketch-built sample (piece cells +
    // audit balance + replication index) must be bit-identical to the
    // full-scan Snapshot path every round, including f64 fields.
    #[test]
    fn sketch_sample_matches_snapshot_oracle() {
        let mut swarm = Swarm::new(small_config(9));
        for _ in 0..80 {
            swarm.step_round();
            let exact = TelemetrySample::from_snapshot(
                &crate::snapshot::Snapshot::capture(&swarm),
                swarm.config().max_connections,
            );
            assert_eq!(crate::observe::current_sample(&swarm.core), exact);
        }
    }

    #[test]
    fn sketch_sample_handles_empty_swarm() {
        let config = SwarmConfig::builder()
            .pieces(5)
            .max_connections(1)
            .neighbor_set_size(1)
            .arrival_rate(0.0)
            .initial_leechers(0)
            .max_rounds(5)
            .seed(0)
            .build()
            .unwrap();
        let swarm = Swarm::new(config);
        let exact = TelemetrySample::from_snapshot(
            &crate::snapshot::Snapshot::capture(&swarm),
            swarm.config().max_connections,
        );
        let sample = crate::observe::current_sample(&swarm.core);
        assert_eq!(sample, exact);
        assert_eq!(sample.population, 0);
    }

    #[test]
    fn cohort_reservoir_traces_member_lifecycles() {
        let buf = SharedBuf::default();
        let mut swarm = Swarm::new(small_config(11));
        swarm.attach_cohort(4, Box::new(buf.clone()));
        for _ in 0..120 {
            swarm.step_round();
        }
        let sink = swarm.take_cohort();
        assert!(sink.events() > 0, "a 120-round run must trace something");
        let (meta, events) = bt_obs::read_cohort(&buf.contents()[..]).unwrap();
        assert_eq!(meta.size, 4);
        assert_eq!(meta.seed, swarm.config().seed);
        assert_eq!(events.len() as u64, sink.events());
        // Every traced event belongs to a peer that joined the reservoir.
        let mut joined = std::collections::BTreeSet::new();
        for event in &events {
            match event {
                bt_obs::CohortEvent::Join(j) => {
                    joined.insert(j.peer);
                }
                other => {
                    assert!(
                        joined.contains(&other.peer()),
                        "event for {} before its join record",
                        other.peer()
                    );
                }
            }
        }
    }

    #[test]
    fn stop_after_completions_respected() {
        let config = SwarmConfig::builder()
            .pieces(8)
            .max_connections(3)
            .neighbor_set_size(6)
            .arrival_rate(1.0)
            .initial_leechers(16)
            .max_rounds(500)
            .stop_after_completions(5)
            .seed(9)
            .build()
            .unwrap();
        let metrics = Swarm::new(config).run();
        assert!(metrics.departures >= 5);
        assert!(metrics.rounds_run < 500, "should stop early");
    }

    #[test]
    fn observers_record_trajectories() {
        let config = SwarmConfig::builder()
            .pieces(10)
            .max_connections(3)
            .neighbor_set_size(6)
            .arrival_rate(0.0)
            .initial_leechers(10)
            .max_rounds(80)
            .observers(3)
            .seed(5)
            .build()
            .unwrap();
        let metrics = Swarm::new(config).run();
        assert_eq!(metrics.observers.len(), 3);
        for log in &metrics.observers {
            assert!(!log.is_empty(), "observer {} never sampled", log.id);
            // Pieces monotone.
            for w in log.pieces.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }

    #[test]
    fn no_arrivals_zero_rate() {
        let config = SwarmConfig::builder()
            .pieces(6)
            .max_connections(2)
            .neighbor_set_size(4)
            .arrival_rate(0.0)
            .initial_leechers(6)
            .max_rounds(100)
            .seed(11)
            .build()
            .unwrap();
        let metrics = Swarm::new(config).run();
        assert_eq!(metrics.arrivals, 6, "only the initial leechers");
    }

    #[test]
    fn arrivals_accumulate_with_rate() {
        let config = SwarmConfig::builder()
            .pieces(6)
            .max_connections(2)
            .neighbor_set_size(4)
            .arrival_rate(2.0)
            .initial_leechers(0)
            .max_rounds(100)
            .seed(13)
            .build()
            .unwrap();
        let metrics = Swarm::new(config).run();
        // Poisson(2/round) over 100 rounds ≈ 200 arrivals.
        assert!(
            (100..320).contains(&metrics.arrivals),
            "got {} arrivals",
            metrics.arrivals
        );
    }

    #[test]
    fn alive_peers_stay_in_seq_order_under_churn() {
        // Tracker handouts index a seq-sorted alive list: arrivals append
        // and departures leave gaps, so the order must survive churn.
        let mut config = crate::scenario::stability(3, 5).unwrap();
        config.max_rounds = 40;
        let mut swarm = Swarm::new(config);
        swarm.drive();
        let metrics = swarm.metrics();
        assert!(metrics.arrivals > 300, "Poisson arrivals joined");
        assert!(metrics.departures > 0, "completed peers departed");
        let alive = swarm.alive_peer_ids();
        assert!(
            alive.windows(2).all(|w| w[0] < w[1]),
            "alive peers are strictly increasing by seq"
        );
    }

    #[test]
    fn rarest_first_beats_random_on_entropy() {
        let run = |strategy| {
            let config = SwarmConfig::builder()
                .pieces(16)
                .max_connections(3)
                .neighbor_set_size(8)
                .arrival_rate(1.0)
                .initial_leechers(20)
                .max_rounds(150)
                .piece_selection(strategy)
                .seed(17)
                .build()
                .unwrap();
            let m = Swarm::new(config).run();
            let tail = &m.entropy[m.entropy.len() / 2..];
            tail.iter().map(|&(_, e)| e).sum::<f64>() / tail.len() as f64
        };
        let rarest = run(PieceSelection::RarestFirst);
        let random = run(PieceSelection::RandomFirst);
        assert!(
            rarest >= random - 0.15,
            "rarest-first entropy {rarest} should not trail random {random} badly"
        );
    }

    #[test]
    fn shake_marks_peers() {
        let config = SwarmConfig::builder()
            .pieces(10)
            .max_connections(3)
            .neighbor_set_size(5)
            .arrival_rate(0.5)
            .initial_leechers(10)
            .max_rounds(100)
            .shake_at(0.5)
            .seed(19)
            .build()
            .unwrap();
        let metrics = Swarm::new(config).run();
        // Peers that completed necessarily crossed the 50% threshold and
        // must have gone through a shake; the run still completes.
        assert!(metrics.departures > 0);
    }

    #[test]
    fn bootstrap_off_strands_empty_peers() {
        let config = SwarmConfig::builder()
            .pieces(6)
            .max_connections(2)
            .neighbor_set_size(4)
            .arrival_rate(0.0)
            .initial_leechers(8)
            .bootstrap(BootstrapInjection::Off)
            .seed_uploads_per_round(0)
            .max_rounds(50)
            .seed(23)
            .build()
            .unwrap();
        let metrics = Swarm::new(config).run();
        assert_eq!(metrics.departures, 0, "nobody can acquire a first piece");
        assert_eq!(metrics.final_population(), 8);
    }

    #[test]
    fn initial_skew_lowers_entropy() {
        let entropy_with = |endowment| {
            let config = SwarmConfig::builder()
                .pieces(10)
                .max_connections(2)
                .neighbor_set_size(5)
                .arrival_rate(0.0)
                .initial_leechers(30)
                .initial_pieces(endowment)
                .bootstrap(BootstrapInjection::Off)
                .seed_uploads_per_round(0)
                .max_rounds(1)
                .seed(29)
                .build()
                .unwrap();
            Swarm::new(config).run().entropy[0].1
        };
        let skewed = entropy_with(InitialPieces::Skewed {
            count: 3,
            strength: 0.3,
        });
        let random = entropy_with(InitialPieces::Random { count: 3 });
        assert!(
            skewed < random,
            "skewed start ({skewed}) must be more skewed than random ({random})"
        );
    }

    #[test]
    fn utilization_is_a_fraction() {
        let metrics = Swarm::new(small_config(31)).run();
        let u = metrics.mean_utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }
}

#[cfg(test)]
mod mechanism_tests {
    use super::*;
    use crate::config::InitialPieces;
    use crate::SwarmConfig;

    #[test]
    fn shake_clears_and_refills_neighbors() {
        let config = SwarmConfig::builder()
            .pieces(10)
            .max_connections(2)
            .neighbor_set_size(4)
            .arrival_rate(0.0)
            .initial_leechers(12)
            .shake_at(0.5)
            .seed(31)
            .max_rounds(100)
            .build()
            .unwrap();
        let mut swarm = Swarm::new(config);
        let mut saw_shaken_with_neighbors = false;
        for _ in 0..100 {
            swarm.step_round();
            swarm.assert_invariants();
            for id in swarm.alive_ids() {
                let peer = swarm.peer(id);
                if peer.shaken && !peer.neighbors.is_empty() {
                    saw_shaken_with_neighbors = true;
                }
            }
        }
        assert!(
            saw_shaken_with_neighbors,
            "a shaken peer must get a fresh neighbor set from the tracker"
        );
    }

    #[test]
    fn shaken_peers_keep_their_reservations_and_caps() {
        let (s, k) = (6, 3);
        let config = SwarmConfig::builder()
            .pieces(10)
            .max_connections(k)
            .neighbor_set_size(s)
            .arrival_rate(0.0)
            .initial_leechers(16)
            .shake_at(0.5)
            .seed(31)
            .max_rounds(100)
            .build()
            .unwrap();
        let mut swarm = Swarm::new(config);
        let mut shaken_seen = 0;
        for _ in 0..100 {
            swarm.step_round();
            swarm.assert_invariants();
            for id in swarm.alive_ids() {
                let peer = swarm.peer(id);
                assert_eq!(peer.neighbors.capacity(), s as usize, "{id} neighbor slots");
                assert_eq!(
                    peer.connections.capacity(),
                    k as usize,
                    "{id} connection slots"
                );
                shaken_seen += usize::from(peer.shaken);
            }
        }
        assert!(shaken_seen > 0, "some peer must shake and stay");
    }

    #[test]
    fn new_connections_per_round_caps_initiations() {
        // With a cap of 1 and no prior connections, a peer can hold at most
        // 1 + (targets initiated by others) connections after round one.
        let config = SwarmConfig::builder()
            .pieces(20)
            .max_connections(5)
            .neighbor_set_size(10)
            .arrival_rate(0.0)
            .initial_leechers(10)
            .initial_pieces(InitialPieces::Random { count: 8 })
            .new_connections_per_round(1)
            .p_reencounter(1.0)
            .seed(37)
            .max_rounds(1)
            .build()
            .unwrap();
        let mut swarm = Swarm::new(config);
        swarm.step_round();
        let total: usize = swarm
            .alive_ids()
            .iter()
            .map(|&id| swarm.peer(id).connections.len())
            .sum();
        // Each of the 10 peers initiates at most once: at most 10 new
        // connections, i.e. 20 endpoint slots.
        assert!(total <= 20, "endpoints {total} exceed one initiation each");
        assert!(total > 0, "someone should connect");
    }

    #[test]
    fn bootstrap_relief_reduces_bootstrap_time() {
        let run = |relief: bool| {
            let config = SwarmConfig::builder()
                .pieces(30)
                .max_connections(3)
                .neighbor_set_size(4)
                .arrival_rate(0.5)
                .initial_leechers(40)
                .initial_pieces(InitialPieces::Skewed {
                    count: 10,
                    strength: 0.3,
                })
                .bootstrap(crate::BootstrapInjection::Weighted { seed_weight: 0.02 })
                .seed_uploads_per_round(1)
                .bootstrap_relief(relief)
                .metrics_warmup_rounds(3)
                .max_rounds(600)
                .stop_after_completions(25)
                .seed(43)
                .build()
                .unwrap();
            Swarm::new(config).run().completions.mean_bootstrap_rounds()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without,
            "relief should shorten bootstrap: {with:.2} vs {without:.2}"
        );
    }

    #[test]
    fn warmup_excludes_early_completions() {
        let config = SwarmConfig::builder()
            .pieces(8)
            .max_connections(3)
            .neighbor_set_size(6)
            .arrival_rate(1.0)
            .initial_leechers(10)
            .metrics_warmup_rounds(5)
            .max_rounds(80)
            .seed(47)
            .build()
            .unwrap();
        let (metrics, records) = run_recorded(config);
        // Records only from post-warm-up joiners; departures count all.
        assert!(metrics.completions.count() <= metrics.departures);
        for rec in &records {
            assert!(rec.joined_round >= 5, "{rec:?} joined during warm-up");
        }
    }

    #[test]
    fn observer_completion_follows_the_warmup_rule() {
        // An observer's log carries its completion round exactly when
        // the completion is counted: never for a warm-up joiner.
        let config = SwarmConfig::builder()
            .pieces(8)
            .max_connections(3)
            .neighbor_set_size(6)
            .arrival_rate(1.0)
            .initial_leechers(10)
            .metrics_warmup_rounds(5)
            .observers(40)
            .max_rounds(80)
            .seed(47)
            .build()
            .unwrap();
        let (metrics, records) = run_recorded(config);
        let (mut counted, mut warmup) = (0, 0);
        for log in &metrics.observers {
            let record = records.iter().find(|rec| rec.id == log.id);
            assert_eq!(
                log.completed_round,
                record.map(|rec| rec.completed_round),
                "observer {}",
                log.id
            );
            counted += usize::from(record.is_some());
            let departed = log.rounds.last() < Some(&metrics.rounds_run);
            warmup += usize::from(departed && log.completed_round.is_none());
        }
        assert!(counted > 0, "some observer completed after the warm-up");
        assert!(warmup > 0, "some warm-up observer departed uncounted");
    }

    #[test]
    fn seed_uploads_prefer_rarest() {
        // One peer, B=4: the seed should deliver distinct pieces in
        // sequence (each upload targets the rarest = an unheld piece).
        let config = SwarmConfig::builder()
            .pieces(4)
            .max_connections(1)
            .neighbor_set_size(1)
            .arrival_rate(0.0)
            .initial_leechers(1)
            .bootstrap(crate::BootstrapInjection::Off)
            .seed_uploads_per_round(1)
            .max_rounds(4)
            .seed(53)
            .build()
            .unwrap();
        let (metrics, records) = run_recorded(config);
        assert_eq!(metrics.departures, 1, "4 uploads complete 4 pieces");
        assert_eq!(records[0].acquisition_rounds, vec![1, 2, 3, 4]);
    }
}

#[cfg(test)]
mod block_tests {
    use super::*;
    use crate::config::InitialPieces;
    use crate::SwarmConfig;

    fn block_config(blocks: u32, seed: u64) -> SwarmConfig {
        SwarmConfig::builder()
            .pieces(10)
            .max_connections(3)
            .neighbor_set_size(6)
            .arrival_rate(0.5)
            .initial_leechers(10)
            .initial_pieces(InitialPieces::Random { count: 3 })
            .blocks_per_piece(blocks)
            .max_rounds(600)
            .stop_after_completions(10)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn zero_blocks_rejected() {
        assert!(SwarmConfig::builder().blocks_per_piece(0).build().is_err());
    }

    #[test]
    fn block_mode_completes_downloads() {
        let (metrics, records) = run_recorded(block_config(4, 1));
        assert!(metrics.departures >= 10);
        for rec in &records {
            assert_eq!(rec.acquisition_rounds.len(), 10);
        }
    }

    #[test]
    fn more_blocks_mean_slower_downloads() {
        let rounds = |blocks| {
            Swarm::new(block_config(blocks, 2))
                .run()
                .completions
                .mean_download_rounds()
        };
        let fast = rounds(1);
        let slow = rounds(8);
        assert!(
            slow > fast * 2.0,
            "8 blocks/piece ({slow:.1}) should be much slower than 1 ({fast:.1})"
        );
    }

    #[test]
    fn block_mode_keeps_invariants() {
        let mut swarm = Swarm::new(block_config(4, 3));
        for _ in 0..80 {
            swarm.step_round();
            swarm.assert_invariants();
            for id in swarm.alive_ids() {
                let peer = swarm.peer(id);
                for (&piece, &progress) in &peer.partial {
                    assert!(progress < 4, "partial progress must stay below completion");
                    assert!(
                        !swarm.peer_bitfield(id).contains(piece),
                        "held pieces must not linger in partial"
                    );
                }
            }
        }
    }

    #[test]
    fn single_block_matches_legacy_behavior() {
        // blocks_per_piece = 1 must be byte-identical to the original
        // piece-per-round semantics (same RNG consumption).
        let metrics = Swarm::new(block_config(1, 4)).run();
        assert!(metrics.departures >= 10);
        // One piece per connection-round: a download of 10 pieces with up
        // to 3 connections finishes within a handful of rounds.
        assert!(metrics.completions.mean_download_rounds() < 30.0);
    }
}

#[cfg(test)]
mod plan_commit_tests {
    use super::*;
    use crate::config::{InitialPieces, PieceSelection};
    use crate::SwarmConfig;
    use proptest::prelude::*;

    /// A complete textual digest of the model-visible swarm state: every
    /// alive peer's bitfield, topology, credit, and partials, plus the
    /// mutation audit and the replication index. Two runs with equal
    /// digests have made identical exchange decisions.
    fn state_digest(swarm: &Swarm) -> String {
        use std::fmt::Write as _;
        let core = &swarm.core;
        let mut out = String::new();
        for &id in core.tracker.peers() {
            let peer = core.store.peer(id);
            let have: Vec<u32> = core.store.have(id.into()).iter().collect();
            let seq = |&r: &PeerRef| core.store.peer_at(r).id.seq();
            let neighbors: Vec<u64> = peer.neighbors.iter().map(seq).collect();
            let connections: Vec<u64> = peer.connections.iter().map(seq).collect();
            // Departed senders keep their entries, so credit is listed
            // by reference.
            let credit = &peer.credit;
            writeln!(
                out,
                "peer {} have={:?} nbrs={:?} conns={:?} credit={:?} partial={:?} shaken={} slow={}",
                id.seq(),
                have,
                neighbors,
                connections,
                credit,
                peer.partial,
                peer.shaken,
                peer.slow,
            )
            .unwrap();
        }
        writeln!(out, "audit {:?}", core.audit).unwrap();
        writeln!(out, "replication {:?}", core.replication.counts()).unwrap();
        writeln!(out, "cells {:?}", core.piece_cells.counts()).unwrap();
        out
    }

    fn plan_commit_config(seed: u64, rarest: bool) -> SwarmConfig {
        SwarmConfig::builder()
            .pieces(16)
            .max_connections(3)
            .neighbor_set_size(6)
            .arrival_rate(0.0)
            .initial_leechers(24)
            .initial_pieces(InitialPieces::Random { count: 4 })
            .piece_selection(if rarest {
                PieceSelection::RarestFirst
            } else {
                PieceSelection::RandomFirst
            })
            .max_rounds(40)
            .seed(seed)
            .build()
            .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sharding theorem behind `--threads`: because every pair
        /// plan draws from a stateless per-pair stream, running the plan
        /// phase on one shard or many must leave the entire store, audit,
        /// replication index, and piece cells identical after any number
        /// of rounds.
        #[test]
        fn one_shard_plan_equals_many_shards(
            seed in any::<u64>(),
            threads in 2u32..9,
            rarest in prop::bool::ANY,
        ) {
            let mut serial = Swarm::new(plan_commit_config(seed, rarest));
            serial.set_threads(1);
            let mut sharded = Swarm::new(plan_commit_config(seed, rarest));
            sharded.set_threads(threads);
            for round in 0..30 {
                serial.step_round();
                sharded.step_round();
                prop_assert_eq!(
                    state_digest(&serial),
                    state_digest(&sharded),
                    "state diverged at round {} with {} threads",
                    round + 1,
                    threads
                );
            }
            serial.assert_invariants();
            sharded.assert_invariants();
        }
    }

    /// The pair list as it was built before the sort-free builder:
    /// every connection as `(low, high)` ids, collected, then sorted
    /// whole.
    fn sorted_pairs_oracle(core: &SwarmCore) -> Vec<(PeerId, PeerId)> {
        let mut out = Vec::new();
        for &id in core.tracker.peers() {
            for &other in &core.store.peer(id).connections {
                let other = core.store.peer_at(other).id;
                if id < other {
                    out.push((id, other));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn sort_free_pairs_equal_the_sorted_collection_under_churn() {
        // An open swarm: peers complete and depart every round, and
        // arrivals between rounds move into the freed slots, so slot
        // order drifts away from seq order.
        let config = SwarmConfig::builder()
            .pieces(12)
            .max_connections(4)
            .neighbor_set_size(8)
            .initial_leechers(30)
            .initial_pieces(InitialPieces::Random { count: 3 })
            .max_rounds(200)
            .seed(11)
            .build()
            .unwrap();
        let mut swarm = Swarm::new(config);
        let mut pairs = Vec::new();
        let mut pairs_seen = 0;
        for round in 0..120 {
            for _ in 0..round % 4 {
                swarm.core.spawn_peer();
            }
            swarm.step_round();
            swarm.core.collect_connection_pairs(&mut pairs);
            let store = &swarm.core.store;
            let built: Vec<(PeerId, PeerId)> = pairs
                .iter()
                .map(|&(a, b)| (store.peer_at(a).id, store.peer_at(b).id))
                .collect();
            assert_eq!(built, sorted_pairs_oracle(&swarm.core), "round {round}");
            pairs_seen += pairs.len();
        }
        assert!(pairs_seen > 500, "only {pairs_seen} pairs compared");
        assert!(
            (swarm.core.store.capacity() as u64) < swarm.core.metrics.arrivals,
            "arrivals reused freed slots"
        );
    }

    /// The same equivalence on the metrics a full threaded run reports.
    #[test]
    fn threaded_run_metrics_match_serial() {
        for threads in [2, 4, 8] {
            let (serial_stream, sharded_stream) = (SharedBuf::default(), SharedBuf::default());
            let mut serial = Swarm::new(plan_commit_config(77, true));
            serial.set_threads(1);
            serial.attach_completions(Box::new(serial_stream.clone()));
            let mut sharded = Swarm::new(plan_commit_config(77, true));
            sharded.set_threads(threads);
            sharded.attach_completions(Box::new(sharded_stream.clone()));
            for _ in 0..40 {
                serial.step_round();
                sharded.step_round();
            }
            assert_eq!(serial.metrics(), sharded.metrics(), "threads={threads}");
            assert!(serial.metrics().completions.count() > 0, "peers completed");
            assert_eq!(
                serial_stream.contents(),
                sharded_stream.contents(),
                "completion records at threads={threads}"
            );
        }
    }
}

#[cfg(test)]
mod bandwidth_tests {
    use super::*;
    use crate::config::InitialPieces;
    use crate::SwarmConfig;

    #[test]
    fn slow_fraction_validated() {
        assert!(SwarmConfig::builder()
            .slow_peer_fraction(1.5)
            .build()
            .is_err());
        assert!(SwarmConfig::builder()
            .slow_peer_fraction(-0.1)
            .build()
            .is_err());
        assert!(SwarmConfig::builder()
            .slow_peer_fraction(0.5)
            .slow_upload_budget(0)
            .build()
            .is_err());
    }

    #[test]
    fn slow_peers_download_slower() {
        let config = SwarmConfig::builder()
            .pieces(30)
            .max_connections(4)
            .neighbor_set_size(10)
            .arrival_rate(1.5)
            .initial_leechers(20)
            .initial_pieces(InitialPieces::Random { count: 10 })
            .slow_peer_fraction(0.4)
            .slow_upload_budget(1)
            .max_rounds(500)
            .stop_after_completions(120)
            .seed(61)
            .build()
            .unwrap();
        let metrics = Swarm::new(config).run();
        let (fast, slow) = metrics.completions.mean_download_rounds_by_class();
        assert!(
            fast.is_finite() && slow.is_finite(),
            "both classes complete"
        );
        assert!(
            slow > fast,
            "strict tit-for-tat makes slow peers slower: fast {fast:.1} vs slow {slow:.1}"
        );
    }

    #[test]
    fn homogeneous_default_has_no_slow_completions() {
        let config = SwarmConfig::builder()
            .pieces(10)
            .max_connections(3)
            .neighbor_set_size(6)
            .arrival_rate(0.5)
            .initial_leechers(10)
            .max_rounds(100)
            .seed(67)
            .build()
            .unwrap();
        let (metrics, records) = run_recorded(config);
        assert!(records.iter().all(|r| !r.slow));
        let (_, slow_mean) = metrics.completions.mean_download_rounds_by_class();
        assert!(slow_mean.is_nan());
    }
}

#[cfg(test)]
mod join_path_tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan-based linking the engine ran before the idle count came
    /// from the list lengths: membership checked again on both sides,
    /// idle neighbors counted and then found by a second filtered scan,
    /// both removals by `retain`. The oracle for
    /// [`SwarmCore::add_symmetric_neighbor`].
    fn oracle_add_symmetric_neighbor(
        core: &mut SwarmCore,
        a: PeerId,
        b: PeerId,
        evict: bool,
    ) -> bool {
        if a == b || core.store.peer(a).is_neighbor(b.into()) {
            return false;
        }
        let s = core.config.neighbor_set_size as usize;
        for id in [a, b] {
            if core.store.peer(id).neighbors.len() >= s
                && (!evict || !oracle_evict_idle_neighbor(core, id))
            {
                return false;
            }
        }
        core.store.peer_mut(a).add_neighbor(b.into());
        core.store.peer_mut(b).add_neighbor(a.into());
        true
    }

    /// The oracle for [`SwarmCore::evict_idle_neighbor`].
    fn oracle_evict_idle_neighbor(core: &mut SwarmCore, id: PeerId) -> bool {
        let me = core.store.peer(id);
        let idle_count = me
            .neighbors
            .iter()
            .filter(|&&n| !me.is_connected(n))
            .count();
        if idle_count == 0 {
            return false;
        }
        let pick = core.rng.gen_range(0..idle_count);
        let me = core.store.peer(id);
        let victim = me
            .neighbors
            .iter()
            .copied()
            .filter(|&n| !me.is_connected(n))
            .nth(pick)
            .expect("pick is within the idle count");
        core.store.peer_mut(id).remove_neighbor(victim);
        if let Some(v) = core.store.at_mut(victim) {
            v.remove_neighbor(id.into());
        }
        true
    }

    /// A random topology to link into: neighbor pairs (added while both
    /// sides have room, so some lists end full), connection pairs
    /// between neighbors (while both sides are under `k`), and an
    /// optional half-open connection, the seeded fault's one-sided push,
    /// optionally followed by the reciprocal open that lists it twice.
    #[derive(Debug, Clone)]
    struct Topology {
        peers: u32,
        s: u32,
        k: u32,
        links: Vec<(usize, usize)>,
        connections: Vec<(usize, usize)>,
        half_open: Option<(usize, bool)>,
        joins: Vec<(usize, usize, bool)>,
        seed: u64,
    }

    fn topology() -> impl Strategy<Value = Topology> {
        (2u32..30, 2u32..9).prop_flat_map(|(peers, s)| {
            let n = peers as usize;
            (
                1..=s,
                prop::collection::vec((0..n, 0..n), 0..(n * s as usize)),
                prop::collection::vec((0..n, 0..n), 0..(2 * n)),
                (0..3u8, 0..n, any::<bool>()),
                prop::collection::vec((0..n, 0..n, any::<bool>()), 1..60),
                any::<u64>(),
            )
                .prop_map(
                    move |(k, links, connections, (fault, at, reciprocal), joins, seed)| Topology {
                        peers,
                        s,
                        k,
                        links,
                        connections,
                        half_open: (fault > 0).then_some((at, reciprocal)),
                        joins,
                        seed,
                    },
                )
        })
    }

    /// A swarm of `t.peers` peers whose construction-time topology is
    /// replaced by `t`'s.
    fn build(t: &Topology) -> (Swarm, Vec<PeerId>) {
        let config = SwarmConfig::builder()
            .pieces(8)
            .max_connections(t.k)
            .neighbor_set_size(t.s)
            .initial_leechers(t.peers)
            .seed(t.seed)
            .build()
            .expect("valid config");
        let mut swarm = Swarm::new(config);
        let ids = swarm.alive_peer_ids();
        let core = &mut swarm.core;
        for &id in &ids {
            let peer = core.store.peer_mut(id);
            peer.neighbors.clear();
            peer.connections.clear();
        }
        let (s, k) = (t.s as usize, t.k as usize);
        for &(i, j) in &t.links {
            let (a, b) = (ids[i], ids[j]);
            let room = |id| core.store.peer(id).neighbors.len() < s;
            if a != b && !core.store.peer(a).is_neighbor(b.into()) && room(a) && room(b) {
                core.store.peer_mut(a).neighbors.push(b.into());
                core.store.peer_mut(b).neighbors.push(a.into());
            }
        }
        for &(i, j) in &t.connections {
            let (a, b) = (ids[i], ids[j]);
            let room = |id| core.store.peer(id).connections.len() < k;
            if core.store.peer(a).is_neighbor(b.into())
                && !core.store.peer(a).is_connected(b.into())
                && room(a)
                && room(b)
            {
                core.store.peer_mut(a).connections.push(b.into());
                core.store.peer_mut(b).connections.push(a.into());
            }
        }
        if let Some((i, reciprocal)) = t.half_open {
            let a = ids[i];
            let me = core.store.peer(a);
            let idle = me.neighbors.iter().copied().find(|&n| !me.is_connected(n));
            if let Some(b) = idle {
                core.store.peer_mut(a).connections.push(b);
                if reciprocal {
                    core.store.peer_at_mut(b).connections.push(a.into());
                    core.store.peer_mut(a).connections.push(b);
                }
            }
        }
        (swarm, ids)
    }

    /// Every peer's neighbor and connection lists, as seqs in list order.
    fn lists(swarm: &Swarm) -> Vec<(Vec<u64>, Vec<u64>)> {
        let store = &swarm.core.store;
        let seqs = |refs: &[PeerRef]| refs.iter().map(|&r| store.peer_at(r).id.seq()).collect();
        swarm
            .core
            .tracker
            .peers()
            .iter()
            .map(|&id| {
                let peer = store.peer(id);
                (seqs(&peer.neighbors), seqs(&peer.connections))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn join_linking_matches_the_scan_oracle(t in topology()) {
            let (mut fast, ids) = build(&t);
            let (mut oracle, _) = build(&t);
            prop_assert_eq!(lists(&fast), lists(&oracle));
            for &(i, j, evict) in &t.joins {
                let (a, b) = (ids[i], ids[j]);
                let got = fast.core.add_symmetric_neighbor(a, b, evict);
                let want = oracle_add_symmetric_neighbor(&mut oracle.core, a, b, evict);
                prop_assert_eq!(got, want, "linking {} and {}", a, b);
            }
            prop_assert_eq!(lists(&fast), lists(&oracle));
            prop_assert_eq!(fast.core.rng.gen::<u64>(), oracle.core.rng.gen::<u64>());
        }
    }

    #[test]
    fn eviction_without_connections_indexes_the_pick() {
        // A full peer with no open connection: every neighbor is idle, so
        // the pick indexes the list directly, and the rest keep order.
        let t = Topology {
            peers: 6,
            s: 3,
            k: 2,
            links: vec![(0, 1), (0, 2), (0, 3)],
            connections: Vec::new(),
            half_open: None,
            joins: vec![(4, 0, true)],
            seed: 5,
        };
        let (mut swarm, ids) = build(&t);
        let before = swarm.peer_neighbor_ids(ids[0]);
        assert!(swarm.core.add_symmetric_neighbor(ids[4], ids[0], true));
        let after = swarm.peer_neighbor_ids(ids[0]);
        assert_eq!(after.len(), 3);
        assert_eq!(after[2], ids[4], "the newcomer is appended");
        let kept: Vec<PeerId> = before
            .iter()
            .copied()
            .filter(|p| after.contains(p))
            .collect();
        assert_eq!(kept, after[..2], "survivors keep their order");
        swarm.assert_invariants();
    }
}

#[cfg(test)]
mod clock_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One fired event: its tick, and whether it was an arrival (else a
    /// round).
    type Fired = (u64, bool);

    /// The event loop `drive` ran before the clock: a binary heap keyed
    /// by `(tick, seq)`, where `seq` counts pushes, so events on one tick
    /// fire in the order they were scheduled. Fires the first arrival at
    /// `first`, each next one `gap()` ticks after it, and round `r` at
    /// tick `r * ROUND_TICKS`, until `rounds` rounds or `max_events`
    /// events have fired.
    fn heap_order(
        first: u64,
        rounds: u64,
        max_events: usize,
        mut gap: impl FnMut() -> u64,
    ) -> Vec<Fired> {
        let mut heap =
            BinaryHeap::from([Reverse((first, 0, true)), Reverse((ROUND_TICKS, 1, false))]);
        let mut fired = Vec::new();
        for seq in 2.. {
            let Reverse((tick, _, arrival)) = heap.pop().expect("two events pending");
            fired.push((tick, arrival));
            if fired.len() == max_events || (!arrival && tick == rounds * ROUND_TICKS) {
                break;
            }
            let next = if arrival {
                tick + gap()
            } else {
                tick + ROUND_TICKS
            };
            heap.push(Reverse((next, seq, arrival)));
        }
        fired
    }

    /// [`heap_order`] through the [`Clock`], as `drive` steps it.
    fn clock_order(
        first: u64,
        rounds: u64,
        max_events: usize,
        mut gap: impl FnMut() -> u64,
    ) -> Vec<Fired> {
        let mut clock = Clock::new(Some(first));
        let mut fired = Vec::new();
        loop {
            let arrival = clock.arrival_first();
            let tick = if arrival {
                clock.arrival.expect("an arrival is pending")
            } else {
                clock.round
            };
            fired.push((tick, arrival));
            if fired.len() == max_events || (!arrival && tick == rounds * ROUND_TICKS) {
                return fired;
            }
            if arrival {
                clock.arrival_after(gap());
            } else {
                clock.round_after();
            }
        }
    }

    /// Runs two rounds with the first arrival at `first` and the given
    /// gaps after it (then arrivals far apart), and checks the clock and
    /// the heap against `want`.
    fn assert_two_rounds(first: u64, gaps: &[u64], want: &[Fired]) {
        let fixed = || {
            let mut rest = gaps.iter().copied();
            move || rest.next().unwrap_or(100 * ROUND_TICKS)
        };
        assert_eq!(clock_order(first, 2, usize::MAX, fixed()), want);
        assert_eq!(heap_order(first, 2, usize::MAX, fixed()), want);
    }

    #[test]
    fn events_on_one_tick_fire_in_scheduling_order() {
        // The first arrival is scheduled before round 1.
        assert_two_rounds(
            1_000_000,
            &[],
            &[(1_000_000, true), (1_000_000, false), (2_000_000, false)],
        );
        // The arrival at 2 000 000 is scheduled at 500 000, before round
        // 1 fires and schedules round 2.
        assert_two_rounds(
            500_000,
            &[1_500_000],
            &[
                (500_000, true),
                (1_000_000, false),
                (2_000_000, true),
                (2_000_000, false),
            ],
        );
        // The arrival at 2 000 000 is scheduled at 1 500 000, after round
        // 1 fired and scheduled round 2.
        assert_two_rounds(
            1_500_000,
            &[500_000],
            &[(1_000_000, false), (1_500_000, true), (2_000_000, false)],
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The clock fires the same events as the heap it replaced and
        /// draws the same gaps. Rates from 10^-2 to 10^7.5 per round
        /// cover gaps that span round boundaries and gaps that round to
        /// 0 ticks; the first arrival lands up to 1 000 ticks before
        /// round 1, so even the fastest rates reach a round's tick within
        /// the event cap.
        #[test]
        fn clock_matches_the_heap_oracle(
            seed in any::<u64>(),
            log_rate in -2.0f64..7.5,
            lead in 0u64..1_000,
            rounds in 1u64..5,
        ) {
            let rate = 10f64.powf(log_rate);
            let first = ROUND_TICKS - lead;
            let mut clock_rng = StdRng::seed_from_u64(seed);
            let mut heap_rng = StdRng::seed_from_u64(seed);
            let clock = clock_order(first, rounds, 20_000, || arrival_gap(rate, &mut clock_rng));
            let heap = heap_order(first, rounds, 20_000, || arrival_gap(rate, &mut heap_rng));
            prop_assert_eq!(clock, heap);
            prop_assert_eq!(clock_rng.gen::<u64>(), heap_rng.gen::<u64>());
        }
    }
}
