//! The swarm simulation engine.
//!
//! A round-based protocol simulation driven by the `bt-des` kernel. One
//! round corresponds to one piece-exchange period (one step of the paper's
//! Markov model): arrivals are a Poisson process, each round every active
//! connection swaps one piece in each direction under strict tit-for-tat,
//! and peers depart the moment they complete.
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

use bt_des::{Duration, SeedStream, SimTime, Simulator};
use bt_markov::dist::sample_exponential;

use crate::audit::SwarmAudit;
use crate::config::{InitialPieces, SwarmConfig};
use crate::metrics::{ObserverLog, SwarmMetrics};
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

/// Events driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A new leecher joins the swarm.
    Arrival,
    /// One piece-exchange round elapses.
    Round,
}

/// The swarm state the round stages operate on: configuration, peer
/// store, tracker, replication index, RNG, metrics, and counters.
///
/// Internal stages reach the fields directly; external
/// [`RoundStage`] implementations use the accessor methods plus the
/// mutation entry points [`acquire_piece`](SwarmCore::acquire_piece),
/// [`receive_block`](SwarmCore::receive_block), and
/// [`depart`](SwarmCore::depart), which keep the replication index in
/// sync with piece possession. A stage that mutates bitfields through
/// the store directly bypasses the index — [`Swarm::assert_invariants`]
/// will catch the drift.
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

    /// The tracker (alive peers in join order).
    #[must_use]
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// The incrementally maintained replication index.
    #[must_use]
    pub fn replication(&self) -> &ReplicationIndex {
        &self.replication
    }

    /// The metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &SwarmMetrics {
        &self.metrics
    }

    /// The run's seeded RNG. All stage randomness must come from here —
    /// RNG call order is part of the determinism contract.
    #[must_use]
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The always-on mutation audit (ground truth for the conservation
    /// and slot-balance monitors).
    #[must_use]
    pub fn audit(&self) -> &SwarmAudit {
        &self.audit
    }

    /// Grants `id` the given piece at the current round (bootstrap
    /// injection, seed upload, initial endowment). Returns `true` and
    /// updates the replication index if the piece was new.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive.
    pub fn acquire_piece(&mut self, id: PeerId, piece: u32) -> bool {
        let round = self.round;
        if self.store.peer_mut(id).acquire(piece, round) {
            self.replication.on_acquire(piece);
            self.audit.pieces_acquired += 1;
            let count = self.store.peer(id).have.count();
            self.piece_cells.shift(count - 1, count);
            true
        } else {
            false
        }
    }

    /// Delivers one block of `piece` to `id`. Returns `true` and updates
    /// the replication index if this block completed the piece.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive.
    pub fn receive_block(&mut self, id: PeerId, piece: u32) -> bool {
        let round = self.round;
        let blocks = self.config.blocks_per_piece;
        if self.store.peer_mut(id).receive_block(piece, blocks, round) {
            self.replication.on_acquire(piece);
            self.audit.pieces_acquired += 1;
            let count = self.store.peer(id).have.count();
            self.piece_cells.shift(count - 1, count);
            true
        } else {
            false
        }
    }

    /// Removes `id` from the swarm: deregisters it, updates the
    /// replication index for the pieces it carried away, and removes
    /// neighbor backlinks. Returns the departed peer for the caller to
    /// record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive.
    pub fn depart(&mut self, id: PeerId) -> Peer {
        let peer = self.store.remove(id).expect("departing peer must be alive");
        self.replication.on_departure(&peer.have);
        self.piece_cells.decr(peer.have.count());
        self.audit.pieces_departed += u64::from(peer.have.count());
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
        let me = self.store.peer(id);
        me.neighbors
            .iter()
            .filter(|&&n| {
                self.store
                    .at(n)
                    .is_some_and(|o| me.have.can_trade_with(&o.have))
            })
            .count() as u32
    }

    /// Collects all current connections as canonical `(low, high)`
    /// pairs, sorted by the sequence numbers of both ends, into `out`
    /// (cleared first).
    ///
    /// The tracker lists peers in `seq` order, so sorting each peer's
    /// higher-`seq` partners (at most `k`, their `seq`s read from the
    /// slab) and appending them builds the sorted list without a global
    /// sort.
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
                    .map(|&other| self.store.peer_at(other).id)
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
        self.store.peer_mut(a).add_neighbor(b.into());
        self.store.peer_mut(b).add_neighbor(a.into());
        true
    }

    /// Evicts a uniformly random neighbor of `id` that is not an active
    /// connection, removing the backlink too. Returns false if every
    /// neighbor is connected.
    fn evict_idle_neighbor(&mut self, id: PeerId) -> bool {
        // Count-then-nth over the same filtered order the old engine
        // collected into a Vec: one RNG draw with the same bound picks
        // the same victim, without the allocation.
        let me = self.store.peer(id);
        let idle_count = me
            .neighbors
            .iter()
            .filter(|&&n| !me.is_connected(n))
            .count();
        if idle_count == 0 {
            return false;
        }
        let pick = self.rng.gen_range(0..idle_count);
        let me = self.store.peer(id);
        let victim = me
            .neighbors
            .iter()
            .copied()
            .filter(|&n| !me.is_connected(n))
            .nth(pick)
            .expect("pick is within the idle count");
        self.store.peer_mut(id).remove_neighbor(victim);
        if let Some(v) = self.store.at_mut(victim) {
            v.remove_neighbor(id.into());
        }
        true
    }

    pub(crate) fn spawn_peer(&mut self) -> PeerId {
        let pieces = self.config.pieces;
        let round = self.round;
        // Exactly `s` neighbor and `k` connection slots: both are hard
        // caps, so neither list ever grows past its reservation.
        let (s, k) = (
            self.config.neighbor_set_size as usize,
            self.config.max_connections as usize,
        );
        let id = self.store.insert_with(|id| {
            let mut peer = Peer::new(id, pieces, round);
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
        let want = s;
        let mut handout = Vec::with_capacity(want);
        if self.config.bootstrap_relief {
            let mut trapped: Vec<PeerId> = self
                .tracker
                .peers()
                .iter()
                .copied()
                .filter(|&p| self.store.peer(p).have.count() <= 1)
                .collect();
            let take = (want / 2).min(trapped.len());
            for i in 0..take {
                let j = self.rng.gen_range(i..trapped.len());
                trapped.swap(i, j);
            }
            handout.extend_from_slice(&trapped[..take]);
        }
        let rest = self
            .tracker
            .handout(id, &handout, want - handout.len(), &mut self.rng);
        handout.extend(rest);
        let evict = self.config.join_eviction;
        for other in handout {
            self.add_symmetric_neighbor(id, other, evict);
        }
        self.tracker.register(id);
        self.metrics.arrivals += 1;
        self.obs.arrivals.incr();
        self.obs
            .peak_population
            .record_max(self.tracker.len() as u64);
        let obs_lo = u64::from(self.config.observe_from);
        let obs_hi = obs_lo + u64::from(self.config.observers);
        if (obs_lo..obs_hi).contains(&id.seq()) {
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
                    .find(|&id| !self.store.peer(id).have.is_complete());
                if let Some(id) = target {
                    let piece = self
                        .store
                        .peer(id)
                        .have
                        .iter_missing()
                        .find(|&p| self.replication.counts()[p as usize] > 0)
                        .or_else(|| self.store.peer(id).have.iter_missing().next());
                    // The piece-count cells move with the bit: no
                    // monitor checks them, and a cell left behind would
                    // underflow at the peer's next acquisition.
                    if let Some(piece) = piece {
                        self.store.peer_mut(id).have.set(piece);
                        let count = self.store.peer(id).have.count();
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
            store: PeerStore::new(),
            tracker: Tracker::new(),
            replication: ReplicationIndex::new(config.pieces),
            round: 0,
            rng,
            obs: SwarmObs::new(registry),
            profile: bt_obs::ProfileSink::default(),
            audit: SwarmAudit::default(),
            piece_cells: bt_obs::CountCells::new(config.pieces),
            cohort: bt_obs::CohortSink::disabled(),
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

    /// The possession bitfield of an alive peer.
    ///
    /// # Panics
    ///
    /// Panics if the peer has departed.
    #[must_use]
    pub fn peer_bitfield(&self, id: PeerId) -> &crate::piece::Bitfield {
        &self.core.store.peer(id).have
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
    /// members, streaming binary-framed lifecycle events (join, piece
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

    /// Drives the DES event loop to the stop condition.
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
        let mut sim: Simulator<Event> = Simulator::new();
        if self.core.config.arrival_rate > 0.0 {
            let gap = sample_exponential(self.core.config.arrival_rate, &mut self.core.rng);
            sim.schedule(SimTime::from_secs(gap), Event::Arrival);
        }
        sim.schedule(SimTime::from_secs(1.0), Event::Round);
        sim.run(|sim, _time, event| match event {
            Event::Arrival => {
                let id = self.core.spawn_peer();
                let _ = id;
                let gap = sample_exponential(self.core.config.arrival_rate, &mut self.core.rng);
                sim.schedule_in(Duration::from_secs(gap), Event::Arrival);
            }
            Event::Round => {
                self.core.round += 1;
                self.execute_round();
                let done_rounds = self.core.round >= self.core.config.max_rounds;
                let done_completions = self
                    .core
                    .config
                    .stop_after_completions
                    .is_some_and(|n| self.core.metrics.completions.len() as u64 >= n);
                if done_rounds || done_completions {
                    sim.request_stop();
                } else {
                    sim.schedule_in(Duration::from_secs(1.0), Event::Round);
                }
            }
        });
        self.core.metrics.rounds_run = self.core.round;
        for slot in &mut self.observers {
            if let Some(observer) = slot.observer.as_mut() {
                observer.finish(&self.core);
            }
        }
        self.core.cohort.finish();
        tracing::info!(
            target: "bt_swarm",
            rounds = self.core.metrics.rounds_run,
            arrivals = self.core.metrics.arrivals,
            departures = self.core.metrics.departures,
            completions = self.core.metrics.completions.len(),
            final_population = self.core.metrics.final_population(),
            pieces = self.core.config.pieces,
            k = self.core.config.max_connections,
            s = self.core.config.neighbor_set_size,
            seed = self.core.config.seed;
            "swarm run finished"
        );
    }

    /// Runs exactly one round without the DES driver (step-level control
    /// for tests and custom harnesses). Note: Poisson arrivals are
    /// scheduled by [`Swarm::run`]'s event loop, so stepped swarms see no
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
    /// connection relations, the `s` and `k` caps, each acquisition log
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
            let log = peer.acquisition_rounds();
            assert_eq!(
                log.len(),
                peer.have.count() as usize,
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
        let oracle = replication_counts(
            core.config.pieces,
            core.tracker
                .peers()
                .iter()
                .map(|&id| &core.store.peer(id).have),
        );
        assert_eq!(
            core.replication.counts(),
            &oracle[..],
            "replication index diverged from the from-scratch rebuild"
        );
        let mut cells_oracle = vec![0u64; core.config.pieces as usize + 1];
        for &id in core.tracker.peers() {
            cells_oracle[core.store.peer(id).have.count() as usize] += 1;
        }
        assert_eq!(
            core.piece_cells.counts(),
            &cells_oracle[..],
            "piece-count cells diverged from the per-peer recount"
        );
    }
}

/// Replication entropy `E = min(d)/max(d)` (§6). Zero for an empty system.
#[must_use]
pub fn entropy_of(replication: &[u64]) -> f64 {
    match (replication.iter().min(), replication.iter().max()) {
        (Some(&min), Some(&max)) if max > 0 => min as f64 / max as f64,
        _ => 0.0,
    }
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
        let metrics = Swarm::new(small_config(1)).run();
        assert!(metrics.departures > 0, "no peer completed in 120 rounds");
        assert_eq!(metrics.departures as usize, metrics.completions.len());
        for rec in &metrics.completions {
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
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf::default();
        let mut swarm = Swarm::new(small_config(11));
        swarm.attach_cohort(4, Box::new(buf.clone()));
        for _ in 0..120 {
            swarm.step_round();
        }
        let sink = swarm.take_cohort();
        assert!(sink.events() > 0, "a 120-round run must trace something");
        let bytes = buf.0.lock().unwrap().clone();
        let (meta, events) = bt_obs::read_cohort(&bytes[..]).unwrap();
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
    fn entropy_of_cases() {
        assert_eq!(entropy_of(&[]), 0.0);
        assert_eq!(entropy_of(&[0, 5]), 0.0);
        assert_eq!(entropy_of(&[4, 4]), 1.0);
        assert_eq!(entropy_of(&[1, 4]), 0.25);
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
    fn blind_encounters_never_exceed_k() {
        let mut config = SwarmConfig::builder()
            .pieces(20)
            .max_connections(2)
            .neighbor_set_size(10)
            .arrival_rate(0.5)
            .initial_leechers(12)
            .initial_pieces(InitialPieces::Random { count: 8 })
            .seed(41)
            .max_rounds(40)
            .build()
            .unwrap();
        config.blind_encounters = true;
        let mut swarm = Swarm::new(config);
        for _ in 0..40 {
            swarm.step_round();
            swarm.assert_invariants();
        }
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
            Swarm::new(config).run().mean_bootstrap_rounds()
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
        let metrics = Swarm::new(config).run();
        // Records only from post-warm-up joiners; departures count all.
        assert!(metrics.completions.len() as u64 <= metrics.departures);
        for rec in &metrics.completions {
            assert!(rec.joined_round >= 5, "{rec:?} joined during warm-up");
        }
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
        let metrics = Swarm::new(config).run();
        assert_eq!(metrics.departures, 1, "4 uploads complete 4 pieces");
        assert_eq!(metrics.completions[0].acquisition_rounds, vec![1, 2, 3, 4]);
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
        let metrics = Swarm::new(block_config(4, 1)).run();
        assert!(metrics.departures >= 10);
        for rec in &metrics.completions {
            assert_eq!(rec.acquisition_rounds.len(), 10);
        }
    }

    #[test]
    fn more_blocks_mean_slower_downloads() {
        let rounds = |blocks| {
            Swarm::new(block_config(blocks, 2))
                .run()
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
                        !peer.have.contains(piece),
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
        assert!(metrics.mean_download_rounds() < 30.0);
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
            let have: Vec<u32> = peer.have.iter().collect();
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
            let mut serial = Swarm::new(plan_commit_config(77, true));
            serial.set_threads(1);
            let mut sharded = Swarm::new(plan_commit_config(77, true));
            sharded.set_threads(threads);
            for _ in 0..40 {
                serial.step_round();
                sharded.step_round();
            }
            assert_eq!(serial.metrics(), sharded.metrics(), "threads={threads}");
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
        let (fast, slow) = metrics.mean_download_rounds_by_class();
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
        let metrics = Swarm::new(config).run();
        assert!(metrics.completions.iter().all(|r| !r.slow));
        let (_, slow_mean) = metrics.mean_download_rounds_by_class();
        assert!(slow_mean.is_nan());
    }
}
