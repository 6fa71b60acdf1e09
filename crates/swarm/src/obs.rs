//! Cached observability handles for the swarm engine.
//!
//! All counter lookups happen once, at swarm construction; the round
//! loop then touches pre-resolved atomic handles only. Timers are
//! resolved beside what they time, also at construction: each pipeline
//! stage's `round.<stage>` timer (named by its
//! [`crate::stages::RoundStage::name`]) and each observer slot's
//! `obs.<name>` timer. The exchange stage's two phase timers
//! (`exchange.plan`, `exchange.commit`) live here with the counters.
//! See DESIGN.md ("Observability") for the counter and timer name
//! schema.

// Audited: this module *is* the model/observer boundary — resolving
// counter and timer handles walks the registry's lock-guarded tables,
// once, at construction. bt-lint: allow-file(shared-interior-mut)

use bt_obs::{Counter, Registry, Timer};

/// Counter and sub-stage timer handles used by the round loop.
///
/// Counter names are prefixed `swarm.`; the names are part of the
/// manifest schema and must stay stable.
#[derive(Clone)]
pub(crate) struct SwarmObs {
    /// Peers that joined (`swarm.arrivals`).
    pub arrivals: Counter,
    /// Peers that departed on completion (`swarm.departures`).
    pub departures: Counter,
    /// Completion records kept after warm-up (`swarm.completions`).
    pub completions: Counter,
    /// Connection attempts rolled (`swarm.conn_attempts`).
    pub conn_attempts: Counter,
    /// Connections established (`swarm.conn_successes`).
    pub conn_successes: Counter,
    /// Block transfers, one per direction (`swarm.pieces_exchanged`).
    pub pieces_exchanged: Counter,
    /// Neighbor-set shakes (`swarm.shakes`).
    pub shakes: Counter,
    /// First pieces injected into empty peers (`swarm.bootstrap_injections`).
    pub bootstrap_injections: Counter,
    /// Peak simultaneous population, max-gauge (`swarm.peak_population`).
    pub peak_population: Counter,
    /// Rounds executed (`swarm.rounds`).
    pub rounds: Counter,
    /// The exchange stage's read-only plan phase (`exchange.plan`).
    pub exchange_plan: Timer,
    /// The exchange stage's serial commit phase (`exchange.commit`).
    pub exchange_commit: Timer,
}

impl SwarmObs {
    /// Resolves all handles in `registry`.
    pub fn new(registry: Registry) -> SwarmObs {
        SwarmObs {
            arrivals: registry.counter("swarm.arrivals"),
            departures: registry.counter("swarm.departures"),
            completions: registry.counter("swarm.completions"),
            conn_attempts: registry.counter("swarm.conn_attempts"),
            conn_successes: registry.counter("swarm.conn_successes"),
            pieces_exchanged: registry.counter("swarm.pieces_exchanged"),
            shakes: registry.counter("swarm.shakes"),
            bootstrap_injections: registry.counter("swarm.bootstrap_injections"),
            peak_population: registry.counter("swarm.peak_population"),
            rounds: registry.counter("swarm.rounds"),
            exchange_plan: registry.timer("exchange.plan"),
            exchange_commit: registry.timer("exchange.commit"),
        }
    }
}

impl std::fmt::Debug for SwarmObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwarmObs").finish_non_exhaustive()
    }
}
