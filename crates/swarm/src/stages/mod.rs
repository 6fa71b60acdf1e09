//! The round pipeline: `execute_round`'s seven phases as swappable stages.
//!
//! The monolithic engine ran its phases as private methods; here each
//! phase is a [`RoundStage`] — a struct owning its own scratch buffers —
//! and a round is "run every stage in the pipeline, in order, under its
//! phase timer". Scenarios compose pipelines: drop the shake stage to
//! ablate §7.1, drop departures to study a closed population, insert a
//! custom stage to prototype a policy, all without touching the engine
//! core.
//!
//! [`default_pipeline`] reproduces the paper's round order (and the old
//! engine's byte-for-byte, RNG call order included):
//!
//! 1. [`MaintainNeighbors`] — symmetric neighbor top-up from the tracker;
//! 2. [`Bootstrap`] — first-piece injection for empty peers plus origin-
//!    seed uploads (the model's `γ` channel);
//! 3. [`PruneConnections`] — lost mutual interest and the `1 − p_r` roll;
//! 4. [`EstablishConnections`] — tit-for-tat preference with an
//!    optimistic slot, success `p_n`;
//! 5. [`ExchangePieces`] — one piece per direction per connection;
//! 6. [`DepartCompleted`] — completed peers leave;
//! 7. [`ShakePeers`] — §7.1 neighbor-set shaking (present only when
//!    `shake_at` is configured);
//! 8. [`SampleMetrics`] — per-round metrics sampling.

mod bootstrap;
mod depart;
mod establish;
mod exchange;
mod maintain;
mod prune;
mod sample;
mod shake;

pub use bootstrap::Bootstrap;
pub use depart::DepartCompleted;
pub use establish::EstablishConnections;
pub use exchange::ExchangePieces;
pub use maintain::MaintainNeighbors;
pub use prune::PruneConnections;
pub use sample::SampleMetrics;
pub use shake::ShakePeers;

use crate::config::SwarmConfig;
use crate::engine::SwarmCore;

/// One phase of a swarm round.
///
/// Stages are stateful: scratch buffers live in the stage struct and are
/// reused across rounds, so per-round allocation stays O(population
/// growth), not O(population). A stage must leave the core's invariants
/// intact (symmetric neighbor/connection relations, replication index in
/// sync — see [`crate::engine::Swarm::assert_invariants`]); within a
/// stage it may do as it pleases.
///
/// Determinism contract: all randomness must come from the core's
/// seeded RNG (its `rng` field) — or, for a stage with a parallel plan
/// phase, from stateless [`crate::selection::PlanStream`] substreams
/// keyed off run identity alone (seed, round, pair) — and the number
/// and order of RNG calls for a given swarm state must be a pure
/// function of that state. That is what makes same-seed runs
/// byte-identical at any thread count: worker threads only distribute
/// plan work, they never influence which stream decides what.
pub trait RoundStage: std::fmt::Debug {
    /// Stable stage name, used to select or disable stages by name
    /// (e.g. `btlab swarm --disable-stage shake`). The stage runs under
    /// the phase timer `round.<name>` (part of the manifest schema).
    fn name(&self) -> &'static str;

    /// Executes the stage for one round.
    fn run(&mut self, core: &mut SwarmCore);

    /// Sets the worker-thread count for stages with a parallel plan
    /// phase. Purely a throughput knob: outputs are byte-identical at
    /// every value. Stages without a parallel phase ignore it.
    fn set_threads(&mut self, _threads: u32) {}
}

/// Names of all stages [`default_pipeline`] can produce, for validating
/// user-supplied stage selections.
pub const STAGE_NAMES: [&str; 8] = [
    "maintain",
    "bootstrap",
    "prune",
    "establish",
    "exchange",
    "depart",
    "shake",
    "sample",
];

/// The paper's round order as a pipeline. The shake stage is included
/// only when `shake_at` is configured — when absent it would be a no-op
/// every round.
#[must_use]
pub fn default_pipeline(config: &SwarmConfig) -> Vec<Box<dyn RoundStage>> {
    let mut stages: Vec<Box<dyn RoundStage>> = vec![
        Box::new(MaintainNeighbors::default()),
        Box::new(Bootstrap::default()),
        Box::new(PruneConnections::default()),
        Box::new(EstablishConnections::default()),
        Box::new(ExchangePieces::default()),
        Box::new(DepartCompleted::default()),
    ];
    if config.shake_at.is_some() {
        stages.push(Box::new(ShakePeers::default()));
    }
    stages.push(Box::new(SampleMetrics));
    stages
}
