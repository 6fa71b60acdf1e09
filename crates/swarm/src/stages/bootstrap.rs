//! Bootstrap injection and origin-seed uploads.

use rand::Rng;

use bt_obs::acquire_source;

use crate::config::BootstrapInjection;
use crate::engine::SwarmCore;
use crate::peer::PeerId;
use crate::stages::RoundStage;

/// First-piece injection for empty peers (the seed / optimistic-unchoke
/// channel) followed by the origin seed's rarest-first uploads — the
/// physical source of the model's `γ` channel. Seeds do not enforce
/// tit-for-tat, so both kinds of pieces are free.
///
/// Both sub-phases read the replication index instead of rescanning all
/// alive bitfields as the old engine did.
#[derive(Debug, Default)]
pub struct Bootstrap {
    empty: Vec<PeerId>,
    weights: Vec<f64>,
    wanted: Vec<u32>,
    rarest: Vec<u32>,
}

impl Bootstrap {
    /// Empty peers acquire a first piece via the configured policy.
    /// Returns the number of successful injections, for cost attribution.
    fn inject(&mut self, core: &mut SwarmCore) -> u64 {
        let policy = core.config.bootstrap;
        let pieces = core.config.pieces;
        let mut injected = 0u64;
        self.empty.clear();
        for &id in core.tracker.peers() {
            if core.store.have(id.into()).is_empty() {
                self.empty.push(id);
            }
        }
        if self.empty.is_empty() {
            return 0;
        }
        match policy {
            BootstrapInjection::Off => {}
            BootstrapInjection::Uniform => {
                for &id in &self.empty {
                    let p = core.rng.gen_range(0..pieces);
                    if core.acquire_piece(id, p) {
                        core.obs.bootstrap_injections.incr();
                        core.cohort
                            .acquire(core.round, id.seq(), p, acquire_source::BOOTSTRAP);
                        injected += 1;
                    }
                }
            }
            BootstrapInjection::Weighted { seed_weight } => {
                // Weights are frozen before the first draw (matching the
                // old once-per-round rescan), so injections this round do
                // not skew each other.
                self.weights.clear();
                self.weights.extend(
                    core.replication
                        .counts()
                        .iter()
                        .map(|&d| d as f64 + seed_weight),
                );
                for &id in &self.empty {
                    let p = bt_markov::chain::sample_index(&self.weights, &mut core.rng) as u32;
                    if core.acquire_piece(id, p) {
                        core.obs.bootstrap_injections.incr();
                        core.cohort
                            .acquire(core.round, id.seq(), p, acquire_source::BOOTSTRAP);
                        injected += 1;
                    }
                }
            }
        }
        injected
    }

    /// The origin seed uploads `seed_uploads_per_round` pieces to random
    /// leechers, swarm-rarest-first. This is what keeps every piece
    /// obtainable in a live swarm. Returns the number of pieces
    /// uploaded, for cost attribution.
    fn seed_uploads(&mut self, core: &mut SwarmCore) -> u64 {
        let mut uploaded = 0u64;
        let uploads = core.config.seed_uploads_per_round;
        if uploads == 0 || core.tracker.is_empty() {
            return 0;
        }
        for _ in 0..uploads {
            let alive = core.tracker.peers();
            let target = alive[core.rng.gen_range(0..alive.len())];
            self.wanted.clear();
            self.wanted
                .extend(core.store.have(target.into()).iter_missing());
            // Each upload sees the counts left by the previous one: the
            // index advances on acquire, exactly like the old engine's
            // locally incremented rescan copy.
            let Some(min_rep) = self
                .wanted
                .iter()
                .map(|&p| core.replication.counts()[p as usize])
                .min()
            else {
                continue;
            };
            self.rarest.clear();
            self.rarest.extend(
                self.wanted
                    .iter()
                    .copied()
                    .filter(|&p| core.replication.counts()[p as usize] == min_rep),
            );
            let piece = self.rarest[core.rng.gen_range(0..self.rarest.len())];
            if core.acquire_piece(target, piece) {
                core.cohort
                    .acquire(core.round, target.seq(), piece, acquire_source::SEED);
                uploaded += 1;
            }
        }
        uploaded
    }
}

// bt-stage: reads(config, round, tracker), writes(audit, cohort, obs, piece_cells, profile, replication, rng, store)
impl RoundStage for Bootstrap {
    fn name(&self) -> &'static str {
        "bootstrap"
    }

    fn run(&mut self, core: &mut SwarmCore) {
        let injected = self.inject(core);
        core.profile.add_work("bootstrap.injections", injected);
        core.audit.bootstrap_injections += injected;
        let uploaded = self.seed_uploads(core);
        core.profile.add_work("bootstrap.seed_uploads", uploaded);
        core.audit.seed_uploads += uploaded;
    }
}
