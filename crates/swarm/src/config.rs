//! Swarm configuration with a validating builder.

use serde::{Deserialize, Serialize};

use crate::{Error, Result};

/// Piece-selection strategy (§2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PieceSelection {
    /// Pick the piece held by the fewest neighbors (ties random).
    #[default]
    RarestFirst,
    /// Pick a uniformly random wanted piece.
    RandomFirst,
}

/// How pieces are injected into peers that hold nothing yet (the paper's
/// bootstrap: "a peer acquires its first piece either through seeds or
/// through optimistic unchoking").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BootstrapInjection {
    /// Every empty peer receives one piece per round, drawn with
    /// probability proportional to current replication plus a base seed
    /// weight — more-replicated pieces are likelier (the §6 skew pressure),
    /// while the origin seed keeps every piece obtainable.
    Weighted {
        /// Base weight every piece gets from the origin seed.
        seed_weight: f64,
    },
    /// Every empty peer receives one uniformly random piece per round.
    Uniform,
    /// No injection: empty peers stay empty (for targeted tests).
    Off,
}

impl Default for BootstrapInjection {
    fn default() -> Self {
        BootstrapInjection::Weighted { seed_weight: 1.0 }
    }
}

/// Initial piece endowment of the leechers present at round zero.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum InitialPieces {
    /// Initial leechers start empty, like later arrivals.
    #[default]
    Empty,
    /// Each initial leecher gets `count` uniformly random pieces.
    Random {
        /// Number of pieces per initial leecher.
        count: u32,
    },
    /// Skewed endowment (the §6 stability scenario): each initial leecher
    /// gets `count` pieces drawn from a geometric-like distribution that
    /// concentrates on low piece indices, so piece 0 is highly replicated
    /// and high indices are rare.
    Skewed {
        /// Number of pieces per initial leecher.
        count: u32,
        /// Skew strength in `(0, 1)`: weight of piece `j` is
        /// `strength^j` (normalized).
        strength: f64,
    },
}

/// Full configuration of a swarm simulation. Construct via
/// [`SwarmConfig::builder`].
///
/// # Example
///
/// ```
/// use bt_swarm::SwarmConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SwarmConfig::builder()
///     .pieces(200)
///     .max_connections(7)
///     .neighbor_set_size(40)
///     .arrival_rate(2.0)
///     .max_rounds(500)
///     .build()?;
/// assert_eq!(config.pieces, 200);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SwarmConfig {
    /// Number of pieces `B` in the file.
    pub pieces: u32,
    /// Maximum simultaneous active connections `k` per peer.
    pub max_connections: u32,
    /// Neighbor-set size cap `s`.
    pub neighbor_set_size: u32,
    /// Piece size in bytes (only scales byte-valued outputs; the paper's
    /// default is 256 KiB).
    pub piece_bytes: u64,
    /// Blocks per piece (§2.1: pieces are split into blocks, the basic
    /// transmission unit; 256 KiB pieces / 16 KiB blocks = 16). Each active
    /// connection transfers one *block* per direction per round; a piece
    /// becomes tradable only once all its blocks have arrived. The default
    /// of 1 makes one round one whole piece exchange — the granularity of
    /// the paper's Markov model.
    pub blocks_per_piece: u32,
    /// Poisson arrival rate λ in peers per round.
    pub arrival_rate: f64,
    /// Leechers present at round zero.
    pub initial_leechers: u32,
    /// Endowment of the initial leechers.
    pub initial_pieces: InitialPieces,
    /// Bootstrap piece injection policy.
    pub bootstrap: BootstrapInjection,
    /// Upload slots of the origin seed: each round it hands this many
    /// pieces (swarm-rarest-first) to random leechers, keeping every piece
    /// present in the swarm. Zero disables the seed entirely — downloads
    /// then rely solely on pieces already circulating.
    pub seed_uploads_per_round: u32,
    /// Per-round survival probability of an established connection
    /// (the model's `p_r`); connections additionally break when mutual
    /// interest is exhausted.
    pub p_reencounter: f64,
    /// Probability a chosen new-connection attempt succeeds (the model's
    /// `p_n`, network-level failures).
    pub p_new_connection: f64,
    /// Probability that a connection slot is filled by optimistic unchoke
    /// (uniform random potential peer) instead of tit-for-tat preference.
    pub optimistic_prob: f64,
    /// Cap on successful new connections a peer can *initiate* per round
    /// (it may still accept any number as a target). `None` means a peer
    /// keeps trying until its slots are full — instant re-establishment.
    /// `Some(1)` recreates the one-encounter-per-round scarcity of the
    /// paper's §5 efficiency analysis.
    pub new_connections_per_round: Option<u32>,
    /// Whether a joining peer may evict an idle neighbor relation of a full
    /// peer to integrate itself (accepting an incoming connection). With it
    /// off, full neighborhoods refuse newcomers until a slot frees up —
    /// stale neighborhoods, as between infrequent tracker contacts.
    pub join_eviction: bool,
    /// When true, a connection attempt targets a random tradable neighbor
    /// *without* knowing whether it has a free slot — the attempt fails
    /// against a fully busy target, as in the §5 encounter model. When
    /// false (default) peers only approach neighbors with open slots.
    pub blind_encounters: bool,
    /// Piece-selection strategy.
    pub piece_selection: PieceSelection,
    /// Peer-set shaking (§7.1): at this completion fraction the peer drops
    /// its whole neighbor set and refreshes from the tracker. Also gates
    /// the pipeline: [`crate::stages::default_pipeline`] includes the
    /// shake stage only when this is set.
    pub shake_at: Option<f64>,
    /// Fraction of arrivals that are *slow* peers (heterogeneous-bandwidth
    /// extension; the paper assumes homogeneous peers and defers this to
    /// future work following its ref. [11]). Slow peers can serve at most
    /// [`SwarmConfig::slow_upload_budget`] block-transfers per round.
    pub slow_peer_fraction: f64,
    /// Per-round upload budget of a slow peer (fast peers are bounded only
    /// by their connection count).
    pub slow_upload_budget: u32,
    /// Tracker bootstrap relief (§4.3): when handing a peer list to a
    /// joining peer, the tracker fills up to half the slots with peers
    /// currently trapped in the bootstrap phase (holding ≤ 1 piece), so
    /// trapped peers gain tradable newcomers faster.
    pub bootstrap_relief: bool,
    /// Tracker re-announce period in rounds: peers top up depleted
    /// neighbor sets from the tracker only on rounds where
    /// `(round - 1) % reannounce_interval == 0`. The default of 1
    /// re-announces every round (the original behavior); larger values
    /// amortize tracker traffic at the cost of staler neighborhoods.
    /// Deserialized configs written before this field existed read as 0
    /// and are treated as 1.
    #[serde(default)]
    pub reannounce_interval: u64,
    /// Rounds to exclude from steady-state statistics (potential-set
    /// buckets, utilization, completion records of peers that joined during
    /// warm-up). Population and entropy series are always recorded in full
    /// — the stability experiments need the transient.
    pub metrics_warmup_rounds: u64,
    /// Stop after this many rounds.
    pub max_rounds: u64,
    /// Optionally stop earlier once this many completion records have been
    /// collected (peers that joined after the metrics warm-up).
    pub stop_after_completions: Option<u64>,
    /// Number of peers to record full per-round logs for
    /// (download/potential-set trajectories, the Fig. 2 observers).
    pub observers: u32,
    /// First peer id to observe: observers are the peers with ids in
    /// `observe_from..observe_from + observers` (arrival order). Setting
    /// this to `initial_leechers` observes fresh arrivals rather than the
    /// endowed round-zero peers.
    pub observe_from: u32,
    /// Root RNG seed.
    pub seed: u64,
}

impl SwarmConfig {
    /// Starts a builder with paper-flavoured defaults (`B = 200`, `k = 7`,
    /// `s = 40`).
    #[must_use]
    pub fn builder() -> SwarmConfigBuilder {
        SwarmConfigBuilder::default()
    }
}

/// Builder for [`SwarmConfig`].
#[derive(Debug, Clone)]
pub struct SwarmConfigBuilder {
    config: SwarmConfig,
}

impl Default for SwarmConfigBuilder {
    fn default() -> Self {
        SwarmConfigBuilder {
            config: SwarmConfig {
                pieces: 200,
                max_connections: 7,
                neighbor_set_size: 40,
                piece_bytes: 256 * 1024,
                blocks_per_piece: 1,
                arrival_rate: 2.0,
                initial_leechers: 20,
                initial_pieces: InitialPieces::default(),
                bootstrap: BootstrapInjection::default(),
                seed_uploads_per_round: 2,
                p_reencounter: 0.9,
                p_new_connection: 0.9,
                optimistic_prob: 0.2,
                new_connections_per_round: None,
                join_eviction: true,
                blind_encounters: false,
                metrics_warmup_rounds: 0,
                piece_selection: PieceSelection::default(),
                shake_at: None,
                slow_peer_fraction: 0.0,
                slow_upload_budget: 1,
                bootstrap_relief: false,
                reannounce_interval: 1,
                max_rounds: 1_000,
                stop_after_completions: None,
                observers: 0,
                observe_from: 0,
                seed: 0,
            },
        }
    }
}

impl SwarmConfigBuilder {
    /// Sets the number of pieces `B`.
    pub fn pieces(&mut self, pieces: u32) -> &mut Self {
        self.config.pieces = pieces;
        self
    }

    /// Sets the connection cap `k`.
    pub fn max_connections(&mut self, k: u32) -> &mut Self {
        self.config.max_connections = k;
        self
    }

    /// Sets the neighbor-set size `s`.
    pub fn neighbor_set_size(&mut self, s: u32) -> &mut Self {
        self.config.neighbor_set_size = s;
        self
    }

    /// Sets the piece size in bytes.
    pub fn piece_bytes(&mut self, bytes: u64) -> &mut Self {
        self.config.piece_bytes = bytes;
        self
    }

    /// Sets the number of blocks per piece (must be ≥ 1).
    pub fn blocks_per_piece(&mut self, blocks: u32) -> &mut Self {
        self.config.blocks_per_piece = blocks;
        self
    }

    /// Sets the Poisson arrival rate (peers per round).
    pub fn arrival_rate(&mut self, lambda: f64) -> &mut Self {
        self.config.arrival_rate = lambda;
        self
    }

    /// Sets the number of leechers present at round zero.
    pub fn initial_leechers(&mut self, n: u32) -> &mut Self {
        self.config.initial_leechers = n;
        self
    }

    /// Sets the initial leechers' piece endowment.
    pub fn initial_pieces(&mut self, endowment: InitialPieces) -> &mut Self {
        self.config.initial_pieces = endowment;
        self
    }

    /// Sets the bootstrap injection policy.
    pub fn bootstrap(&mut self, policy: BootstrapInjection) -> &mut Self {
        self.config.bootstrap = policy;
        self
    }

    /// Sets the origin seed's upload slots per round (0 disables it).
    pub fn seed_uploads_per_round(&mut self, n: u32) -> &mut Self {
        self.config.seed_uploads_per_round = n;
        self
    }

    /// Sets the per-round connection survival probability `p_r`.
    pub fn p_reencounter(&mut self, p: f64) -> &mut Self {
        self.config.p_reencounter = p;
        self
    }

    /// Sets the new-connection success probability `p_n`.
    pub fn p_new_connection(&mut self, p: f64) -> &mut Self {
        self.config.p_new_connection = p;
        self
    }

    /// Sets the optimistic-unchoke probability.
    pub fn optimistic_prob(&mut self, p: f64) -> &mut Self {
        self.config.optimistic_prob = p;
        self
    }

    /// Caps successful new-connection initiations per peer per round.
    pub fn new_connections_per_round(&mut self, cap: u32) -> &mut Self {
        self.config.new_connections_per_round = Some(cap);
        self
    }

    /// Enables blind encounters (attempts can fail against busy targets).
    pub fn blind_encounters(&mut self, blind: bool) -> &mut Self {
        self.config.blind_encounters = blind;
        self
    }

    /// Enables or disables join-time neighbor eviction.
    pub fn join_eviction(&mut self, evict: bool) -> &mut Self {
        self.config.join_eviction = evict;
        self
    }

    /// Sets the piece-selection strategy.
    pub fn piece_selection(&mut self, strategy: PieceSelection) -> &mut Self {
        self.config.piece_selection = strategy;
        self
    }

    /// Enables peer-set shaking at the given completion fraction.
    pub fn shake_at(&mut self, fraction: f64) -> &mut Self {
        self.config.shake_at = Some(fraction);
        self
    }

    /// Makes this fraction of arrivals slow peers (heterogeneous
    /// bandwidth).
    pub fn slow_peer_fraction(&mut self, fraction: f64) -> &mut Self {
        self.config.slow_peer_fraction = fraction;
        self
    }

    /// Sets the per-round upload budget of slow peers.
    pub fn slow_upload_budget(&mut self, budget: u32) -> &mut Self {
        self.config.slow_upload_budget = budget;
        self
    }

    /// Enables the §4.3 tracker bootstrap-relief bias.
    pub fn bootstrap_relief(&mut self, on: bool) -> &mut Self {
        self.config.bootstrap_relief = on;
        self
    }

    /// Sets the tracker re-announce period in rounds (must be ≥ 1).
    pub fn reannounce_interval(&mut self, rounds: u64) -> &mut Self {
        self.config.reannounce_interval = rounds;
        self
    }

    /// Sets the steady-state measurement warm-up.
    pub fn metrics_warmup_rounds(&mut self, rounds: u64) -> &mut Self {
        self.config.metrics_warmup_rounds = rounds;
        self
    }

    /// Sets the round budget.
    pub fn max_rounds(&mut self, rounds: u64) -> &mut Self {
        self.config.max_rounds = rounds;
        self
    }

    /// Stops the run once this many peers have completed.
    pub fn stop_after_completions(&mut self, n: u64) -> &mut Self {
        self.config.stop_after_completions = Some(n);
        self
    }

    /// Records full logs for `n` observed peers.
    pub fn observers(&mut self, n: u32) -> &mut Self {
        self.config.observers = n;
        self
    }

    /// Starts observation at the peer with id `from` (arrival order).
    pub fn observe_from(&mut self, from: u32) -> &mut Self {
        self.config.observe_from = from;
        self
    }

    /// Sets the root RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for zero counts, a neighbor set above
    /// 255 (the byte-lane limit of the exchange stage's replication
    /// views), probabilities outside `[0, 1]`, negative rates, or a shake
    /// fraction outside `(0, 1)`.
    pub fn build(&self) -> Result<SwarmConfig> {
        let c = &self.config;
        if c.pieces == 0 {
            return Err(Error::InvalidConfig("pieces must be at least 1".into()));
        }
        if c.max_connections == 0 {
            return Err(Error::InvalidConfig(
                "max_connections must be at least 1".into(),
            ));
        }
        if c.neighbor_set_size == 0 {
            return Err(Error::InvalidConfig(
                "neighbor_set_size must be at least 1".into(),
            ));
        }
        if c.neighbor_set_size > 255 {
            return Err(Error::InvalidConfig(format!(
                "neighbor_set_size {} exceeds 255: replication views count neighbors in one-byte lanes",
                c.neighbor_set_size
            )));
        }
        if c.max_rounds == 0 {
            return Err(Error::InvalidConfig("max_rounds must be at least 1".into()));
        }
        if c.blocks_per_piece == 0 {
            return Err(Error::InvalidConfig(
                "blocks_per_piece must be at least 1".into(),
            ));
        }
        if c.reannounce_interval == 0 {
            return Err(Error::InvalidConfig(
                "reannounce_interval must be at least 1".into(),
            ));
        }
        if c.slow_peer_fraction > 0.0 && c.slow_upload_budget == 0 {
            return Err(Error::InvalidConfig(
                "slow_upload_budget must be at least 1".into(),
            ));
        }
        if c.arrival_rate < 0.0 || !c.arrival_rate.is_finite() {
            return Err(Error::InvalidConfig(format!(
                "arrival_rate {} must be finite and non-negative",
                c.arrival_rate
            )));
        }
        for (name, p) in [
            ("p_reencounter", c.p_reencounter),
            ("p_new_connection", c.p_new_connection),
            ("optimistic_prob", c.optimistic_prob),
            ("slow_peer_fraction", c.slow_peer_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(Error::InvalidConfig(format!("{name} = {p} outside [0, 1]")));
            }
        }
        if let Some(f) = c.shake_at {
            if !(0.0 < f && f < 1.0) {
                return Err(Error::InvalidConfig(format!(
                    "shake_at = {f} outside (0, 1)"
                )));
            }
        }
        if let BootstrapInjection::Weighted { seed_weight } = c.bootstrap {
            if seed_weight < 0.0 || !seed_weight.is_finite() {
                return Err(Error::InvalidConfig(format!(
                    "seed_weight {seed_weight} must be finite and non-negative"
                )));
            }
        }
        if let InitialPieces::Skewed { count, strength } = c.initial_pieces {
            if !(0.0 < strength && strength < 1.0) {
                return Err(Error::InvalidConfig(format!(
                    "skew strength {strength} outside (0, 1)"
                )));
            }
            if count > c.pieces {
                return Err(Error::InvalidConfig(format!(
                    "initial piece count {count} exceeds B = {}",
                    c.pieces
                )));
            }
        }
        if let InitialPieces::Random { count } = c.initial_pieces {
            if count > c.pieces {
                return Err(Error::InvalidConfig(format!(
                    "initial piece count {count} exceeds B = {}",
                    c.pieces
                )));
            }
        }
        Ok(c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let c = SwarmConfig::builder().build().unwrap();
        assert_eq!(c.pieces, 200);
        assert_eq!(c.max_connections, 7);
        assert_eq!(c.neighbor_set_size, 40);
        assert_eq!(c.piece_bytes, 256 * 1024);
        assert!(c.shake_at.is_none());
    }

    #[test]
    fn rejects_neighbor_sets_beyond_the_byte_lane_limit() {
        assert!(SwarmConfig::builder()
            .neighbor_set_size(255)
            .build()
            .is_ok());
        let err = SwarmConfig::builder()
            .neighbor_set_size(256)
            .build()
            .expect_err("256 neighbors overflow a byte lane");
        let message = err.to_string();
        assert!(message.contains("neighbor_set_size 256"), "{message}");
        assert!(message.contains("one-byte lanes"), "{message}");
    }

    #[test]
    fn rejects_zero_counts() {
        assert!(SwarmConfig::builder().pieces(0).build().is_err());
        assert!(SwarmConfig::builder().max_connections(0).build().is_err());
        assert!(SwarmConfig::builder().neighbor_set_size(0).build().is_err());
        assert!(SwarmConfig::builder().max_rounds(0).build().is_err());
        assert!(SwarmConfig::builder()
            .reannounce_interval(0)
            .build()
            .is_err());
    }

    #[test]
    fn reannounce_defaults_to_every_round_and_tolerates_old_json() {
        let c = SwarmConfig::builder().build().unwrap();
        assert_eq!(c.reannounce_interval, 1);
        // Configs serialized before the field existed deserialize with
        // the serde default (0); consumers treat that as 1.
        let mut json = serde_json::to_string(&c).unwrap();
        json = json.replace("\"reannounce_interval\":1,", "");
        let back: SwarmConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.reannounce_interval, 0);
    }

    #[test]
    fn rejects_bad_probabilities() {
        assert!(SwarmConfig::builder().p_reencounter(1.5).build().is_err());
        assert!(SwarmConfig::builder()
            .p_new_connection(-0.1)
            .build()
            .is_err());
        assert!(SwarmConfig::builder()
            .optimistic_prob(f64::NAN)
            .build()
            .is_err());
        assert!(SwarmConfig::builder().arrival_rate(-1.0).build().is_err());
        assert!(SwarmConfig::builder()
            .arrival_rate(f64::INFINITY)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_bad_shake_fraction() {
        assert!(SwarmConfig::builder().shake_at(0.0).build().is_err());
        assert!(SwarmConfig::builder().shake_at(1.0).build().is_err());
        assert!(SwarmConfig::builder().shake_at(0.9).build().is_ok());
    }

    #[test]
    fn rejects_bad_endowments() {
        assert!(SwarmConfig::builder()
            .pieces(5)
            .initial_pieces(InitialPieces::Random { count: 9 })
            .build()
            .is_err());
        assert!(SwarmConfig::builder()
            .initial_pieces(InitialPieces::Skewed {
                count: 2,
                strength: 1.5
            })
            .build()
            .is_err());
        assert!(SwarmConfig::builder()
            .bootstrap(BootstrapInjection::Weighted { seed_weight: -2.0 })
            .build()
            .is_err());
    }

    #[test]
    fn builder_chains() {
        let c = SwarmConfig::builder()
            .pieces(10)
            .max_connections(2)
            .neighbor_set_size(5)
            .arrival_rate(1.0)
            .seed(7)
            .shake_at(0.9)
            .observers(3)
            .stop_after_completions(50)
            .piece_selection(PieceSelection::RandomFirst)
            .build()
            .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.observers, 3);
        assert_eq!(c.stop_after_completions, Some(50));
        assert_eq!(c.piece_selection, PieceSelection::RandomFirst);
    }

    #[test]
    fn config_serializes() {
        let c = SwarmConfig::builder().build().unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: SwarmConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
