//! Point-in-time diagnostics of a running swarm.
//!
//! [`Snapshot`] captures the distributional state the §6 analysis reasons
//! about — piece availability, peer piece-count spread, connection degrees
//! — in one pass over the swarm.

use crate::engine::Swarm;

/// A diagnostic snapshot of the swarm at one round.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Round the snapshot was taken.
    pub round: u64,
    /// Leecher population.
    pub population: u64,
    /// Per-piece replication counts.
    pub replication: Vec<u64>,
    /// Replication entropy `min(d)/max(d)`.
    pub entropy: f64,
    /// Piece availability: `availability[r]` pieces are replicated
    /// exactly `r` times, for `r` in `0..=max(replication)`.
    pub availability: Vec<u64>,
    /// Piece counts held per peer, sorted ascending.
    pub piece_counts: Vec<u32>,
    /// Active-connection counts per peer, sorted ascending.
    pub degrees: Vec<u32>,
}

impl Snapshot {
    /// Captures a snapshot of `swarm`.
    ///
    /// # Panics
    ///
    /// Never panics: an empty swarm produces an empty snapshot.
    #[must_use]
    pub fn capture(swarm: &Swarm) -> Self {
        let ids = swarm.alive_peer_ids();
        // Straight off the incrementally maintained replication index —
        // no per-capture rescan of every alive bitfield.
        let replication = swarm.replication_counts().to_vec();
        let mut piece_counts: Vec<u32> = ids
            .iter()
            .map(|&id| swarm.peer_bitfield(id).count())
            .collect();
        piece_counts.sort_unstable();
        let mut degrees: Vec<u32> = ids
            .iter()
            .map(|&id| swarm.peer_connection_count(id))
            .collect();
        degrees.sort_unstable();
        Snapshot {
            round: swarm.round(),
            population: ids.len() as u64,
            entropy: bt_model::stability::entropy(&replication),
            availability: availability_of(&replication),
            replication,
            piece_counts,
            degrees,
        }
    }

    /// Median piece count held (0 for an empty swarm).
    #[must_use]
    pub fn median_pieces(&self) -> u32 {
        if self.piece_counts.is_empty() {
            0
        } else {
            self.piece_counts[self.piece_counts.len() / 2]
        }
    }

    /// Mean connection degree (0 for an empty swarm).
    #[must_use]
    pub fn mean_degree(&self) -> f64 {
        if self.degrees.is_empty() {
            0.0
        } else {
            self.degrees.iter().map(|&d| f64::from(d)).sum::<f64>() / self.degrees.len() as f64
        }
    }

    /// Number of pieces currently held by nobody (extinct until the seed
    /// re-injects them).
    #[must_use]
    pub fn extinct_pieces(&self) -> usize {
        self.replication.iter().filter(|&&d| d == 0).count()
    }
}

/// Pieces per replication count: entry `r` counts the pieces held by
/// exactly `r` peers, for `r` in `0..=max(replication)`, so the profile
/// is exact even in high-replication swarms (no clamping).
pub(crate) fn availability_of(replication: &[u64]) -> Vec<u64> {
    let max_rep = replication.iter().max().copied().unwrap_or(0);
    let mut availability = vec![0u64; max_rep as usize + 1];
    for &d in replication {
        availability[d as usize] += 1;
    }
    availability
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialPieces;
    use crate::SwarmConfig;

    fn swarm_after(rounds: u32) -> Swarm {
        let config = SwarmConfig::builder()
            .pieces(12)
            .max_connections(3)
            .neighbor_set_size(6)
            .arrival_rate(1.0)
            .initial_leechers(10)
            .initial_pieces(InitialPieces::Random { count: 4 })
            .max_rounds(1_000)
            .seed(71)
            .build()
            .unwrap();
        let mut swarm = Swarm::new(config);
        for _ in 0..rounds {
            swarm.step_round();
        }
        swarm
    }

    #[test]
    fn snapshot_is_consistent() {
        let swarm = swarm_after(10);
        let snap = Snapshot::capture(&swarm);
        assert_eq!(snap.round, 10);
        assert_eq!(snap.population as usize, snap.piece_counts.len());
        assert_eq!(snap.piece_counts.len(), snap.degrees.len());
        assert_eq!(snap.replication.len(), 12);
        assert!((0.0..=1.0).contains(&snap.entropy));
        // The availability profile saw every piece.
        assert_eq!(snap.availability.iter().sum::<u64>(), 12);
        // Sorted outputs.
        assert!(snap.piece_counts.windows(2).all(|w| w[0] <= w[1]));
        assert!(snap.degrees.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn summary_statistics() {
        // Capture before any endowed peer can have completed and
        // departed (8 missing pieces at 3 connections needs 3+ rounds),
        // so the median is robustly positive for any RNG stream.
        let swarm = swarm_after(2);
        let snap = Snapshot::capture(&swarm);
        assert!(snap.median_pieces() >= 1, "endowed peers hold pieces");
        assert!(snap.mean_degree() >= 0.0);
        assert!(snap.extinct_pieces() <= 12);
    }

    #[test]
    fn high_replication_is_not_clamped() {
        // 100 peers all holding every piece: replication 100 everywhere,
        // which the old 64-bucket clamp misfiled into coarse bins.
        let config = SwarmConfig::builder()
            .pieces(4)
            .max_connections(2)
            .neighbor_set_size(4)
            .arrival_rate(0.0)
            .initial_leechers(100)
            .initial_pieces(InitialPieces::Random { count: 4 })
            .bootstrap(crate::config::BootstrapInjection::Off)
            .seed_uploads_per_round(0)
            .max_rounds(5)
            .seed(5)
            .build()
            .unwrap();
        let swarm = Swarm::new(config);
        let snap = Snapshot::capture(&swarm);
        let max_rep = *snap.replication.iter().max().unwrap();
        assert!(max_rep > 64, "scenario must exceed the old clamp");
        assert_eq!(snap.availability.len() as u64, max_rep + 1);
        // Every count has its own entry.
        assert_eq!(snap.availability[max_rep as usize], 4);
        assert_eq!(snap.availability.iter().sum::<u64>(), 4);
    }

    #[test]
    fn empty_swarm_snapshot() {
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
        let snap = Snapshot::capture(&swarm);
        assert_eq!(snap.population, 0);
        assert_eq!(snap.median_pieces(), 0);
        assert_eq!(snap.mean_degree(), 0.0);
        assert_eq!(snap.extinct_pieces(), 5);
        assert_eq!(snap.entropy, 0.0);
    }
}
