//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * [`piece_selection`] — rarest-first vs random-first effect on entropy
//!   and download time (§6's "least replicated pieces are exchanged at a
//!   faster rate" depends on rarest-first).
//! * [`alpha_sojourns`] / [`gamma_sojourns`] — phase sojourns against `α` and `γ`,
//!   validating the model's `1/α` and `1/γ` expectations.
//! * [`seeding`] — §7.2: origin-seed capacity vs last-phase severity.
//! * [`shake_threshold`] — §7.1: sweep of the shake trigger fraction.

use bt_markov::SeedStream;
use bt_model::evolution::expected_timeline;
use bt_model::ModelParams;
use bt_swarm::config::PieceSelection;
use bt_swarm::{scenario, Swarm, SwarmConfig};

use crate::par_map;

/// Result row of the piece-selection ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionRow {
    /// Strategy under test.
    pub strategy: PieceSelection,
    /// Mean entropy over the second half of the run.
    pub mean_entropy: f64,
    /// Mean download duration in rounds.
    pub mean_download_rounds: f64,
}

/// Rarest-first vs random-first on a moderately provisioned swarm.
///
/// # Panics
///
/// Panics only on internal configuration bugs.
#[must_use]
pub fn piece_selection(seed: u64) -> Vec<SelectionRow> {
    [PieceSelection::RarestFirst, PieceSelection::RandomFirst]
        .into_iter()
        .map(|strategy| {
            tracing::info!(target: "bt_bench::ablation", strategy = format!("{strategy:?}"); "piece-selection run");
            let config = SwarmConfig::builder()
                .pieces(60)
                .max_connections(4)
                .neighbor_set_size(10)
                .arrival_rate(2.0)
                .initial_leechers(30)
                .piece_selection(strategy)
                .seed_uploads_per_round(1)
                .max_rounds(300)
                .seed(seed)
                .build()
                .expect("valid ablation config");
            let metrics = Swarm::new(config).run();
            let tail = &metrics.entropy[metrics.entropy.len() / 2..];
            let mean_entropy = tail.iter().map(|&(_, e)| e).sum::<f64>() / tail.len().max(1) as f64;
            SelectionRow {
                strategy,
                mean_entropy,
                mean_download_rounds: metrics.completions.mean_download_rounds(),
            }
        })
        .collect()
}

/// Result row of the α/γ sojourn ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SojournRow {
    /// The α (or γ) value under test.
    pub value: f64,
    /// Measured mean bootstrap (resp. last-phase) steps over trajectories.
    pub measured: f64,
    /// The model's expectation (`1/α` or derived).
    pub expected: f64,
}

/// Bootstrap sojourn vs `α`: Monte-Carlo sojourns against the `1/α` law.
///
/// With `p_init = 0` every trajectory enters the empty-potential bootstrap
/// state, whose sojourn is geometric with mean `1/α`.
///
/// # Panics
///
/// Panics only on internal parameter bugs.
#[must_use]
pub fn alpha_sojourns(alphas: &[f64], replications: usize, seed: u64) -> Vec<SojournRow> {
    alphas
        .iter()
        .map(|&alpha| {
            tracing::info!(target: "bt_bench::ablation", alpha = alpha, replications = replications; "alpha-sojourn run");
            let params = ModelParams::builder()
                .pieces(20)
                .max_connections(3)
                .neighbor_set_size(6)
                .p_init(0.0)
                .alpha(alpha)
                .gamma(0.5)
                .build()
                .expect("valid ablation params");
            let tl = expected_timeline(
                &params,
                replications,
                SeedStream::new(seed).rng("alpha-ablation", (alpha * 1e6) as u64),
            )
            .expect("valid params build a kernel");
            SojournRow {
                value: alpha,
                measured: tl.mean_sojourns[0],
                // One guaranteed entry step plus the geometric wait. The
                // wait ends one step before trading resumes, and the state
                // with the fresh potential peer still classifies as
                // bootstrap (stock = 1), adding one more step.
                expected: 1.0 + 1.0 / alpha,
            }
        })
        .collect()
}

/// Result row of the seeding ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedingRow {
    /// Origin-seed uploads per round.
    pub uploads: u32,
    /// Mean inter-piece time over the final 5% of acquisition indices.
    pub tail_ttd: f64,
    /// Completions observed.
    pub completions: u64,
}

/// §7.2: more seed capacity shortens the last phase.
///
/// # Panics
///
/// Panics only on internal configuration bugs.
#[must_use]
pub fn seeding(uploads_sweep: &[u32], seed: u64) -> Vec<SeedingRow> {
    par_map(uploads_sweep, |&uploads| {
        tracing::info!(target: "bt_bench::ablation", uploads = uploads; "seeding run");
        let mut config = scenario::shake_study(false, 40, seed).expect("scenario preset is valid");
        config.seed_uploads_per_round = uploads;
        let pieces = config.pieces;
        let metrics = Swarm::new(config).run();
        let gaps = metrics.completions.mean_inter_piece_times();
        let first = (pieces as usize * 95) / 100;
        let tail: Vec<f64> = (first..=pieces as usize)
            .map(|j| gaps[j])
            .filter(|v| !v.is_nan())
            .collect();
        SeedingRow {
            uploads,
            tail_ttd: if tail.is_empty() {
                f64::NAN
            } else {
                tail.iter().sum::<f64>() / tail.len() as f64
            },
            completions: metrics.completions.count(),
        }
    })
}

/// Result row of the shake-threshold ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShakeRow {
    /// Shake trigger fraction (NaN = shaking disabled).
    pub threshold: f64,
    /// Mean inter-piece time over pieces 190..=200.
    pub tail_ttd: f64,
}

/// §7.1: sweep of the shake trigger fraction (plus the no-shake baseline).
///
/// # Panics
///
/// Panics only on internal configuration bugs.
#[must_use]
pub fn shake_threshold(thresholds: &[f64], completions: u64, seed: u64) -> Vec<ShakeRow> {
    // NaN stands for the no-shake baseline, which leads the rows.
    let sweep: Vec<f64> = std::iter::once(f64::NAN)
        .chain(thresholds.iter().copied())
        .collect();
    par_map(&sweep, |&threshold| {
        let shake = !threshold.is_nan();
        let mut config = scenario::shake_study(shake, completions, seed).expect("valid preset");
        if shake {
            tracing::info!(target: "bt_bench::ablation", threshold = threshold; "shake-threshold run");
            config.shake_at = Some(threshold);
        }
        let pieces = config.pieces;
        let metrics = Swarm::new(config).run();
        let gaps = metrics.completions.mean_inter_piece_times();
        let tail: Vec<f64> = (190..=pieces as usize)
            .map(|j| gaps[j])
            .filter(|v| !v.is_nan())
            .collect();
        let tail_ttd = if tail.is_empty() {
            f64::NAN
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        ShakeRow {
            threshold,
            tail_ttd,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_sojourns_follow_inverse_law() {
        let rows = alpha_sojourns(&[0.2, 0.5], 300, 1);
        for row in rows {
            let rel = (row.measured - row.expected).abs() / row.expected;
            assert!(
                rel < 0.25,
                "alpha={}: measured {} vs expected {}",
                row.value,
                row.measured,
                row.expected
            );
        }
    }

    #[test]
    fn piece_selection_rows_are_sane() {
        let rows = piece_selection(2);
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!((0.0..=1.0).contains(&row.mean_entropy));
            assert!(row.mean_download_rounds > 0.0);
        }
    }
}

/// Result row of the §4.3 bootstrap-relief ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliefRow {
    /// Whether the tracker biased handouts toward trapped peers.
    pub relief: bool,
    /// Mean rounds from joining to holding a second piece.
    pub mean_bootstrap_rounds: f64,
    /// Completions observed.
    pub completions: u64,
}

/// §4.3: tracker bootstrap relief in a skewed swarm where newcomers tend
/// to get trapped with an untradable first piece.
///
/// # Panics
///
/// Panics only on internal configuration bugs.
#[must_use]
pub fn bootstrap_relief(seed: u64) -> Vec<ReliefRow> {
    [false, true]
        .into_iter()
        .map(|relief| {
            tracing::info!(target: "bt_bench::ablation", relief = relief; "bootstrap-relief run");
            let config = SwarmConfig::builder()
                .pieces(60)
                .max_connections(4)
                .neighbor_set_size(4)
                .arrival_rate(0.5)
                .initial_leechers(60)
                .initial_pieces(bt_swarm::InitialPieces::Skewed {
                    count: 20,
                    strength: 0.3,
                })
                .bootstrap(bt_swarm::BootstrapInjection::Weighted { seed_weight: 0.02 })
                .seed_uploads_per_round(1)
                .bootstrap_relief(relief)
                .metrics_warmup_rounds(5)
                .max_rounds(1_500)
                .stop_after_completions(40)
                .seed(seed)
                .build()
                .expect("valid ablation config");
            let metrics = Swarm::new(config).run();
            ReliefRow {
                relief,
                mean_bootstrap_rounds: metrics.completions.mean_bootstrap_rounds(),
                completions: metrics.completions.count(),
            }
        })
        .collect()
}

/// Last-phase sojourn vs `γ`: Monte-Carlo per-piece waiting time in the
/// last download phase against the `1/γ` law.
///
/// The trajectories are forced through the last phase by a `φ` that puts
/// all mass at `B` (every other peer is effectively complete, so Eq. 1
/// gives zero trading power and progress comes only through the `γ`
/// channel).
///
/// # Panics
///
/// Panics only on internal parameter bugs.
#[must_use]
pub fn gamma_sojourns(gammas: &[f64], replications: usize, seed: u64) -> Vec<SojournRow> {
    let pieces = 12u32;
    gammas
        .iter()
        .map(|&gamma| {
            tracing::info!(target: "bt_bench::ablation", gamma = gamma, replications = replications; "gamma-sojourn run");
            let mut probs = vec![0.0; pieces as usize + 1];
            probs[pieces as usize] = 1.0;
            let phi = bt_markov::dist::Empirical::from_probs(probs)
                .expect("point mass is a valid distribution");
            let params = ModelParams::builder()
                .pieces(pieces)
                .max_connections(2)
                .neighbor_set_size(4)
                .p_init(0.0)
                .alpha(0.9)
                .gamma(gamma)
                .p_n(1.0)
                // Connections must not outlive their usefulness, or a
                // single surviving connection delivers everything and the
                // trajectory never re-enters the last phase.
                .p_r(0.0)
                .phi(phi)
                .build()
                .expect("valid ablation params");
            let tl = expected_timeline(
                &params,
                replications,
                SeedStream::new(seed).rng("gamma-ablation", (gamma * 1e6) as u64),
            )
            .expect("valid params build a kernel");
            // Pieces 3..=B are acquired through the last phase (piece 1 via
            // bootstrap injection, piece 2 via the α channel), so the
            // per-piece last-phase wait is the total divided by B - 2.
            let per_piece = tl.mean_sojourns[2] / f64::from(pieces - 2);
            SojournRow {
                value: gamma,
                measured: per_piece,
                expected: 1.0 / gamma,
            }
        })
        .collect()
}

#[cfg(test)]
mod gamma_tests {
    use super::*;

    #[test]
    fn gamma_sojourns_follow_inverse_law() {
        for row in gamma_sojourns(&[0.25, 0.5], 300, 2) {
            let rel = (row.measured - row.expected).abs() / row.expected;
            assert!(
                rel < 0.3,
                "gamma={}: measured {:.2} vs expected {:.2}",
                row.value,
                row.measured,
                row.expected
            );
        }
    }
}

/// Result row of the stability-boundary sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryRow {
    /// Number of pieces `B`.
    pub pieces: u32,
    /// Arrival rate λ.
    pub arrival_rate: f64,
    /// Population growth factor over the run (end / start).
    pub growth: f64,
    /// Mean entropy over the second half of the run.
    pub tail_entropy: f64,
    /// Stability verdict: population did not keep growing.
    pub stable: bool,
}

/// Maps the §6 stability boundary over `(B, λ)`: for each combination,
/// runs the skewed-start scenario and reports whether the swarm absorbed
/// the load. Extends the paper's two-point comparison (B = 3 vs 10) to a
/// phase diagram.
///
/// # Panics
///
/// Panics only on internal configuration bugs.
#[must_use]
pub fn stability_boundary(
    piece_counts: &[u32],
    arrival_rates: &[f64],
    rounds: u64,
    seed: u64,
) -> Vec<BoundaryRow> {
    let cells: Vec<(u32, f64)> = piece_counts
        .iter()
        .flat_map(|&pieces| arrival_rates.iter().map(move |&rate| (pieces, rate)))
        .collect();
    par_map(&cells, |&(pieces, arrival_rate)| {
        tracing::info!(target: "bt_bench::ablation", pieces = pieces, lambda = arrival_rate; "stability-boundary run");
        let mut config = scenario::stability(pieces, seed).expect("valid preset");
        config.arrival_rate = arrival_rate;
        config.max_rounds = rounds;
        let metrics = Swarm::new(config).run();
        let start = metrics.population.first().map_or(1, |&(_, p)| p.max(1));
        let end = metrics.final_population().max(1);
        let growth = end as f64 / start as f64;
        let tail = &metrics.entropy[metrics.entropy.len() / 2..];
        let tail_entropy = tail.iter().map(|&(_, e)| e).sum::<f64>() / tail.len().max(1) as f64;
        BoundaryRow {
            pieces,
            arrival_rate,
            growth,
            tail_entropy,
            stable: growth < 2.0,
        }
    })
}

#[cfg(test)]
mod boundary_tests {
    use super::*;

    #[test]
    fn boundary_discriminates_b_at_fixed_load() {
        let rows = stability_boundary(&[3, 10], &[10.0], 120, 3);
        assert_eq!(rows.len(), 2);
        let b3 = rows.iter().find(|r| r.pieces == 3).unwrap();
        let b10 = rows.iter().find(|r| r.pieces == 10).unwrap();
        assert!(!b3.stable, "B=3 under load should be unstable: {b3:?}");
        assert!(b10.stable, "B=10 should absorb the load: {b10:?}");
        assert!(b10.tail_entropy > b3.tail_entropy);
    }
}

/// Result row of the exact model-sensitivity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityRow {
    /// Neighbor-set size `s`.
    pub s: u32,
    /// Connection cap `k`.
    pub k: u32,
    /// Exact expected download time (steps).
    pub expected_time: f64,
    /// Exact probability of ever entering the last download phase.
    pub last_phase_prob: f64,
    /// Exact expected steps in the last download phase.
    pub last_phase_steps: f64,
}

/// Exact (fundamental-matrix) sensitivity of the download model to `s` and
/// `k` on a small file — the design-space view behind the paper's §4.3
/// recommendations ("choosing the size of the neighbor set sufficiently
/// high" suppresses the bootstrap and last phases).
///
/// # Panics
///
/// Panics only on internal parameter bugs.
#[must_use]
pub fn model_sensitivity(s_values: &[u32], k_values: &[u32]) -> Vec<SensitivityRow> {
    let mut rows = Vec::with_capacity(s_values.len() * k_values.len());
    for &s in s_values {
        for &k in k_values {
            tracing::info!(target: "bt_bench::ablation", s = s, k = k; "model-sensitivity point");
            let params = ModelParams::builder()
                .pieces(10)
                .max_connections(k)
                .neighbor_set_size(s)
                .alpha(0.3)
                .gamma(0.2)
                .build()
                .expect("valid sweep params");
            let expected_time =
                bt_model::exact::expected_download_time(&params).expect("analyzable");
            let sojourns = bt_model::exact::expected_phase_sojourns(&params).expect("analyzable");
            let last_phase_prob =
                bt_model::exact::last_phase_probability(&params).expect("analyzable");
            rows.push(SensitivityRow {
                s,
                k,
                expected_time,
                last_phase_prob,
                last_phase_steps: sojourns[2],
            });
        }
    }
    rows
}

#[cfg(test)]
mod sensitivity_tests {
    use super::*;

    #[test]
    fn larger_s_suppresses_last_phase() {
        let rows = model_sensitivity(&[1, 4], &[2]);
        let s1 = rows.iter().find(|r| r.s == 1).unwrap();
        let s4 = rows.iter().find(|r| r.s == 4).unwrap();
        assert!(
            s4.last_phase_prob < s1.last_phase_prob,
            "s=4 ({:.3}) should stall less than s=1 ({:.3})",
            s4.last_phase_prob,
            s1.last_phase_prob
        );
        assert!(s4.expected_time < s1.expected_time);
    }

    #[test]
    fn larger_k_speeds_downloads() {
        let rows = model_sensitivity(&[3], &[1, 3]);
        let k1 = rows.iter().find(|r| r.k == 1).unwrap();
        let k3 = rows.iter().find(|r| r.k == 3).unwrap();
        assert!(k3.expected_time < k1.expected_time);
    }
}

/// Result row of the block-granularity ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockRow {
    /// Blocks per piece.
    pub blocks: u32,
    /// Mean download duration in rounds.
    pub mean_rounds: f64,
    /// Mean download duration normalized by blocks per piece (the
    /// model-step equivalent).
    pub normalized_rounds: f64,
}

/// Block granularity (§2.1): one round transfers one block, so downloads
/// take proportionally longer in rounds but comparably long in
/// piece-exchange periods — validating that the paper's piece-level model
/// is the right abstraction over block-level reality.
///
/// # Panics
///
/// Panics only on internal configuration bugs.
#[must_use]
pub fn block_granularity(blocks_sweep: &[u32], seed: u64) -> Vec<BlockRow> {
    blocks_sweep
        .iter()
        .map(|&blocks| {
            tracing::info!(target: "bt_bench::ablation", blocks = blocks; "block-granularity run");
            let config = SwarmConfig::builder()
                .pieces(30)
                .max_connections(4)
                .neighbor_set_size(10)
                .arrival_rate(1.0)
                .initial_leechers(20)
                .initial_pieces(bt_swarm::InitialPieces::Random { count: 10 })
                .blocks_per_piece(blocks)
                .max_rounds(4_000)
                .stop_after_completions(60)
                .seed(seed)
                .build()
                .expect("valid ablation config");
            let metrics = Swarm::new(config).run();
            let mean_rounds = metrics.completions.mean_download_rounds();
            BlockRow {
                blocks,
                mean_rounds,
                normalized_rounds: mean_rounds / f64::from(blocks),
            }
        })
        .collect()
}

/// Result row of the heterogeneous-bandwidth ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthRow {
    /// Fraction of slow arrivals.
    pub slow_fraction: f64,
    /// Mean download rounds of fast peers.
    pub fast_mean: f64,
    /// Mean download rounds of slow peers (NaN if none completed).
    pub slow_mean: f64,
}

/// Heterogeneous bandwidth (the paper's declared future work): under
/// strict tit-for-tat, upload-constrained peers are served exactly as much
/// as they serve, so slow peers pay the full price of their own capacity.
///
/// # Panics
///
/// Panics only on internal configuration bugs.
#[must_use]
pub fn heterogeneous_bandwidth(fractions: &[f64], seed: u64) -> Vec<BandwidthRow> {
    fractions
        .iter()
        .map(|&slow_fraction| {
            tracing::info!(target: "bt_bench::ablation", slow_fraction = slow_fraction; "heterogeneous-bandwidth run");
            let config = SwarmConfig::builder()
                .pieces(30)
                .max_connections(4)
                .neighbor_set_size(10)
                .arrival_rate(1.5)
                .initial_leechers(20)
                .initial_pieces(bt_swarm::InitialPieces::Random { count: 10 })
                .slow_peer_fraction(slow_fraction)
                .slow_upload_budget(1)
                .max_rounds(800)
                .stop_after_completions(150)
                .seed(seed)
                .build()
                .expect("valid ablation config");
            let metrics = Swarm::new(config).run();
            let (fast_mean, slow_mean) = metrics.completions.mean_download_rounds_by_class();
            BandwidthRow {
                slow_fraction,
                fast_mean,
                slow_mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn block_normalization_is_comparable() {
        let rows = block_granularity(&[1, 4], 3);
        let b1 = rows.iter().find(|r| r.blocks == 1).unwrap();
        let b4 = rows.iter().find(|r| r.blocks == 4).unwrap();
        assert!(b4.mean_rounds > b1.mean_rounds * 2.0);
        // Normalized times agree within a factor ~2 — the piece-level
        // model's time unit survives block-level refinement.
        let ratio = b4.normalized_rounds / b1.normalized_rounds;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "normalized ratio {ratio:.2}: {rows:?}"
        );
    }

    #[test]
    fn slow_class_pays_under_tft() {
        let rows = heterogeneous_bandwidth(&[0.3], 5);
        let row = rows[0];
        assert!(row.slow_mean > row.fast_mean, "{row:?}");
    }
}
