//! Scaled-down checks of the paper's headline claims, one per figure.

use multiphase_bt::model::efficiency::{EfficiencyModel, SweepOrder};
use multiphase_bt::swarm::{InitialPieces, Swarm, SwarmConfig};

/// Fig. 4(a): efficiency gains rapidly decrease beyond two connections
/// (model side; the simulation side is covered by `bt-model`'s own tests).
#[test]
fn efficiency_gain_concentrates_at_k2() {
    let eta: Vec<f64> = (1..=6)
        .map(|k| {
            let p_r = 1.0 - 0.5 / f64::from(k);
            EfficiencyModel::new(k, p_r)
                .unwrap()
                .sweep_order(SweepOrder::Ascending)
                .solve()
                .unwrap()
                .efficiency
        })
        .collect();
    let gain12 = eta[1] - eta[0];
    let late_gains: f64 = eta[3..].windows(2).map(|w| w[1] - w[0]).sum::<f64>() / 2.0;
    assert!(gain12 > 0.0, "{eta:?}");
    assert!(
        late_gains < gain12,
        "late gains {late_gains:.3} should trail the k=1→2 gain {gain12:.3}: {eta:?}"
    );
}

fn stability_run(pieces: u32) -> (u64, u64, f64) {
    // Scaled-down §6 scenario: skewed start, heavy arrivals.
    let config = SwarmConfig::builder()
        .pieces(pieces)
        .max_connections(3)
        .neighbor_set_size(10)
        .arrival_rate(10.0)
        .initial_leechers(150)
        .initial_pieces(InitialPieces::Skewed {
            count: (pieces / 3).max(1),
            strength: 0.25,
        })
        .max_rounds(120)
        .seed(5)
        .build()
        .expect("valid config");
    let metrics = Swarm::new(config).run();
    let start_pop = metrics.population[0].1;
    let end_pop = metrics.final_population();
    let tail = &metrics.entropy[metrics.entropy.len() / 2..];
    let tail_entropy = tail.iter().map(|&(_, e)| e).sum::<f64>() / tail.len() as f64;
    (start_pop, end_pop, tail_entropy)
}

/// Fig. 4(b): with too few pieces the population grows without bound;
/// with enough pieces the swarm absorbs the same arrival load.
#[test]
fn small_b_population_diverges_large_b_stabilizes() {
    let (start3, end3, _) = stability_run(3);
    let (_, end10, _) = stability_run(10);
    assert!(
        end3 > start3 * 2,
        "B=3 population should blow up: {start3} -> {end3}"
    );
    assert!(
        end10 < end3 / 4,
        "B=10 population ({end10}) should stay far below B=3 ({end3})"
    );
}

/// Fig. 4(c): entropy collapses for B=3 and recovers for B=10.
#[test]
fn entropy_discriminates_piece_count() {
    let (_, _, entropy3) = stability_run(3);
    let (_, _, entropy10) = stability_run(10);
    assert!(
        entropy3 < 0.1,
        "B=3 entropy should collapse, got {entropy3}"
    );
    assert!(
        entropy10 > entropy3 + 0.2,
        "B=10 entropy ({entropy10}) should recover well above B=3 ({entropy3})"
    );
}

/// Fig. 4(d): shaking the peer set reduces the download time of the last
/// pieces (scaled down to B=60).
#[test]
fn shake_reduces_last_piece_times() {
    let run = |shake: bool| {
        let mut builder = SwarmConfig::builder();
        builder
            .pieces(60)
            .max_connections(4)
            .neighbor_set_size(4)
            .arrival_rate(1.0)
            .initial_leechers(25)
            .seed_uploads_per_round(1)
            .join_eviction(false)
            .max_rounds(2_000)
            .stop_after_completions(25)
            .seed(6);
        if shake {
            builder.shake_at(0.9);
        }
        let metrics = Swarm::new(builder.build().expect("valid config")).run();
        let gaps = metrics.completions.mean_inter_piece_times();
        let tail: Vec<f64> = (55..=60).map(|j| gaps[j]).filter(|v| !v.is_nan()).collect();
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    let normal = run(false);
    let shaken = run(true);
    assert!(
        shaken < normal,
        "shake tail {shaken:.2} should beat normal {normal:.2}"
    );
}

/// Fig. 1: a larger peer-set size never slows the swarm down.
#[test]
fn peer_set_size_helps_downloads() {
    let mean_rounds = |s: u32| {
        let config = SwarmConfig::builder()
            .pieces(40)
            .max_connections(4)
            .neighbor_set_size(s)
            .arrival_rate(1.5)
            .initial_leechers(20)
            .max_rounds(300)
            .stop_after_completions(120)
            .seed(7)
            .build()
            .expect("valid config");
        Swarm::new(config).run().completions.mean_download_rounds()
    };
    let small = mean_rounds(2);
    let large = mean_rounds(16);
    assert!(
        large <= small,
        "s=16 ({large:.1}) should not be slower than s=2 ({small:.1})"
    );
}
