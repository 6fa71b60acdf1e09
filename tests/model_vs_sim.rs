//! Cross-crate validation: the analytical model against the protocol
//! simulator on matched, scaled-down configurations.

use multiphase_bt::markov::SeedStream;
use multiphase_bt::model::evolution::expected_timeline;
use multiphase_bt::model::ModelParams;
use multiphase_bt::swarm::{Swarm, SwarmConfig};

/// Runs a small matched pair and returns (sim mean rounds, model mean
/// rounds).
fn matched_download_times(pieces: u32, k: u32, s: u32, seed: u64) -> (f64, f64) {
    let config = SwarmConfig::builder()
        .pieces(pieces)
        .max_connections(k)
        .neighbor_set_size(s)
        .arrival_rate(1.5)
        .initial_leechers(20)
        .max_rounds(400)
        .stop_after_completions(150)
        .seed(seed)
        .build()
        .expect("valid config");
    let metrics = Swarm::new(config).run();
    let sim = metrics.completions.mean_download_rounds();
    let params = ModelParams::builder()
        .pieces(pieces)
        .max_connections(k)
        .neighbor_set_size(s)
        .p_init(0.5)
        .alpha(0.3)
        .gamma(0.15)
        .build()
        .expect("valid params");
    let tl = expected_timeline(&params, 200, SeedStream::new(seed).rng("mvs", 0))
        .expect("valid params yield a kernel");
    (sim, tl.mean_step[pieces as usize])
}

#[test]
fn model_tracks_simulation_within_factor_two() {
    let (sim, model) = matched_download_times(40, 4, 10, 1);
    assert!(sim.is_finite() && model.is_finite());
    let ratio = model / sim;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "model {model:.1} vs sim {sim:.1} (ratio {ratio:.2})"
    );
}

#[test]
fn both_sides_speed_up_with_k() {
    let (sim_k1, model_k1) = matched_download_times(30, 1, 8, 2);
    let (sim_k4, model_k4) = matched_download_times(30, 4, 8, 2);
    assert!(
        sim_k4 < sim_k1,
        "sim: k=4 ({sim_k4:.1}) must beat k=1 ({sim_k1:.1})"
    );
    assert!(
        model_k4 < model_k1,
        "model: k=4 ({model_k4:.1}) must beat k=1 ({model_k1:.1})"
    );
}

#[test]
fn model_potential_ratio_matches_sim_shape() {
    // Both sides: the potential/neighbor ratio is depressed at the very
    // start of the download relative to the middle.
    let config = SwarmConfig::builder()
        .pieces(40)
        .max_connections(4)
        .neighbor_set_size(8)
        .arrival_rate(1.5)
        .initial_leechers(20)
        .max_rounds(300)
        .metrics_warmup_rounds(40)
        .seed(3)
        .build()
        .expect("valid config");
    let metrics = Swarm::new(config).run();
    let sim_ratio = metrics.potential_ratio_by_pieces(8);
    let early = sim_ratio[1];
    let mid = sim_ratio[20];
    assert!(
        early < mid,
        "sim: early ratio {early:.2} should sit below mid ratio {mid:.2}"
    );

    let params = ModelParams::builder()
        .pieces(40)
        .max_connections(4)
        .neighbor_set_size(8)
        .p_init(0.4)
        .build()
        .expect("valid params");
    let tl = expected_timeline(&params, 150, SeedStream::new(3).rng("ratio", 0))
        .expect("valid params yield a kernel");
    let ratios = tl.potential_ratio(8);
    assert!(
        ratios[1] < ratios[20],
        "model: early ratio {:.2} should sit below mid ratio {:.2}",
        ratios[1],
        ratios[20]
    );
}
