//! Quickstart: the model and the simulator side by side.
//!
//! Builds the paper's download-evolution model for a small file, samples
//! trajectories from it, runs the matching swarm simulation, and compares
//! the expected download times.
//!
//! Run with `cargo run --release --example quickstart`.

use multiphase_bt::markov::SeedStream;
use multiphase_bt::model::evolution::expected_timeline;
use multiphase_bt::model::{ModelParams, Phase};
use multiphase_bt::swarm::{Swarm, SwarmConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pieces = 60;
    let k = 4;
    let s = 12;

    // ---- Analytical model --------------------------------------------
    let params = ModelParams::builder()
        .pieces(pieces)
        .max_connections(k)
        .neighbor_set_size(s)
        .alpha(0.3)
        .gamma(0.2)
        .build()?;
    let timeline = expected_timeline(&params, 200, SeedStream::new(7).rng("quickstart", 0))?;
    println!(
        "model: expected download time = {:.1} rounds ({} of {} replications absorbed)",
        timeline.mean_step[pieces as usize], timeline.completed, timeline.replications
    );
    println!(
        "model: mean phase sojourns bootstrap/efficient/last = {:.1} / {:.1} / {:.1} rounds",
        timeline.mean_sojourns[0], timeline.mean_sojourns[1], timeline.mean_sojourns[2]
    );
    println!(
        "model: a mid-download state classifies as {}",
        Phase::classify(multiphase_bt::model::DownloadState::new(2, 30, 5), pieces)
    );

    // ---- Simulation --------------------------------------------------
    let config = SwarmConfig::builder()
        .pieces(pieces)
        .max_connections(k)
        .neighbor_set_size(s)
        .arrival_rate(1.5)
        .initial_leechers(20)
        .max_rounds(400)
        .seed(7)
        .build()?;
    let metrics = Swarm::new(config).run();
    println!(
        "sim:   mean download time = {:.1} rounds over {} completions",
        metrics.completions.mean_download_rounds(),
        metrics.completions.count()
    );
    println!(
        "sim:   final entropy = {:.2}, mean slot utilization = {:.2}",
        metrics.final_entropy(),
        metrics.mean_utilization()
    );
    Ok(())
}
