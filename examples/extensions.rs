//! Tour of the extension features beyond the paper's assumptions:
//! block-level transfers (§2.1), heterogeneous bandwidth (§7 future work),
//! model-side seed connections (§7.2), tracker bootstrap relief (§4.3),
//! and swarm snapshots.
//!
//! Run with `cargo run --release --example extensions`.

use multiphase_bt::model::transitions::TransitionKernel;
use multiphase_bt::model::ModelParams;
use multiphase_bt::swarm::snapshot::Snapshot;
use multiphase_bt::swarm::{InitialPieces, Swarm, SwarmConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Block-level transfers ----------------------------------------
    println!("== block-level transfers (16 blocks per 256 KiB piece) ==");
    for blocks in [1u32, 16] {
        let config = SwarmConfig::builder()
            .pieces(30)
            .max_connections(4)
            .neighbor_set_size(10)
            .arrival_rate(1.0)
            .initial_leechers(20)
            .initial_pieces(InitialPieces::Random { count: 10 })
            .blocks_per_piece(blocks)
            .max_rounds(3_000)
            .stop_after_completions(40)
            .seed(1)
            .build()?;
        let metrics = Swarm::new(config).run();
        println!(
            "blocks/piece = {blocks:>2}: {:.1} rounds/download ({:.2} piece-periods)",
            metrics.completions.mean_download_rounds(),
            metrics.completions.mean_download_rounds() / f64::from(blocks)
        );
    }

    // ---- Heterogeneous bandwidth ---------------------------------------
    println!("\n== heterogeneous bandwidth under strict tit-for-tat ==");
    let config = SwarmConfig::builder()
        .pieces(30)
        .max_connections(4)
        .neighbor_set_size(10)
        .arrival_rate(1.5)
        .initial_leechers(20)
        .initial_pieces(InitialPieces::Random { count: 10 })
        .slow_peer_fraction(0.3)
        .slow_upload_budget(1)
        .max_rounds(600)
        .stop_after_completions(120)
        .seed(2)
        .build()?;
    let metrics = Swarm::new(config).run();
    let (fast, slow) = metrics.completions.mean_download_rounds_by_class();
    println!("fast peers: {fast:.1} rounds   slow peers: {slow:.1} rounds");
    println!("(tit-for-tat: serving little means being served little)");

    // ---- Model-side seeding (§7.2) --------------------------------------
    println!("\n== §7.2: seed connections in the analytical model ==");
    for seeds in [0u32, 2] {
        let params = ModelParams::builder()
            .pieces(10)
            .max_connections(2)
            .neighbor_set_size(3)
            .gamma(0.05)
            .seed_connections(seeds)
            .p_seed(0.5)
            .build()?;
        let time = TransitionKernel::new(&params)?.expected_download_time()?;
        println!("seed connections = {seeds}: E[download] = {time:.1} steps");
    }

    // ---- Snapshot diagnostics -------------------------------------------
    println!("\n== swarm snapshot after 5 rounds ==");
    let config = SwarmConfig::builder()
        .pieces(40)
        .max_connections(4)
        .neighbor_set_size(12)
        .arrival_rate(1.0)
        .initial_leechers(25)
        .initial_pieces(InitialPieces::Random { count: 10 })
        .max_rounds(1_000)
        .seed(3)
        .build()?;
    let mut swarm = Swarm::new(config);
    // step_round drives rounds only (Poisson arrivals are generated by the
    // event-driven `run`), so this shows the initial cohort mid-download.
    for _ in 0..5 {
        swarm.step_round();
    }
    let snap = Snapshot::capture(&swarm);
    println!(
        "round {}: population {}, entropy {:.2}, median pieces {}, mean degree {:.1}, extinct pieces {}",
        snap.round,
        snap.population,
        snap.entropy,
        snap.median_pieces(),
        snap.mean_degree(),
        snap.extinct_pieces()
    );
    Ok(())
}
