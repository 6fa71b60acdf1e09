//! A fuller swarm-simulation tour: flash crowd vs steady state, rarest-
//! first vs random-first, and the replication-entropy view of swarm health.
//!
//! Mirrors the workloads the paper's introduction motivates: a file split
//! into pieces, served by a community of tit-for-tat leechers behind one
//! origin seed.
//!
//! Run with `cargo run --release --example swarm_simulation`.

use multiphase_bt::swarm::config::PieceSelection;
use multiphase_bt::swarm::{InitialPieces, Swarm, SwarmConfig};

fn run_named(name: &str, config: SwarmConfig) {
    let pieces = config.pieces;
    let metrics = Swarm::new(config).run();
    let mid_entropy = {
        let tail = &metrics.entropy[metrics.entropy.len() / 2..];
        tail.iter().map(|&(_, e)| e).sum::<f64>() / tail.len().max(1) as f64
    };
    println!(
        "{name:<28} B={pieces:<4} completions={:<5} mean_rounds={:<7.1} entropy={:.2} pop_end={}",
        metrics.completions.count(),
        metrics.completions.mean_download_rounds(),
        mid_entropy,
        metrics.final_population()
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("scenario                     parameters    outcomes");

    // Steady state: Poisson arrivals into a warm swarm.
    run_named(
        "steady-state",
        SwarmConfig::builder()
            .pieces(100)
            .max_connections(5)
            .neighbor_set_size(20)
            .arrival_rate(2.0)
            .initial_leechers(30)
            .initial_pieces(InitialPieces::Random { count: 30 })
            .max_rounds(300)
            .seed(1)
            .build()?,
    );

    // Flash crowd: everyone arrives at once, nothing circulates yet.
    run_named(
        "flash-crowd",
        SwarmConfig::builder()
            .pieces(100)
            .max_connections(5)
            .neighbor_set_size(20)
            .arrival_rate(0.0)
            .initial_leechers(300)
            .max_rounds(300)
            .seed(1)
            .build()?,
    );

    // Piece-selection comparison under identical conditions.
    for (name, strategy) in [
        ("rarest-first", PieceSelection::RarestFirst),
        ("random-first", PieceSelection::RandomFirst),
    ] {
        run_named(
            name,
            SwarmConfig::builder()
                .pieces(100)
                .max_connections(5)
                .neighbor_set_size(12)
                .arrival_rate(2.0)
                .initial_leechers(30)
                .piece_selection(strategy)
                .seed_uploads_per_round(1)
                .max_rounds(300)
                .seed(2)
                .build()?,
        );
    }

    // Peer-set shaking on vs off in a last-piece-prone swarm.
    for (name, shake) in [("no-shake", false), ("shake@90%", true)] {
        let config = multiphase_bt::swarm::scenario::shake_study(shake, 40, 3)?;
        run_named(name, config);
    }
    Ok(())
}
