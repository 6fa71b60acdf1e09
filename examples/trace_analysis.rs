//! The measurement pipeline end to end: synthesize tracker statistics,
//! screen for stable swarms, generate instrumented-client traces, write
//! them to disk, read them back, and segment each into the paper's three
//! phases.
//!
//! Run with `cargo run --release --example trace_analysis`.

use multiphase_bt::markov::SeedStream;
use multiphase_bt::traces::analyzer::segment;
use multiphase_bt::traces::generator::{generate, TraceScenario};
use multiphase_bt::traces::io::{read_traces_from_path, write_traces_to_path};
use multiphase_bt::traces::swarm_stats::{filter_stable, synthesize, SwarmClass};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Tracker statistics screening (the §4.2 swarm-selection step).
    let mut rng = SeedStream::new(11).rng("tracker-stats", 0);
    let stats = vec![
        synthesize(SwarmClass::Stable, "linux-iso", 1_200, 48, &mut rng),
        synthesize(SwarmClass::FlashCrowd, "new-release", 800, 48, &mut rng),
        synthesize(SwarmClass::Dying, "old-torrent", 400, 48, &mut rng),
        synthesize(SwarmClass::Stable, "dataset", 2_500, 48, &mut rng),
    ];
    let stable = filter_stable(stats);
    println!("stable swarms selected for measurement:");
    for s in &stable {
        println!(
            "  {:<12} mean population {:.0}",
            s.name,
            s.mean_population()
        );
    }

    // 2. Inject the instrumented client and collect traces.
    let mut all = Vec::new();
    for scenario in [
        TraceScenario::Smooth,
        TraceScenario::LastPhase,
        TraceScenario::BootstrapStall,
    ] {
        all.extend(generate(scenario, 3, 11)?);
    }

    // 3. Persist and reload (the on-disk format an instrumented client logs).
    let path = std::env::temp_dir().join("multiphase-bt-traces.jsonl");
    write_traces_to_path(&path, &all)?;
    let reloaded = read_traces_from_path(&path)?;
    println!(
        "\nwrote and reloaded {} traces via {}",
        reloaded.len(),
        path.display()
    );

    // 4. Phase segmentation of every trace.
    println!("\nclient                      bootstrap  efficient  last      completed");
    for trace in &reloaded {
        let phases = segment(trace);
        println!(
            "{:<27} {:>6.0}s   {:>6.0}s  {:>6.0}s     {}",
            trace.client,
            phases.bootstrap_secs,
            phases.efficient_secs,
            phases.last_secs,
            trace.completed
        );
    }
    std::fs::remove_file(&path).ok();
    Ok(())
}
