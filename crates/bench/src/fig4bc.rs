//! Fig. 4(b)/(c) — stability: swarm population and entropy over time for a
//! small vs a sufficient number of pieces, starting from a skewed state.

use std::io::{self, Write};

use bt_swarm::{scenario, Swarm};

/// The piece counts the paper contrasts.
pub const PIECE_COUNTS: [u32; 2] = [3, 10];

/// One run's stability series.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityRun {
    /// Number of pieces `B`.
    pub pieces: u32,
    /// `(round, population)` series.
    pub population: Vec<(u64, u64)>,
    /// `(round, entropy)` series.
    pub entropy: Vec<(u64, f64)>,
}

/// Runs the §6 stability scenario for each piece count.
///
/// # Panics
///
/// Panics only on internal scenario bugs.
#[must_use]
pub fn fig4bc(seed: u64) -> Vec<StabilityRun> {
    PIECE_COUNTS
        .iter()
        .map(|&pieces| run_stability(pieces, seed))
        .collect()
}

/// One stability run at an arbitrary piece count (used by the ablations).
///
/// # Panics
///
/// Panics only on internal scenario bugs.
#[must_use]
pub fn run_stability(pieces: u32, seed: u64) -> StabilityRun {
    let config = scenario::stability(pieces, seed).expect("scenario preset is valid");
    let metrics = Swarm::new(config).run();
    StabilityRun {
        pieces,
        population: metrics.population,
        entropy: metrics.entropy,
    }
}

/// Writes Fig. 4(b) as TSV: `round  peers@B=3  peers@B=10`.
pub fn write_fig4b(w: impl Write, runs: &[StabilityRun]) -> io::Result<()> {
    write_rounds(w, runs, "peers", |r| &r.population, u64::to_string)
}

/// Writes Fig. 4(c) as TSV: `round  entropy@B=3  entropy@B=10`.
pub fn write_fig4c(w: impl Write, runs: &[StabilityRun]) -> io::Result<()> {
    write_rounds(w, runs, "entropy", |r| &r.entropy, |&e| crate::cell(e))
}

/// One column of `series` per run, on the first run's rounds; `-` where
/// a run has no sample.
fn write_rounds<T>(
    mut w: impl Write,
    runs: &[StabilityRun],
    label: &str,
    series: fn(&StabilityRun) -> &Vec<(u64, T)>,
    value: fn(&T) -> String,
) -> io::Result<()> {
    write!(w, "round")?;
    for r in runs {
        write!(w, "\t{label}@B={}", r.pieces)?;
    }
    writeln!(w)?;
    let len = runs.iter().map(|r| series(r).len()).max().unwrap_or(0);
    for i in 0..len {
        let first = runs.first().and_then(|r| series(r).get(i));
        write!(w, "{}", first.map_or(i as u64, |&(round, _)| round))?;
        for r in runs {
            let v = series(r).get(i).map_or("-".to_string(), |(_, v)| value(v));
            write!(w, "\t{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_well_formed() {
        // A short scaled-down stability run (the full runs are the
        // fig4b and fig4c results tables).
        let run = run_stability_short(5, 1);
        assert!(!run.population.is_empty());
        assert_eq!(run.population.len(), run.entropy.len());
        for &(_, e) in &run.entropy {
            assert!((0.0..=1.0).contains(&e));
        }
    }

    fn run_stability_short(pieces: u32, seed: u64) -> StabilityRun {
        let mut config = bt_swarm::scenario::stability(pieces, seed).unwrap();
        config.max_rounds = 20;
        config.initial_leechers = 50;
        let metrics = bt_swarm::Swarm::new(config).run();
        StabilityRun {
            pieces,
            population: metrics.population,
            entropy: metrics.entropy,
        }
    }
}
