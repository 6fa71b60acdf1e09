//! Fig. 1 — effect of the peer-set size on the download process.
//!
//! * Fig. 1(a): mean potential-set size / neighbor-set size as a function
//!   of the number of pieces downloaded, for several peer-set sizes (PSS).
//! * Fig. 1(b): the download timeline (round at which a peer holds `b`
//!   pieces), simulation against the analytical model, for PSS ∈ {5, 50}.

use std::io::{self, Write};

use bt_markov::SeedStream;
use bt_model::evolution::expected_timeline;
use bt_model::params::alpha_from_swarm;
use bt_model::ModelParams;
use bt_swarm::{scenario, Swarm};

use crate::calibrate::calibrate;
use crate::par_map;

/// The PSS values the paper sweeps in Fig. 1(a).
pub const FIG1A_PSS: [u32; 4] = [5, 10, 25, 40];

/// The PSS values compared against the model in Fig. 1(b).
pub const FIG1B_PSS: [u32; 2] = [5, 50];

/// One PSS's series: `(pss, ratio[b])` with `ratio[b]` the mean
/// potential/neighbor ratio while holding `b` pieces.
pub type RatioSeries = (u32, Vec<f64>);

/// Fig. 1(a): the potential-set ratio curves. `completions` controls run
/// length (the paper's setup: `B = 200`, `k = 7`).
///
/// # Panics
///
/// Panics only if the canned scenario config fails validation, which would
/// be a bug in [`bt_swarm::scenario`].
#[must_use]
pub fn fig1a(completions: u64, seed: u64) -> Vec<RatioSeries> {
    par_map(&FIG1A_PSS, |&pss| ratio_series(pss, completions, seed))
}

/// One PSS's [`fig1a`] series, from its own swarm.
fn ratio_series(pss: u32, completions: u64, seed: u64) -> RatioSeries {
    let config =
        scenario::download_evolution(pss, completions, seed).expect("scenario presets are valid");
    let metrics = Swarm::new(config).run();
    (pss, metrics.potential_ratio_by_pieces(pss))
}

/// One Fig. 1(b) comparison: simulation and model first-passage curves for
/// a PSS value.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePair {
    /// Peer-set size.
    pub pss: u32,
    /// `sim[b]` — mean round (since join) at which completed simulated
    /// peers first held `b` pieces.
    pub sim: Vec<f64>,
    /// `model[b]` — the model's expected first-passage step to `b` pieces.
    pub model: Vec<f64>,
}

/// Fig. 1(b): simulation-vs-model timelines.
///
/// Model parameters are matched to the simulated swarm: same `B`, `k`,
/// `s`, `p_r`, `p_n`; `φ`, `α`, and `γ` *calibrated from the run itself*
/// (see [`crate::calibrate`]), with the paper's `λws/N` formula as the
/// `α` fallback when no bootstrap stall was observed.
///
/// # Panics
///
/// Panics only on internal scenario/parameter bugs.
#[must_use]
pub fn fig1b(completions: u64, replications: usize, seed: u64) -> Vec<TimelinePair> {
    par_map(&FIG1B_PSS, |&pss| {
        let mut config = scenario::download_evolution(pss, completions, seed)
            .expect("scenario presets are valid");
        config.observers = 30;
        let pieces = config.pieces;
        let k = config.max_connections;
        let p_r = config.p_reencounter;
        let p_n = config.p_new_connection;
        let lambda = config.arrival_rate;
        let metrics = Swarm::new(config).run();
        let sim = metrics.completions.mean_time_to_pieces();
        let mean_pop = metrics
            .population
            .iter()
            .map(|&(_, p)| p as f64)
            .sum::<f64>()
            / metrics.population.len().max(1) as f64;
        // Fallback α: the paper's λws/N with w ≈ 0.5 (a fresh
        // arrival's injected first piece is tradable unless universal).
        let alpha_formula = alpha_from_swarm(lambda, 0.5, pss, mean_pop.max(1.0)).max(0.05);
        let cal = calibrate(&metrics, pieces, (alpha_formula, 0.15))
            .expect("figure runs always record occupancy");
        let params = ModelParams::builder()
            .pieces(pieces)
            .max_connections(k)
            .neighbor_set_size(pss)
            .p_r(p_r)
            .p_n(p_n)
            .p_init(0.5)
            .alpha(cal.alpha)
            .gamma(cal.gamma)
            .phi(cal.phi)
            .build()
            .expect("matched parameters are valid");
        let timeline = expected_timeline(
            &params,
            replications,
            SeedStream::new(seed).rng("fig1b-model", u64::from(pss)),
        )
        .expect("kernel construction cannot fail for valid params");
        TimelinePair {
            pss,
            sim,
            model: timeline.mean_step,
        }
    })
}

/// Writes Fig. 1(a) as TSV: `pieces  ratio@pss5  ratio@pss10 ...`.
pub fn write_fig1a(mut w: impl Write, series: &[RatioSeries]) -> io::Result<()> {
    write!(w, "pieces")?;
    for (pss, _) in series {
        write!(w, "\tPSS={pss}")?;
    }
    writeln!(w)?;
    let len = series.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
    for b in 0..len {
        write!(w, "{b}")?;
        for (_, r) in series {
            write!(w, "\t{}", cell_at(r, b))?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Writes Fig. 1(b) as TSV: `pieces  sim@pss  model@pss ...`.
pub fn write_fig1b(mut w: impl Write, pairs: &[TimelinePair]) -> io::Result<()> {
    write!(w, "pieces")?;
    for p in pairs {
        write!(w, "\tSim,PSS={}\tModel,PSS={}", p.pss, p.pss)?;
    }
    writeln!(w)?;
    let len = pairs.iter().map(|p| p.sim.len().max(p.model.len())).max();
    for b in 0..len.unwrap_or(0) {
        write!(w, "{b}")?;
        for p in pairs {
            write!(w, "\t{}\t{}", cell_at(&p.sim, b), cell_at(&p.model, b))?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// The TSV cell of `series[b]`, `-` past its end.
fn cell_at(series: &[f64], b: usize) -> String {
    crate::cell(series.get(b).copied().unwrap_or(f64::NAN))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_small_run_has_sane_ratios() {
        let series = fig1a(5, 1);
        assert_eq!(series.len(), 4);
        for (pss, ratios) in &series {
            let finite: Vec<f64> = ratios.iter().copied().filter(|v| !v.is_nan()).collect();
            assert!(!finite.is_empty(), "PSS={pss} produced no data");
            for &r in &finite {
                assert!((0.0..=1.0 + 1e-9).contains(&r), "PSS={pss}: ratio {r}");
            }
        }
    }

    #[test]
    fn fig1a_is_bit_identical_at_one_and_four_workers() {
        let bits = |series: Vec<RatioSeries>| -> Vec<(u32, Vec<u64>)> {
            series
                .into_iter()
                .map(|(pss, r)| (pss, r.into_iter().map(f64::to_bits).collect()))
                .collect()
        };
        let serial = bits(crate::par_map_on(1, &FIG1A_PSS, |&pss| {
            ratio_series(pss, 5, 1)
        }));
        let parallel = bits(crate::par_map_on(4, &FIG1A_PSS, |&pss| {
            ratio_series(pss, 5, 1)
        }));
        assert_eq!(serial, parallel);
        assert_eq!(serial, bits(fig1a(5, 1)));
    }

    #[test]
    fn fig1b_small_run_is_monotone() {
        let pairs = fig1b(3, 10, 2);
        assert_eq!(pairs.len(), 2);
        for pair in &pairs {
            let sim: Vec<f64> = pair.sim.iter().copied().filter(|v| !v.is_nan()).collect();
            for w in sim.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "sim timeline must be monotone");
            }
            let model: Vec<f64> = pair.model.iter().copied().filter(|v| !v.is_nan()).collect();
            for w in model.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "model timeline must be monotone");
            }
        }
    }
}
