//! `paper-figures`: the call list of the `all_figures` binary, with
//! its figure seeds, so that every unit regenerates the repository's
//! figures. The run seed permutes the order of the six calls.
//!
//! Shifting the figure seeds by the run seed was tried and dropped: for
//! 3 of 24 shifts the B = 10 swarm of Fig. 4(b) turns unstable as well,
//! which fails the figure's claim and adds up to ten seconds, and over
//! the other 21 the unit's interquartile range is 14% of its median.

use bt_bench::fig1::{self, FIG1A_PSS, FIG1B_PSS};
use bt_bench::fig4bc::{StabilityRun, PIECE_COUNTS};
use bt_bench::{fig2, fig4a, fig4bc, fig4d};
use bt_obs::Registry;
use bt_swarm::{scenario, Swarm, SwarmConfig};
use bt_traces::generator::TraceScenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::run::{timed, Recorder, Workload};
use crate::swarm::{record_layers, tracker_probe, Totals};

/// The `all_figures` arguments, or tiny ones for the smoke pass.
struct Sizes {
    completions: u64,
    replications: usize,
    observers: u32,
    k_max: u32,
    shake_completions: u64,
    /// Smoke only: cut the Fig. 4(b) swarms to this many rounds and
    /// initial leechers (the figure function has no size argument).
    stability_cut: Option<(u64, u32)>,
}

pub struct Figures {
    sizes: Sizes,
}

pub fn figures(smoke: bool) -> Figures {
    let sizes = if smoke {
        Sizes {
            completions: 2,
            replications: 5,
            observers: 2,
            k_max: 1,
            shake_completions: 2,
            stability_cut: Some((60, 50)),
        }
    } else {
        Sizes {
            completions: 120,
            replications: 400,
            observers: 10,
            k_max: 8,
            shake_completions: 60,
            stability_cut: None,
        }
    };
    Figures { sizes }
}

impl Figures {
    fn stability_config(&self, pieces: u32, seed: u64) -> SwarmConfig {
        let mut config = scenario::stability(pieces, seed).expect("the stability preset is valid");
        if let Some((rounds, initial)) = self.sizes.stability_cut {
            config.max_rounds = rounds;
            config.initial_leechers = initial;
        }
        config
    }

    fn fig4bc(&self, seed: u64) -> Vec<StabilityRun> {
        if self.sizes.stability_cut.is_none() {
            return fig4bc::fig4bc(seed);
        }
        PIECE_COUNTS
            .iter()
            .map(|&pieces| {
                let metrics = Swarm::new(self.stability_config(pieces, seed)).run();
                StabilityRun {
                    pieces,
                    population: metrics.population,
                    entropy: metrics.entropy,
                }
            })
            .collect()
    }

    /// The initial swarm of every simulated figure run.
    fn swarm_configs(&self) -> Vec<SwarmConfig> {
        let s = &self.sizes;
        let mut configs = Vec::new();
        for pss in FIG1A_PSS {
            configs.push(scenario::download_evolution(pss, s.completions, 1));
        }
        for pss in FIG1B_PSS {
            configs.push(scenario::download_evolution(pss, s.completions, 2));
        }
        for k in 1..=s.k_max {
            configs.push(scenario::efficiency(k, fig4a::coupled_p_r(k, 0.5), 4));
        }
        for shake in [false, true] {
            configs.push(scenario::shake_study(shake, s.shake_completions, 6));
        }
        let mut configs: Vec<SwarmConfig> = configs
            .into_iter()
            .map(|c| c.expect("figure presets are valid"))
            .collect();
        configs.extend(PIECE_COUNTS.iter().map(|&b| self.stability_config(b, 5)));
        configs
    }
}

/// Runs one figure call under its own span, step and per-layer metric,
/// adding its time to `total`.
fn figure_step<T>(
    rec: &mut Recorder,
    total: &mut f64,
    metric: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let span = rec
        .trace
        .open(rec.unit_span(), metric.trim_end_matches("_s"));
    let (value, secs) = timed(f);
    rec.trace.close(span);
    rec.layer(metric, secs);
    rec.step(metric, secs);
    *total += secs;
    value
}

impl Workload for Figures {
    /// The figure calls build their swarms inside the timed phase; set-up
    /// times the same constructions on their own.
    fn setup(&mut self, rec: &mut Recorder, _seed: u64) {
        let configs = self.swarm_configs();
        let ((), secs) = timed(|| {
            for config in configs {
                drop(Swarm::with_registry(config, Registry::new()));
            }
        });
        rec.setup_done(secs);
    }

    fn unit(&mut self, rec: &mut Recorder, seed: u64) {
        let before = Totals::of(&Registry::global());
        let s = &self.sizes;
        let mut order = [0, 1, 2, 3, 4, 5];
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let (mut f1a, mut f1b, mut f2, mut f4a, mut f4bc, mut f4d) =
            (None, None, None, None, None, None);
        let mut run_s = 0.0;
        for call in order {
            let t = &mut run_s;
            match call {
                0 => {
                    f1a = Some(figure_step(rec, t, "fig.fig1a_s", || {
                        fig1::fig1a(s.completions, 1)
                    }))
                }
                1 => {
                    f1b = Some(figure_step(rec, t, "fig.fig1b_s", || {
                        fig1::fig1b(s.completions, s.replications, 2)
                    }))
                }
                2 => {
                    f2 = Some(figure_step(rec, t, "fig.fig2_s", || {
                        fig2::fig2(s.observers, 7)
                    }))
                }
                3 => {
                    f4a = Some(figure_step(rec, t, "fig.fig4a_s", || {
                        fig4a::fig4a(s.k_max, 0.5, 4)
                    }))
                }
                4 => f4bc = Some(figure_step(rec, t, "fig.fig4bc_s", || self.fig4bc(5))),
                _ => {
                    f4d = Some(figure_step(rec, t, "fig.fig4d_s", || {
                        fig4d::fig4d(s.shake_completions, 6)
                    }))
                }
            }
        }
        let (Some(f1a), Some(f1b), Some(f2), Some(f4a), Some(f4bc), Some(f4d)) =
            (f1a, f1b, f2, f4a, f4bc, f4d)
        else {
            unreachable!("the permutation runs every figure once");
        };
        if rec.traced() {
            record_layers(
                rec,
                &Totals::of(&Registry::global()).since(&before),
                None,
                run_s,
                0,
            );
        }
        check_fig1(rec, &f1a, &f1b);
        check_fig2(rec, &f2);
        check_fig4(rec, &f4a, &f4bc, &f4d);
    }

    fn probe(&mut self, rec: &mut Recorder, seed: u64) {
        // The largest figure swarm is the unstable Fig. 4(b) one.
        let peak = Registry::global().counter("swarm.peak_population").get();
        tracker_probe(
            rec,
            peak,
            self.stability_config(3, 5).neighbor_set_size,
            seed,
        );
    }
}

/// Series use NaN for "no sample"; anything else must be finite.
fn finite_or_missing(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite() || v.is_nan()) && values.iter().any(|v| v.is_finite())
}

fn mean_finite(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    finite.iter().sum::<f64>() / finite.len().max(1) as f64
}

fn non_decreasing(values: &[f64]) -> bool {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    finite.windows(2).all(|w| w[1] >= w[0] - 1e-9)
}

fn check_fig1(rec: &mut Recorder, f1a: &[fig1::RatioSeries], f1b: &[fig1::TimelinePair]) {
    let ratios_ok = f1a.iter().all(|(_, r)| {
        finite_or_missing(r)
            && r.iter()
                .filter(|v| v.is_finite())
                .all(|v| (0.0..=1.0 + 1e-9).contains(v))
    });
    rec.check(
        "fig1a values are ratios",
        ratios_ok,
        format_args!("{f1a:?}"),
    );
    // A tiny peer set starves the early pieces: over pieces 1–10 the
    // smallest set's potential ratio stays below the largest set's.
    let early = |(_, r): &fig1::RatioSeries| mean_finite(&r[1..r.len().min(11)]);
    let (smallest, largest) = (early(&f1a[0]), early(&f1a[f1a.len() - 1]));
    rec.check(
        "fig1a small peer set starves early",
        smallest < largest,
        format_args!("{smallest} vs {largest}"),
    );

    let timelines_ok = f1b.iter().all(|p| {
        finite_or_missing(&p.sim)
            && finite_or_missing(&p.model)
            && non_decreasing(&p.sim)
            && non_decreasing(&p.model)
    });
    rec.check(
        "fig1b timelines are finite and monotone",
        timelines_ok,
        format_args!("{f1b:?}"),
    );
    // The larger peer set finishes the file sooner in simulation.
    let finish = |p: &fig1::TimelinePair| {
        p.sim
            .iter()
            .rev()
            .copied()
            .find(|v| v.is_finite())
            .unwrap_or(f64::NAN)
    };
    let (small, large) = (finish(&f1b[0]), finish(&f1b[f1b.len() - 1]));
    rec.check(
        "fig1b larger peer set finishes sooner",
        large < small,
        format_args!("{large} vs {small}"),
    );
}

fn check_fig2(rec: &mut Recorder, f2: &[fig2::Exemplar]) {
    let finite = f2.iter().all(|e| {
        let p = &e.phases;
        [p.bootstrap_secs, p.efficient_secs, p.last_secs]
            .iter()
            .all(|v| v.is_finite())
            && e.trace.samples.iter().all(|s| s.t.is_finite())
    });
    rec.check(
        "fig2 phases are finite",
        finite && f2.len() == 3,
        format_args!("{} exemplars", f2.len()),
    );
    let find = |scenario| {
        f2.iter()
            .find(|e| e.scenario == scenario)
            .map(|e| &e.phases)
    };
    let claim = match (
        find(TraceScenario::Smooth),
        find(TraceScenario::LastPhase),
        find(TraceScenario::BootstrapStall),
    ) {
        (Some(smooth), Some(last), Some(stall)) => {
            stall.bootstrap_fraction() >= smooth.bootstrap_fraction()
                && last.last_fraction() >= smooth.last_fraction()
        }
        _ => false,
    };
    rec.check(
        "fig2 exemplars match their archetypes",
        claim,
        "bootstrap or last-phase fraction out of order",
    );
}

fn check_fig4(
    rec: &mut Recorder,
    f4a: &[fig4a::EfficiencyPoint],
    f4bc: &[StabilityRun],
    f4d: &fig4d::ShakeComparison,
) {
    let in_unit = f4a.iter().all(|p| {
        [p.model, p.simulation, p.protocol_sim]
            .iter()
            .all(|v| (0.0..=1.0).contains(v))
    });
    rec.check(
        "fig4a efficiencies lie in [0, 1]",
        in_unit,
        format_args!("{f4a:?}"),
    );
    let rises = |column: fn(&fig4a::EfficiencyPoint) -> f64| {
        f4a.windows(2).all(|w| column(&w[1]) > column(&w[0]))
    };
    rec.check(
        "fig4a model and simulation rise with k",
        rises(|p| p.model) && rises(|p| p.simulation),
        format_args!("{f4a:?}"),
    );

    let entropies_ok = f4bc
        .iter()
        .all(|r| r.entropy.iter().all(|&(_, e)| (0.0..=1.0).contains(&e)));
    rec.check(
        "fig4c entropies lie in [0, 1]",
        entropies_ok && f4bc.len() == 2,
        "entropy outside [0, 1]",
    );
    let last = |r: &StabilityRun| r.population.last().map_or(0, |&(_, p)| p);
    let (b3, b10) = (last(&f4bc[0]), last(&f4bc[1]));
    rec.check(
        "fig4b B=3 outgrows B=10 tenfold",
        b3 >= 10 * b10,
        format_args!("{b3} vs {b10}"),
    );

    let (normal, shake) = (&f4d.normal, &f4d.shake);
    rec.check(
        "fig4d runs complete and stay finite",
        f4d.completions.0 > 0
            && f4d.completions.1 > 0
            && finite_or_missing(normal)
            && finite_or_missing(shake),
        format_args!("completions {:?}", f4d.completions),
    );
    // Pieces 190–199: the first ten points of the series.
    let (n, s) = (mean_finite(&normal[..10]), mean_finite(&shake[..10]));
    rec.check(
        "fig4d shake beats normal on the last pieces",
        s < n,
        format_args!("shake {s} vs normal {n}"),
    );
}
