//! `model-exact`: the exact (fundamental-matrix) analyses of the
//! download chain over a grid of chain sizes, and the absorbing-chain
//! solves behind them. No swarm runs here, so swarm-layer changes must
//! leave this workload flat.

use bt_markov::AbsorbingChain;
use bt_model::exact;
use bt_model::state::DownloadState;
use bt_model::transitions::TransitionKernel;
use bt_model::ModelParams;

use crate::run::{timed, Recorder, Workload};

/// `(pieces B, max connections k)`; the chain has `(k+1)(B+1)(s+1)`
/// states, 930 at B = 30, k = 4, s = 5. A neighbour set of 5 keeps one
/// pass over the grid near four seconds, so that a run repeats it.
const FULL_GRID: [(u32, u32); 6] = [(10, 2), (10, 4), (20, 2), (20, 4), (30, 2), (30, 4)];
const FULL_S: u32 = 5;
const SMOKE_GRID: [(u32, u32); 2] = [(4, 2), (6, 2)];
const SMOKE_S: u32 = 3;

/// `(α, γ)` pairs; the run's seed picks one. The solves cost the same for
/// every pair, so the seed changes the values but not the work.
const RATES: [(f64, f64); 4] = [(0.3, 0.2), (0.3, 0.3), (0.4, 0.2), (0.4, 0.3)];

const OCCUPANCY_STEPS: usize = 200;
/// Steps of the transient occupancy pinned by the reference table.
const PINNED_STEPS: [usize; 5] = [0, 25, 50, 100, 200];

/// Reference values for every grid point and rate pair, written by
/// `btbench --model-reference`.
const REFERENCE: &str = include_str!("../model_reference.tsv");

/// Agreement demanded of two exact results: relative, with an absolute
/// floor for values that are (almost) zero.
fn agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-12
}

pub struct ModelExact {
    grid: &'static [(u32, u32)],
    s: u32,
}

pub fn model_exact(smoke: bool) -> ModelExact {
    if smoke {
        ModelExact {
            grid: &SMOKE_GRID,
            s: SMOKE_S,
        }
    } else {
        ModelExact {
            grid: &FULL_GRID,
            s: FULL_S,
        }
    }
}

fn params(pieces: u32, k: u32, s: u32, (alpha, gamma): (f64, f64)) -> ModelParams {
    ModelParams::builder()
        .pieces(pieces)
        .max_connections(k)
        .neighbor_set_size(s)
        .alpha(alpha)
        .gamma(gamma)
        .build()
        .expect("grid parameters are valid")
}

fn rates(seed: u64) -> (f64, f64) {
    RATES[(seed % RATES.len() as u64) as usize]
}

/// The exact results for one grid point.
struct Solved {
    download_time: f64,
    sojourns: [f64; 3],
    last_phase: f64,
    occupancy: Vec<[f64; 4]>,
}

impl Solved {
    fn solve(p: &ModelParams) -> bt_model::Result<Solved> {
        Ok(Solved {
            download_time: exact::expected_download_time(p)?,
            sojourns: exact::expected_phase_sojourns(p)?,
            last_phase: exact::last_phase_probability(p)?,
            occupancy: exact::transient_phase_occupancy(p, OCCUPANCY_STEPS)?,
        })
    }

    /// The values the reference table records, in column order.
    fn pinned(&self) -> Vec<f64> {
        let mut values = vec![self.download_time];
        values.extend(self.sojourns);
        values.push(self.last_phase);
        for step in PINNED_STEPS {
            values.extend(self.occupancy[step]);
        }
        values
    }
}

/// The reference row of a grid point, if the table has one.
fn reference(key: &[f64; 5]) -> Option<Vec<f64>> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("alpha"))
        .find_map(|line| {
            let cols: Vec<f64> = line
                .split('\t')
                .map(|c| c.parse().unwrap_or(f64::NAN))
                .collect();
            (cols.len() > 5 && cols[..5] == key[..]).then(|| cols[5..].to_vec())
        })
}

/// Prints the reference table for every grid point and rate pair.
pub fn print_reference() {
    println!("# Exact model values pinned by the model-exact workload of btbench.");
    println!("# Regenerate with: btbench --model-reference > btbench/model_reference.tsv");
    let mut header = vec![
        "alpha",
        "gamma",
        "pieces",
        "k",
        "s",
        "download_time",
        "sojourn_bootstrap",
    ];
    header.extend(["sojourn_efficient", "sojourn_last", "p_last"]);
    let occupancy: Vec<String> = PINNED_STEPS
        .iter()
        .flat_map(|t| ["bootstrap", "efficient", "last", "done"].map(|p| format!("occ{t}_{p}")))
        .collect();
    header.extend(occupancy.iter().map(String::as_str));
    println!("{}", header.join("\t"));
    for &(alpha, gamma) in &RATES {
        for (grid, s) in [(&FULL_GRID[..], FULL_S), (&SMOKE_GRID[..], SMOKE_S)] {
            for &(pieces, k) in grid {
                let solved = Solved::solve(&params(pieces, k, s, (alpha, gamma)))
                    .expect("grid points solve");
                let mut row = vec![
                    format!("{alpha:?}"),
                    format!("{gamma:?}"),
                    pieces.to_string(),
                    k.to_string(),
                    s.to_string(),
                ];
                row.extend(solved.pinned().iter().map(|v| format!("{v:?}")));
                println!("{}", row.join("\t"));
            }
        }
    }
}

/// One timed solve of a unit: its own span and step, its time added to
/// `total`.
fn solve_step<T>(
    rec: &mut Recorder,
    name: &str,
    label: &str,
    total: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let key = format!("{name} {label}");
    let span = rec.trace.open(rec.unit_span(), key.as_str());
    let (value, secs) = timed(f);
    rec.trace.close(span);
    rec.step(key, secs);
    *total += secs;
    value
}

impl ModelExact {
    fn check(&self, rec: &mut Recorder, key: [f64; 5], solved: &Solved) {
        let total: f64 = solved.sojourns.iter().sum();
        let label = format!("B={} k={}", key[2], key[3]);
        rec.check(
            "phase sojourns sum to the download time",
            agree(total, solved.download_time),
            format_args!("{label}: {total} vs {}", solved.download_time),
        );
        let distributions = solved.occupancy.iter().all(|row| {
            (row.iter().sum::<f64>() - 1.0).abs() <= 1e-9 && row.iter().all(|&p| p >= -1e-12)
        });
        rec.check("occupancy rows are distributions", distributions, &label);
        let matches = reference(&key).is_some_and(|want| {
            let got = solved.pinned();
            want.len() == got.len() && want.iter().zip(&got).all(|(&w, &g)| agree(w, g))
        });
        rec.check("exact values match the reference table", matches, &label);
    }
}

impl Workload for ModelExact {
    /// Builds the transition kernel and dense matrix of every grid point.
    fn setup(&mut self, rec: &mut Recorder, seed: u64) {
        let all: Vec<ModelParams> = self
            .grid
            .iter()
            .map(|&(b, k)| params(b, k, self.s, rates(seed)))
            .collect();
        let ((), secs) = timed(|| {
            for p in &all {
                let kernel = TransitionKernel::new(p).expect("grid parameters are valid");
                drop(kernel.build_matrix().expect("grid kernels build"));
            }
        });
        rec.setup_done(secs);
    }

    fn unit(&mut self, rec: &mut Recorder, seed: u64) {
        let rates = rates(seed);
        let mut secs = [0.0; 4];
        let mut kernel_s = 0.0;
        for &(pieces, k) in self.grid {
            let p = params(pieces, k, self.s, rates);
            let label = format!("B={pieces} k={k}");
            if rec.traced() {
                let span = rec
                    .trace
                    .open(rec.unit_span(), format!("model.kernel_build {label}"));
                let ((), s) = timed(|| {
                    let kernel = TransitionKernel::new(&p).expect("grid parameters are valid");
                    drop(kernel.build_matrix().expect("grid kernels build"));
                });
                rec.trace.close(span);
                kernel_s += s;
            }
            let t = solve_step(
                rec,
                "model.expected_download_time",
                &label,
                &mut secs[0],
                || exact::expected_download_time(&p),
            );
            let soj = solve_step(rec, "model.phase_sojourns", &label, &mut secs[1], || {
                exact::expected_phase_sojourns(&p)
            });
            let last = solve_step(
                rec,
                "model.last_phase_probability",
                &label,
                &mut secs[2],
                || exact::last_phase_probability(&p),
            );
            let occ = solve_step(
                rec,
                "model.transient_occupancy",
                &label,
                &mut secs[3],
                || exact::transient_phase_occupancy(&p, OCCUPANCY_STEPS),
            );
            match (t, soj, last, occ) {
                (Ok(download_time), Ok(sojourns), Ok(last_phase), Ok(occupancy)) => {
                    let solved = Solved {
                        download_time,
                        sojourns,
                        last_phase,
                        occupancy,
                    };
                    let key = [
                        rates.0,
                        rates.1,
                        f64::from(pieces),
                        f64::from(k),
                        f64::from(self.s),
                    ];
                    self.check(rec, key, &solved);
                }
                failed => rec.check(
                    "exact solves succeed",
                    false,
                    format_args!("{label}: {failed:?}"),
                ),
            }
        }
        rec.layer("model.expected_download_time_s", secs[0]);
        rec.layer("model.phase_sojourns_s", secs[1]);
        rec.layer("model.last_phase_probability_s", secs[2]);
        rec.layer("model.transient_occupancy_s", secs[3]);
        rec.layer("model.kernel_build_s", kernel_s);
    }

    /// Times the absorbing-chain solves of the largest grid point
    /// directly, and checks the inverse against the linear solve.
    fn probe(&mut self, rec: &mut Recorder, seed: u64) {
        let Some(&(pieces, k)) = self.grid.last() else {
            return;
        };
        let p = params(pieces, k, self.s, rates(seed));
        let kernel = TransitionKernel::new(&p).expect("grid parameters are valid");
        let (space, matrix) = kernel.build_matrix().expect("grid kernels build");
        let absorbed = space.index(DownloadState::absorbed(pieces));
        let (chain, secs) = timed(|| AbsorbingChain::new(&matrix, &[absorbed]));
        rec.layer("markov.chain_new_s", secs);
        let chain = chain.expect("the absorbed state is absorbing");
        let (fundamental, secs) = timed(|| chain.fundamental());
        rec.layer("markov.fundamental_s", secs);
        let (steps, secs) = timed(|| chain.expected_steps());
        rec.layer("markov.expected_steps_s", secs);
        rec.layer("markov.states_max", space.len() as f64);
        let start = chain
            .transient_states()
            .iter()
            .position(|&s| s == space.index(DownloadState::INITIAL));
        let consistent = match (fundamental, steps, start) {
            (Ok(n), Ok(steps), Some(start)) => agree(n.row(start).iter().sum(), steps[start]),
            _ => false,
        };
        rec.check(
            "fundamental-matrix row sum equals the expected steps",
            consistent,
            format_args!("B={pieces} k={k}"),
        );
    }
}
