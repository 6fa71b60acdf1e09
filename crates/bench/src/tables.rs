//! Every committed `results/` table, in one ordered list.
//!
//! Each [`Table`] pairs a file name under `results/` with the one
//! function that writes that TSV at its canonical parameters; the
//! parameters appear nowhere else. `all_figures DIR` writes every
//! `DIR/<name>.tsv`, and `btlab figure --id NAME` prints one entry.

use std::io::{self, Write};

use bt_model::exact::transient_phase_occupancy;
use bt_model::ModelParams;

use crate::fig4bc::StabilityRun;
use crate::{ablations, cell, fig1, fig2, fig4a, fig4bc, fig4d, row};

/// Computes one table and writes it as TSV.
pub type Writer = fn(&mut Runs, &mut dyn Write) -> io::Result<()>;

/// One committed table.
#[derive(Debug)]
pub struct Table {
    /// File stem under `results/`, and the id `btlab figure --id` takes.
    pub name: &'static str,
    /// Writes the table, reusing any series in [`Runs`].
    pub write: Writer,
}

const fn table(name: &'static str, write: Writer) -> Table {
    Table { name, write }
}

/// Series that two tables plot, computed by the first one written; one
/// `Runs` passed through a whole pass over [`TABLES`] computes each once.
#[derive(Debug, Default)]
pub struct Runs {
    fig4bc: Option<Vec<StabilityRun>>,
}

impl Runs {
    fn fig4bc(&mut self) -> &[StabilityRun] {
        self.fig4bc.get_or_insert_with(|| fig4bc::fig4bc(5))
    }
}

/// The paper's figures, then the ablations, then the exact-model sweeps.
pub const TABLES: &[Table] = &[
    table("fig1a", |_, w| fig1::write_fig1a(w, &fig1::fig1a(120, 1))),
    table("fig1b", |_, w| {
        fig1::write_fig1b(w, &fig1::fig1b(120, 400, 2))
    }),
    table("fig2", |_, w| fig2::write_fig2(w, &fig2::fig2(10, 7))),
    table("fig4a", |_, w| {
        fig4a::write_fig4a(w, &fig4a::fig4a(8, 0.5, 4))
    }),
    table("fig4b", |runs, w| fig4bc::write_fig4b(w, runs.fig4bc())),
    table("fig4c", |runs, w| fig4bc::write_fig4c(w, runs.fig4bc())),
    table("fig4d", |_, w| fig4d::write_fig4d(w, &fig4d::fig4d(60, 6))),
    table("ablation_alpha_gamma", ablation_alpha_gamma),
    table("ablation_bootstrap_relief", ablation_bootstrap_relief),
    table("ablation_extensions", ablation_extensions),
    table("ablation_piece_selection", ablation_piece_selection),
    table("ablation_seeding", ablation_seeding),
    table("ablation_shake_threshold", ablation_shake_threshold),
    table("ablation_stability_boundary", ablation_stability_boundary),
    table("model_sensitivity", model_sensitivity),
    table("transient_phases", transient_phases),
];

/// The table named `name`, if the list has one.
#[must_use]
pub fn find(name: &str) -> Option<&'static Table> {
    TABLES.iter().find(|t| t.name == name)
}

/// Bootstrap and last-phase sojourns against the 1/α and 1/γ laws.
fn ablation_alpha_gamma(_: &mut Runs, w: &mut dyn Write) -> io::Result<()> {
    let sweep = [0.1, 0.2, 0.3, 0.5, 0.8];
    writeln!(w, "alpha\tmeasured_bootstrap_steps\texpected")?;
    for r in ablations::alpha_sojourns(&sweep, 2_000, 1) {
        row(w, &[&r.value, &cell(r.measured), &cell(r.expected)])?;
    }
    writeln!(w, "\ngamma\tmeasured_last_phase_steps_per_piece\texpected")?;
    for r in ablations::gamma_sojourns(&sweep, 2_000, 1) {
        row(w, &[&r.value, &cell(r.measured), &cell(r.expected)])?;
    }
    Ok(())
}

/// §4.3 tracker bootstrap-relief bias.
fn ablation_bootstrap_relief(_: &mut Runs, w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "relief\tmean_bootstrap_rounds\tcompletions")?;
    for r in ablations::bootstrap_relief(8) {
        let mean = cell(r.mean_bootstrap_rounds);
        row(w, &[&r.relief, &mean, &r.completions])?;
    }
    Ok(())
}

/// The extension features: block granularity and heterogeneous bandwidth.
fn ablation_extensions(_: &mut Runs, w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "== block granularity (§2.1 blocks per piece) ==")?;
    writeln!(w, "blocks\tmean_rounds\tnormalized")?;
    for r in ablations::block_granularity(&[1, 2, 4, 8, 16], 3) {
        let (mean, normalized) = (cell(r.mean_rounds), cell(r.normalized_rounds));
        row(w, &[&r.blocks, &mean, &normalized])?;
    }
    writeln!(w, "\n== heterogeneous bandwidth (strict tit-for-tat) ==")?;
    writeln!(w, "slow_fraction\tfast_mean_rounds\tslow_mean_rounds")?;
    for r in ablations::heterogeneous_bandwidth(&[0.0, 0.2, 0.4, 0.6], 5) {
        let (fast, slow) = (cell(r.fast_mean), cell(r.slow_mean));
        row(w, &[&r.slow_fraction, &fast, &slow])?;
    }
    Ok(())
}

/// Rarest-first vs random-first piece selection.
fn ablation_piece_selection(_: &mut Runs, w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "strategy\tmean_entropy\tmean_download_rounds")?;
    for r in ablations::piece_selection(1) {
        let strategy = format!("{:?}", r.strategy);
        let (entropy, rounds) = (cell(r.mean_entropy), cell(r.mean_download_rounds));
        row(w, &[&strategy, &entropy, &rounds])?;
    }
    Ok(())
}

/// Origin-seed capacity vs last-phase severity (§7.2).
fn ablation_seeding(_: &mut Runs, w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "seed_uploads_per_round\ttail_ttd\tcompletions")?;
    for r in ablations::seeding(&[0, 1, 2, 4, 8], 9) {
        row(w, &[&r.uploads, &cell(r.tail_ttd), &r.completions])?;
    }
    Ok(())
}

/// Shake trigger fraction sweep (§7.1); the NaN threshold is the
/// no-shake baseline.
fn ablation_shake_threshold(_: &mut Runs, w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "threshold\ttail_ttd")?;
    for r in ablations::shake_threshold(&[0.8, 0.85, 0.9, 0.95, 0.98], 50, 6) {
        let label = if r.threshold.is_nan() {
            "no-shake".to_string()
        } else {
            r.threshold.to_string()
        };
        row(w, &[&label, &cell(r.tail_ttd)])?;
    }
    Ok(())
}

/// The §6 stability boundary as a (B, λ) phase diagram.
fn ablation_stability_boundary(_: &mut Runs, w: &mut dyn Write) -> io::Result<()> {
    let (piece_counts, rates) = ([2, 3, 5, 8, 12, 20], [2.0, 5.0, 10.0, 20.0, 40.0]);
    writeln!(w, "pieces\tlambda\tgrowth\ttail_entropy\tstable")?;
    for r in ablations::stability_boundary(&piece_counts, &rates, 250, 5) {
        let (growth, entropy) = (cell(r.growth), cell(r.tail_entropy));
        row(
            w,
            &[&r.pieces, &r.arrival_rate, &growth, &entropy, &r.stable],
        )?;
    }
    Ok(())
}

/// Exact design-space sweep of the download model over (s, k).
fn model_sensitivity(_: &mut Runs, w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "s\tk\texpected_time\tlast_phase_prob\tlast_phase_steps")?;
    for r in ablations::model_sensitivity(&[1, 2, 3, 4, 6, 8], &[1, 2, 3, 4]) {
        let (time, prob) = (cell(r.expected_time), cell(r.last_phase_prob));
        row(w, &[&r.s, &r.k, &time, &prob, &cell(r.last_phase_steps)])?;
    }
    Ok(())
}

/// Transient phase occupancy of the download chain over time — the
/// exact time-dependent view the paper's §6 defers to future work.
fn transient_phases(_: &mut Runs, w: &mut dyn Write) -> io::Result<()> {
    for s in [2u32, 6] {
        let params = ModelParams::builder()
            .pieces(10)
            .max_connections(3)
            .neighbor_set_size(s)
            .alpha(0.3)
            .gamma(0.2)
            .build()
            .expect("valid params");
        let rows = transient_phase_occupancy(&params, 60).expect("analyzable");
        writeln!(w, "# s = {s}\nstep\tbootstrap\tefficient\tlast\tdone")?;
        for (t, p) in rows.iter().enumerate().step_by(2) {
            row(w, &[&t, &cell(p[0]), &cell(p[1]), &cell(p[2]), &cell(p[3])])?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `results/` holds exactly one file per entry: a table without an
    /// entry goes stale unseen, an entry without a file is never checked.
    #[test]
    fn list_matches_the_committed_tables_one_to_one() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut files: Vec<String> = std::fs::read_dir(results)
            .expect("results/ is readable")
            .filter_map(|e| e.expect("directory entry").file_name().into_string().ok())
            .filter_map(|f| f.strip_suffix(".tsv").map(str::to_string))
            .collect();
        files.sort();
        let mut names: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TABLES.len(), "entry names are unique");
        assert_eq!(files, names, "results/*.tsv against the table list");
    }
}
