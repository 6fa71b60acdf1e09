//! Fig. 4(d) — the last-piece problem: per-piece download time for the
//! final pieces, normal BitTorrent vs peer-set shaking (§7.1).

use std::io::{self, Write};

use bt_swarm::{scenario, Swarm};

use crate::{cell, par_map, row};

/// First acquisition index reported (the paper plots 190–200 of 200).
pub const FIRST_INDEX: usize = 190;
/// Number of pieces in the Fig. 4(d) file.
pub const PIECES: usize = 200;

/// The figure's two series.
#[derive(Debug, Clone, PartialEq)]
pub struct ShakeComparison {
    /// Mean rounds spent waiting for the `j`-th piece, normal protocol
    /// (indices `FIRST_INDEX..=PIECES`, in order).
    pub normal: Vec<f64>,
    /// Same with peer-set shaking at 90%.
    pub shake: Vec<f64>,
    /// Completions observed per arm.
    pub completions: (u64, u64),
}

/// Runs both arms of the experiment.
///
/// # Panics
///
/// Panics only on internal scenario bugs.
#[must_use]
pub fn fig4d(completions: u64, seed: u64) -> ShakeComparison {
    let arms = par_map(&[false, true], |&shake| {
        let config =
            scenario::shake_study(shake, completions, seed).expect("scenario preset is valid");
        let metrics = Swarm::new(config).run();
        let gaps = metrics.completions.mean_inter_piece_times();
        let series: Vec<f64> = (FIRST_INDEX..=PIECES).map(|j| gaps[j]).collect();
        (series, metrics.completions.count())
    });
    let [(normal, n_normal), (shake, n_shake)]: [_; 2] =
        arms.try_into().expect("one result per arm");
    ShakeComparison {
        normal,
        shake,
        completions: (n_normal, n_shake),
    }
}

/// Mean time-to-download over the reported tail (ignores NaN entries).
#[must_use]
pub fn tail_mean(series: &[f64]) -> f64 {
    let finite: Vec<f64> = series.iter().copied().filter(|v| !v.is_nan()).collect();
    if finite.is_empty() {
        f64::NAN
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

/// Writes the comparison as TSV: `piece_index  normal  shake`.
pub fn write_fig4d(mut w: impl Write, cmp: &ShakeComparison) -> io::Result<()> {
    let (normal, shake) = cmp.completions;
    writeln!(w, "# completions: normal={normal} shake={shake}")?;
    writeln!(w, "piece_index\tnormal\tshake")?;
    for (offset, (&n, &s)) in cmp.normal.iter().zip(&cmp.shake).enumerate() {
        row(&mut w, &[&(FIRST_INDEX + offset), &cell(n), &cell(s)])?;
    }
    let (normal, shake) = (tail_mean(&cmp.normal), tail_mean(&cmp.shake));
    let (normal, shake) = (cell(normal), cell(shake));
    writeln!(w, "# tail means: normal={normal} shake={shake}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_mean_ignores_nan() {
        assert!((tail_mean(&[1.0, f64::NAN, 3.0]) - 2.0).abs() < 1e-12);
        assert!(tail_mean(&[f64::NAN]).is_nan());
        assert!(tail_mean(&[]).is_nan());
    }
}
