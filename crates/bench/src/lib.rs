//! # bt-bench — figure-regeneration harness
//!
//! One module per figure of the paper's evaluation. Each module exposes a
//! pure function that computes the figure's data series (so the results
//! tables, btbench's paper-figures workload, tests, and examples all
//! share one implementation) plus a `write` helper that emits the series
//! as TSV rows — the same rows the paper plots. [`tables::TABLES`] lists
//! every committed `results/` table with its parameters:
//!
//! | Table | Source | Content |
//! | --- | --- | --- |
//! | `fig1a` | Fig. 1(a) | potential/neighbor-set ratio vs pieces, PSS sweep |
//! | `fig1b` | Fig. 1(b) | download timeline, simulation vs model |
//! | `fig2`  | Fig. 2    | per-client traces for the three archetypes |
//! | `fig4a` | Fig. 4(a) | efficiency vs max connections, model vs sim |
//! | `fig4b` | Fig. 4(b) | population vs time, B = 3 vs B = 10 |
//! | `fig4c` | Fig. 4(c) | entropy vs time, B = 3 vs B = 10 |
//! | `fig4d` | Fig. 4(d) | last-blocks download time, normal vs shake |
//! | `ablation_*` | [`ablations`] | seven design-choice ablations |
//! | `model_sensitivity` | §4.3 | exact (s, k) sweep of the download chain |
//! | `transient_phases` | §6 | exact phase occupancy over time |
//!
//! `all_figures DIR` writes them all; `btlab figure --id NAME` prints one.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablations;
pub mod calibrate;
pub mod fig1;
pub mod fig2;
pub mod fig4a;
pub mod fig4bc;
pub mod fig4d;
pub mod tables;

use std::fmt::Display;
use std::io::{self, Write};

/// Installs the environment-driven tracing subscriber (`BT_LOG` selects
/// the mode, `RUST_LOG` the filter) for `all_figures`; diagnostics go
/// to stderr.
///
/// Exits with status 2 on a malformed environment, matching the CLI's
/// usage-error convention.
pub fn init_obs() {
    if let Err(msg) = bt_obs::init_from_env() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
}

/// Writes `cells` as one TSV row.
pub(crate) fn row(w: &mut dyn Write, cells: &[&dyn Display]) -> io::Result<()> {
    for (i, c) in cells.iter().enumerate() {
        let sep = if i == 0 { "" } else { "\t" };
        write!(w, "{sep}{c}")?;
    }
    writeln!(w)
}

/// Formats an `f64` for TSV output (NaN → `-`).
#[must_use]
pub fn cell(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formats() {
        assert_eq!(cell(1.25), "1.2500");
        assert_eq!(cell(f64::NAN), "-");
    }
}
