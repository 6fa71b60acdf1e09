//! # bt-bench — figure-regeneration harness
//!
//! One module per figure of the paper's evaluation. Each module exposes a
//! pure function that computes the figure's data series (so the
//! printing binaries, btbench's paper-figures workload, tests, and
//! examples all share one implementation) plus a `print` helper that emits the series as TSV rows
//! — the same rows the paper plots.
//!
//! | Binary | Paper figure | Content |
//! | --- | --- | --- |
//! | `fig1a` | Fig. 1(a) | potential/neighbor-set ratio vs pieces, PSS sweep |
//! | `fig1b` | Fig. 1(b) | download timeline, simulation vs model |
//! | `fig2`  | Fig. 2    | per-client traces for the three archetypes |
//! | `fig4a` | Fig. 4(a) | efficiency vs max connections, model vs sim |
//! | `fig4b` | Fig. 4(b) | population vs time, B = 3 vs B = 10 |
//! | `fig4c` | Fig. 4(c) | entropy vs time, B = 3 vs B = 10 |
//! | `fig4d` | Fig. 4(d) | last-blocks download time, normal vs shake |
//!
//! Run all of them with `cargo run --release -p bt-bench --bin all_figures`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablations;
pub mod calibrate;
pub mod fig1;
pub mod fig2;
pub mod fig4a;
pub mod fig4bc;
pub mod fig4d;

/// Installs the environment-driven tracing subscriber (`BT_LOG` selects
/// the mode, `RUST_LOG` the filter) for a figure binary. The TSV data
/// itself always goes to stdout; diagnostics go to stderr.
///
/// Exits with status 2 on a malformed environment, matching the CLI's
/// usage-error convention.
pub fn init_obs() {
    if let Err(msg) = bt_obs::init_from_env() {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
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
