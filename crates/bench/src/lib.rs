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
//!
//! The figure and sweep functions run their independent, separately
//! seeded swarms through [`par_map`], so their output is the same at any
//! worker count.

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
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

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

/// Applies `job` to every item on up to
/// [`std::thread::available_parallelism`] threads and returns the results
/// in input order.
///
/// The calling thread runs jobs itself, beside `workers − 1` scoped
/// helpers; every thread takes the next unclaimed item until none is
/// left. A job that panics makes `par_map` panic with the job's own
/// payload once every thread has stopped. Each job must own its seeds,
/// so that the results do not depend on which thread ran which item.
pub fn par_map<T: Sync, R: Send>(items: &[T], job: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    par_map_on(workers, items, job)
}

/// [`par_map`] on exactly `workers` threads (fewer if there are fewer
/// items); one worker maps in order on the calling thread.
fn par_map_on<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    job: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let helpers = workers.min(items.len()).saturating_sub(1);
    if helpers == 0 {
        return items.iter().map(job).collect();
    }
    // The index only hands out items; results reach the caller through
    // `join`, which synchronizes, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, job(item)));
        }
    };
    let mut done: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in handles {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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

    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn cell_formats() {
        assert_eq!(cell(1.25), "1.2500");
        assert_eq!(cell(f64::NAN), "-");
    }

    #[test]
    fn par_map_keeps_input_order_with_more_items_than_workers() {
        let items: Vec<u64> = (0..64).collect();
        for workers in [1, 2, 3, 8] {
            // Uneven job lengths, so threads finish out of order.
            let out = par_map_on(workers, &items, |&x| {
                (0..(x % 7) * 1000).fold(x, |a, b| a ^ b)
            });
            let expected: Vec<u64> = items
                .iter()
                .map(|&x| (0..(x % 7) * 1000).fold(x, |a, b| a ^ b))
                .collect();
            assert_eq!(out, expected, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single_inputs() {
        assert!(par_map_on(4, &[] as &[u32], |&x| x).is_empty());
        assert_eq!(par_map_on(4, &[7], |&x| x * 2), vec![14]);
        assert_eq!(par_map(&[3, 4], |&x| x + 1), vec![4, 5]);
    }

    #[test]
    fn par_map_runs_jobs_on_helper_threads() {
        // Both jobs wait for each other, so they must run at once.
        let barrier = Barrier::new(2);
        let out = par_map_on(2, &[0, 1], |&x| {
            barrier.wait();
            x
        });
        assert_eq!(out, vec![0, 1]);
    }

    /// The message of the panic `f` raised.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("the job panicked");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast::<&str>()
                .map(|s| (*s).to_string())
                .expect("a string payload"),
        }
    }

    #[test]
    fn par_map_resumes_a_job_panic_with_its_payload() {
        // Which thread panics is forced: the barrier holds both jobs until
        // each runs on its own thread.
        for on_helper in [false, true] {
            let caller = thread::current().id();
            let barrier = Barrier::new(2);
            let msg = panic_message(|| {
                par_map_on(2, &[0, 1], |&x: &u32| {
                    barrier.wait();
                    let helper = thread::current().id() != caller;
                    assert!(helper != on_helper, "job failed on helper={helper}");
                    x
                });
            });
            assert_eq!(msg, format!("job failed on helper={on_helper}"));
        }
        let msg = panic_message(|| {
            par_map_on(1, &[0, 1], |&x: &u32| {
                assert!(x == 0, "serial job {x} failed")
            });
        });
        assert_eq!(msg, "serial job 1 failed");
    }
}
