//! `btbench`: the repository's benchmark — swarm throughput, paper
//! regeneration and exact model solves, end to end and layer by layer.
//! See README.md for the workloads, the metric catalog and how to read
//! a comparison.

mod catalog;
mod figures;
mod model;
mod run;
mod stats;
mod swarm;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{Recorder, Settings, Workload};
use crate::stats::{median, quartiles, spread, verdict, Verdict};

const USAGE: &str = "\
usage:
  btbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
      run one workload in this process; the last line of stdout is its JSON result
  btbench [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--out DIR] [--smoke]
      run every workload, each in a process of its own, N times with seeds
      N, N+1, ...; print the median, q1, q3 and n of every metric and write
      DIR/results.json
  btbench --compare PARENT.json CHANGE.json
      apply each end-to-end metric's bound to two results.json files
  btbench --model-reference
      print the reference table of the model-exact workload
workloads: lifecycle-5k join-20k churn-3k paper-figures model-exact
defaults: --seed 7 --seconds 15 --trace 0 --repeat 1 --out .btbench-out";

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    out: PathBuf,
    smoke: bool,
}

#[derive(Debug)]
enum Mode {
    Run(Options),
    Compare(PathBuf, PathBuf),
    ModelReference,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut options = Options {
        workload: None,
        seed: 7,
        seconds: 15.0,
        trace: false,
        repeat: 1,
        out: PathBuf::from(".btbench-out"),
        smoke: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                options.workload = Some(name.clone());
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                options.seconds = seconds;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                options.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if options.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => options.out = PathBuf::from(value()?),
            "--smoke" => options.smoke = true,
            "--compare" => {
                let parent = PathBuf::from(value()?);
                let change = PathBuf::from(value()?);
                return Ok(Mode::Compare(parent, change));
            }
            "--model-reference" => return Ok(Mode::ModelReference),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Mode::Run(options))
}

fn workload(name: &str, smoke: bool) -> Box<dyn Workload> {
    match name {
        "lifecycle-5k" => Box::new(swarm::lifecycle(smoke)),
        "join-20k" => Box::new(swarm::join(smoke)),
        "churn-3k" => Box::new(swarm::churn(smoke)),
        "paper-figures" => Box::new(figures::figures(smoke)),
        "model-exact" => Box::new(model::model_exact(smoke)),
        other => unreachable!("workload {other} was validated while parsing"),
    }
}

/// Runs one workload in this process and prints its result line last.
fn run_one(options: &Options, name: &str) -> std::io::Result<()> {
    let dir = options.out.join(name);
    std::fs::create_dir_all(&dir)?;
    let settings = Settings {
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
    };
    let mut rec = Recorder::new(dir.clone());
    let outcome = run::measure(
        workload(name, options.smoke).as_mut(),
        name,
        &settings,
        &mut rec,
    );
    if options.trace {
        let file = std::io::BufWriter::new(std::fs::File::create(dir.join("trace.jsonl"))?);
        rec.trace.write_jsonl(name, file)?;
    }
    for (metric, value, unit) in &outcome.metrics {
        println!("{name} {metric} = {value} {unit}");
    }
    println!("{}", outcome.to_json());
    Ok(())
}

/// Runs every workload `repeat` times, each run in a child process so
/// that peak memory is the workload's own.
fn run_suite(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    std::fs::create_dir_all(&options.out).map_err(|e| format!("{}: {e}", options.out.display()))?;
    let mut all_ok = true;
    let mut results = Vec::new();
    for name in WORKLOADS {
        let mut runs = Vec::new();
        for rep in 0..options.repeat {
            let seed = options.seed.wrapping_add(rep);
            let mut child = Command::new(&exe);
            child.args([
                "--workload",
                name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &options.seconds.to_string(),
            ]);
            child.args(["--trace", if options.trace { "1" } else { "0" }]);
            child.arg("--out").arg(&options.out);
            if options.smoke {
                child.arg("--smoke");
            }
            let output = child
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let parsed = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str::<Value>(l).ok());
            match parsed {
                Some(run) if output.status.success() => {
                    all_ok &= run.get("correct").and_then(Value::as_bool) == Some(true);
                    runs.push(run);
                }
                _ => {
                    eprintln!("{name} seed {seed}: run failed ({})", output.status);
                    all_ok = false;
                }
            }
        }
        print_summary(name, &runs, options.trace);
        results.push((name.to_string(), Value::Array(runs)));
    }
    let document = Value::Object(vec![
        ("seconds".into(), Value::Float(options.seconds)),
        ("trace".into(), Value::Bool(options.trace)),
        ("workloads".into(), Value::Object(results)),
    ]);
    let path = options.out.join("results.json");
    let text = serde_json::to_string_pretty(&document).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(all_ok)
}

/// The values of one metric across runs.
fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn count(runs: &[Value], key: &str) -> u64 {
    runs.iter().filter_map(|r| r.get(key)?.as_u64()).sum()
}

fn print_summary(name: &str, runs: &[Value], trace: bool) {
    println!(
        "== {name}: {} runs, {} checks, {} failed",
        runs.len(),
        count(runs, "attempted"),
        count(runs, "failed")
    );
    println!(
        "{:<40} {:>14} {:>14} {:>14} {:>4} {:>8}  unit",
        "metric", "median", "q1", "q3", "n", "spread"
    );
    let catalog = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for metric in catalog {
        let v = values(runs, metric.name);
        let (q1, q3) = quartiles(&v);
        println!(
            "{:<40} {:>14.6} {:>14.6} {:>14.6} {:>4} {:>7.2}%  {}",
            metric.name,
            median(&v),
            q1,
            q3,
            v.len(),
            spread(&v) * 100.0,
            metric.unit
        );
    }
}

/// Each workload's runs, by workload name.
type Runs = Vec<(String, Vec<Value>)>;

/// The window and runs of a `results.json`, which must come from an
/// untraced suite with the given window.
fn load(path: &Path, seconds: Option<f64>) -> Result<(f64, Runs), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let document: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if document.get("trace").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{}: not an untraced run", path.display()));
    }
    let window = document
        .get("seconds")
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    if seconds.is_some_and(|s| s != window) {
        return Err(format!(
            "{}: runs of {window} s, not {seconds:?} s",
            path.display()
        ));
    }
    let workloads = document
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{}: no workloads object", path.display()))?;
    let runs = workloads
        .iter()
        .map(|(name, runs)| (name.clone(), runs.as_array().unwrap_or_default().to_vec()))
        .collect();
    Ok((window, runs))
}

/// Compares a change's runs with its parent's, workload by workload.
/// Returns whether nothing regressed.
fn compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let (seconds, parent) = load(parent, None)?;
    let (_, change) = load(change, Some(seconds))?;
    let mut ok = true;
    println!(
        "{:<14} {:<13} {:>12} {:>12} {:>8} {:>8}  verdict",
        "workload", "metric", "parent", "change", "delta", "spread"
    );
    for (name, before) in &parent {
        let Some((_, after)) = change.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for metric in &END_TO_END {
            let (a, b) = (values(before, metric.name), values(after, metric.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let result = verdict(metric, &a, &b);
            ok &= result != Verdict::Worse;
            let delta = (median(&b) / median(&a) - 1.0) * 100.0;
            println!(
                "{name:<14} {:<13} {:>12.6} {:>12.6} {delta:>7.2}% {:>7.2}%  {}",
                metric.name,
                median(&a),
                median(&b),
                spread(&a) * 100.0,
                result.as_str()
            );
        }
        let (failed_before, failed_after) = (count(before, "failed"), count(after, "failed"));
        if failed_after > failed_before {
            println!("{name:<14} failed checks rose from {failed_before} to {failed_after}");
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&args) {
        Ok(mode) => mode,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::ModelReference => {
            model::print_reference();
            Ok(true)
        }
        Mode::Compare(parent, change) => compare(&parent, &change),
        Mode::Run(options) => match &options.workload {
            Some(name) => run_one(&options, name)
                .map(|()| true)
                .map_err(|e| e.to_string()),
            None => run_suite(&options),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_single_workload_command_line() {
        let Ok(Mode::Run(o)) = parse(&args("--workload churn-3k --seed 3 --seconds 10 --trace 1"))
        else {
            panic!("single-workload arguments must parse");
        };
        assert_eq!(o.workload.as_deref(), Some("churn-3k"));
        assert_eq!((o.seed, o.seconds, o.trace), (3, 10.0, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(matches!(
            parse(&args("--compare a.json b.json")),
            Ok(Mode::Compare(..))
        ));
    }

    /// Runs every workload at tiny sizes, untraced then traced, and
    /// checks that every declared metric is emitted with a usable value:
    /// every end-to-end metric positive on every workload, and every
    /// per-layer metric recorded (non-zero) by at least one workload.
    #[test]
    fn smoke_pass_emits_every_declared_metric() {
        let out = std::env::temp_dir().join(format!("btbench-smoke-{}", std::process::id()));
        let mut layer_seen = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            for trace in [false, true] {
                let settings = Settings {
                    seed: 7,
                    seconds: 0.01,
                    trace,
                };
                let mut rec = Recorder::new(out.join(name));
                std::fs::create_dir_all(out.join(name)).expect("output directory");
                let outcome =
                    run::measure(workload(name, true).as_mut(), name, &settings, &mut rec);
                let catalog = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
                let declared: Vec<&str> = catalog.iter().map(|m| m.name).collect();
                assert_eq!(emitted, declared, "{name}");
                assert!(outcome.attempted > 0, "{name} ran no checks");
                for &(metric, value, _) in &outcome.metrics {
                    assert!(value.is_finite(), "{name} {metric} = {value}");
                    if trace {
                        if value != 0.0 {
                            layer_seen.insert(metric);
                        }
                    } else {
                        assert!(value > 0.0, "{name} {metric} = {value}");
                    }
                }
                let line: Value =
                    serde_json::from_str(&outcome.to_json()).expect("result line is JSON");
                assert_eq!(line.as_object().map(|o| o.len()), Some(4));
            }
        }
        std::fs::remove_dir_all(&out).expect("clean up");
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| !layer_seen.contains(n))
            .collect();
        assert!(missing.is_empty(), "never recorded: {missing:?}");
    }
}
