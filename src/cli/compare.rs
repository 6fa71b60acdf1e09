//! `btlab compare`: two run manifests stage by stage, and the observer
//! and memory budgets.

use std::collections::BTreeMap;
use std::path::Path;

use super::{num, read_error, CliError, Command};

/// Arguments of `btlab compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Baseline run manifest.
    pub baseline: String,
    /// Candidate run manifest.
    pub candidate: String,
    /// Allowed relative regression before the command fails (0.1 = 10%).
    pub tolerance: f64,
    /// Observer-overhead budget in percent of wall time: fail (exit 1)
    /// when the candidate manifest's `obs_share` exceeds it. With this
    /// flag, a single positional path gates that manifest alone.
    pub obs_budget: Option<f64>,
    /// Peak-RSS headroom budget in percent over the baseline manifest's
    /// `peak_rss_bytes`: fail (exit 1) when the candidate's peak RSS
    /// grows beyond it. Needs both positionals — memory is judged
    /// relative to a baseline, never absolutely.
    pub mem_budget: Option<f64>,
}

pub(super) fn parse_compare(
    positionals: &[String],
    flags: &BTreeMap<String, String>,
) -> Result<Command, String> {
    let mut tolerance = 0.10f64;
    let mut obs_budget = None;
    let mut mem_budget = None;
    for (key, value) in flags {
        match key.as_str() {
            "tolerance" => tolerance = num(key, value)?,
            "obs-budget" => obs_budget = Some(num(key, value)?),
            "mem-budget" => mem_budget = Some(num(key, value)?),
            _ => return Err(format!("unknown flag --{key} for compare")),
        }
    }
    if tolerance < 0.0 {
        return Err(format!("--tolerance must be >= 0, got {tolerance}"));
    }
    for (key, budget) in [("obs-budget", obs_budget), ("mem-budget", mem_budget)] {
        if let Some(pct) = budget.filter(|pct| !(0.0..=100.0).contains(pct)) {
            return Err(format!("--{key} is a percentage (0..=100), got {pct}"));
        }
    }
    // With --obs-budget, a single manifest path gates observer overhead
    // alone (baseline == candidate, no regression comparison). The
    // memory gate has no such mode: peak RSS is only meaningful
    // relative to a baseline.
    let (baseline, candidate) = match positionals {
        [_] if mem_budget.is_some() => {
            return Err(
                "--mem-budget compares peak RSS against a baseline; pass BASELINE and \
                 CANDIDATE paths"
                    .to_string(),
            )
        }
        [manifest] if obs_budget.is_some() => (manifest.clone(), manifest.clone()),
        [baseline, candidate] => (baseline.clone(), candidate.clone()),
        other => {
            return Err(format!(
                "compare takes BASELINE and CANDIDATE paths (or one manifest with \
                 --obs-budget), got {} positional argument(s)",
                other.len()
            ))
        }
    };
    Ok(Command::Compare(CompareArgs {
        baseline,
        candidate,
        tolerance,
        obs_budget,
        mem_budget,
    }))
}

/// Loads a run manifest for `btlab compare`. A missing or malformed
/// document — a profile report included — and a schema-version
/// mismatch map to [`CliError::Invalid`] (exit 2), so CI can tell "the
/// candidate regressed" (exit 1) apart from "the inputs were garbage".
fn load_manifest(path: &str) -> Result<bt_obs::RunManifest, CliError> {
    let manifest: bt_obs::RunManifest =
        bt_obs::records::read_doc(Path::new(path)).map_err(|e| {
            match read_error("manifest", e) {
                CliError::Invalid(message) => CliError::Invalid(format!(
                    "{message}; compare reads run manifests such as manifest-swarm.json \
                 (summarize a profile.json with `btlab profile`)"
                )),
                failure => failure,
            }
        })?;
    if manifest.schema_version != bt_obs::MANIFEST_SCHEMA_VERSION {
        return Err(CliError::Invalid(format!(
            "{path}: manifest schema_version {} does not match the supported version {}",
            manifest.schema_version,
            bt_obs::MANIFEST_SCHEMA_VERSION
        )));
    }
    Ok(manifest)
}

/// A manifest's per-stage wall seconds: its `round.<stage>` timers.
fn stage_secs(manifest: &bt_obs::RunManifest) -> Vec<(&str, f64)> {
    manifest
        .phase_secs
        .iter()
        .filter_map(|(name, secs)| name.strip_prefix("round.").map(|stage| (stage, *secs)))
        .collect()
}

/// A manifest's rounds per wall second, when it ran any rounds.
fn rounds_per_sec(manifest: &bt_obs::RunManifest) -> Option<f64> {
    manifest.counter("swarm.rounds").and_then(|rounds| {
        (rounds > 0 && manifest.wall_clock_secs > 0.0)
            .then(|| rounds as f64 / manifest.wall_clock_secs)
    })
}

/// Baseline stage times below this floor are noise; they never flag a
/// regression no matter the relative delta.
const COMPARE_MIN_STAGE_SECS: f64 = 1e-6;

/// Executes `btlab compare`: prints a stage-by-stage delta table and
/// fails when the candidate regresses beyond the tolerance (exit 1) or
/// either input is malformed (exit 2).
pub(super) fn run_compare<W: std::io::Write>(a: &CompareArgs, out: &mut W) -> Result<(), CliError> {
    // Gate-only mode: one manifest, no baseline to diff against.
    if a.baseline == a.candidate && a.obs_budget.is_some() {
        let candidate = load_manifest(&a.candidate)?;
        return check_obs_budget(a, &candidate, out);
    }
    let baseline = load_manifest(&a.baseline)?;
    let candidate = load_manifest(&a.candidate)?;
    // Timing deltas between runs at different worker-thread counts
    // measure the parallelism knob, not a code change; refuse the
    // mismatch as bad input rather than reporting a bogus verdict.
    // Manifests written before the field existed record 0: serial runs.
    let (b, c) = (baseline.threads.max(1), candidate.threads.max(1));
    if b != c {
        return Err(CliError::Invalid(format!(
            "thread-count mismatch: baseline {} ran with threads={b}, candidate {} with \
             threads={c}; rerun one side so the counts match",
            a.baseline, a.candidate
        )));
    }
    writeln!(
        out,
        "comparing baseline {} vs candidate {} (tolerance {:.1}%)",
        a.baseline,
        a.candidate,
        a.tolerance * 100.0
    )?;
    writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>9} verdict",
        "stage", "baseline_s", "candidate_s", "delta"
    )?;

    let (baseline_stages, candidate_stages) = (stage_secs(&baseline), stage_secs(&candidate));
    let mut names: Vec<&str> = baseline_stages.iter().map(|(n, _)| *n).collect();
    for (n, _) in &candidate_stages {
        if !names.contains(n) {
            names.push(n);
        }
    }
    let lookup = |stages: &[(&str, f64)], name: &str| -> Option<f64> {
        stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, secs)| *secs)
    };
    let mut regressions: Vec<String> = Vec::new();
    for name in &names {
        match (
            lookup(&baseline_stages, name),
            lookup(&candidate_stages, name),
        ) {
            (Some(b), Some(c)) => {
                let delta_pct = if b > 0.0 { (c - b) / b * 100.0 } else { 0.0 };
                let regressed = b >= COMPARE_MIN_STAGE_SECS && c > b * (1.0 + a.tolerance);
                let verdict = if regressed { "REGRESSED" } else { "ok" };
                writeln!(
                    out,
                    "{name:<16} {b:>12.6} {c:>12.6} {delta_pct:>+8.1}% {verdict}"
                )?;
                if regressed {
                    regressions.push(format!(
                        "stage {name}: {b:.6}s -> {c:.6}s ({delta_pct:+.1}%)"
                    ));
                }
            }
            (Some(b), None) => {
                writeln!(out, "{name:<16} {b:>12.6} {:>12} {:>9} ok", "-", "-")?;
            }
            (None, Some(c)) => {
                writeln!(out, "{name:<16} {:>12} {c:>12.6} {:>9} ok", "-", "-")?;
            }
            (None, None) => {}
        }
    }
    if let (Some(b), Some(c)) = (rounds_per_sec(&baseline), rounds_per_sec(&candidate)) {
        let delta_pct = (c - b) / b * 100.0;
        let regressed = c < b * (1.0 - a.tolerance);
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        writeln!(
            out,
            "{:<16} {b:>12.1} {c:>12.1} {delta_pct:>+8.1}% {verdict}",
            "rounds_per_sec"
        )?;
        if regressed {
            regressions.push(format!(
                "rounds_per_sec: {b:.1} -> {c:.1} ({delta_pct:+.1}%)"
            ));
        }
    }

    check_obs_budget(a, &candidate, out)?;
    check_mem_budget(a, &baseline, &candidate, out)?;

    if regressions.is_empty() {
        writeln!(out, "no regressions beyond tolerance")?;
        Ok(())
    } else {
        Err(CliError::Failure(format!(
            "{} regression(s) beyond tolerance {:.1}%:\n  {}",
            regressions.len(),
            a.tolerance * 100.0,
            regressions.join("\n  ")
        )))
    }
}

/// Enforces `--obs-budget`: the candidate manifest's observer wall-time
/// share (`obs_share`, the fraction of total wall time spent in the
/// `obs.*` phase timers — telemetry capture and doctor checks) must not
/// exceed the budget; an over-budget manifest is a run failure (exit
/// 1). Without `--obs-budget` this is a no-op.
fn check_obs_budget<W: std::io::Write>(
    a: &CompareArgs,
    candidate: &bt_obs::RunManifest,
    out: &mut W,
) -> Result<(), CliError> {
    let Some(budget_pct) = a.obs_budget else {
        return Ok(());
    };
    let share_pct = candidate.obs_share * 100.0;
    let verdict = if share_pct > budget_pct {
        "OVER BUDGET"
    } else {
        "ok"
    };
    writeln!(
        out,
        "observer overhead: {share_pct:.2}% of wall time ({:.3}s in obs.* timers), \
         budget {budget_pct:.2}% — {verdict}",
        candidate.obs_wall_secs
    )?;
    if share_pct > budget_pct {
        return Err(CliError::Failure(format!(
            "observer overhead {share_pct:.2}% exceeds the --obs-budget {budget_pct:.2}% \
             (obs.* timers: {:.3}s)",
            candidate.obs_wall_secs
        )));
    }
    Ok(())
}

/// Enforces `--mem-budget`: the candidate manifest's peak RSS must not
/// exceed the baseline's by more than the budget percentage. Peak RSS
/// is machine-dependent, so the gate is relative headroom over a
/// baseline recorded on the same hardware — never an absolute number.
/// Manifests without memory telemetry (written before the field
/// existed, or on off-procfs platforms, recording 0) are a data error
/// (exit 2); an over-budget candidate is a run failure (exit 1).
/// Without `--mem-budget` this is a no-op.
fn check_mem_budget<W: std::io::Write>(
    a: &CompareArgs,
    baseline: &bt_obs::RunManifest,
    candidate: &bt_obs::RunManifest,
    out: &mut W,
) -> Result<(), CliError> {
    let Some(budget_pct) = a.mem_budget else {
        return Ok(());
    };
    let missing = |path: &str| {
        CliError::Invalid(format!(
            "{path}: --mem-budget needs run manifests with memory telemetry \
             (peak_rss_bytes > 0); regenerate the manifest on a procfs platform"
        ))
    };
    let (base, cand) = (baseline.peak_rss_bytes, candidate.peak_rss_bytes);
    if base == 0 {
        return Err(missing(&a.baseline));
    }
    if cand == 0 {
        return Err(missing(&a.candidate));
    }
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let delta_pct = (cand as f64 - base as f64) / base as f64 * 100.0;
    let over = delta_pct > budget_pct;
    let verdict = if over { "OVER BUDGET" } else { "ok" };
    writeln!(
        out,
        "peak RSS: candidate {:.1} MiB vs baseline {:.1} MiB ({delta_pct:+.1}%), \
         budget +{budget_pct:.1}% — {verdict}",
        mib(cand),
        mib(base)
    )?;
    if over {
        return Err(CliError::Failure(format!(
            "peak RSS {:.1} MiB exceeds the baseline's {:.1} MiB by {delta_pct:.1}%, \
             over the --mem-budget {budget_pct:.1}% headroom",
            mib(cand),
            mib(base)
        )));
    }
    Ok(())
}
