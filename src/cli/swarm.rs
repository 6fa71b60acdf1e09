//! `btlab swarm` and `btlab doctor`: the swarm run both drive, the
//! artifacts it writes to the run directory under fixed names, and the
//! doctor's verdict.

use std::path::Path;

use super::{flag, num, required, CliError};

/// Arguments of `btlab swarm`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmArgs {
    /// Number of pieces `B`.
    pub pieces: u32,
    /// Connection cap `k`.
    pub k: u32,
    /// Neighbor-set size `s`.
    pub s: u32,
    /// Arrival rate λ.
    pub lambda: f64,
    /// Initial leechers.
    pub initial: u32,
    /// Round budget.
    pub rounds: u64,
    /// RNG seed.
    pub seed: u64,
    /// Optional shake threshold.
    pub shake: Option<f64>,
    /// Emit the metrics as a versioned JSON document instead of a
    /// summary.
    pub json: bool,
    /// Number of observer peers for per-peer telemetry and phase
    /// detection.
    pub observers: u32,
    /// Telemetry stream: `Some(stride)` writes `telemetry.jsonl` to the
    /// run directory, sampling every `stride`-th round.
    pub telemetry: Option<u64>,
    /// Round stages removed from the default pipeline (ablation runs).
    pub disabled_stages: Vec<String>,
    /// Cost-attribution profile: writes `profile.json`, `profile.folded`
    /// and `profile.rounds.jsonl` to the run directory.
    pub profile: bool,
    /// Cohort trace: `Some(size)` writes `cohort.jsonl` to the run
    /// directory, tracing a reservoir of `size` peers.
    pub cohort: Option<u32>,
    /// Completion stream: writes `completions.jsonl` to the run
    /// directory, one record of acquisition rounds per counted
    /// completion.
    pub completions: bool,
    /// Worker threads for the parallel plan phases. Output bytes are
    /// identical at every value; only wall time changes.
    pub threads: u32,
    /// Tracker re-announce interval in rounds (1 = every round).
    pub reannounce: u64,
    /// Heartbeat: `Some(secs)` keeps `run.heartbeat.jsonl` and
    /// `run.status.json` in the run directory, the files `btlab watch`
    /// tails, beating every `secs` wall seconds (0 beats every round).
    pub heartbeat: Option<f64>,
}

impl Default for SwarmArgs {
    fn default() -> Self {
        SwarmArgs {
            pieces: 100,
            k: 5,
            s: 20,
            lambda: 1.5,
            initial: 20,
            rounds: 300,
            seed: 0,
            shake: None,
            json: false,
            observers: 0,
            telemetry: None,
            disabled_stages: Vec::new(),
            profile: false,
            cohort: None,
            completions: false,
            threads: 1,
            reannounce: 1,
            heartbeat: None,
        }
    }
}

/// Arguments of `btlab doctor`.
#[derive(Debug, Clone, PartialEq)]
pub struct DoctorArgs {
    /// The underlying swarm run; every `btlab swarm` flag applies.
    pub swarm: SwarmArgs,
    /// Monitor sampling cadence: check every Nth round.
    pub cadence: u64,
    /// Entropy floor below which the one-club monitor fires.
    pub floor: f64,
    /// Minimum population before the entropy monitor engages.
    pub min_population: u64,
    /// Adds the observer-stall monitor: fire when an observer makes no
    /// piece progress for this many rounds.
    pub stall_rounds: Option<u64>,
    /// Seeded fault for monitor validation, parsed from `KIND@ROUND`.
    pub inject_fault: Option<bt_swarm::FaultSpec>,
}

impl Default for DoctorArgs {
    fn default() -> Self {
        let defaults = bt_swarm::DoctorOptions::default();
        DoctorArgs {
            swarm: SwarmArgs::default(),
            cadence: defaults.cadence,
            floor: defaults.entropy_floor,
            min_population: defaults.entropy_min_population,
            stall_rounds: defaults.stall_rounds,
            inject_fault: None,
        }
    }
}

/// Applies one `--key value` pair to `a` when the key is a swarm-run
/// flag, so commands embedding a swarm run (`swarm`, `doctor`) share
/// one flag table. Returns `Ok(false)` for keys the swarm does not
/// know, leaving the caller to reject or claim them.
pub(super) fn apply_swarm_flag(a: &mut SwarmArgs, key: &str, value: &str) -> Result<bool, String> {
    match key {
        "pieces" => a.pieces = num(key, value)?,
        "k" => a.k = num(key, value)?,
        "s" => a.s = num(key, value)?,
        "lambda" => a.lambda = num(key, value)?,
        "initial" => a.initial = num(key, value)?,
        "rounds" => a.rounds = num(key, value)?,
        "seed" => a.seed = num(key, value)?,
        "shake" => a.shake = Some(num(key, value)?),
        "json" => a.json = flag(key, value)?,
        "observers" => a.observers = num(key, value)?,
        "telemetry" => {
            a.telemetry = Some(artifact(
                key,
                value,
                1,
                "an optional sample stride",
                "telemetry.jsonl",
            )?);
        }
        "cohort" => {
            let size = artifact(key, value, 16, "an optional cohort size", "cohort.jsonl")?;
            if size == 0 {
                return Err("--cohort size must be >= 1".to_string());
            }
            a.cohort = Some(size);
        }
        "profile" => {
            a.profile = artifact(key, value, true, "no value", "profile.json")?;
        }
        "completions" => {
            a.completions = artifact(key, value, true, "no value", COMPLETIONS_FILE)?;
        }
        "threads" => {
            a.threads = num(key, value)?;
            if a.threads == 0 {
                return Err("--threads must be >= 1".to_string());
            }
        }
        "reannounce" => {
            a.reannounce = num(key, value)?;
            if a.reannounce == 0 {
                return Err("--reannounce must be >= 1".to_string());
            }
        }
        "heartbeat" => {
            let secs = artifact(
                key,
                value,
                1.0,
                "an optional cadence in seconds",
                "run.heartbeat.jsonl and run.status.json",
            )?;
            if secs < 0.0 {
                return Err(format!("--heartbeat cadence must be >= 0, got {secs}"));
            }
            a.heartbeat = Some(secs);
        }
        "disable-stage" => {
            for name in required(key, value)?.split(',') {
                let name = name.trim();
                if !bt_swarm::stages::STAGE_NAMES.contains(&name) {
                    return Err(format!(
                        "--disable-stage: unknown stage `{name}`; known stages: {}",
                        bt_swarm::stages::STAGE_NAMES.join(", ")
                    ));
                }
                a.disabled_stages.push(name.to_string());
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses a `--inject-fault` value of the form `KIND@ROUND`, e.g.
/// `unaccounted-piece@10`.
pub(super) fn parse_fault(text: &str) -> Result<bt_swarm::FaultSpec, String> {
    let (kind, round) = text
        .split_once('@')
        .ok_or_else(|| format!("--inject-fault needs KIND@ROUND, got `{text}`"))?;
    let kind: bt_swarm::FaultKind = kind.parse()?;
    let round: u64 = round
        .parse()
        .map_err(|_| format!("--inject-fault round must be a number, got `{round}`"))?;
    Ok(bt_swarm::FaultSpec { round, kind })
}

/// The setting of an artifact flag (`--telemetry [STRIDE]` and the
/// like): `default` when given bare. A value that does not parse — a
/// path, say — is a usage error naming the file the run writes and
/// where.
fn artifact<T: std::str::FromStr>(
    key: &str,
    value: &str,
    default: T,
    takes: &str,
    file: &str,
) -> Result<T, String> {
    if value.is_empty() {
        return Ok(default);
    }
    value.parse().map_err(|_| {
        format!(
            "--{key} takes {takes}, got `{value}`; the run writes {file} into its run \
             directory, $BT_MANIFEST_DIR (default results/)"
        )
    })
}

/// The configuration a `btlab swarm` / `btlab doctor` run drives.
pub(super) fn swarm_config(a: &SwarmArgs) -> Result<bt_swarm::SwarmConfig, String> {
    let mut builder = bt_swarm::SwarmConfig::builder();
    builder
        .pieces(a.pieces)
        .max_connections(a.k)
        .neighbor_set_size(a.s)
        .arrival_rate(a.lambda)
        .initial_leechers(a.initial)
        .max_rounds(a.rounds)
        .reannounce_interval(a.reannounce)
        .seed(a.seed);
    if let Some(f) = a.shake {
        builder.shake_at(f);
    }
    if a.observers > 0 {
        builder.observers(a.observers);
    }
    builder.build().map_err(|e| e.to_string())
}

/// The stages a run of `a` executes under `config`, in pipeline order:
/// the engine's default pipeline minus the `--disable-stage` ablations.
fn swarm_stages(
    a: &SwarmArgs,
    config: &bt_swarm::SwarmConfig,
) -> Vec<Box<dyn bt_swarm::RoundStage>> {
    bt_swarm::stages::default_pipeline(config)
        .into_iter()
        .filter(|s| !a.disabled_stages.iter().any(|d| d == s.name()))
        .collect()
}

/// The stage names a run of `a` executes, in pipeline order, recorded in
/// the run manifest; empty when the flags form no valid configuration.
pub fn swarm_pipeline_names(a: &SwarmArgs) -> Vec<String> {
    let Ok(config) = swarm_config(a) else {
        return Vec::new();
    };
    swarm_stages(a, &config)
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}

/// What a run of `a` simulates: the serialized configuration and the
/// stages it executes. `None` when the flags form no valid
/// configuration.
pub(super) fn swarm_identity(a: &SwarmArgs) -> Option<String> {
    let config = serde_json::to_string(&swarm_config(a).ok()?).ok()?;
    Some(format!("{config}|{}", swarm_pipeline_names(a).join(",")))
}

/// The fixed name of the telemetry stream in a run directory.
const TELEMETRY_FILE: &str = "telemetry.jsonl";
/// The fixed name of the cohort trace in a run directory.
const COHORT_FILE: &str = "cohort.jsonl";
/// The fixed name of the completion stream in a run directory.
const COMPLETIONS_FILE: &str = "completions.jsonl";
/// The fixed name of the profile summary in a run directory; the folded
/// stacks and the per-round series share its stem.
const PROFILE_FILE: &str = "profile.json";

/// Creates `name` in the run directory, and the directory first.
fn create_artifact(run_dir: &Path, name: &str) -> Result<std::fs::File, String> {
    let path = run_dir.join(name);
    std::fs::create_dir_all(run_dir)
        .and_then(|()| std::fs::File::create(&path))
        .map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// Builds the swarm a `btlab swarm` / `btlab doctor` run drives:
/// config, optional stage ablation, and the telemetry stream, cohort
/// trace, completion stream and heartbeat (naming `command`) in
/// `run_dir`.
fn build_swarm(a: &SwarmArgs, command: &str, run_dir: &Path) -> Result<bt_swarm::Swarm, String> {
    let config = swarm_config(a)?;
    if !a.disabled_stages.is_empty() {
        tracing::info!(target: "btlab", disabled = a.disabled_stages.join(",").as_str(); "stage ablation active");
    }
    let stages = swarm_stages(a, &config);
    let mut swarm = bt_swarm::Swarm::with_pipeline(config, bt_obs::Registry::global(), stages);
    swarm.set_threads(a.threads);
    if let Some(stride) = a.telemetry {
        let file = create_artifact(run_dir, TELEMETRY_FILE)?;
        let recorder = bt_swarm::TelemetryRecorder::new(bt_swarm::TelemetryOptions { stride })
            .to_writer(Box::new(std::io::BufWriter::new(file)));
        swarm.attach_telemetry(recorder);
    }
    if let Some(size) = a.cohort {
        let file = create_artifact(run_dir, COHORT_FILE)?;
        swarm.attach_cohort(size, Box::new(std::io::BufWriter::new(file)));
    }
    if a.completions {
        let file = create_artifact(run_dir, COMPLETIONS_FILE)?;
        swarm.attach_completions(Box::new(std::io::BufWriter::new(file)));
    }
    if let Some(secs) = a.heartbeat {
        let emitter = bt_obs::HeartbeatEmitter::new(
            bt_obs::HeartbeatOptions {
                dir: run_dir.to_path_buf(),
                interval: std::time::Duration::from_secs_f64(secs),
                command: command.to_string(),
                seed: a.seed,
                target_rounds: a.rounds,
            },
            bt_obs::Registry::global(),
        )
        .map_err(|e| {
            format!(
                "cannot create heartbeat artifacts in {}: {e}",
                run_dir.display()
            )
        })?;
        swarm.attach_heartbeat(emitter);
    }
    Ok(swarm)
}

/// Runs the swarm `a` describes as `command`: builds it, lets `attach`
/// add a doctor or a fault, attaches the profiler under `--profile`,
/// runs it to its stop condition and writes the profile artifacts to
/// `run_dir`, logging each artifact it wrote.
pub(super) fn run_swarm(
    a: &SwarmArgs,
    command: &str,
    run_dir: &Path,
    attach: impl FnOnce(&mut bt_swarm::Swarm),
) -> Result<(bt_swarm::SwarmMetrics, Option<bt_swarm::DoctorReport>), CliError> {
    let mut swarm = build_swarm(a, command, run_dir)?;
    attach(&mut swarm);
    if a.profile {
        swarm.attach_profiler(bt_obs::ProfileOptions {
            seed: a.seed,
            ..bt_obs::ProfileOptions::default()
        });
    }
    let (metrics, profile, report) = swarm.run_diagnosed();
    if a.telemetry.is_some() {
        tracing::info!(target: "btlab", path = run_dir.join(TELEMETRY_FILE).display().to_string(); "telemetry stream written");
    }
    if let Some(size) = a.cohort {
        tracing::info!(target: "btlab", path = run_dir.join(COHORT_FILE).display().to_string(), size = size; "cohort trace written");
    }
    if a.completions {
        tracing::info!(target: "btlab", path = run_dir.join(COMPLETIONS_FILE).display().to_string(); "completion stream written");
    }
    if a.profile {
        let path = run_dir.join(PROFILE_FILE);
        profile
            .write_artifacts(&path)
            .map_err(|e| format!("cannot write profile {}: {e}", path.display()))?;
        tracing::info!(target: "btlab", path = path.display().to_string(); "profile written");
    }
    Ok((metrics, report))
}

/// How many violations `btlab doctor` prints in full before eliding;
/// a broken invariant usually fires on every subsequent check, so the
/// tail repeats the head.
const DOCTOR_MAX_PRINTED_VIOLATIONS: usize = 20;

/// Executes `btlab doctor`: a swarm run with the invariant monitors
/// sampling at `--cadence`, summarizing violations (and the diagnosis
/// bundle, when one was written) and failing when any invariant broke.
/// The bundle directory, in `run_dir`, is named after the run's
/// `config_hash`.
pub(super) fn run_doctor<W: std::io::Write>(
    a: &DoctorArgs,
    config_hash: &str,
    run_dir: &Path,
    out: &mut W,
) -> Result<(), CliError> {
    let run_id = format!(
        "doctor-{}-{}",
        a.swarm.seed,
        &config_hash[..config_hash.len().min(8)]
    );
    tracing::info!(target: "btlab", seed = a.swarm.seed, cadence = a.cadence, run_id = run_id.as_str(); "running doctored swarm");
    let (metrics, report) = run_swarm(&a.swarm, "doctor", run_dir, |swarm| {
        swarm.attach_doctor(bt_swarm::DoctorOptions {
            cadence: a.cadence,
            entropy_floor: a.floor,
            entropy_min_population: a.min_population,
            bundle_root: Some(run_dir.to_path_buf()),
            run_id,
            stall_rounds: a.stall_rounds,
        });
        if let Some(fault) = a.inject_fault {
            tracing::warn!(target: "btlab", kind = format!("{:?}", fault.kind).as_str(), round = fault.round; "seeded fault scheduled");
            swarm.schedule_fault(fault);
        }
    })?;
    let report = report.ok_or_else(|| "doctor report missing after run".to_string())?;

    writeln!(
        out,
        "rounds={} completions={} final_entropy={:.3} final_population={}",
        metrics.rounds_run,
        metrics.completions.count(),
        metrics.final_entropy(),
        metrics.final_population(),
    )?;
    let violations = &report.report.violations;
    writeln!(
        out,
        "doctor: monitors={} checks={} violations={}",
        report.monitors.join(","),
        report.report.checks,
        violations.len()
    )?;
    for v in violations.iter().take(DOCTOR_MAX_PRINTED_VIOLATIONS) {
        writeln!(out, "violation {v}")?;
    }
    if violations.len() > DOCTOR_MAX_PRINTED_VIOLATIONS {
        writeln!(
            out,
            "... and {} more violation(s)",
            violations.len() - DOCTOR_MAX_PRINTED_VIOLATIONS
        )?;
    }
    if let Some(dir) = &report.bundle_dir {
        writeln!(out, "diagnosis bundle: {}", dir.display())?;
    }

    // Expose the count so the binary's manifest/ledger writer records
    // it even on the failing path.
    bt_obs::Registry::global()
        .counter("doctor.violations")
        .add(violations.len() as u64);

    if report.is_clean() {
        writeln!(out, "doctor: all invariants held")?;
        Ok(())
    } else {
        Err(CliError::Failure(format!(
            "doctor found {} invariant violation(s)",
            violations.len()
        )))
    }
}
