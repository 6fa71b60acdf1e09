//! Argument parsing and command execution for the `btlab` CLI.
//!
//! A deliberately small hand-rolled parser (no external dependency):
//! `btlab <command> [--flag value]...`. Parsing is separated from
//! execution so it can be unit-tested.
//!
//! The global `--log` / `--log-filter` flags are position-independent and
//! stripped by [`extract_log_options`] before command parsing, so every
//! subcommand accepts them without having to declare them.
//!
//! [`run`] takes the run directory from its caller: `swarm` and `doctor`
//! write every artifact there under a fixed name.

use std::collections::BTreeMap;
use std::path::Path;

use bt_obs::LogMode;

mod compare;
mod report;
mod swarm;
mod watch;

pub use compare::CompareArgs;
use compare::{parse_compare, run_compare};
use report::{parse_profile, run_profile, run_report, run_trend};
pub use report::{ProfileArgs, ReportArgs, TrendArgs};
use swarm::{apply_swarm_flag, parse_fault, run_doctor, run_swarm, swarm_config, swarm_identity};
pub use swarm::{swarm_pipeline_names, DoctorArgs, SwarmArgs};
pub use watch::WatchArgs;
use watch::{parse_watch, run_watch};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a swarm simulation and print a summary.
    Swarm(SwarmArgs),
    /// Run the analytical model and print a summary.
    Model(ModelArgs),
    /// Generate traces to a JSON-lines file.
    Traces(TracesArgs),
    /// Analyze a JSON-lines trace file.
    Analyze(AnalyzeArgs),
    /// Print one committed results table.
    Figure(FigureArgs),
    /// Summarize a telemetry stream and compare it with the model.
    Report(ReportArgs),
    /// Summarize a profile.json produced by `swarm --profile`.
    Profile(ProfileArgs),
    /// Compare two run manifests stage by stage.
    Compare(CompareArgs),
    /// Run a swarm with the runtime invariant monitors attached.
    Doctor(DoctorArgs),
    /// Render per-metric trajectories from the cross-run ledger.
    Trend(TrendArgs),
    /// Tail a run directory's heartbeat artifacts, live or post-hoc.
    Watch(WatchArgs),
    /// Run the repo's static analysis pass (`bt-lint`).
    Lint(LintArgs),
    /// Print usage.
    Help,
}

impl Command {
    /// Stable command name, used for log events and manifest file names.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Command::Swarm(_) => "swarm",
            Command::Model(_) => "model",
            Command::Traces(_) => "traces",
            Command::Analyze(_) => "analyze",
            Command::Figure(_) => "figure",
            Command::Report(_) => "report",
            Command::Profile(_) => "profile",
            Command::Compare(_) => "compare",
            Command::Doctor(_) => "doctor",
            Command::Trend(_) => "trend",
            Command::Watch(_) => "watch",
            Command::Lint(_) => "lint",
            Command::Help => "help",
        }
    }

    /// The swarm run a `swarm` or `doctor` command drives.
    #[must_use]
    pub fn swarm_args(&self) -> Option<&SwarmArgs> {
        match self {
            Command::Swarm(a) => Some(a),
            Command::Doctor(a) => Some(&a.swarm),
            _ => None,
        }
    }

    /// The RNG seed the command will run with, where it has one.
    #[must_use]
    pub fn seed(&self) -> Option<u64> {
        match self {
            Command::Model(a) => Some(a.seed),
            Command::Traces(a) => Some(a.seed),
            Command::Report(a) => Some(a.seed),
            _ => self.swarm_args().map(|a| a.seed),
        }
    }

    /// The run's identity hash, recorded as `config_hash` in the
    /// manifest, the ledger and the doctor's bundle directory name.
    /// For `swarm` and `doctor` it covers only what the run simulates
    /// and checks, so runs that differ in threads, artifacts, heartbeat
    /// cadence or output format share one identity. Other commands hash
    /// their parsed arguments.
    #[must_use]
    pub fn config_hash(&self) -> String {
        let identity = self
            .swarm_args()
            .and_then(swarm_identity)
            .map(|swarm| match self {
                Command::Doctor(a) => format!(
                    "{swarm}|cadence={} floor={} min_population={} stall_rounds={:?} fault={:?}",
                    a.cadence, a.floor, a.min_population, a.stall_rounds, a.inject_fault
                ),
                _ => swarm,
            });
        bt_obs::fnv1a_hex(identity.unwrap_or_else(|| format!("{self:?}")).as_bytes())
    }
}

/// A command-execution failure, carrying the process exit code it maps
/// to: [`CliError::Failure`] (exit 1) for runtime failures — a
/// regression beyond tolerance, a monitor violation, an I/O error —
/// and [`CliError::Invalid`] (exit 2) for malformed or mismatched input
/// data, matching the exit-2 convention for unparsable command lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The run itself failed; the process should exit 1.
    Failure(String),
    /// Input data was malformed or mismatched; the process should
    /// exit 2.
    Invalid(String),
}

impl CliError {
    /// The process exit code this error maps to.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Failure(_) => 1,
            CliError::Invalid(_) => 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Failure(message) | CliError::Invalid(message) => f.write_str(message),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failure(message)
    }
}

/// A failed write of command output is a run failure (exit 1); reads of
/// input artifacts go through `read_error` instead.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Failure(format!("i/o error: {e}"))
    }
}

/// Maps a failed artifact read to its exit code: missing (`NotFound`)
/// or malformed (`InvalidData`) input is a data error (exit 2), any
/// other I/O failure a run failure (exit 1).
fn read_error(what: &str, e: std::io::Error) -> CliError {
    let message = format!("cannot read {what}: {e}");
    match e.kind() {
        std::io::ErrorKind::NotFound | std::io::ErrorKind::InvalidData => {
            CliError::Invalid(message)
        }
        _ => CliError::Failure(message),
    }
}

/// Global logging options, valid before or after the subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogOptions {
    /// Diagnostics rendering; `None` falls back to `BT_LOG`, then human.
    pub mode: Option<LogMode>,
    /// Filter directives; `None` falls back to `RUST_LOG`, then `info`.
    pub filter: Option<String>,
}

impl LogOptions {
    /// Installs the global subscriber for these options, resolving the
    /// environment fallbacks (`BT_LOG` for the mode, `RUST_LOG` for the
    /// filter).
    ///
    /// # Errors
    ///
    /// Returns a message when `BT_LOG` or the filter text is malformed.
    pub fn install(&self) -> Result<(), String> {
        let mode = match self.mode {
            Some(mode) => mode,
            None => match std::env::var("BT_LOG") {
                Ok(text) => text.parse()?,
                Err(_) => LogMode::default(),
            },
        };
        bt_obs::init(mode, self.filter.as_deref())
    }
}

/// Strips `--log MODE` and `--log-filter SPEC` from anywhere in `args`,
/// returning them alongside the remaining arguments for [`parse`].
///
/// # Errors
///
/// Returns a message for a missing value, an unknown mode, or a filter
/// spec that fails to parse.
pub fn extract_log_options(args: &[String]) -> Result<(LogOptions, Vec<String>), String> {
    let mut options = LogOptions::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--log" => {
                let value = iter
                    .next()
                    .ok_or("--log needs a mode: human, json, or quiet")?;
                options.mode = Some(value.parse()?);
            }
            "--log-filter" => {
                let value = iter.next().ok_or("--log-filter needs a filter spec")?;
                // Validate eagerly so a typo fails the command instead of
                // silently logging nothing.
                bt_obs::EnvFilter::parse(value, None)
                    .map_err(|e| format!("--log-filter `{value}`: {e}"))?;
                options.filter = Some(value.clone());
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((options, rest))
}

/// Arguments of `btlab model`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArgs {
    /// Number of pieces `B`.
    pub pieces: u32,
    /// Connection cap `k`.
    pub k: u32,
    /// Neighbor-set size `s`.
    pub s: u32,
    /// Bootstrap inflow α.
    pub alpha: f64,
    /// Last-phase inflow γ.
    pub gamma: f64,
    /// Monte-Carlo replications.
    pub replications: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ModelArgs {
    fn default() -> Self {
        ModelArgs {
            pieces: 100,
            k: 5,
            s: 20,
            alpha: 0.25,
            gamma: 0.15,
            replications: 200,
            seed: 0,
        }
    }
}

/// Arguments of `btlab traces`.
#[derive(Debug, Clone, PartialEq)]
pub struct TracesArgs {
    /// Scenario name: smooth, last-phase, or bootstrap-stall.
    pub scenario: String,
    /// Number of observer clients.
    pub clients: u32,
    /// Output path.
    pub out: String,
    /// RNG seed.
    pub seed: u64,
}

/// Arguments of `btlab analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Input path (JSON-lines traces).
    pub input: String,
}

/// Arguments of `btlab figure`.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureArgs {
    /// Table id: the name of an entry of `bt_bench::tables::TABLES`.
    pub id: String,
}

/// Arguments of `btlab lint`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintArgs {
    /// Workspace root to scan; defaults to the current directory.
    pub root: Option<String>,
    /// Emit the machine-readable JSON array instead of text.
    pub json: bool,
    /// Emit the stage-access matrix JSON instead of the findings.
    pub stage_matrix: bool,
}

/// Usage text.
pub const USAGE: &str = "\
btlab — multiphase-bt laboratory

USAGE:
  btlab swarm   [--pieces N] [--k N] [--s N] [--lambda F] [--initial N]
                [--rounds N] [--seed N] [--shake F] [--json]
                [--observers N] [--telemetry [STRIDE]]
                [--cohort [SIZE]] [--completions] [--profile]
                [--heartbeat [SECS]] [--disable-stage NAME[,NAME..]]
                [--threads N] [--reannounce R]
  btlab model   [--pieces N] [--k N] [--s N] [--alpha F] [--gamma F]
                [--replications N] [--seed N]
  btlab report  [--telemetry FILE] [--cohort FILE] [--completions FILE]
                [--manifest FILE] [--alpha F] [--gamma F]
                [--replications N] [--seed N] [--strict]
  btlab profile PROFILE.json [--top N] [--json]
  btlab compare BASELINE.json CANDIDATE.json [--tolerance F]
                [--obs-budget PCT] [--mem-budget PCT]
  btlab compare MANIFEST.json --obs-budget PCT
  btlab watch   RUN_DIR [--timeout-secs S] [--interval-secs S] [--json]
  btlab doctor  [all swarm flags] [--cadence N] [--floor F]
                [--min-population N] [--stall-rounds R]
                [--inject-fault KIND@ROUND]
  btlab trend   [--ledger FILE] [--last N] [--tolerance F]
                [--max-ledger-bytes N]
  btlab traces  --out FILE [--scenario smooth|last-phase|bootstrap-stall]
                [--clients N] [--seed N]
  btlab analyze --input FILE
  btlab figure  --id NAME
  btlab lint    [--root DIR] [--format text|json] [--stage-matrix]
  btlab help

RUN DIRECTORY (btlab swarm / doctor):
  Every artifact of a run lands in one directory, $BT_MANIFEST_DIR
  (default results/), under a fixed name: manifest-<command>.json,
  telemetry.jsonl (--telemetry), cohort.jsonl (--cohort),
  completions.jsonl (--completions), profile.json,
  profile.folded and profile.rounds.jsonl (--profile),
  run.heartbeat.jsonl and run.status.json (--heartbeat), and the
  doctor's diagnosis-<run>/ bundle. An artifact flag's optional value is
  its only setting; a later run into the same directory overwrites it.

TELEMETRY (btlab swarm):
  --telemetry [STRIDE] streams one record per line, sampling every
  STRIDE-th round (default 1): a Meta header, then per-round Sample
  records (population, entropy, availability histogram,
  piece-count quantiles, slot utilization) plus Phase transitions of the
  --observers peers. `btlab report` summarizes a JSONL stream and
  compares detected phase boundaries against the analytical model.
  Anomaly capture is the doctor's job: entropy collapse and observer
  stalls (`btlab doctor --observers N --stall-rounds R`) write a
  diagnosis bundle.

PROFILING (btlab swarm / profile / compare):
  --profile records a deterministic cost-attribution profile: per
  round x per stage wall time plus work counters (candidate comparisons,
  handout entries, bitfield words, piece transfers, slab probes). It
  writes profile.json (summary), profile.folded (flamegraph folded
  stacks) and profile.rounds.jsonl (per-round series). Profiling never
  touches the simulation RNG, so profiled runs are byte-identical to
  unprofiled ones. `btlab profile` summarizes a recorded profile
  (hottest stages, work per round, top peers); `btlab compare` diffs
  two run manifests such as manifest-swarm.json stage by stage (the
  manifest's round.<stage> timers hold the same clock readings as the
  profile's stage totals) and exits 1 when the candidate regresses
  beyond --tolerance (default 0.10 = 10%).

COHORT TRACING (btlab swarm / report):
  --cohort [SIZE] attaches a deterministic reservoir-sampled peer
  cohort of SIZE members (default 16) and streams their full
  lifecycles — join, piece acquisitions with source, connection-slot
  changes, phase transitions, shakes, handouts, departure — as JSON
  lines: a meta header, then one event per line. Membership is drawn
  from a private RNG salted off the run seed, so traced runs are
  byte-identical to bare ones. `btlab report --cohort FILE` renders
  per-peer trajectories; a trace whose rounds run backwards, or with a
  peer's event before its join or after its departure, exits 2.

COMPLETION STREAM (btlab swarm / report):
  A run keeps completion statistics (per acquisition index, the count,
  time-to-piece and inter-piece sums; per bandwidth class, the duration
  sum and count), never one record per finished peer, so its memory
  follows the live swarm. --completions streams the per-peer records
  instead, as JSON lines: a meta header (schema, pieces, warm-up), then
  one record per counted completion (peer, join and completion rounds,
  the round of every acquisition, bandwidth class), in completion
  order. `btlab report --completions FILE` recomputes the summary's
  completion means from it; a record whose rounds are out of order or
  before the warm-up exits 2.

OBSERVER OVERHEAD (btlab compare --obs-budget):
  Run manifests record the wall-time share spent inside observers
  (obs.* phase timers: telemetry capture, doctor checks, heartbeats) as
  obs_share. `btlab compare MANIFEST --obs-budget PCT` (one positional)
  gates that share alone; with two positionals the gate rides along the
  regression diff. Over budget exits 1.

HEARTBEATS (btlab swarm --heartbeat / watch):
  --heartbeat [SECS] streams wall-clock-cadenced progress records
  (round, rounds/sec, ETA to --rounds, swarm phase, entropy, observer
  share, current/peak RSS) to run.heartbeat.jsonl and atomically
  replaces run.status.json on every beat, one beat every SECS wall
  seconds (default 1; 0 beats every round). The heartbeat is an observer: it makes no model-RNG
  calls, so a run with heartbeats is byte-identical to one without.
  `btlab watch RUN_DIR` tails those artifacts, live or after the fact:
  a progress bar with ETA, phase, and memory, refreshed every
  --interval-secs (default 1), exiting 0 once the run finishes. With
  --timeout-secs S a running status that stops changing for S seconds
  of wall time exits 1 (stall detection for CI); --json emits one JSON
  status document per change for scripting. A missing or torn
  run.status.json and a headerless heartbeat stream exit 2.

MEMORY (btlab compare --mem-budget / trend):
  Run manifests and ledger records carry current and peak RSS sampled
  from procfs. `btlab compare BASELINE CANDIDATE --mem-budget PCT`
  fails (exit 1) when the candidate's peak RSS exceeds the baseline's
  by more than PCT percent; manifests without memory telemetry
  (pre-memory manifests, platforms without procfs) exit 2. `btlab trend`
  charts peak RSS per run.

DOCTOR (btlab doctor / trend):
  `btlab doctor` runs a swarm with the runtime invariant monitors
  sampling every --cadence rounds: piece conservation, replication index
  vs oracle recount, entropy floor (one-club collapse), per-observer
  phase monotonicity, and connection-slot balance. --stall-rounds R adds
  observer-stall: an --observers peer with no piece progress for R
  rounds (e.g. on an empty potential set). On the first violation it
  writes a diagnosis bundle (meta.json, flight.json with the last
  checks, telemetry.jsonl, peers.json, profile.json when profiling) to
  diagnosis-<run>/ in the run directory and exits 1. --inject-fault
  KIND@ROUND corrupts the swarm deliberately to validate the monitors;
  kinds: unaccounted-piece, index-drift, half-open-connection. Every
  swarm and doctor run appends one compact record (seed, config hash,
  pipeline, rounds/sec, stage p95s, violation count) to the cross-run
  ledger (`$BT_LEDGER_PATH`, default ledger.jsonl in the run
  directory). The config hash covers what the run simulates and checks (configuration, pipeline,
  monitor settings, injected fault), never threads, artifacts or
  heartbeat cadence; the manifest and the diagnosis bundle name use the
  same hash. `btlab trend` renders per-metric trajectories over the last
  --last records and flags values drifting beyond --tolerance against
  the median of matching prior runs (advisory: trend itself always exits
  0 on readable ledgers). Before reading, trend rotates the ledger once
  it exceeds --max-ledger-bytes (default 16 MiB; 0 disables): the oldest
  lines move to a `.1` archive next to it.

PARALLEL EXECUTION (btlab swarm / doctor):
  --threads N shards the exchange stage's read-only plan phase across N
  workers; a serial commit phase then applies the planned transfers in
  canonical pair order. Piece picks come from stateless per-pair
  substreams keyed off the run seed, so every output — metrics,
  telemetry, cohort traces, doctor verdicts — is byte-identical at any
  --threads value; only wall time changes. The run manifest records
  threads, and `btlab compare` refuses (exit 2) to diff manifests with
  mismatched thread counts. --reannounce R re-announces peers to the
  tracker every R rounds instead of every round (default 1), amortizing
  the maintain stage's handout work at large populations.

EXIT CODES:
  0 success; 1 run failure (simulation error, compare regression,
  doctor violation, report --strict warning); 2 usage error or
  malformed/mismatched input data.
  Streams (telemetry, cohort, completions, heartbeat, ledger, traces)
  are read up to their last complete record; a missing file, a
  malformed complete record, or a torn document (manifest, profile,
  status) exits 2.

STAGE ABLATION (btlab swarm):
  --disable-stage removes stages from the round pipeline for ablation
  experiments, e.g. --disable-stage shake,depart. Known stages: maintain,
  bootstrap, prune, establish, exchange, depart, shake, sample. Disabling
  sample leaves metrics time series empty; disabling depart keeps
  finished peers in the swarm as de-facto seeds.

RESULTS TABLES (btlab figure):
  --id NAME computes and prints the committed table results/NAME.tsv,
  e.g. --id fig4a; an unknown NAME is a usage error that lists them all.

GLOBAL OPTIONS (any position):
  --log human|json|quiet   diagnostics format on stderr (default: human,
                           or the BT_LOG environment variable)
  --log-filter SPEC        level filter, e.g. `debug` or
                           `info,bt_swarm::round=debug` (default: RUST_LOG,
                           then `info`)

Results and figures print to stdout; diagnostics go to stderr. Each run
writes a JSON manifest (counters, phase timings, config hash) to the run
directory, $BT_MANIFEST_DIR (default results/).
";

/// Parses a command line (excluding the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, unknown flags,
/// missing values, or unparsable numbers.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let (positionals, flags) = parse_flags(rest)?;
    // Only profile, compare and watch take positional paths.
    if !matches!(cmd.as_str(), "profile" | "compare" | "watch") {
        if let Some(arg) = positionals.first() {
            return Err(format!("expected a --flag, got `{arg}`"));
        }
    }
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "profile" => parse_profile(positionals, &flags),
        "compare" => parse_compare(&positionals, &flags),
        "watch" => parse_watch(positionals, &flags),
        "swarm" => {
            let mut a = SwarmArgs::default();
            for (key, value) in &flags {
                if !apply_swarm_flag(&mut a, key, value)? {
                    return Err(format!("unknown flag --{key} for swarm"));
                }
            }
            swarm_config(&a)?;
            Ok(Command::Swarm(a))
        }
        "doctor" => {
            let mut a = DoctorArgs::default();
            for (key, value) in &flags {
                match key.as_str() {
                    "cadence" => a.cadence = num(key, value)?,
                    "floor" => a.floor = num(key, value)?,
                    "min-population" => a.min_population = num(key, value)?,
                    "stall-rounds" => a.stall_rounds = Some(num(key, value)?),
                    "inject-fault" => {
                        a.inject_fault = Some(parse_fault(&required(key, value)?)?);
                    }
                    _ => {
                        if !apply_swarm_flag(&mut a.swarm, key, value)? {
                            return Err(format!("unknown flag --{key} for doctor"));
                        }
                    }
                }
            }
            swarm_config(&a.swarm)?;
            Ok(Command::Doctor(a))
        }
        "trend" => {
            let mut a = TrendArgs::default();
            for (key, value) in &flags {
                match key.as_str() {
                    "ledger" => a.ledger = Some(required(key, value)?),
                    "last" => a.last = num(key, value)?,
                    "tolerance" => a.tolerance = num(key, value)?,
                    "max-ledger-bytes" => a.max_ledger_bytes = num(key, value)?,
                    _ => return Err(format!("unknown flag --{key} for trend")),
                }
            }
            if a.last == 0 {
                return Err("--last must be >= 1".to_string());
            }
            if a.tolerance < 0.0 {
                return Err(format!("--tolerance must be >= 0, got {}", a.tolerance));
            }
            Ok(Command::Trend(a))
        }
        "report" => {
            let mut a = ReportArgs::default();
            for (key, value) in &flags {
                match key.as_str() {
                    "telemetry" => a.telemetry = Some(required(key, value)?),
                    "cohort" => a.cohort = Some(required(key, value)?),
                    "completions" => a.completions = Some(required(key, value)?),
                    "manifest" => a.manifest = Some(required(key, value)?),
                    "alpha" => a.alpha = num(key, value)?,
                    "gamma" => a.gamma = num(key, value)?,
                    "replications" => a.replications = num(key, value)?,
                    "seed" => a.seed = num(key, value)?,
                    "strict" => a.strict = flag(key, value)?,
                    _ => return Err(format!("unknown flag --{key} for report")),
                }
            }
            if a.telemetry.is_none() && a.cohort.is_none() && a.completions.is_none() {
                return Err(
                    "report requires --telemetry FILE, --cohort FILE and/or --completions FILE"
                        .to_string(),
                );
            }
            Ok(Command::Report(a))
        }
        "model" => {
            let mut a = ModelArgs::default();
            for (key, value) in &flags {
                match key.as_str() {
                    "pieces" => a.pieces = num(key, value)?,
                    "k" => a.k = num(key, value)?,
                    "s" => a.s = num(key, value)?,
                    "alpha" => a.alpha = num(key, value)?,
                    "gamma" => a.gamma = num(key, value)?,
                    "replications" => a.replications = num(key, value)?,
                    "seed" => a.seed = num(key, value)?,
                    _ => return Err(format!("unknown flag --{key} for model")),
                }
            }
            Ok(Command::Model(a))
        }
        "traces" => {
            let mut scenario = "smooth".to_string();
            let mut clients = 3;
            let mut out = None;
            let mut seed = 0;
            for (key, value) in &flags {
                match key.as_str() {
                    "scenario" => scenario = required(key, value)?,
                    "clients" => clients = num(key, value)?,
                    "out" => out = Some(required(key, value)?),
                    "seed" => seed = num(key, value)?,
                    _ => return Err(format!("unknown flag --{key} for traces")),
                }
            }
            let out = out.ok_or("traces requires --out FILE")?;
            Ok(Command::Traces(TracesArgs {
                scenario,
                clients,
                out,
                seed,
            }))
        }
        "analyze" => {
            let mut input = None;
            for (key, value) in &flags {
                match key.as_str() {
                    "input" => input = Some(required(key, value)?),
                    _ => return Err(format!("unknown flag --{key} for analyze")),
                }
            }
            let input = input.ok_or("analyze requires --input FILE")?;
            Ok(Command::Analyze(AnalyzeArgs { input }))
        }
        "figure" => {
            let mut id = None;
            for (key, value) in &flags {
                match key.as_str() {
                    "id" => id = Some(required(key, value)?),
                    _ => return Err(format!("unknown flag --{key} for figure")),
                }
            }
            let id = id.ok_or("figure requires --id NAME")?;
            if bt_bench::tables::find(&id).is_none() {
                let known: Vec<&str> = bt_bench::tables::TABLES.iter().map(|t| t.name).collect();
                return Err(format!(
                    "--id: unknown figure id `{id}`; known ids: {}",
                    known.join(", ")
                ));
            }
            Ok(Command::Figure(FigureArgs { id }))
        }
        "lint" => {
            let mut a = LintArgs::default();
            for (key, value) in &flags {
                match key.as_str() {
                    "root" => a.root = Some(required(key, value)?),
                    "format" => {
                        a.json = match required(key, value)?.as_str() {
                            "json" => true,
                            "text" => false,
                            other => {
                                return Err(format!("--format must be text or json, got `{other}`"))
                            }
                        };
                    }
                    "stage-matrix" => a.stage_matrix = flag(key, value)?,
                    _ => return Err(format!("unknown flag --{key} for lint")),
                }
            }
            Ok(Command::Lint(a))
        }
        other => Err(format!("unknown command `{other}`; try `btlab help`")),
    }
}

/// Splits a command's arguments into positionals and `--key value`
/// pairs. A `--key` followed by another flag or by nothing maps to an
/// empty string (boolean flags, bare artifact flags); any other token
/// after a `--key` is its value. A repeated flag is an error rather than
/// a silent last-one-wins.
fn parse_flags(rest: &[String]) -> Result<(Vec<String>, BTreeMap<String, String>), String> {
    let mut positionals = Vec::new();
    let mut flags = BTreeMap::new();
    let mut iter = rest.iter().peekable();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            positionals.push(arg.clone());
            continue;
        };
        let value = match iter.peek() {
            Some(next) if !next.starts_with("--") => {
                iter.next().expect("peeked value exists").clone()
            }
            _ => String::new(),
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!(
                "--{key} given more than once; pass it once (a comma list where the flag \
                 takes several values, e.g. --disable-stage shake,depart)"
            ));
        }
    }
    Ok((positionals, flags))
}

fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key} needs a number, got `{value}`"))
}

fn flag(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "" | "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("--{key} is boolean, got `{other}`")),
    }
}

fn required(key: &str, value: &str) -> Result<String, String> {
    if value.is_empty() {
        Err(format!("--{key} needs a value"))
    } else {
        Ok(value.to_string())
    }
}

/// Version of the `btlab swarm --json` document. Version 1 carried no
/// `schema` field and listed every completion record under
/// `completions`; version 2 holds the completion statistics there (the
/// records are the `--completions` stream).
const SWARM_JSON_SCHEMA: u64 = 2;

/// The `btlab swarm --json` document: `schema`, then every field of the
/// run's metrics.
fn swarm_document(metrics: &bt_swarm::SwarmMetrics) -> serde_json::Value {
    use serde::Serialize;
    let mut fields = vec![(
        "schema".to_string(),
        serde_json::Value::UInt(SWARM_JSON_SCHEMA),
    )];
    if let serde_json::Value::Object(metrics) = metrics.to_value() {
        fields.extend(metrics);
    }
    serde_json::Value::Object(fields)
}

/// Executes a parsed command, writing human-readable output to `out`.
/// `swarm` and `doctor` write their artifacts to `run_dir` under fixed
/// names, and `trend` reads the ledger there by default.
///
/// # Errors
///
/// Returns a [`CliError`] for configuration, data, or I/O failures;
/// its [`CliError::exit_code`] tells the binary how to exit.
pub fn run<W: std::io::Write>(
    command: Command,
    run_dir: &Path,
    out: &mut W,
) -> Result<(), CliError> {
    let config_hash = command.config_hash();
    match command {
        Command::Help => write!(out, "{USAGE}").map_err(CliError::from),
        Command::Swarm(a) => {
            tracing::info!(target: "btlab", pieces = a.pieces, rounds = a.rounds, seed = a.seed; "running swarm simulation");
            let (metrics, _) = run_swarm(&a, "swarm", run_dir, |_| {})?;
            if a.json {
                let json = serde_json::to_string_pretty(&swarm_document(&metrics))
                    .map_err(|e| format!("serialization error: {e}"))?;
                writeln!(out, "{json}").map_err(CliError::from)
            } else {
                writeln!(
                    out,
                    "rounds={} arrivals={} completions={} mean_download_rounds={:.2}\n\
                     mean_bootstrap_rounds={:.2} final_entropy={:.3} final_population={} utilization={:.3}",
                    metrics.rounds_run,
                    metrics.arrivals,
                    metrics.completions.count(),
                    metrics.completions.mean_download_rounds(),
                    metrics.completions.mean_bootstrap_rounds(),
                    metrics.final_entropy(),
                    metrics.final_population(),
                    metrics.mean_utilization(),
                )
                .map_err(CliError::from)
            }
        }
        Command::Model(a) => {
            let params = bt_model::ModelParams::builder()
                .pieces(a.pieces)
                .max_connections(a.k)
                .neighbor_set_size(a.s)
                .alpha(a.alpha)
                .gamma(a.gamma)
                .build()
                .map_err(|e| e.to_string())?;
            tracing::info!(target: "btlab", pieces = a.pieces, replications = a.replications, seed = a.seed; "running analytical model");
            let timeline = bt_model::evolution::expected_timeline(
                &params,
                a.replications,
                bt_markov::SeedStream::new(a.seed).rng("btlab-model", 0),
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "expected_download_rounds={:.2} completed={}/{}\n\
                 mean_sojourns: bootstrap={:.2} efficient={:.2} last={:.2}",
                timeline.mean_step[a.pieces as usize],
                timeline.completed,
                timeline.replications,
                timeline.mean_sojourns[0],
                timeline.mean_sojourns[1],
                timeline.mean_sojourns[2],
            )
            .map_err(CliError::from)
        }
        Command::Traces(a) => {
            let scenario = match a.scenario.as_str() {
                "smooth" => bt_traces::generator::TraceScenario::Smooth,
                "last-phase" => bt_traces::generator::TraceScenario::LastPhase,
                "bootstrap-stall" => bt_traces::generator::TraceScenario::BootstrapStall,
                other => return Err(format!("unknown scenario `{other}`").into()),
            };
            tracing::info!(target: "btlab", scenario = a.scenario.as_str(), clients = a.clients, seed = a.seed; "generating traces");
            let traces = bt_traces::generator::generate(scenario, a.clients, a.seed)
                .map_err(|e| e.to_string())?;
            bt_traces::io::write_traces_to_path(&a.out, &traces).map_err(|e| e.to_string())?;
            writeln!(out, "wrote {} traces to {}", traces.len(), a.out).map_err(CliError::from)
        }
        Command::Figure(a) => {
            let table = bt_bench::tables::find(&a.id)
                .ok_or_else(|| format!("unknown figure id `{}`", a.id))?;
            tracing::info!(target: "btlab", id = table.name; "writing results table");
            Ok((table.write)(&mut bt_bench::tables::Runs::default(), out)?)
        }
        Command::Report(a) => run_report(&a, out),
        Command::Profile(a) => run_profile(&a, out),
        Command::Compare(a) => run_compare(&a, out),
        Command::Doctor(a) => run_doctor(&a, &config_hash, run_dir, out),
        Command::Trend(a) => run_trend(&a, run_dir, out),
        Command::Watch(a) => run_watch(&a, out),
        Command::Lint(a) => {
            let root = a.root.clone().unwrap_or_else(|| ".".to_string());
            tracing::info!(target: "btlab", root = root.as_str(); "running static analysis");
            let analysis = bt_lint::analyze_workspace(std::path::Path::new(&root))
                .map_err(|e| format!("cannot lint {root}: {e}"))?;
            let report = analysis.report;
            if a.stage_matrix {
                // The matrix replaces the findings on stdout, but the
                // lint gate still applies: a dirty tree must not be able
                // to regenerate the committed baseline quietly.
                write!(out, "{}", analysis.matrix.render_json())?;
            } else if a.json {
                write!(out, "{}", report.render_json())?;
            } else {
                write!(out, "{}", report.render_text())?;
            }
            let blocking = report.blocking_count();
            if blocking > 0 {
                return Err(format!("bt-lint found {blocking} blocking finding(s)").into());
            }
            Ok(())
        }
        Command::Analyze(a) => {
            tracing::info!(target: "btlab", input = a.input.as_str(); "analyzing traces");
            let traces = bt_traces::io::read_traces_from_path(&a.input).map_err(|e| match e {
                bt_traces::Error::Io(e) => read_error(&format!("traces {}", a.input), e),
                other => CliError::Invalid(format!("cannot read traces {}: {other}", a.input)),
            })?;
            if traces.is_empty() {
                return Err(CliError::Invalid(format!(
                    "traces {} holds no complete trace",
                    a.input
                )));
            }
            writeln!(
                out,
                "{:<30} {:>10} {:>10} {:>10}  completed",
                "client", "bootstrap", "efficient", "last"
            )?;
            for trace in &traces {
                let phases = bt_traces::analyzer::segment(trace);
                writeln!(
                    out,
                    "{:<30} {:>9.0}s {:>9.0}s {:>9.0}s  {}",
                    trace.client,
                    phases.bootstrap_secs,
                    phases.efficient_secs,
                    phases.last_secs,
                    trace.completed
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests;
