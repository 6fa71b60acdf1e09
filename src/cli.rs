//! Argument parsing and command execution for the `btlab` CLI.
//!
//! A deliberately small hand-rolled parser (no external dependency):
//! `btlab <command> [--flag value]...`. Parsing is separated from
//! execution so it can be unit-tested.
//!
//! The global `--log` / `--log-filter` flags are position-independent and
//! stripped by [`extract_log_options`] before command parsing, so every
//! subcommand accepts them without having to declare them.

use std::collections::BTreeMap;

use bt_obs::LogMode;

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
    /// Compare two profiles (or bench manifests) stage by stage.
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

    /// The RNG seed the command will run with, where it has one.
    #[must_use]
    pub fn seed(&self) -> Option<u64> {
        match self {
            Command::Swarm(a) => Some(a.seed),
            Command::Model(a) => Some(a.seed),
            Command::Traces(a) => Some(a.seed),
            Command::Report(a) => Some(a.seed),
            Command::Doctor(a) => Some(a.swarm.seed),
            Command::Analyze(_)
            | Command::Figure(_)
            | Command::Profile(_)
            | Command::Compare(_)
            | Command::Trend(_)
            | Command::Watch(_)
            | Command::Lint(_)
            | Command::Help => None,
        }
    }

    /// The run's identity hash, recorded as `config_hash` in the
    /// manifest, the ledger and the doctor's bundle directory name.
    /// For `swarm` and `doctor` it covers only what the run simulates
    /// and checks, so runs that differ in threads, artifact paths,
    /// heartbeat cadence or output format share one identity. Other
    /// commands hash their parsed arguments.
    #[must_use]
    pub fn config_hash(&self) -> String {
        let identity = match self {
            Command::Swarm(a) => swarm_identity(a),
            Command::Doctor(a) => swarm_identity(&a.swarm).map(|swarm| {
                format!(
                    "{swarm}|cadence={} floor={} min_population={} stall_rounds={:?} fault={:?}",
                    a.cadence, a.floor, a.min_population, a.stall_rounds, a.inject_fault
                )
            }),
            _ => None,
        };
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
/// input artifacts go through [`read_error`] instead.
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
    /// Emit full metrics as JSON instead of a summary.
    pub json: bool,
    /// Number of observer peers for per-peer telemetry and phase
    /// detection.
    pub observers: u32,
    /// Telemetry stream output path.
    pub telemetry: Option<String>,
    /// Telemetry stream format: jsonl or csv.
    pub telemetry_format: String,
    /// Sample every Nth round.
    pub telemetry_stride: u64,
    /// Round stages removed from the default pipeline (ablation runs).
    pub disabled_stages: Vec<String>,
    /// Cost-attribution profile output path (`profile.json`; folded
    /// stacks and per-round series land next to it).
    pub profile: Option<String>,
    /// Cohort trace output path (binary-framed `.cohort` stream).
    pub cohort: Option<String>,
    /// Reservoir size of the sampled peer cohort.
    pub cohort_size: u32,
    /// Worker threads for the parallel plan phases. Output bytes are
    /// identical at every value; only wall time changes.
    pub threads: u32,
    /// Tracker re-announce interval in rounds (1 = every round).
    pub reannounce: u64,
    /// Run directory for heartbeat artifacts (`run.heartbeat.jsonl` +
    /// `run.status.json`), the files `btlab watch` tails.
    pub heartbeat: Option<String>,
    /// Heartbeat emission cadence in wall seconds (0 beats every round).
    pub heartbeat_secs: f64,
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
            telemetry_format: "jsonl".to_string(),
            telemetry_stride: 1,
            disabled_stages: Vec::new(),
            profile: None,
            cohort: None,
            cohort_size: 16,
            threads: 1,
            reannounce: 1,
            heartbeat: None,
            heartbeat_secs: 1.0,
        }
    }
}

/// Arguments of `btlab profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArgs {
    /// The profile.json to summarize.
    pub input: String,
    /// How many hottest peers to list.
    pub top: usize,
    /// Emit the report as stable machine-readable JSON instead of the
    /// human table.
    pub json: bool,
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
    /// Where diagnosis bundles land; defaults to the manifest directory
    /// (`$BT_MANIFEST_DIR` or `results/`).
    pub bundle_dir: Option<String>,
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
            bundle_dir: None,
            inject_fault: None,
        }
    }
}

/// Arguments of `btlab trend`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendArgs {
    /// Ledger file to read; defaults to `$BT_LEDGER_PATH`, then
    /// `ledger.jsonl` under the manifest directory.
    pub ledger: Option<String>,
    /// How many trailing records to render.
    pub last: usize,
    /// Relative slack before a metric is flagged as regressed.
    pub tolerance: f64,
    /// Ledger size cap: the ledger is rotated (oldest records archived
    /// to a `.1` sibling) before reading once it exceeds this.
    pub max_ledger_bytes: u64,
}

impl Default for TrendArgs {
    fn default() -> Self {
        TrendArgs {
            ledger: None,
            last: 10,
            tolerance: 0.10,
            max_ledger_bytes: bt_obs::DEFAULT_MAX_LEDGER_BYTES,
        }
    }
}

/// Arguments of `btlab compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Baseline profile.json or BENCH manifest.
    pub baseline: String,
    /// Candidate profile.json or BENCH manifest.
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

/// Arguments of `btlab watch`.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchArgs {
    /// Run directory holding `run.status.json` and
    /// `run.heartbeat.jsonl` (a run launched with `--heartbeat`).
    pub dir: String,
    /// Fail (exit 1) when a running status stops changing for this many
    /// wall seconds; `None` waits forever.
    pub timeout_secs: Option<f64>,
    /// Poll cadence in wall seconds.
    pub interval_secs: f64,
    /// Emit one JSON status document per change instead of the
    /// human progress line.
    pub json: bool,
}

/// Arguments of `btlab report`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// Telemetry stream to read (JSON lines).
    pub telemetry: Option<String>,
    /// Cohort trace to summarize (binary `.cohort` stream).
    pub cohort: Option<String>,
    /// Export the parsed cohort trace as JSON lines to this path.
    pub cohort_export: Option<String>,
    /// Optional run manifest to cross-check.
    pub manifest: Option<String>,
    /// Bootstrap inflow α for the model comparison.
    pub alpha: f64,
    /// Last-phase inflow γ for the model comparison.
    pub gamma: f64,
    /// Monte-Carlo replications for the model comparison.
    pub replications: usize,
    /// RNG seed of the model comparison.
    pub seed: u64,
    /// Fail (exit 1) when the manifest cross-check prints a warning.
    pub strict: bool,
}

impl Default for ReportArgs {
    fn default() -> Self {
        ReportArgs {
            telemetry: None,
            cohort: None,
            cohort_export: None,
            manifest: None,
            alpha: 0.25,
            gamma: 0.15,
            replications: 200,
            seed: 0,
            strict: false,
        }
    }
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
                [--observers N] [--telemetry FILE]
                [--telemetry-format jsonl|csv] [--telemetry-stride N]
                [--disable-stage NAME[,NAME..]]
                [--profile FILE] [--cohort FILE] [--cohort-size N]
                [--threads N] [--reannounce R]
                [--heartbeat DIR] [--heartbeat-secs S]
  btlab model   [--pieces N] [--k N] [--s N] [--alpha F] [--gamma F]
                [--replications N] [--seed N]
  btlab report  [--telemetry FILE] [--cohort FILE] [--cohort-export FILE]
                [--manifest FILE] [--alpha F] [--gamma F]
                [--replications N] [--seed N] [--strict]
  btlab profile PROFILE.json [--top N] [--json]
  btlab compare BASELINE CANDIDATE [--tolerance F] [--obs-budget PCT]
                [--mem-budget PCT]
  btlab compare MANIFEST --obs-budget PCT
  btlab watch   RUN_DIR [--timeout-secs S] [--interval-secs S] [--json]
  btlab doctor  [all swarm flags] [--cadence N] [--floor F]
                [--min-population N] [--stall-rounds R] [--bundle-dir DIR]
                [--inject-fault KIND@ROUND]
  btlab trend   [--ledger FILE] [--last N] [--tolerance F]
                [--max-ledger-bytes N]
  btlab traces  --out FILE [--scenario smooth|last-phase|bootstrap-stall]
                [--clients N] [--seed N]
  btlab analyze --input FILE
  btlab figure  --id NAME
  btlab lint    [--root DIR] [--format text|json] [--stage-matrix]
  btlab help

TELEMETRY (btlab swarm):
  --telemetry FILE streams one record per line: a Meta header, then
  per-round Sample records (population, entropy, availability histogram,
  piece-count quantiles, slot utilization) plus Phase transitions of the
  --observers peers. `btlab report` summarizes a JSONL stream and
  compares detected phase boundaries against the analytical model.
  Anomaly capture is the doctor's job: entropy collapse and observer
  stalls (`btlab doctor --observers N --stall-rounds R`) write a
  diagnosis bundle.

PROFILING (btlab swarm / profile / compare):
  --profile FILE records a deterministic cost-attribution profile: per
  round x per stage wall time plus work counters (candidate comparisons,
  handout entries, bitfield words, piece transfers, slab probes). It
  writes FILE (summary JSON), FILE with a .folded extension (flamegraph
  folded stacks), and FILE with a .rounds.jsonl extension (per-round
  series). Profiling never touches the simulation RNG, so profiled runs
  are byte-identical to unprofiled ones. `btlab profile` summarizes a
  recorded profile (hottest stages, work per round, top peers);
  `btlab compare` diffs two profiles — or two run manifests such as
  manifest-swarm.json — stage by stage and exits 1 when the candidate
  regresses beyond --tolerance (default 0.10 = 10%).

COHORT TRACING (btlab swarm / report):
  --cohort FILE attaches a deterministic reservoir-sampled peer cohort
  of --cohort-size members (default 16) and streams their full
  lifecycles — join, piece acquisitions with source, connection-slot
  changes, phase transitions, shakes, handouts, departure — as a
  compact binary-framed trace. Membership is drawn from a private RNG
  salted off the run seed, so traced runs are byte-identical to bare
  ones. `btlab report --cohort FILE` renders per-peer trajectories;
  --cohort-export FILE re-emits the trace as JSON lines.

OBSERVER OVERHEAD (btlab compare --obs-budget):
  Run manifests record the wall-time share spent inside observers
  (obs.* phase timers: telemetry capture, doctor checks, heartbeats) as
  obs_share. `btlab compare MANIFEST --obs-budget PCT` (one positional)
  gates that share alone; with two positionals the gate rides along the
  regression diff. Over budget exits 1; gating a profile report (which
  records no obs_share) exits 2.

HEARTBEATS (btlab swarm --heartbeat / watch):
  --heartbeat DIR streams wall-clock-cadenced progress records (round,
  rounds/sec, ETA to --rounds, swarm phase, entropy, observer share,
  current/peak RSS) to DIR/run.heartbeat.jsonl and atomically replaces
  DIR/run.status.json on every beat (default cadence 1s; tune with
  --heartbeat-secs). The heartbeat is an observer: it makes no model-RNG
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
  by more than PCT percent; inputs without memory telemetry (profile
  reports, pre-memory manifests) exit 2. `btlab trend` charts peak RSS
  per run.

DOCTOR (btlab doctor / trend):
  `btlab doctor` runs a swarm with the runtime invariant monitors
  sampling every --cadence rounds: piece conservation, replication index
  vs oracle recount, entropy floor (one-club collapse), per-observer
  phase monotonicity, and connection-slot balance. --stall-rounds R adds
  observer-stall: an --observers peer with no piece progress for R
  rounds (e.g. on an empty potential set). On the first violation it
  writes a diagnosis bundle (meta.json, flight.json with the last
  checks, telemetry.jsonl, peers.json, profile.json when profiling) to
  `--bundle-dir/diagnosis-<run>/` and exits 1. --inject-fault KIND@ROUND
  corrupts the swarm deliberately to validate the monitors; kinds:
  unaccounted-piece, index-drift, half-open-connection. Every swarm and
  doctor run appends one compact record (seed, config hash, pipeline,
  rounds/sec, stage p95s, violation count) to the cross-run ledger
  (`$BT_LEDGER_PATH`, default results/ledger.jsonl). The config hash
  covers what the run simulates and checks (configuration, pipeline,
  monitor settings, injected fault), never threads, artifact paths or
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
  Streams (telemetry, heartbeat, ledger) are read up to their last
  complete record; a missing file, a malformed complete line, or a
  torn document (manifest, profile, status) exits 2.

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
writes a JSON manifest (counters, phase timings, config hash) under
results/ or $BT_MANIFEST_DIR.
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
    // profile/compare/watch take positional paths, which parse_flags
    // rejects.
    match cmd.as_str() {
        "profile" => return parse_profile(rest),
        "compare" => return parse_compare(rest),
        "watch" => return parse_watch(rest),
        _ => {}
    }
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "swarm" => {
            let mut a = SwarmArgs::default();
            for (key, value) in &flags {
                if !apply_swarm_flag(&mut a, key, value)? {
                    return Err(format!("unknown flag --{key} for swarm"));
                }
            }
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
                    "bundle-dir" => a.bundle_dir = Some(required(key, value)?),
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
                    "cohort-export" => a.cohort_export = Some(required(key, value)?),
                    "manifest" => a.manifest = Some(required(key, value)?),
                    "alpha" => a.alpha = num(key, value)?,
                    "gamma" => a.gamma = num(key, value)?,
                    "replications" => a.replications = num(key, value)?,
                    "seed" => a.seed = num(key, value)?,
                    "strict" => a.strict = flag(key, value)?,
                    _ => return Err(format!("unknown flag --{key} for report")),
                }
            }
            if a.telemetry.is_none() && a.cohort.is_none() {
                return Err("report requires --telemetry FILE and/or --cohort FILE".to_string());
            }
            if a.cohort_export.is_some() && a.cohort.is_none() {
                return Err("--cohort-export requires --cohort FILE".to_string());
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

/// Applies one `--key value` pair to `a` when the key is a swarm-run
/// flag, so commands embedding a swarm run (`swarm`, `doctor`) share
/// one flag table. Returns `Ok(false)` for keys the swarm does not
/// know, leaving the caller to reject or claim them.
fn apply_swarm_flag(a: &mut SwarmArgs, key: &str, value: &str) -> Result<bool, String> {
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
        "telemetry" => a.telemetry = Some(required(key, value)?),
        "telemetry-format" => {
            let format = required(key, value)?;
            // Validate eagerly; the recorder re-parses at run time.
            format
                .parse::<bt_swarm::TelemetryFormat>()
                .map_err(|e| format!("--{key}: {e}"))?;
            a.telemetry_format = format;
        }
        "telemetry-stride" => a.telemetry_stride = num(key, value)?,
        "cohort" => a.cohort = Some(required(key, value)?),
        "cohort-size" => {
            a.cohort_size = num(key, value)?;
            if a.cohort_size == 0 {
                return Err("--cohort-size must be >= 1".to_string());
            }
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
        "heartbeat" => a.heartbeat = Some(required(key, value)?),
        "heartbeat-secs" => {
            a.heartbeat_secs = num(key, value)?;
            if a.heartbeat_secs < 0.0 {
                return Err(format!(
                    "--heartbeat-secs must be >= 0, got {}",
                    a.heartbeat_secs
                ));
            }
        }
        "profile" => a.profile = Some(required(key, value)?),
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
fn parse_fault(text: &str) -> Result<bt_swarm::FaultSpec, String> {
    let (kind, round) = text
        .split_once('@')
        .ok_or_else(|| format!("--inject-fault needs KIND@ROUND, got `{text}`"))?;
    let kind: bt_swarm::FaultKind = kind.parse()?;
    let round: u64 = round
        .parse()
        .map_err(|_| format!("--inject-fault round must be a number, got `{round}`"))?;
    Ok(bt_swarm::FaultSpec { round, kind })
}

fn parse_profile(rest: &[String]) -> Result<Command, String> {
    let (positionals, flag_tokens) = split_positionals(rest);
    let flags = parse_flags(&flag_tokens)?;
    let mut input = None;
    let mut top = 10usize;
    let mut json = false;
    for (key, value) in &flags {
        match key.as_str() {
            "input" => input = Some(required(key, value)?),
            "top" => top = num(key, value)?,
            "json" => json = flag(key, value)?,
            _ => return Err(format!("unknown flag --{key} for profile")),
        }
    }
    if positionals.len() > 1 {
        return Err(format!(
            "profile takes one PROFILE.json path, got {}",
            positionals.len()
        ));
    }
    let input = positionals
        .into_iter()
        .next()
        .or(input)
        .ok_or("profile requires a PROFILE.json path")?;
    Ok(Command::Profile(ProfileArgs { input, top, json }))
}

fn parse_compare(rest: &[String]) -> Result<Command, String> {
    let (mut positionals, flag_tokens) = split_positionals(rest);
    let flags = parse_flags(&flag_tokens)?;
    let mut tolerance = 0.10f64;
    let mut obs_budget = None;
    let mut mem_budget = None;
    for (key, value) in &flags {
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
    if let Some(budget) = obs_budget {
        if !(0.0..=100.0).contains(&budget) {
            return Err(format!("--obs-budget is a percentage (0..=100), got {budget}"));
        }
    }
    if let Some(budget) = mem_budget {
        if !(0.0..=100.0).contains(&budget) {
            return Err(format!("--mem-budget is a percentage (0..=100), got {budget}"));
        }
    }
    // With --obs-budget, a single manifest path gates observer overhead
    // alone (baseline == candidate, no regression comparison). The
    // memory gate has no such mode: peak RSS is only meaningful
    // relative to a baseline.
    if positionals.len() == 1 && mem_budget.is_some() {
        return Err(
            "--mem-budget compares peak RSS against a baseline; pass BASELINE and \
             CANDIDATE paths"
                .to_string(),
        );
    }
    if positionals.len() == 1 && obs_budget.is_some() {
        let path = positionals.pop().unwrap_or_default();
        return Ok(Command::Compare(CompareArgs {
            baseline: path.clone(),
            candidate: path,
            tolerance,
            obs_budget,
            mem_budget,
        }));
    }
    if positionals.len() != 2 {
        return Err(format!(
            "compare takes BASELINE and CANDIDATE paths (or one manifest with --obs-budget), \
             got {} positional argument(s)",
            positionals.len()
        ));
    }
    let candidate = positionals.pop().unwrap_or_default();
    let baseline = positionals.pop().unwrap_or_default();
    Ok(Command::Compare(CompareArgs {
        baseline,
        candidate,
        tolerance,
        obs_budget,
        mem_budget,
    }))
}

fn parse_watch(rest: &[String]) -> Result<Command, String> {
    let (positionals, flag_tokens) = split_positionals(rest);
    let flags = parse_flags(&flag_tokens)?;
    let mut timeout_secs = None;
    let mut interval_secs = 1.0f64;
    let mut json = false;
    for (key, value) in &flags {
        match key.as_str() {
            "timeout-secs" => timeout_secs = Some(num(key, value)?),
            "interval-secs" => interval_secs = num(key, value)?,
            "json" => json = flag(key, value)?,
            _ => return Err(format!("unknown flag --{key} for watch")),
        }
    }
    if let Some(timeout) = timeout_secs {
        if timeout <= 0.0 {
            return Err(format!("--timeout-secs must be > 0, got {timeout}"));
        }
    }
    if interval_secs <= 0.0 {
        return Err(format!("--interval-secs must be > 0, got {interval_secs}"));
    }
    if positionals.len() != 1 {
        return Err(format!(
            "watch takes one RUN_DIR path, got {} positional argument(s)",
            positionals.len()
        ));
    }
    let dir = positionals.into_iter().next().unwrap_or_default();
    Ok(Command::Watch(WatchArgs {
        dir,
        timeout_secs,
        interval_secs,
        json,
    }))
}

/// Separates bare positional arguments from `--flag [value]` tokens so
/// the latter can go through [`parse_flags`] (which rejects positionals).
fn split_positionals(rest: &[String]) -> (Vec<String>, Vec<String>) {
    let mut positionals = Vec::new();
    let mut flag_tokens = Vec::new();
    let mut iter = rest.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg.starts_with("--") {
            flag_tokens.push(arg.clone());
            if let Some(next) = iter.peek() {
                if !next.starts_with("--") {
                    flag_tokens.push(iter.next().cloned().unwrap_or_default());
                }
            }
        } else {
            positionals.push(arg.clone());
        }
    }
    (positionals, flag_tokens)
}

/// Splits `--key value` pairs; a trailing `--key` with no value maps to an
/// empty string (boolean flags). A repeated flag is an error rather than
/// a silent last-one-wins.
fn parse_flags(rest: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut iter = rest.iter().peekable();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{arg}`"));
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
    Ok(flags)
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

/// The configuration a `btlab swarm` / `btlab doctor` run drives.
fn swarm_config(a: &SwarmArgs) -> Result<bt_swarm::SwarmConfig, String> {
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
    swarm_stages(a, &config).iter().map(|s| s.name().to_string()).collect()
}

/// What a run of `a` simulates: the serialized configuration and the
/// stages it executes. `None` when the flags form no valid
/// configuration.
fn swarm_identity(a: &SwarmArgs) -> Option<String> {
    let config = serde_json::to_string(&swarm_config(a).ok()?).ok()?;
    Some(format!("{config}|{}", swarm_pipeline_names(a).join(",")))
}

/// Builds the swarm a `btlab swarm` / `btlab doctor` run drives:
/// config, optional stage ablation, telemetry stream, cohort trace and
/// a heartbeat that names `command`.
fn build_swarm(a: &SwarmArgs, command: &str) -> Result<bt_swarm::Swarm, String> {
    let config = swarm_config(a)?;
    if !a.disabled_stages.is_empty() {
        tracing::info!(target: "btlab", disabled = a.disabled_stages.join(",").as_str(); "stage ablation active");
    }
    let stages = swarm_stages(a, &config);
    let mut swarm = bt_swarm::Swarm::with_pipeline(config, bt_obs::Registry::global(), stages);
    swarm.set_threads(a.threads);
    if let Some(path) = &a.telemetry {
        let format: bt_swarm::TelemetryFormat = a.telemetry_format.parse()?;
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create telemetry file {path}: {e}"))?;
        let recorder = bt_swarm::TelemetryRecorder::new(bt_swarm::TelemetryOptions {
            stride: a.telemetry_stride,
            format,
            ..bt_swarm::TelemetryOptions::default()
        })
        .to_writer(Box::new(std::io::BufWriter::new(file)));
        swarm.attach_telemetry(recorder);
    }
    if let Some(path) = &a.cohort {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create cohort file {path}: {e}"))?;
        swarm.attach_cohort(
            a.cohort_size,
            Box::new(std::io::BufWriter::new(file)),
        );
    }
    if let Some(dir) = &a.heartbeat {
        let emitter = bt_obs::HeartbeatEmitter::new(
            bt_obs::HeartbeatOptions {
                dir: std::path::PathBuf::from(dir),
                interval: std::time::Duration::from_secs_f64(a.heartbeat_secs),
                command: command.to_string(),
                seed: a.seed,
                target_rounds: a.rounds,
            },
            bt_obs::Registry::global(),
        )
        .map_err(|e| format!("cannot create heartbeat artifacts in {dir}: {e}"))?;
        swarm.attach_heartbeat(emitter);
    }
    Ok(swarm)
}

/// Runs the swarm `a` describes as `command`: builds it, lets `attach`
/// add a doctor or a fault, attaches the profiler under `--profile`,
/// runs it to its stop condition and writes the profile artifacts.
fn run_swarm(
    a: &SwarmArgs,
    command: &str,
    attach: impl FnOnce(&mut bt_swarm::Swarm),
) -> Result<(bt_swarm::SwarmMetrics, Option<bt_swarm::DoctorReport>), CliError> {
    let mut swarm = build_swarm(a, command)?;
    attach(&mut swarm);
    if a.profile.is_some() {
        swarm.attach_profiler(bt_obs::ProfileOptions {
            seed: a.seed,
            ..bt_obs::ProfileOptions::default()
        });
    }
    let (metrics, profile, report) = swarm.run_diagnosed();
    if let Some(profile_path) = &a.profile {
        profile
            .write_artifacts(std::path::Path::new(profile_path))
            .map_err(|e| format!("cannot write profile {profile_path}: {e}"))?;
        tracing::info!(target: "btlab", path = profile_path.as_str(); "profile written");
    }
    Ok((metrics, report))
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] for configuration, data, or I/O failures;
/// its [`CliError::exit_code`] tells the binary how to exit.
pub fn run<W: std::io::Write>(command: Command, out: &mut W) -> Result<(), CliError> {
    let config_hash = command.config_hash();
    match command {
        Command::Help => write!(out, "{USAGE}").map_err(CliError::from),
        Command::Swarm(a) => {
            tracing::info!(target: "btlab", pieces = a.pieces, rounds = a.rounds, seed = a.seed; "running swarm simulation");
            let (metrics, _) = run_swarm(&a, "swarm", |_| {})?;
            if let Some(path) = &a.telemetry {
                tracing::info!(target: "btlab", path = path.as_str(); "telemetry stream written");
            }
            if let Some(path) = &a.cohort {
                tracing::info!(target: "btlab", path = path.as_str(), size = a.cohort_size; "cohort trace written");
            }
            if a.json {
                let json = serde_json::to_string_pretty(&metrics)
                    .map_err(|e| format!("serialization error: {e}"))?;
                writeln!(out, "{json}").map_err(CliError::from)
            } else {
                writeln!(
                    out,
                    "rounds={} arrivals={} completions={} mean_download_rounds={:.2}\n\
                     mean_bootstrap_rounds={:.2} final_entropy={:.3} final_population={} utilization={:.3}",
                    metrics.rounds_run,
                    metrics.arrivals,
                    metrics.completions.len(),
                    metrics.mean_download_rounds(),
                    metrics.mean_bootstrap_rounds(),
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
                bt_des::SeedStream::new(a.seed).rng("btlab-model", 0),
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
        Command::Doctor(a) => run_doctor(&a, &config_hash, out),
        Command::Trend(a) => run_trend(&a, out),
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

/// Executes `btlab report`: summarizes a JSONL telemetry stream —
/// entropy trajectory and per-observer phase boundaries —
/// and compares mean observer boundaries against the analytical model;
/// and/or summarizes a binary `.cohort` trace as per-peer lifecycle
/// trajectories (with an optional `--cohort-export` JSONL export).
/// Under `--strict`, any manifest cross-check warning fails the run.
fn run_report<W: std::io::Write>(a: &ReportArgs, out: &mut W) -> Result<(), CliError> {
    let mut warnings: Vec<String> = Vec::new();
    if let Some(telemetry) = &a.telemetry {
        report_telemetry(a, telemetry, out, &mut warnings)?;
    }
    if let Some(cohort) = &a.cohort {
        report_cohort(a, cohort, out)?;
    }
    if a.strict && !warnings.is_empty() {
        return Err(CliError::Failure(format!(
            "--strict: {} manifest warning(s):\n  {}",
            warnings.len(),
            warnings.join("\n  ")
        )));
    }
    Ok(())
}

/// The telemetry half of `btlab report`, read up to the stream's last
/// complete record. A malformed line, an empty stream, a stream with no
/// Meta header, and a headed stream with zero samples are all malformed
/// input data ([`CliError::Invalid`], exit 2) — the usual causes are a
/// run interrupted before its first sample or a CSV-format stream.
fn report_telemetry<W: std::io::Write>(
    a: &ReportArgs,
    telemetry: &str,
    out: &mut W,
    warnings: &mut Vec<String>,
) -> Result<(), CliError> {
    use bt_swarm::telemetry::{ObserverBoundaries, TelemetryRecord};

    tracing::info!(target: "btlab", telemetry = telemetry; "reporting on telemetry");
    let what = format!("telemetry {telemetry}");
    let file = std::fs::File::open(telemetry).map_err(|e| read_error(&what, e))?;
    let records: Vec<TelemetryRecord> =
        bt_obs::records::read_lines(std::io::BufReader::new(file), "telemetry")
            .map_err(|e| read_error(&what, e))?;
    if records.is_empty() {
        return Err(CliError::Invalid(format!(
            "telemetry stream {telemetry} is empty (no records); \
             was the run interrupted before it wrote anything?"
        )));
    }
    let meta = records
        .iter()
        .find_map(|r| match r {
            TelemetryRecord::Meta(m) => Some(m.clone()),
            _ => None,
        })
        .ok_or_else(|| {
            CliError::Invalid(format!(
                "telemetry stream {telemetry} has no Meta header; \
                 report needs the jsonl format"
            ))
        })?;

    writeln!(out, "telemetry report: {telemetry}")?;
    writeln!(
        out,
        "config: pieces={} k={} s={} seed={} stride={}",
        meta.pieces, meta.max_connections, meta.neighbor_set_size, meta.seed, meta.stride
    )?;

    let samples: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::Sample(s) => Some(s),
            _ => None,
        })
        .collect();
    if samples.is_empty() {
        return Err(CliError::Invalid(format!(
            "telemetry stream {telemetry} is truncated: Meta header present but no Sample \
             records; was the run interrupted, or the stride larger than the round budget?"
        )));
    }
    {
        let first = samples[0];
        let last = samples[samples.len() - 1];
        let min = samples
            .iter()
            .min_by(|x, y| x.entropy.total_cmp(&y.entropy))
            .expect("non-empty");
        let mean = samples.iter().map(|s| s.entropy).sum::<f64>() / samples.len() as f64;
        writeln!(
            out,
            "samples={} rounds={}..{} final_entropy={:.3} final_population={}",
            samples.len(),
            first.round,
            last.round,
            last.entropy,
            last.population
        )?;
        writeln!(
            out,
            "entropy trajectory: first={:.3} mean={:.3} min={:.3}@round{} final={:.3}",
            first.entropy, mean, min.entropy, min.round, last.entropy
        )?;
        writeln!(
            out,
            "final: extinct_pieces={} mean_degree={:.2} utilization={:.3}",
            last.extinct_pieces, last.mean_degree, last.slot_utilization
        )?;
    }

    // Per-observer phase boundaries, from the online detector's events.
    let mut by_peer: std::collections::BTreeMap<u64, Vec<bt_swarm::PhaseEvent>> =
        std::collections::BTreeMap::new();
    for r in &records {
        if let TelemetryRecord::Phase(e) = r {
            by_peer.entry(e.peer).or_default().push(*e);
        }
    }
    let mut durations: Vec<[f64; 3]> = Vec::new();
    if by_peer.is_empty() {
        writeln!(
            out,
            "observers=0 (run the swarm with --observers N to detect phases)"
        )?;
    } else {
        writeln!(out, "\ndetected phase boundaries (rounds):")?;
        writeln!(
            out,
            "{:>8} {:>6} {:>14} {:>14} {:>11}",
            "observer", "join", "bootstrap_end", "efficient_end", "completion"
        )?;
        for (peer, events) in &by_peer {
            let Some(b) = ObserverBoundaries::from_events(events) else {
                continue;
            };
            let col = |v: Option<u64>| v.map_or("-".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{:>8} {:>6} {:>14} {:>14} {:>11}",
                peer,
                b.join,
                col(b.bootstrap_end),
                col(b.efficient_end),
                col(b.completion)
            )?;
            if let Some(d) = b.durations() {
                durations.push(d);
            }
        }
    }

    // Compare mean observed boundaries against the model's predictions
    // for the same (B, k, s).
    let params = bt_model::ModelParams::builder()
        .pieces(meta.pieces)
        .max_connections(meta.max_connections)
        .neighbor_set_size(meta.neighbor_set_size)
        .alpha(a.alpha)
        .gamma(a.gamma)
        .build()
        .map_err(|e| e.to_string())?;
    let timeline = bt_model::evolution::expected_timeline(
        &params,
        a.replications,
        bt_des::SeedStream::new(a.seed).rng("btlab-report", 0),
    )
    .map_err(|e| e.to_string())?;
    let predicted = bt_model::PhaseBoundaries::from_mean_sojourns(timeline.mean_sojourns);
    writeln!(
        out,
        "\nmodel comparison (alpha={} gamma={} replications={}):",
        a.alpha, a.gamma, a.replications
    )?;
    if durations.is_empty() {
        writeln!(
            out,
            "predicted boundaries: bootstrap_end={:.1} efficient_end={:.1} completion={:.1}",
            predicted.bootstrap_end, predicted.efficient_end, predicted.completion
        )?;
        writeln!(out, "completed_observers=0 (nothing to compare)")?;
    } else {
        let n = durations.len() as f64;
        let mean_sojourns = [0, 1, 2].map(|i| durations.iter().map(|d| d[i]).sum::<f64>() / n);
        let observed = bt_model::PhaseBoundaries::from_mean_sojourns(mean_sojourns);
        writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>8}",
            "boundary", "predicted", "observed", "delta"
        )?;
        for (name, p, o) in [
            ("bootstrap_end", predicted.bootstrap_end, observed.bootstrap_end),
            ("efficient_end", predicted.efficient_end, observed.efficient_end),
            ("completion", predicted.completion, observed.completion),
        ] {
            writeln!(out, "{name:<14} {p:>10.1} {o:>10.1} {:>+8.1}", o - p)?;
        }
        writeln!(out, "completed_observers={}", durations.len())?;
    }

    if let Some(path) = &a.manifest {
        let manifest: bt_obs::RunManifest =
            bt_obs::records::read_doc(std::path::Path::new(path))
                .map_err(|e| read_error("manifest", e))?;
        writeln!(
            out,
            "\nmanifest: command={} seed={} wall_clock={:.2}s",
            manifest.command, manifest.seed, manifest.wall_clock_secs
        )?;
        if manifest.seed != meta.seed {
            let warning = format!(
                "manifest seed {} differs from telemetry seed {}",
                manifest.seed, meta.seed
            );
            writeln!(out, "warning: {warning}")?;
            warnings.push(warning);
        }
        if !manifest.phase_timers.is_empty() {
            writeln!(
                out,
                "{:<18} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9}",
                "phase", "total_s", "count", "p50_ms", "p95_ms", "p99_ms", "max_ms"
            )?;
            for (name, t) in &manifest.phase_timers {
                writeln!(
                    out,
                    "{:<18} {:>9.3} {:>7} {:>9} {:>9} {:>9} {:>9}",
                    name,
                    t.total_secs,
                    t.count,
                    ms(t.p50_ns),
                    ms(t.p95_ns),
                    ms(t.p99_ns),
                    ms(t.max_ns)
                )?;
            }
        }
        if !manifest.pipeline.is_empty() {
            writeln!(out, "pipeline: {}", manifest.pipeline.join(" -> "))?;
            if !manifest.disabled_stages.is_empty() {
                writeln!(out, "disabled stages: {}", manifest.disabled_stages.join(", "))?;
            }
            // Cross-check the recorded configuration against the timers
            // the run actually exercised: a `round.<stage>` timer with
            // samples for a stage missing from the pipeline (or a listed
            // stage that never ran) means the manifest and the run
            // disagree.
            for (name, t) in &manifest.phase_timers {
                if let Some(stage) = name.strip_prefix("round.") {
                    if t.count > 0 && !manifest.pipeline.iter().any(|s| s == stage) {
                        let warning = format!(
                            "timer {name} recorded {} samples but stage `{stage}` \
                             is not in the manifest pipeline",
                            t.count
                        );
                        writeln!(out, "warning: {warning}")?;
                        warnings.push(warning);
                    }
                }
            }
            for stage in &manifest.pipeline {
                let timer = format!("round.{stage}");
                let ran = manifest
                    .phase_timers
                    .iter()
                    .any(|(name, t)| *name == timer && t.count > 0);
                if !ran {
                    let warning = format!(
                        "pipeline stage `{stage}` has no recorded {timer} timer samples"
                    );
                    writeln!(out, "warning: {warning}")?;
                    warnings.push(warning);
                }
            }
        }
    }
    Ok(())
}

/// Human-readable name of a cohort phase ordinal.
fn phase_name(phase: u8) -> &'static str {
    match phase {
        0 => "bootstrap",
        1 => "efficient",
        2 => "last-download",
        3 => "done",
        _ => "?",
    }
}

/// Per-peer lifecycle rollup accumulated from a cohort trace.
#[derive(Default)]
struct CohortTrajectory {
    join: Option<u64>,
    evict: Option<u64>,
    depart: Option<u64>,
    acquires: u64,
    slot_opens: u64,
    slot_closes: u64,
    shakes: u64,
    handouts: u64,
    observes: u64,
    last_pieces: u32,
    last_connections: u32,
    last_phase: Option<u8>,
}

/// The cohort half of `btlab report`: parses the binary `.cohort`
/// stream, prints one trajectory line per traced peer, and optionally
/// exports the parsed trace as JSON lines. A header-only or unreadable
/// trace is malformed input data ([`CliError::Invalid`], exit 2).
fn report_cohort<W: std::io::Write>(
    a: &ReportArgs,
    cohort: &str,
    out: &mut W,
) -> Result<(), CliError> {
    tracing::info!(target: "btlab", cohort = cohort; "reporting on cohort trace");
    let file = std::fs::File::open(cohort)
        .map_err(|e| CliError::Invalid(format!("cannot read cohort {cohort}: {e}")))?;
    let (meta, events) = bt_obs::read_cohort(std::io::BufReader::new(file))
        .map_err(|e| CliError::Invalid(format!("cannot parse cohort {cohort}: {e}")))?;
    if events.is_empty() {
        return Err(CliError::Invalid(format!(
            "cohort trace {cohort} has a header but no events; \
             was the run interrupted before any peer joined?"
        )));
    }
    if a.telemetry.is_some() {
        writeln!(out)?;
    }
    writeln!(out, "cohort trace: {cohort}")?;
    writeln!(
        out,
        "seed={} reservoir={} events={}",
        meta.seed,
        meta.size,
        events.len()
    )?;

    let mut by_peer: std::collections::BTreeMap<u64, CohortTrajectory> =
        std::collections::BTreeMap::new();
    for event in &events {
        let t = by_peer.entry(event.peer()).or_default();
        match event {
            bt_obs::CohortEvent::Join(e) => t.join = Some(e.round),
            bt_obs::CohortEvent::Evict(e) => t.evict = Some(e.round),
            bt_obs::CohortEvent::Acquire(_) => t.acquires += 1,
            bt_obs::CohortEvent::Slot(e) => {
                if e.opened {
                    t.slot_opens += 1;
                } else {
                    t.slot_closes += 1;
                }
            }
            bt_obs::CohortEvent::Phase(e) => t.last_phase = Some(e.phase),
            bt_obs::CohortEvent::Observe(e) => {
                t.observes += 1;
                t.last_pieces = e.pieces;
                t.last_connections = e.connections;
            }
            bt_obs::CohortEvent::Shake(_) => t.shakes += 1,
            bt_obs::CohortEvent::Depart(e) => {
                t.depart = Some(e.round);
                t.last_pieces = e.pieces;
            }
            bt_obs::CohortEvent::Handout(_) => t.handouts += 1,
        }
    }
    writeln!(out, "\nper-peer trajectories:")?;
    writeln!(
        out,
        "{:>8} {:>6} {:>6} {:>8} {:>6} {:>6} {:>6} {:>6} {:>13}",
        "peer", "join", "end", "acquires", "opens", "closes", "shakes", "pieces", "phase"
    )?;
    for (peer, t) in &by_peer {
        // A trace ends by departure or eviction; "-" means the peer was
        // still traced when the run stopped.
        let end = t
            .depart
            .or(t.evict)
            .map_or("-".to_string(), |r| r.to_string());
        let join = t.join.map_or("-".to_string(), |r| r.to_string());
        let phase = match (t.depart, t.last_phase) {
            (Some(_), _) => "departed",
            (None, Some(p)) => phase_name(p),
            (None, None) => "-",
        };
        writeln!(
            out,
            "{peer:>8} {join:>6} {end:>6} {:>8} {:>6} {:>6} {:>6} {:>6} {phase:>13}",
            t.acquires, t.slot_opens, t.slot_closes, t.shakes, t.last_pieces
        )?;
    }
    writeln!(out, "peers traced: {}", by_peer.len())?;

    if let Some(export) = &a.cohort_export {
        let file = std::fs::File::create(export)
            .map_err(|e| format!("cannot create cohort export {export}: {e}"))?;
        bt_obs::write_cohort_jsonl(&meta, &events, std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write cohort export {export}: {e}"))?;
        writeln!(out, "cohort export (jsonl): {export}")?;
    }
    Ok(())
}

/// Formats an optional nanosecond quantile as milliseconds.
fn ms(ns: Option<u64>) -> String {
    ns.map_or("-".to_string(), |n| format!("{:.3}", n as f64 / 1e6))
}

/// Executes `btlab profile`: summarizes a recorded `profile.json` —
/// hottest stages by wall time, work counters with per-round averages,
/// and the hottest peers by attributed work. With `--json`, re-emits
/// the validated report as stable machine-readable JSON instead.
fn run_profile<W: std::io::Write>(a: &ProfileArgs, out: &mut W) -> Result<(), CliError> {
    let report: bt_obs::ProfileReport =
        bt_obs::records::read_doc(std::path::Path::new(&a.input))
            .map_err(|e| read_error("profile", e))?;
    if a.json {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("serialization error: {e}"))?;
        return Ok(writeln!(out, "{json}")?);
    }
    writeln!(out, "profile report: {}", a.input)?;
    writeln!(
        out,
        "seed={} rounds={} total={:.3}s rounds_per_sec={:.1}",
        report.seed, report.rounds, report.total_secs, report.rounds_per_sec
    )?;
    writeln!(
        out,
        "round latency (ms): p50={} p95={} p99={} max={}",
        ms(report.round_latency.p50_ns),
        ms(report.round_latency.p95_ns),
        ms(report.round_latency.p99_ns),
        ms(report.round_latency.max_ns)
    )?;

    writeln!(out, "\nhottest stages:")?;
    writeln!(
        out,
        "{:<12} {:>10} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "stage", "total_s", "share", "p50_ms", "p95_ms", "p99_ms", "max_ms"
    )?;
    let mut stages: Vec<&bt_obs::StageProfile> = report.stages.iter().collect();
    stages.sort_by(|x, y| y.total_secs.total_cmp(&x.total_secs));
    for s in &stages {
        writeln!(
            out,
            "{:<12} {:>10.6} {:>6.1}% {:>9} {:>9} {:>9} {:>9}",
            s.name,
            s.total_secs,
            s.share * 100.0,
            ms(s.latency.p50_ns),
            ms(s.latency.p95_ns),
            ms(s.latency.p99_ns),
            ms(s.latency.max_ns)
        )?;
    }

    let has_work = report.stages.iter().any(|s| !s.work.is_empty());
    if has_work && report.rounds > 0 {
        writeln!(
            out,
            "\nwork counters (totals and per-round average over {} rounds):",
            report.rounds
        )?;
        writeln!(
            out,
            "{:<12} {:<30} {:>14} {:>12}",
            "stage", "counter", "total", "per_round"
        )?;
        for s in &stages {
            for (counter, total) in &s.work {
                writeln!(
                    out,
                    "{:<12} {:<30} {:>14} {:>12.1}",
                    s.name,
                    counter,
                    total,
                    *total as f64 / report.rounds as f64
                )?;
            }
        }
    }

    if report.top_peers.is_empty() {
        writeln!(out, "\ntop peers: none attributed")?;
    } else {
        writeln!(out, "\ntop peers by attributed work:")?;
        writeln!(out, "{:>8} {:>14}", "peer", "work")?;
        for p in report.top_peers.iter().take(a.top) {
            writeln!(out, "{:>8} {:>14}", p.peer, p.work)?;
        }
    }
    Ok(())
}

/// One side of a `btlab compare`: per-stage wall seconds plus an
/// optional throughput figure, extracted from either artifact shape.
struct CompareSide {
    stages: Vec<(String, f64)>,
    rounds_per_sec: Option<f64>,
    /// Observer wall-time share from a run manifest; `None` for profile
    /// reports, which do not record it.
    obs_share: Option<f64>,
    obs_wall_secs: f64,
    /// Worker-thread count from a run manifest (pre-field manifests
    /// count as 1); `None` for profile reports. Timing comparisons are
    /// only meaningful at equal thread counts.
    threads: Option<u32>,
    /// Peak resident-set size from a run manifest; `None` for profile
    /// reports, 0 for manifests written before memory telemetry (or
    /// off-procfs platforms).
    peak_rss_bytes: Option<u64>,
}

/// Loads `path` as either a [`bt_obs::ProfileReport`] (from
/// `swarm --profile`) or a [`bt_obs::RunManifest`] (e.g. the
/// `manifest-swarm.json` every `btlab swarm` run writes), detected by
/// shape.
///
/// Every data problem — a missing file, malformed JSON, an
/// unrecognized document shape, or a schema-version mismatch — maps to
/// [`CliError::Invalid`] (exit 2), so CI can tell "the candidate
/// regressed" (exit 1) apart from "the inputs were garbage".
fn load_compare_side(path: &str) -> Result<CompareSide, CliError> {
    let invalid = |message: String| CliError::Invalid(message);
    // Sniff the document's shape, then read it again as that type.
    let doc = std::path::Path::new(path);
    let value: serde_json::Value =
        bt_obs::records::read_doc(doc).map_err(|e| read_error("comparison input", e))?;
    if value.get("stages").is_some() && value.get("round_latency").is_some() {
        let report: bt_obs::ProfileReport =
            bt_obs::records::read_doc(doc).map_err(|e| read_error("profile", e))?;
        if report.schema_version != bt_obs::PROFILE_SCHEMA_VERSION {
            return Err(invalid(format!(
                "{path}: profile schema_version {} does not match the supported version {}",
                report.schema_version,
                bt_obs::PROFILE_SCHEMA_VERSION
            )));
        }
        Ok(CompareSide {
            stages: report
                .stages
                .iter()
                .map(|s| (s.name.clone(), s.total_secs))
                .collect(),
            rounds_per_sec: (report.rounds_per_sec > 0.0).then_some(report.rounds_per_sec),
            obs_share: None,
            obs_wall_secs: 0.0,
            threads: None,
            peak_rss_bytes: None,
        })
    } else if value.get("phase_secs").is_some() {
        let manifest: bt_obs::RunManifest =
            bt_obs::records::read_doc(doc).map_err(|e| read_error("manifest", e))?;
        if manifest.schema_version != bt_obs::MANIFEST_SCHEMA_VERSION {
            return Err(invalid(format!(
                "{path}: manifest schema_version {} does not match the supported version {}",
                manifest.schema_version,
                bt_obs::MANIFEST_SCHEMA_VERSION
            )));
        }
        let stages = manifest
            .phase_secs
            .iter()
            .filter_map(|(name, secs)| {
                name.strip_prefix("round.").map(|s| (s.to_string(), *secs))
            })
            .collect();
        let rounds_per_sec = manifest.counter("swarm.rounds").and_then(|rounds| {
            (rounds > 0 && manifest.wall_clock_secs > 0.0)
                .then(|| rounds as f64 / manifest.wall_clock_secs)
        });
        Ok(CompareSide {
            stages,
            rounds_per_sec,
            obs_share: Some(manifest.obs_share),
            obs_wall_secs: manifest.obs_wall_secs,
            threads: Some(manifest.threads.max(1)),
            peak_rss_bytes: Some(manifest.peak_rss_bytes),
        })
    } else {
        Err(invalid(format!(
            "{path}: neither a profile report (stages + round_latency) nor a run manifest \
             (phase_secs)"
        )))
    }
}

/// Baseline stage times below this floor are noise; they never flag a
/// regression no matter the relative delta.
const COMPARE_MIN_STAGE_SECS: f64 = 1e-6;

/// Executes `btlab compare`: prints a stage-by-stage delta table and
/// fails when the candidate regresses beyond the tolerance (exit 1) or
/// either input is malformed (exit 2).
fn run_compare<W: std::io::Write>(a: &CompareArgs, out: &mut W) -> Result<(), CliError> {
    // Gate-only mode: one manifest, no baseline to diff against.
    if a.baseline == a.candidate && a.obs_budget.is_some() {
        let candidate = load_compare_side(&a.candidate)?;
        return check_obs_budget(a, &candidate, out);
    }
    let baseline = load_compare_side(&a.baseline)?;
    let candidate = load_compare_side(&a.candidate)?;
    // Timing deltas between runs at different worker-thread counts
    // measure the parallelism knob, not a code change; refuse the
    // mismatch as bad input rather than reporting a bogus verdict.
    if let (Some(b), Some(c)) = (baseline.threads, candidate.threads) {
        if b != c {
            return Err(CliError::Invalid(format!(
                "thread-count mismatch: baseline {} ran with threads={b}, candidate {} with \
                 threads={c}; rerun one side so the counts match",
                a.baseline, a.candidate
            )));
        }
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

    let mut names: Vec<&str> = baseline.stages.iter().map(|(n, _)| n.as_str()).collect();
    for (n, _) in &candidate.stages {
        if !names.contains(&n.as_str()) {
            names.push(n.as_str());
        }
    }
    let lookup = |side: &CompareSide, name: &str| -> Option<f64> {
        side.stages
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, secs)| *secs)
    };
    let mut regressions: Vec<String> = Vec::new();
    for name in &names {
        match (lookup(&baseline, name), lookup(&candidate, name)) {
            (Some(b), Some(c)) => {
                let delta_pct = if b > 0.0 { (c - b) / b * 100.0 } else { 0.0 };
                let regressed = b >= COMPARE_MIN_STAGE_SECS && c > b * (1.0 + a.tolerance);
                let verdict = if regressed { "REGRESSED" } else { "ok" };
                writeln!(
                    out,
                    "{name:<16} {b:>12.6} {c:>12.6} {delta_pct:>+8.1}% {verdict}"
                )?;
                if regressed {
                    regressions.push(format!("stage {name}: {b:.6}s -> {c:.6}s ({delta_pct:+.1}%)"));
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
    if let (Some(b), Some(c)) = (baseline.rounds_per_sec, candidate.rounds_per_sec) {
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
/// exceed the budget. A profile report has no `obs_share`, so gating one
/// is a data error (exit 2); an over-budget manifest is a run failure
/// (exit 1). Without `--obs-budget` this is a no-op.
fn check_obs_budget<W: std::io::Write>(
    a: &CompareArgs,
    candidate: &CompareSide,
    out: &mut W,
) -> Result<(), CliError> {
    let Some(budget_pct) = a.obs_budget else {
        return Ok(());
    };
    let Some(share) = candidate.obs_share else {
        return Err(CliError::Invalid(format!(
            "{}: --obs-budget needs a run manifest candidate (profile reports do not \
             record an observer wall-time share)",
            a.candidate
        )));
    };
    let share_pct = share * 100.0;
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
/// Inputs without memory telemetry (profile reports, manifests written
/// before the field existed, off-procfs platforms recording 0) are a
/// data error (exit 2); an over-budget candidate is a run failure
/// (exit 1). Without `--mem-budget` this is a no-op.
fn check_mem_budget<W: std::io::Write>(
    a: &CompareArgs,
    baseline: &CompareSide,
    candidate: &CompareSide,
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
    let base = baseline
        .peak_rss_bytes
        .filter(|&b| b > 0)
        .ok_or_else(|| missing(&a.baseline))?;
    let cand = candidate
        .peak_rss_bytes
        .filter(|&c| c > 0)
        .ok_or_else(|| missing(&a.candidate))?;
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

/// The directory run artifacts default to: `$BT_MANIFEST_DIR`, then
/// `results/`.
fn manifest_dir() -> std::path::PathBuf {
    std::env::var_os("BT_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

/// How many violations `btlab doctor` prints in full before eliding;
/// a broken invariant usually fires on every subsequent check, so the
/// tail repeats the head.
const DOCTOR_MAX_PRINTED_VIOLATIONS: usize = 20;

/// Executes `btlab doctor`: a swarm run with the invariant monitors
/// sampling at `--cadence`, summarizing violations (and the diagnosis
/// bundle, when one was written) and failing when any invariant broke.
/// The bundle directory is named after the run's `config_hash`.
fn run_doctor<W: std::io::Write>(
    a: &DoctorArgs,
    config_hash: &str,
    out: &mut W,
) -> Result<(), CliError> {
    let run_id = format!(
        "doctor-{}-{}",
        a.swarm.seed,
        &config_hash[..config_hash.len().min(8)]
    );
    tracing::info!(target: "btlab", seed = a.swarm.seed, cadence = a.cadence, run_id = run_id.as_str(); "running doctored swarm");
    let bundle_root = a
        .bundle_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(manifest_dir);
    let (metrics, report) = run_swarm(&a.swarm, "doctor", |swarm| {
        swarm.attach_doctor(bt_swarm::DoctorOptions {
            cadence: a.cadence,
            entropy_floor: a.floor,
            entropy_min_population: a.min_population,
            bundle_root: Some(bundle_root),
            run_id,
            stall_rounds: a.stall_rounds,
            ..bt_swarm::DoctorOptions::default()
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
        metrics.completions.len(),
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

/// The median of `values`; 0 when empty.
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Executes `btlab trend`: renders per-record summaries and per-metric
/// trajectories from the cross-run ledger, flagging the latest run's
/// metrics that drifted beyond the tolerance against the median of
/// matching prior runs. Advisory: exits 0 on any readable ledger. A
/// final record cut short by an interrupted append is skipped.
fn run_trend<W: std::io::Write>(a: &TrendArgs, out: &mut W) -> Result<(), CliError> {
    let path = a
        .ledger
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(bt_obs::default_ledger_path);
    // Cap the ledger before reading: the oldest lines move to a `.1`
    // archive once the file outgrows --max-ledger-bytes, so an
    // always-appending ledger cannot grow without bound.
    match bt_obs::rotate_ledger(&path, a.max_ledger_bytes) {
        Ok(None) => {}
        Ok(Some(archived)) => {
            writeln!(
                out,
                "ledger rotated: {archived} oldest record(s) archived to {}.1",
                path.display()
            )?;
        }
        Err(e) => {
            return Err(CliError::Failure(format!(
                "cannot rotate ledger {}: {e}",
                path.display()
            )))
        }
    }
    let records = bt_obs::read_ledger(&path)
        .map_err(|e| read_error(&format!("ledger {}", path.display()), e))?;
    if records.is_empty() {
        return Err(CliError::Invalid(format!(
            "ledger {} has no records; run `btlab swarm`, `btlab doctor`, or a bench first",
            path.display()
        )));
    }
    let window = &records[records.len().saturating_sub(a.last)..];
    writeln!(
        out,
        "ledger trend: {} ({} of {} record(s), tolerance {:.1}%)",
        path.display(),
        window.len(),
        records.len(),
        a.tolerance * 100.0
    )?;
    writeln!(
        out,
        "{:>4} {:<12} {:>6} {:>10} {:>8} {:>10} {:>4} {:>14} {:>6} {:>8} {:>6}",
        "#", "command", "seed", "config", "rounds", "peak_pop", "thr", "rounds_per_sec", "obs%",
        "peak_mib", "viol"
    )?;
    let first_index = records.len() - window.len();
    for (i, r) in window.iter().enumerate() {
        writeln!(
            out,
            "{:>4} {:<12} {:>6} {:>10} {:>8} {:>10} {:>4} {:>14.1} {:>6.2} {:>8.1} {:>6}",
            first_index + i + 1,
            r.command,
            r.seed,
            &r.config_hash[..r.config_hash.len().min(10)],
            r.rounds,
            r.peak_population,
            r.threads.max(1),
            r.rounds_per_sec,
            r.obs_share * 100.0,
            r.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            r.violations
        )?;
    }

    let latest = window.last().expect("window non-empty");
    // Timing comparisons only make sense between runs of the same
    // command, configuration, and worker-thread count; a config change
    // resets the baseline, and rounds/sec trends per thread count
    // (records predating the threads field count as serial).
    let prior: Vec<&bt_obs::LedgerRecord> = window[..window.len() - 1]
        .iter()
        .filter(|r| {
            r.command == latest.command
                && r.config_hash == latest.config_hash
                && r.threads.max(1) == latest.threads.max(1)
        })
        .collect();
    if prior.is_empty() {
        writeln!(
            out,
            "\nno prior record in the window matches the latest run's command, config \
             hash, and thread count; no verdicts"
        )?;
        return Ok(());
    }
    writeln!(
        out,
        "\ntrajectories (latest vs median of {} matching prior run(s) at threads={}):",
        prior.len(),
        latest.threads.max(1)
    )?;
    writeln!(
        out,
        "{:<22} {:>14} {:>14} {:>9} verdict",
        "metric", "median_prior", "latest", "delta"
    )?;
    let mut flagged = 0usize;
    let mut row = |out: &mut W,
                   name: &str,
                   prior_median: f64,
                   latest_value: f64,
                   higher_is_better: bool|
     -> Result<(), CliError> {
        if prior_median <= 0.0 || latest_value <= 0.0 {
            // One side never recorded the metric (e.g. an unprofiled
            // run); there is no trajectory to judge.
            return Ok(());
        }
        let delta_pct = (latest_value - prior_median) / prior_median * 100.0;
        let regressed = if higher_is_better {
            latest_value < prior_median * (1.0 - a.tolerance)
        } else {
            latest_value > prior_median * (1.0 + a.tolerance)
        };
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        if regressed {
            flagged += 1;
        }
        writeln!(
            out,
            "{name:<22} {prior_median:>14.3} {latest_value:>14.3} {delta_pct:>+8.1}% {verdict}"
        )?;
        Ok(())
    };
    row(
        out,
        "rounds_per_sec",
        median(prior.iter().map(|r| r.rounds_per_sec).collect()),
        latest.rounds_per_sec,
        true,
    )?;
    row(
        out,
        "obs_share_pct",
        median(prior.iter().map(|r| r.obs_share * 100.0).collect()),
        latest.obs_share * 100.0,
        false,
    )?;
    // Records predating memory telemetry carry 0 and are skipped by the
    // zero guard above, so the row only appears once both sides have it.
    row(
        out,
        "peak_rss_mib",
        median(
            prior
                .iter()
                .map(|r| r.peak_rss_bytes as f64 / (1024.0 * 1024.0))
                .collect(),
        ),
        latest.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        false,
    )?;
    for (timer, latest_ns) in &latest.stage_p95_ns {
        let prior_values: Vec<f64> = prior
            .iter()
            .filter_map(|r| r.stage_p95(timer))
            .map(|ns| ns as f64 / 1e6)
            .collect();
        row(
            out,
            &format!("{timer} p95_ms"),
            median(prior_values),
            *latest_ns as f64 / 1e6,
            false,
        )?;
    }
    if latest.violations > 0 {
        flagged += 1;
        writeln!(
            out,
            "{:<22} {:>14} {:>14} {:>9} VIOLATIONS",
            "violations",
            median(prior.iter().map(|r| r.violations as f64).collect()),
            latest.violations,
            "-"
        )?;
    }
    if flagged == 0 {
        writeln!(out, "no metrics drifted beyond tolerance")?;
    } else {
        writeln!(out, "flagged metrics: {flagged}")?;
    }
    Ok(())
}

/// Executes `btlab watch`: tails a run directory's heartbeat artifacts
/// (see the HEARTBEATS section of [`USAGE`]). A missing or torn
/// `run.status.json` and a headerless heartbeat stream are data errors
/// (exit 2); a running status that stops changing for `--timeout-secs`
/// wall seconds is a stall (exit 1); a finished run exits 0.
fn run_watch<W: std::io::Write>(a: &WatchArgs, out: &mut W) -> Result<(), CliError> {
    let dir = std::path::Path::new(&a.dir);
    let status_path = dir.join(bt_obs::RUN_STATUS_FILE);
    let stream_path = dir.join(bt_obs::HEARTBEAT_STREAM_FILE);
    let read = |path: &std::path::Path| -> Result<bt_obs::RunStatus, CliError> {
        bt_obs::read_status(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                CliError::Invalid(format!(
                    "{}: no {}; was the run launched with --heartbeat?",
                    dir.display(),
                    bt_obs::RUN_STATUS_FILE
                ))
            } else {
                read_error("run status", e)
            }
        })
    };
    let mut status = read(&status_path)?;
    // Validate the stream header up front: a headerless stream means
    // the artifacts do not come from a heartbeat run at all. Bytes
    // after the final newline are an in-flight partial write and parse
    // fine (see [`bt_obs::read_heartbeat`]).
    let stream = std::fs::File::open(&stream_path)
        .map_err(|e| CliError::Invalid(format!("cannot open {}: {e}", stream_path.display())))?;
    bt_obs::read_heartbeat(stream)
        .map_err(|e| CliError::Invalid(format!("cannot read {}: {e}", stream_path.display())))?;
    emit_watch_line(a, &status, out)?;
    let mut silent = bt_obs::WallTimer::start();
    while !status.is_finished() {
        std::thread::sleep(std::time::Duration::from_secs_f64(a.interval_secs));
        let next = read(&status_path)?;
        if next != status {
            status = next;
            silent.reset();
            emit_watch_line(a, &status, out)?;
        } else if let Some(timeout) = a.timeout_secs {
            if silent.elapsed_secs() >= timeout {
                return Err(CliError::Failure(format!(
                    "run {} is silent: status unchanged for {:.1}s (--timeout-secs \
                     {timeout}) at round {}/{}",
                    dir.display(),
                    silent.elapsed_secs(),
                    status.last.round,
                    status.target_rounds
                )));
            }
        }
    }
    Ok(())
}

/// One watch output line: the JSON status document under `--json`,
/// otherwise a human progress line with bar, ETA, phase, and memory.
fn emit_watch_line<W: std::io::Write>(
    a: &WatchArgs,
    status: &bt_obs::RunStatus,
    out: &mut W,
) -> Result<(), CliError> {
    if a.json {
        let line = serde_json::to_string(status)
            .map_err(|e| CliError::from(format!("serialization error: {e}")))?;
        writeln!(out, "{line}")?;
    } else {
        let beat = &status.last;
        writeln!(
            out,
            "{:<8} [{}] {:>5.1}% round {}/{} | {:.1} r/s | eta {} | phase {} | pop {} | \
             rss {:.1} MiB (peak {:.1})",
            status.state,
            progress_bar(status.progress()),
            status.progress() * 100.0,
            beat.round,
            status.target_rounds,
            beat.rounds_per_sec,
            format_eta(beat.eta_secs),
            beat.phase,
            beat.population,
            beat.rss_bytes as f64 / (1024.0 * 1024.0),
            beat.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        )?;
    }
    // Watch output races a live run; flush so a follower (or CI log)
    // sees each line as it lands, not at buffer boundaries.
    out.flush().map_err(CliError::from)
}

/// Renders `fraction` (0..=1) as a fixed-width ASCII bar.
fn progress_bar(fraction: f64) -> String {
    const WIDTH: usize = 20;
    let filled = (fraction.clamp(0.0, 1.0) * WIDTH as f64).round() as usize;
    let mut bar = String::with_capacity(WIDTH);
    for i in 0..WIDTH {
        bar.push(if i < filled { '#' } else { '.' });
    }
    bar
}

/// Renders an ETA in seconds as `1h02m`, `3m20s`, or `12s`.
fn format_eta(secs: f64) -> String {
    let total = secs.max(0.0).round() as u64;
    if total >= 3600 {
        format!("{}h{:02}m", total / 3600, (total % 3600) / 60)
    } else if total >= 60 {
        format!("{}m{:02}s", total / 60, total % 60)
    } else {
        format!("{total}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn swarm_defaults_and_overrides() {
        let cmd = parse(&args(&[
            "swarm", "--pieces", "50", "--shake", "0.9", "--json",
        ]))
        .unwrap();
        let Command::Swarm(a) = cmd else {
            panic!("expected swarm");
        };
        assert_eq!(a.pieces, 50);
        assert_eq!(a.k, SwarmArgs::default().k);
        assert_eq!(a.shake, Some(0.9));
        assert!(a.json);
    }

    #[test]
    fn disable_stage_parses_and_validates() {
        let cmd = parse(&args(&["swarm", "--disable-stage", "shake,depart"])).unwrap();
        let Command::Swarm(a) = cmd else {
            panic!("expected swarm");
        };
        assert_eq!(a.disabled_stages, vec!["shake", "depart"]);
        let err = parse(&args(&["swarm", "--disable-stage", "teleport"])).unwrap_err();
        assert!(err.contains("unknown stage `teleport`"), "{err}");
        assert!(err.contains("maintain"), "error lists known stages: {err}");
    }

    #[test]
    fn disable_stage_runs_an_ablated_pipeline() {
        // Without departures, completed peers linger: population equals
        // arrivals and no completions are recorded.
        let cmd = parse(&args(&[
            "swarm", "--pieces", "8", "--k", "3", "--s", "6", "--lambda", "0.0",
            "--initial", "10", "--rounds", "60", "--seed", "5", "--json",
            "--disable-stage", "depart",
        ]))
        .unwrap();
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        let metrics: serde_json::Value =
            serde_json::from_slice(&buf).expect("json metrics");
        assert_eq!(metrics.get("departures").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(metrics.get("rounds_run").and_then(|v| v.as_u64()), Some(60));
    }

    #[test]
    fn model_parses() {
        let cmd = parse(&args(&["model", "--alpha", "0.5", "--replications", "10"])).unwrap();
        let Command::Model(a) = cmd else {
            panic!("expected model");
        };
        assert_eq!(a.alpha, 0.5);
        assert_eq!(a.replications, 10);
    }

    #[test]
    fn traces_requires_out() {
        assert!(parse(&args(&["traces"])).is_err());
        let cmd = parse(&args(&[
            "traces",
            "--out",
            "x.jsonl",
            "--scenario",
            "last-phase",
        ]))
        .unwrap();
        let Command::Traces(a) = cmd else {
            panic!("expected traces");
        };
        assert_eq!(a.out, "x.jsonl");
        assert_eq!(a.scenario, "last-phase");
    }

    #[test]
    fn analyze_requires_input() {
        assert!(parse(&args(&["analyze"])).is_err());
        assert!(parse(&args(&["analyze", "--input", "f.jsonl"])).is_ok());
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["swarm", "--warp", "9"])).is_err());
        assert!(parse(&args(&["swarm", "oops"])).is_err());
        assert!(parse(&args(&["swarm", "--pieces", "NaNery"])).is_err());
    }

    #[test]
    fn run_swarm_prints_summary() {
        let cmd = parse(&args(&[
            "swarm",
            "--pieces",
            "10",
            "--rounds",
            "60",
            "--initial",
            "8",
            "--seed",
            "3",
        ]))
        .unwrap();
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("completions="), "{text}");
        assert!(text.contains("final_entropy="), "{text}");
    }

    #[test]
    fn run_model_prints_summary() {
        let cmd = parse(&args(&[
            "model",
            "--pieces",
            "15",
            "--replications",
            "20",
            "--seed",
            "2",
        ]))
        .unwrap();
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("expected_download_rounds="), "{text}");
    }

    #[test]
    fn run_traces_then_analyze() {
        let path = std::env::temp_dir().join("btlab-cli-test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let mut buf = Vec::new();
        run(
            Command::Traces(TracesArgs {
                scenario: "smooth".into(),
                clients: 2,
                out: path_str.clone(),
                seed: 1,
            }),
            &mut buf,
        )
        .unwrap();
        let mut buf2 = Vec::new();
        run(Command::Analyze(AnalyzeArgs { input: path_str }), &mut buf2).unwrap();
        let text = String::from_utf8(buf2).unwrap();
        assert!(text.contains("smooth-"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_parses_and_validates() {
        assert_eq!(
            parse(&args(&["lint"])).unwrap(),
            Command::Lint(LintArgs::default())
        );
        let cmd = parse(&args(&["lint", "--root", "/tmp/x", "--format", "json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Lint(LintArgs {
                root: Some("/tmp/x".into()),
                json: true,
                stage_matrix: false,
            })
        );
        assert_eq!(cmd.name(), "lint");
        assert_eq!(cmd.seed(), None);
        assert_eq!(
            parse(&args(&["lint", "--stage-matrix"])).unwrap(),
            Command::Lint(LintArgs {
                root: None,
                json: false,
                stage_matrix: true,
            })
        );
        assert!(parse(&args(&["lint", "--format", "yaml"])).is_err());
        assert!(parse(&args(&["lint", "--fix"])).is_err());
    }

    #[test]
    fn run_lint_on_workspace_is_clean() {
        let cmd = Command::Lint(LintArgs {
            root: Some(env!("CARGO_MANIFEST_DIR").to_string()),
            json: false,
            stage_matrix: false,
        });
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("0 blocking finding(s)"), "{text}");
    }

    #[test]
    fn run_lint_stage_matrix_emits_schema() {
        let cmd = Command::Lint(LintArgs {
            root: Some(env!("CARGO_MANIFEST_DIR").to_string()),
            json: false,
            stage_matrix: true,
        });
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"schema\": \"bt-lint/stage-matrix/v1\""), "{text}");
        assert!(text.contains("\"write_disjointness\""), "{text}");
    }

    #[test]
    fn figure_parses_and_validates() {
        assert!(parse(&args(&["figure"])).is_err());
        let cmd = parse(&args(&["figure", "--id", "fig4a"])).unwrap();
        assert_eq!(cmd, Command::Figure(FigureArgs { id: "fig4a".into() }));
        // An unknown id is a usage error (exit 2), naming the known ids.
        let err = parse(&args(&["figure", "--id", "nope"])).unwrap_err();
        assert!(err.contains("unknown figure id `nope`"), "{err}");
        assert!(
            err.contains("fig4a") && err.contains("transient_phases"),
            "{err}"
        );
    }

    #[test]
    fn log_options_strip_anywhere() {
        let (opts, rest) = extract_log_options(&args(&[
            "swarm",
            "--pieces",
            "10",
            "--log",
            "json",
            "--seed",
            "4",
            "--log-filter",
            "info,bt_swarm=debug",
        ]))
        .unwrap();
        assert_eq!(opts.mode, Some(LogMode::Json));
        assert_eq!(opts.filter.as_deref(), Some("info,bt_swarm=debug"));
        assert_eq!(rest, args(&["swarm", "--pieces", "10", "--seed", "4"]));

        // Leading position works too, and absence leaves defaults.
        let (opts, rest) = extract_log_options(&args(&["--log", "quiet", "help"])).unwrap();
        assert_eq!(opts.mode, Some(LogMode::Quiet));
        assert_eq!(rest, args(&["help"]));
        let (opts, _) = extract_log_options(&args(&["help"])).unwrap();
        assert_eq!(opts, LogOptions::default());
    }

    #[test]
    fn log_options_reject_bad_input() {
        assert!(extract_log_options(&args(&["--log"])).is_err());
        assert!(extract_log_options(&args(&["--log", "loud"])).is_err());
        assert!(extract_log_options(&args(&["--log-filter"])).is_err());
        assert!(extract_log_options(&args(&["--log-filter", "bt_swarm=shouty"])).is_err());
    }

    #[test]
    fn command_name_and_seed() {
        let cmd = parse(&args(&["swarm", "--seed", "9"])).unwrap();
        assert_eq!(cmd.name(), "swarm");
        assert_eq!(cmd.seed(), Some(9));
        assert_eq!(Command::Help.name(), "help");
        assert_eq!(Command::Help.seed(), None);
        let cmd = parse(&args(&["figure", "--id", "fig2"])).unwrap();
        assert_eq!(cmd.seed(), None);
    }

    #[test]
    fn config_hash_covers_what_is_simulated_not_where_it_is_written() {
        let hash = |list: &[&str]| parse(&args(list)).unwrap().config_hash();
        for command in ["swarm", "doctor"] {
            let base = hash(&[command, "--pieces", "20", "--seed", "4"]);
            for extra in [
                &["--threads", "8"][..],
                &["--telemetry", "t.jsonl"],
                &["--cohort", "c.cohort"],
                &["--profile", "p.json"],
                &["--heartbeat", "run"],
                &["--heartbeat-secs", "0"],
                &["--json"],
            ] {
                let with = hash(&[&[command, "--pieces", "20", "--seed", "4"][..], extra].concat());
                assert_eq!(with, base, "{command} {extra:?} changed the hash");
            }
            for changed in [
                &[command, "--pieces", "20", "--seed", "5"][..],
                &[command, "--pieces", "21", "--seed", "4"],
                &[command, "--pieces", "20", "--seed", "4", "--disable-stage", "depart"],
            ] {
                assert_ne!(hash(changed), base, "{changed:?} kept the hash");
            }
        }
        assert_ne!(
            hash(&["doctor", "--pieces", "20", "--seed", "4"]),
            hash(&["swarm", "--pieces", "20", "--seed", "4"]),
            "the monitor settings are part of a doctor run's identity"
        );
        assert_ne!(
            hash(&["doctor", "--pieces", "20", "--seed", "4", "--inject-fault", "index-drift@3"]),
            hash(&["doctor", "--pieces", "20", "--seed", "4"]),
        );
    }

    #[test]
    fn watch_parses_and_validates() {
        let cmd = parse(&args(&["watch", "results/scale50k"])).unwrap();
        assert_eq!(
            cmd,
            Command::Watch(WatchArgs {
                dir: "results/scale50k".into(),
                timeout_secs: None,
                interval_secs: 1.0,
                json: false,
            })
        );
        assert_eq!(cmd.name(), "watch");
        assert_eq!(cmd.seed(), None);
        let cmd = parse(&args(&[
            "watch", "d", "--timeout-secs", "30", "--interval-secs", "0.2", "--json",
        ]))
        .unwrap();
        let Command::Watch(a) = cmd else {
            panic!("expected watch");
        };
        assert_eq!(a.timeout_secs, Some(30.0));
        assert!((a.interval_secs - 0.2).abs() < 1e-12);
        assert!(a.json);
        assert!(parse(&args(&["watch"])).is_err());
        assert!(parse(&args(&["watch", "a", "b"])).is_err());
        assert!(parse(&args(&["watch", "d", "--timeout-secs", "0"])).is_err());
        assert!(parse(&args(&["watch", "d", "--interval-secs", "-1"])).is_err());
        assert!(parse(&args(&["watch", "d", "--follow"])).is_err());
    }

    #[test]
    fn swarm_heartbeat_flags_parse() {
        let cmd = parse(&args(&[
            "swarm",
            "--heartbeat",
            "rundir",
            "--heartbeat-secs",
            "0.5",
        ]))
        .unwrap();
        let Command::Swarm(a) = cmd else {
            panic!("expected swarm");
        };
        assert_eq!(a.heartbeat.as_deref(), Some("rundir"));
        assert!((a.heartbeat_secs - 0.5).abs() < 1e-12);
        assert_eq!(SwarmArgs::default().heartbeat, None);
        assert!(parse(&args(&["swarm", "--heartbeat"])).is_err());
        assert!(parse(&args(&["swarm", "--heartbeat-secs", "-1"])).is_err());
    }

    #[test]
    fn compare_mem_budget_parses_and_validates() {
        let cmd = parse(&args(&["compare", "a.json", "b.json", "--mem-budget", "50"])).unwrap();
        let Command::Compare(a) = cmd else {
            panic!("expected compare");
        };
        assert_eq!(a.mem_budget, Some(50.0));
        assert!(parse(&args(&["compare", "a.json", "b.json", "--mem-budget", "120"])).is_err());
        // No gate-only mode for memory: peak RSS is judged relative to
        // a baseline, so one positional cannot carry the gate.
        assert!(parse(&args(&["compare", "a.json", "--mem-budget", "50"])).is_err());
    }

    #[test]
    fn swarm_telemetry_flags_parse() {
        let cmd = parse(&args(&[
            "swarm",
            "--observers",
            "3",
            "--telemetry",
            "t.jsonl",
            "--telemetry-stride",
            "5",
        ]))
        .unwrap();
        let Command::Swarm(a) = cmd else {
            panic!("expected swarm");
        };
        assert_eq!(a.observers, 3);
        assert_eq!(a.telemetry.as_deref(), Some("t.jsonl"));
        assert_eq!(a.telemetry_stride, 5);
        // Anomaly capture moved to the doctor: the swarm has no flight
        // recorder flags.
        for gone in ["--flight", "--entropy-floor", "--flight-capacity", "--stall-rounds"] {
            let err = parse(&args(&["swarm", gone, "1"])).unwrap_err();
            assert!(err.contains("unknown flag"), "{gone}: {err}");
        }
        // Format is validated at parse time; paths need values.
        assert!(parse(&args(&["swarm", "--telemetry-format", "tsv"])).is_err());
        assert!(parse(&args(&["swarm", "--telemetry"])).is_err());
        let cmd = parse(&args(&["swarm", "--telemetry-format", "csv"])).unwrap();
        let Command::Swarm(a) = cmd else {
            panic!("expected swarm");
        };
        assert_eq!(a.telemetry_format, "csv");
    }

    #[test]
    fn report_requires_telemetry() {
        assert!(parse(&args(&["report"])).is_err());
        assert!(parse(&args(&["report", "--warp", "9"])).is_err());
        let cmd = parse(&args(&[
            "report",
            "--telemetry",
            "t.jsonl",
            "--replications",
            "10",
            "--manifest",
            "m.json",
            "--seed",
            "4",
        ]))
        .unwrap();
        assert_eq!(cmd.name(), "report");
        assert_eq!(cmd.seed(), Some(4));
        let Command::Report(a) = cmd else {
            panic!("expected report");
        };
        assert_eq!(a.telemetry.as_deref(), Some("t.jsonl"));
        assert_eq!(a.replications, 10);
        assert_eq!(a.manifest.as_deref(), Some("m.json"));
    }

    #[test]
    fn run_swarm_telemetry_then_report() {
        let path = std::env::temp_dir().join("btlab-cli-telemetry-unit.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let swarm_args = SwarmArgs {
            pieces: 10,
            k: 3,
            s: 6,
            lambda: 0.0,
            initial: 8,
            rounds: 150,
            seed: 3,
            observers: 2,
            telemetry: Some(path_str.clone()),
            ..SwarmArgs::default()
        };
        let mut buf = Vec::new();
        run(Command::Swarm(swarm_args), &mut buf).unwrap();

        let mut report = Vec::new();
        run(
            Command::Report(ReportArgs {
                telemetry: Some(path_str),
                replications: 20,
                ..ReportArgs::default()
            }),
            &mut report,
        )
        .unwrap();
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("samples="), "{text}");
        assert!(text.contains("detected phase boundaries"), "{text}");
        assert!(text.contains("model comparison"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_rejects_missing_empty_or_truncated_streams_with_exit_2() {
        let report = |path: &str| {
            let mut buf = Vec::new();
            run(
                Command::Report(ReportArgs {
                    telemetry: Some(path.into()),
                    ..ReportArgs::default()
                }),
                &mut buf,
            )
        };
        let err = report("/nonexistent/telemetry.jsonl").unwrap_err();
        assert_eq!(err.exit_code(), 2, "missing stream is a data error");
        assert!(err.to_string().contains("cannot read telemetry"), "{err}");

        // An interrupted run can leave a zero-byte stream behind.
        let path = std::env::temp_dir().join("btlab-cli-report-empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let err = report(path.to_str().unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2, "empty stream is a data error");
        assert!(err.to_string().contains("is empty"), "{err}");

        // A stream with records but no Meta header (e.g. CSV format).
        std::fs::write(&path, "{\"Phase\":{\"peer\":1,\"round\":2,\"phase\":\"Bootstrap\"}}\n")
            .unwrap();
        let err = report(path.to_str().unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2, "headerless stream is a data error");
        assert!(err.to_string().contains("no Meta header"), "{err}");
        std::fs::remove_file(&path).ok();

        // A Meta header with zero samples: truncated mid-run.
        let stream = std::env::temp_dir().join("btlab-cli-report-truncated.jsonl");
        let full = std::env::temp_dir().join("btlab-cli-report-truncated-src.jsonl");
        run(
            Command::Swarm(SwarmArgs {
                pieces: 8,
                k: 3,
                s: 6,
                lambda: 0.0,
                initial: 6,
                rounds: 20,
                telemetry: Some(full.to_str().unwrap().into()),
                ..SwarmArgs::default()
            }),
            &mut Vec::new(),
        )
        .unwrap();
        let text = std::fs::read_to_string(&full).unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.contains("Meta"), "first record is the header");
        std::fs::write(&stream, format!("{header}\n")).unwrap();
        let err = report(stream.to_str().unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2, "truncated stream is a data error");
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_file(&stream).ok();
        std::fs::remove_file(&full).ok();
    }

    #[test]
    fn run_help_prints_usage() {
        let mut buf = Vec::new();
        run(Command::Help, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }

    #[test]
    fn profile_command_parses_positionals_and_flags() {
        let cmd = parse(&args(&["profile", "p.json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Profile(ProfileArgs {
                input: "p.json".into(),
                top: 10,
                json: false,
            })
        );
        assert_eq!(cmd.name(), "profile");
        assert_eq!(cmd.seed(), None);
        let cmd = parse(&args(&["profile", "--top", "3", "p.json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Profile(ProfileArgs {
                input: "p.json".into(),
                top: 3,
                json: false,
            })
        );
        assert!(parse(&args(&["profile"])).is_err());
        assert!(parse(&args(&["profile", "a.json", "b.json"])).is_err());
        assert!(parse(&args(&["profile", "p.json", "--warp", "9"])).is_err());
    }

    #[test]
    fn compare_command_parses_positionals_and_flags() {
        let cmd = parse(&args(&["compare", "base.json", "cand.json"])).unwrap();
        let Command::Compare(a) = &cmd else {
            panic!("expected compare");
        };
        assert_eq!(a.baseline, "base.json");
        assert_eq!(a.candidate, "cand.json");
        assert!((a.tolerance - 0.10).abs() < 1e-12);
        assert_eq!(cmd.name(), "compare");
        assert_eq!(cmd.seed(), None);
        let cmd =
            parse(&args(&["compare", "--tolerance", "0.25", "base.json", "cand.json"])).unwrap();
        let Command::Compare(a) = cmd else {
            panic!("expected compare");
        };
        assert!((a.tolerance - 0.25).abs() < 1e-12);
        assert!(parse(&args(&["compare", "only-one.json"])).is_err());
        assert!(parse(&args(&["compare", "a", "b", "c"])).is_err());
        assert!(parse(&args(&["compare", "a", "b", "--tolerance", "-0.5"])).is_err());
        assert!(parse(&args(&["compare", "a", "b", "--warp", "9"])).is_err());

        // --obs-budget rides along a two-sided compare, and unlocks the
        // single-manifest gate-only form.
        let cmd = parse(&args(&["compare", "a.json", "b.json", "--obs-budget", "10"])).unwrap();
        let Command::Compare(a) = cmd else {
            panic!("expected compare");
        };
        assert_eq!(a.obs_budget, Some(10.0));
        let cmd = parse(&args(&["compare", "m.json", "--obs-budget", "7.5"])).unwrap();
        let Command::Compare(a) = cmd else {
            panic!("expected compare");
        };
        assert_eq!(a.baseline, "m.json");
        assert_eq!(a.candidate, "m.json");
        assert_eq!(a.obs_budget, Some(7.5));
        assert!(parse(&args(&["compare", "a", "b", "--obs-budget", "150"])).is_err());
        assert!(parse(&args(&["compare", "a", "b", "--obs-budget", "-1"])).is_err());
    }

    #[test]
    fn swarm_profile_flag_parses() {
        let cmd = parse(&args(&["swarm", "--profile", "out/profile.json"])).unwrap();
        let Command::Swarm(a) = cmd else {
            panic!("expected swarm");
        };
        assert_eq!(a.profile.as_deref(), Some("out/profile.json"));
        assert!(parse(&args(&["swarm", "--profile"])).is_err());
    }

    /// A handcrafted profile report with one second-scale stage, safely
    /// above the comparison noise floor.
    fn sample_report(establish_secs: f64, exchange_secs: f64) -> bt_obs::ProfileReport {
        let latency = bt_obs::LatencySummary {
            count: 10,
            total_secs: establish_secs + exchange_secs,
            p50_ns: Some(1_000_000),
            p95_ns: Some(2_000_000),
            p99_ns: Some(4_000_000),
            max_ns: Some(5_000_000),
        };
        let total = establish_secs + exchange_secs;
        bt_obs::ProfileReport {
            schema_version: bt_obs::PROFILE_SCHEMA_VERSION,
            seed: 7,
            rounds: 10,
            total_secs: total,
            rounds_per_sec: 10.0 / total,
            round_latency: latency.clone(),
            stages: vec![
                bt_obs::StageProfile {
                    name: "establish".into(),
                    rounds: 10,
                    total_secs: establish_secs,
                    share: establish_secs / total,
                    latency: latency.clone(),
                    work: vec![("establish.candidate_comparisons".into(), 1234)],
                },
                bt_obs::StageProfile {
                    name: "exchange".into(),
                    rounds: 10,
                    total_secs: exchange_secs,
                    share: exchange_secs / total,
                    latency,
                    work: vec![("exchange.piece_transfers".into(), 88)],
                },
            ],
            top_peers: vec![
                bt_obs::PeerWork { peer: 3, work: 900 },
                bt_obs::PeerWork { peer: 1, work: 400 },
            ],
        }
    }

    #[test]
    fn run_profile_summarizes_a_report() {
        let path = std::env::temp_dir().join("btlab-cli-profile-unit.json");
        bt_obs::records::write_doc(&path, &sample_report(1.0, 0.5)).unwrap();
        let mut buf = Vec::new();
        run(
            Command::Profile(ProfileArgs {
                input: path.to_str().unwrap().into(),
                top: 1,
                json: false,
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("hottest stages"), "{text}");
        assert!(text.contains("establish"), "{text}");
        assert!(text.contains("establish.candidate_comparisons"), "{text}");
        assert!(text.contains("top peers"), "{text}");
        // --top 1 keeps only the hottest peer.
        assert!(text.contains('3'), "{text}");
        assert!(!text.lines().any(|l| l.trim_start().starts_with("1 ")), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_profile_reports_missing_file() {
        let mut buf = Vec::new();
        let err = run(
            Command::Profile(ProfileArgs {
                input: "/nonexistent/profile.json".into(),
                top: 10,
                json: false,
            }),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("cannot read profile"), "{err}");
    }

    #[test]
    fn compare_passes_within_tolerance_and_fails_beyond_it() {
        let base = std::env::temp_dir().join("btlab-cli-compare-base.json");
        let cand = std::env::temp_dir().join("btlab-cli-compare-cand.json");
        bt_obs::records::write_doc(&base, &sample_report(1.0, 0.5)).unwrap();
        // Candidate: establish 5% slower (within 10%), exchange equal.
        bt_obs::records::write_doc(&cand, &sample_report(1.05, 0.5)).unwrap();
        let compare = |tolerance: f64, out: &mut Vec<u8>| {
            run(
                Command::Compare(CompareArgs {
                    baseline: base.to_str().unwrap().into(),
                    candidate: cand.to_str().unwrap().into(),
                    tolerance,
                    obs_budget: None,
                    mem_budget: None,
                }),
                out,
            )
        };
        let mut buf = Vec::new();
        compare(0.10, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("no regressions beyond tolerance"), "{text}");
        assert!(text.contains("establish"), "{text}");
        assert!(text.contains("rounds_per_sec"), "{text}");

        // Candidate: establish 2x slower — beyond any sane tolerance.
        bt_obs::records::write_doc(&cand, &sample_report(2.0, 0.5)).unwrap();
        let mut buf = Vec::new();
        let err = compare(0.10, &mut buf).unwrap_err();
        assert_eq!(err.exit_code(), 1, "regressions are failures, not data errors");
        assert!(err.to_string().contains("regression(s) beyond tolerance"), "{err}");
        assert!(err.to_string().contains("establish"), "{err}");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("REGRESSED"), "{text}");
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&cand).ok();
    }

    /// A handcrafted `btlab swarm` run manifest.
    fn sample_manifest(exchange_secs: f64, rounds: u64, wall: f64) -> bt_obs::RunManifest {
        let mut manifest = bt_obs::RunManifest::new("swarm", "cafebabe".into(), 7);
        manifest.wall_clock_secs = wall;
        manifest.phase_secs = vec![
            ("round.exchange".into(), exchange_secs),
            ("round.establish".into(), 0.4),
            ("telemetry.flush".into(), 0.01),
        ];
        manifest.counters = vec![("swarm.rounds".into(), rounds)];
        manifest
    }

    #[test]
    fn compare_accepts_bench_manifests() {
        let base = std::env::temp_dir().join("btlab-cli-compare-bench-base.json");
        let cand = std::env::temp_dir().join("btlab-cli-compare-bench-cand.json");
        bt_obs::records::write_doc(&base, &sample_manifest(1.0, 60, 2.0)).unwrap();
        // Same stage cost but halved throughput: rounds/sec regresses.
        bt_obs::records::write_doc(&cand, &sample_manifest(1.0, 60, 4.0)).unwrap();
        let mut buf = Vec::new();
        let err = run(
            Command::Compare(CompareArgs {
                baseline: base.to_str().unwrap().into(),
                candidate: cand.to_str().unwrap().into(),
                tolerance: 0.25,
                obs_budget: None,
                mem_budget: None,
            }),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("rounds_per_sec"), "{err}");
        let text = String::from_utf8(buf).unwrap();
        // Non-round phases are not stages and stay out of the table.
        assert!(!text.contains("telemetry.flush"), "{text}");
        assert!(text.contains("exchange"), "{text}");
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&cand).ok();
    }

    #[test]
    fn compare_rejects_unrecognized_shapes() {
        let path = std::env::temp_dir().join("btlab-cli-compare-shape.json");
        std::fs::write(&path, "{\"hello\": 1}").unwrap();
        let mut buf = Vec::new();
        let err = run(
            Command::Compare(CompareArgs {
                baseline: path.to_str().unwrap().into(),
                candidate: path.to_str().unwrap().into(),
                tolerance: 0.1,
                obs_budget: None,
                mem_budget: None,
            }),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "malformed inputs are data errors");
        assert!(err.to_string().contains("neither a profile report"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_prints_phase_timer_quantiles_and_pipeline_warnings() {
        // A real telemetry stream (for the Meta header) plus a crafted
        // manifest whose pipeline disagrees with its timers.
        let telemetry = std::env::temp_dir().join("btlab-cli-report-quantiles.jsonl");
        let manifest_path = std::env::temp_dir().join("btlab-cli-report-quantiles-manifest.json");
        let swarm_args = SwarmArgs {
            pieces: 10,
            k: 3,
            s: 6,
            lambda: 0.0,
            initial: 8,
            rounds: 60,
            seed: 3,
            telemetry: Some(telemetry.to_str().unwrap().into()),
            ..SwarmArgs::default()
        };
        let mut buf = Vec::new();
        run(Command::Swarm(swarm_args), &mut buf).unwrap();

        let mut manifest = bt_obs::RunManifest::new("swarm", "cafebabe".into(), 3);
        manifest.phase_timers = vec![(
            "round.exchange".into(),
            bt_obs::TimerSnapshot {
                total_secs: 1.5,
                count: 60,
                p50_ns: Some(1_000_000),
                p95_ns: Some(2_000_000),
                p99_ns: Some(3_000_000),
                max_ns: Some(4_000_000),
            },
        )];
        // `exchange` ran but is missing here; `depart` is listed but
        // never recorded a timer.
        manifest.pipeline = vec!["maintain".into(), "depart".into()];
        manifest.disabled_stages = vec!["shake".into()];
        bt_obs::records::write_doc(&manifest_path, &manifest).unwrap();

        let mut report = Vec::new();
        run(
            Command::Report(ReportArgs {
                telemetry: Some(telemetry.to_str().unwrap().into()),
                manifest: Some(manifest_path.to_str().unwrap().into()),
                replications: 5,
                seed: 3,
                ..ReportArgs::default()
            }),
            &mut report,
        )
        .unwrap();
        let text = String::from_utf8(report).unwrap();
        assert!(text.contains("p95_ms"), "{text}");
        assert!(text.contains("2.000"), "{text}");
        assert!(text.contains("pipeline: maintain -> depart"), "{text}");
        assert!(text.contains("disabled stages: shake"), "{text}");
        assert!(
            text.contains("is not in the manifest pipeline"),
            "{text}"
        );
        assert!(
            text.contains("no recorded round.depart timer samples"),
            "{text}"
        );
        std::fs::remove_file(&telemetry).ok();
        std::fs::remove_file(&manifest_path).ok();
    }

    #[test]
    fn run_swarm_with_profile_writes_artifacts() {
        let dir = std::env::temp_dir().join("btlab-cli-swarm-profile-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let profile = dir.join("profile.json");
        let swarm_args = SwarmArgs {
            pieces: 10,
            k: 3,
            s: 6,
            lambda: 0.0,
            initial: 8,
            rounds: 40,
            seed: 5,
            profile: Some(profile.to_str().unwrap().into()),
            ..SwarmArgs::default()
        };
        let mut buf = Vec::new();
        run(Command::Swarm(swarm_args), &mut buf).unwrap();
        let report: bt_obs::ProfileReport = bt_obs::records::read_doc(&profile).unwrap();
        assert_eq!(report.rounds, 40);
        assert_eq!(report.seed, 5);
        assert!(report.stage("exchange").is_some());
        let folded = std::fs::read_to_string(profile.with_extension("folded")).unwrap();
        assert!(folded.contains("swarm;exchange"), "{folded}");
        assert!(profile.with_extension("rounds.jsonl").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_parses_flags_with_swarm_fallback() {
        let cmd = parse(&args(&[
            "doctor",
            "--seed",
            "9",
            "--rounds",
            "50",
            "--cadence",
            "4",
            "--floor",
            "0.05",
            "--min-population",
            "32",
            "--stall-rounds",
            "6",
            "--bundle-dir",
            "/tmp/bundles",
            "--inject-fault",
            "index-drift@12",
        ]))
        .unwrap();
        let Command::Doctor(a) = cmd else {
            panic!("expected doctor, got {cmd:?}");
        };
        assert_eq!(a.swarm.seed, 9, "swarm flags fall through");
        assert_eq!(a.swarm.rounds, 50);
        assert_eq!(a.cadence, 4);
        assert!((a.floor - 0.05).abs() < 1e-12);
        assert_eq!(a.min_population, 32);
        assert_eq!(a.stall_rounds, Some(6));
        assert_eq!(DoctorArgs::default().stall_rounds, None, "opt-in");
        assert_eq!(a.bundle_dir.as_deref(), Some("/tmp/bundles"));
        assert_eq!(
            a.inject_fault,
            Some(bt_swarm::FaultSpec {
                round: 12,
                kind: bt_swarm::FaultKind::IndexDrift,
            })
        );

        let err = parse(&args(&["doctor", "--bogus", "1"])).unwrap_err();
        assert!(err.contains("unknown flag --bogus for doctor"), "{err}");
    }

    #[test]
    fn repeated_flags_are_rejected_not_last_one_wins() {
        let err = parse(&args(&[
            "swarm",
            "--disable-stage",
            "maintain",
            "--disable-stage",
            "depart",
        ]))
        .unwrap_err();
        assert!(err.contains("--disable-stage given more than once"), "{err}");
        let err = parse(&args(&["doctor", "--seed", "1", "--cadence", "2", "--seed", "3"]))
            .unwrap_err();
        assert!(err.contains("--seed given more than once"), "{err}");
        // A comma list stays the way to pass several stages.
        let Command::Swarm(a) =
            parse(&args(&["swarm", "--disable-stage", "maintain,depart"])).unwrap()
        else {
            panic!("expected swarm");
        };
        assert_eq!(a.disabled_stages, ["maintain", "depart"]);
    }

    #[test]
    fn doctor_rejects_bad_fault_specs() {
        let err = parse(&args(&["doctor", "--inject-fault", "nope"])).unwrap_err();
        assert!(err.contains("KIND@ROUND"), "{err}");
        let err = parse(&args(&["doctor", "--inject-fault", "bogus@3"])).unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
        let err = parse(&args(&["doctor", "--inject-fault", "index-drift@x"])).unwrap_err();
        assert!(err.contains("round must be a number"), "{err}");
    }

    #[test]
    fn trend_parses_and_validates() {
        let cmd = parse(&args(&["trend"])).unwrap();
        let Command::Trend(a) = cmd else {
            panic!("expected trend, got {cmd:?}");
        };
        assert_eq!(a.ledger, None);
        assert_eq!(a.last, 10);
        assert!((a.tolerance - 0.10).abs() < 1e-12);

        let cmd = parse(&args(&[
            "trend", "--ledger", "l.jsonl", "--last", "3", "--tolerance", "0.2",
        ]))
        .unwrap();
        let Command::Trend(a) = cmd else {
            panic!("expected trend, got {cmd:?}");
        };
        assert_eq!(a.ledger.as_deref(), Some("l.jsonl"));
        assert_eq!(a.last, 3);
        assert!((a.tolerance - 0.2).abs() < 1e-12);

        let err = parse(&args(&["trend", "--last", "0"])).unwrap_err();
        assert!(err.contains("--last must be >= 1"), "{err}");
        let err = parse(&args(&["trend", "--tolerance", "-0.5"])).unwrap_err();
        assert!(err.contains("--tolerance must be >= 0"), "{err}");
        let err = parse(&args(&["trend", "--bogus", "1"])).unwrap_err();
        assert!(err.contains("unknown flag --bogus for trend"), "{err}");
    }

    #[test]
    fn run_profile_json_emits_parseable_report() {
        let path = std::env::temp_dir().join("btlab-cli-profile-json-unit.json");
        bt_obs::records::write_doc(&path, &sample_report(1.0, 0.5)).unwrap();
        let mut buf = Vec::new();
        run(
            Command::Profile(ProfileArgs {
                input: path.to_str().unwrap().into(),
                top: 10,
                json: true,
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed: bt_obs::ProfileReport = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.schema_version, bt_obs::PROFILE_SCHEMA_VERSION);
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.stages.len(), 2);
        assert!(
            !text.contains("hottest stages"),
            "--json must not mix in the human summary: {text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_strict_promotes_warnings_to_failure() {
        let telemetry = std::env::temp_dir().join("btlab-cli-report-strict.jsonl");
        let manifest_path = std::env::temp_dir().join("btlab-cli-report-strict-manifest.json");
        let swarm_args = SwarmArgs {
            pieces: 10,
            k: 3,
            s: 6,
            lambda: 0.0,
            initial: 8,
            rounds: 60,
            seed: 3,
            telemetry: Some(telemetry.to_str().unwrap().into()),
            ..SwarmArgs::default()
        };
        let mut buf = Vec::new();
        run(Command::Swarm(swarm_args), &mut buf).unwrap();

        // A manifest whose pipeline lists a stage that never ran.
        let mut manifest = bt_obs::RunManifest::new("swarm", "cafebabe".into(), 3);
        manifest.pipeline = vec!["depart".into()];
        bt_obs::records::write_doc(&manifest_path, &manifest).unwrap();

        let report_args = |strict: bool| ReportArgs {
            telemetry: Some(telemetry.to_str().unwrap().into()),
            manifest: Some(manifest_path.to_str().unwrap().into()),
            replications: 5,
            seed: 3,
            strict,
            ..ReportArgs::default()
        };
        // Non-strict: the warning prints but the run succeeds.
        let mut buf = Vec::new();
        run(Command::Report(report_args(false)), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("warning:"), "{text}");

        let mut buf = Vec::new();
        let err = run(Command::Report(report_args(true)), &mut buf).unwrap_err();
        assert_eq!(err.exit_code(), 1, "strict warnings are run failures");
        assert!(err.to_string().contains("--strict"), "{err}");
        assert!(
            err.to_string().contains("no recorded round.depart timer samples"),
            "{err}"
        );

        // Strict with nothing to warn about stays green.
        let mut buf = Vec::new();
        run(
            Command::Report(ReportArgs {
                telemetry: Some(telemetry.to_str().unwrap().into()),
                replications: 5,
                seed: 3,
                strict: true,
                ..ReportArgs::default()
            }),
            &mut buf,
        )
        .unwrap();
        std::fs::remove_file(&telemetry).ok();
        std::fs::remove_file(&manifest_path).ok();
    }

    #[test]
    fn compare_rejects_schema_version_mismatch() {
        let good = std::env::temp_dir().join("btlab-cli-compare-schema-good.json");
        let bad = std::env::temp_dir().join("btlab-cli-compare-schema-bad.json");
        bt_obs::records::write_doc(&good, &sample_report(1.0, 0.5)).unwrap();
        let mut future = sample_report(1.0, 0.5);
        future.schema_version = bt_obs::PROFILE_SCHEMA_VERSION + 1;
        bt_obs::records::write_doc(&bad, &future).unwrap();
        let mut buf = Vec::new();
        let err = run(
            Command::Compare(CompareArgs {
                baseline: good.to_str().unwrap().into(),
                candidate: bad.to_str().unwrap().into(),
                tolerance: 0.1,
                obs_budget: None,
                mem_budget: None,
            }),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "schema drift is a data error");
        assert!(err.to_string().contains("schema"), "{err}");
        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
    }

    fn doctor_swarm_args(seed: u64) -> SwarmArgs {
        SwarmArgs {
            pieces: 10,
            k: 3,
            s: 6,
            lambda: 0.0,
            initial: 8,
            rounds: 40,
            seed,
            ..SwarmArgs::default()
        }
    }

    #[test]
    fn run_doctor_clean_run_holds_all_invariants() {
        let dir = std::env::temp_dir().join("btlab-cli-doctor-clean-unit");
        let _ = std::fs::remove_dir_all(&dir);
        let mut buf = Vec::new();
        run(
            Command::Doctor(DoctorArgs {
                swarm: doctor_swarm_args(5),
                cadence: 1,
                bundle_dir: Some(dir.to_str().unwrap().into()),
                ..DoctorArgs::default()
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("doctor: all invariants held"), "{text}");
        assert!(text.contains("violations=0"), "{text}");
        assert!(
            !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
            "clean runs write no bundle"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_doctor_seeded_fault_fails_and_writes_bundle() {
        let dir = std::env::temp_dir().join("btlab-cli-doctor-fault-unit");
        let _ = std::fs::remove_dir_all(&dir);
        // Bootstrap is disabled so the unaccounted piece stays the only
        // piece in the swarm: no completion ever departs it, keeping the
        // corruption visible without tripping the departure accounting.
        let mut swarm = doctor_swarm_args(5);
        swarm.disabled_stages = vec!["bootstrap".into()];
        let mut buf = Vec::new();
        let err = run(
            Command::Doctor(DoctorArgs {
                swarm,
                cadence: 1,
                bundle_dir: Some(dir.to_str().unwrap().into()),
                inject_fault: Some(bt_swarm::FaultSpec {
                    round: 5,
                    kind: bt_swarm::FaultKind::UnaccountedPiece,
                }),
                ..DoctorArgs::default()
            }),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("invariant violation"), "{err}");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("violation [piece-conservation]"), "{text}");
        assert!(text.contains("diagnosis bundle:"), "{text}");
        let bundle = std::fs::read_dir(&dir)
            .expect("bundle root exists")
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().starts_with("diagnosis-"))
            .expect("one diagnosis bundle");
        assert!(bundle.path().join("meta.json").exists());
        assert!(bundle.path().join("flight.json").exists());
        assert!(bundle.path().join("telemetry.jsonl").exists());
        assert!(bundle.path().join("peers.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn ledger_record(seed: u64, rps: f64, violations: u64) -> bt_obs::LedgerRecord {
        bt_obs::LedgerRecord {
            schema_version: bt_obs::LEDGER_SCHEMA_VERSION,
            command: "swarm".into(),
            seed,
            config_hash: "cafebabe42".into(),
            pipeline: vec!["exchange".into()],
            peak_population: 100,
            rounds: 60,
            wall_clock_secs: 60.0 / rps,
            rounds_per_sec: rps,
            stage_p95_ns: vec![("round.exchange".into(), 2_000_000)],
            obs_share: 0.02,
            violations,
            threads: 1,
            peak_rss_bytes: 64 * 1024 * 1024,
        }
    }

    #[test]
    fn run_trend_flags_regressions_and_violations() {
        let path = std::env::temp_dir().join("btlab-cli-trend-unit.jsonl");
        let _ = std::fs::remove_file(&path);
        for record in [
            ledger_record(1, 100.0, 0),
            ledger_record(2, 102.0, 0),
            ledger_record(3, 50.0, 2),
        ] {
            bt_obs::append_record(&path, &record).unwrap();
        }
        let trend_args = TrendArgs {
            ledger: Some(path.to_str().unwrap().into()),
            ..TrendArgs::default()
        };
        let mut buf = Vec::new();
        run(Command::Trend(trend_args.clone()), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("3 of 3 record(s)"), "{text}");
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("VIOLATIONS"), "{text}");
        assert!(text.contains("flagged metrics: 2"), "{text}");

        // A healthy latest record reports a quiet trajectory.
        bt_obs::append_record(&path, &ledger_record(4, 101.0, 0)).unwrap();
        let mut buf = Vec::new();
        run(Command::Trend(trend_args.clone()), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("no metrics drifted beyond tolerance"), "{text}");

        // A config change resets the comparison baseline.
        let mut fresh = ledger_record(5, 10.0, 0);
        fresh.config_hash = "0ddba11".into();
        bt_obs::append_record(&path, &fresh).unwrap();
        let mut buf = Vec::new();
        run(Command::Trend(trend_args), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("no verdicts"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_trend_rejects_missing_or_empty_ledger() {
        let mut buf = Vec::new();
        let err = run(
            Command::Trend(TrendArgs {
                ledger: Some("/nonexistent/ledger.jsonl".into()),
                ..TrendArgs::default()
            }),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "unreadable ledgers are data errors");
        assert!(err.to_string().contains("cannot read ledger"), "{err}");

        let path = std::env::temp_dir().join("btlab-cli-trend-empty-unit.jsonl");
        std::fs::write(&path, "").unwrap();
        let mut buf = Vec::new();
        let err = run(
            Command::Trend(TrendArgs {
                ledger: Some(path.to_str().unwrap().into()),
                ..TrendArgs::default()
            }),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("has no records"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_trend_rotates_an_oversized_ledger() {
        let path = std::env::temp_dir().join("btlab-cli-trend-rotate-unit.jsonl");
        let archive = std::env::temp_dir().join("btlab-cli-trend-rotate-unit.jsonl.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&archive);
        for seed in 0..20 {
            bt_obs::append_record(&path, &ledger_record(seed, 100.0, 0)).unwrap();
        }
        let size = std::fs::metadata(&path).unwrap().len();
        let mut buf = Vec::new();
        run(
            Command::Trend(TrendArgs {
                ledger: Some(path.to_str().unwrap().into()),
                max_ledger_bytes: size / 2,
                ..TrendArgs::default()
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("ledger rotated"), "{text}");
        assert!(archive.exists(), "oldest records land in the .1 archive");
        let kept = std::fs::read_to_string(&path).unwrap().lines().count();
        let archived = std::fs::read_to_string(&archive).unwrap().lines().count();
        assert_eq!(kept + archived, 20, "rotation loses no records");
        assert!(kept < 20, "rotation trims the live ledger");

        // A second run under the default generous cap leaves it alone.
        let mut buf = Vec::new();
        run(
            Command::Trend(TrendArgs {
                ledger: Some(path.to_str().unwrap().into()),
                ..TrendArgs::default()
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("ledger rotated"), "{text}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&archive).ok();
    }

    #[test]
    fn compare_obs_budget_gates_a_manifest() {
        let path = std::env::temp_dir().join("btlab-cli-compare-obs-unit.json");
        let mut manifest = sample_manifest(1.0, 60, 2.0);
        manifest.obs_wall_secs = 0.08;
        manifest.obs_share = 0.04;
        bt_obs::records::write_doc(&path, &manifest).unwrap();
        let gate = |budget: f64| {
            let mut buf = Vec::new();
            let result = run(
                Command::Compare(CompareArgs {
                    baseline: path.to_str().unwrap().into(),
                    candidate: path.to_str().unwrap().into(),
                    tolerance: 0.1,
                    obs_budget: Some(budget),
                    mem_budget: None,
                }),
                &mut buf,
            );
            (result, String::from_utf8(buf).unwrap())
        };

        let (result, text) = gate(5.0);
        result.unwrap();
        assert!(text.contains("observer overhead: 4.00%"), "{text}");
        assert!(text.contains("ok"), "{text}");

        let (result, text) = gate(2.5);
        let err = result.unwrap_err();
        assert_eq!(err.exit_code(), 1, "over budget is a failure, not a data error");
        assert!(err.to_string().contains("exceeds the --obs-budget"), "{err}");
        assert!(text.contains("OVER BUDGET"), "{text}");
        std::fs::remove_file(&path).ok();

        // Profile reports carry no observer share: gating one is a
        // data error, not a silent pass.
        let profile = std::env::temp_dir().join("btlab-cli-compare-obs-profile.json");
        bt_obs::records::write_doc(&profile, &sample_report(1.0, 0.5)).unwrap();
        let mut buf = Vec::new();
        let err = run(
            Command::Compare(CompareArgs {
                baseline: profile.to_str().unwrap().into(),
                candidate: profile.to_str().unwrap().into(),
                tolerance: 0.1,
                obs_budget: Some(5.0),
                mem_budget: None,
            }),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("needs a run manifest"), "{err}");
        std::fs::remove_file(&profile).ok();
    }

    #[test]
    fn swarm_cohort_trace_feeds_report_and_jsonl_export() {
        let trace = std::env::temp_dir().join("btlab-cli-cohort-unit.cohort");
        let export = std::env::temp_dir().join("btlab-cli-cohort-unit.jsonl");
        let cmd = parse(&args(&[
            "swarm", "--pieces", "8", "--k", "3", "--s", "6", "--lambda", "0.2",
            "--initial", "12", "--rounds", "80", "--seed", "11",
            "--cohort", trace.to_str().unwrap(),
            "--cohort-size", "4",
        ]))
        .unwrap();
        let Command::Swarm(ref a) = cmd else {
            panic!("expected swarm");
        };
        assert_eq!(a.cohort.as_deref(), trace.to_str());
        assert_eq!(a.cohort_size, 4);
        run(cmd, &mut Vec::new()).unwrap();
        assert!(trace.exists(), "swarm --cohort writes the trace file");

        let mut buf = Vec::new();
        run(
            Command::Report(ReportArgs {
                cohort: Some(trace.to_str().unwrap().into()),
                cohort_export: Some(export.to_str().unwrap().into()),
                ..ReportArgs::default()
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("cohort trace:"), "{text}");
        assert!(text.contains("reservoir=4"), "{text}");
        assert!(text.contains("peers traced:"), "{text}");
        assert!(text.contains("acquires"), "trajectory table header: {text}");
        let exported = std::fs::read_to_string(&export).unwrap();
        assert!(!exported.is_empty(), "export produced JSON lines");
        for line in exported.lines() {
            let value: serde_json::Value =
                serde_json::from_str(line).expect("each export line is JSON");
            assert!(value.as_object().is_some(), "{line}");
        }

        // Truncating the stream below its header turns report into a
        // data error, mirroring the telemetry hardening.
        let bytes = std::fs::read(&trace).unwrap();
        std::fs::write(&trace, &bytes[..10]).unwrap();
        let mut buf = Vec::new();
        let err = run(
            Command::Report(ReportArgs {
                cohort: Some(trace.to_str().unwrap().into()),
                ..ReportArgs::default()
            }),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "truncated cohort stream is a data error");
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&export).ok();
    }

    #[test]
    fn swarm_cohort_flags_parse_and_validate() {
        let cmd = parse(&args(&["swarm", "--cohort", "t.cohort"])).unwrap();
        let Command::Swarm(a) = cmd else {
            panic!("expected swarm");
        };
        assert_eq!(a.cohort.as_deref(), Some("t.cohort"));
        assert_eq!(a.cohort_size, 16, "default reservoir size");
        let err = parse(&args(&["swarm", "--cohort-size", "0"])).unwrap_err();
        assert!(err.contains("--cohort-size must be >= 1"), "{err}");
    }

    #[test]
    fn swarm_threads_and_reannounce_flags_parse_and_validate() {
        let cmd = parse(&args(&["swarm", "--threads", "8", "--reannounce", "4"])).unwrap();
        let Command::Swarm(a) = cmd else {
            panic!("expected swarm");
        };
        assert_eq!(a.threads, 8);
        assert_eq!(a.reannounce, 4);
        let defaults = parse(&args(&["swarm"])).unwrap();
        let Command::Swarm(d) = defaults else {
            panic!("expected swarm");
        };
        assert_eq!(d.threads, 1, "serial by default");
        assert_eq!(d.reannounce, 1, "re-announce every round by default");
        let err = parse(&args(&["swarm", "--threads", "0"])).unwrap_err();
        assert!(err.contains("--threads must be >= 1"), "{err}");
        let err = parse(&args(&["swarm", "--reannounce", "0"])).unwrap_err();
        assert!(err.contains("--reannounce must be >= 1"), "{err}");
    }

    #[test]
    fn compare_refuses_mismatched_thread_counts() {
        let base = std::env::temp_dir().join("btlab-cli-compare-threads-base.json");
        let cand = std::env::temp_dir().join("btlab-cli-compare-threads-cand.json");
        let mut baseline = sample_manifest(1.0, 60, 2.0);
        baseline.threads = 1;
        bt_obs::records::write_doc(&base, &baseline).unwrap();
        let mut candidate = sample_manifest(1.0, 60, 2.0);
        candidate.threads = 8;
        bt_obs::records::write_doc(&cand, &candidate).unwrap();
        let mut buf = Vec::new();
        let err = run(
            Command::Compare(CompareArgs {
                baseline: base.to_str().unwrap().into(),
                candidate: cand.to_str().unwrap().into(),
                tolerance: 0.25,
                obs_budget: None,
                mem_budget: None,
            }),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "thread mismatch is a usage error");
        assert!(err.to_string().contains("thread-count mismatch"), "{err}");
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&cand).ok();
    }
}
