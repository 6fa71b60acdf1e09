//! The readers of one run's artifacts: `btlab report` (telemetry
//! stream, cohort trace, manifest), `btlab profile` (`profile.json`) and
//! `btlab trend` (the cross-run ledger).

use std::collections::BTreeMap;
use std::path::Path;

use super::{flag, num, read_error, CliError, Command};

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

/// Arguments of `btlab trend`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendArgs {
    /// Ledger file to read; defaults to `$BT_LEDGER_PATH`, then
    /// `ledger.jsonl` in the run directory.
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

/// Arguments of `btlab report`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// Telemetry stream to read (JSON lines).
    pub telemetry: Option<String>,
    /// Cohort trace to summarize (JSON lines).
    pub cohort: Option<String>,
    /// Completion stream to summarize (JSON lines).
    pub completions: Option<String>,
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
            completions: None,
            manifest: None,
            alpha: 0.25,
            gamma: 0.15,
            replications: 200,
            seed: 0,
            strict: false,
        }
    }
}

pub(super) fn parse_profile(
    positionals: Vec<String>,
    flags: &BTreeMap<String, String>,
) -> Result<Command, String> {
    let mut top = 10usize;
    let mut json = false;
    for (key, value) in flags {
        match key.as_str() {
            "top" => top = num(key, value)?,
            "json" => json = flag(key, value)?,
            _ => return Err(format!("unknown flag --{key} for profile")),
        }
    }
    let [input] = <[String; 1]>::try_from(positionals).map_err(|other| {
        format!(
            "profile takes one PROFILE.json path, got {} positional argument(s)",
            other.len()
        )
    })?;
    Ok(Command::Profile(ProfileArgs { input, top, json }))
}

/// Executes `btlab report`: summarizes a JSONL telemetry stream —
/// entropy trajectory and per-observer phase boundaries —
/// and compares mean observer boundaries against the analytical model;
/// and/or summarizes a cohort trace as per-peer lifecycle
/// trajectories, and/or a completion stream as completion means.
/// Under `--strict`, any manifest cross-check warning fails the run.
pub(super) fn run_report<W: std::io::Write>(a: &ReportArgs, out: &mut W) -> Result<(), CliError> {
    let mut warnings: Vec<String> = Vec::new();
    if let Some(telemetry) = &a.telemetry {
        report_telemetry(a, telemetry, out, &mut warnings)?;
    }
    if let Some(cohort) = &a.cohort {
        report_cohort(a, cohort, out)?;
    }
    if let Some(completions) = &a.completions {
        if a.telemetry.is_some() || a.cohort.is_some() {
            writeln!(out)?;
        }
        report_completions(completions, out)?;
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
/// input data ([`CliError::Invalid`], exit 2) — the usual cause is a
/// run interrupted before its first sample.
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
            CliError::Invalid(format!("telemetry stream {telemetry} has no Meta header"))
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
        bt_markov::SeedStream::new(a.seed).rng("btlab-report", 0),
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
            (
                "bootstrap_end",
                predicted.bootstrap_end,
                observed.bootstrap_end,
            ),
            (
                "efficient_end",
                predicted.efficient_end,
                observed.efficient_end,
            ),
            ("completion", predicted.completion, observed.completion),
        ] {
            writeln!(out, "{name:<14} {p:>10.1} {o:>10.1} {:>+8.1}", o - p)?;
        }
        writeln!(out, "completed_observers={}", durations.len())?;
    }

    if let Some(path) = &a.manifest {
        let manifest: bt_obs::RunManifest = bt_obs::records::read_doc(std::path::Path::new(path))
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
                writeln!(
                    out,
                    "disabled stages: {}",
                    manifest.disabled_stages.join(", ")
                )?;
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
                    let warning =
                        format!("pipeline stage `{stage}` has no recorded {timer} timer samples");
                    writeln!(out, "warning: {warning}")?;
                    warnings.push(warning);
                }
            }
        }
    }
    Ok(())
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

/// The cohort half of `btlab report`: parses the JSON-lines cohort
/// stream and prints one trajectory line per traced peer. A missing,
/// header-only or malformed trace is malformed input data
/// ([`CliError::Invalid`], exit 2).
fn report_cohort<W: std::io::Write>(
    a: &ReportArgs,
    cohort: &str,
    out: &mut W,
) -> Result<(), CliError> {
    tracing::info!(target: "btlab", cohort = cohort; "reporting on cohort trace");
    let what = format!("cohort {cohort}");
    let file = std::fs::File::open(cohort).map_err(|e| read_error(&what, e))?;
    let (meta, events) =
        bt_obs::read_cohort(std::io::BufReader::new(file)).map_err(|e| read_error(&what, e))?;
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
            (None, Some(p)) => bt_obs::cohort_phase::name(p),
            (None, None) => "-",
        };
        writeln!(
            out,
            "{peer:>8} {join:>6} {end:>6} {:>8} {:>6} {:>6} {:>6} {:>6} {phase:>13}",
            t.acquires, t.slot_opens, t.slot_closes, t.shakes, t.last_pieces
        )?;
    }
    writeln!(out, "peers traced: {}", by_peer.len())?;
    Ok(())
}

/// The completion half of `btlab report`: reads a completion stream
/// back into [`bt_swarm::CompletionStats`] and prints the means the
/// run's summary printed, in the same format, plus the split by
/// bandwidth class. A missing, empty or malformed stream, or one whose
/// records the writer never produces, is malformed input data
/// ([`CliError::Invalid`], exit 2).
fn report_completions<W: std::io::Write>(path: &str, out: &mut W) -> Result<(), CliError> {
    tracing::info!(target: "btlab", completions = path; "reporting on completion stream");
    let what = format!("completion stream {path}");
    let file = std::fs::File::open(path).map_err(|e| read_error(&what, e))?;
    let (meta, records) = bt_swarm::metrics::read_completions(std::io::BufReader::new(file))
        .map_err(|e| read_error(&what, e))?;
    let mut stats = bt_swarm::CompletionStats::new(meta.pieces);
    for rec in &records {
        stats.record(
            rec.joined_round,
            rec.completed_round,
            rec.acquisition_rounds.iter().copied(),
            rec.slow,
        );
    }
    let (fast, slow) = stats.mean_download_rounds_by_class();
    writeln!(out, "completion stream: {path}")?;
    writeln!(
        out,
        "pieces={} warmup_rounds={} completions={} mean_download_rounds={:.2} \
         mean_bootstrap_rounds={:.2}",
        meta.pieces,
        meta.warmup_rounds,
        stats.count(),
        stats.mean_download_rounds(),
        stats.mean_bootstrap_rounds(),
    )?;
    writeln!(
        out,
        "mean_download_rounds by class: fast={fast:.2} slow={slow:.2}"
    )?;
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
pub(super) fn run_profile<W: std::io::Write>(a: &ProfileArgs, out: &mut W) -> Result<(), CliError> {
    let report: bt_obs::ProfileReport = bt_obs::records::read_doc(std::path::Path::new(&a.input))
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
pub(super) fn run_trend<W: std::io::Write>(
    a: &TrendArgs,
    run_dir: &Path,
    out: &mut W,
) -> Result<(), CliError> {
    let path = a
        .ledger
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| bt_obs::ledger_path(run_dir));
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
        "#",
        "command",
        "seed",
        "config",
        "rounds",
        "peak_pop",
        "thr",
        "rounds_per_sec",
        "obs%",
        "peak_mib",
        "viol"
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
