//! `btlab watch`: tails a run directory's heartbeat artifacts.

use std::collections::BTreeMap;

use super::{flag, num, read_error, CliError, Command};

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

pub(super) fn parse_watch(
    positionals: Vec<String>,
    flags: &BTreeMap<String, String>,
) -> Result<Command, String> {
    let mut timeout_secs = None;
    let mut interval_secs = 1.0f64;
    let mut json = false;
    for (key, value) in flags {
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
    let [dir] = <[String; 1]>::try_from(positionals).map_err(|other| {
        format!(
            "watch takes one RUN_DIR path, got {} positional argument(s)",
            other.len()
        )
    })?;
    Ok(Command::Watch(WatchArgs {
        dir,
        timeout_secs,
        interval_secs,
        json,
    }))
}

/// Executes `btlab watch`: tails a run directory's heartbeat artifacts
/// (see the HEARTBEATS section of [`USAGE`]). A missing or torn
/// `run.status.json` and a headerless heartbeat stream are data errors
/// (exit 2); a running status that stops changing for `--timeout-secs`
/// wall seconds is a stall (exit 1); a finished run exits 0.
pub(super) fn run_watch<W: std::io::Write>(a: &WatchArgs, out: &mut W) -> Result<(), CliError> {
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
