//! The long-run heartbeat: wall-clock-cadenced progress records for
//! runs too long to babysit.
//!
//! A [`HeartbeatEmitter`] writes two artifacts into a run directory:
//!
//! * `run.heartbeat.jsonl` — an append-only stream: one `meta` header
//!   line (command, seed, target rounds, cadence), then one `beat`
//!   line per emission with round, rounds/sec, ETA to the configured
//!   round budget, the swarm-level phase, entropy, observer wall-time
//!   share, and current/peak RSS;
//! * `run.status.json` — the latest beat plus run state, replaced
//!   atomically (tmp file + rename) on every emission so a concurrent
//!   reader (`btlab watch`) never sees a torn document.
//!
//! # Determinism contract
//!
//! The heartbeat is an observer: it reads engine state handed to it in
//! a [`HeartbeatPulse`], makes **no model-RNG calls**, and feeds
//! nothing back — so attaching it leaves a same-seed run
//! byte-identical (locked by `crates/swarm/tests/determinism.rs`).
//! The *cadence* is wall-clock time, which means the heartbeat stream
//! itself is not deterministic (beat count and timing vary run to
//! run); only the model outputs are. This module is the one sanctioned
//! home for wall-clock reads outside the bench drivers, which is why
//! `bt-lint` applies `det-wall-clock` here and the waiver below keeps
//! every clock read on the audited record. Code that needs a wall
//! stopwatch (e.g. `btlab watch` stall detection) should use
//! [`WallTimer`] instead of touching the clock directly.

// Audited: the heartbeat subsystem IS the sanctioned wall-clock
// boundary — cadence, ETA, and stall detection are wall-time questions
// by definition, and none of it feeds back into model state.
// bt-lint: allow-file(det-wall-clock)

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::mem;
use crate::records;
use crate::registry::Registry;

/// Schema version stamped into the stream header and the status file.
pub const HEARTBEAT_SCHEMA_VERSION: u32 = 1;

/// File name of the append-only heartbeat stream inside a run dir.
pub const HEARTBEAT_STREAM_FILE: &str = "run.heartbeat.jsonl";

/// File name of the atomically-replaced status document.
pub const RUN_STATUS_FILE: &str = "run.status.json";

/// The stream header: first line of `run.heartbeat.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatMeta {
    /// Stream schema version ([`HEARTBEAT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Command that produced the run (`swarm` or `doctor`).
    pub command: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// The configured round budget ETAs count down to.
    pub target_rounds: u64,
    /// Configured emission cadence in seconds of wall time.
    pub interval_secs: f64,
}

/// One heartbeat: a progress snapshot at a wall-clock instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Simulation round at emission time.
    pub round: u64,
    /// Wall seconds since the emitter was created.
    pub elapsed_secs: f64,
    /// Sustained throughput so far (`round / elapsed_secs`).
    pub rounds_per_sec: f64,
    /// Estimated wall seconds to the configured round budget at the
    /// sustained rate; 0 when the run is done or the rate is unknown.
    pub eta_secs: f64,
    /// Swarm-level phase label (see [`swarm_phase`]).
    pub phase: String,
    /// Replication entropy of the swarm at emission time.
    pub entropy: f64,
    /// Leecher population at emission time.
    pub population: u64,
    /// Observer share of wall time so far (`obs.*` timers / elapsed).
    pub obs_share: f64,
    /// Current resident-set size in bytes (0 off-procfs).
    pub rss_bytes: u64,
    /// Peak resident-set size in bytes (0 off-procfs).
    pub peak_rss_bytes: u64,
}

/// One line of the heartbeat stream, tagged by `type`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum HeartbeatRecord {
    /// The stream header; exactly one, first.
    Meta(HeartbeatMeta),
    /// A progress snapshot.
    Beat(Heartbeat),
}

/// The atomically-replaced `run.status.json` document: the stream
/// header, the latest beat, and the run state — everything a watcher
/// needs without replaying the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStatus {
    /// Schema version ([`HEARTBEAT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// `"running"` until the final beat, then `"finished"`.
    pub state: String,
    /// Command that produced the run.
    pub command: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// The configured round budget.
    pub target_rounds: u64,
    /// Emission sequence number; a watcher detects liveness by this
    /// (and the rest of the document) changing between polls.
    pub beats: u64,
    /// The latest progress snapshot.
    pub last: Heartbeat,
}

impl RunStatus {
    /// Whether the run has written its final beat.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state == "finished"
    }

    /// Progress toward the round budget in `0.0..=1.0` (1 when the
    /// budget is 0, i.e. unbounded runs report full progress).
    #[must_use]
    pub fn progress(&self) -> f64 {
        if self.target_rounds == 0 {
            return 1.0;
        }
        (self.last.round as f64 / self.target_rounds as f64).clamp(0.0, 1.0)
    }
}

/// Construction knobs for a [`HeartbeatEmitter`].
#[derive(Debug, Clone)]
pub struct HeartbeatOptions {
    /// Run directory both artifacts land in (created if missing).
    pub dir: PathBuf,
    /// Wall-clock emission cadence; `Duration::ZERO` beats every call.
    pub interval: Duration,
    /// Command label stamped into the header.
    pub command: String,
    /// RNG seed stamped into the header.
    pub seed: u64,
    /// Round budget ETAs count down to.
    pub target_rounds: u64,
}

/// Writes the heartbeat stream and status document for one run. See
/// the module docs for the determinism contract.
pub struct HeartbeatEmitter {
    meta: HeartbeatMeta,
    dir: PathBuf,
    stream: std::fs::File,
    registry: Registry,
    started: Instant,
    last_emit: Option<Instant>,
    beats: u64,
    finished: bool,
}

impl std::fmt::Debug for HeartbeatEmitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeartbeatEmitter")
            .field("dir", &self.dir)
            .field("beats", &self.beats)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

/// The engine-provided slice of a heartbeat: everything that comes
/// from model state rather than the wall clock. Building one makes no
/// RNG calls and costs O(pieces).
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatPulse {
    /// Current simulation round.
    pub round: u64,
    /// Current leecher population.
    pub population: u64,
    /// Current replication entropy.
    pub entropy: f64,
    /// Swarm-level phase label (see [`swarm_phase`]).
    pub phase: &'static str,
}

impl HeartbeatEmitter {
    /// Creates the run directory, writes the stream header, and
    /// publishes an initial `running` status (round 0) so a watcher
    /// can attach before the first beat. `registry` supplies the
    /// `obs.*` timer totals behind the reported `obs_share`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory or either
    /// artifact.
    pub fn new(options: HeartbeatOptions, registry: Registry) -> std::io::Result<HeartbeatEmitter> {
        std::fs::create_dir_all(&options.dir)?;
        let meta = HeartbeatMeta {
            schema_version: HEARTBEAT_SCHEMA_VERSION,
            command: options.command,
            seed: options.seed,
            target_rounds: options.target_rounds,
            interval_secs: options.interval.as_secs_f64(),
        };
        let mut stream = std::fs::File::create(options.dir.join(HEARTBEAT_STREAM_FILE))?;
        records::write_line(&mut stream, &HeartbeatRecord::Meta(meta.clone()))?;
        stream.flush()?;
        let emitter = HeartbeatEmitter {
            meta,
            dir: options.dir,
            stream,
            registry,
            started: Instant::now(),
            last_emit: None,
            beats: 0,
            finished: false,
        };
        let initial = emitter.snapshot(&HeartbeatPulse {
            round: 0,
            population: 0,
            entropy: 0.0,
            phase: "bootstrap",
        });
        emitter.write_status(&initial, "running")?;
        Ok(emitter)
    }

    /// Whether the wall-clock cadence says a beat is due. Cheap (one
    /// monotonic clock read); the engine calls this every round and
    /// only builds a pulse when it answers yes.
    #[must_use]
    pub fn due(&self) -> bool {
        if self.finished {
            return false;
        }
        match self.last_emit {
            None => true,
            Some(at) => at.elapsed().as_secs_f64() >= self.interval_secs(),
        }
    }

    /// The configured cadence in seconds.
    #[must_use]
    pub fn interval_secs(&self) -> f64 {
        self.meta.interval_secs
    }

    /// Beats emitted so far.
    #[must_use]
    pub fn beats(&self) -> u64 {
        self.beats
    }

    /// Whether the final beat has been written.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Emits one beat: appends to the stream and atomically replaces
    /// the status document. Callers normally guard with [`Self::due`];
    /// calling when not due emits anyway. No-op after [`Self::finish`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from either artifact.
    pub fn beat(&mut self, pulse: &HeartbeatPulse) -> std::io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.write_beat(pulse, "running")
    }

    /// Writes the final beat (regardless of cadence) and flips the
    /// status document to `finished`. Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from either artifact.
    pub fn finish(&mut self, pulse: &HeartbeatPulse) -> std::io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.write_beat(pulse, "finished")?;
        self.finished = true;
        Ok(())
    }

    // Named to avoid colliding with other sinks' `emit` methods: the
    // lint call graph resolves untyped receivers by name, and a shared
    // name would smear this module's (audited) clock taint onto them.
    fn write_beat(&mut self, pulse: &HeartbeatPulse, state: &str) -> std::io::Result<()> {
        let beat = self.snapshot(pulse);
        records::write_line(&mut self.stream, &HeartbeatRecord::Beat(beat.clone()))?;
        self.stream.flush()?;
        self.beats += 1;
        self.last_emit = Some(Instant::now());
        self.write_status(&beat, state)
    }

    /// Builds a [`Heartbeat`] from the pulse plus the wall-clock side:
    /// elapsed time, throughput, ETA, observer share, and RSS.
    fn snapshot(&self, pulse: &HeartbeatPulse) -> Heartbeat {
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        let rounds_per_sec = if elapsed_secs > 0.0 {
            pulse.round as f64 / elapsed_secs
        } else {
            0.0
        };
        let remaining = self.meta.target_rounds.saturating_sub(pulse.round);
        let eta_secs = if rounds_per_sec > 0.0 {
            remaining as f64 / rounds_per_sec
        } else {
            0.0
        };
        let obs_wall_secs: f64 = self
            .registry
            .timer_snapshots()
            .iter()
            .filter(|(name, _)| name.starts_with("obs."))
            .map(|(_, snapshot)| snapshot.total_secs)
            .sum();
        let obs_share = if elapsed_secs > 0.0 {
            (obs_wall_secs / elapsed_secs).min(1.0)
        } else {
            0.0
        };
        let memory = mem::sample_memory();
        Heartbeat {
            round: pulse.round,
            elapsed_secs,
            rounds_per_sec,
            eta_secs,
            phase: pulse.phase.to_string(),
            entropy: pulse.entropy,
            population: pulse.population,
            obs_share,
            rss_bytes: memory.rss_bytes,
            peak_rss_bytes: memory.peak_rss_bytes,
        }
    }

    /// Replaces `run.status.json` atomically ([`records::write_doc`]), so
    /// readers see either the old document or the new one, never a torn
    /// write.
    fn write_status(&self, beat: &Heartbeat, state: &str) -> std::io::Result<()> {
        let status = RunStatus {
            schema_version: HEARTBEAT_SCHEMA_VERSION,
            state: state.to_string(),
            command: self.meta.command.clone(),
            seed: self.meta.seed,
            target_rounds: self.meta.target_rounds,
            beats: self.beats,
            last: beat.clone(),
        };
        records::write_doc(&self.dir.join(RUN_STATUS_FILE), &status)
    }
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Reads `run.status.json`. A missing file propagates as
/// `ErrorKind::NotFound`; a torn/garbage document or a schema-version
/// mismatch maps to `ErrorKind::InvalidData`.
///
/// # Errors
///
/// See above — every failure is an `io::Error` with a telling kind.
pub fn read_status(path: &Path) -> std::io::Result<RunStatus> {
    let status: RunStatus = records::read_doc(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::InvalidData {
            invalid(format!("malformed status document {e}"))
        } else {
            e
        }
    })?;
    if status.schema_version != HEARTBEAT_SCHEMA_VERSION {
        return Err(invalid(format!(
            "{}: status schema_version {} does not match the supported version {}",
            path.display(),
            status.schema_version,
            HEARTBEAT_SCHEMA_VERSION
        )));
    }
    Ok(status)
}

/// Parses a heartbeat stream: the `meta` header then every *complete*
/// beat line, under the shared truncation policy of
/// [`records::read_lines`] (bytes after the final newline are an
/// in-flight write and are ignored).
///
/// # Errors
///
/// `ErrorKind::InvalidData` when the first record is not a `meta`
/// header (headerless stream), on a schema-version mismatch, on a
/// second header, or on a malformed complete line (reported with its
/// 1-based line number).
pub fn read_heartbeat<R: std::io::Read>(
    reader: R,
) -> std::io::Result<(HeartbeatMeta, Vec<Heartbeat>)> {
    let mut lines = records::read_lines::<HeartbeatRecord, _>(
        std::io::BufReader::new(reader),
        "heartbeat stream",
    )?
    .into_iter();
    let Some(HeartbeatRecord::Meta(meta)) = lines.next() else {
        return Err(invalid(
            "heartbeat stream has no meta header (the first record must be a meta record)"
                .to_string(),
        ));
    };
    if meta.schema_version != HEARTBEAT_SCHEMA_VERSION {
        return Err(invalid(format!(
            "heartbeat stream schema_version {} does not match the supported version {}",
            meta.schema_version, HEARTBEAT_SCHEMA_VERSION
        )));
    }
    let beats = lines
        .map(|record| match record {
            HeartbeatRecord::Beat(beat) => Ok(beat),
            HeartbeatRecord::Meta(_) => Err(invalid(
                "heartbeat stream has a second meta header".to_string(),
            )),
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok((meta, beats))
}

/// Classifies the swarm-level phase from aggregate state, mirroring
/// the paper's §3.2 per-peer phases at the population level: the run
/// is `bootstrap` while the median peer is still acquiring its first
/// tradable piece, `last` once the median peer is within the final 10%
/// of pieces, `done` when the population has drained, and `efficient`
/// in between.
#[must_use]
pub fn swarm_phase(population: u64, median_pieces: u64, pieces: u32) -> &'static str {
    let pieces = u64::from(pieces);
    if population == 0 {
        "done"
    } else if median_pieces <= 1 {
        "bootstrap"
    } else if median_pieces >= pieces.saturating_sub((pieces / 10).max(1)) {
        "last"
    } else {
        "efficient"
    }
}

/// A wall-clock stopwatch for code *outside* the simulation — watcher
/// stall detection, CLI elapsed displays. Lives here so every wall
/// clock read in the workspace stays inside the one audited module.
#[derive(Debug)]
pub struct WallTimer(Instant);

impl WallTimer {
    /// Starts the stopwatch.
    #[must_use]
    pub fn start() -> WallTimer {
        WallTimer(Instant::now())
    }

    /// Wall seconds since [`WallTimer::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Restarts the stopwatch.
    pub fn reset(&mut self) {
        self.0 = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bt_obs_heartbeat_{}_{label}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn options(dir: &Path) -> HeartbeatOptions {
        HeartbeatOptions {
            dir: dir.to_path_buf(),
            interval: Duration::ZERO,
            command: "swarm".to_string(),
            seed: 42,
            target_rounds: 100,
        }
    }

    fn pulse(round: u64) -> HeartbeatPulse {
        HeartbeatPulse {
            round,
            population: 20,
            entropy: 3.5,
            phase: "efficient",
        }
    }

    #[test]
    fn emitter_round_trips_through_the_stream() {
        let dir = temp_dir("roundtrip");
        let mut emitter =
            HeartbeatEmitter::new(options(&dir), Registry::new()).expect("emitter starts");
        assert!(emitter.due(), "first beat is always due");
        emitter.beat(&pulse(10)).expect("beat writes");
        emitter.beat(&pulse(20)).expect("beat writes");
        emitter.finish(&pulse(100)).expect("final beat writes");
        emitter.finish(&pulse(100)).expect("finish is idempotent");
        assert_eq!(emitter.beats(), 3, "idempotent finish emits nothing");

        let file = std::fs::File::open(dir.join(HEARTBEAT_STREAM_FILE)).expect("stream exists");
        let (meta, beats) = read_heartbeat(file).expect("stream parses");
        assert_eq!(meta.command, "swarm");
        assert_eq!(meta.seed, 42);
        assert_eq!(meta.target_rounds, 100);
        assert_eq!(
            beats.iter().map(|b| b.round).collect::<Vec<_>>(),
            vec![10, 20, 100]
        );
        assert!(beats.iter().all(|b| b.phase == "efficient"));

        let status = read_status(&dir.join(RUN_STATUS_FILE)).expect("status parses");
        assert!(status.is_finished());
        assert_eq!(status.last.round, 100);
        assert_eq!(status.beats, 3);
        assert!((status.progress() - 1.0).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_exists_before_the_first_beat() {
        let dir = temp_dir("initial");
        let emitter =
            HeartbeatEmitter::new(options(&dir), Registry::new()).expect("emitter starts");
        let status = read_status(&dir.join(RUN_STATUS_FILE)).expect("initial status exists");
        assert!(!status.is_finished());
        assert_eq!(status.last.round, 0);
        assert_eq!(status.beats, 0);
        drop(emitter);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nonzero_interval_throttles_due() {
        let dir = temp_dir("throttle");
        let mut opts = options(&dir);
        opts.interval = Duration::from_secs(3600);
        let mut emitter = HeartbeatEmitter::new(opts, Registry::new()).expect("emitter starts");
        assert!(emitter.due(), "first beat is due immediately");
        emitter.beat(&pulse(1)).expect("beat writes");
        assert!(!emitter.due(), "an hour has not passed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_stream_is_invalid_data() {
        let line = serde_json::to_string(&HeartbeatRecord::Beat(Heartbeat {
            round: 1,
            elapsed_secs: 0.1,
            rounds_per_sec: 10.0,
            eta_secs: 9.9,
            phase: "efficient".to_string(),
            entropy: 3.0,
            population: 5,
            obs_share: 0.01,
            rss_bytes: 1,
            peak_rss_bytes: 2,
        }))
        .unwrap();
        let err = read_heartbeat(format!("{line}\n").as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no meta header"), "{err}");

        let err = read_heartbeat(&b""[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn swarm_phase_tracks_the_paper_boundaries() {
        assert_eq!(swarm_phase(0, 50, 100), "done");
        assert_eq!(swarm_phase(10, 0, 100), "bootstrap");
        assert_eq!(swarm_phase(10, 1, 100), "bootstrap");
        assert_eq!(swarm_phase(10, 2, 100), "efficient");
        assert_eq!(swarm_phase(10, 89, 100), "efficient");
        assert_eq!(swarm_phase(10, 90, 100), "last");
        assert_eq!(swarm_phase(10, 100, 100), "last");
        // Tiny piece counts still classify sanely.
        assert_eq!(swarm_phase(5, 2, 3), "last");
        assert_eq!(swarm_phase(5, 1, 3), "bootstrap");
    }

    #[test]
    fn wall_timer_moves_forward() {
        let mut timer = WallTimer::start();
        assert!(timer.elapsed_secs() >= 0.0);
        timer.reset();
        assert!(timer.elapsed_secs() >= 0.0);
    }
}
