//! The cross-run regression ledger.
//!
//! A single frozen baseline (`results/baseline/manifest-swarm-5k.json`)
//! tells you whether today's build regressed against one blessed run;
//! it says nothing about the *trajectory* — a 2 % slide per PR that
//! never trips a 10 % tolerance, or a monitor violation that appeared
//! three runs ago. The ledger is the longitudinal complement: every
//! `btlab swarm` and `btlab doctor` run appends one compact
//! [`LedgerRecord`] line to `results/ledger.jsonl`, and `btlab trend`
//! reads the file back to render per-metric trajectories over the last
//! K runs.
//!
//! Records separate **identity** fields (command, seed, config hash,
//! pipeline, rounds, population, violations — a pure function of the
//! run's inputs) from **timing** fields (wall clock, rounds/sec, stage
//! p95s — machine-dependent). The config hash covers only what the run
//! simulates and checks, so runs that differ in thread count, artifact
//! paths or heartbeat cadence share one identity. [`LedgerRecord::normalized`] zeroes the
//! timing fields so the determinism suite can assert that two same-seed
//! runs produce byte-identical records up to wall-clock noise.

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::manifest::RunManifest;
use crate::records;

/// Schema version stamped into every ledger record.
pub const LEDGER_SCHEMA_VERSION: u32 = 1;

/// One run's compact health-and-performance record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// Record schema version ([`LEDGER_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The subcommand or binary that produced the run.
    pub command: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// FNV-1a hash of the run's identity — what it simulates and
    /// checks, not where it writes or how many threads it uses — as hex.
    pub config_hash: String,
    /// Active round-pipeline stage names, in execution order.
    pub pipeline: Vec<String>,
    /// Largest simultaneous peer population observed.
    pub peak_population: u64,
    /// Rounds the run executed.
    pub rounds: u64,
    /// Total wall-clock time of the run, in seconds (timing field).
    pub wall_clock_secs: f64,
    /// Sustained round throughput (timing field; 0 when unknown).
    pub rounds_per_sec: f64,
    /// Per-stage p95 latency in nanoseconds, from the `round.*` phase
    /// timers, in pipeline order (timing field).
    pub stage_p95_ns: Vec<(String, u64)>,
    /// Invariant violations the run's monitors found (0 for unmonitored
    /// runs).
    pub violations: u64,
    /// Observer share of the run's wall clock (timing field; 0 in
    /// records written before the field existed).
    #[serde(default)]
    pub obs_share: f64,
    /// Worker-thread count the run's parallel plan phases used (0 in
    /// records written before the field existed; treat as 1). A
    /// throughput knob, not part of the run's deterministic identity —
    /// [`LedgerRecord::normalized`] zeroes it with the other timing
    /// fields — but kept raw so `btlab trend` can chart rounds/sec per
    /// thread count.
    #[serde(default)]
    pub threads: u32,
    /// Peak resident-set size of the run's process in bytes (`VmHWM`;
    /// 0 in records written before the field existed or off procfs).
    /// Machine-dependent, so [`LedgerRecord::normalized`] zeroes it
    /// with the timing fields; `btlab trend` and the `--mem-budget`
    /// compare gate read the raw value.
    #[serde(default)]
    pub peak_rss_bytes: u64,
}

impl LedgerRecord {
    /// Builds a record from a finished [`RunManifest`] plus the monitor
    /// violation count. Rounds come from the `swarm.rounds` counter and
    /// stage p95s from the `round.*` phase timers.
    #[must_use]
    pub fn from_manifest(manifest: &RunManifest, violations: u64) -> LedgerRecord {
        let rounds = manifest.counter("swarm.rounds").unwrap_or(0);
        let rounds_per_sec = if rounds > 0 && manifest.wall_clock_secs > 0.0 {
            rounds as f64 / manifest.wall_clock_secs
        } else {
            0.0
        };
        let stage_p95_ns = manifest
            .phase_timers
            .iter()
            .filter(|(name, _)| name.starts_with("round."))
            .map(|(name, t)| (name.clone(), t.p95_ns.unwrap_or(0)))
            .collect();
        LedgerRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            command: manifest.command.clone(),
            seed: manifest.seed,
            config_hash: manifest.config_hash.clone(),
            pipeline: manifest.pipeline.clone(),
            peak_population: manifest.peak_population,
            rounds,
            wall_clock_secs: manifest.wall_clock_secs,
            rounds_per_sec,
            stage_p95_ns,
            violations,
            obs_share: manifest.obs_share,
            threads: manifest.threads,
            peak_rss_bytes: manifest.peak_rss_bytes,
        }
    }

    /// A copy with the timing fields (wall clock, rounds/sec, stage
    /// p95 values) zeroed, leaving only the deterministic identity of
    /// the run. Two same-seed monitored runs must serialize normalized
    /// records to identical bytes — the determinism suite asserts this.
    #[must_use]
    pub fn normalized(&self) -> LedgerRecord {
        LedgerRecord {
            wall_clock_secs: 0.0,
            rounds_per_sec: 0.0,
            obs_share: 0.0,
            threads: 0,
            peak_rss_bytes: 0,
            stage_p95_ns: self
                .stage_p95_ns
                .iter()
                .map(|(name, _)| (name.clone(), 0))
                .collect(),
            ..self.clone()
        }
    }

    /// The p95 of a `round.<stage>` timer, if recorded.
    #[must_use]
    pub fn stage_p95(&self, timer: &str) -> Option<u64> {
        self.stage_p95_ns
            .iter()
            .find(|(name, _)| name == timer)
            .map(|(_, ns)| *ns)
    }
}

/// The ledger path every producer shares: `$BT_LEDGER_PATH` when set,
/// else `ledger.jsonl` in `run_dir`, so the ledger lands next to the run
/// manifests by default.
#[must_use]
pub fn ledger_path(run_dir: &std::path::Path) -> std::path::PathBuf {
    std::env::var_os("BT_LEDGER_PATH")
        .map_or_else(|| run_dir.join("ledger.jsonl"), std::path::PathBuf::from)
}

/// Appends one record to the ledger at `path` as a single
/// [`records::write_line`], creating parent directories and the file
/// itself on first use. A record a crash cut short is dropped first, so
/// the new record never lands glued onto it.
///
/// # Errors
///
/// Propagates filesystem errors, and serializer errors mapped to
/// [`std::io::ErrorKind::InvalidData`].
pub fn append_record(path: &Path, record: &LedgerRecord) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    drop_torn_tail(&mut file)?;
    records::write_line(&mut file, record)
}

/// Truncates `file` back to its last newline when it does not end in
/// one: the tail is a record an interrupted append cut short, which
/// [`read_ledger`] already ignores.
fn drop_torn_tail(file: &mut std::fs::File) -> std::io::Result<()> {
    if file.seek(SeekFrom::End(0))? == 0 {
        return Ok(());
    }
    let mut last = [0u8; 1];
    file.seek(SeekFrom::End(-1))?;
    file.read_exact(&mut last)?;
    if last == [b'\n'] {
        return Ok(());
    }
    let mut bytes = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut bytes)?;
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    file.set_len(keep as u64)
}

/// Default ledger size cap: generous, but bounded (16 MiB holds years
/// of per-run records at a few hundred bytes each).
pub const DEFAULT_MAX_LEDGER_BYTES: u64 = 16 * 1024 * 1024;

/// Rotates the ledger at `path` once it exceeds `max_bytes`: the older
/// half (by bytes) of its lines moves to `<path>.1` (replacing any
/// previous archive), and the file is rewritten with the newest lines
/// only. Returns the number of lines archived, or `None` when the file
/// is absent or under the cap. A `max_bytes` of 0 disables rotation.
///
/// # Errors
///
/// Propagates filesystem errors. Line *contents* are not validated —
/// rotation is a byte-budget operation, so a damaged ledger still
/// rotates (and still fails loudly on the next [`read_ledger`]).
pub fn rotate_ledger(path: &Path, max_bytes: u64) -> std::io::Result<Option<usize>> {
    if max_bytes == 0 {
        return Ok(None);
    }
    let metadata = match std::fs::metadata(path) {
        Ok(m) => m,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if metadata.len() <= max_bytes {
        return Ok(None);
    }
    let text = std::fs::read_to_string(path)?;
    // A torn final record (no newline yet) is not a record; rotation
    // drops it, as every reader does.
    let complete = text.rfind('\n').and_then(|i| text.get(..=i)).unwrap_or("");
    let lines: Vec<&str> = complete.lines().collect();
    // Keep the newest lines fitting in half the cap, so repeated appends
    // do not re-rotate on every run.
    let budget = max_bytes / 2;
    let mut kept_bytes = 0u64;
    let mut first_kept = lines.len();
    for (index, line) in lines.iter().enumerate().rev() {
        let cost = line.len() as u64 + 1;
        // Always keep at least the newest line, however large.
        if kept_bytes + cost > budget && first_kept < lines.len() {
            break;
        }
        kept_bytes += cost;
        first_kept = index;
    }
    let archived = first_kept;
    if archived == 0 {
        return Ok(None);
    }
    let archive_path = {
        let mut name = path.as_os_str().to_os_string();
        name.push(".1");
        std::path::PathBuf::from(name)
    };
    let mut archive = String::new();
    for line in lines.iter().take(archived) {
        archive.push_str(line);
        archive.push('\n');
    }
    std::fs::write(&archive_path, archive)?;
    let mut kept = String::new();
    for line in lines.iter().skip(archived) {
        kept.push_str(line);
        kept.push('\n');
    }
    std::fs::write(path, kept)?;
    Ok(Some(archived))
}

/// Reads every complete record from the ledger at `path`, oldest first,
/// under the shared policy of [`records::read_lines`]: a final record
/// cut short by an interrupted append is ignored, while a malformed
/// complete line is an error naming its 1-based line number (the ledger
/// is append-only machine output, so interior damage is surfaced, not
/// skipped).
///
/// # Errors
///
/// Propagates filesystem errors; malformed lines map to
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_ledger(path: &Path) -> std::io::Result<Vec<LedgerRecord>> {
    let file = std::fs::File::open(path)?;
    records::read_lines(std::io::BufReader::new(file), "ledger")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::fnv1a_hex;
    use crate::registry::Registry;
    use std::io::Write;
    use std::time::Duration;

    fn sample_record(seed: u64) -> LedgerRecord {
        let registry = Registry::new();
        registry.counter("swarm.rounds").add(50);
        registry
            .timer("round.exchange")
            .record(Duration::from_millis(4));
        registry.timer("setup").record(Duration::from_millis(1));
        let mut manifest = RunManifest::new("swarm", fnv1a_hex(b"cfg"), seed);
        manifest.pipeline = vec!["exchange".to_string()];
        manifest.peak_population = 99;
        manifest.finish(&registry, Duration::from_secs(2));
        LedgerRecord::from_manifest(&manifest, 3)
    }

    #[test]
    fn record_derives_from_manifest() {
        let record = sample_record(7);
        assert_eq!(record.schema_version, LEDGER_SCHEMA_VERSION);
        assert_eq!(record.command, "swarm");
        assert_eq!(record.seed, 7);
        assert_eq!(record.rounds, 50);
        assert_eq!(record.violations, 3);
        assert!((record.rounds_per_sec - 25.0).abs() < 1e-9);
        assert!(record.stage_p95("round.exchange").is_some());
        assert!(
            record.stage_p95("setup").is_none(),
            "non-round timers stay out of the ledger"
        );
    }

    #[test]
    fn normalized_zeroes_timing_but_keeps_identity() {
        let record = sample_record(7);
        let normal = record.normalized();
        assert_eq!(normal.wall_clock_secs, 0.0);
        assert_eq!(normal.rounds_per_sec, 0.0);
        assert_eq!(normal.threads, 0, "thread count is a throughput knob");
        assert_eq!(normal.stage_p95("round.exchange"), Some(0));
        assert_eq!(normal.seed, record.seed);
        assert_eq!(normal.rounds, record.rounds);
        assert_eq!(normal.violations, record.violations);
        assert_eq!(normal.config_hash, record.config_hash);
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = std::env::temp_dir().join("bt-obs-ledger-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("ledger.jsonl");
        for seed in [1u64, 2, 3] {
            append_record(&path, &sample_record(seed)).unwrap();
        }
        let records = read_ledger(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.seed).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "append order is read order"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_line_errors_with_line_number() {
        let dir = std::env::temp_dir().join("bt-obs-ledger-bad-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ledger.jsonl");
        append_record(&path, &sample_record(1)).unwrap();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"{not json\n").unwrap();
        drop(file);
        let err = read_ledger(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("ledger line 2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Records written before `obs_share` existed must still load.
    #[test]
    fn record_tolerates_missing_obs_share() {
        let record = sample_record(4);
        let line = serde_json::to_string(&record).unwrap();
        let value: serde_json::Value = serde_json::from_str(&line).unwrap();
        let trimmed = match value {
            serde_json::Value::Object(entries) => serde_json::Value::Object(
                entries
                    .into_iter()
                    .filter(|(key, _)| key != "obs_share")
                    .collect(),
            ),
            other => other,
        };
        let back: LedgerRecord =
            serde_json::from_str(&serde_json::to_string(&trimmed).unwrap()).unwrap();
        assert!(back.obs_share.abs() < f64::EPSILON);
        assert_eq!(back.seed, record.seed);
    }

    // Records written before `peak_rss_bytes` existed must still load,
    // and normalization zeroes the machine-dependent value.
    #[test]
    fn record_tolerates_missing_peak_rss() {
        let record = sample_record(5);
        let line = serde_json::to_string(&record).unwrap();
        let value: serde_json::Value = serde_json::from_str(&line).unwrap();
        let trimmed = match value {
            serde_json::Value::Object(entries) => serde_json::Value::Object(
                entries
                    .into_iter()
                    .filter(|(key, _)| key != "peak_rss_bytes")
                    .collect(),
            ),
            other => other,
        };
        let back: LedgerRecord =
            serde_json::from_str(&serde_json::to_string(&trimmed).unwrap()).unwrap();
        assert_eq!(back.peak_rss_bytes, 0);
        assert_eq!(back.seed, record.seed);
        assert_eq!(record.normalized().peak_rss_bytes, 0);
        if cfg!(target_os = "linux") {
            assert!(
                record.peak_rss_bytes > 0,
                "manifest finish samples memory on linux"
            );
        }
    }

    #[test]
    fn rotation_archives_older_half_and_keeps_newest() {
        let dir = std::env::temp_dir().join("bt-obs-ledger-rotate-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ledger.jsonl");
        for seed in 0..40u64 {
            append_record(&path, &sample_record(seed)).unwrap();
        }
        let full_len = std::fs::metadata(&path).unwrap().len();
        // Under the cap: no-op.
        assert_eq!(rotate_ledger(&path, full_len + 1).unwrap(), None);
        // Over the cap: older lines move to the archive.
        let archived = rotate_ledger(&path, full_len / 2)
            .unwrap()
            .expect("rotation happened");
        assert!(archived > 0);
        let kept = read_ledger(&path).unwrap();
        assert_eq!(kept.len() + archived, 40);
        assert_eq!(
            kept.last().unwrap().seed,
            39,
            "newest record survives rotation"
        );
        assert!(std::fs::metadata(&path).unwrap().len() <= full_len / 4 + 512);
        let archive_path = dir.join("ledger.jsonl.1");
        let old = read_ledger(&archive_path).unwrap();
        assert_eq!(old.len(), archived);
        assert_eq!(old[0].seed, 0, "archive holds the oldest records");
        // Missing file and zero cap are both no-ops.
        assert_eq!(rotate_ledger(&dir.join("absent.jsonl"), 10).unwrap(), None);
        assert_eq!(rotate_ledger(&path, 0).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
