//! Run manifests: what ran, how long, and what it counted. Written and
//! read as documents through [`crate::records`].

use std::time::Duration;

use crate::registry::{Registry, TimerSnapshot};

/// Schema version stamped into every manifest.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// A JSON document written next to result files at the end of a run,
/// recording enough to reproduce and sanity-check it: the command and
/// configuration hash, RNG seed, source revision, wall-clock per phase,
/// and final counter totals.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunManifest {
    /// Manifest schema version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The subcommand or binary that produced the run.
    pub command: String,
    /// FNV-1a hash of the run's identity — what it simulates and
    /// checks, not where it writes or how many threads it uses — as hex.
    pub config_hash: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// `git describe --always --dirty`, or `"unknown"` outside a repo.
    pub git_describe: String,
    /// Total wall-clock time of the run, in seconds.
    pub wall_clock_secs: f64,
    /// Wall-clock seconds per named phase, in phase order.
    pub phase_secs: Vec<(String, f64)>,
    /// Timer percentile snapshots per named phase.
    #[serde(default)]
    pub phase_timers: Vec<(String, TimerSnapshot)>,
    /// Active round-pipeline stage names, in execution order (empty for
    /// commands without a stage pipeline, and in manifests written
    /// before the field existed).
    #[serde(default)]
    pub pipeline: Vec<String>,
    /// Stage names disabled by configuration for this run.
    #[serde(default)]
    pub disabled_stages: Vec<String>,
    /// Final counter totals, sorted by counter name.
    pub counters: Vec<(String, u64)>,
    /// Largest simultaneous peer population observed.
    pub peak_population: u64,
    /// Wall-clock seconds spent in observer-side work (telemetry
    /// sampling, monitor checks, cohort tracing — the `obs.*` phase
    /// timers). Zero in manifests written before the field existed.
    #[serde(default)]
    pub obs_wall_secs: f64,
    /// Observer share of total wall clock (`obs_wall_secs /
    /// wall_clock_secs`), the quantity the `--obs-budget` gate checks.
    #[serde(default)]
    pub obs_share: f64,
    /// Worker-thread count the run's parallel plan phases used. Zero in
    /// manifests written before the field existed (treat as 1: those
    /// runs were serial). Purely a throughput knob — the determinism
    /// contract guarantees byte-identical results at every value — but
    /// recorded so performance comparisons only pair like with like.
    #[serde(default)]
    pub threads: u32,
    /// Resident-set size in bytes sampled at the end of the run
    /// (`/proc/self/statm`). Zero in manifests written before the field
    /// existed and on platforms without procfs.
    #[serde(default)]
    pub rss_bytes: u64,
    /// Peak resident-set size in bytes over the whole run (`VmHWM`),
    /// the quantity the `--mem-budget` gate checks. Zero in manifests
    /// written before the field existed and on platforms without
    /// procfs.
    #[serde(default)]
    pub peak_rss_bytes: u64,
}

impl RunManifest {
    /// A manifest skeleton for `command`; phases, counters, and totals
    /// are filled in by [`RunManifest::finish`].
    #[must_use]
    pub fn new(command: &str, config_hash: String, seed: u64) -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            command: command.to_string(),
            config_hash,
            seed,
            git_describe: git_describe(),
            wall_clock_secs: 0.0,
            phase_secs: Vec::new(),
            phase_timers: Vec::new(),
            pipeline: Vec::new(),
            disabled_stages: Vec::new(),
            counters: Vec::new(),
            peak_population: 0,
            obs_wall_secs: 0.0,
            obs_share: 0.0,
            threads: 1,
            rss_bytes: 0,
            peak_rss_bytes: 0,
        }
    }

    /// Copies totals out of `registry` and stamps the wall clock,
    /// deriving the observer-overhead share from the `obs.*` timers.
    pub fn finish(&mut self, registry: &Registry, wall_clock: Duration) {
        self.wall_clock_secs = wall_clock.as_secs_f64();
        self.counters = registry.counter_totals();
        self.phase_timers = registry.timer_snapshots();
        self.phase_secs = self
            .phase_timers
            .iter()
            .map(|(name, snapshot)| (name.clone(), snapshot.total_secs))
            .collect();
        self.obs_wall_secs = self
            .phase_secs
            .iter()
            .filter(|(name, _)| name.starts_with("obs."))
            .map(|(_, secs)| secs)
            .sum();
        self.obs_share = if self.wall_clock_secs > 0.0 {
            self.obs_wall_secs / self.wall_clock_secs
        } else {
            0.0
        };
        let memory = crate::mem::sample_memory();
        self.rss_bytes = memory.rss_bytes;
        self.peak_rss_bytes = memory.peak_rss_bytes;
    }

    /// Value of the counter named `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(counter, _)| counter == name)
            .map(|(_, total)| *total)
    }
}

/// FNV-1a hash of `bytes`, rendered as 16 hex digits. Used to
/// fingerprint run configurations in manifests and filenames.
#[must_use]
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git or a repository is unavailable.
#[must_use]
pub fn git_describe() -> String {
    let output = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output();
    match output {
        Ok(output) if output.status.success() => {
            let text = String::from_utf8_lossy(&output.stdout).trim().to_string();
            if text.is_empty() {
                "unknown".to_string()
            } else {
                text
            }
        }
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> RunManifest {
        let registry = Registry::new();
        registry.counter("arrivals").add(10);
        registry.counter("completions").add(7);
        registry.timer("exchange").record(Duration::from_millis(12));
        let mut manifest = RunManifest::new("swarm", fnv1a_hex(b"config"), 42);
        manifest.peak_population = 55;
        manifest.finish(&registry, Duration::from_secs(2));
        manifest
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let manifest = sample_manifest();
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let back: RunManifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, manifest);
    }

    #[test]
    fn manifest_collects_registry_totals() {
        let manifest = sample_manifest();
        assert_eq!(manifest.schema_version, MANIFEST_SCHEMA_VERSION);
        assert_eq!(manifest.counter("arrivals"), Some(10));
        assert_eq!(manifest.counter("completions"), Some(7));
        assert_eq!(manifest.counter("missing"), None);
        assert_eq!(manifest.phase_secs.len(), 1);
        assert_eq!(manifest.phase_secs[0].0, "exchange");
        assert!(manifest.phase_secs[0].1 >= 0.012);
        assert!((manifest.wall_clock_secs - 2.0).abs() < 1e-9);
    }

    // Manifests written before `phase_timers` existed must still load.
    #[test]
    fn manifest_tolerates_missing_phase_timers() {
        let manifest = sample_manifest();
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        let trimmed = match value {
            serde_json::Value::Object(entries) => serde_json::Value::Object(
                entries
                    .into_iter()
                    .filter(|(key, _)| key != "phase_timers")
                    .collect(),
            ),
            other => other,
        };
        let back: RunManifest =
            serde_json::from_str(&serde_json::to_string(&trimmed).unwrap()).unwrap();
        assert!(back.phase_timers.is_empty());
        assert_eq!(back.counter("arrivals"), Some(10));
    }

    // Manifests written before the pipeline fields existed must still
    // load, with both lists empty.
    #[test]
    fn manifest_tolerates_missing_pipeline_fields() {
        let manifest = sample_manifest();
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        let trimmed = match value {
            serde_json::Value::Object(entries) => serde_json::Value::Object(
                entries
                    .into_iter()
                    .filter(|(key, _)| key != "pipeline" && key != "disabled_stages")
                    .collect(),
            ),
            other => other,
        };
        let back: RunManifest =
            serde_json::from_str(&serde_json::to_string(&trimmed).unwrap()).unwrap();
        assert!(back.pipeline.is_empty());
        assert!(back.disabled_stages.is_empty());
    }

    // Manifests written before the observer-overhead fields existed
    // must still load, with both shares zero.
    #[test]
    fn manifest_tolerates_missing_obs_fields() {
        let manifest = sample_manifest();
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        let trimmed = match value {
            serde_json::Value::Object(entries) => serde_json::Value::Object(
                entries
                    .into_iter()
                    .filter(|(key, _)| key != "obs_wall_secs" && key != "obs_share")
                    .collect(),
            ),
            other => other,
        };
        let back: RunManifest =
            serde_json::from_str(&serde_json::to_string(&trimmed).unwrap()).unwrap();
        assert!(bt_markov_float_is_zero(back.obs_wall_secs));
        assert!(bt_markov_float_is_zero(back.obs_share));
    }

    /// Local exact-zero check (this crate has no bt-markov dependency).
    fn bt_markov_float_is_zero(x: f64) -> bool {
        x.abs() < f64::EPSILON
    }

    // Manifests written before `threads` existed must still load; the
    // zero marks them as pre-field (consumers treat that as serial).
    #[test]
    fn manifest_tolerates_missing_threads() {
        let manifest = sample_manifest();
        assert_eq!(manifest.threads, 1, "fresh manifests default to serial");
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        let trimmed = match value {
            serde_json::Value::Object(entries) => serde_json::Value::Object(
                entries
                    .into_iter()
                    .filter(|(key, _)| key != "threads")
                    .collect(),
            ),
            other => other,
        };
        let back: RunManifest =
            serde_json::from_str(&serde_json::to_string(&trimmed).unwrap()).unwrap();
        assert_eq!(back.threads, 0);
    }

    // Manifests written before the memory fields existed must still
    // load, with both readings zero ("telemetry unavailable").
    #[test]
    fn manifest_tolerates_missing_memory_fields() {
        let manifest = sample_manifest();
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        let trimmed = match value {
            serde_json::Value::Object(entries) => serde_json::Value::Object(
                entries
                    .into_iter()
                    .filter(|(key, _)| key != "rss_bytes" && key != "peak_rss_bytes")
                    .collect(),
            ),
            other => other,
        };
        let back: RunManifest =
            serde_json::from_str(&serde_json::to_string(&trimmed).unwrap()).unwrap();
        assert_eq!(back.rss_bytes, 0);
        assert_eq!(back.peak_rss_bytes, 0);
    }

    #[test]
    fn finish_samples_process_memory() {
        let registry = Registry::new();
        let mut manifest = RunManifest::new("swarm", fnv1a_hex(b"mem"), 1);
        manifest.finish(&registry, Duration::from_secs(1));
        assert!(
            manifest.peak_rss_bytes >= manifest.rss_bytes,
            "peak covers current"
        );
        if cfg!(target_os = "linux") {
            assert!(manifest.rss_bytes > 0, "procfs reports a resident process");
        }
    }

    #[test]
    fn finish_derives_obs_share_from_obs_timers() {
        let registry = Registry::new();
        registry
            .timer("round.exchange")
            .record(Duration::from_millis(900));
        registry
            .timer("obs.telemetry")
            .record(Duration::from_millis(80));
        registry
            .timer("obs.doctor")
            .record(Duration::from_millis(20));
        let mut manifest = RunManifest::new("swarm", fnv1a_hex(b"obs"), 1);
        manifest.finish(&registry, Duration::from_secs(1));
        assert!((manifest.obs_wall_secs - 0.1).abs() < 5e-3);
        assert!((manifest.obs_share - 0.1).abs() < 5e-3);
    }

    #[test]
    fn manifest_carries_pipeline_configuration() {
        let mut manifest = sample_manifest();
        manifest.pipeline = vec!["maintain".to_string(), "sample".to_string()];
        manifest.disabled_stages = vec!["shake".to_string()];
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let back: RunManifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.pipeline, manifest.pipeline);
        assert_eq!(back.disabled_stages, manifest.disabled_stages);
    }

    #[test]
    fn manifest_writes_to_disk() {
        let manifest = sample_manifest();
        let dir = std::env::temp_dir().join("bt-obs-manifest-test");
        let path = dir.join("nested").join("manifest.json");
        crate::records::write_doc(&path, &manifest).unwrap();
        let back: RunManifest = crate::records::read_doc(&path).unwrap();
        assert_eq!(back, manifest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_hash_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_ne!(fnv1a_hex(b"config-a"), fnv1a_hex(b"config-b"));
        assert_eq!(fnv1a_hex(b"config-a").len(), 16);
    }

    #[test]
    fn git_describe_never_panics() {
        let described = git_describe();
        assert!(!described.is_empty());
    }
}
