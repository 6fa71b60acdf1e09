//! Runtime invariant monitors and anomaly diagnosis bundles.
//!
//! Profiling answers "where does the time go" and telemetry answers
//! "what did the swarm look like"; the monitor layer answers "was the
//! run *valid*". A [`Monitor`] inspects a sample of simulation state at
//! a configurable round cadence and reports [`Violation`]s of model
//! invariants (piece conservation, index-vs-oracle consistency, entropy
//! collapse, …). The framework here is generic over the sample type —
//! the simulation crate defines what a sample contains and which
//! monitors make sense; this module provides the trait, the
//! [`MonitorSet`] that drives a collection of monitors and accumulates
//! their [`MonitorReport`], and the [`DiagnosisBundle`] writer that
//! captures forensic context the moment an invariant breaks.
//!
//! Like the profiler, monitoring makes **no RNG calls** and never feeds
//! back into simulation decisions, so attaching monitors leaves a
//! same-seed run byte-identical — the determinism suite locks this in.

use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::records;

/// Schema version stamped into monitor reports and diagnosis bundles.
pub const MONITOR_SCHEMA_VERSION: u32 = 1;

/// One invariant violation found by a monitor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The monitor that found it (stable kebab-case name).
    pub monitor: String,
    /// The round at which the check failed.
    pub round: u64,
    /// Human-readable description with the numbers that disagreed.
    pub detail: String,
    /// Identifiers involved (peer sequence numbers or piece ids,
    /// monitor-dependent); empty when the violation is global.
    pub subjects: Vec<u64>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] round {}: {}", self.monitor, self.round, self.detail)
    }
}

/// An invariant check over samples of type `S`.
///
/// Monitors may keep state between samples (e.g. the entropy monitor
/// latches once it has seen a healthy value; the phase monitor tracks
/// per-observer history) — `check` therefore takes `&mut self`.
pub trait Monitor<S> {
    /// Stable kebab-case name, used in violation records and summaries.
    fn name(&self) -> &'static str;

    /// Checks one sample, returning any violations found in it.
    fn check(&mut self, sample: &S) -> Vec<Violation>;
}

/// A collection of monitors driven over a stream of samples,
/// accumulating violations into a [`MonitorReport`].
pub struct MonitorSet<S> {
    monitors: Vec<Box<dyn Monitor<S> + Send>>,
    report: MonitorReport,
}

impl<S> std::fmt::Debug for MonitorSet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorSet")
            .field(
                "monitors",
                &self.monitors.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .field("report", &self.report)
            .finish()
    }
}

impl<S> Default for MonitorSet<S> {
    fn default() -> Self {
        MonitorSet::new()
    }
}

impl<S> MonitorSet<S> {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        MonitorSet {
            monitors: Vec::new(),
            report: MonitorReport::new(),
        }
    }

    /// Adds a monitor to the set.
    pub fn push(&mut self, monitor: Box<dyn Monitor<S> + Send>) {
        self.monitors.push(monitor);
    }

    /// The names of the registered monitors, in check order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.monitors.iter().map(|m| m.name()).collect()
    }

    /// Runs every monitor against `sample`, appending violations to the
    /// report. Returns the violations found in *this* sample (empty for
    /// a clean check).
    pub fn check(&mut self, sample: &S) -> Vec<Violation> {
        self.report.checks += 1;
        let mut fresh = Vec::new();
        for monitor in &mut self.monitors {
            fresh.extend(monitor.check(sample));
        }
        self.report.violations.extend(fresh.iter().cloned());
        fresh
    }

    /// The accumulated report.
    #[must_use]
    pub fn report(&self) -> &MonitorReport {
        &self.report
    }

    /// Consumes the set, yielding the accumulated report.
    #[must_use]
    pub fn into_report(self) -> MonitorReport {
        self.report
    }
}

/// The outcome of a monitored run: how many sampled rounds were checked
/// and every violation found, in detection order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Report schema version ([`MONITOR_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Number of sampled rounds checked.
    pub checks: u64,
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
}

impl Default for MonitorReport {
    fn default() -> Self {
        MonitorReport::new()
    }
}

impl MonitorReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        MonitorReport {
            schema_version: MONITOR_SCHEMA_VERSION,
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// Whether no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A diagnosis bundle: a directory of JSON documents capturing the
/// state around an invariant violation (recent-check ring, peer slice,
/// trailing telemetry, pipeline and profile snapshots).
///
/// The bundle lands at `<root>/diagnosis-<run_id>/`; each document is
/// written with [`DiagnosisBundle::write_json`] (pretty, one file) or
/// [`DiagnosisBundle::write_lines`] (one record per line). All I/O is
/// fallible and propagated — a failed bundle write must never take the
/// run down with it.
#[derive(Debug, Clone)]
pub struct DiagnosisBundle {
    dir: PathBuf,
}

impl DiagnosisBundle {
    /// Creates (or reuses) the bundle directory `<root>/diagnosis-<run_id>`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(root: &Path, run_id: &str) -> std::io::Result<DiagnosisBundle> {
        let dir = root.join(format!("diagnosis-{run_id}"));
        std::fs::create_dir_all(&dir)?;
        Ok(DiagnosisBundle { dir })
    }

    /// The bundle directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `value` as pretty JSON to `<bundle>/<name>`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, and serializer errors mapped to
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> std::io::Result<PathBuf> {
        let path = self.dir.join(name);
        records::write_doc(&path, value)?;
        Ok(path)
    }

    /// Writes `rows` as JSON lines to `<bundle>/<name>`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, and serializer errors mapped to
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn write_lines<T: Serialize>(&self, name: &str, rows: &[T]) -> std::io::Result<PathBuf> {
        let path = self.dir.join(name);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for row in rows {
            records::write_line(&mut out, row)?;
        }
        out.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AboveTen;
    impl Monitor<u64> for AboveTen {
        fn name(&self) -> &'static str {
            "above-ten"
        }
        fn check(&mut self, sample: &u64) -> Vec<Violation> {
            if *sample > 10 {
                vec![Violation {
                    monitor: self.name().to_string(),
                    round: *sample,
                    detail: format!("{sample} exceeds 10"),
                    subjects: vec![*sample],
                }]
            } else {
                Vec::new()
            }
        }
    }

    /// Fires only after it has seen a sample >= 5 (stateful latch).
    struct LatchedDrop {
        armed: bool,
    }
    impl Monitor<u64> for LatchedDrop {
        fn name(&self) -> &'static str {
            "latched-drop"
        }
        fn check(&mut self, sample: &u64) -> Vec<Violation> {
            if *sample >= 5 {
                self.armed = true;
                return Vec::new();
            }
            if self.armed {
                return vec![Violation {
                    monitor: self.name().to_string(),
                    round: *sample,
                    detail: "dropped after being healthy".to_string(),
                    subjects: Vec::new(),
                }];
            }
            Vec::new()
        }
    }

    #[test]
    fn set_accumulates_checks_and_violations() {
        let mut set: MonitorSet<u64> = MonitorSet::new();
        set.push(Box::new(AboveTen));
        set.push(Box::new(LatchedDrop { armed: false }));
        assert_eq!(set.names(), vec!["above-ten", "latched-drop"]);

        assert!(set.check(&3).is_empty(), "low start is not a drop");
        assert!(set.check(&7).is_empty(), "healthy sample arms the latch");
        let fresh = set.check(&2);
        assert_eq!(fresh.len(), 1, "latched monitor fires on the drop");
        let fresh = set.check(&42);
        assert_eq!(fresh.len(), 1, "above-ten fires at 42; 42 re-arms the latch");
        let fresh = set.check(&1);
        assert_eq!(fresh.len(), 1, "re-armed latch fires on the second drop");

        let report = set.report();
        assert_eq!(report.checks, 5);
        assert_eq!(report.violations.len(), 3);
        assert!(!report.is_clean());
        assert_eq!(report.schema_version, MONITOR_SCHEMA_VERSION);
    }

    #[test]
    fn clean_report_round_trips() {
        let set: MonitorSet<u64> = MonitorSet::new();
        let report = set.into_report();
        assert!(report.is_clean());
        let text = serde_json::to_string(&report).unwrap();
        let back: MonitorReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn violation_displays_with_monitor_and_round() {
        let v = Violation {
            monitor: "piece-conservation".to_string(),
            round: 17,
            detail: "held 5 != acquired 4".to_string(),
            subjects: vec![],
        };
        assert_eq!(
            v.to_string(),
            "[piece-conservation] round 17: held 5 != acquired 4"
        );
    }

    #[derive(Serialize)]
    struct Meta {
        round: u64,
    }

    #[test]
    fn bundle_writes_documents() {
        let root = std::env::temp_dir().join("bt-obs-monitor-bundle-test");
        let _ = std::fs::remove_dir_all(&root);
        let bundle = DiagnosisBundle::create(&root, "demo-7").unwrap();
        assert!(bundle.dir().ends_with("diagnosis-demo-7"));
        let meta = bundle.write_json("meta.json", &Meta { round: 9 }).unwrap();
        let rows = bundle
            .write_lines("trail.jsonl", &[1u64, 2, 3])
            .unwrap();
        let text = std::fs::read_to_string(meta).unwrap();
        assert!(text.contains("\"round\": 9"));
        let text = std::fs::read_to_string(rows).unwrap();
        assert_eq!(text, "1\n2\n3\n");
        let _ = std::fs::remove_dir_all(&root);
    }
}
