//! Observability for the multiphase BitTorrent laboratory.
//!
//! Three pieces, designed to be cheap enough to leave compiled into
//! release binaries:
//!
//! 1. **Structured logging** ([`init`], [`LogMode`], [`EnvFilter`]):
//!    installs a global `tracing` subscriber that renders events either
//!    for humans or as JSON lines. Diagnostics always go to **stderr**
//!    so figure/result output on stdout stays byte-identical whatever
//!    the log mode.
//! 2. **Metrics registry** ([`Registry`], [`Counter`], [`Timer`],
//!    [`Histogram`]): named atomic counters and monotonic timers with
//!    log-bucketed histograms, used by the swarm round loop to count
//!    per-round events and time hot phases.
//! 3. **Run manifests** ([`RunManifest`]): a small JSON document written
//!    next to result files recording what ran (config hash, seed, git
//!    revision), how long each phase took, and final counter totals.
//! 4. **Time series** ([`SeriesStore`], [`RingSeries`]): ring-buffer
//!    backed per-signal sample stores with a configurable sampling
//!    stride and bounded memory, exportable as [`SeriesPoint`] JSON
//!    lines — the storage layer of the swarm telemetry pipeline.
//! 5. **Profiling** ([`ProfileSink`], [`ProfileReport`]): a
//!    zero-cost-when-disabled cost-attribution profiler the swarm round
//!    loop threads through its stages — per-stage wall time and work
//!    counters, per-peer attribution, folded-stacks and per-round series
//!    artifacts. Makes no RNG calls, so attaching it never perturbs a
//!    deterministic run.
//! 6. **Monitors** ([`Monitor`], [`MonitorSet`], [`MonitorReport`],
//!    [`DiagnosisBundle`]): runtime invariant checks sampled at a round
//!    cadence, with a diagnosis-bundle writer that captures forensic
//!    context when an invariant breaks. Generic over the sample type;
//!    the simulation crate supplies the concrete invariants.
//! 7. **Regression ledger** ([`LedgerRecord`], [`append_record`],
//!    [`read_ledger`]): every run appends one compact health-and-perf
//!    record to `results/ledger.jsonl` so `btlab trend` can track
//!    trajectories across runs instead of against a single baseline.
//! 8. **Streaming sketches** ([`CountCells`], [`P2Quantile`]):
//!    deterministic, dependency-free distribution summaries — exact
//!    sharded counter cells for bounded domains and a P² quantile
//!    estimator for unbounded ones — so per-sample telemetry work is
//!    sublinear in population.
//! 9. **Peer cohorts** ([`CohortSink`], [`read_cohort`]): a
//!    deterministic reservoir-sampled peer cohort whose members get
//!    full binary-framed lifecycle traces at O(cohort) cost per round,
//!    with a JSONL export path.
//! 10. **Heartbeats** ([`HeartbeatEmitter`], [`read_status`],
//!     [`read_heartbeat`]): wall-clock-cadenced progress records for
//!     long runs — an append-only `run.heartbeat.jsonl` stream plus an
//!     atomically-replaced `run.status.json` that `btlab watch` tails.
//!     The one sanctioned wall-clock module; observer-only, so
//!     attaching heartbeats never perturbs a deterministic run.
//! 11. **Memory telemetry** ([`mem`]): procfs RSS sampling
//!     (`/proc/self/statm` + `VmHWM`) for heartbeats and manifests.
//! 12. **Record codec** ([`records`]): the one framing every JSON
//!     artifact goes through — single-write JSON lines read back as
//!     complete lines only, atomically replaced pretty documents, and
//!     `ErrorKind::InvalidData` for anything malformed.
//!
//! # Span hierarchy
//!
//! ```text
//! sim.run                  (bt-des)   one DES drive to the horizon
//! └─ per-event dispatch    TRACE events, target "bt_des::event"
//! swarm.run                (bt-swarm) one swarm simulation
//! └─ swarm.round           DEBUG span per simulated round
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cohort;
mod filter;
mod heartbeat;
mod ledger;
mod manifest;
pub mod mem;
mod monitor;
mod profiling;
pub mod records;
mod registry;
mod sketch;
mod subscriber;
mod timeseries;

pub use cohort::{
    acquire_source, read_cohort, write_jsonl as write_cohort_jsonl, CohortAcquire, CohortDepart,
    CohortError, CohortEvent, CohortEvict, CohortHandout, CohortJoin, CohortMeta, CohortObserve,
    CohortOptions, CohortPhase, CohortShake, CohortSink, CohortSlot, COHORT_MAGIC,
    COHORT_SCHEMA_VERSION,
};
pub use filter::EnvFilter;
pub use heartbeat::{
    read_heartbeat, read_status, swarm_phase, Heartbeat, HeartbeatEmitter, HeartbeatMeta,
    HeartbeatOptions, HeartbeatPulse, HeartbeatRecord, RunStatus, WallTimer,
    HEARTBEAT_SCHEMA_VERSION, HEARTBEAT_STREAM_FILE, RUN_STATUS_FILE,
};
pub use ledger::{
    append_record, default_ledger_path, read_ledger, rotate_ledger, LedgerRecord,
    DEFAULT_MAX_LEDGER_BYTES, LEDGER_SCHEMA_VERSION,
};
pub use manifest::{fnv1a_hex, git_describe, RunManifest, MANIFEST_SCHEMA_VERSION};
pub use monitor::{
    DiagnosisBundle, Monitor, MonitorReport, MonitorSet, Violation, MONITOR_SCHEMA_VERSION,
};
pub use profiling::{
    LatencySummary, PeerWork, ProfileOptions, ProfileReport, ProfileSink, StageProfile,
    PROFILE_SCHEMA_VERSION,
};
pub use registry::{Counter, Histogram, Registry, Timer, TimerGuard, TimerSnapshot};
pub use sketch::{CountCells, P2Quantile};
pub use subscriber::{init, init_from_env, LogMode};
pub use timeseries::{RingSeries, SeriesPoint, SeriesStore};
