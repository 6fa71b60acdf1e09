//! Deterministic cost-attribution profiling for staged round loops.
//!
//! [`ProfileSink`] is the hook a round-based engine threads through its
//! hot path: [`begin_round`](ProfileSink::begin_round) /
//! [`begin_stage`](ProfileSink::begin_stage) /
//! [`add_work`](ProfileSink::add_work) /
//! [`end_stage`](ProfileSink::end_stage) /
//! [`end_round`](ProfileSink::end_round). Disabled — the default — every
//! call is an inlined branch on a `None` and returns immediately, so the
//! engine pays nothing measurable for carrying the hooks. Enabled, the
//! sink aggregates, per round and per stage:
//!
//! * wall time, log-bucketed into the shared [`Histogram`] so per-stage
//!   and whole-round p50/p95/p99 latencies come out at report time. The
//!   sink reads no clock: the caller hands each stage's elapsed time to
//!   [`end_stage`](ProfileSink::end_stage) (the engine passes what its
//!   `round.<stage>` registry [`Timer`](crate::Timer) measured), and a
//!   round's latency is the sum of its stage times;
//! * named *work counters* — candidate comparisons, handout entries,
//!   bitfield words scanned, slab probes — the "why" behind the wall
//!   clock;
//! * per-peer cumulative work keyed by the engine's sequence-stable peer
//!   ids, so the top-K hottest peers can be ranked;
//! * a per-round [`SeriesStore`] time series of stage cost, in the same
//!   point format the telemetry pipeline streams.
//!
//! Crucially for the simulation's determinism contract, the profiler
//! makes **zero RNG calls** and never branches on sampled time, so
//! attaching it cannot perturb a same-seed run: the telemetry stream of
//! a profiled run is byte-identical to an unprofiled one.
//!
//! [`ProfileSink::write_artifacts`] emits three files: a
//! [`ProfileReport`] JSON summary, a folded-stacks text file
//! (`swarm;stage;counter count`) consumable by standard flamegraph
//! tooling, and per-round JSON lines in the telemetry
//! [`SeriesPoint`](crate::SeriesPoint) format.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

use crate::records;
use crate::registry::Histogram;
use crate::timeseries::SeriesStore;

/// Schema version stamped into every [`ProfileReport`].
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Configuration for an enabled [`ProfileSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileOptions {
    /// RNG seed of the profiled run, echoed into the report so profiles
    /// can be matched to manifests.
    pub seed: u64,
    /// How many of the hottest peers (by cumulative attributed work) the
    /// report ranks.
    pub top_peers: usize,
    /// Sampling stride for the per-round series (1 = every round).
    pub series_stride: u64,
    /// Ring capacity per series; older rounds are evicted beyond this.
    pub series_capacity: usize,
}

impl Default for ProfileOptions {
    fn default() -> ProfileOptions {
        ProfileOptions {
            seed: 0,
            top_peers: 10,
            series_stride: 1,
            series_capacity: 4096,
        }
    }
}

/// Latency percentiles of one timing distribution, in nanoseconds.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples, in seconds.
    pub total_secs: f64,
    /// Approximate median, `None` when empty.
    pub p50_ns: Option<u64>,
    /// Approximate 95th percentile, `None` when empty.
    pub p95_ns: Option<u64>,
    /// Approximate 99th percentile, `None` when empty.
    pub p99_ns: Option<u64>,
    /// Exact maximum, `None` when empty.
    pub max_ns: Option<u64>,
}

impl LatencySummary {
    fn from_histogram(histogram: &Histogram, total_ns: u64) -> LatencySummary {
        LatencySummary {
            count: histogram.count(),
            total_secs: total_ns as f64 / 1e9,
            p50_ns: histogram.percentile(50.0),
            p95_ns: histogram.percentile(95.0),
            p99_ns: histogram.percentile(99.0),
            max_ns: histogram.max(),
        }
    }
}

/// Aggregated cost of one pipeline stage across the profiled rounds.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageProfile {
    /// Stage name, in pipeline order.
    pub name: String,
    /// Rounds in which the stage ran.
    pub rounds: u64,
    /// Total wall time spent in the stage, in seconds.
    pub total_secs: f64,
    /// Fraction of all stage wall time spent here (`0.0..=1.0`).
    pub share: f64,
    /// Per-round latency distribution of the stage.
    pub latency: LatencySummary,
    /// Cumulative named work counters, sorted by counter name.
    pub work: Vec<(String, u64)>,
}

/// Cumulative attributed work of one peer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PeerWork {
    /// Sequence-stable peer id (`PeerId::seq`).
    pub peer: u64,
    /// Cumulative work units attributed to the peer.
    pub work: u64,
}

/// The `profile.json` summary of one profiled run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProfileReport {
    /// Report schema version ([`PROFILE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// RNG seed of the profiled run.
    pub seed: u64,
    /// Number of profiled rounds.
    pub rounds: u64,
    /// Total wall time across profiled rounds, in seconds.
    pub total_secs: f64,
    /// Rounds per second of wall time (0 when nothing was timed).
    pub rounds_per_sec: f64,
    /// Whole-round latency distribution.
    pub round_latency: LatencySummary,
    /// Per-stage cost, in pipeline order.
    pub stages: Vec<StageProfile>,
    /// Hottest peers by cumulative attributed work, descending.
    pub top_peers: Vec<PeerWork>,
}

impl ProfileReport {
    /// The stage named `name`, if it ran.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Writes the report as folded stacks — one `frame;frame count` line
    /// per stage (weight: wall nanoseconds) and per work counter (weight:
    /// count) — the input format of standard flamegraph tooling.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_folded<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        for stage in &self.stages {
            let wall_ns = (stage.total_secs * 1e9).max(0.0) as u64;
            writeln!(w, "swarm;{} {}", stage.name, wall_ns)?;
            for (counter, count) in &stage.work {
                writeln!(w, "swarm;{};{} {}", stage.name, counter, count)?;
            }
        }
        Ok(())
    }
}

/// The stage open within the current round.
#[derive(Debug)]
struct CurrentStage {
    index: usize,
    /// Work reported via `add_work` since `begin_stage`; merged into the
    /// stage aggregate (and the per-round series) at `end_stage`. Tiny —
    /// a stage reports one to three counters — so linear merge is fine.
    pending: Vec<(&'static str, u64)>,
}

/// Running aggregate for one stage.
#[derive(Debug)]
struct StageAgg {
    name: &'static str,
    rounds: u64,
    total_ns: u64,
    latency: Histogram,
    work: BTreeMap<&'static str, u64>,
}

/// The live profiler state behind an enabled [`ProfileSink`].
#[derive(Debug)]
struct Profiler {
    options: ProfileOptions,
    rounds: u64,
    round_total_ns: u64,
    round_latency: Histogram,
    /// Stage time summed so far in the open round; `None` between
    /// rounds.
    round_ns: Option<u64>,
    current_round: u64,
    /// Stage aggregates in first-seen (= pipeline) order. At most the
    /// pipeline length, so linear lookup beats a map.
    stages: Vec<StageAgg>,
    current_stage: Option<CurrentStage>,
    /// Cumulative work per peer, indexed by `PeerId::seq`. Dense by
    /// construction (seqs are allocated consecutively), so a vector keeps
    /// the hot-path attribution at O(1) with no hashing.
    peer_work: Vec<u64>,
    series: SeriesStore,
    /// Cached `stage.<name>.ns` series names, to avoid re-formatting in
    /// the per-round path.
    stage_series: BTreeMap<&'static str, String>,
    /// Cached `work.<counter>` series names.
    work_series: BTreeMap<&'static str, String>,
}

impl Profiler {
    fn new(options: ProfileOptions) -> Profiler {
        let series = SeriesStore::new(options.series_stride, options.series_capacity);
        Profiler {
            options,
            rounds: 0,
            round_total_ns: 0,
            round_latency: Histogram::new(),
            round_ns: None,
            current_round: 0,
            stages: Vec::new(),
            current_stage: None,
            peer_work: Vec::new(),
            series,
            stage_series: BTreeMap::new(),
            work_series: BTreeMap::new(),
        }
    }

    fn begin_round(&mut self, round: u64) {
        self.current_round = round;
        self.round_ns = Some(0);
    }

    fn end_round(&mut self) {
        let Some(elapsed_ns) = self.round_ns.take() else {
            return;
        };
        self.rounds += 1;
        self.round_total_ns = self.round_total_ns.saturating_add(elapsed_ns);
        self.round_latency.record(elapsed_ns);
        self.series
            .record("round.ns", self.current_round, elapsed_ns as f64);
    }

    fn begin_stage(&mut self, name: &'static str) {
        let index = match self.stages.iter().position(|s| s.name == name) {
            Some(index) => index,
            None => {
                self.stages.push(StageAgg {
                    name,
                    rounds: 0,
                    total_ns: 0,
                    latency: Histogram::new(),
                    work: BTreeMap::new(),
                });
                self.stages.len() - 1
            }
        };
        self.current_stage = Some(CurrentStage {
            index,
            pending: Vec::new(),
        });
    }

    fn end_stage(&mut self, elapsed: Duration) {
        let Some(current) = self.current_stage.take() else {
            return;
        };
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if let Some(round_ns) = &mut self.round_ns {
            *round_ns = round_ns.saturating_add(elapsed_ns);
        }
        let round = self.current_round;
        let on_stride = self.series.accepts(round);
        let Some(agg) = self.stages.get_mut(current.index) else {
            return;
        };
        agg.rounds += 1;
        agg.total_ns = agg.total_ns.saturating_add(elapsed_ns);
        agg.latency.record(elapsed_ns);
        if on_stride {
            let series_name = self
                .stage_series
                .entry(agg.name)
                .or_insert_with(|| format!("stage.{}.ns", agg.name));
            self.series.record(series_name, round, elapsed_ns as f64);
        }
        for (counter, amount) in current.pending {
            let total = agg.work.entry(counter).or_insert(0);
            *total = total.saturating_add(amount);
            if on_stride {
                let series_name = self
                    .work_series
                    .entry(counter)
                    .or_insert_with(|| format!("work.{counter}"));
                self.series.record(series_name, round, amount as f64);
            }
        }
    }

    fn add_work(&mut self, counter: &'static str, amount: u64) {
        // Work reported outside a stage window has nowhere to be
        // attributed; drop it rather than invent a stage.
        let Some(current) = &mut self.current_stage else {
            return;
        };
        match current
            .pending
            .iter_mut()
            .find(|(name, _)| *name == counter)
        {
            Some((_, total)) => *total = total.saturating_add(amount),
            None => current.pending.push((counter, amount)),
        }
    }

    fn add_peer_work(&mut self, seq: u64, amount: u64) {
        let Ok(index) = usize::try_from(seq) else {
            return;
        };
        if index >= self.peer_work.len() {
            self.peer_work.resize(index + 1, 0);
        }
        if let Some(slot) = self.peer_work.get_mut(index) {
            *slot = slot.saturating_add(amount);
        }
    }

    fn report(&self) -> ProfileReport {
        let stage_total_ns: u64 = self.stages.iter().map(|s| s.total_ns).sum();
        let stages = self
            .stages
            .iter()
            .map(|agg| StageProfile {
                name: agg.name.to_string(),
                rounds: agg.rounds,
                total_secs: agg.total_ns as f64 / 1e9,
                share: if stage_total_ns > 0 {
                    agg.total_ns as f64 / stage_total_ns as f64
                } else {
                    0.0
                },
                latency: LatencySummary::from_histogram(&agg.latency, agg.total_ns),
                work: agg
                    .work
                    .iter()
                    .map(|(name, total)| ((*name).to_string(), *total))
                    .collect(),
            })
            .collect();
        let mut top_peers: Vec<PeerWork> = self
            .peer_work
            .iter()
            .enumerate()
            .filter(|&(_, &work)| work > 0)
            .map(|(seq, &work)| PeerWork {
                peer: seq as u64,
                work,
            })
            .collect();
        top_peers.sort_by_key(|p| (std::cmp::Reverse(p.work), p.peer));
        top_peers.truncate(self.options.top_peers);
        let total_secs = self.round_total_ns as f64 / 1e9;
        ProfileReport {
            schema_version: PROFILE_SCHEMA_VERSION,
            seed: self.options.seed,
            rounds: self.rounds,
            total_secs,
            rounds_per_sec: if total_secs > 0.0 {
                self.rounds as f64 / total_secs
            } else {
                0.0
            },
            round_latency: LatencySummary::from_histogram(&self.round_latency, self.round_total_ns),
            stages,
            top_peers,
        }
    }
}

/// The engine-facing profiling hook: a disabled sink is a no-op on every
/// call, an enabled one aggregates per-round × per-stage cost.
///
/// The sink deliberately takes `&mut self` everywhere and owns all its
/// state, so attaching it introduces no locks, no shared memory, and —
/// the determinism-critical property — no RNG use.
#[derive(Debug, Default)]
pub struct ProfileSink {
    inner: Option<Box<Profiler>>,
}

impl ProfileSink {
    /// A disabled sink: every hook call is a no-op (same as `default()`).
    #[must_use]
    pub fn disabled() -> ProfileSink {
        ProfileSink { inner: None }
    }

    /// An enabled sink aggregating under the given options.
    #[must_use]
    pub fn enabled(options: ProfileOptions) -> ProfileSink {
        ProfileSink {
            inner: Some(Box::new(Profiler::new(options))),
        }
    }

    /// Whether the sink is recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Marks the start of round `round`.
    #[inline]
    pub fn begin_round(&mut self, round: u64) {
        if let Some(profiler) = &mut self.inner {
            profiler.begin_round(round);
        }
    }

    /// Marks the end of the current round, recording its latency: the
    /// sum of the stage times handed to [`end_stage`](Self::end_stage)
    /// since [`begin_round`](Self::begin_round).
    #[inline]
    pub fn end_round(&mut self) {
        if let Some(profiler) = &mut self.inner {
            profiler.end_round();
        }
    }

    /// Marks the start of stage `name` within the current round.
    #[inline]
    pub fn begin_stage(&mut self, name: &'static str) {
        if let Some(profiler) = &mut self.inner {
            profiler.begin_stage(name);
        }
    }

    /// Marks the end of the current stage, folding `elapsed` — the
    /// stage's wall time as the caller measured it — and the pending
    /// work into the aggregates.
    #[inline]
    pub fn end_stage(&mut self, elapsed: Duration) {
        if let Some(profiler) = &mut self.inner {
            profiler.end_stage(elapsed);
        }
    }

    /// Attributes `amount` units of work named `counter` to the current
    /// stage. Calls outside a `begin_stage`/`end_stage` window are
    /// dropped.
    #[inline]
    pub fn add_work(&mut self, counter: &'static str, amount: u64) {
        if let Some(profiler) = &mut self.inner {
            profiler.add_work(counter, amount);
        }
    }

    /// Attributes `amount` units of work to the peer with sequence id
    /// `seq`, for top-K hottest-peer ranking.
    #[inline]
    pub fn add_peer_work(&mut self, seq: u64, amount: u64) {
        if let Some(profiler) = &mut self.inner {
            profiler.add_peer_work(seq, amount);
        }
    }

    /// Builds the summary report; `None` when the sink is disabled.
    #[must_use]
    pub fn report(&self) -> Option<ProfileReport> {
        self.inner.as_ref().map(|profiler| profiler.report())
    }

    /// The per-round series recorded so far; `None` when disabled.
    #[must_use]
    pub fn series(&self) -> Option<&SeriesStore> {
        self.inner.as_ref().map(|profiler| &profiler.series)
    }

    /// Writes the three profile artifacts: the [`ProfileReport`] JSON at
    /// `path`, folded stacks at `path` with extension `folded`, and the
    /// per-round series at `path` with extension `rounds.jsonl`. Returns
    /// `false` (writing nothing) when the sink is disabled.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and serialization failures.
    pub fn write_artifacts(&self, path: &Path) -> std::io::Result<bool> {
        let Some(profiler) = &self.inner else {
            return Ok(false);
        };
        let report = profiler.report();
        records::write_doc(path, &report)?;

        let mut folded = Vec::new();
        report.write_folded(&mut folded)?;
        std::fs::write(path.with_extension("folded"), folded)?;

        let mut rounds = Vec::new();
        for point in profiler.series.points() {
            records::write_line(&mut rounds, &point)?;
        }
        std::fs::write(path.with_extension("rounds.jsonl"), rounds)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rounds of a 3 µs establish stage and a 1 µs exchange stage.
    fn run_rounds(sink: &mut ProfileSink, rounds: u64) {
        for round in 0..rounds {
            sink.begin_round(round);
            sink.begin_stage("establish");
            sink.add_work("establish.candidate_comparisons", 10);
            sink.add_work("establish.candidate_comparisons", 5);
            sink.add_peer_work(3, 7);
            sink.end_stage(Duration::from_micros(3));
            sink.begin_stage("exchange");
            sink.add_work("exchange.piece_transfers", 2);
            sink.add_peer_work(1, 1);
            sink.end_stage(Duration::from_micros(1));
            sink.end_round();
        }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut sink = ProfileSink::disabled();
        run_rounds(&mut sink, 5);
        assert!(!sink.is_enabled());
        assert!(sink.report().is_none());
        assert!(sink.series().is_none());
        let path = std::env::temp_dir().join("bt-obs-prof-disabled/profile.json");
        assert!(!sink.write_artifacts(&path).unwrap());
        assert!(!path.exists());
    }

    #[test]
    fn aggregates_rounds_stages_work_and_peers() {
        let mut sink = ProfileSink::enabled(ProfileOptions {
            seed: 42,
            ..ProfileOptions::default()
        });
        run_rounds(&mut sink, 4);
        let report = sink.report().unwrap();
        assert_eq!(report.schema_version, PROFILE_SCHEMA_VERSION);
        assert_eq!(report.seed, 42);
        assert_eq!(report.rounds, 4);
        assert_eq!(report.total_secs, 16e-6, "a round is its stages' sum");
        assert_eq!(report.round_latency.count, 4);
        assert_eq!(report.round_latency.max_ns, Some(4_000));

        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["establish", "exchange"], "pipeline order kept");
        let establish = report.stage("establish").unwrap();
        assert_eq!(establish.rounds, 4);
        assert_eq!(establish.total_secs, 12e-6);
        assert_eq!(establish.share, 0.75);
        assert_eq!(
            establish.work,
            vec![("establish.candidate_comparisons".to_string(), 60)],
            "amounts for one counter merge within and across rounds"
        );
        assert!(establish.latency.p50_ns.is_some());
        assert!(establish.latency.p95_ns.is_some());
        let share_sum: f64 = report.stages.iter().map(|s| s.share).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1: {share_sum}"
        );

        // Peer 3 earned 7×4 = 28, peer 1 earned 1×4 = 4; hottest first.
        assert_eq!(
            report.top_peers,
            vec![
                PeerWork { peer: 3, work: 28 },
                PeerWork { peer: 1, work: 4 }
            ]
        );
    }

    #[test]
    fn top_peers_is_truncated_and_tie_broken_by_seq() {
        let mut sink = ProfileSink::enabled(ProfileOptions {
            top_peers: 2,
            ..ProfileOptions::default()
        });
        sink.begin_round(0);
        sink.begin_stage("establish");
        sink.add_peer_work(9, 5);
        sink.add_peer_work(2, 5);
        sink.add_peer_work(4, 1);
        sink.end_stage(Duration::ZERO);
        sink.end_round();
        let report = sink.report().unwrap();
        assert_eq!(
            report.top_peers,
            vec![PeerWork { peer: 2, work: 5 }, PeerWork { peer: 9, work: 5 }],
            "equal work ranks by seq; third peer truncated"
        );
    }

    #[test]
    fn per_round_series_is_recorded_on_stride() {
        let mut sink = ProfileSink::enabled(ProfileOptions {
            series_stride: 2,
            ..ProfileOptions::default()
        });
        run_rounds(&mut sink, 6);
        let series = sink.series().unwrap();
        let stage = series.get("stage.establish.ns").unwrap();
        let ticks: Vec<u64> = stage.iter().map(|(t, _)| t).collect();
        assert_eq!(ticks, vec![0, 2, 4], "only strided rounds sampled");
        let work = series.get("work.exchange.piece_transfers").unwrap();
        assert!(work.iter().all(|(_, v)| (v - 2.0).abs() < 1e-12));
        assert!(series.get("round.ns").is_some());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut sink = ProfileSink::enabled(ProfileOptions::default());
        run_rounds(&mut sink, 3);
        let report = sink.report().unwrap();
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn folded_stacks_format() {
        let report = ProfileReport {
            schema_version: PROFILE_SCHEMA_VERSION,
            seed: 0,
            rounds: 1,
            total_secs: 0.0,
            rounds_per_sec: 0.0,
            round_latency: LatencySummary {
                count: 1,
                total_secs: 0.0,
                p50_ns: None,
                p95_ns: None,
                p99_ns: None,
                max_ns: None,
            },
            stages: vec![StageProfile {
                name: "exchange".to_string(),
                rounds: 1,
                total_secs: 2e-6,
                share: 1.0,
                latency: LatencySummary {
                    count: 1,
                    total_secs: 2e-6,
                    p50_ns: Some(2000),
                    p95_ns: Some(2000),
                    p99_ns: Some(2000),
                    max_ns: Some(2000),
                },
                work: vec![("exchange.piece_transfers".to_string(), 12)],
            }],
            top_peers: Vec::new(),
        };
        let mut buf = Vec::new();
        report.write_folded(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "swarm;exchange 2000\nswarm;exchange;exchange.piece_transfers 12\n"
        );
    }

    #[test]
    fn artifacts_land_on_disk_and_read_back() {
        let dir = std::env::temp_dir().join("bt-obs-prof-artifacts");
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = ProfileSink::enabled(ProfileOptions {
            seed: 7,
            ..ProfileOptions::default()
        });
        run_rounds(&mut sink, 2);
        let path = dir.join("profile.json");
        assert!(sink.write_artifacts(&path).unwrap());
        let report: ProfileReport = records::read_doc(&path).unwrap();
        assert_eq!(report.seed, 7);
        assert_eq!(report.rounds, 2);
        let folded = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
        assert!(folded.contains("swarm;establish"), "{folded}");
        let jsonl = std::fs::read(dir.join("profile.rounds.jsonl")).unwrap();
        let points: Vec<crate::SeriesPoint> = records::read_lines(&jsonl[..], "rounds").unwrap();
        assert!(points.iter().any(|p| p.series == "round.ns"), "{points:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unbalanced_hooks_are_tolerated() {
        let mut sink = ProfileSink::enabled(ProfileOptions::default());
        sink.end_stage(Duration::from_secs(1)); // no stage open: dropped
        sink.end_round(); // no round open
        sink.add_work("orphan", 5); // outside any stage: dropped
        sink.begin_round(0);
        sink.begin_stage("a");
        sink.end_stage(Duration::from_nanos(5));
        sink.end_round();
        let report = sink.report().unwrap();
        assert_eq!(report.rounds, 1);
        assert_eq!(report.round_latency.max_ns, Some(5));
        assert_eq!(report.stage("a").unwrap().work, vec![]);
    }
}
