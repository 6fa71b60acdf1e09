//! The swarm workloads (`lifecycle-5k`, `join-20k`, `churn-3k`), the
//! registry and profiler readings they share with `paper-figures`, and
//! the tracker probe.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bt_obs::{ProfileOptions, ProfileReport, ProfileSink, Registry};
use bt_swarm::tracker::Tracker;
use bt_swarm::{
    scenario, DoctorOptions, PeerId, Swarm, SwarmConfig, SwarmMetrics, TelemetryOptions,
    TelemetryRecorder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::run::{timed, Recorder, Workload};
use crate::stats::{median, tail};
use crate::trace::SpanId;

/// Registry timer of each stage, and the metric it feeds.
const STAGE_TIMERS: [(&str, &str); 7] = [
    ("round.maintain", "stage.maintain.s"),
    ("round.bootstrap", "stage.bootstrap.s"),
    ("round.prune", "stage.prune.s"),
    ("round.establish", "stage.establish.s"),
    ("round.exchange", "stage.exchange.s"),
    ("round.depart", "stage.depart.s"),
    ("round.sample", "stage.sample.s"),
];

/// Members of the churn workload's traced peer cohort.
const COHORT: u32 = 64;

/// Profiler work counter (summed over stages), and the metric it feeds.
const WORK_COUNTERS: [(&str, &str); 6] = [
    ("maintain.handout_entries", "work.maintain.handout_entries"),
    (
        "establish.candidate_comparisons",
        "work.establish.candidate_comparisons",
    ),
    ("exchange.bitfield_words", "work.exchange.bitfield_words"),
    ("exchange.piece_transfers", "work.exchange.piece_transfers"),
    ("store.slab_probes", "work.store.slab_probes"),
    ("sample.peers_sampled", "work.sample.peers_sampled"),
];

/// Observer timers, and the metric each feeds.
const OBS_TIMERS: [(&str, &str); 3] = [
    ("obs.telemetry", "obs.telemetry_s"),
    ("obs.doctor", "obs.doctor_s"),
    ("obs.heartbeat", "obs.heartbeat_s"),
];

/// Timer and counter totals of a registry, or their growth between two
/// readings of a shared one.
pub struct Totals {
    timers: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

impl Totals {
    pub fn of(registry: &Registry) -> Totals {
        Totals {
            timers: registry
                .timer_snapshots()
                .into_iter()
                .map(|(n, s)| (n, s.total_secs))
                .collect(),
            counters: registry.counter_totals().into_iter().collect(),
        }
    }

    pub fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            timers: self
                .timers
                .iter()
                .map(|(n, v)| (n.clone(), v - earlier.timer(n)))
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n))))
                .collect(),
        }
    }

    fn timer(&self, name: &str) -> f64 {
        self.timers.get(name).copied().unwrap_or(0.0)
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Records the engine, stage and observer layers of one traced unit
/// whose timed phase took `run_s`.
pub fn record_layers(
    rec: &mut Recorder,
    totals: &Totals,
    profile: Option<&ProfileReport>,
    run_s: f64,
    peer_rounds: u64,
) {
    let stages: f64 = totals
        .timers
        .iter()
        .filter(|(n, _)| n.starts_with("round."))
        .map(|(_, v)| v)
        .sum();
    for (timer, metric) in STAGE_TIMERS {
        rec.layer(metric, totals.timer(timer));
    }
    let share = |timer: &str| {
        if stages > 0.0 {
            totals.timer(timer) / stages
        } else {
            0.0
        }
    };
    rec.layer("stage.maintain.share", share("round.maintain"));
    rec.layer("stage.exchange.share", share("round.exchange"));
    rec.layer("stage.establish.share", share("round.establish"));
    let mut observers = 0.0;
    for (timer, metric) in OBS_TIMERS {
        observers += totals.timer(timer);
        rec.layer(metric, totals.timer(timer));
    }
    rec.layer("obs.share", observers / run_s);
    rec.layer("engine.other_s", (run_s - stages - observers).max(0.0));
    rec.layer("engine.peer_rounds_per_s", peer_rounds as f64 / run_s);
    let attempts = totals.counter("swarm.conn_attempts");
    if attempts > 0 {
        rec.layer(
            "establish.success_ratio",
            totals.counter("swarm.conn_successes") as f64 / attempts as f64,
        );
    }
    let Some(profile) = profile else {
        return;
    };
    let work = |counter: &str| -> u64 {
        profile
            .stages
            .iter()
            .flat_map(|s| &s.work)
            .filter(|(n, _)| n == counter)
            .map(|(_, v)| v)
            .sum()
    };
    for (counter, metric) in WORK_COUNTERS {
        rec.layer(metric, work(counter) as f64);
    }
    let ns_per = |timer: &str, counter: &str| match work(counter) {
        0 => 0.0,
        n => totals.timer(timer) * 1e9 / n as f64,
    };
    rec.layer(
        "stage.maintain.ns_per_handout_entry",
        ns_per("round.maintain", "maintain.handout_entries"),
    );
    rec.layer(
        "stage.exchange.ns_per_transfer",
        ns_per("round.exchange", "exchange.piece_transfers"),
    );
    rec.layer(
        "stage.establish.ns_per_comparison",
        ns_per("round.establish", "establish.candidate_comparisons"),
    );
}

/// Lays the profiler's per-round stage durations out as children of
/// each round's span, back to back from the round's start in pipeline
/// order.
fn stage_spans(
    rec: &mut Recorder,
    profile: &ProfileSink,
    stage_names: &[&str],
    rounds: &[(u64, SpanId)],
) {
    let Some(series) = profile.series() else {
        return;
    };
    let per_stage: Vec<(&str, BTreeMap<u64, f64>)> = stage_names
        .iter()
        .map(|&name| {
            let points = series
                .get(&format!("stage.{name}.ns"))
                .map(|s| s.iter().collect())
                .unwrap_or_default();
            (name, points)
        })
        .collect();
    for &(round, span) in rounds {
        let mut at = rec.trace.start_of(span);
        for (name, points) in &per_stage {
            let ns = points.get(&round).copied().unwrap_or(0.0) as u64;
            rec.trace
                .record(span, format!("stage.{name}"), at, at + ns, true);
            at += ns;
        }
    }
}

fn check_invariants(rec: &mut Recorder, swarm: &Swarm) {
    let held = std::panic::catch_unwind(AssertUnwindSafe(|| swarm.assert_invariants()));
    rec.check(
        "swarm invariants",
        held.is_ok(),
        format_args!("violated at round {}", swarm.round()),
    );
}

/// Every peer that arrived (the initial leechers included) is either
/// still in the swarm or has departed.
fn check_conservation(rec: &mut Recorder, metrics: &SwarmMetrics, population: u64) {
    let ok = metrics.arrivals == population + metrics.departures;
    let detail = format_args!(
        "{} arrivals, {} present, {} departed",
        metrics.arrivals, population, metrics.departures
    );
    rec.check("peer conservation", ok, detail);
}

fn peer_rounds(metrics: &SwarmMetrics) -> u64 {
    metrics.population.iter().map(|&(_, p)| p).sum()
}

/// Builds a swarm with its initial leechers, timed as set-up.
fn build(rec: &mut Recorder, config: SwarmConfig, registry: &Registry) -> Swarm {
    let span = rec.trace.open(rec.unit_span(), "setup");
    let (swarm, secs) = timed(|| Swarm::with_registry(config, registry.clone()));
    rec.trace.close(span);
    rec.setup_done(secs);
    swarm
}

/// A swarm driven one round at a time through `Swarm::step_round`,
/// which sees no arrivals: a closed population.
struct Stepped {
    peers: u32,
    rounds: u64,
    /// Stop early once every peer has departed.
    until_empty: bool,
    /// Round after which the structural invariants are checked, outside
    /// the timing.
    check_round: u64,
    /// Largest population seen, for the tracker probe.
    peak: u64,
}

impl Stepped {
    fn config(&self, seed: u64) -> SwarmConfig {
        scenario::scale_probe(self.peers, self.rounds, seed).expect("the scale preset is valid")
    }
}

impl Workload for Stepped {
    fn setup(&mut self, rec: &mut Recorder, seed: u64) {
        build(rec, self.config(seed), &Registry::new());
    }

    fn unit(&mut self, rec: &mut Recorder, seed: u64) {
        let registry = Registry::new();
        let mut swarm = build(rec, self.config(seed), &registry);
        if rec.traced() {
            swarm.attach_profiler(ProfileOptions {
                seed,
                ..ProfileOptions::default()
            });
        }
        let mut run_s = 0.0;
        let mut round_spans = Vec::new();
        for round in 1..=self.rounds {
            if self.until_empty && swarm.population() == 0 {
                break;
            }
            let span = rec.trace.open(rec.unit_span(), format!("round {round}"));
            let ((), secs) = timed(|| swarm.step_round());
            rec.trace.close(span);
            run_s += secs;
            rec.step(format!("round {round}"), secs);
            rec.round_ms(secs * 1e3);
            round_spans.push((round, span));
            if round == self.check_round {
                check_invariants(rec, &swarm);
            }
        }
        let population = swarm.population();
        check_conservation(rec, swarm.metrics(), population);
        if self.until_empty {
            let departed = swarm.metrics().departures;
            let detail = format_args!("{departed} of {} departed, {population} left", self.peers);
            rec.check(
                "every peer completes and departs",
                population == 0 && departed == u64::from(self.peers),
                detail,
            );
        }
        self.peak = self
            .peak
            .max(registry.counter("swarm.peak_population").get());
        if rec.traced() {
            let profile = swarm.take_profile();
            stage_spans(rec, &profile, &swarm.stage_names(), &round_spans);
            let report = profile.report();
            record_layers(
                rec,
                &Totals::of(&registry),
                report.as_ref(),
                run_s,
                peer_rounds(swarm.metrics()),
            );
        }
    }

    fn probe(&mut self, rec: &mut Recorder, seed: u64) {
        tracker_probe(rec, self.peak, self.config(seed).neighbor_set_size, seed);
    }
}

/// `lifecycle-5k`: 5 000 peers from bootstrap until the last departs.
pub fn lifecycle(smoke: bool) -> impl Workload {
    Stepped {
        peers: if smoke { 300 } else { 5_000 },
        rounds: 60,
        until_empty: true,
        check_round: 10,
        peak: 0,
    }
}

/// `join-20k`: 20 000 peers joining at once, over the first two rounds.
pub fn join(smoke: bool) -> impl Workload {
    Stepped {
        peers: if smoke { 1_000 } else { 20_000 },
        rounds: 2,
        until_empty: false,
        check_round: 2,
        peak: 0,
    }
}

/// A writer that adds the time spent in its `write` and `flush` calls
/// (and the final flush when dropped) to a shared total: the observers'
/// stream I/O, measured at the boundary the benchmark owns.
struct TimedWriter<W: Write> {
    inner: W,
    nanos: Arc<AtomicU64>,
}

impl<W: Write> TimedWriter<W> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut W) -> T) -> T {
        let started = Instant::now();
        let value = f(&mut self.inner);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        value
    }
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.timed(|w| w.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.timed(|w| w.flush())
    }
}

impl<W: Write> Drop for TimedWriter<W> {
    fn drop(&mut self) {
        // An error here would have been lost by the inner writer's own drop too.
        let _ = self.flush();
    }
}

fn stream(path: &Path, nanos: &Arc<AtomicU64>) -> Box<dyn Write + Send> {
    let file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    Box::new(TimedWriter {
        inner: std::io::BufWriter::new(file),
        nanos: Arc::clone(nanos),
    })
}

/// `churn-3k`: an open swarm with Poisson arrivals driven by
/// `Swarm::run`, under the full observer stack.
struct Churn {
    initial: u32,
    arrival_rate: f64,
    rounds: u64,
    peak: u64,
}

impl Churn {
    fn config(&self, seed: u64) -> SwarmConfig {
        SwarmConfig::builder()
            .pieces(50)
            .max_connections(7)
            .neighbor_set_size(40)
            .arrival_rate(self.arrival_rate)
            .initial_leechers(self.initial)
            .max_rounds(self.rounds)
            .seed(seed)
            .build()
            .expect("the churn configuration is valid")
    }
}

pub fn churn(smoke: bool) -> impl Workload {
    Churn {
        initial: if smoke { 200 } else { 3_000 },
        arrival_rate: if smoke { 25.0 } else { 400.0 },
        rounds: if smoke { 12 } else { 30 },
        peak: 0,
    }
}

impl Workload for Churn {
    fn setup(&mut self, rec: &mut Recorder, seed: u64) {
        build(rec, self.config(seed), &Registry::new());
    }

    fn unit(&mut self, rec: &mut Recorder, seed: u64) {
        let registry = Registry::new();
        let mut swarm = build(rec, self.config(seed), &registry);
        let stage_names = swarm.stage_names();
        let dir = rec.out_dir.clone();
        let io_nanos = Arc::new(AtomicU64::new(0));
        let telemetry = TelemetryRecorder::new(TelemetryOptions::default())
            .to_writer(stream(&dir.join("telemetry.jsonl"), &io_nanos));
        swarm.attach_telemetry(telemetry);
        swarm.attach_cohort(COHORT, stream(&dir.join("cohort.cohort"), &io_nanos));
        let heartbeat = bt_obs::HeartbeatOptions {
            dir: dir.clone(),
            interval: std::time::Duration::from_secs(1),
            command: "btbench churn-3k".to_string(),
            seed,
            target_rounds: self.rounds,
        };
        swarm.attach_heartbeat(
            bt_obs::HeartbeatEmitter::new(heartbeat, registry.clone())
                .expect("create heartbeat files"),
        );
        swarm.attach_doctor(DoctorOptions {
            cadence: 10,
            bundle_root: Some(dir),
            run_id: format!("churn-{seed}"),
            ..DoctorOptions::default()
        });
        if rec.traced() {
            swarm.attach_profiler(ProfileOptions {
                seed,
                ..ProfileOptions::default()
            });
        }
        let run_span = rec.trace.open(rec.unit_span(), "swarm.run");
        let ((metrics, profile, doctor), run_s) = timed(|| swarm.run_diagnosed());
        rec.trace.close(run_span);
        rec.step("swarm.run", run_s);

        check_conservation(rec, &metrics, metrics.final_population());
        let clean = doctor
            .as_ref()
            .is_some_and(|d| d.is_clean() && d.report.checks > 0);
        let detail = doctor.as_ref().map_or_else(
            || "no report".to_string(),
            |d| {
                format!(
                    "{} violations in {} checks",
                    d.report.violations.len(),
                    d.report.checks
                )
            },
        );
        rec.check("doctor reports no violations", clean, detail);
        self.peak = self
            .peak
            .max(registry.counter("swarm.peak_population").get());
        if !rec.traced() {
            return;
        }
        // `Swarm::run` times rounds itself; lay them out back to back
        // from the start of the run, leaving the arrivals in between as
        // the run span's self time.
        let mut at = rec.trace.start_of(run_span);
        let mut round_spans = Vec::new();
        if let Some(rounds) = profile.series().and_then(|s| s.get("round.ns")) {
            for (round, ns) in rounds.iter() {
                rec.round_ms(ns / 1e6);
                round_spans.push((
                    round,
                    rec.trace
                        .record(run_span, format!("round {round}"), at, at + ns as u64, true),
                ));
                at += ns as u64;
            }
        }
        stage_spans(rec, &profile, &stage_names, &round_spans);
        let report = profile.report();
        record_layers(
            rec,
            &Totals::of(&registry),
            report.as_ref(),
            run_s,
            peer_rounds(&metrics),
        );
        rec.layer("obs.flush_s", io_nanos.load(Ordering::Relaxed) as f64 / 1e9);
    }

    fn probe(&mut self, rec: &mut Recorder, seed: u64) {
        tracker_probe(rec, self.peak, self.config(seed).neighbor_set_size, seed);
    }
}

/// Times single tracker calls on a benchmark-owned tracker holding
/// `population` synthetic peers: 1 000 each of `register`, `deregister`
/// (of a random peer, which keeps the population steady) and
/// `handout_into` for a random requester that already knows half of
/// its `neighbor_set_size` neighbours and asks for the rest.
pub fn tracker_probe(rec: &mut Recorder, population: u64, neighbor_set_size: u32, seed: u64) {
    const CALLS: usize = 1_000;
    if population == 0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tracker = Tracker::new();
    for seq in 0..population {
        tracker.register(PeerId::synthetic(seq));
    }
    let known = (neighbor_set_size / 2) as usize;
    let wanted = neighbor_set_size as usize - known;
    let (mut register, mut deregister, mut handout) = (Vec::new(), Vec::new(), Vec::new());
    let (mut out, mut exclude) = (Vec::new(), Vec::new());
    let micros = |started: Instant| started.elapsed().as_secs_f64() * 1e6;
    for call in 0..CALLS as u64 {
        let started = Instant::now();
        tracker.register(PeerId::synthetic(population + call));
        register.push(micros(started));

        let leaving = tracker.peers()[rng.gen_range(0..tracker.len())];
        let started = Instant::now();
        std::hint::black_box(tracker.deregister(leaving));
        deregister.push(micros(started));

        let peers = tracker.peers();
        let requester = peers[rng.gen_range(0..peers.len())];
        exclude.clear();
        exclude.extend((0..known).map(|_| peers[rng.gen_range(0..peers.len())]));
        let started = Instant::now();
        tracker.handout_into(&mut out, requester, &exclude, wanted, &mut rng);
        handout.push(micros(started));
        std::hint::black_box(&out);
    }
    for (samples, p50, tail_name) in [
        (
            &register,
            "tracker.register_us.p50",
            "tracker.register_us.tail",
        ),
        (
            &deregister,
            "tracker.deregister_us.p50",
            "tracker.deregister_us.tail",
        ),
        (
            &handout,
            "tracker.handout_us.p50",
            "tracker.handout_us.tail",
        ),
    ] {
        rec.layer(p50, median(samples));
        rec.layer(tail_name, tail(samples).map_or(0.0, |(_, v)| v));
    }
}
