//! Determinism under a fixed seed: the property the `bt-lint` `det-*`
//! rules exist to protect. Two runs of the same configuration must
//! produce byte-identical telemetry streams and identical engine
//! metrics — any `HashMap` iteration, wall-clock read, or ambient RNG
//! in the hot path would break this.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bt_swarm::{
    DoctorOptions, InitialPieces, Swarm, SwarmConfig, TelemetryOptions, TelemetryRecorder,
};

/// An in-memory `Write` sink readable after the recorder (which owns a
/// `Box<dyn Write>`) is done with it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("buffer lock").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A run's normalized ledger record exactly as the ledger stores it:
/// one JSON line through the shared record codec.
fn ledger_line(record: &bt_obs::LedgerRecord) -> String {
    let mut line = Vec::new();
    bt_obs::records::write_line(&mut line, &record.normalized()).expect("ledger record serializes");
    String::from_utf8(line).expect("JSON is UTF-8")
}

fn config(seed: u64) -> SwarmConfig {
    SwarmConfig::builder()
        .pieces(16)
        .max_connections(4)
        .neighbor_set_size(8)
        .arrival_rate(0.8)
        .initial_leechers(10)
        .initial_pieces(InitialPieces::Random { count: 4 })
        .observers(3)
        .max_rounds(300)
        .seed(seed)
        .build()
        .expect("valid config")
}

/// Runs the swarm for `rounds` rounds with telemetry attached and
/// returns the raw telemetry bytes plus a digest of the engine metrics.
/// With `profiled` set, the cost-attribution profiler rides along; it
/// must not change either output.
fn run_with_profiler(seed: u64, rounds: u64, profiled: bool) -> (Vec<u8>, String) {
    let mut swarm = Swarm::new(config(seed));
    let buf = SharedBuf::default();
    swarm.attach_telemetry(
        TelemetryRecorder::new(TelemetryOptions::default()).to_writer(Box::new(buf.clone())),
    );
    if profiled {
        swarm.attach_profiler(bt_obs::ProfileOptions {
            seed,
            ..bt_obs::ProfileOptions::default()
        });
    }
    for _ in 0..rounds {
        swarm.step_round();
    }
    if profiled {
        let profile = swarm.take_profile();
        let report = profile.report().expect("profiler was attached");
        assert_eq!(report.rounds, rounds, "profiler saw every round");
        assert!(
            !report.stages.is_empty(),
            "profiler recorded per-stage costs"
        );
    }
    let digest = format!("{:?}", swarm.metrics());
    (buf.contents(), digest)
}

fn run_once(seed: u64, rounds: u64) -> (Vec<u8>, String) {
    run_with_profiler(seed, rounds, false)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (stream_a, metrics_a) = run_once(42, 120);
    let (stream_b, metrics_b) = run_once(42, 120);
    assert!(!stream_a.is_empty(), "telemetry stream produced records");
    assert_eq!(
        stream_a, stream_b,
        "same-seed telemetry streams must be byte-identical"
    );
    assert_eq!(metrics_a, metrics_b, "same-seed metrics must agree");
}

#[test]
fn profiler_does_not_perturb_the_run() {
    // The profiler observes wall time and work counters but makes no
    // RNG calls and feeds nothing back into stage decisions, so a
    // profiled run must be byte-identical to an unprofiled one.
    let (plain_stream, plain_metrics) = run_with_profiler(42, 120, false);
    let (profiled_stream, profiled_metrics) = run_with_profiler(42, 120, true);
    assert_eq!(
        plain_stream, profiled_stream,
        "attaching the profiler must not change the telemetry stream"
    );
    assert_eq!(
        plain_metrics, profiled_metrics,
        "attaching the profiler must not change engine metrics"
    );
}

/// Runs the swarm with telemetry (and optionally the doctor) attached,
/// returning the telemetry bytes, a metrics digest, the doctor's
/// report, and the run's normalized ledger record as one JSON line.
fn run_with_doctor(
    seed: u64,
    rounds: u64,
    doctored: bool,
) -> (Vec<u8>, String, Option<bt_swarm::DoctorReport>, String) {
    let registry = bt_obs::Registry::new();
    let mut swarm = Swarm::with_registry(config(seed), registry.clone());
    let buf = SharedBuf::default();
    swarm.attach_telemetry(
        TelemetryRecorder::new(TelemetryOptions::default()).to_writer(Box::new(buf.clone())),
    );
    if doctored {
        swarm.attach_doctor(DoctorOptions {
            cadence: 4,
            ..DoctorOptions::default()
        });
    }
    let pipeline = swarm.stage_names();
    for _ in 0..rounds {
        swarm.step_round();
    }
    let report = swarm.take_doctor_report();
    let digest = format!("{:?}", swarm.metrics());
    let mut manifest = bt_obs::RunManifest::new("swarm", bt_obs::fnv1a_hex(b"det"), seed);
    manifest.pipeline = pipeline.iter().map(|s| (*s).to_string()).collect();
    manifest.finish(&registry, std::time::Duration::from_secs(1));
    manifest.peak_population = registry.counter("swarm.peak_population").get();
    let violations = report
        .as_ref()
        .map_or(0, |r| r.report.violations.len() as u64);
    let ledger = ledger_line(&bt_obs::LedgerRecord::from_manifest(&manifest, violations));
    (buf.contents(), digest, report, ledger)
}

#[test]
fn doctor_does_not_perturb_the_run() {
    // The doctor only reads state (its sample capture makes no RNG
    // calls), so a monitored run must be byte-identical to a bare one.
    let (plain_stream, plain_metrics, no_report, _) = run_with_doctor(42, 120, false);
    let (doctored_stream, doctored_metrics, report, _) = run_with_doctor(42, 120, true);
    assert!(no_report.is_none());
    let report = report.expect("doctor was attached");
    assert!(report.report.checks > 0, "monitors actually sampled rounds");
    assert_eq!(
        plain_stream, doctored_stream,
        "attaching the doctor must not change the telemetry stream"
    );
    assert_eq!(
        plain_metrics, doctored_metrics,
        "attaching the doctor must not change engine metrics"
    );
}

#[test]
fn same_seed_doctored_runs_and_ledger_records_agree() {
    let (stream_a, metrics_a, report_a, ledger_a) = run_with_doctor(42, 120, true);
    let (stream_b, metrics_b, report_b, ledger_b) = run_with_doctor(42, 120, true);
    assert_eq!(
        stream_a, stream_b,
        "same-seed monitored telemetry must be byte-identical"
    );
    assert_eq!(metrics_a, metrics_b);
    let (report_a, report_b) = (report_a.unwrap(), report_b.unwrap());
    assert_eq!(report_a.report.checks, report_b.report.checks);
    assert_eq!(
        format!("{:?}", report_a.report.violations),
        format!("{:?}", report_b.report.violations),
        "monitor verdicts are deterministic"
    );
    assert_eq!(
        ledger_a, ledger_b,
        "same-seed normalized ledger records must serialize identically"
    );
}

/// Runs the swarm with telemetry attached and optionally a cohort of
/// `cohort` members, returning the telemetry bytes, a metrics digest,
/// and the cohort stream bytes (empty when no cohort was attached).
fn run_with_cohort(seed: u64, rounds: u64, cohort: Option<u32>) -> (Vec<u8>, String, Vec<u8>) {
    let mut swarm = Swarm::new(config(seed));
    let buf = SharedBuf::default();
    swarm.attach_telemetry(
        TelemetryRecorder::new(TelemetryOptions::default()).to_writer(Box::new(buf.clone())),
    );
    let cohort_buf = SharedBuf::default();
    if let Some(size) = cohort {
        swarm.attach_cohort(size, Box::new(cohort_buf.clone()));
    }
    for _ in 0..rounds {
        swarm.step_round();
    }
    let sink = swarm.take_cohort();
    if cohort.is_some() {
        assert!(sink.events() > 0, "cohort stayed attached for the run");
    }
    let digest = format!("{:?}", swarm.metrics());
    (buf.contents(), digest, cohort_buf.contents())
}

#[test]
fn cohort_does_not_perturb_the_run() {
    // The cohort sink draws membership from a private RNG stream and
    // makes no model RNG calls, so a traced run must be byte-identical
    // to a bare one.
    let (plain_stream, plain_metrics, empty) = run_with_cohort(42, 120, None);
    let (traced_stream, traced_metrics, cohort_stream) = run_with_cohort(42, 120, Some(8));
    assert!(empty.is_empty(), "no cohort stream without a cohort");
    assert!(
        !cohort_stream.is_empty(),
        "cohort stream produced at least its header"
    );
    assert_eq!(
        plain_stream, traced_stream,
        "attaching a cohort must not change the telemetry stream"
    );
    assert_eq!(
        plain_metrics, traced_metrics,
        "attaching a cohort must not change engine metrics"
    );
}

#[test]
fn same_seed_cohort_streams_are_byte_identical() {
    let (_, _, cohort_a) = run_with_cohort(42, 120, Some(8));
    let (_, _, cohort_b) = run_with_cohort(42, 120, Some(8));
    assert_eq!(
        cohort_a, cohort_b,
        "same-seed cohort streams must be byte-identical"
    );
    let (meta, events) = bt_obs::read_cohort(&cohort_a[..]).expect("cohort stream parses");
    assert_eq!(meta.seed, 42);
    assert_eq!(meta.size, 8);
    assert!(!events.is_empty(), "a 120-round run traces events");
}

/// Each stage's name and cumulative work counters, as the profiler
/// reports them.
type StageWork = Vec<(String, Vec<(String, u64)>)>;

/// One fully-observed run at a given worker-thread count: telemetry
/// bytes, cohort bytes, a metrics digest, the doctor's verdicts, the
/// normalized ledger line, and the profiler's per-stage work counters.
/// The upgraded determinism contract says every one of these is a
/// function of the seed alone — `threads` is pure throughput.
fn run_threaded(
    seed: u64,
    rounds: u64,
    threads: u32,
) -> (Vec<u8>, Vec<u8>, String, String, String, StageWork) {
    let registry = bt_obs::Registry::new();
    let mut swarm = Swarm::with_registry(config(seed), registry.clone());
    swarm.set_threads(threads);
    let buf = SharedBuf::default();
    swarm.attach_telemetry(
        TelemetryRecorder::new(TelemetryOptions::default()).to_writer(Box::new(buf.clone())),
    );
    let cohort_buf = SharedBuf::default();
    swarm.attach_cohort(8, Box::new(cohort_buf.clone()));
    swarm.attach_doctor(DoctorOptions {
        cadence: 4,
        ..DoctorOptions::default()
    });
    swarm.attach_profiler(bt_obs::ProfileOptions {
        seed,
        ..bt_obs::ProfileOptions::default()
    });
    let pipeline = swarm.stage_names();
    for _ in 0..rounds {
        swarm.step_round();
    }
    let work = swarm
        .take_profile()
        .report()
        .expect("profiler was attached")
        .stages
        .into_iter()
        .map(|stage| (stage.name, stage.work))
        .collect();
    let report = swarm.take_doctor_report().expect("doctor was attached");
    assert!(report.report.checks > 0, "monitors sampled rounds");
    let verdicts = format!("{:?}", report.report.violations);
    let digest = format!("{:?}", swarm.metrics());
    let mut manifest = bt_obs::RunManifest::new("swarm", bt_obs::fnv1a_hex(b"det"), seed);
    manifest.pipeline = pipeline.iter().map(|s| (*s).to_string()).collect();
    manifest.threads = threads;
    manifest.finish(&registry, std::time::Duration::from_secs(1));
    manifest.peak_population = registry.counter("swarm.peak_population").get();
    let ledger = ledger_line(&bt_obs::LedgerRecord::from_manifest(
        &manifest,
        report.report.violations.len() as u64,
    ));
    (
        buf.contents(),
        cohort_buf.contents(),
        digest,
        verdicts,
        ledger,
        work,
    )
}

#[test]
fn thread_count_is_invisible_to_every_output() {
    // The contract the parallel exchange plan phase upholds: same seed,
    // same bytes, at any --threads value. Telemetry, cohort traces,
    // metrics, monitor verdicts, and the normalized ledger line must all
    // be byte-identical across thread counts.
    let serial = run_threaded(42, 120, 1);
    assert!(!serial.0.is_empty(), "telemetry produced records");
    assert!(!serial.1.is_empty(), "cohort produced records");
    // Work counters too: a shard that dropped its lookups from
    // `store.slab_probes` would leave every byte above unchanged.
    let counted = |stage: &str, counter: &str| {
        serial
            .5
            .iter()
            .filter(|(name, _)| name == stage)
            .flat_map(|(_, work)| work)
            .any(|(name, count)| name == counter && *count > 0)
    };
    for (stage, counter) in [
        ("exchange", "store.slab_probes"),
        ("exchange", "exchange.bitfield_words"),
        ("establish", "store.slab_probes"),
        ("establish", "establish.candidate_comparisons"),
    ] {
        assert!(counted(stage, counter), "{stage} counted no {counter}");
    }
    for threads in [2, 8] {
        let threaded = run_threaded(42, 120, threads);
        assert_eq!(
            serial.0, threaded.0,
            "telemetry diverged at --threads {threads}"
        );
        assert_eq!(
            serial.1, threaded.1,
            "cohort stream diverged at --threads {threads}"
        );
        assert_eq!(
            serial.2, threaded.2,
            "metrics diverged at --threads {threads}"
        );
        assert_eq!(
            serial.3, threaded.3,
            "monitor verdicts diverged at --threads {threads}"
        );
        assert_eq!(
            serial.4, threaded.4,
            "normalized ledger diverged at --threads {threads}"
        );
        assert_eq!(
            serial.5, threaded.5,
            "stage work counters diverged at --threads {threads}"
        );
    }
}

/// One fully-observed run with an optional heartbeat emitter attached,
/// returning the telemetry bytes, cohort bytes, a metrics digest, and
/// the normalized ledger line. `Duration::ZERO` cadence makes the
/// emitter beat every round, maximizing its chance to perturb anything.
fn run_with_heartbeat(
    seed: u64,
    rounds: u64,
    threads: u32,
    heartbeat: bool,
) -> (Vec<u8>, Vec<u8>, String, String) {
    let registry = bt_obs::Registry::new();
    let mut swarm = Swarm::with_registry(config(seed), registry.clone());
    swarm.set_threads(threads);
    let buf = SharedBuf::default();
    swarm.attach_telemetry(
        TelemetryRecorder::new(TelemetryOptions::default()).to_writer(Box::new(buf.clone())),
    );
    let cohort_buf = SharedBuf::default();
    swarm.attach_cohort(8, Box::new(cohort_buf.clone()));
    // Tests run in parallel and several issue identical calls, so each
    // call needs its own directory: a shared one lets one test's cleanup
    // delete another's status file mid-run.
    static RUN: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bt_swarm_det_heartbeat_{}_{}_{seed}_{threads}_{heartbeat}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    if heartbeat {
        let _ = std::fs::remove_dir_all(&dir);
        let emitter = bt_obs::HeartbeatEmitter::new(
            bt_obs::HeartbeatOptions {
                dir: dir.clone(),
                interval: std::time::Duration::ZERO,
                command: "swarm".to_string(),
                seed,
                target_rounds: rounds,
            },
            registry.clone(),
        )
        .expect("heartbeat artifacts in temp dir");
        swarm.attach_heartbeat(emitter);
    }
    let pipeline = swarm.stage_names();
    for _ in 0..rounds {
        swarm.step_round();
    }
    if heartbeat {
        let emitter = swarm.take_heartbeat().expect("heartbeat stayed attached");
        assert!(
            emitter.is_finished(),
            "take_heartbeat writes the final beat"
        );
        assert!(
            emitter.beats() >= rounds,
            "zero-interval cadence beats every round"
        );
        let status =
            bt_obs::read_status(&dir.join(bt_obs::RUN_STATUS_FILE)).expect("status parses");
        assert!(status.is_finished());
        assert_eq!(status.last.round, rounds);
        let file = std::fs::File::open(dir.join(bt_obs::HEARTBEAT_STREAM_FILE))
            .expect("heartbeat stream exists");
        let (meta, beats) = bt_obs::read_heartbeat(file).expect("heartbeat stream parses");
        assert_eq!(meta.seed, seed);
        assert!(!beats.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let digest = format!("{:?}", swarm.metrics());
    let mut manifest = bt_obs::RunManifest::new("swarm", bt_obs::fnv1a_hex(b"det"), seed);
    manifest.pipeline = pipeline.iter().map(|s| (*s).to_string()).collect();
    manifest.threads = threads;
    manifest.finish(&registry, std::time::Duration::from_secs(1));
    manifest.peak_population = registry.counter("swarm.peak_population").get();
    let ledger = ledger_line(&bt_obs::LedgerRecord::from_manifest(&manifest, 0));
    (buf.contents(), cohort_buf.contents(), digest, ledger)
}

#[test]
fn heartbeat_does_not_perturb_the_run() {
    // The heartbeat emitter reads a pulse of engine state and the wall
    // clock, makes no model-RNG calls, and feeds nothing back — so a
    // heartbeat run must be byte-identical to a bare one, at every
    // thread count (ISSUE 10 tentpole contract).
    for threads in [1, 8] {
        let plain = run_with_heartbeat(42, 120, threads, false);
        let beating = run_with_heartbeat(42, 120, threads, true);
        assert!(!plain.0.is_empty(), "telemetry produced records");
        assert_eq!(
            plain.0, beating.0,
            "heartbeats changed the telemetry stream at --threads {threads}"
        );
        assert_eq!(
            plain.1, beating.1,
            "heartbeats changed the cohort stream at --threads {threads}"
        );
        assert_eq!(
            plain.2, beating.2,
            "heartbeats changed engine metrics at --threads {threads}"
        );
        assert_eq!(
            plain.3, beating.3,
            "heartbeats changed the normalized ledger line at --threads {threads}"
        );
    }
}

#[test]
fn heartbeat_runs_are_byte_identical_across_thread_counts() {
    let serial = run_with_heartbeat(42, 120, 1, true);
    let threaded = run_with_heartbeat(42, 120, 8, true);
    assert_eq!(serial.0, threaded.0, "telemetry diverged");
    assert_eq!(serial.1, threaded.1, "cohort stream diverged");
    assert_eq!(serial.2, threaded.2, "metrics diverged");
    assert_eq!(serial.3, threaded.3, "normalized ledger diverged");
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the equality above is not vacuous: a different
    // seed produces a different trajectory.
    let (stream_a, _) = run_once(1, 120);
    let (stream_b, _) = run_once(2, 120);
    assert_ne!(stream_a, stream_b, "distinct seeds should diverge");
}

/// A B = 100 swarm under `strategy`: enough pieces that every replication
/// view spans two bitfield words and a partial last word, enough
/// neighbors that ranked candidate lists run several ranks deep, and
/// multi-block pieces and slow peers so block continuity and upload
/// budgets take part in resolution.
fn guard_config(strategy: bt_swarm::PieceSelection) -> SwarmConfig {
    SwarmConfig::builder()
        .pieces(100)
        .max_connections(5)
        .neighbor_set_size(12)
        .blocks_per_piece(2)
        .slow_peer_fraction(0.2)
        .slow_upload_budget(2)
        .initial_leechers(60)
        .initial_pieces(InitialPieces::Random { count: 10 })
        .piece_selection(strategy)
        .max_rounds(400)
        .seed(17)
        .build()
        .expect("valid config")
}

/// FNV-1a-64 digests of the telemetry and cohort bytes of a 60-round
/// run of [`guard_config`] at `threads` workers.
fn guard_digests(strategy: bt_swarm::PieceSelection, threads: u32) -> (String, String) {
    let mut swarm = Swarm::new(guard_config(strategy));
    swarm.set_threads(threads);
    let buf = SharedBuf::default();
    swarm.attach_telemetry(
        TelemetryRecorder::new(TelemetryOptions::default()).to_writer(Box::new(buf.clone())),
    );
    let cohort_buf = SharedBuf::default();
    swarm.attach_cohort(8, Box::new(cohort_buf.clone()));
    for _ in 0..60 {
        swarm.step_round();
    }
    drop(swarm.take_cohort());
    (
        bt_obs::fnv1a_hex(&buf.contents()),
        bt_obs::fnv1a_hex(&cohort_buf.contents()),
    )
}

#[test]
fn exchange_bytes_match_the_pinned_digests() {
    // Pinned output of both piece-selection strategies. Random-first is
    // reachable from no CLI flag, so nothing else fixes its bytes. These
    // constants change only together with a versioned RNG stream change,
    // never by re-blessing after a refactor of the exchange stage.
    let pinned = [
        (
            bt_swarm::PieceSelection::RarestFirst,
            "386e3cd739f57a41",
            "44370a1609765187",
        ),
        (
            bt_swarm::PieceSelection::RandomFirst,
            "aa5f90048311e0e2",
            "6d4fc37fab0e222c",
        ),
    ];
    for (strategy, telemetry, cohort) in pinned {
        for threads in [1, 4] {
            let (t, c) = guard_digests(strategy, threads);
            assert_eq!(
                t, telemetry,
                "{strategy:?} telemetry at --threads {threads}"
            );
            assert_eq!(c, cohort, "{strategy:?} cohort at --threads {threads}");
        }
    }
}

/// A B = 100 open swarm with `blocks_per_piece`-block pieces and slow
/// peers, run through the DES driver (so Poisson arrivals join) until
/// initial leechers and later arrivals have completed and departed.
fn completion_config(blocks_per_piece: u32, max_rounds: u64) -> SwarmConfig {
    SwarmConfig::builder()
        .pieces(100)
        .max_connections(5)
        .neighbor_set_size(12)
        .blocks_per_piece(blocks_per_piece)
        .slow_peer_fraction(0.2)
        .slow_upload_budget(2)
        .arrival_rate(1.0)
        .initial_leechers(60)
        .initial_pieces(InitialPieces::Random { count: 10 })
        .max_rounds(max_rounds)
        .seed(23)
        .build()
        .expect("valid config")
}

/// The number of completion records and the FNV-1a-64 digest of their
/// JSON bytes after a run of [`completion_config`] at `threads` workers.
fn completion_digest(blocks_per_piece: u32, max_rounds: u64, threads: u32) -> (usize, String) {
    let mut swarm = Swarm::new(completion_config(blocks_per_piece, max_rounds));
    swarm.set_threads(threads);
    let metrics = swarm.run();
    let json = serde_json::to_string(&metrics.completions).expect("completion records serialize");
    (
        metrics.completions.len(),
        bt_obs::fnv1a_hex(json.as_bytes()),
    )
}

#[test]
fn completion_records_match_the_pinned_digests() {
    // Every completion record's acquisition rounds, which neither the
    // telemetry nor the cohort digests above cover. Like those, these
    // constants change only with a versioned RNG stream change.
    let pinned = [
        (1, 200, 228, "d28addbd9d9dc073"),
        (4, 300, 230, "0b6d1b0ffe838cd3"),
    ];
    for (blocks, rounds, records, digest) in pinned {
        for threads in [1, 4] {
            let got = completion_digest(blocks, rounds, threads);
            assert_eq!(
                got,
                (records, digest.to_string()),
                "blocks_per_piece {blocks} at --threads {threads}"
            );
        }
    }
}

/// An open swarm whose observers are later arrivals, not initial
/// leechers, so phase detection, cohort offers and doctor checks all
/// see peers that joined mid-run.
fn open_config() -> SwarmConfig {
    SwarmConfig::builder()
        .pieces(16)
        .max_connections(4)
        .neighbor_set_size(8)
        .arrival_rate(2.0)
        .initial_leechers(10)
        .initial_pieces(InitialPieces::Random { count: 4 })
        .observers(4)
        .observe_from(12)
        .max_rounds(150)
        .seed(31)
        .build()
        .expect("valid config")
}

/// What an open run's observers and metrics produced: telemetry bytes,
/// cohort bytes, completion records as JSON, and the doctor's checks
/// and verdicts.
type OpenRun = (Vec<u8>, Vec<u8>, String, String);

/// Drives [`open_config`] through the DES driver (so Poisson arrivals
/// join) at `threads` workers with telemetry, cohort, doctor and
/// heartbeat attached.
fn run_open(threads: u32) -> OpenRun {
    let config = open_config();
    let initial = u64::from(config.initial_leechers);
    let mut swarm = Swarm::with_registry(config, bt_obs::Registry::new());
    swarm.set_threads(threads);
    let buf = SharedBuf::default();
    swarm.attach_telemetry(
        TelemetryRecorder::new(TelemetryOptions::default()).to_writer(Box::new(buf.clone())),
    );
    let cohort_buf = SharedBuf::default();
    swarm.attach_cohort(8, Box::new(cohort_buf.clone()));
    swarm.attach_doctor(DoctorOptions {
        cadence: 3,
        ..DoctorOptions::default()
    });
    let dir = std::env::temp_dir().join(format!(
        "bt_swarm_det_open_{}_{threads}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let emitter = bt_obs::HeartbeatEmitter::new(
        bt_obs::HeartbeatOptions {
            dir: dir.clone(),
            interval: std::time::Duration::ZERO,
            command: "swarm".to_string(),
            seed: 31,
            target_rounds: 150,
        },
        bt_obs::Registry::new(),
    )
    .expect("heartbeat artifacts in temp dir");
    swarm.attach_heartbeat(emitter);
    let (metrics, _profile, report) = swarm.run_diagnosed();
    let status = bt_obs::read_status(&dir.join(bt_obs::RUN_STATUS_FILE)).expect("status parses");
    assert!(status.is_finished(), "the run finished its heartbeat");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        metrics.arrivals > initial,
        "{} arrivals from {initial} initial leechers: no peer joined mid-run",
        metrics.arrivals
    );
    assert!(
        metrics.completions.iter().any(|c| c.joined_round > 0),
        "no mid-run arrival completed"
    );
    let report = report.expect("doctor was attached");
    assert!(report.report.checks > 0, "monitors sampled rounds");
    let completions =
        serde_json::to_string(&metrics.completions).expect("completion records serialize");
    (
        buf.contents(),
        cohort_buf.contents(),
        completions,
        format!(
            "{} checks: {:?}",
            report.report.checks, report.report.violations
        ),
    )
}

#[test]
fn open_swarm_outputs_are_identical_across_thread_counts() {
    // Stepped rounds schedule no Poisson arrivals, so every comparison
    // above sees a closed swarm. This one runs the DES driver: joins
    // hit the tracker handout, join eviction and the cohort reservoir
    // while the exchange plan runs sharded.
    let serial = run_open(1);
    let telemetry = String::from_utf8_lossy(&serial.0);
    assert!(
        telemetry.contains("{\"Phase\":"),
        "the observers, all mid-run arrivals, changed phase"
    );
    assert!(!serial.1.is_empty(), "cohort produced records");
    for threads in [2, 8] {
        let threaded = run_open(threads);
        assert_eq!(
            serial.0, threaded.0,
            "telemetry diverged at --threads {threads}"
        );
        assert_eq!(
            serial.1, threaded.1,
            "cohort stream diverged at --threads {threads}"
        );
        assert_eq!(
            serial.2, threaded.2,
            "completion records diverged at --threads {threads}"
        );
        assert_eq!(
            serial.3, threaded.3,
            "monitor verdicts diverged at --threads {threads}"
        );
    }
}
