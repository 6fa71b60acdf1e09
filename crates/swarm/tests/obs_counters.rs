//! Observability counters must agree with the engine's own metrics: the
//! counters are derived from the same events, so any drift between them
//! is a bookkeeping bug in one of the two paths.

use bt_obs::Registry;
use bt_swarm::{DoctorOptions, Swarm, SwarmConfig, TelemetryOptions, TelemetryRecorder};

fn config(seed: u64) -> SwarmConfig {
    SwarmConfig::builder()
        .pieces(16)
        .max_connections(3)
        .neighbor_set_size(8)
        .arrival_rate(1.0)
        .initial_leechers(12)
        .max_rounds(150)
        .seed(seed)
        .build()
        .unwrap()
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry.counter(name).get()
}

#[test]
fn counters_match_swarm_metrics() {
    let registry = Registry::new();
    let metrics = Swarm::with_registry(config(5), registry.clone()).run();

    assert_eq!(counter(&registry, "swarm.arrivals"), metrics.arrivals);
    assert_eq!(counter(&registry, "swarm.departures"), metrics.departures);
    assert_eq!(
        counter(&registry, "swarm.completions"),
        metrics.completions.count()
    );
    assert_eq!(counter(&registry, "swarm.rounds"), metrics.rounds_run);

    // The peak gauge is updated at spawn time, the population series at
    // sample time, so only the ordering is exact: the peak bounds every
    // sample and can never exceed the total number of arrivals.
    let peak = counter(&registry, "swarm.peak_population");
    let max_sampled = metrics
        .population
        .iter()
        .map(|&(_, p)| p)
        .max()
        .unwrap_or(0);
    assert!(peak >= max_sampled);
    assert!(peak > 0 && peak <= metrics.arrivals);
    assert!(counter(&registry, "swarm.pieces_exchanged") > 0);
    assert!(counter(&registry, "swarm.bootstrap_injections") > 0);
    assert!(
        counter(&registry, "swarm.conn_successes") <= counter(&registry, "swarm.conn_attempts")
    );
    assert!(counter(&registry, "swarm.conn_successes") > 0);
}

#[test]
fn phase_timers_record_every_round() {
    let registry = Registry::new();
    let metrics = Swarm::with_registry(config(7), registry.clone()).run();
    for phase in [
        "round.maintain",
        "round.bootstrap",
        "round.prune",
        "round.establish",
        "round.exchange",
        "round.depart",
        "round.sample",
    ] {
        let snapshot = registry.timer(phase).snapshot();
        assert_eq!(
            snapshot.count, metrics.rounds_run,
            "{phase} must record once per round"
        );
        assert!(snapshot.p50_ns.is_some(), "{phase} has samples");
    }
    // The shake stage is config-gated: without `shake_at`, the default
    // pipeline omits it entirely and its timer never records.
    assert_eq!(registry.timer("round.shake").snapshot().count, 0);
}

#[test]
fn shake_timer_records_only_when_configured() {
    let registry = Registry::new();
    let mut shaking = config(7);
    shaking.shake_at = Some(0.5);
    let metrics = Swarm::with_registry(shaking, registry.clone()).run();
    assert_eq!(
        registry.timer("round.shake").snapshot().count,
        metrics.rounds_run,
        "round.shake must record once per round when shake_at is set"
    );
}

#[test]
fn isolated_registries_do_not_interfere() {
    let a = Registry::new();
    let b = Registry::new();
    let _ = Swarm::with_registry(config(1), a.clone()).run();
    assert_eq!(counter(&b, "swarm.arrivals"), 0);
    assert!(counter(&a, "swarm.arrivals") > 0);
}

#[test]
fn same_seed_same_counters() {
    // Instrumentation must not consume RNG state or perturb the run.
    let a = Registry::new();
    let b = Registry::new();
    let ma = Swarm::with_registry(config(11), a.clone()).run();
    let mb = Swarm::with_registry(config(11), b.clone()).run();
    assert_eq!(ma, mb);
    assert_eq!(a.counter_totals(), b.counter_totals());
}

#[test]
fn profiler_and_registry_time_stages_with_one_clock() {
    // The engine reads the clock once per stage: the registry's
    // `round.<stage>` timer records it and the profiler gets the same
    // value, so the two views agree to the nanosecond.
    let registry = Registry::new();
    let mut swarm = Swarm::with_registry(config(13), registry.clone());
    swarm.attach_profiler(bt_obs::ProfileOptions::default());
    swarm.attach_telemetry(TelemetryRecorder::new(TelemetryOptions::default()));
    swarm.attach_doctor(DoctorOptions {
        cadence: 5,
        ..DoctorOptions::default()
    });
    let dir = std::env::temp_dir().join(format!("bt_swarm_one_clock_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let emitter = bt_obs::HeartbeatEmitter::new(
        bt_obs::HeartbeatOptions {
            dir: dir.clone(),
            interval: std::time::Duration::ZERO,
            command: "swarm".to_string(),
            seed: 13,
            target_rounds: 150,
        },
        registry.clone(),
    )
    .expect("heartbeat artifacts in temp dir");
    swarm.attach_heartbeat(emitter);
    let stages = swarm.stage_names();
    let (metrics, profile, _) = swarm.run_diagnosed();
    let _ = std::fs::remove_dir_all(&dir);

    let report = profile.report().expect("profiler was attached");
    assert_eq!(report.rounds, metrics.rounds_run);
    let mut stage_ns = 0.0;
    for stage in stages {
        let timer = registry.timer(&format!("round.{stage}")).snapshot();
        let profiled = report.stage(stage).expect("every stage is profiled");
        assert_eq!(profiled.rounds, timer.count, "{stage} rounds");
        assert_eq!(profiled.total_secs, timer.total_secs, "{stage} time");
        stage_ns += profiled.total_secs * 1e9;
    }
    // A round's latency is the sum of its stages' times.
    let round_ns = report.total_secs * 1e9;
    assert!(
        (round_ns - stage_ns).abs() < 1.0,
        "rounds {round_ns} ns, stages {stage_ns} ns"
    );
    for observer in ["doctor", "telemetry", "heartbeat"] {
        assert_eq!(
            registry.timer(&format!("obs.{observer}")).snapshot().count,
            metrics.rounds_run,
            "obs.{observer} times each round once"
        );
    }
}
