//! Observability counters must agree with the engine's own metrics: the
//! counters are derived from the same events, so any drift between them
//! is a bookkeeping bug in one of the two paths.

use bt_obs::Registry;
use bt_swarm::{Swarm, SwarmConfig};

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
        metrics.completions.len() as u64
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
