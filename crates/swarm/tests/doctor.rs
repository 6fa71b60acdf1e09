//! Seeded-fault validation of the swarm doctor: each built-in fault
//! kind must trip exactly the monitors it targets, a healthy run must
//! stay clean, and a violating run must leave a complete diagnosis
//! bundle behind.
//!
//! The fault tests run a **no-progress** swarm (empty endowment,
//! bootstrap off, no seed uploads): nothing legitimate ever enters the
//! piece economy, so the injected corruption is the only signal and no
//! later departure can interact with it.

use bt_swarm::{
    BootstrapInjection, DoctorOptions, DoctorReport, FaultKind, FaultSpec, InitialPieces, Swarm,
    SwarmConfig,
};

/// A small healthy swarm with real piece flow, mirroring the
/// determinism suite's configuration.
fn live_config(seed: u64) -> SwarmConfig {
    SwarmConfig::builder()
        .pieces(16)
        .max_connections(4)
        .neighbor_set_size(8)
        .arrival_rate(0.8)
        .initial_leechers(10)
        .initial_pieces(InitialPieces::Random { count: 4 })
        .observers(3)
        .max_rounds(120)
        .seed(seed)
        .build()
        .expect("valid config")
}

/// A swarm where no piece is ever legitimately granted.
fn quiet_config(seed: u64) -> SwarmConfig {
    SwarmConfig::builder()
        .pieces(12)
        .max_connections(3)
        .neighbor_set_size(6)
        .arrival_rate(0.0)
        .initial_leechers(10)
        .initial_pieces(InitialPieces::Empty)
        .bootstrap(BootstrapInjection::Off)
        .seed_uploads_per_round(0)
        .observers(2)
        .max_rounds(40)
        .seed(seed)
        .build()
        .expect("valid config")
}

fn diagnose(
    config: SwarmConfig,
    fault: Option<FaultSpec>,
    bundle_root: Option<std::path::PathBuf>,
) -> DoctorReport {
    diagnose_threaded(config, fault, bundle_root, 1)
}

fn diagnose_threaded(
    config: SwarmConfig,
    fault: Option<FaultSpec>,
    bundle_root: Option<std::path::PathBuf>,
    threads: u32,
) -> DoctorReport {
    let mut swarm = Swarm::with_registry(config, bt_obs::Registry::new());
    swarm.set_threads(threads);
    swarm.attach_doctor(DoctorOptions {
        cadence: 1,
        bundle_root,
        run_id: "doctor-test".to_string(),
        ..DoctorOptions::default()
    });
    if let Some(fault) = fault {
        swarm.schedule_fault(fault);
    }
    let (_metrics, _profile, report) = swarm.run_diagnosed();
    report.expect("doctor was attached")
}

/// The distinct monitor names among a report's violations.
fn firing_monitors(report: &DoctorReport) -> Vec<String> {
    let mut names: Vec<String> = report
        .report
        .violations
        .iter()
        .map(|v| v.monitor.clone())
        .collect();
    names.sort();
    names.dedup();
    names
}

#[test]
fn healthy_run_is_clean() {
    let report = diagnose(live_config(42), None, None);
    assert!(report.report.checks > 0, "monitors sampled rounds");
    assert!(
        report.is_clean(),
        "healthy run tripped monitors: {:?}",
        report.report.violations
    );
    assert_eq!(report.bundle_dir, None, "clean runs write no bundle");
    assert_eq!(
        report.monitors,
        vec![
            "piece-conservation",
            "replication-oracle",
            "entropy-collapse",
            "phase-monotonic",
            "slot-balance"
        ],
        "the full battery ran"
    );
}

#[test]
fn unaccounted_piece_fires_conservation_and_oracle() {
    let report = diagnose(
        quiet_config(7),
        Some(FaultSpec {
            round: 5,
            kind: FaultKind::UnaccountedPiece,
        }),
        None,
    );
    assert!(!report.is_clean());
    let firing = firing_monitors(&report);
    assert!(
        firing.contains(&"piece-conservation".to_string()),
        "{firing:?}"
    );
    assert!(
        firing.contains(&"replication-oracle".to_string()),
        "{firing:?}"
    );
    assert!(
        !firing.contains(&"slot-balance".to_string()),
        "slot accounting is untouched by a piece fault: {firing:?}"
    );
    let first = &report.report.violations[0];
    assert!(first.round >= 5, "violation found at or after the fault");
}

#[test]
fn index_drift_fires_oracle_only() {
    let report = diagnose(
        quiet_config(7),
        Some(FaultSpec {
            round: 5,
            kind: FaultKind::IndexDrift,
        }),
        None,
    );
    assert!(!report.is_clean());
    assert_eq!(
        firing_monitors(&report),
        vec!["replication-oracle".to_string()],
        "drift with no possession is invisible to every other monitor"
    );
}

#[test]
fn half_open_connection_fires_slot_balance() {
    let report = diagnose(
        quiet_config(7),
        Some(FaultSpec {
            round: 5,
            kind: FaultKind::HalfOpenConnection,
        }),
        None,
    );
    assert!(!report.is_clean());
    let firing = firing_monitors(&report);
    assert!(firing.contains(&"slot-balance".to_string()), "{firing:?}");
    assert!(
        !firing.contains(&"piece-conservation".to_string()),
        "piece accounting is untouched by a connection fault: {firing:?}"
    );
}

#[test]
fn threaded_run_keeps_monitors_clean_and_catches_faults() {
    // A healthy run at --threads 8 must be as clean as the serial one —
    // the sharded plan phase introduces no accounting drift the
    // monitors could see...
    let clean = diagnose_threaded(live_config(42), None, None, 8);
    assert!(
        clean.is_clean(),
        "threaded healthy run tripped monitors: {:?}",
        clean.report.violations
    );
    // ...and an injected fault still fires the same monitors as serial:
    // parallelism neither masks corruption nor invents it.
    let faulty = diagnose_threaded(
        quiet_config(7),
        Some(FaultSpec {
            round: 5,
            kind: FaultKind::UnaccountedPiece,
        }),
        None,
        8,
    );
    assert!(!faulty.is_clean());
    let firing = firing_monitors(&faulty);
    assert!(
        firing.contains(&"piece-conservation".to_string()),
        "{firing:?}"
    );
    assert!(
        firing.contains(&"replication-oracle".to_string()),
        "{firing:?}"
    );
}

#[test]
fn violating_run_writes_a_complete_bundle() {
    let root = std::env::temp_dir().join("bt-swarm-doctor-bundle-test");
    let _ = std::fs::remove_dir_all(&root);
    let report = diagnose(
        quiet_config(7),
        Some(FaultSpec {
            round: 5,
            kind: FaultKind::UnaccountedPiece,
        }),
        Some(root.clone()),
    );
    let dir = report.bundle_dir.clone().expect("bundle was written");
    assert!(
        dir.starts_with(&root),
        "bundle lands under the configured root"
    );
    assert!(
        dir.file_name()
            .map(|n| n.to_string_lossy().starts_with("diagnosis-"))
            .unwrap_or(false),
        "{dir:?}"
    );
    for file in ["meta.json", "flight.json", "telemetry.jsonl", "peers.json"] {
        assert!(dir.join(file).exists(), "bundle is missing {file}");
    }
    let meta_text = std::fs::read_to_string(dir.join("meta.json")).unwrap();
    let meta: bt_swarm::monitors::BundleMeta = serde_json::from_str(&meta_text).unwrap();
    assert_eq!(meta.schema_version, bt_obs::MONITOR_SCHEMA_VERSION);
    assert_eq!(meta.run_id, "doctor-test");
    assert_eq!(meta.seed, 7);
    assert!(!meta.violations.is_empty());
    assert!(
        meta.violations
            .iter()
            .any(|v| v.monitor == "piece-conservation"),
        "{:?}",
        meta.violations
    );
    let peers_text = std::fs::read_to_string(dir.join("peers.json")).unwrap();
    let peers: Vec<bt_swarm::monitors::PeerSliceEntry> =
        serde_json::from_str(&peers_text).unwrap();
    assert!(!peers.is_empty(), "bundle captured a peer-state slice");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn observer_stall_fires_alone_and_bundles_the_check_ring() {
    // Nothing is ever granted in the quiet swarm, so both observers sit
    // at zero pieces from round 1: a stall, and the only broken invariant.
    let root = std::env::temp_dir().join("bt-swarm-doctor-stall-test");
    let _ = std::fs::remove_dir_all(&root);
    let mut swarm = Swarm::with_registry(quiet_config(7), bt_obs::Registry::new());
    swarm.attach_doctor(DoctorOptions {
        cadence: 1,
        flight_capacity: 4,
        bundle_root: Some(root.clone()),
        run_id: "doctor-stall-test".to_string(),
        stall_rounds: Some(5),
        ..DoctorOptions::default()
    });
    let (_metrics, _profile, report) = swarm.run_diagnosed();
    let report = report.expect("doctor was attached");
    assert_eq!(report.monitors.last().map(String::as_str), Some("observer-stall"));
    assert_eq!(firing_monitors(&report), vec!["observer-stall".to_string()]);
    let first = &report.report.violations[0];
    assert_eq!(first.round, 6, "first seen at round 1, five rounds without progress");
    assert!(
        report.report.violations.iter().all(|v| v.round == first.round),
        "one episode per observer: {:?}",
        report.report.violations
    );

    let dir = report.bundle_dir.clone().expect("bundle was written");
    let text = std::fs::read_to_string(dir.join("flight.json")).expect("flight.json written");
    let dump: serde_json::Value = serde_json::from_str(&text).expect("flight.json is JSON");
    assert_eq!(dump.get("reason").and_then(|v| v.as_str()), Some("observer-stall"));
    assert_eq!(dump.get("round").and_then(|v| v.as_u64()), Some(first.round));
    assert_eq!(dump.get("recorded").and_then(|v| v.as_u64()), Some(6), "checks at rounds 1..=6");
    let rounds: Vec<u64> = dump
        .get("events")
        .and_then(|v| v.as_array())
        .expect("events array")
        .iter()
        .map(|e| e.get("round").and_then(|r| r.as_u64()).expect("event round"))
        .collect();
    // The ring keeps the last `flight_capacity` checks, oldest first,
    // ending at the violation.
    assert_eq!(rounds, vec![3, 4, 5, 6]);
    let _ = std::fs::remove_dir_all(&root);
}
