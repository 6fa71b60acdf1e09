//! The seeded-fault grid: each fault `btlab doctor --inject-fault` can
//! plant, at several rounds, in small closed and open swarms with B
//! from 1 to 50, must end in a violation from the monitor that fault
//! targets, a run failure (exit 1) and a diagnosis bundle in the run
//! directory — never a panic and never a silent pass.
//!
//! The bootstrap stage is disabled, as in CI's seeded-fault drill, so no
//! peer completes and departs before the injection round: every fault
//! finds a live target.

use bt_swarm::{FaultKind, FaultSpec};
use multiphase_bt::cli::{run, CliError, Command, DoctorArgs, SwarmArgs};

/// Each fault kind and the monitor it targets.
const FAULTS: [(FaultKind, &str); 3] = [
    (FaultKind::UnaccountedPiece, "piece-conservation"),
    (FaultKind::IndexDrift, "replication-oracle"),
    (FaultKind::HalfOpenConnection, "slot-balance"),
];

/// Runs one doctored case in `run_dir`, describing what went wrong.
fn check_case(run_dir: &std::path::Path, args: DoctorArgs, monitor: &str) -> Result<(), String> {
    let mut out = Vec::new();
    match run(Command::Doctor(args), run_dir, &mut out) {
        Err(CliError::Failure(_)) => {}
        other => return Err(format!("ended in {other:?}, not a run failure")),
    }
    let stdout = String::from_utf8_lossy(&out);
    if !stdout.contains(&format!("violation [{monitor}]")) {
        return Err(format!("no {monitor} violation:\n{stdout}"));
    }
    let bundled = std::fs::read_dir(run_dir)
        .map_err(|e| format!("no run directory: {e}"))?
        .filter_map(Result::ok)
        .any(|e| {
            e.file_name().to_string_lossy().starts_with("diagnosis-")
                && e.path().join("meta.json").is_file()
        });
    if bundled {
        Ok(())
    } else {
        Err("no diagnosis-*/meta.json in the run directory".to_string())
    }
}

#[test]
fn every_seeded_fault_is_caught_by_the_monitor_it_targets() {
    let root = std::env::temp_dir().join("btlab-fault-grid");
    std::fs::remove_dir_all(&root).ok();
    let mut failures = Vec::new();
    for pieces in [1, 2, 10, 50] {
        for (swarm, lambda) in [("closed", 0.0), ("open", 2.0)] {
            for round in [1, 4, 15] {
                for (kind, monitor) in FAULTS {
                    let case = format!("{kind:?} at round {round}, {swarm} swarm, B={pieces}");
                    let run_dir = root.join(case.replace([' ', ','], "-"));
                    let args = DoctorArgs {
                        swarm: SwarmArgs {
                            pieces,
                            k: 3,
                            s: 6,
                            lambda,
                            initial: 10,
                            rounds: round + 5,
                            seed: u64::from(pieces) + round,
                            disabled_stages: vec!["bootstrap".to_string()],
                            ..SwarmArgs::default()
                        },
                        cadence: 1,
                        inject_fault: Some(FaultSpec { round, kind }),
                        ..DoctorArgs::default()
                    };
                    if let Err(why) = check_case(&run_dir, args, monitor) {
                        failures.push(format!("{case}: {why}"));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    std::fs::remove_dir_all(&root).ok();
}
