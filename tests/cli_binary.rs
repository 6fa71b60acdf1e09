//! End-to-end tests of the `btlab` binary itself.

use std::process::Command;

fn btlab() -> Command {
    Command::new(env!("CARGO_BIN_EXE_btlab"))
}

#[test]
fn help_exits_zero() {
    let out = btlab().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    let out = btlab().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn swarm_summary_runs() {
    let out = btlab()
        .args([
            "swarm",
            "--pieces",
            "12",
            "--rounds",
            "60",
            "--initial",
            "10",
            "--seed",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completions="), "{stdout}");
}

#[test]
fn swarm_json_is_parseable() {
    let out = btlab()
        .args([
            "swarm",
            "--pieces",
            "8",
            "--rounds",
            "40",
            "--initial",
            "8",
            "--seed",
            "2",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let metrics: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON metrics");
    assert!(metrics.get("completions").is_some());
    assert!(metrics.get("entropy").is_some());
}

#[test]
fn traces_then_analyze_pipeline() {
    let path = std::env::temp_dir().join("btlab-binary-test.jsonl");
    let path_str = path.to_str().unwrap();
    let out = btlab()
        .args(["traces", "--out", path_str, "--clients", "2", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = btlab()
        .args(["analyze", "--input", path_str])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bootstrap"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

const LOG_TEST_SWARM: [&str; 9] = [
    "swarm",
    "--pieces",
    "10",
    "--rounds",
    "60",
    "--initial",
    "8",
    "--seed",
    "3",
];

#[test]
fn json_log_mode_emits_json_lines_and_manifest() {
    let dir = std::env::temp_dir().join("btlab-e2e-json-manifest");
    std::fs::remove_dir_all(&dir).ok();
    let out = btlab()
        .args(LOG_TEST_SWARM)
        .args(["--log", "json"])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // Every stderr line is a standalone JSON object carrying the event
    // schema, and the progress events we expect are among them.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut messages = Vec::new();
    for line in stderr.lines().filter(|l| !l.is_empty()) {
        let event: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("stderr line is not JSON ({e}): {line}"));
        assert!(event.get("level").is_some(), "{line}");
        assert!(event.get("target").is_some(), "{line}");
        if let Some(msg) = event.get("message").and_then(|m| m.as_str()) {
            messages.push(msg.to_string());
        }
    }
    assert!(
        messages.iter().any(|m| m == "swarm run finished"),
        "{messages:?}"
    );

    // The manifest landed next to the (redirected) results with live
    // counter totals and per-phase wall clock.
    let manifest_path = dir.join("manifest-swarm.json");
    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest: serde_json::Value = serde_json::from_str(&text).expect("manifest is JSON");
    assert_eq!(
        manifest.get("command").and_then(|v| v.as_str()),
        Some("swarm")
    );
    assert_eq!(manifest.get("seed").and_then(|v| v.as_u64()), Some(3));
    let counters: std::collections::BTreeMap<String, u64> = manifest
        .get("counters")
        .and_then(|v| v.as_array())
        .expect("counters array")
        .iter()
        .map(|pair| {
            let pair = pair.as_array().expect("pair");
            (
                pair[0].as_str().expect("name").to_string(),
                pair[1].as_u64().expect("value"),
            )
        })
        .collect();
    assert!(counters["swarm.arrivals"] > 0, "{counters:?}");
    assert!(counters["swarm.pieces_exchanged"] > 0, "{counters:?}");
    assert!(counters["swarm.completions"] > 0, "{counters:?}");
    assert!(
        manifest
            .get("peak_population")
            .and_then(|v| v.as_u64())
            .expect("peak")
            > 0
    );
    let phases = manifest
        .get("phase_secs")
        .and_then(|v| v.as_array())
        .expect("phase_secs");
    let phase_names: Vec<&str> = phases
        .iter()
        .map(|pair| pair.as_array().expect("pair")[0].as_str().expect("name"))
        .collect();
    // One timer per default-pipeline stage (shake is config-gated off
    // here), plus the obs.* observer timers the budget gate reads.
    let round_stages = phase_names
        .iter()
        .filter(|n| n.starts_with("round."))
        .count();
    assert_eq!(round_stages, 7, "{phase_names:?}");
    assert!(phase_names.contains(&"round.depart"), "{phase_names:?}");
    assert!(!phase_names.contains(&"round.shake"), "{phase_names:?}");
    assert!(phase_names.contains(&"obs.telemetry"), "{phase_names:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quiet_log_mode_keeps_stdout_identical_and_stderr_empty() {
    let dir = std::env::temp_dir().join("btlab-e2e-quiet");
    std::fs::remove_dir_all(&dir).ok();
    let quiet = btlab()
        .args(LOG_TEST_SWARM)
        .args(["--log", "quiet"])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    let json = btlab()
        .args(LOG_TEST_SWARM)
        .args(["--log", "json"])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(quiet.status.success() && json.status.success());
    assert!(
        quiet.stderr.is_empty(),
        "quiet mode must not write diagnostics: {}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    assert_eq!(
        quiet.stdout, json.stdout,
        "result output must not depend on the log mode"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_flags_are_position_independent_and_validated() {
    let dir = std::env::temp_dir().join("btlab-e2e-logflags");
    std::fs::remove_dir_all(&dir).ok();
    let out = btlab()
        .args(["--log", "human", "help", "--log-filter", "warn"])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = btlab()
        .args(["help", "--log", "loud"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown log mode"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_log_filter_exits_two_with_clear_message() {
    let out = btlab()
        .args(["help", "--log-filter", "bt_swarm=shouty"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The message names the flag and echoes the offending spec.
    assert!(stderr.contains("--log-filter"), "{stderr}");
    assert!(stderr.contains("bt_swarm=shouty"), "{stderr}");
}

#[test]
fn swarm_telemetry_then_report_pipeline() {
    let dir = std::env::temp_dir().join("btlab-e2e-telemetry");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let telemetry = dir.join("run.jsonl");
    let telemetry_str = telemetry.to_str().unwrap();

    let out = btlab()
        .args([
            "swarm",
            "--pieces",
            "10",
            "--rounds",
            "150",
            "--initial",
            "10",
            "--lambda",
            "0",
            "--seed",
            "5",
            "--observers",
            "2",
            "--telemetry",
            telemetry_str,
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout).to_string();

    // Every stream line is standalone JSON; Meta and Sample records exist.
    let text = std::fs::read_to_string(&telemetry).expect("telemetry written");
    let mut kinds = std::collections::BTreeSet::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let record: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("telemetry line is not JSON ({e}): {line}"));
        let key = record
            .as_object()
            .and_then(|o| o.first().map(|(k, _)| k.clone()))
            .expect("externally tagged record");
        kinds.insert(key);
    }
    assert!(kinds.contains("Meta"), "{kinds:?}");
    assert!(kinds.contains("Sample"), "{kinds:?}");
    assert!(kinds.contains("Phase"), "{kinds:?}");

    // The report reads the stream back and agrees with the swarm's own
    // summary on the final entropy.
    let out = btlab()
        .args([
            "report",
            "--telemetry",
            telemetry_str,
            "--replications",
            "20",
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(report.contains("samples="), "{report}");
    assert!(report.contains("detected phase boundaries"), "{report}");
    assert!(report.contains("model comparison"), "{report}");
    let entropy_of = |text: &str| {
        let start =
            text.find("final_entropy=").expect("final_entropy present") + "final_entropy=".len();
        text[start..]
            .split_whitespace()
            .next()
            .expect("value follows")
            .to_string()
    };
    assert_eq!(
        entropy_of(&summary),
        entropy_of(&report),
        "\n{summary}\n{report}"
    );

    // CSV format produces a sample table with a header.
    let csv = dir.join("run.csv");
    let out = btlab()
        .args([
            "swarm",
            "--pieces",
            "10",
            "--rounds",
            "40",
            "--initial",
            "8",
            "--seed",
            "5",
            "--telemetry",
            csv.to_str().unwrap(),
            "--telemetry-format",
            "csv",
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&csv).expect("csv written");
    assert!(
        text.starts_with("round,population,entropy"),
        "{}",
        text.lines().next().unwrap_or("")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swarm_flight_flag_is_gone_and_exits_two() {
    let out = btlab()
        .args(["swarm", "--flight", "f.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown flags are usage errors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --flight for swarm"),
        "{stderr}"
    );
}

#[test]
fn doctor_stall_rounds_catches_a_no_progress_swarm() {
    // Without the bootstrap stage nothing ever enters the piece economy,
    // so both observers stall at zero pieces.
    let dir = std::env::temp_dir().join("btlab-e2e-doctor-stall");
    std::fs::remove_dir_all(&dir).ok();
    let out = btlab()
        .args([
            "doctor",
            "--pieces",
            "10",
            "--initial",
            "8",
            "--lambda",
            "0",
            "--rounds",
            "30",
            "--seed",
            "5",
            "--cadence",
            "1",
            "--disable-stage",
            "bootstrap",
            "--observers",
            "2",
            "--stall-rounds",
            "5",
            "--log",
            "quiet",
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "a stall is a violation");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("violation [observer-stall] round 6"),
        "{stdout}"
    );
    assert!(stdout.contains("diagnosis bundle:"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_disable_stage_exits_two_listing_stage_names() {
    let out = btlab()
        .args(["swarm", "--disable-stage", "frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown stage `frobnicate`"), "{stderr}");
    for stage in [
        "maintain",
        "bootstrap",
        "prune",
        "establish",
        "exchange",
        "depart",
        "shake",
        "sample",
    ] {
        assert!(stderr.contains(stage), "missing {stage} in: {stderr}");
    }
}

#[test]
fn figure_prints_the_committed_table_and_rejects_unknown_ids() {
    let out = btlab()
        .args(["figure", "--id", "transient_phases"])
        .output()
        .expect("binary runs");
    let committed = include_bytes!("../results/transient_phases.tsv");
    assert!(out.status.success() && out.stdout == committed);
    let out = btlab()
        .args(["figure", "--id", "nope"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure id `nope`"), "{stderr}");
    assert!(stderr.contains("model_sensitivity"), "{stderr}");
}

#[test]
fn swarm_profile_records_artifacts_and_manifest_pipeline() {
    let dir = std::env::temp_dir().join("btlab-e2e-profile");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let profile = dir.join("profile.json");
    let out = btlab()
        .args([
            "swarm",
            "--pieces",
            "10",
            "--rounds",
            "60",
            "--initial",
            "10",
            "--seed",
            "5",
            "--profile",
            profile.to_str().unwrap(),
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The three profile artifacts landed next to each other.
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&profile).expect("profile written"))
            .expect("profile is JSON");
    assert_eq!(report.get("seed").and_then(|v| v.as_u64()), Some(5));
    assert_eq!(report.get("rounds").and_then(|v| v.as_u64()), Some(60));
    assert!(report
        .get("stages")
        .and_then(|v| v.as_array())
        .is_some_and(|s| !s.is_empty()));
    let folded = std::fs::read_to_string(profile.with_extension("folded")).expect("folded written");
    assert!(folded.contains("swarm;exchange"), "{folded}");
    let series =
        std::fs::read_to_string(profile.with_extension("rounds.jsonl")).expect("series written");
    assert!(series.lines().any(|l| l.contains("round.ns")), "{series}");

    // The run manifest records the active pipeline configuration.
    let manifest: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("manifest-swarm.json")).expect("manifest written"),
    )
    .expect("manifest is JSON");
    let pipeline: Vec<&str> = manifest
        .get("pipeline")
        .and_then(|v| v.as_array())
        .expect("pipeline recorded")
        .iter()
        .map(|v| v.as_str().expect("stage name"))
        .collect();
    assert_eq!(
        pipeline,
        [
            "maintain",
            "bootstrap",
            "prune",
            "establish",
            "exchange",
            "depart",
            "sample"
        ],
        "{manifest:?}"
    );

    // `btlab profile` summarizes the recorded artifact.
    let out = btlab()
        .args(["profile", profile.to_str().unwrap(), "--top", "5"])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hottest stages"), "{stdout}");
    assert!(stdout.contains("exchange"), "{stdout}");
    assert!(stdout.contains("top peers"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_exits_zero_on_parity_and_one_on_regression() {
    let dir = std::env::temp_dir().join("btlab-e2e-compare");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // Handcrafted profiles with second-scale stage costs, far above the
    // comparison noise floor.
    let report = |establish_secs: f64| {
        format!(
            r#"{{
  "schema_version": 1,
  "seed": 7,
  "rounds": 10,
  "total_secs": {establish_secs},
  "rounds_per_sec": 100.0,
  "round_latency": {{"count": 10, "total_secs": {establish_secs}, "p50_ns": 1000, "p95_ns": 2000, "p99_ns": 3000, "max_ns": 4000}},
  "stages": [
    {{"name": "establish", "rounds": 10, "total_secs": {establish_secs}, "share": 1.0,
      "latency": {{"count": 10, "total_secs": {establish_secs}, "p50_ns": 1000, "p95_ns": 2000, "p99_ns": 3000, "max_ns": 4000}},
      "work": [["establish.candidate_comparisons", 500]]}}
  ],
  "top_peers": []
}}"#
        )
    };
    let base = dir.join("base.json");
    let cand = dir.join("cand.json");
    std::fs::write(&base, report(1.0)).unwrap();
    std::fs::write(&cand, report(3.0)).unwrap();

    let out = btlab()
        .args(["compare", base.to_str().unwrap(), base.to_str().unwrap()])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no regressions beyond tolerance"),
        "{stdout}"
    );

    let out = btlab()
        .args([
            "compare",
            base.to_str().unwrap(),
            cand.to_str().unwrap(),
            "--tolerance",
            "0.25",
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "regressions exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("regression(s) beyond tolerance"),
        "{stderr}"
    );
    assert!(stderr.contains("establish"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_malformed_input_exits_two() {
    let dir = std::env::temp_dir().join("btlab-e2e-compare-malformed");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("garbage.json");
    std::fs::write(&path, "{\"hello\": 1}").unwrap();
    let out = btlab()
        .args(["compare", path.to_str().unwrap(), path.to_str().unwrap()])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "malformed comparison input is a data error, not a regression"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("neither a profile report"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_json_flag_emits_machine_readable_report() {
    let dir = std::env::temp_dir().join("btlab-e2e-profile-json");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let profile = dir.join("profile.json");
    let out = btlab()
        .args([
            "swarm",
            "--pieces",
            "10",
            "--rounds",
            "40",
            "--initial",
            "8",
            "--seed",
            "5",
            "--profile",
            profile.to_str().unwrap(),
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let out = btlab()
        .args(["profile", profile.to_str().unwrap(), "--json"])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("--json output parses as JSON");
    assert_eq!(
        report.get("schema_version").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(report.get("seed").and_then(|v| v.as_u64()), Some(5));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_strict_promotes_manifest_warnings_to_exit_one() {
    let dir = std::env::temp_dir().join("btlab-e2e-report-strict");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let telemetry = dir.join("run.jsonl");
    let swarm = |seed: &str, telemetry: Option<&str>| {
        let mut cmd = btlab();
        cmd.args([
            "swarm",
            "--pieces",
            "10",
            "--rounds",
            "40",
            "--initial",
            "8",
            "--seed",
            seed,
        ]);
        if let Some(path) = telemetry {
            cmd.args(["--telemetry", path]);
        }
        cmd.env("BT_MANIFEST_DIR", &dir)
            .output()
            .expect("binary runs")
    };
    assert!(swarm("5", Some(telemetry.to_str().unwrap()))
        .status
        .success());
    // A second run under another seed overwrites manifest-swarm.json,
    // so the manifest on disk now disagrees with the telemetry stream.
    assert!(swarm("6", None).status.success());
    let manifest = dir.join("manifest-swarm.json");
    let report_args = |strict: bool| {
        let mut args = vec![
            "report",
            "--telemetry",
            telemetry.to_str().unwrap(),
            "--manifest",
            manifest.to_str().unwrap(),
        ];
        if strict {
            args.push("--strict");
        }
        args.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };
    let out = btlab()
        .args(report_args(false))
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "warnings alone stay advisory");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning: manifest seed 6"), "{stdout}");

    let out = btlab()
        .args(report_args(true))
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "--strict turns warnings into failures"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--strict"), "{stderr}");
    assert!(stderr.contains("manifest seed 6"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

const DOCTOR_FAULT_RUN: [&str; 19] = [
    "doctor",
    "--pieces",
    "10",
    "--rounds",
    "30",
    "--initial",
    "8",
    "--lambda",
    "0",
    "--seed",
    "5",
    "--cadence",
    "1",
    "--disable-stage",
    "bootstrap",
    "--inject-fault",
    "unaccounted-piece@5",
    "--log",
    "quiet",
];

#[test]
fn doctor_seeded_fault_exits_one_with_bundle_and_ledger_record() {
    let dir = std::env::temp_dir().join("btlab-e2e-doctor-fault");
    std::fs::remove_dir_all(&dir).ok();
    let out = btlab()
        .args(DOCTOR_FAULT_RUN)
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "violations fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("violation [piece-conservation]"),
        "{stdout}"
    );
    assert!(stdout.contains("diagnosis bundle:"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invariant violation"), "{stderr}");

    // The bundle landed under the manifest directory with its full
    // forensic contents.
    let bundle = std::fs::read_dir(&dir)
        .expect("manifest dir exists")
        .filter_map(Result::ok)
        .find(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("diagnosis-doctor-5-")
        })
        .expect("diagnosis bundle directory");
    for file in ["meta.json", "flight.json", "telemetry.jsonl", "peers.json"] {
        assert!(
            bundle.path().join(file).exists(),
            "bundle is missing {file}"
        );
    }
    let meta: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(bundle.path().join("meta.json")).expect("meta written"),
    )
    .expect("meta is JSON");
    assert_eq!(meta.get("seed").and_then(|v| v.as_u64()), Some(5));
    assert!(meta
        .get("violations")
        .and_then(|v| v.as_array())
        .is_some_and(|v| !v.is_empty()));

    // Even the failing run left a ledger record carrying its violation
    // count — regressions must be on the record, not just on stderr.
    let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).expect("ledger written");
    let record: serde_json::Value =
        serde_json::from_str(ledger.lines().next().expect("one record")).expect("record is JSON");
    assert_eq!(
        record.get("command").and_then(|v| v.as_str()),
        Some("doctor")
    );
    assert!(
        record
            .get("violations")
            .and_then(|v| v.as_u64())
            .expect("violations")
            > 0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctor_open_swarm_fault_exits_one_instead_of_panicking() {
    // The doctor's default open swarm keeps trading after the fault, so
    // the corrupted peer acquires again; the run must still end in a
    // verdict (exit 1), not a panic (exit 101).
    let dir = std::env::temp_dir().join("btlab-e2e-doctor-open-fault");
    std::fs::remove_dir_all(&dir).ok();
    let out = btlab()
        .args([
            "doctor",
            "--seed",
            "7",
            "--observers",
            "4",
            "--inject-fault",
            "unaccounted-piece@30",
            "--log",
            "quiet",
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("violation [piece-conservation]"),
        "{stdout}"
    );
    let bundle = std::fs::read_dir(&dir)
        .expect("manifest dir exists")
        .filter_map(Result::ok)
        .find(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("diagnosis-doctor-7-")
        })
        .expect("diagnosis bundle directory");
    assert!(
        bundle.path().join("meta.json").exists(),
        "meta.json written"
    );
    std::fs::remove_dir_all(&dir).ok();
}

const DOCTOR_CLEAN_RUN: [&str; 13] = [
    "doctor",
    "--pieces",
    "10",
    "--rounds",
    "40",
    "--initial",
    "8",
    "--lambda",
    "0",
    "--seed",
    "5",
    "--log",
    "quiet",
];

#[test]
fn doctor_clean_runs_build_a_ledger_that_trend_renders() {
    let dir = std::env::temp_dir().join("btlab-e2e-doctor-trend");
    std::fs::remove_dir_all(&dir).ok();
    for _ in 0..3 {
        let out = btlab()
            .args(DOCTOR_CLEAN_RUN)
            .env("BT_MANIFEST_DIR", &dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("doctor: all invariants held"), "{stdout}");
    }
    let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).expect("ledger written");
    assert_eq!(ledger.lines().count(), 3, "one record per run:\n{ledger}");

    // Identical runs give trend a matching prior set; nothing drifted.
    let out = btlab()
        .args(["trend", "--last", "5"])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 of 3 record(s)"), "{stdout}");
    assert!(stdout.contains("trajectories"), "{stdout}");
    assert!(stdout.contains("rounds_per_sec"), "{stdout}");

    // An empty window is a data error, distinct from run failures.
    let missing = dir.join("missing.jsonl");
    let out = btlab()
        .args(["trend", "--ledger", missing.to_str().unwrap()])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "unreadable ledgers exit 2");
    std::fs::remove_dir_all(&dir).ok();
}

/// Replaces `key` in a JSON object (the vendored `Value` is an
/// entries vec with no `IndexMut`).
fn set_field(value: &mut serde_json::Value, key: &str, new: serde_json::Value) {
    let serde_json::Value::Object(entries) = value else {
        panic!("expected a JSON object");
    };
    let entry = entries
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("object has no `{key}` field"));
    entry.1 = new;
}

/// Runs a short heartbeat-enabled swarm into `dir/run`, returning the
/// run directory. Zero cadence means every round beats, so even a
/// sub-second run leaves a stream worth watching.
fn heartbeat_run(dir: &std::path::Path) -> std::path::PathBuf {
    let run_dir = dir.join("run");
    let out = btlab()
        .args([
            "swarm",
            "--pieces",
            "10",
            "--rounds",
            "60",
            "--initial",
            "8",
            "--seed",
            "5",
            "--heartbeat",
            run_dir.to_str().unwrap(),
            "--heartbeat-secs",
            "0",
            "--log",
            "quiet",
        ])
        .env("BT_MANIFEST_DIR", dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    run_dir
}

#[test]
fn watch_renders_a_finished_run_and_exits_zero() {
    let dir = std::env::temp_dir().join("btlab-e2e-watch-finished");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let run_dir = heartbeat_run(&dir);

    let out = btlab()
        .args(["watch", run_dir.to_str().unwrap()])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("finished"), "{stdout}");
    assert!(stdout.contains("round 60/60"), "{stdout}");
    assert!(stdout.contains("phase"), "{stdout}");
    assert!(stdout.contains("rss"), "{stdout}");
    assert!(stdout.contains("eta"), "{stdout}");

    // --json emits the status document itself, one line per change.
    let out = btlab()
        .args(["watch", run_dir.to_str().unwrap(), "--json"])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let status: serde_json::Value =
        serde_json::from_str(stdout.lines().next().expect("one JSON line"))
            .expect("watch --json line parses");
    assert_eq!(
        status.get("state").and_then(|v| v.as_str()),
        Some("finished")
    );
    assert_eq!(
        status.get("target_rounds").and_then(|v| v.as_u64()),
        Some(60)
    );
    let last_round = status
        .get("last")
        .and_then(|last| last.get("round"))
        .and_then(|v| v.as_u64());
    assert_eq!(last_round, Some(60));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_times_out_on_a_stalled_run_with_exit_one() {
    let dir = std::env::temp_dir().join("btlab-e2e-watch-stall");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let run_dir = heartbeat_run(&dir);

    // Rewind the status document to `running`: the artifacts now look
    // like a live run whose writer died mid-flight.
    let status_path = run_dir.join("run.status.json");
    let mut status: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&status_path).expect("status written"))
            .expect("status is JSON");
    set_field(
        &mut status,
        "state",
        serde_json::Value::Str("running".to_string()),
    );
    std::fs::write(&status_path, serde_json::to_string_pretty(&status).unwrap()).unwrap();

    let out = btlab()
        .args([
            "watch",
            run_dir.to_str().unwrap(),
            "--timeout-secs",
            "0.4",
            "--interval-secs",
            "0.1",
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "a stalled run is a failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("silent"), "{stderr}");
    assert!(stderr.contains("--timeout-secs"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_rejects_missing_torn_or_headerless_artifacts_with_exit_two() {
    let dir = std::env::temp_dir().join("btlab-e2e-watch-invalid");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // No run.status.json at all: the directory is not a heartbeat run.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = btlab()
        .args(["watch", empty.to_str().unwrap()])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "missing status is a data error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("run.status.json"), "{stderr}");
    assert!(stderr.contains("--heartbeat"), "{stderr}");

    // A torn/garbage status document.
    let torn = dir.join("torn");
    std::fs::create_dir_all(&torn).unwrap();
    std::fs::write(torn.join("run.status.json"), "{\"state\": \"runni").unwrap();
    let out = btlab()
        .args(["watch", torn.to_str().unwrap()])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "torn status is a data error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed status document"), "{stderr}");

    // A valid status but a headerless heartbeat stream.
    let run_dir = heartbeat_run(&dir);
    let stream_path = run_dir.join("run.heartbeat.jsonl");
    let stream = std::fs::read_to_string(&stream_path).expect("stream written");
    let beat_line = stream
        .lines()
        .nth(1)
        .expect("stream has beats after the header");
    std::fs::write(&stream_path, format!("{beat_line}\n")).unwrap();
    let out = btlab()
        .args(["watch", run_dir.to_str().unwrap()])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "headerless stream is a data error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no meta header"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_mem_budget_gates_peak_rss_against_the_baseline() {
    let dir = std::env::temp_dir().join("btlab-e2e-mem-budget");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // One real run provides a manifest with live memory telemetry; a
    // doctored copy with double the peak plays the bloated candidate.
    assert!(btlab()
        .args([
            "swarm",
            "--pieces",
            "10",
            "--rounds",
            "40",
            "--initial",
            "8",
            "--seed",
            "5"
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs")
        .status
        .success());
    let base = dir.join("manifest-swarm.json");
    let mut manifest: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&base).expect("manifest written"))
            .expect("manifest is JSON");
    let peak = manifest
        .get("peak_rss_bytes")
        .and_then(|v| v.as_u64())
        .expect("manifest records peak RSS");
    if peak == 0 {
        // Off-procfs platform: the gate cannot see memory here, and the
        // invalid-input path below still covers the contract.
        eprintln!("peak_rss_bytes is 0 on this platform; skipping the gate checks");
    } else {
        let cand = dir.join("candidate.json");
        set_field(
            &mut manifest,
            "peak_rss_bytes",
            serde_json::Value::UInt(peak * 2),
        );
        std::fs::write(&cand, serde_json::to_string_pretty(&manifest).unwrap()).unwrap();

        // Within budget: +100% growth passes a generous 150% headroom.
        let out = btlab()
            .args([
                "compare",
                base.to_str().unwrap(),
                base.to_str().unwrap(),
                "--tolerance",
                "10",
                "--mem-budget",
                "50",
            ])
            .env("BT_MANIFEST_DIR", &dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("peak RSS"), "{stdout}");
        assert!(stdout.contains("ok"), "{stdout}");

        // Over budget: the doubled candidate busts a 50% headroom.
        let out = btlab()
            .args([
                "compare",
                base.to_str().unwrap(),
                cand.to_str().unwrap(),
                "--tolerance",
                "10",
                "--mem-budget",
                "50",
            ])
            .env("BT_MANIFEST_DIR", &dir)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "over-budget memory exits 1");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("OVER BUDGET"), "{stdout}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--mem-budget"), "{stderr}");
    }

    // A baseline without memory telemetry is a data error (exit 2).
    let old = dir.join("old.json");
    set_field(&mut manifest, "peak_rss_bytes", serde_json::Value::UInt(0));
    std::fs::write(&old, serde_json::to_string_pretty(&manifest).unwrap()).unwrap();
    let out = btlab()
        .args([
            "compare",
            old.to_str().unwrap(),
            base.to_str().unwrap(),
            "--tolerance",
            "10",
            "--mem-budget",
            "50",
        ])
        .env("BT_MANIFEST_DIR", &dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a memory-less baseline is a data error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("memory telemetry"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `btlab ARGS` with its manifests and ledger under `dir`.
fn btlab_in(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    btlab()
        .args(args)
        .env("BT_MANIFEST_DIR", dir)
        .output()
        .expect("binary runs")
}

/// Runs `btlab ARGS` and asserts a data error: exit 2 naming the read.
fn assert_data_error(dir: &std::path::Path, args: &[&str]) {
    let out = btlab_in(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("cannot read"), "{args:?}: {stderr}");
}

/// A fresh temp dir holding JSON cut mid-value but newline-terminated,
/// so line readers see one complete malformed line.
fn garbage(label: &str) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("btlab-e2e-garbage-{label}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("garbage.json");
    std::fs::write(&path, "{\"truncated\": \n").expect("write garbage");
    (dir, path.to_str().unwrap().to_string())
}

#[test]
fn report_exits_two_on_a_malformed_manifest_or_stream() {
    let (dir, garbage) = garbage("report");
    let telemetry = dir.join("run.jsonl");
    let telemetry = telemetry.to_str().unwrap();
    let out = btlab_in(
        &dir,
        &[&LOG_TEST_SWARM[..], &["--telemetry", telemetry]].concat(),
    );
    assert!(out.status.success());
    assert_data_error(
        &dir,
        &["report", "--telemetry", telemetry, "--manifest", &garbage],
    );
    assert_data_error(&dir, &["report", "--telemetry", &garbage]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_exits_two_on_a_malformed_report() {
    let (dir, garbage) = garbage("profile");
    assert_data_error(&dir, &["profile", &garbage]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_exits_two_on_malformed_traces() {
    let (dir, garbage) = garbage("analyze");
    assert_data_error(&dir, &["analyze", "--input", &garbage]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trend_exits_two_on_a_malformed_ledger_line() {
    let (dir, garbage) = garbage("trend");
    assert_data_error(&dir, &["trend", "--ledger", &garbage]);
    std::fs::remove_dir_all(&dir).ok();
}

/// How an artifact reader frames its input.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Framing {
    /// One JSON document (manifest, profile report, run status).
    Document,
    /// JSON lines, read up to the last complete line.
    Lines,
    /// The binary-framed cohort stream: a 24-byte header, then frames of
    /// at most 33 bytes, read up to the last complete frame.
    Frames,
}

/// A malformed variant of a valid artifact.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Damage {
    Missing,
    Empty,
    /// Cut to half its length.
    Torn,
    /// The middle byte set to 0x01, which no JSON token contains.
    Flipped,
}

/// The exit code `btlab` owes a reader of `framing` given a `damage`d
/// copy of `valid`, or `None` where only "no panic" is promised: a
/// flipped byte inside a cohort frame's payload, which carries no
/// checksum, can still decode.
fn owed_exit(framing: Framing, damage: Damage, valid: &[u8]) -> Option<i32> {
    let torn = &valid[..valid.len() / 2];
    match (damage, framing) {
        (Damage::Torn, Framing::Lines) => Some(if torn.contains(&b'\n') { 0 } else { 2 }),
        (Damage::Torn, Framing::Frames) => Some(if torn.len() >= 24 + 33 { 0 } else { 2 }),
        (Damage::Flipped, Framing::Frames) => None,
        _ => Some(2),
    }
}

/// Every artifact reader against a missing, an empty, a torn and a
/// byte-flipped copy of a valid artifact: missing, empty and torn
/// documents exit 2; a torn stream exits 0 while a complete record
/// remains and 2 otherwise; a flipped byte exits 2 (a cohort frame's
/// payload excepted); and no case panics (exit 101).
#[test]
fn malformed_artifacts_exit_two_and_never_panic() {
    let dir = std::env::temp_dir().join("btlab-e2e-malformed-matrix");
    std::fs::remove_dir_all(&dir).ok();
    let valid = dir.join("valid");
    std::fs::create_dir_all(valid.join("hb")).expect("create temp dir");
    let path = |root: &std::path::Path, name: &str| root.join(name).to_str().unwrap().to_string();
    let ok = |args: &[&str]| {
        let out = btlab_in(&dir, args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    // Two runs fill the ledger; the first also writes every other
    // swarm artifact.
    let swarm = [
        "swarm",
        "--pieces",
        "10",
        "--rounds",
        "60",
        "--initial",
        "8",
        "--log",
        "quiet",
    ];
    let artifacts = [
        "--observers".to_string(),
        "2".to_string(),
        "--telemetry".to_string(),
        path(&valid, "t.jsonl"),
        "--cohort".to_string(),
        path(&valid, "c.bin"),
        "--profile".to_string(),
        path(&valid, "p.json"),
        "--heartbeat".to_string(),
        path(&valid, "hb"),
        "--heartbeat-secs".to_string(),
        "0".to_string(),
    ];
    let artifacts: Vec<&str> = artifacts.iter().map(String::as_str).collect();
    ok(&[&swarm[..], &["--seed", "5"], &artifacts].concat());
    ok(&[&swarm[..], &["--seed", "6"]].concat());
    ok(&[
        "traces",
        "--out",
        &path(&valid, "tr.jsonl"),
        "--clients",
        "6",
    ]);
    std::fs::copy(dir.join("manifest-swarm.json"), valid.join("m.json")).unwrap();
    std::fs::copy(dir.join("ledger.jsonl"), valid.join("l.jsonl")).unwrap();
    let baseline = path(&valid, "p.json");

    // (reader, damaged file, framing, argv over a case directory `{}`).
    let readers: [(&str, &str, Framing, &[&str]); 9] = [
        (
            "report --telemetry",
            "t.jsonl",
            Framing::Lines,
            &["report", "--telemetry", "{}/t.jsonl", "--replications", "3"],
        ),
        (
            "report --cohort",
            "c.bin",
            Framing::Frames,
            &[
                "report",
                "--telemetry",
                "{}/t.jsonl",
                "--cohort",
                "{}/c.bin",
                "--replications",
                "3",
            ],
        ),
        (
            "report --manifest",
            "m.json",
            Framing::Document,
            &[
                "report",
                "--telemetry",
                "{}/t.jsonl",
                "--manifest",
                "{}/m.json",
                "--replications",
                "3",
            ],
        ),
        (
            "profile",
            "p.json",
            Framing::Document,
            &["profile", "{}/p.json"],
        ),
        (
            "compare",
            "p.json",
            Framing::Document,
            &["compare", &baseline, "{}/p.json"],
        ),
        (
            "trend",
            "l.jsonl",
            Framing::Lines,
            &["trend", "--ledger", "{}/l.jsonl"],
        ),
        (
            "analyze",
            "tr.jsonl",
            Framing::Lines,
            &["analyze", "--input", "{}/tr.jsonl"],
        ),
        (
            "watch (status)",
            "hb/run.status.json",
            Framing::Document,
            &["watch", "{}/hb", "--timeout-secs", "2"],
        ),
        (
            "watch (stream)",
            "hb/run.heartbeat.jsonl",
            Framing::Lines,
            &["watch", "{}/hb", "--timeout-secs", "2"],
        ),
    ];
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir).unwrap();
    let mut failures = Vec::new();
    for (reader, file, framing, argv) in readers {
        let bytes = std::fs::read(valid.join(file)).expect("valid artifact written");
        for damage in [
            Damage::Missing,
            Damage::Empty,
            Damage::Torn,
            Damage::Flipped,
        ] {
            let case = dir.join("case");
            std::fs::remove_dir_all(&case).ok();
            std::fs::create_dir_all(case.join("hb")).unwrap();
            for name in [
                "t.jsonl",
                "c.bin",
                "m.json",
                "p.json",
                "l.jsonl",
                "tr.jsonl",
                "hb/run.status.json",
                "hb/run.heartbeat.jsonl",
            ] {
                std::fs::copy(valid.join(name), case.join(name)).unwrap();
            }
            let target = case.join(file);
            match damage {
                Damage::Missing => std::fs::remove_file(&target).unwrap(),
                Damage::Empty => std::fs::write(&target, b"").unwrap(),
                Damage::Torn => std::fs::write(&target, &bytes[..bytes.len() / 2]).unwrap(),
                Damage::Flipped => {
                    let mut flipped = bytes.clone();
                    flipped[bytes.len() / 2] = 0x01;
                    std::fs::write(&target, flipped).unwrap();
                }
            }
            let case_dir = case.to_str().unwrap();
            let args: Vec<String> = argv.iter().map(|a| a.replace("{}", case_dir)).collect();
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let out = btlab_in(&out_dir, &args);
            let code = out.status.code();
            let stderr = String::from_utf8_lossy(&out.stderr);
            let owed = owed_exit(framing, damage, &bytes);
            if code.is_none() || code == Some(101) || owed.is_some_and(|o| code != Some(o)) {
                failures.push(format!(
                    "{reader} on a {damage:?} {file}: exit {code:?}, owed {owed:?}: {stderr}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streams_cut_mid_line_read_up_to_their_last_complete_record() {
    let dir = std::env::temp_dir().join("btlab-e2e-cut-streams");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let telemetry = dir.join("run.jsonl");
    let swarm = [
        &LOG_TEST_SWARM[..],
        &[
            "--observers",
            "2",
            "--telemetry",
            telemetry.to_str().unwrap(),
        ],
    ]
    .concat();
    let run = |args: &[&str]| {
        let out = btlab_in(&dir, args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let cut = |path: &std::path::Path, bytes: usize| {
        let full = std::fs::read(path).expect("artifact written");
        std::fs::write(path, &full[..full.len() - bytes]).expect("cut artifact");
    };
    run(&swarm);
    run(&swarm);

    // A telemetry stream cut mid-line: the report covers what is complete.
    cut(&telemetry, 7);
    let report = run(&[
        "report",
        "--telemetry",
        telemetry.to_str().unwrap(),
        "--replications",
        "5",
    ]);
    assert!(report.contains("samples="), "{report}");

    // A ledger whose final record is cut mid-line lists the complete one,
    // and the next run's record starts a fresh line instead of gluing
    // onto the torn one.
    cut(&dir.join("ledger.jsonl"), 20);
    let trend = run(&["trend", "--last", "5"]);
    assert!(trend.contains("1 of 1 record(s)"), "{trend}");
    run(&swarm);
    let trend = run(&["trend", "--last", "5"]);
    assert!(trend.contains("2 of 2 record(s)"), "{trend}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctor_heartbeat_names_the_doctor_command() {
    let dir = std::env::temp_dir().join("btlab-e2e-doctor-heartbeat");
    std::fs::remove_dir_all(&dir).ok();
    let run_dir = dir.join("run");
    let out = btlab_in(
        &dir,
        &[
            "doctor",
            "--pieces",
            "10",
            "--rounds",
            "20",
            "--initial",
            "8",
            "--lambda",
            "0",
            "--seed",
            "5",
            "--heartbeat",
            run_dir.to_str().unwrap(),
            "--heartbeat-secs",
            "0",
            "--log",
            "quiet",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let status = bt_obs::read_status(&run_dir.join(bt_obs::RUN_STATUS_FILE)).expect("status");
    assert_eq!(status.command, "doctor");
    assert!(status.is_finished());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swarm_artifacts_and_normalized_ledger_match_across_thread_counts() {
    let dir = std::env::temp_dir().join("btlab-e2e-threads-matrix");
    std::fs::remove_dir_all(&dir).ok();
    let run = |threads: &str| {
        let run_dir = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&run_dir).expect("create run dir");
        let telemetry = run_dir.join("telemetry.jsonl");
        let cohort = run_dir.join("cohort.cohort");
        let ledger = run_dir.join("ledger.jsonl");
        let out = btlab()
            .args([
                "swarm",
                "--pieces",
                "16",
                "--rounds",
                "40",
                "--initial",
                "24",
                "--lambda",
                "0.5",
                "--seed",
                "6",
                "--observers",
                "2",
                "--telemetry",
                telemetry.to_str().unwrap(),
                "--cohort",
                cohort.to_str().unwrap(),
                "--threads",
                threads,
                "--log",
                "quiet",
            ])
            .env("BT_MANIFEST_DIR", &run_dir)
            .env("BT_LEDGER_PATH", &ledger)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let records = bt_obs::read_ledger(&ledger).expect("ledger written");
        assert_eq!(records.len(), 1, "one record per run");
        let normalized =
            serde_json::to_string(&records[0].normalized()).expect("record serializes");
        (
            std::fs::read(&telemetry).expect("telemetry written"),
            std::fs::read(&cohort).expect("cohort written"),
            normalized,
        )
    };
    let (telemetry_1, cohort_1, ledger_1) = run("1");
    let (telemetry_2, cohort_2, ledger_2) = run("2");
    assert!(!telemetry_1.is_empty() && !cohort_1.is_empty());
    assert!(
        telemetry_1 == telemetry_2,
        "telemetry bytes differ across thread counts"
    );
    assert!(
        cohort_1 == cohort_2,
        "cohort bytes differ across thread counts"
    );
    assert_eq!(ledger_1, ledger_2, "normalized ledger records differ");
    std::fs::remove_dir_all(&dir).ok();
}
