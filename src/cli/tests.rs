//! Unit tests of the parser and of `run` for every subcommand.

use super::*;

/// A command line's words.
fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

/// A fresh run directory for one test, under the system temp dir.
fn run_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("btlab-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn empty_is_help() {
    assert_eq!(parse(&[]).unwrap(), Command::Help);
    assert_eq!(parse(&args("help")).unwrap(), Command::Help);
    assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
}

#[test]
fn swarm_defaults_and_overrides() {
    let cmd = parse(&args("swarm --pieces 50 --shake 0.9 --json")).unwrap();
    let Command::Swarm(a) = cmd else {
        panic!("expected swarm");
    };
    assert_eq!(a.pieces, 50);
    assert_eq!(a.k, SwarmArgs::default().k);
    assert_eq!(a.shake, Some(0.9));
    assert!(a.json);
}

#[test]
fn disable_stage_parses_and_validates() {
    let cmd = parse(&args("swarm --disable-stage shake,depart")).unwrap();
    let Command::Swarm(a) = cmd else {
        panic!("expected swarm");
    };
    assert_eq!(a.disabled_stages, vec!["shake", "depart"]);
    let err = parse(&args("swarm --disable-stage teleport")).unwrap_err();
    assert!(err.contains("unknown stage `teleport`"), "{err}");
    assert!(err.contains("maintain"), "error lists known stages: {err}");
}

#[test]
fn disable_stage_runs_an_ablated_pipeline() {
    let dir = run_dir("disable-stage-runs-an-ablated-pipeline");
    // Without departures, completed peers linger: population equals
    // arrivals and no completions are recorded.
    let cmd = parse(&args("swarm --pieces 8 --k 3 --s 6 --lambda 0.0 --initial 10 --rounds 60 --seed 5 --json --disable-stage depart"))
    .unwrap();
    let mut buf = Vec::new();
    run(cmd, &dir, &mut buf).unwrap();
    let metrics: serde_json::Value = serde_json::from_slice(&buf).expect("json metrics");
    assert_eq!(metrics.get("departures").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(metrics.get("rounds_run").and_then(|v| v.as_u64()), Some(60));
}

#[test]
fn model_parses() {
    let cmd = parse(&args("model --alpha 0.5 --replications 10")).unwrap();
    let Command::Model(a) = cmd else {
        panic!("expected model");
    };
    assert_eq!(a.alpha, 0.5);
    assert_eq!(a.replications, 10);
}

#[test]
fn traces_requires_out() {
    assert!(parse(&args("traces")).is_err());
    let cmd = parse(&args("traces --out x.jsonl --scenario last-phase")).unwrap();
    let Command::Traces(a) = cmd else {
        panic!("expected traces");
    };
    assert_eq!(a.out, "x.jsonl");
    assert_eq!(a.scenario, "last-phase");
}

#[test]
fn analyze_requires_input() {
    assert!(parse(&args("analyze")).is_err());
    assert!(parse(&args("analyze --input f.jsonl")).is_ok());
}

#[test]
fn rejects_unknown_command_and_flags() {
    assert!(parse(&args("frobnicate")).is_err());
    assert!(parse(&args("swarm --warp 9")).is_err());
    assert!(parse(&args("swarm oops")).is_err());
    assert!(parse(&args("swarm --pieces NaNery")).is_err());
}

#[test]
fn run_swarm_prints_summary() {
    let dir = run_dir("run-swarm-prints-summary");
    let cmd = parse(&args("swarm --pieces 10 --rounds 60 --initial 8 --seed 3")).unwrap();
    let mut buf = Vec::new();
    run(cmd, &dir, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("completions="), "{text}");
    assert!(text.contains("final_entropy="), "{text}");
}

#[test]
fn swarm_completion_stream_feeds_report() {
    // The stream holds what the summary only sums: reading it back
    // through `report --completions` reproduces the summary's count
    // and means, byte for byte.
    let dir = run_dir("swarm-completion-stream-feeds-report");
    let cmd = parse(&args(
        "swarm --pieces 10 --rounds 60 --initial 8 --lambda 1.5 --seed 3 --completions",
    ))
    .unwrap();
    let mut buf = Vec::new();
    run(cmd, &dir, &mut buf).unwrap();
    let summary = String::from_utf8(buf).unwrap();
    let stream = dir.join("completions.jsonl");
    let cmd = parse(&args(&format!(
        "report --completions {}",
        stream.to_str().unwrap()
    )))
    .unwrap();
    let mut buf = Vec::new();
    run(cmd, &dir, &mut buf).unwrap();
    let report = String::from_utf8(buf).unwrap();
    let field = |text: &str, key: &str| {
        text.split_whitespace()
            .find_map(|word| word.strip_prefix(key))
            .unwrap_or_else(|| panic!("{key} in {text}"))
            .to_string()
    };
    let count = field(&summary, "completions=");
    assert!(count.parse::<u64>().unwrap() > 0, "{summary}");
    for key in [
        "completions=",
        "mean_download_rounds=",
        "mean_bootstrap_rounds=",
    ] {
        assert_eq!(field(&report, key), field(&summary, key), "{report}");
    }
    assert!(report.contains("pieces=10 warmup_rounds=0"), "{report}");
}

#[test]
fn run_model_prints_summary() {
    let dir = run_dir("run-model-prints-summary");
    let cmd = parse(&args("model --pieces 15 --replications 20 --seed 2")).unwrap();
    let mut buf = Vec::new();
    run(cmd, &dir, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("expected_download_rounds="), "{text}");
}

#[test]
fn run_traces_then_analyze() {
    let dir = run_dir("run-traces-then-analyze");
    let path = std::env::temp_dir().join("btlab-cli-test.jsonl");
    let path_str = path.to_str().unwrap().to_string();
    let mut buf = Vec::new();
    run(
        Command::Traces(TracesArgs {
            scenario: "smooth".into(),
            clients: 2,
            out: path_str.clone(),
            seed: 1,
        }),
        &dir,
        &mut buf,
    )
    .unwrap();
    let mut buf2 = Vec::new();
    run(
        Command::Analyze(AnalyzeArgs { input: path_str }),
        &dir,
        &mut buf2,
    )
    .unwrap();
    let text = String::from_utf8(buf2).unwrap();
    assert!(text.contains("smooth-"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn lint_parses_and_validates() {
    assert_eq!(
        parse(&args("lint")).unwrap(),
        Command::Lint(LintArgs::default())
    );
    let cmd = parse(&args("lint --root /tmp/x --format json")).unwrap();
    assert_eq!(
        cmd,
        Command::Lint(LintArgs {
            root: Some("/tmp/x".into()),
            json: true,
            stage_matrix: false,
        })
    );
    assert_eq!(cmd.name(), "lint");
    assert_eq!(cmd.seed(), None);
    assert_eq!(
        parse(&args("lint --stage-matrix")).unwrap(),
        Command::Lint(LintArgs {
            root: None,
            json: false,
            stage_matrix: true,
        })
    );
    assert!(parse(&args("lint --format yaml")).is_err());
    assert!(parse(&args("lint --fix")).is_err());
}

#[test]
fn run_lint_on_workspace_is_clean() {
    let dir = run_dir("run-lint-on-workspace-is-clean");
    let cmd = Command::Lint(LintArgs {
        root: Some(env!("CARGO_MANIFEST_DIR").to_string()),
        json: false,
        stage_matrix: false,
    });
    let mut buf = Vec::new();
    run(cmd, &dir, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("0 blocking finding(s)"), "{text}");
}

#[test]
fn run_lint_stage_matrix_emits_schema() {
    let dir = run_dir("run-lint-stage-matrix-emits-schema");
    let cmd = Command::Lint(LintArgs {
        root: Some(env!("CARGO_MANIFEST_DIR").to_string()),
        json: false,
        stage_matrix: true,
    });
    let mut buf = Vec::new();
    run(cmd, &dir, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(
        text.contains("\"schema\": \"bt-lint/stage-matrix/v1\""),
        "{text}"
    );
    assert!(text.contains("\"write_disjointness\""), "{text}");
}

#[test]
fn figure_parses_and_validates() {
    assert!(parse(&args("figure")).is_err());
    let cmd = parse(&args("figure --id fig4a")).unwrap();
    assert_eq!(cmd, Command::Figure(FigureArgs { id: "fig4a".into() }));
    // An unknown id is a usage error (exit 2), naming the known ids.
    let err = parse(&args("figure --id nope")).unwrap_err();
    assert!(err.contains("unknown figure id `nope`"), "{err}");
    assert!(
        err.contains("fig4a") && err.contains("transient_phases"),
        "{err}"
    );
}

#[test]
fn log_options_strip_anywhere() {
    let line = "swarm --pieces 10 --log json --seed 4 --log-filter info,bt_swarm=debug";
    let (opts, rest) = extract_log_options(&args(line)).unwrap();
    assert_eq!(opts.mode, Some(LogMode::Json));
    assert_eq!(opts.filter.as_deref(), Some("info,bt_swarm=debug"));
    assert_eq!(rest, args("swarm --pieces 10 --seed 4"));

    // Leading position works too, and absence leaves defaults.
    let (opts, rest) = extract_log_options(&args("--log quiet help")).unwrap();
    assert_eq!(opts.mode, Some(LogMode::Quiet));
    assert_eq!(rest, args("help"));
    let (opts, _) = extract_log_options(&args("help")).unwrap();
    assert_eq!(opts, LogOptions::default());
}

#[test]
fn log_options_reject_bad_input() {
    assert!(extract_log_options(&args("--log")).is_err());
    assert!(extract_log_options(&args("--log loud")).is_err());
    assert!(extract_log_options(&args("--log-filter")).is_err());
    assert!(extract_log_options(&args("--log-filter bt_swarm=shouty")).is_err());
}

#[test]
fn command_name_and_seed() {
    let cmd = parse(&args("swarm --seed 9")).unwrap();
    assert_eq!(cmd.name(), "swarm");
    assert_eq!(cmd.seed(), Some(9));
    assert_eq!(Command::Help.name(), "help");
    assert_eq!(Command::Help.seed(), None);
    let cmd = parse(&args("figure --id fig2")).unwrap();
    assert_eq!(cmd.seed(), None);
}

#[test]
fn config_hash_covers_what_is_simulated_not_where_it_is_written() {
    let hash = |line: &str| parse(&args(line)).unwrap().config_hash();
    for command in ["swarm", "doctor"] {
        let base = hash(&format!("{command} --pieces 20 --seed 4"));
        for extra in [
            "--threads 8",
            "--telemetry 5",
            "--cohort 4",
            "--profile",
            "--heartbeat 0",
            "--json",
        ] {
            let with = hash(&format!("{command} --pieces 20 --seed 4 {extra}"));
            assert_eq!(with, base, "{command} {extra} changed the hash");
        }
        for changed in [
            "--pieces 20 --seed 5",
            "--pieces 21 --seed 4",
            "--pieces 20 --seed 4 --disable-stage depart",
        ] {
            assert_ne!(
                hash(&format!("{command} {changed}")),
                base,
                "{changed} kept the hash"
            );
        }
    }
    assert_ne!(
        hash("doctor --pieces 20 --seed 4"),
        hash("swarm --pieces 20 --seed 4"),
        "the monitor settings are part of a doctor run's identity"
    );
    assert_ne!(
        hash("doctor --pieces 20 --seed 4 --inject-fault index-drift@3"),
        hash("doctor --pieces 20 --seed 4"),
    );
}

#[test]
fn watch_parses_and_validates() {
    let cmd = parse(&args("watch results/scale50k")).unwrap();
    assert_eq!(
        cmd,
        Command::Watch(WatchArgs {
            dir: "results/scale50k".into(),
            timeout_secs: None,
            interval_secs: 1.0,
            json: false,
        })
    );
    assert_eq!(cmd.name(), "watch");
    assert_eq!(cmd.seed(), None);
    let cmd = parse(&args(
        "watch d --timeout-secs 30 --interval-secs 0.2 --json",
    ))
    .unwrap();
    let Command::Watch(a) = cmd else {
        panic!("expected watch");
    };
    assert_eq!(a.timeout_secs, Some(30.0));
    assert!((a.interval_secs - 0.2).abs() < 1e-12);
    assert!(a.json);
    assert!(parse(&args("watch")).is_err());
    assert!(parse(&args("watch a b")).is_err());
    assert!(parse(&args("watch d --timeout-secs 0")).is_err());
    assert!(parse(&args("watch d --interval-secs -1")).is_err());
    assert!(parse(&args("watch d --follow")).is_err());
}

#[test]
fn swarm_heartbeat_flags_parse() {
    let heartbeat = |line: &str| match parse(&args(line)) {
        Ok(Command::Swarm(a)) => Ok(a.heartbeat),
        other => other.map(|_| None),
    };
    assert_eq!(heartbeat("swarm --heartbeat 0.5"), Ok(Some(0.5)));
    assert_eq!(heartbeat("swarm --heartbeat"), Ok(Some(1.0)));
    assert_eq!(heartbeat("swarm"), Ok(None));
    let err = heartbeat("swarm --heartbeat -1").unwrap_err();
    assert!(err.contains("must be >= 0"), "{err}");
    // The directory flag is gone: a path names the run directory.
    let err = heartbeat("swarm --heartbeat rundir").unwrap_err();
    assert!(err.contains("$BT_MANIFEST_DIR"), "{err}");
    let err = heartbeat("swarm --heartbeat-secs 0").unwrap_err();
    assert!(err.contains("unknown flag"), "{err}");
}

#[test]
fn compare_mem_budget_parses_and_validates() {
    let cmd = parse(&args("compare a.json b.json --mem-budget 50")).unwrap();
    let Command::Compare(a) = cmd else {
        panic!("expected compare");
    };
    assert_eq!(a.mem_budget, Some(50.0));
    assert!(parse(&args("compare a.json b.json --mem-budget 120")).is_err());
    // No gate-only mode for memory: peak RSS is judged relative to
    // a baseline, so one positional cannot carry the gate.
    assert!(parse(&args("compare a.json --mem-budget 50")).is_err());
}

#[test]
fn swarm_telemetry_flags_parse() {
    let cmd = parse(&args("swarm --observers 3 --telemetry 5")).unwrap();
    let Command::Swarm(a) = cmd else {
        panic!("expected swarm");
    };
    assert_eq!(a.observers, 3);
    assert_eq!(a.telemetry, Some(5));
    let Command::Swarm(a) = parse(&args("swarm --telemetry --json")).unwrap() else {
        panic!("expected swarm");
    };
    assert_eq!(a.telemetry, Some(1), "bare --telemetry samples every round");
    assert!(a.json);
    // Anomaly capture moved to the doctor: the swarm has no flight
    // recorder flags.
    for gone in [
        "--flight",
        "--entropy-floor",
        "--flight-capacity",
        "--stall-rounds",
    ] {
        let err = parse(&args(&format!("swarm {gone} 1"))).unwrap_err();
        assert!(err.contains("unknown flag"), "{gone}: {err}");
    }
    // Telemetry is JSON lines only, written to telemetry.jsonl in
    // the run directory: a path is a usage error naming it.
    let err = parse(&args("swarm --telemetry-format csv")).unwrap_err();
    assert!(err.contains("unknown flag"), "{err}");
    let err = parse(&args("swarm --telemetry t.jsonl")).unwrap_err();
    assert!(err.contains("telemetry.jsonl"), "{err}");
    assert!(err.contains("$BT_MANIFEST_DIR"), "{err}");
    let err = parse(&args("swarm --telemetry-stride 5")).unwrap_err();
    assert!(err.contains("unknown flag"), "{err}");
}

#[test]
fn report_requires_telemetry() {
    assert!(parse(&args("report")).is_err());
    assert!(parse(&args("report --warp 9")).is_err());
    assert!(parse(&args("report --completions c.jsonl")).is_ok());
    let cmd = parse(&args(
        "report --telemetry t.jsonl --replications 10 --manifest m.json --seed 4",
    ))
    .unwrap();
    assert_eq!(cmd.name(), "report");
    assert_eq!(cmd.seed(), Some(4));
    let Command::Report(a) = cmd else {
        panic!("expected report");
    };
    assert_eq!(a.telemetry.as_deref(), Some("t.jsonl"));
    assert_eq!(a.replications, 10);
    assert_eq!(a.manifest.as_deref(), Some("m.json"));
}

#[test]
fn run_swarm_telemetry_then_report() {
    let dir = run_dir("run-swarm-telemetry-then-report");
    let path_str = dir.join("telemetry.jsonl").to_str().unwrap().to_string();
    let swarm_args = SwarmArgs {
        rounds: 150,
        observers: 2,
        telemetry: Some(1),
        ..small_swarm(3)
    };
    let mut buf = Vec::new();
    run(Command::Swarm(swarm_args), &dir, &mut buf).unwrap();

    let mut report = Vec::new();
    run(
        Command::Report(ReportArgs {
            telemetry: Some(path_str),
            replications: 20,
            ..ReportArgs::default()
        }),
        &dir,
        &mut report,
    )
    .unwrap();
    let text = String::from_utf8(report).unwrap();
    assert!(text.contains("samples="), "{text}");
    assert!(text.contains("detected phase boundaries"), "{text}");
    assert!(text.contains("model comparison"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_rejects_missing_empty_or_truncated_streams_with_exit_2() {
    let dir = run_dir("report-rejects-missing-empty-or-truncated-streams-with-exit-2");
    let report = |path: &str| {
        let mut buf = Vec::new();
        run(
            Command::Report(ReportArgs {
                telemetry: Some(path.into()),
                ..ReportArgs::default()
            }),
            &dir,
            &mut buf,
        )
    };
    let err = report("/nonexistent/telemetry.jsonl").unwrap_err();
    assert_eq!(err.exit_code(), 2, "missing stream is a data error");
    assert!(err.to_string().contains("cannot read telemetry"), "{err}");

    // An interrupted run can leave a zero-byte stream behind.
    let path = std::env::temp_dir().join("btlab-cli-report-empty.jsonl");
    std::fs::write(&path, "").unwrap();
    let err = report(path.to_str().unwrap()).unwrap_err();
    assert_eq!(err.exit_code(), 2, "empty stream is a data error");
    assert!(err.to_string().contains("is empty"), "{err}");

    // A stream with records but no Meta header.
    std::fs::write(
        &path,
        "{\"Phase\":{\"peer\":1,\"round\":2,\"phase\":\"Bootstrap\"}}\n",
    )
    .unwrap();
    let err = report(path.to_str().unwrap()).unwrap_err();
    assert_eq!(err.exit_code(), 2, "headerless stream is a data error");
    assert!(err.to_string().contains("no Meta header"), "{err}");
    std::fs::remove_file(&path).ok();

    // A Meta header with zero samples: truncated mid-run.
    let stream = std::env::temp_dir().join("btlab-cli-report-truncated.jsonl");
    run(
        Command::Swarm(SwarmArgs {
            rounds: 20,
            telemetry: Some(1),
            ..small_swarm(0)
        }),
        &dir,
        &mut Vec::new(),
    )
    .unwrap();
    let text = std::fs::read_to_string(dir.join("telemetry.jsonl")).unwrap();
    let header = text.lines().next().unwrap();
    assert!(header.contains("Meta"), "first record is the header");
    std::fs::write(&stream, format!("{header}\n")).unwrap();
    let err = report(stream.to_str().unwrap()).unwrap_err();
    assert_eq!(err.exit_code(), 2, "truncated stream is a data error");
    assert!(err.to_string().contains("truncated"), "{err}");
    std::fs::remove_file(&stream).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_help_prints_usage() {
    let dir = run_dir("run-help-prints-usage");
    let mut buf = Vec::new();
    run(Command::Help, &dir, &mut buf).unwrap();
    assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
}

#[test]
fn profile_command_parses_positionals_and_flags() {
    let cmd = parse(&args("profile p.json")).unwrap();
    assert_eq!(
        cmd,
        Command::Profile(ProfileArgs {
            input: "p.json".into(),
            top: 10,
            json: false,
        })
    );
    assert_eq!(cmd.name(), "profile");
    assert_eq!(cmd.seed(), None);
    let cmd = parse(&args("profile --top 3 p.json")).unwrap();
    assert_eq!(
        cmd,
        Command::Profile(ProfileArgs {
            input: "p.json".into(),
            top: 3,
            json: false,
        })
    );
    assert!(parse(&args("profile")).is_err());
    assert!(parse(&args("profile a.json b.json")).is_err());
    assert!(parse(&args("profile p.json --warp 9")).is_err());
}

#[test]
fn compare_command_parses_positionals_and_flags() {
    let cmd = parse(&args("compare base.json cand.json")).unwrap();
    let Command::Compare(a) = &cmd else {
        panic!("expected compare");
    };
    assert_eq!(a.baseline, "base.json");
    assert_eq!(a.candidate, "cand.json");
    assert!((a.tolerance - 0.10).abs() < 1e-12);
    assert_eq!(cmd.name(), "compare");
    assert_eq!(cmd.seed(), None);
    let cmd = parse(&args("compare --tolerance 0.25 base.json cand.json")).unwrap();
    let Command::Compare(a) = cmd else {
        panic!("expected compare");
    };
    assert!((a.tolerance - 0.25).abs() < 1e-12);
    assert!(parse(&args("compare only-one.json")).is_err());
    assert!(parse(&args("compare a b c")).is_err());
    assert!(parse(&args("compare a b --tolerance -0.5")).is_err());
    assert!(parse(&args("compare a b --warp 9")).is_err());

    // --obs-budget rides along a two-sided compare, and unlocks the
    // single-manifest gate-only form.
    let cmd = parse(&args("compare a.json b.json --obs-budget 10")).unwrap();
    let Command::Compare(a) = cmd else {
        panic!("expected compare");
    };
    assert_eq!(a.obs_budget, Some(10.0));
    let cmd = parse(&args("compare m.json --obs-budget 7.5")).unwrap();
    let Command::Compare(a) = cmd else {
        panic!("expected compare");
    };
    assert_eq!(a.baseline, "m.json");
    assert_eq!(a.candidate, "m.json");
    assert_eq!(a.obs_budget, Some(7.5));
    assert!(parse(&args("compare a b --obs-budget 150")).is_err());
    assert!(parse(&args("compare a b --obs-budget -1")).is_err());
}

#[test]
fn swarm_profile_flag_parses() {
    let Command::Swarm(a) = parse(&args("swarm --profile --seed 3")).unwrap() else {
        panic!("expected swarm");
    };
    assert!(a.profile);
    assert_eq!(a.seed, 3);
    assert!(!SwarmArgs::default().profile);
    let err = parse(&args("swarm --profile out/profile.json")).unwrap_err();
    assert!(err.contains("takes no value"), "{err}");
    assert!(err.contains("profile.json"), "{err}");
}

/// A handcrafted profile report with two stages.
fn sample_report(establish_secs: f64, exchange_secs: f64) -> bt_obs::ProfileReport {
    let latency = bt_obs::LatencySummary {
        count: 10,
        total_secs: establish_secs + exchange_secs,
        p50_ns: Some(1_000_000),
        p95_ns: Some(2_000_000),
        p99_ns: Some(4_000_000),
        max_ns: Some(5_000_000),
    };
    let total = establish_secs + exchange_secs;
    bt_obs::ProfileReport {
        schema_version: bt_obs::PROFILE_SCHEMA_VERSION,
        seed: 7,
        rounds: 10,
        total_secs: total,
        rounds_per_sec: 10.0 / total,
        round_latency: latency.clone(),
        stages: vec![
            bt_obs::StageProfile {
                name: "establish".into(),
                rounds: 10,
                total_secs: establish_secs,
                share: establish_secs / total,
                latency: latency.clone(),
                work: vec![("establish.candidate_comparisons".into(), 1234)],
            },
            bt_obs::StageProfile {
                name: "exchange".into(),
                rounds: 10,
                total_secs: exchange_secs,
                share: exchange_secs / total,
                latency,
                work: vec![("exchange.piece_transfers".into(), 88)],
            },
        ],
        top_peers: vec![
            bt_obs::PeerWork { peer: 3, work: 900 },
            bt_obs::PeerWork { peer: 1, work: 400 },
        ],
    }
}

#[test]
fn run_profile_summarizes_a_report() {
    let dir = run_dir("run-profile-summarizes-a-report");
    let path = std::env::temp_dir().join("btlab-cli-profile-unit.json");
    bt_obs::records::write_doc(&path, &sample_report(1.0, 0.5)).unwrap();
    let mut buf = Vec::new();
    run(
        Command::Profile(ProfileArgs {
            input: path.to_str().unwrap().into(),
            top: 1,
            json: false,
        }),
        &dir,
        &mut buf,
    )
    .unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("hottest stages"), "{text}");
    assert!(text.contains("establish"), "{text}");
    assert!(text.contains("establish.candidate_comparisons"), "{text}");
    assert!(text.contains("top peers"), "{text}");
    // --top 1 keeps only the hottest peer.
    assert!(text.contains('3'), "{text}");
    assert!(
        !text.lines().any(|l| l.trim_start().starts_with("1 ")),
        "{text}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_profile_reports_missing_file() {
    let dir = run_dir("run-profile-reports-missing-file");
    let mut buf = Vec::new();
    let err = run(
        Command::Profile(ProfileArgs {
            input: "/nonexistent/profile.json".into(),
            top: 10,
            json: false,
        }),
        &dir,
        &mut buf,
    )
    .unwrap_err();
    assert!(err.to_string().contains("cannot read profile"), "{err}");
}

#[test]
fn compare_passes_within_tolerance_and_fails_beyond_it() {
    let dir = run_dir("compare-tolerance");
    let (base, cand) = (dir.join("base.json"), dir.join("cand.json"));
    bt_obs::records::write_doc(&base, &sample_manifest(1.0, 60, 2.0)).unwrap();
    // Candidate: exchange 5% slower (within 10%), establish equal.
    bt_obs::records::write_doc(&cand, &sample_manifest(1.05, 60, 2.0)).unwrap();
    let (result, text) = compare(&base, &cand, 0.10, None);
    result.unwrap();
    assert!(text.contains("no regressions beyond tolerance"), "{text}");
    assert!(text.contains("establish"), "{text}");
    assert!(text.contains("rounds_per_sec"), "{text}");

    // Candidate: exchange 2x slower — beyond any sane tolerance.
    bt_obs::records::write_doc(&cand, &sample_manifest(2.0, 60, 2.0)).unwrap();
    let (result, text) = compare(&base, &cand, 0.10, None);
    let err = result.unwrap_err();
    assert_eq!(
        err.exit_code(),
        1,
        "regressions are failures, not data errors"
    );
    assert!(
        err.to_string().contains("regression(s) beyond tolerance"),
        "{err}"
    );
    assert!(err.to_string().contains("exchange"), "{err}");
    assert!(text.contains("REGRESSED"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `btlab compare` on two manifests, returning the verdict and
/// what it printed.
fn compare(
    baseline: &std::path::Path,
    candidate: &std::path::Path,
    tolerance: f64,
    obs_budget: Option<f64>,
) -> (Result<(), CliError>, String) {
    let mut buf = Vec::new();
    let result = run(
        Command::Compare(CompareArgs {
            baseline: baseline.to_str().unwrap().into(),
            candidate: candidate.to_str().unwrap().into(),
            tolerance,
            obs_budget,
            mem_budget: None,
        }),
        &std::env::temp_dir(),
        &mut buf,
    );
    (result, String::from_utf8(buf).unwrap())
}

/// A handcrafted `btlab swarm` run manifest.
fn sample_manifest(exchange_secs: f64, rounds: u64, wall: f64) -> bt_obs::RunManifest {
    let mut manifest = bt_obs::RunManifest::new("swarm", "cafebabe".into(), 7);
    manifest.wall_clock_secs = wall;
    manifest.phase_secs = vec![
        ("round.exchange".into(), exchange_secs),
        ("round.establish".into(), 0.4),
        ("telemetry.flush".into(), 0.01),
    ];
    manifest.counters = vec![("swarm.rounds".into(), rounds)];
    manifest
}

#[test]
fn compare_accepts_bench_manifests() {
    let dir = run_dir("compare-bench");
    let (base, cand) = (dir.join("base.json"), dir.join("cand.json"));
    bt_obs::records::write_doc(&base, &sample_manifest(1.0, 60, 2.0)).unwrap();
    // Same stage cost but halved throughput: rounds/sec regresses.
    bt_obs::records::write_doc(&cand, &sample_manifest(1.0, 60, 4.0)).unwrap();
    let (result, text) = compare(&base, &cand, 0.25, None);
    let err = result.unwrap_err();
    assert!(err.to_string().contains("rounds_per_sec"), "{err}");
    // Non-round phases are not stages and stay out of the table.
    assert!(!text.contains("telemetry.flush"), "{text}");
    assert!(text.contains("exchange"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_rejects_unrecognized_shapes() {
    let dir = run_dir("compare-shapes");
    let (manifest, other) = (dir.join("manifest.json"), dir.join("other.json"));
    bt_obs::records::write_doc(&manifest, &sample_manifest(1.0, 60, 2.0)).unwrap();
    // Compare reads run manifests only: any other document, a
    // profile report included, is a data error pointing at
    // `btlab profile`.
    for doc in [
        serde_json::to_string(&sample_report(1.0, 0.5)).unwrap(),
        "{\"hello\": 1}".to_string(),
    ] {
        std::fs::write(&other, doc).unwrap();
        for (base, cand) in [(&manifest, &other), (&other, &manifest)] {
            let err = compare(base, cand, 0.1, None).0.unwrap_err();
            assert_eq!(err.exit_code(), 2, "malformed inputs are data errors");
            assert!(err.to_string().contains("other.json"), "{err}");
            assert!(err.to_string().contains("`btlab profile`"), "{err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_prints_phase_timer_quantiles_and_pipeline_warnings() {
    let dir = run_dir("report-quantiles");
    // A real telemetry stream (for the Meta header) plus a crafted
    // manifest whose pipeline disagrees with its timers.
    let telemetry = dir.join("telemetry.jsonl");
    let manifest_path = dir.join("manifest.json");
    let swarm_args = SwarmArgs {
        rounds: 60,
        telemetry: Some(1),
        ..small_swarm(3)
    };
    let mut buf = Vec::new();
    run(Command::Swarm(swarm_args), &dir, &mut buf).unwrap();

    let mut manifest = bt_obs::RunManifest::new("swarm", "cafebabe".into(), 3);
    manifest.phase_timers = vec![(
        "round.exchange".into(),
        bt_obs::TimerSnapshot {
            total_secs: 1.5,
            count: 60,
            p50_ns: Some(1_000_000),
            p95_ns: Some(2_000_000),
            p99_ns: Some(3_000_000),
            max_ns: Some(4_000_000),
        },
    )];
    // `exchange` ran but is missing here; `depart` is listed but
    // never recorded a timer.
    manifest.pipeline = vec!["maintain".into(), "depart".into()];
    manifest.disabled_stages = vec!["shake".into()];
    bt_obs::records::write_doc(&manifest_path, &manifest).unwrap();

    let mut report = Vec::new();
    run(
        Command::Report(ReportArgs {
            telemetry: Some(telemetry.to_str().unwrap().into()),
            manifest: Some(manifest_path.to_str().unwrap().into()),
            replications: 5,
            seed: 3,
            ..ReportArgs::default()
        }),
        &dir,
        &mut report,
    )
    .unwrap();
    let text = String::from_utf8(report).unwrap();
    assert!(text.contains("p95_ms"), "{text}");
    assert!(text.contains("2.000"), "{text}");
    assert!(text.contains("pipeline: maintain -> depart"), "{text}");
    assert!(text.contains("disabled stages: shake"), "{text}");
    assert!(text.contains("is not in the manifest pipeline"), "{text}");
    assert!(
        text.contains("no recorded round.depart timer samples"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_swarm_with_profile_writes_artifacts() {
    let dir = run_dir("swarm-profile");
    let profile = dir.join("profile.json");
    let swarm_args = SwarmArgs {
        profile: true,
        ..small_swarm(5)
    };
    let mut buf = Vec::new();
    run(Command::Swarm(swarm_args), &dir, &mut buf).unwrap();
    let report: bt_obs::ProfileReport = bt_obs::records::read_doc(&profile).unwrap();
    assert_eq!(report.rounds, 40);
    assert_eq!(report.seed, 5);
    assert!(report.stage("exchange").is_some());
    let folded = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
    assert!(folded.contains("swarm;exchange"), "{folded}");
    assert!(dir.join("profile.rounds.jsonl").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctor_parses_flags_with_swarm_fallback() {
    let cmd = parse(&args("doctor --seed 9 --rounds 50 --cadence 4 --floor 0.05 --min-population 32 --stall-rounds 6 --inject-fault index-drift@12"))
    .unwrap();
    let Command::Doctor(a) = cmd else {
        panic!("expected doctor, got {cmd:?}");
    };
    assert_eq!(a.swarm.seed, 9, "swarm flags fall through");
    assert_eq!(a.swarm.rounds, 50);
    assert_eq!(a.cadence, 4);
    assert!((a.floor - 0.05).abs() < 1e-12);
    assert_eq!(a.min_population, 32);
    assert_eq!(a.stall_rounds, Some(6));
    assert_eq!(DoctorArgs::default().stall_rounds, None, "opt-in");
    assert_eq!(
        a.inject_fault,
        Some(bt_swarm::FaultSpec {
            round: 12,
            kind: bt_swarm::FaultKind::IndexDrift,
        })
    );

    // Bundles land in the run directory; the flag that moved them
    // is gone.
    for gone in ["--bogus", "--bundle-dir"] {
        let err = parse(&args(&format!("doctor {gone} 1"))).unwrap_err();
        assert!(
            err.contains(&format!("unknown flag {gone} for doctor")),
            "{err}"
        );
    }
}

#[test]
fn repeated_flags_are_rejected_not_last_one_wins() {
    let err = parse(&args(
        "swarm --disable-stage maintain --disable-stage depart",
    ))
    .unwrap_err();
    assert!(
        err.contains("--disable-stage given more than once"),
        "{err}"
    );
    let err = parse(&args("doctor --seed 1 --cadence 2 --seed 3")).unwrap_err();
    assert!(err.contains("--seed given more than once"), "{err}");
    // A comma list stays the way to pass several stages.
    let Command::Swarm(a) = parse(&args("swarm --disable-stage maintain,depart")).unwrap() else {
        panic!("expected swarm");
    };
    assert_eq!(a.disabled_stages, ["maintain", "depart"]);
}

#[test]
fn doctor_rejects_bad_fault_specs() {
    let err = parse(&args("doctor --inject-fault nope")).unwrap_err();
    assert!(err.contains("KIND@ROUND"), "{err}");
    let err = parse(&args("doctor --inject-fault bogus@3")).unwrap_err();
    assert!(err.contains("unknown fault kind"), "{err}");
    let err = parse(&args("doctor --inject-fault index-drift@x")).unwrap_err();
    assert!(err.contains("round must be a number"), "{err}");
}

#[test]
fn trend_parses_and_validates() {
    let cmd = parse(&args("trend")).unwrap();
    let Command::Trend(a) = cmd else {
        panic!("expected trend, got {cmd:?}");
    };
    assert_eq!(a.ledger, None);
    assert_eq!(a.last, 10);
    assert!((a.tolerance - 0.10).abs() < 1e-12);

    let cmd = parse(&args("trend --ledger l.jsonl --last 3 --tolerance 0.2")).unwrap();
    let Command::Trend(a) = cmd else {
        panic!("expected trend, got {cmd:?}");
    };
    assert_eq!(a.ledger.as_deref(), Some("l.jsonl"));
    assert_eq!(a.last, 3);
    assert!((a.tolerance - 0.2).abs() < 1e-12);

    let err = parse(&args("trend --last 0")).unwrap_err();
    assert!(err.contains("--last must be >= 1"), "{err}");
    let err = parse(&args("trend --tolerance -0.5")).unwrap_err();
    assert!(err.contains("--tolerance must be >= 0"), "{err}");
    let err = parse(&args("trend --bogus 1")).unwrap_err();
    assert!(err.contains("unknown flag --bogus for trend"), "{err}");
}

#[test]
fn run_profile_json_emits_parseable_report() {
    let dir = run_dir("run-profile-json-emits-parseable-report");
    let path = std::env::temp_dir().join("btlab-cli-profile-json-unit.json");
    bt_obs::records::write_doc(&path, &sample_report(1.0, 0.5)).unwrap();
    let mut buf = Vec::new();
    run(
        Command::Profile(ProfileArgs {
            input: path.to_str().unwrap().into(),
            top: 10,
            json: true,
        }),
        &dir,
        &mut buf,
    )
    .unwrap();
    let text = String::from_utf8(buf).unwrap();
    let parsed: bt_obs::ProfileReport = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed.schema_version, bt_obs::PROFILE_SCHEMA_VERSION);
    assert_eq!(parsed.seed, 7);
    assert_eq!(parsed.stages.len(), 2);
    assert!(
        !text.contains("hottest stages"),
        "--json must not mix in the human summary: {text}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn report_strict_promotes_warnings_to_failure() {
    let dir = run_dir("report-strict");
    let telemetry = dir.join("telemetry.jsonl");
    let manifest_path = dir.join("manifest.json");
    let swarm_args = SwarmArgs {
        rounds: 60,
        telemetry: Some(1),
        ..small_swarm(3)
    };
    let mut buf = Vec::new();
    run(Command::Swarm(swarm_args), &dir, &mut buf).unwrap();

    // A manifest whose pipeline lists a stage that never ran.
    let mut manifest = bt_obs::RunManifest::new("swarm", "cafebabe".into(), 3);
    manifest.pipeline = vec!["depart".into()];
    bt_obs::records::write_doc(&manifest_path, &manifest).unwrap();

    let report_args = |strict: bool| ReportArgs {
        telemetry: Some(telemetry.to_str().unwrap().into()),
        manifest: Some(manifest_path.to_str().unwrap().into()),
        replications: 5,
        seed: 3,
        strict,
        ..ReportArgs::default()
    };
    // Non-strict: the warning prints but the run succeeds.
    let mut buf = Vec::new();
    run(Command::Report(report_args(false)), &dir, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("warning:"), "{text}");

    let mut buf = Vec::new();
    let err = run(Command::Report(report_args(true)), &dir, &mut buf).unwrap_err();
    assert_eq!(err.exit_code(), 1, "strict warnings are run failures");
    assert!(err.to_string().contains("--strict"), "{err}");
    assert!(
        err.to_string()
            .contains("no recorded round.depart timer samples"),
        "{err}"
    );

    // Strict with nothing to warn about stays green.
    let mut buf = Vec::new();
    run(
        Command::Report(ReportArgs {
            telemetry: Some(telemetry.to_str().unwrap().into()),
            replications: 5,
            seed: 3,
            strict: true,
            ..ReportArgs::default()
        }),
        &dir,
        &mut buf,
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_rejects_schema_version_mismatch() {
    let dir = run_dir("compare-schema");
    let (good, bad) = (dir.join("good.json"), dir.join("bad.json"));
    bt_obs::records::write_doc(&good, &sample_manifest(1.0, 60, 2.0)).unwrap();
    let mut future = sample_manifest(1.0, 60, 2.0);
    future.schema_version = bt_obs::MANIFEST_SCHEMA_VERSION + 1;
    bt_obs::records::write_doc(&bad, &future).unwrap();
    let err = compare(&good, &bad, 0.1, None).0.unwrap_err();
    assert_eq!(err.exit_code(), 2, "schema drift is a data error");
    assert!(err.to_string().contains("schema"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A 40-round closed swarm of 8 peers over 10 pieces.
fn small_swarm(seed: u64) -> SwarmArgs {
    SwarmArgs {
        pieces: 10,
        k: 3,
        s: 6,
        lambda: 0.0,
        initial: 8,
        rounds: 40,
        seed,
        ..SwarmArgs::default()
    }
}

#[test]
fn run_doctor_clean_run_holds_all_invariants() {
    let dir = run_dir("doctor-clean");
    let mut buf = Vec::new();
    run(
        Command::Doctor(DoctorArgs {
            swarm: small_swarm(5),
            cadence: 1,
            ..DoctorArgs::default()
        }),
        &dir,
        &mut buf,
    )
    .unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("doctor: all invariants held"), "{text}");
    assert!(text.contains("violations=0"), "{text}");
    assert!(
        !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
        "clean runs write no bundle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_doctor_seeded_fault_fails_and_writes_bundle() {
    let dir = run_dir("doctor-fault");
    // Bootstrap is disabled so the unaccounted piece stays the only
    // piece in the swarm: no completion ever departs it, keeping the
    // corruption visible without tripping the departure accounting.
    let mut swarm = small_swarm(5);
    swarm.disabled_stages = vec!["bootstrap".into()];
    let mut buf = Vec::new();
    let err = run(
        Command::Doctor(DoctorArgs {
            swarm,
            cadence: 1,
            inject_fault: Some(bt_swarm::FaultSpec {
                round: 5,
                kind: bt_swarm::FaultKind::UnaccountedPiece,
            }),
            ..DoctorArgs::default()
        }),
        &dir,
        &mut buf,
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 1);
    assert!(err.to_string().contains("invariant violation"), "{err}");
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("violation [piece-conservation]"), "{text}");
    assert!(text.contains("diagnosis bundle:"), "{text}");
    let bundle = std::fs::read_dir(&dir)
        .expect("run directory exists")
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("diagnosis-"))
        .expect("one diagnosis bundle");
    assert!(bundle.path().join("meta.json").exists());
    assert!(bundle.path().join("flight.json").exists());
    assert!(bundle.path().join("telemetry.jsonl").exists());
    assert!(bundle.path().join("peers.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

fn ledger_record(seed: u64, rps: f64, violations: u64) -> bt_obs::LedgerRecord {
    bt_obs::LedgerRecord {
        schema_version: bt_obs::LEDGER_SCHEMA_VERSION,
        command: "swarm".into(),
        seed,
        config_hash: "cafebabe42".into(),
        pipeline: vec!["exchange".into()],
        peak_population: 100,
        rounds: 60,
        wall_clock_secs: 60.0 / rps,
        rounds_per_sec: rps,
        stage_p95_ns: vec![("round.exchange".into(), 2_000_000)],
        obs_share: 0.02,
        violations,
        threads: 1,
        peak_rss_bytes: 64 * 1024 * 1024,
    }
}

#[test]
fn run_trend_flags_regressions_and_violations() {
    let dir = run_dir("run-trend-flags-regressions-and-violations");
    let path = std::env::temp_dir().join("btlab-cli-trend-unit.jsonl");
    let _ = std::fs::remove_file(&path);
    for record in [
        ledger_record(1, 100.0, 0),
        ledger_record(2, 102.0, 0),
        ledger_record(3, 50.0, 2),
    ] {
        bt_obs::append_record(&path, &record).unwrap();
    }
    let trend_args = TrendArgs {
        ledger: Some(path.to_str().unwrap().into()),
        ..TrendArgs::default()
    };
    let mut buf = Vec::new();
    run(Command::Trend(trend_args.clone()), &dir, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("3 of 3 record(s)"), "{text}");
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("VIOLATIONS"), "{text}");
    assert!(text.contains("flagged metrics: 2"), "{text}");

    // A healthy latest record reports a quiet trajectory.
    bt_obs::append_record(&path, &ledger_record(4, 101.0, 0)).unwrap();
    let mut buf = Vec::new();
    run(Command::Trend(trend_args.clone()), &dir, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(
        text.contains("no metrics drifted beyond tolerance"),
        "{text}"
    );

    // A config change resets the comparison baseline.
    let mut fresh = ledger_record(5, 10.0, 0);
    fresh.config_hash = "0ddba11".into();
    bt_obs::append_record(&path, &fresh).unwrap();
    let mut buf = Vec::new();
    run(Command::Trend(trend_args), &dir, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("no verdicts"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_trend_rejects_missing_or_empty_ledger() {
    let dir = run_dir("run-trend-rejects-missing-or-empty-ledger");
    let mut buf = Vec::new();
    let err = run(
        Command::Trend(TrendArgs {
            ledger: Some("/nonexistent/ledger.jsonl".into()),
            ..TrendArgs::default()
        }),
        &dir,
        &mut buf,
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 2, "unreadable ledgers are data errors");
    assert!(err.to_string().contains("cannot read ledger"), "{err}");

    let path = std::env::temp_dir().join("btlab-cli-trend-empty-unit.jsonl");
    std::fs::write(&path, "").unwrap();
    let mut buf = Vec::new();
    let err = run(
        Command::Trend(TrendArgs {
            ledger: Some(path.to_str().unwrap().into()),
            ..TrendArgs::default()
        }),
        &dir,
        &mut buf,
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("has no records"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_trend_rotates_an_oversized_ledger() {
    let dir = run_dir("run-trend-rotates-an-oversized-ledger");
    let path = std::env::temp_dir().join("btlab-cli-trend-rotate-unit.jsonl");
    let archive = std::env::temp_dir().join("btlab-cli-trend-rotate-unit.jsonl.1");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&archive);
    for seed in 0..20 {
        bt_obs::append_record(&path, &ledger_record(seed, 100.0, 0)).unwrap();
    }
    let size = std::fs::metadata(&path).unwrap().len();
    let mut buf = Vec::new();
    run(
        Command::Trend(TrendArgs {
            ledger: Some(path.to_str().unwrap().into()),
            max_ledger_bytes: size / 2,
            ..TrendArgs::default()
        }),
        &dir,
        &mut buf,
    )
    .unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("ledger rotated"), "{text}");
    assert!(archive.exists(), "oldest records land in the .1 archive");
    let kept = std::fs::read_to_string(&path).unwrap().lines().count();
    let archived = std::fs::read_to_string(&archive).unwrap().lines().count();
    assert_eq!(kept + archived, 20, "rotation loses no records");
    assert!(kept < 20, "rotation trims the live ledger");

    // A second run under the default generous cap leaves it alone.
    let mut buf = Vec::new();
    run(
        Command::Trend(TrendArgs {
            ledger: Some(path.to_str().unwrap().into()),
            ..TrendArgs::default()
        }),
        &dir,
        &mut buf,
    )
    .unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(!text.contains("ledger rotated"), "{text}");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&archive).ok();
}

#[test]
fn compare_obs_budget_gates_a_manifest() {
    let dir = run_dir("compare-obs");
    let path = dir.join("manifest.json");
    let mut manifest = sample_manifest(1.0, 60, 2.0);
    manifest.obs_wall_secs = 0.08;
    manifest.obs_share = 0.04;
    bt_obs::records::write_doc(&path, &manifest).unwrap();

    let (result, text) = compare(&path, &path, 0.1, Some(5.0));
    result.unwrap();
    assert!(text.contains("observer overhead: 4.00%"), "{text}");
    assert!(text.contains("ok"), "{text}");

    let (result, text) = compare(&path, &path, 0.1, Some(2.5));
    let err = result.unwrap_err();
    assert_eq!(
        err.exit_code(),
        1,
        "over budget is a failure, not a data error"
    );
    assert!(
        err.to_string().contains("exceeds the --obs-budget"),
        "{err}"
    );
    assert!(text.contains("OVER BUDGET"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swarm_cohort_trace_is_json_lines_and_feeds_report() {
    let dir = run_dir("swarm-cohort");
    let trace = dir.join("cohort.jsonl");
    let cmd = parse(&args(
        "swarm --pieces 8 --k 3 --s 6 --lambda 0.2 --initial 12 --rounds 80 --seed 11 --cohort 4",
    ))
    .unwrap();
    let Command::Swarm(ref a) = cmd else {
        panic!("expected swarm");
    };
    assert_eq!(a.cohort, Some(4));
    run(cmd, &dir, &mut Vec::new()).unwrap();
    assert!(trace.exists(), "swarm --cohort writes the trace file");

    let mut buf = Vec::new();
    run(
        Command::Report(ReportArgs {
            cohort: Some(trace.to_str().unwrap().into()),
            ..ReportArgs::default()
        }),
        &dir,
        &mut buf,
    )
    .unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("cohort trace:"), "{text}");
    assert!(text.contains("reservoir=4"), "{text}");
    assert!(text.contains("peers traced:"), "{text}");
    assert!(text.contains("acquires"), "trajectory table header: {text}");
    let written = std::fs::read_to_string(&trace).unwrap();
    assert!(written.ends_with('\n'), "the trace ends on a whole line");
    for line in written.lines() {
        let value: serde_json::Value = serde_json::from_str(line).expect("each trace line is JSON");
        assert!(value.as_object().is_some(), "{line}");
    }

    // Truncating the stream inside its meta line turns report into
    // a data error, mirroring the telemetry hardening.
    let bytes = std::fs::read(&trace).unwrap();
    std::fs::write(&trace, &bytes[..10]).unwrap();
    let mut buf = Vec::new();
    let err = run(
        Command::Report(ReportArgs {
            cohort: Some(trace.to_str().unwrap().into()),
            ..ReportArgs::default()
        }),
        &dir,
        &mut buf,
    )
    .unwrap_err();
    assert_eq!(
        err.exit_code(),
        2,
        "truncated cohort stream is a data error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swarm_cohort_flags_parse_and_validate() {
    let cmd = parse(&args("swarm --cohort")).unwrap();
    let Command::Swarm(a) = cmd else {
        panic!("expected swarm");
    };
    assert_eq!(a.cohort, Some(16), "default reservoir size");
    let err = parse(&args("swarm --cohort 0")).unwrap_err();
    assert!(err.contains("--cohort size must be >= 1"), "{err}");
    let err = parse(&args("swarm --cohort t.cohort")).unwrap_err();
    assert!(err.contains("cohort.jsonl"), "{err}");
    let err = parse(&args("swarm --cohort-size 4")).unwrap_err();
    assert!(err.contains("unknown flag"), "{err}");
}

#[test]
fn swarm_threads_and_reannounce_flags_parse_and_validate() {
    let cmd = parse(&args("swarm --threads 8 --reannounce 4")).unwrap();
    let Command::Swarm(a) = cmd else {
        panic!("expected swarm");
    };
    assert_eq!(a.threads, 8);
    assert_eq!(a.reannounce, 4);
    let defaults = parse(&args("swarm")).unwrap();
    let Command::Swarm(d) = defaults else {
        panic!("expected swarm");
    };
    assert_eq!(d.threads, 1, "serial by default");
    assert_eq!(d.reannounce, 1, "re-announce every round by default");
    let err = parse(&args("swarm --threads 0")).unwrap_err();
    assert!(err.contains("--threads must be >= 1"), "{err}");
    let err = parse(&args("swarm --reannounce 0")).unwrap_err();
    assert!(err.contains("--reannounce must be >= 1"), "{err}");
}

#[test]
fn compare_refuses_mismatched_thread_counts() {
    let dir = run_dir("compare-threads");
    let (base, cand) = (dir.join("base.json"), dir.join("cand.json"));
    let mut baseline = sample_manifest(1.0, 60, 2.0);
    baseline.threads = 1;
    bt_obs::records::write_doc(&base, &baseline).unwrap();
    let mut candidate = sample_manifest(1.0, 60, 2.0);
    candidate.threads = 8;
    bt_obs::records::write_doc(&cand, &candidate).unwrap();
    let err = compare(&base, &cand, 0.25, None).0.unwrap_err();
    assert_eq!(err.exit_code(), 2, "thread mismatch is a usage error");
    assert!(err.to_string().contains("thread-count mismatch"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
