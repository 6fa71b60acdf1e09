//! `btlab` — command-line laboratory for the multiphase-bt workspace.
//!
//! See `btlab help` for usage. Results print to stdout; diagnostics go
//! to stderr under the `--log` / `--log-filter` global flags. The run
//! directory is `$BT_MANIFEST_DIR`, default `results/`: every run except
//! `help` and `watch` writes a JSON manifest (config hash, seed, counter
//! totals, per-phase wall clock) there as `manifest-<command>.json`, and
//! `swarm` and `doctor` write every artifact there under a fixed name.
//! `swarm` and `doctor` runs also append one compact record to the
//! cross-run ledger (`$BT_LEDGER_PATH`, default `ledger.jsonl` in the
//! run directory) — including failing doctor runs, so regressions are
//! on the record. Exit codes: 0 success, 1 run failure, 2 usage or data
//! error.

use std::path::PathBuf;

use multiphase_bt::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (log_options, rest) = match cli::extract_log_options(&args) {
        Ok(pair) => pair,
        Err(msg) => usage_error(&msg),
    };
    if let Err(msg) = log_options.install() {
        usage_error(&msg);
    }
    let command = match cli::parse(&rest) {
        Ok(cmd) => cmd,
        Err(msg) => usage_error(&msg),
    };

    let mut manifest = bt_obs::RunManifest::new(
        command.name(),
        command.config_hash(),
        command.seed().unwrap_or(0),
    );
    if let Some(a) = command.swarm_args() {
        manifest.pipeline = cli::swarm_pipeline_names(a);
        manifest.disabled_stages = a.disabled_stages.clone();
        manifest.threads = a.threads;
    }
    // `watch` is a read-only follower of someone else's run directory;
    // writing a manifest for it would pollute the results it observes.
    let wants_manifest = !matches!(command, cli::Command::Help | cli::Command::Watch(_));
    // The ledger tracks simulation runs; one record per swarm or
    // doctor invocation, appended even when the run fails so a
    // violation shows up in `btlab trend`.
    let wants_ledger = command.swarm_args().is_some();
    let run_dir =
        PathBuf::from(std::env::var_os("BT_MANIFEST_DIR").unwrap_or_else(|| "results".into()));
    let start = std::time::Instant::now();

    let mut stdout = std::io::stdout().lock();
    let result = cli::run(command, &run_dir, &mut stdout);
    drop(stdout);
    if let Err(e) = &result {
        eprintln!("error: {e}");
    }

    if wants_manifest {
        let registry = bt_obs::Registry::global();
        manifest.finish(&registry, start.elapsed());
        manifest.peak_population = registry.counter("swarm.peak_population").get();
        let path = run_dir.join(format!("manifest-{}.json", manifest.command));
        match bt_obs::records::write_doc(&path, &manifest) {
            Ok(()) => {
                tracing::info!(target: "btlab", path = path.display().to_string(); "run manifest written");
            }
            Err(e) => {
                tracing::warn!(target: "btlab", path = path.display().to_string(), error = e.to_string(); "failed to write run manifest");
            }
        }
        if wants_ledger {
            let violations = manifest.counter("doctor.violations").unwrap_or(0);
            let record = bt_obs::LedgerRecord::from_manifest(&manifest, violations);
            let ledger = bt_obs::ledger_path(&run_dir);
            match bt_obs::append_record(&ledger, &record) {
                Ok(()) => {
                    tracing::info!(target: "btlab", path = ledger.display().to_string(); "ledger record appended");
                }
                Err(e) => {
                    tracing::warn!(target: "btlab", path = ledger.display().to_string(), error = e.to_string(); "failed to append ledger record");
                }
            }
        }
    }

    if let Err(e) = result {
        std::process::exit(e.exit_code());
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{}", cli::USAGE);
    std::process::exit(2);
}
