//! Round-throughput benchmark for the swarm engine at scale.
//!
//! Drives a 5 000-peer, 200-piece swarm (paper-flavoured `k = 7`,
//! `s = 40`) for a fixed number of rounds and reports sustained
//! round-throughput. The numbers land in `BENCH_swarm.json` via the
//! run-manifest machinery: `wall_clock_secs` plus the `swarm.rounds`
//! counter give rounds/sec, and the `round.*` phase timers break the
//! cost down per pipeline stage. The manifest also records the
//! observer wall-time share (`obs_share`, derived from the `obs.*`
//! timers), which `btlab compare --obs-budget` gates in CI.
//!
//! Flags (order-free):
//!
//! * `--smoke` — CI-sized run (500 peers, 30 rounds) that exists to
//!   prove the binary and the manifest path work, not to measure;
//! * `--peers N` / `--rounds N` / `--seed N` — override the defaults;
//! * `--profile FILE` — attach the deterministic cost-attribution
//!   profiler and write its artifacts (summary, folded stacks,
//!   per-round series) next to FILE;
//! * `--observed` — run with the full observability stack attached:
//!   per-round telemetry streamed to `bench_telemetry.jsonl` and a
//!   reservoir-sampled peer cohort traced to `bench_cohort.cohort`
//!   in the output directory, so the recorded `obs_share` reflects a
//!   realistically instrumented run;
//! * `--cohort-size N` — reservoir size for `--observed` (default 16);
//! * `--threads N` — worker threads for the parallel plan phases;
//!   recorded in the manifest so `btlab compare` refuses cross-thread
//!   diffs and `btlab trend` charts rounds/sec per thread count.
//!   Output bytes are identical at any value; only wall time changes;
//! * `--heartbeat` — emit wall-clock-cadenced progress records to
//!   `DIR/run.heartbeat.jsonl` plus an atomically-replaced
//!   `DIR/run.status.json`, the artifacts `btlab watch` tails;
//! * `--heartbeat-secs S` — heartbeat cadence (default 1.0);
//! * `--out DIR` — where the manifest and observability artifacts
//!   land, overriding `$BT_MANIFEST_DIR` (default `results/`).
//!
//! The manifest is written to `DIR/BENCH_swarm.json`. With the
//! `alloc-profile` feature a counting global allocator is installed and
//! `--profile` reports gain a per-stage `mem.alloc_bytes` work counter.

use std::path::PathBuf;
use std::time::Instant; // bt-lint: allow(det-wall-clock) — bench measures wall time by design

use bt_obs::{fnv1a_hex, RunManifest};
use bt_swarm::Swarm;

/// A [`std::alloc::GlobalAlloc`] wrapper that forwards to the system
/// allocator and mirrors every call into the process-global counters in
/// [`bt_obs::mem`]. Lives here (not in bt-obs, which forbids unsafe
/// code) because the wrapper itself is irreducibly `unsafe impl`; the
/// counters it feeds are plain safe atomics.
#[cfg(feature = "alloc-profile")]
struct CountingAlloc;

#[cfg(feature = "alloc-profile")]
// SAFETY: every method forwards verbatim to `std::alloc::System`, which
// upholds the GlobalAlloc contract; the added counter calls touch only
// relaxed atomics and never allocate.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        bt_obs::mem::record_alloc(layout.size());
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        bt_obs::mem::record_dealloc(layout.size());
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        bt_obs::mem::record_dealloc(layout.size());
        bt_obs::mem::record_alloc(new_size);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(feature = "alloc-profile")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Benchmark knobs parsed from the command line.
struct Options {
    peers: u32,
    rounds: u64,
    seed: u64,
    profile: Option<PathBuf>,
    observed: bool,
    cohort_size: u32,
    threads: u32,
    heartbeat: bool,
    heartbeat_secs: f64,
    out: Option<PathBuf>,
}

fn parse_args() -> Options {
    let mut options = Options {
        peers: 5_000,
        rounds: 60,
        seed: 7,
        profile: None,
        observed: false,
        cohort_size: 16,
        threads: 1,
        heartbeat: false,
        heartbeat_secs: 1.0,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} requires a numeric argument"))
        };
        match arg.as_str() {
            "--smoke" => {
                options.peers = 500;
                options.rounds = 30;
            }
            "--peers" => options.peers = numeric("--peers") as u32,
            "--rounds" => options.rounds = numeric("--rounds"),
            "--seed" => options.seed = numeric("--seed"),
            "--observed" => options.observed = true,
            "--cohort-size" => {
                let size = numeric("--cohort-size") as u32;
                assert!(size >= 1, "--cohort-size must be >= 1");
                options.cohort_size = size;
            }
            "--threads" => {
                let threads = numeric("--threads") as u32;
                assert!(threads >= 1, "--threads must be >= 1");
                options.threads = threads;
            }
            "--heartbeat" => options.heartbeat = true,
            "--heartbeat-secs" => {
                let secs: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--heartbeat-secs requires a numeric argument"));
                assert!(secs >= 0.0, "--heartbeat-secs must be >= 0");
                options.heartbeat_secs = secs;
            }
            "--profile" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| panic!("--profile requires a path argument"));
                options.profile = Some(PathBuf::from(path));
            }
            "--out" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| panic!("--out requires a directory argument"));
                options.out = Some(PathBuf::from(path));
            }
            other => panic!(
                "unknown flag {other}; try --smoke / --peers / --rounds / --seed \
                 / --profile / --observed / --cohort-size / --threads / --heartbeat \
                 / --heartbeat-secs / --out"
            ),
        }
    }
    options
}

fn main() {
    bt_bench::init_obs();
    let options = parse_args();
    let config = bt_swarm::scenario::scale_probe(options.peers, options.rounds, options.seed)
        .expect("valid benchmark config");

    let out_dir = options
        .out
        .clone()
        .or_else(|| std::env::var_os("BT_MANIFEST_DIR").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let registry = bt_obs::Registry::new();
    let config_hash = fnv1a_hex(
        serde_json::to_string(&config)
            .expect("config serializes")
            .as_bytes(),
    );
    let mut manifest = RunManifest::new("swarm_scale", config_hash, options.seed);

    let mut swarm = Swarm::with_registry(config, registry.clone());
    swarm.set_threads(options.threads);
    manifest.threads = options.threads;
    manifest.pipeline = swarm.stage_names().iter().map(|s| s.to_string()).collect();
    if options.profile.is_some() {
        swarm.attach_profiler(bt_obs::ProfileOptions {
            seed: options.seed,
            ..bt_obs::ProfileOptions::default()
        });
    }
    let telemetry_path = out_dir.join("bench_telemetry.jsonl");
    let cohort_path = out_dir.join("bench_cohort.cohort");
    if options.observed {
        let file = std::fs::File::create(&telemetry_path).expect("create telemetry stream");
        let recorder = bt_swarm::TelemetryRecorder::new(bt_swarm::TelemetryOptions::default())
            .to_writer(Box::new(std::io::BufWriter::new(file)));
        swarm.attach_telemetry(recorder);
        let file = std::fs::File::create(&cohort_path).expect("create cohort stream");
        swarm.attach_cohort(
            options.cohort_size,
            Box::new(std::io::BufWriter::new(file)),
        );
    }
    if options.heartbeat {
        let emitter = bt_obs::HeartbeatEmitter::new(
            bt_obs::HeartbeatOptions {
                dir: out_dir.clone(),
                interval: std::time::Duration::from_secs_f64(options.heartbeat_secs),
                command: "swarm_scale".to_string(),
                seed: options.seed,
                target_rounds: options.rounds,
            },
            registry.clone(),
        )
        .expect("create heartbeat artifacts");
        swarm.attach_heartbeat(emitter);
        println!("heartbeat: {}", out_dir.join(bt_obs::RUN_STATUS_FILE).display());
    }
    let started = Instant::now(); // bt-lint: allow(det-wall-clock) — timing is the measurement
    for _ in 0..options.rounds {
        swarm.step_round();
    }
    // Observer flushes happen inside the timed window: they are part of
    // the overhead the obs-budget gate exists to measure.
    if options.observed {
        let _ = swarm.take_telemetry();
        let _ = swarm.take_cohort();
    }
    if options.heartbeat {
        let _ = swarm.take_heartbeat();
    }
    let elapsed = started.elapsed();
    manifest.finish(&registry, elapsed);
    if let Some(path) = &options.profile {
        let profile = swarm.take_profile();
        profile.write_artifacts(path).expect("write profile");
        println!("profile: {}", path.display());
    }
    if options.observed {
        println!("telemetry: {}", telemetry_path.display());
        println!("cohort: {}", cohort_path.display());
    }

    let rounds_per_sec = options.rounds as f64 / elapsed.as_secs_f64().max(1e-9);
    manifest.peak_population = registry.counter("swarm.peak_population").get();
    let out_path = out_dir.join("BENCH_swarm.json");
    bt_obs::records::write_doc(&out_path, &manifest).expect("write BENCH_swarm.json");

    // One compact record per bench run lands in the cross-run ledger so
    // `btlab trend` can plot throughput across bench history.
    let ledger_path = bt_obs::default_ledger_path();
    let record = bt_obs::LedgerRecord::from_manifest(&manifest, 0);
    match bt_obs::append_record(&ledger_path, &record) {
        Ok(()) => println!("ledger: {}", ledger_path.display()),
        Err(e) => eprintln!(
            "warning: cannot append ledger {}: {e}",
            ledger_path.display()
        ),
    }

    println!(
        "swarm_scale: peers={} rounds={} threads={} elapsed={:.3}s throughput={:.2} rounds/sec",
        options.peers,
        options.rounds,
        options.threads,
        elapsed.as_secs_f64(),
        rounds_per_sec
    );
    println!(
        "observer overhead: {:.2}% of wall time ({:.3}s in obs.* timers)",
        manifest.obs_share * 100.0,
        manifest.obs_wall_secs
    );
    println!(
        "memory: rss={:.1} MiB peak={:.1} MiB",
        manifest.rss_bytes as f64 / (1024.0 * 1024.0),
        manifest.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
    if bt_obs::mem::alloc_counting_active() {
        println!(
            "allocations: {} calls, {:.1} MiB total ({:.1} MiB live)",
            bt_obs::mem::allocation_calls(),
            bt_obs::mem::allocated_bytes_total() as f64 / (1024.0 * 1024.0),
            bt_obs::mem::live_alloc_bytes() as f64 / (1024.0 * 1024.0)
        );
    }
    println!("manifest: {}", out_path.display());
    for (name, secs) in &manifest.phase_secs {
        println!("  {name}: {secs:.3}s");
    }
}
