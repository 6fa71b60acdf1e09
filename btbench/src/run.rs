//! One invocation of one workload: the measurement window, the
//! recorder the workloads report into, and the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::stats::{median, tail};
use crate::trace::{SpanId, Trace};

/// Set-up is timed at least this many times, and for at least this
/// long in total, per run: a median of many samples keeps millisecond
/// set-ups steady.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_SECS: f64 = 0.25;

/// Every run repeats its unit at least twice, so that even a unit longer
/// than the window has a second sample of each step.
const MIN_UNITS: usize = 2;

const MIB: f64 = 1024.0 * 1024.0;

/// A workload drives the library through its public API in units of
/// work. Every unit of a run is built from the run's seed, so that the
/// units repeat the same work and their steps can be compared.
pub trait Workload {
    /// Builds one unit's inputs, timed as set-up, and drops them. Runs
    /// after the measurement window until set-up has enough samples.
    fn setup(&mut self, rec: &mut Recorder, seed: u64);
    /// One unit: set-up (when the unit builds its own inputs), the timed
    /// steps, and the output checks, which stay outside the timing.
    fn unit(&mut self, rec: &mut Recorder, seed: u64);
    /// Traced runs only: measurements of single layers made after the
    /// window, outside any unit.
    fn probe(&mut self, _rec: &mut Recorder, _seed: u64) {}
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Everything one invocation measures.
pub struct Recorder {
    pub trace: Trace,
    pub out_dir: PathBuf,
    traced: bool,
    unit_span: SpanId,
    setup_s: Vec<f64>,
    /// The fastest time seen for each step of a unit, untraced and traced.
    steps: [BTreeMap<String, f64>; 2],
    /// Per-layer values, one per traced unit (or one per probe).
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// Wall time of every traced round.
    round_ms: Vec<f64>,
    rss_after_setup_mib: Option<f64>,
    attempted: u64,
    failed: u64,
}

impl Recorder {
    pub fn new(out_dir: PathBuf) -> Recorder {
        Recorder {
            trace: Trace::new(),
            out_dir,
            traced: false,
            unit_span: None,
            setup_s: Vec::new(),
            steps: [BTreeMap::new(), BTreeMap::new()],
            layers: BTreeMap::new(),
            round_ms: Vec::new(),
            rss_after_setup_mib: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether the current unit collects per-layer numbers and spans.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// The span of the current unit, parent of the workload's spans.
    pub fn unit_span(&self) -> SpanId {
        self.unit_span
    }

    pub fn setup_done(&mut self, secs: f64) {
        self.setup_s.push(secs);
        if self.rss_after_setup_mib.is_none() {
            self.rss_after_setup_mib = Some(bt_obs::mem::sample_memory().rss_bytes as f64 / MIB);
        }
    }

    /// One timed step of the current unit (a round, a figure, a solve)
    /// took `secs`. Steps are keyed so that repeats of a unit line up.
    pub fn step(&mut self, key: impl Into<String>, secs: f64) {
        let fastest = self.steps[usize::from(self.traced)]
            .entry(key.into())
            .or_insert(f64::INFINITY);
        *fastest = fastest.min(secs);
    }

    /// The time of one unit: the sum over its steps of each step's
    /// fastest repeat. Interference from other work on the machine only
    /// ever adds time, and it comes in phases of seconds, so the fastest
    /// repeat of a step is the steadiest estimate of its cost.
    fn unit_s(&self, traced: bool) -> f64 {
        self.steps[usize::from(traced)].values().sum()
    }

    /// Records a per-layer value of the current traced unit.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not declared"
        );
        if self.traced {
            self.layers.entry(name).or_default().push(value);
        }
    }

    pub fn round_ms(&mut self, ms: f64) {
        if self.traced {
            self.round_ms.push(ms);
        }
    }

    /// Counts one output check; a failed one is reported on stderr.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {name}: {detail}");
        }
    }

    /// A per-layer value, or 0 when the workload never recorded it.
    fn layer_value(&self, name: &str) -> f64 {
        let rounds = &self.round_ms;
        match name {
            "engine.rounds" => rounds.len() as f64,
            "engine.round_ms.p50" => median(rounds),
            "engine.round_ms.tail" => tail(rounds).map_or(0.0, |(_, v)| v),
            "engine.round_ms.max" => rounds.iter().copied().fold(0.0, f64::max),
            "mem.rss_after_setup_mib" => self.rss_after_setup_mib.unwrap_or(0.0),
            "trace.overhead" => self.unit_s(true) / self.unit_s(false) - 1.0,
            _ => self.layers.get(name).map_or(0.0, |v| median(v)),
        }
    }
}

/// The settings of one invocation.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of one invocation, printed as its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let entry = vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Object(entry))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a result line always serializes")
    }
}

/// Runs units of `workload` back to back until `seconds` have passed
/// and at least two units have run, then tops up the set-up samples. A traced run
/// runs each unit twice, untraced and traced, in alternating order,
/// which gives `trace.overhead` on identical work; then it runs the
/// probes. Peak memory is read after the first unit, before repeated
/// units can fragment the heap.
pub fn measure(
    workload: &mut dyn Workload,
    name: &str,
    settings: &Settings,
    rec: &mut Recorder,
) -> Outcome {
    let started = Instant::now();
    let window = Duration::from_secs_f64(settings.seconds);
    let mut units = 0;
    let mut peak_rss_mib = None;
    loop {
        let modes: &[bool] = match (settings.trace, units % 4) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in modes {
            rec.traced = traced;
            rec.trace.set_recording(traced);
            rec.unit_span = rec.trace.open(None, format!("{name} unit {units}"));
            workload.unit(rec, settings.seed);
            rec.trace.close(rec.unit_span);
            units += 1;
            peak_rss_mib
                .get_or_insert_with(|| bt_obs::mem::sample_memory().peak_rss_bytes as f64 / MIB);
        }
        if started.elapsed() >= window && units >= MIN_UNITS {
            break;
        }
    }
    rec.unit_span = None;
    rec.trace.set_recording(false);
    while rec.setup_s.len() < MIN_SETUPS || rec.setup_s.iter().sum::<f64>() < MIN_SETUP_SECS {
        workload.setup(rec, settings.seed);
    }
    if settings.trace {
        rec.traced = true;
        workload.probe(rec, settings.seed);
    }
    eprintln!(
        "{name}: seed {} ran {units} units in {:.1}s ({} checks, {} failed)",
        settings.seed,
        started.elapsed().as_secs_f64(),
        rec.attempted,
        rec.failed
    );

    let metrics = if settings.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, rec.layer_value(m.name), m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "run_s" => rec.unit_s(false),
                    "setup_s" => median(&rec.setup_s),
                    "peak_rss_mib" => peak_rss_mib.unwrap_or(0.0),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (m.name, value, m.unit)
            })
            .collect()
    };
    Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
    }
}
