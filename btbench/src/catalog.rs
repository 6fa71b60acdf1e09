//! The metric catalog: every metric the benchmark reports, with its
//! unit and direction. `BENCHMARK.json` at the repository root declares
//! the same names, units, directions and bounds; a unit test keeps the
//! two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: f64,
    /// End-to-end metrics only: an absolute allowance, in the metric's
    /// unit, under which a worsening never counts. It keeps a few
    /// milliseconds of set-up noise from failing a comparison.
    pub floor: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        floor,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 5] = [
    "lifecycle-5k",
    "join-20k",
    "churn-3k",
    "paper-figures",
    "model-exact",
];

/// Metrics of an untraced run (`--trace 0`). Every workload reports
/// every one of them, and none of them can be 0.
pub const END_TO_END: [Metric; 3] = [
    e2e("run_s", "s", Lower, 0.25, 0.0),
    e2e("setup_s", "s", Lower, 0.25, 0.02),
    e2e("peak_rss_mib", "MiB", Lower, 0.10, 0.0),
];

/// Metrics of a traced run (`--trace 1`). Every workload reports every
/// one of them; a layer the workload never enters reads 0.
pub const PER_LAYER: [Metric; 54] = [
    // bt-swarm::engine — the round loop as a whole.
    layer("engine.rounds", "count", Higher),
    layer("engine.round_ms.p50", "ms", Lower),
    layer("engine.round_ms.tail", "ms", Lower),
    layer("engine.round_ms.max", "ms", Lower),
    layer("engine.other_s", "s", Lower),
    layer("engine.peer_rounds_per_s", "1/s", Higher),
    // bt-swarm::stages — registry `round.*` timers and profiler work.
    layer("stage.maintain.s", "s", Lower),
    layer("stage.bootstrap.s", "s", Lower),
    layer("stage.prune.s", "s", Lower),
    layer("stage.establish.s", "s", Lower),
    layer("stage.exchange.s", "s", Lower),
    layer("stage.depart.s", "s", Lower),
    layer("stage.sample.s", "s", Lower),
    layer("stage.maintain.share", "ratio", Lower),
    layer("stage.exchange.share", "ratio", Lower),
    layer("stage.establish.share", "ratio", Lower),
    layer("work.maintain.handout_entries", "count", Lower),
    layer("work.establish.candidate_comparisons", "count", Lower),
    layer("work.exchange.bitfield_words", "count", Lower),
    layer("work.exchange.piece_transfers", "count", Higher),
    layer("work.store.slab_probes", "count", Lower),
    layer("work.sample.peers_sampled", "count", Lower),
    layer("stage.maintain.ns_per_handout_entry", "ns", Lower),
    layer("stage.exchange.ns_per_transfer", "ns", Lower),
    layer("stage.establish.ns_per_comparison", "ns", Lower),
    layer("establish.success_ratio", "ratio", Higher),
    // bt-swarm::tracker — a benchmark-owned tracker at the workload's
    // peak population.
    layer("tracker.register_us.p50", "us", Lower),
    layer("tracker.register_us.tail", "us", Lower),
    layer("tracker.deregister_us.p50", "us", Lower),
    layer("tracker.deregister_us.tail", "us", Lower),
    layer("tracker.handout_us.p50", "us", Lower),
    layer("tracker.handout_us.tail", "us", Lower),
    // bt-obs — observers attached to the swarm.
    layer("obs.telemetry_s", "s", Lower),
    layer("obs.doctor_s", "s", Lower),
    layer("obs.heartbeat_s", "s", Lower),
    layer("obs.flush_s", "s", Lower),
    layer("obs.share", "ratio", Lower),
    // bt-model — the exact analyses of the download chain.
    layer("model.kernel_build_s", "s", Lower),
    layer("model.expected_download_time_s", "s", Lower),
    layer("model.phase_sojourns_s", "s", Lower),
    layer("model.last_phase_probability_s", "s", Lower),
    layer("model.transient_occupancy_s", "s", Lower),
    // bt-markov — the absorbing-chain solves behind them.
    layer("markov.chain_new_s", "s", Lower),
    layer("markov.fundamental_s", "s", Lower),
    layer("markov.expected_steps_s", "s", Lower),
    layer("markov.states_max", "count", Lower),
    // bt-bench — one paper figure each.
    layer("fig.fig1a_s", "s", Lower),
    layer("fig.fig1b_s", "s", Lower),
    layer("fig.fig2_s", "s", Lower),
    layer("fig.fig4a_s", "s", Lower),
    layer("fig.fig4bc_s", "s", Lower),
    layer("fig.fig4d_s", "s", Lower),
    // The whole run.
    layer("mem.rss_after_setup_mib", "MiB", Lower),
    layer("trace.overhead", "ratio", Lower),
];

/// The catalog entry of a metric, searching both lists.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and has at most 64 characters from `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        assert!(valid_name("stage.maintain.s"));
        assert!(valid_name("churn-3k"));
        assert!(valid_name("9lives_x.y-z"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("-dash"));
        assert!(!valid_name("space name"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("percent%"));
        assert!(!valid_name(&"x".repeat(65)));
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS)
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn end_to_end_bounds_are_within_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        let setup = find("setup_s").expect("setup_s is declared");
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` and this catalog declare the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let json: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = json.get(key).and_then(Value::as_array).expect("array");
            assert_eq!(entries.len(), catalog.len(), "{key}");
            for (entry, metric) in entries.iter().zip(catalog) {
                let field = |f: &str| entry.get(f).and_then(Value::as_str).unwrap_or("");
                assert_eq!(field("name"), metric.name);
                assert_eq!(field("unit"), metric.unit, "{}", metric.name);
                assert_eq!(field("better"), metric.better.as_str(), "{}", metric.name);
                if key == "end_to_end" {
                    let bound = entry.get("bound").and_then(Value::as_f64);
                    assert_eq!(bound, Some(metric.bound), "{}", metric.name);
                }
            }
        }
    }
}
