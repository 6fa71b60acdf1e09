//! Complexity ratchet: every stage's deterministic work counters must
//! grow at most linearly with the population.
//!
//! The scale preset runs for two rounds at 1 000 and 4 000 peers with
//! the profiler attached. Quadrupling the swarm may at most quadruple
//! each non-zero counter, plus 10% slack for the random draws that differ
//! between the two swarms. No clock is read, so the test is as stable on
//! a loaded CI runner as on a workstation. A stage that reintroduces a
//! scan of the whole population per peer — the tracker copying every
//! alive peer for each handout, say — grows its counter ~16× and fails.

use bt_swarm::{scenario, Swarm};

const SMALL: u32 = 1_000;
const LARGE: u32 = 4_000;
const ROUNDS: u64 = 2;
const SEED: u64 = 11;
/// Linear growth for a 4× population, plus 10%.
const BOUND: f64 = 4.0 * 1.1;

/// `(stage, counter) -> total` over a profiled scale-probe run.
fn work_counters(peers: u32) -> Vec<((String, String), u64)> {
    let config = scenario::scale_probe(peers, ROUNDS, SEED).expect("valid config");
    let mut swarm = Swarm::new(config);
    swarm.attach_profiler(bt_obs::ProfileOptions {
        seed: SEED,
        ..bt_obs::ProfileOptions::default()
    });
    let (_, profile, _) = swarm.run_diagnosed();
    let report = profile.report().expect("profiler was attached");
    assert_eq!(report.rounds, ROUNDS, "profiler saw every round");
    report
        .stages
        .iter()
        .flat_map(|stage| {
            stage
                .work
                .iter()
                .map(|(counter, total)| ((stage.name.clone(), counter.clone()), *total))
        })
        .collect()
}

#[test]
fn work_counters_grow_at_most_linearly() {
    let small = work_counters(SMALL);
    let large = work_counters(LARGE);
    let mut checked = 0;
    let mut superlinear = Vec::new();
    for (key, big) in &large {
        if *big == 0 {
            continue;
        }
        let base = small
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, total)| total);
        let ratio = *big as f64 / base as f64;
        checked += 1;
        if ratio > BOUND {
            superlinear.push(format!(
                "{}/{}: {base} -> {big} ({ratio:.2}x)",
                key.0, key.1
            ));
        }
    }
    assert!(
        large
            .iter()
            .any(|((_, counter), total)| counter == "maintain.tracker_probes" && *total > 0),
        "the maintain stage reports tracker probes"
    );
    assert!(
        large
            .iter()
            .any(|((_, counter), total)| counter == "exchange.rank_candidates" && *total > 0),
        "the exchange stage reports ranked candidates"
    );
    assert!(checked > 0, "the profiler reported work counters");
    assert!(
        superlinear.is_empty(),
        "work counters grew faster than {BOUND}x for a {}x population:\n{}",
        LARGE / SMALL,
        superlinear.join("\n")
    );
}
