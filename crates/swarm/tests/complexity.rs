//! Complexity ratchet: every stage's deterministic work counters must
//! grow at most linearly with the population, the stages that read
//! every neighbor's bitfield must not pay a slab lookup per neighbor,
//! and the exchange plan must draw about one rank per piece moved.
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
    profiled(config)
}

/// `(stage, counter) -> total` over a profiled run of `config`.
fn profiled(config: bt_swarm::SwarmConfig) -> Vec<((String, String), u64)> {
    let rounds = config.max_rounds;
    let mut swarm = Swarm::new(config);
    swarm.attach_profiler(bt_obs::ProfileOptions {
        seed: SEED,
        ..bt_obs::ProfileOptions::default()
    });
    let (_, profile, _) = swarm.run_diagnosed();
    let report = profile.report().expect("profiler was attached");
    assert_eq!(report.rounds, rounds, "profiler saw every round");
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

/// The total of `counter` in `stage`, zero when the stage reported none.
fn counter(work: &[((String, String), u64)], stage: &str, counter: &str) -> u64 {
    work.iter()
        .find(|((s, c), _)| s == stage && c == counter)
        .map_or(0, |&(_, total)| total)
}

/// Slab lookups per unit of a stage's work, at neighbor-set size `s`
/// on a fixed population.
fn probes_per_unit(s: u32, stage: &str, unit: &str) -> f64 {
    let mut config = scenario::scale_probe(SMALL, 4, SEED).expect("valid config");
    config.neighbor_set_size = s;
    let work = profiled(config);
    let units = counter(&work, stage, unit);
    assert!(units > 0, "{stage} reported no {unit} at s = {s}");
    counter(&work, stage, "store.slab_probes") as f64 / units as f64
}

/// The potential set (sample) and the tradability test (prune) read
/// every neighbor's bitfield. Both read rows of the store's possession
/// table, so their slab lookups per sampled peer or checked pair stay
/// flat as the neighbor set grows fourfold; a potential set that
/// resolves each neighbor's slot again grows with `s` (from 12.8 to
/// 42.7 lookups per sampled peer). Prune's lookups per pair stay flat
/// either way, so its ratchet is absolute: a pair that survives costs
/// no lookup, so the stage stays below the two a pair would cost if it
/// resolved both of its ends (2.6 when it did).
#[test]
fn neighbor_bitfield_reads_cost_no_slab_lookups() {
    for (stage, unit) in [
        ("sample", "sample.peers_sampled"),
        ("prune", "prune.pairs_checked"),
    ] {
        let narrow = probes_per_unit(10, stage, unit);
        let wide = probes_per_unit(40, stage, unit);
        assert!(
            wide <= narrow * 1.1,
            "{stage}: slab lookups per {unit} grew from {narrow:.2} at s = 10 to {wide:.2} at s = 40"
        );
        if stage == "prune" {
            assert!(
                wide < 2.0,
                "prune: {wide:.2} slab lookups per checked pair; a surviving pair should cost none"
            );
        }
    }
}

/// The exchange plan draws only the ranks its commit can reach: a
/// direction's list ends at its first piece that no earlier pair of the
/// downloader can resolve, so ranks drawn stay close to the pieces the
/// commit moves (1.03 a transfer on this probe). Drawing every
/// direction's full `earlier + 1` ranks reads 3.79.
#[test]
fn exchange_draws_about_one_rank_per_transfer() {
    let work = work_counters(SMALL);
    let ranks = counter(&work, "exchange", "exchange.rank_candidates");
    let transfers = counter(&work, "exchange", "exchange.piece_transfers");
    assert!(transfers > 0, "the probe moved no pieces");
    let per_transfer = ranks as f64 / transfers as f64;
    assert!(
        per_transfer <= 2.0,
        "exchange drew {ranks} ranks for {transfers} piece transfers ({per_transfer:.2} a transfer)"
    );
}
