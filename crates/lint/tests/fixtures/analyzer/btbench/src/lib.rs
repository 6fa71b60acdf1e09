//! Analyzer fixture: a caller-only tree (the benchmark harness). It is
//! read only for the references it makes into the library, so the rule
//! bait below (an unordered map, a wall clock, the model RNG reached
//! from outside the sanctioned scope) raises no finding.

use std::collections::HashMap;
use std::time::Instant;

fn drive_everything(core: &mut SwarmCore) {
    let started = Instant::now();
    let mut seen: HashMap<u32, u32> = HashMap::new();
    seen.insert(bench_only(), 0);
    core.rng.next_u64();
    peek(core);
    watch(core);
    drive(core);
    waived_scratch();
    stale_waiver_site();
    let _ = (GoodStage { seen: 0 }, StaleStage { seen: 0 }, Row { value: 1 });
    let _ = (seen, started);
}
