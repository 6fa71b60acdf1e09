//! Fig. 2 — per-client download and potential-set evolution for three
//! archetypes: smooth, significant last phase, significant bootstrap phase.

use std::io::{self, Write};

use bt_traces::analyzer::{segment, PhaseSummary};
use bt_traces::generator::{generate, TraceScenario};
use bt_traces::Trace;

use crate::par_map;

/// One archetype's exemplar: the generated trace plus its segmentation.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// Which archetype this is.
    pub scenario: TraceScenario,
    /// The selected trace.
    pub trace: Trace,
    /// Its phase segmentation.
    pub phases: PhaseSummary,
}

/// Generates traces for all three archetypes and picks, per archetype, the
/// trace that exhibits it most strongly.
///
/// # Panics
///
/// Panics only on internal generator bugs (the canned scenarios are valid).
#[must_use]
pub fn fig2(observers_per_scenario: u32, seed: u64) -> Vec<Exemplar> {
    let scenarios = [
        TraceScenario::Smooth,
        TraceScenario::LastPhase,
        TraceScenario::BootstrapStall,
    ];
    par_map(&scenarios, |&scenario| {
        let traces =
            generate(scenario, observers_per_scenario, seed).expect("canned scenario is valid");
        let scored: Vec<(Trace, PhaseSummary)> = traces
            .into_iter()
            .map(|t| {
                let p = segment(&t);
                (t, p)
            })
            .collect();
        let (trace, phases) = scored
            .into_iter()
            .max_by(|(_, a), (_, b)| {
                let score = |p: &PhaseSummary| match scenario {
                    TraceScenario::Smooth => {
                        // Most efficient-phase-dominated completed trace.
                        1.0 - p.bootstrap_fraction() - p.last_fraction()
                    }
                    TraceScenario::LastPhase => p.last_fraction(),
                    TraceScenario::BootstrapStall => p.bootstrap_fraction(),
                };
                score(a).partial_cmp(&score(b)).expect("scores are finite")
            })
            .expect("at least one observer per scenario");
        Exemplar {
            scenario,
            trace,
            phases,
        }
    })
}

/// Writes each exemplar as two TSV blocks (download process, potential
/// set), mirroring the paired panels of Fig. 2.
pub fn write_fig2(mut w: impl Write, exemplars: &[Exemplar]) -> io::Result<()> {
    for ex in exemplars {
        writeln!(w, "# scenario={}", ex.trace.swarm)?;
        writeln!(
            w,
            "# phases: bootstrap={:.0}s efficient={:.0}s last={:.0}s",
            ex.phases.bootstrap_secs, ex.phases.efficient_secs, ex.phases.last_secs
        )?;
        writeln!(w, "t\tcumulative_bytes\tpotential_set_size")?;
        for s in &ex.trace.samples {
            writeln!(w, "{:.0}\t{}\t{}", s.t, s.bytes, s.potential)?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemplars_match_their_archetypes() {
        let exemplars = fig2(6, 7);
        assert_eq!(exemplars.len(), 3);
        let by_name = |name: &str| {
            exemplars
                .iter()
                .find(|e| e.trace.swarm == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        let smooth = by_name("smooth");
        let last = by_name("last-phase");
        let stall = by_name("bootstrap-stall");
        // The archetypes order as intended on their own axes.
        assert!(
            stall.phases.bootstrap_fraction() >= smooth.phases.bootstrap_fraction(),
            "stall bootstrap {} vs smooth {}",
            stall.phases.bootstrap_fraction(),
            smooth.phases.bootstrap_fraction()
        );
        assert!(
            last.phases.last_fraction() >= smooth.phases.last_fraction(),
            "last {} vs smooth {}",
            last.phases.last_fraction(),
            smooth.phases.last_fraction()
        );
    }
}
