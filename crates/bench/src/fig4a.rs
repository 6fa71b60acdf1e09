//! Fig. 4(a) — impact of the connection cap `k` on system efficiency,
//! model (§5 balance equations) against simulation.
//!
//! Two simulation arms are reported:
//!
//! * `simulation` — an agent-based simulation of exactly the §5 connection
//!   process ([`bt_model::efficiency::monte_carlo_efficiency`]): discrete
//!   peers, pairwise connections, per-round failures, one encounter per
//!   open peer per round. This is the like-for-like counterpart of the
//!   balance-equation model, as in the paper's figure.
//! * `protocol_sim` — the full `bt-swarm` protocol simulator's slot
//!   utilization under blind encounters. Reported for context; its peers
//!   retry failed encounters across rounds and serve as targets, so the
//!   `k = 1` penalty is structurally smaller there.
//!
//! Both the model and the agent simulation use the §5 duration coupling
//! (`1 − p_r(k) = (1 − p_r)/k`): with more simultaneous connections,
//! freshly downloaded pieces keep existing connections tradable, so
//! connection lifetimes grow with `k` — the paper's own explanation of why
//! efficiency jumps from `k = 1` to `k = 2` and then plateaus.

use std::io::{self, Write};

use bt_des::SeedStream;
use bt_model::efficiency::{monte_carlo_efficiency, EfficiencyModel, SweepOrder};
use bt_swarm::{scenario, Swarm};

use crate::{cell, par_map, row};

/// One row of the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyPoint {
    /// Maximum simultaneous connections.
    pub k: u32,
    /// The §5 model's steady-state efficiency (paper's iteration order).
    pub model: f64,
    /// Agent-based simulation of the §5 connection process.
    pub simulation: f64,
    /// Full protocol simulator's slot utilization (context column).
    pub protocol_sim: f64,
}

/// The §5 duration coupling: `p_r(k) = 1 − (1 − base)/k`.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn coupled_p_r(k: u32, base: f64) -> f64 {
    assert!(k >= 1, "k must be at least 1");
    1.0 - (1.0 - base) / f64::from(k)
}

/// Sweeps `k = 1..=k_max` with base re-encounter probability `p_r`.
///
/// # Panics
///
/// Panics only on internal scenario/model bugs.
#[must_use]
pub fn fig4a(k_max: u32, p_r: f64, seed: u64) -> Vec<EfficiencyPoint> {
    let ks: Vec<u32> = (1..=k_max).collect();
    par_map(&ks, |&k| point(k, p_r, seed))
}

/// One row of [`fig4a`]: the model solve, the agent simulation and the
/// protocol swarm at connection cap `k`.
fn point(k: u32, p_r: f64, seed: u64) -> EfficiencyPoint {
    let p_r_k = coupled_p_r(k, p_r);
    let model = EfficiencyModel::new(k, p_r_k)
        .expect("valid k and p_r")
        .sweep_order(SweepOrder::Ascending)
        .solve()
        .expect("efficiency iteration converges")
        .efficiency;
    let mut rng = SeedStream::new(seed).rng("fig4a-mc", u64::from(k));
    let simulation = monte_carlo_efficiency(k, p_r_k, 600, 300, &mut rng);
    let config = scenario::efficiency(k, p_r_k, seed).expect("scenario preset is valid");
    let protocol_sim = Swarm::new(config).run().mean_utilization();
    EfficiencyPoint {
        k,
        model,
        simulation,
        protocol_sim,
    }
}

/// Writes the sweep as TSV: `k  model  simulation  protocol_sim`.
pub fn write_fig4a(mut w: impl Write, points: &[EfficiencyPoint]) -> io::Result<()> {
    writeln!(w, "k\tmodel\tsimulation\tprotocol_sim")?;
    for p in points {
        let (model, sim, protocol) = (cell(p.model), cell(p.simulation), cell(p.protocol_sim));
        row(&mut w, &[&p.k, &model, &sim, &protocol])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupling_formula() {
        assert!((coupled_p_r(1, 0.5) - 0.5).abs() < 1e-12);
        assert!((coupled_p_r(2, 0.5) - 0.75).abs() < 1e-12);
        assert!((coupled_p_r(5, 0.5) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn model_side_shows_k2_plateau() {
        let eta: Vec<f64> = (1..=8)
            .map(|k| {
                EfficiencyModel::new(k, coupled_p_r(k, 0.5))
                    .unwrap()
                    .sweep_order(SweepOrder::Ascending)
                    .solve()
                    .unwrap()
                    .efficiency
            })
            .collect();
        // Early gains (k=1→3) dominate; late gains (k=5→8) taper off —
        // the paper's "gain rapidly decreases beyond two connections".
        let early = (eta[2] - eta[0]) / 2.0;
        let late = (eta[7] - eta[4]) / 3.0;
        assert!(early > 0.0, "{eta:?}");
        assert!(
            late < 0.5 * early,
            "late gains {late:.4} should be well below early gains {early:.4}: {eta:?}"
        );
    }

    #[test]
    fn sweep_is_bit_identical_at_one_and_four_workers() {
        let bits = |points: Vec<EfficiencyPoint>| -> Vec<[u64; 3]> {
            points
                .iter()
                .map(|p| [p.model, p.simulation, p.protocol_sim].map(f64::to_bits))
                .collect()
        };
        let ks = [1, 2, 3];
        let serial = bits(crate::par_map_on(1, &ks, |&k| point(k, 0.5, 11)));
        let parallel = bits(crate::par_map_on(4, &ks, |&k| point(k, 0.5, 11)));
        assert_eq!(serial, parallel);
        assert_eq!(serial, bits(fig4a(3, 0.5, 11)));
    }

    #[test]
    fn small_sweep_is_consistent() {
        let points = fig4a(2, 0.5, 11);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.model));
            assert!((0.0..=1.0).contains(&p.simulation));
            assert!((0.0..=1.0).contains(&p.protocol_sim));
        }
        assert!(
            points[1].simulation > points[0].simulation,
            "simulated efficiency must gain from k=2: {points:?}"
        );
    }
}
