//! End-to-end test of the measurement pipeline: swarm → observer logs →
//! traces → disk → analyzer.

use multiphase_bt::markov::SeedStream;
use multiphase_bt::traces::analyzer::segment;
use multiphase_bt::traces::generator::{generate, TraceScenario, SECONDS_PER_ROUND};
use multiphase_bt::traces::io::{read_traces, write_traces};
use multiphase_bt::traces::swarm_stats::{filter_stable, synthesize, SwarmClass};

#[test]
fn full_pipeline_round_trips() {
    // Screening.
    let mut rng = SeedStream::new(42).rng("stats", 0);
    let stats = vec![
        synthesize(SwarmClass::Stable, "a", 900, 24, &mut rng),
        synthesize(SwarmClass::Dying, "b", 900, 24, &mut rng),
        synthesize(SwarmClass::FlashCrowd, "c", 900, 24, &mut rng),
    ];
    let stable = filter_stable(stats);
    assert_eq!(stable.len(), 1);
    assert_eq!(stable[0].name, "a");

    // Collection.
    let traces = generate(TraceScenario::Smooth, 3, 42).expect("generation succeeds");
    assert_eq!(traces.len(), 3);

    // Serialization round trip.
    let mut buf = Vec::new();
    write_traces(&mut buf, &traces).expect("write succeeds");
    let reloaded = read_traces(buf.as_slice()).expect("read succeeds");
    assert_eq!(traces, reloaded);

    // Analysis: every trace segments cleanly and sample counts partition.
    for trace in &reloaded {
        let phases = segment(trace);
        assert_eq!(
            phases.bootstrap_samples + phases.efficient_samples + phases.last_samples,
            phases.total_samples
        );
    }
}

#[test]
fn trace_timestamps_follow_round_scale() {
    let traces = generate(TraceScenario::Smooth, 2, 9).expect("generation succeeds");
    for trace in &traces {
        for pair in trace.samples.windows(2) {
            let dt = pair[1].t - pair[0].t;
            assert!(dt >= 0.0);
            // Samples are one round apart (or coincide at the closing
            // completion sample).
            assert!(
                dt == 0.0 || (dt - SECONDS_PER_ROUND).abs() < 1e-9,
                "unexpected gap {dt}"
            );
        }
    }
}

#[test]
fn archetypes_segment_differently() {
    let smooth = generate(TraceScenario::Smooth, 4, 7).expect("generation succeeds");
    let stall = generate(TraceScenario::BootstrapStall, 4, 7).expect("generation succeeds");
    let max_bootstrap = |traces: &[multiphase_bt::traces::Trace]| {
        traces
            .iter()
            .map(|t| segment(t).bootstrap_fraction())
            .fold(0.0f64, f64::max)
    };
    let smooth_b = max_bootstrap(&smooth);
    let stall_b = max_bootstrap(&stall);
    assert!(
        stall_b > smooth_b,
        "bootstrap-stall ({stall_b:.2}) should out-bootstrap smooth ({smooth_b:.2})"
    );
}
