//! Property-based tests for the trace toolkit.

use bt_traces::analyzer::segment;
use bt_traces::io::{read_traces, write_traces};
use bt_traces::stats::summarize;
use bt_traces::{Trace, TraceSample};
use proptest::prelude::*;

/// Strategy: a structurally valid trace (time-ordered, bytes monotone and
/// bounded by the file size).
fn valid_trace() -> impl Strategy<Value = Trace> {
    (
        1u32..=20,    // pieces
        1u64..=1_000, // piece bytes
        prop::collection::vec((0.0f64..5.0, 0u64..50, 0u32..8), 0..40),
        prop::bool::ANY,
    )
        .prop_map(|(pieces, piece_bytes, raw, completed)| {
            let file_bytes = u64::from(pieces) * piece_bytes;
            let mut t_acc = 0.0;
            let mut b_acc = 0u64;
            let samples = raw
                .into_iter()
                .map(|(dt, db, potential)| {
                    t_acc += dt;
                    b_acc = (b_acc + db).min(file_bytes);
                    TraceSample {
                        t: t_acc,
                        bytes: b_acc,
                        potential,
                    }
                })
                .collect();
            Trace {
                client: "prop".into(),
                swarm: "prop".into(),
                piece_bytes,
                pieces,
                completed,
                samples,
            }
        })
}

proptest! {
    #[test]
    fn generated_traces_validate(trace in valid_trace()) {
        trace.validate().expect("strategy builds valid traces");
    }

    #[test]
    fn io_round_trips(traces in prop::collection::vec(valid_trace(), 0..5)) {
        let mut buf = Vec::new();
        write_traces(&mut buf, &traces).unwrap();
        let back = read_traces(buf.as_slice()).unwrap();
        prop_assert_eq!(traces, back);
    }

    #[test]
    fn segmentation_partitions_samples(trace in valid_trace()) {
        let p = segment(&trace);
        prop_assert_eq!(
            p.bootstrap_samples + p.efficient_samples + p.last_samples,
            p.total_samples
        );
        prop_assert!(p.bootstrap_secs >= 0.0);
        prop_assert!(p.efficient_secs >= 0.0);
        prop_assert!(p.last_secs >= 0.0);
        let bf = p.bootstrap_fraction();
        let lf = p.last_fraction();
        prop_assert!((0.0..=1.0).contains(&bf));
        prop_assert!((0.0..=1.0).contains(&lf));
        prop_assert!(bf + lf <= 1.0 + 1e-9);
    }

    #[test]
    fn summary_is_consistent(traces in prop::collection::vec(valid_trace(), 0..6)) {
        let s = summarize(&traces);
        prop_assert_eq!(s.traces, traces.len());
        prop_assert!(s.completed <= s.traces);
    }
}
