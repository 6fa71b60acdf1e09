//! Integration tests of the per-round telemetry pipeline: stream/series
//! agreement with the engine's own metrics and online phase detection.

use std::io::Write;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use bt_model::Phase;
use bt_swarm::telemetry::{
    PhaseEvent, TelemetryMeta, TelemetryRecord, TelemetrySample,
    TELEMETRY_SCHEMA_VERSION,
};
use bt_swarm::{InitialPieces, Swarm, SwarmConfig, TelemetryOptions, TelemetryRecorder};

/// An in-memory `Write` sink that can be read back after the recorder
/// (which owns a `Box<dyn Write>`) is done with it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("buffer lock").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn base_config() -> SwarmConfig {
    SwarmConfig::builder()
        .pieces(12)
        .max_connections(3)
        .neighbor_set_size(6)
        .arrival_rate(0.0)
        .initial_leechers(12)
        .initial_pieces(InitialPieces::Random { count: 3 })
        .max_rounds(400)
        .seed(99)
        .build()
        .expect("valid config")
}

#[test]
fn stream_entropy_matches_engine_metrics() {
    let mut swarm = Swarm::new(base_config());
    let buf = SharedBuf::default();
    swarm.attach_telemetry(
        TelemetryRecorder::new(TelemetryOptions::default()).to_writer(Box::new(buf.clone())),
    );
    for _ in 0..25 {
        swarm.step_round();
    }
    let recorder = swarm.take_telemetry().expect("recorder attached");
    assert_eq!(recorder.samples(), 25);

    // The streamed samples carry exactly the entropy the engine's own
    // metrics sampled for the same rounds.
    let records: Vec<TelemetryRecord> =
        bt_obs::records::read_lines(&buf.contents()[..], "telemetry").expect("stream parses");
    let samples: Vec<&TelemetrySample> = records
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::Sample(s) => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(samples.len(), 25);
    let engine_entropy = &swarm.metrics().entropy;
    assert_eq!(engine_entropy.len(), 25);
    for (sample, &(round, entropy)) in samples.iter().zip(engine_entropy.iter()) {
        assert_eq!(sample.round, round);
        assert_eq!(sample.entropy, entropy, "round {round}");
        // Availability histogram sums to the piece count.
        assert_eq!(sample.availability.iter().sum::<u64>(), 12);
        // Quantiles are ordered.
        assert!(sample.piece_quantiles.windows(2).all(|w| w[0] <= w[1]));
        assert!((0.0..=1.0).contains(&sample.slot_utilization));
    }

    // The in-memory series store agrees with the stream.
    let series = recorder.store().get("entropy").expect("entropy series");
    assert_eq!(series.len(), 25);
    for ((tick, value), &(round, entropy)) in series.iter().zip(engine_entropy.iter()) {
        assert_eq!(tick, round);
        assert_eq!(value, entropy);
    }

    // The stream opens with a matching header.
    match &records[0] {
        TelemetryRecord::Meta(meta) => {
            assert_eq!(meta.schema_version, TELEMETRY_SCHEMA_VERSION);
            assert_eq!(meta.pieces, 12);
            assert_eq!(meta.max_connections, 3);
            assert_eq!(meta.seed, 99);
        }
        other => panic!("stream must start with Meta, got {other:?}"),
    }
}

#[test]
fn stride_thins_samples_but_not_phase_detection() {
    let mut config = base_config();
    config.observers = 2;
    let mut swarm = Swarm::new(config);
    swarm.attach_telemetry(TelemetryRecorder::new(TelemetryOptions {
        stride: 5,
        ..TelemetryOptions::default()
    }));
    for _ in 0..20 {
        swarm.step_round();
    }
    let recorder = swarm.take_telemetry().expect("recorder attached");
    // Rounds 5, 10, 15, 20 pass the stride.
    assert_eq!(recorder.samples(), 4);
    // Phase detection ran every round regardless: the endowed observers
    // were classified from round 1.
    assert!(recorder
        .phase_events()
        .iter()
        .any(|e| e.round == 1), "first-round classification missing");
}

#[test]
fn observers_walk_from_bootstrap_to_done() {
    let config = SwarmConfig::builder()
        .pieces(8)
        .max_connections(3)
        .neighbor_set_size(6)
        .arrival_rate(0.0)
        .initial_leechers(10)
        .observers(3)
        .max_rounds(400)
        .seed(7)
        .build()
        .expect("valid config");
    let mut swarm = Swarm::new(config);
    swarm.attach_telemetry(TelemetryRecorder::new(TelemetryOptions::default()));
    for _ in 0..400 {
        swarm.step_round();
        if swarm.metrics().completions.len() >= 3 {
            break;
        }
    }
    assert!(
        swarm.metrics().completions.len() >= 3,
        "observers should finish within 400 rounds"
    );
    let recorder = swarm.take_telemetry().expect("recorder attached");
    for peer in 0..3u64 {
        let events: Vec<&PhaseEvent> = recorder
            .phase_events()
            .iter()
            .filter(|e| e.peer == peer)
            .collect();
        assert!(!events.is_empty(), "observer {peer} has no transitions");
        // The first observation lands after round 1's exchanges, so a fast
        // starter may already be efficient — but never done or stalled.
        assert!(
            matches!(events[0].phase, Phase::Bootstrap | Phase::Efficient),
            "observer {peer} first phase: {:?}",
            events[0].phase
        );
        assert_eq!(
            events.last().expect("non-empty").phase,
            Phase::Done,
            "observer {peer} must end done"
        );
        assert!(
            events.windows(2).all(|w| w[0].round <= w[1].round),
            "observer {peer} transitions out of order"
        );
        assert!(
            events.windows(2).all(|w| w[0].phase != w[1].phase),
            "observer {peer} has duplicate consecutive phases"
        );
    }
}

// ----------------------------------------------------------------------
// Property: any telemetry stream round-trips through JSONL.
// ----------------------------------------------------------------------

fn sample_strategy() -> impl Strategy<Value = TelemetryRecord> {
    (
        0u64..10_000,
        0u64..5_000,
        0.0f64..=1.0,
        0u64..64,
        proptest::collection::vec(0u64..200, 0..16),
        (0u32..50, 0u32..50, 0u32..50, 0u32..50, 0u32..50),
        0.0f64..8.0,
    )
        .prop_map(|(round, population, entropy, extinct, avail, q, degree)| {
            let mut quantiles = [q.0, q.1, q.2, q.3, q.4];
            quantiles.sort_unstable();
            TelemetryRecord::Sample(TelemetrySample {
                round,
                population,
                entropy,
                extinct_pieces: extinct,
                availability: avail,
                piece_quantiles: quantiles,
                mean_degree: degree,
                slot_utilization: degree / 8.0,
            })
        })
}

fn record_strategy() -> impl Strategy<Value = TelemetryRecord> {
    // The vendored proptest has no `prop_oneof`, so generate every
    // variant's fields and pick by selector.
    (
        0u8..3,
        sample_strategy(),
        (0u64..100, 0u64..10_000, 0u8..4),
        (1u32..500, 1u32..16, 1u32..32, 0u64..u64::MAX, 1u64..100),
    )
        .prop_map(|(selector, sample, phase_fields, meta_fields)| {
            match selector {
                0 => sample,
                1 => {
                    let (peer, round, phase) = phase_fields;
                    let phase = match phase {
                        0 => Phase::Bootstrap,
                        1 => Phase::Efficient,
                        2 => Phase::LastDownload,
                        _ => Phase::Done,
                    };
                    TelemetryRecord::Phase(PhaseEvent { peer, round, phase })
                }
                _ => {
                    let (pieces, k, s, seed, stride) = meta_fields;
                    TelemetryRecord::Meta(TelemetryMeta {
                        schema_version: TELEMETRY_SCHEMA_VERSION,
                        pieces,
                        max_connections: k,
                        neighbor_set_size: s,
                        seed,
                        stride,
                    })
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn telemetry_stream_round_trips(records in proptest::collection::vec(record_strategy(), 0..24)) {
        let mut buf = Vec::new();
        for record in &records {
            bt_obs::records::write_line(&mut buf, record).expect("write succeeds");
        }
        let back: Vec<TelemetryRecord> =
            bt_obs::records::read_lines(&buf[..], "telemetry").expect("read succeeds");
        prop_assert_eq!(back, records);
    }
}
