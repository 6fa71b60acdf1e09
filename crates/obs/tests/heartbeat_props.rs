//! Property suite for the heartbeat stream (ISSUE 10, satellite c).
//!
//! * Round trip: any header + beat sequence written through the
//!   emitter's line format must parse back bit-identically through
//!   [`bt_obs::read_heartbeat`].
//! * Truncation: the stream is append-only and a reader may catch the
//!   writer mid-line, so for EVERY byte prefix of a valid stream the
//!   parser must either succeed with a prefix of the beats (when the
//!   header line is complete) or fail with `InvalidData` (when it is
//!   not) — never panic, never fabricate records.

use bt_obs::{Heartbeat, HeartbeatMeta, HeartbeatRecord, HEARTBEAT_SCHEMA_VERSION};
use proptest::prelude::*;

fn arb_meta() -> impl Strategy<Value = HeartbeatMeta> {
    const COMMANDS: [&str; 2] = ["swarm", "doctor"];
    (
        0usize..COMMANDS.len(),
        any::<u64>(),
        0u64..=1_000_000,
        0.0f64..=60.0,
    )
        .prop_map(
            |(command, seed, target_rounds, interval_secs)| HeartbeatMeta {
                schema_version: HEARTBEAT_SCHEMA_VERSION,
                command: COMMANDS[command].to_string(),
                seed,
                target_rounds,
                interval_secs,
            },
        )
}

fn arb_beat() -> impl Strategy<Value = Heartbeat> {
    const PHASES: [&str; 4] = ["bootstrap", "efficient", "last", "done"];
    (
        0u64..=1_000_000,
        0.0f64..=1e6,
        0.0f64..=1e6,
        0.0f64..=1e9,
        0usize..PHASES.len(),
        (0.0f64..=16.0, 0u64..=1_000_000, 0.0f64..=1.0),
        (0u64..=u64::MAX / 2, 0u64..=u64::MAX / 2),
    )
        .prop_map(
            |(
                round,
                elapsed_secs,
                rounds_per_sec,
                eta_secs,
                phase,
                (entropy, population, obs_share),
                (rss_bytes, peak_rss_bytes),
            )| Heartbeat {
                round,
                elapsed_secs,
                rounds_per_sec,
                eta_secs,
                phase: PHASES[phase].to_string(),
                entropy,
                population,
                obs_share,
                rss_bytes,
                peak_rss_bytes,
            },
        )
}

/// Serializes a stream the way the emitter does: one JSON line per
/// record, header first.
fn render(meta: &HeartbeatMeta, beats: &[Heartbeat]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut push = |record: &HeartbeatRecord| {
        bytes.extend_from_slice(
            serde_json::to_string(record)
                .expect("serializes")
                .as_bytes(),
        );
        bytes.push(b'\n');
    };
    push(&HeartbeatRecord::Meta(meta.clone()));
    for beat in beats {
        push(&HeartbeatRecord::Beat(beat.clone()));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stream_round_trips(meta in arb_meta(), beats in prop::collection::vec(arb_beat(), 0..8)) {
        let bytes = render(&meta, &beats);
        let (parsed_meta, parsed_beats) =
            bt_obs::read_heartbeat(&bytes[..]).expect("full stream parses");
        prop_assert_eq!(parsed_meta, meta);
        prop_assert_eq!(parsed_beats, beats);
    }

    #[test]
    fn every_byte_prefix_parses_or_rejects_cleanly(
        meta in arb_meta(),
        beats in prop::collection::vec(arb_beat(), 0..5),
    ) {
        let bytes = render(&meta, &beats);
        let header_end = bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("header line is newline-terminated");
        for cut in 0..=bytes.len() {
            let prefix = &bytes[..cut];
            let result = bt_obs::read_heartbeat(prefix);
            if cut > header_end {
                // The header line is complete: the parser must accept
                // the prefix and return exactly the complete beats.
                let complete_beats = bytes[..cut].iter().filter(|&&b| b == b'\n').count() - 1;
                let (parsed_meta, parsed_beats) = result
                    .unwrap_or_else(|e| panic!("prefix of {cut} bytes must parse: {e}"));
                prop_assert_eq!(&parsed_meta, &meta);
                prop_assert_eq!(parsed_beats.as_slice(), &beats[..complete_beats]);
            } else {
                // No complete header yet: headerless-stream error.
                let err = result.expect_err("prefix without a header must be rejected");
                prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            }
        }
    }
}
