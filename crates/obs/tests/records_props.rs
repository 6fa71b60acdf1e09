//! Property suite for the shared record codec ([`bt_obs::records`]),
//! modelled on `heartbeat_props.rs` (which stays as the test of the
//! heartbeat header rules). On [`SeriesPoint`], [`LedgerRecord`],
//! [`CohortEvent`], `bt_traces` [`Trace`] and `bt_swarm`
//! [`CompletionRecord`] streams:
//!
//! * EVERY byte prefix of a stream written with `write_line` reads back
//!   through `read_lines` as exactly the records it holds complete (the
//!   full stream: a round trip);
//! * blank lines are skipped and an unterminated tail is ignored;
//! * a single flipped byte reads as `Ok` or `InvalidData`, never a panic.
//!
//! Documents: a torn or garbage one is `InvalidData`, a missing one
//! `NotFound`.

use std::fmt::Debug;
use std::io::ErrorKind;

use bt_obs::records::{read_doc, read_lines, write_doc, write_line};
use bt_obs::{
    CohortAcquire, CohortDepart, CohortEvent, CohortEvict, CohortHandout, CohortJoin,
    CohortObserve, CohortPhase, CohortShake, CohortSlot, LedgerRecord, SeriesPoint,
    LEDGER_SCHEMA_VERSION,
};
use bt_swarm::metrics::CompletionRecord;
use bt_swarm::PeerId;
use bt_traces::{Trace, TraceSample};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn point((name, tick, value): (usize, u64, f64)) -> SeriesPoint {
    // One name needs escapes: a raw newline must never reach the stream.
    let names = ["entropy", "stage.exchange.ns", "odd \"name\"\nwith newline"];
    SeriesPoint {
        series: names[name % names.len()].to_string(),
        tick,
        value,
    }
}

fn ledger((seed, rounds, wall_clock_secs): (u64, u64, f64)) -> LedgerRecord {
    LedgerRecord {
        schema_version: LEDGER_SCHEMA_VERSION,
        command: "swarm".to_string(),
        seed,
        config_hash: format!("{seed:016x}"),
        pipeline: vec!["exchange".to_string(), "sample".to_string()],
        peak_population: rounds / 2,
        rounds,
        wall_clock_secs,
        rounds_per_sec: rounds as f64 / wall_clock_secs.max(1e-9),
        stage_p95_ns: vec![("round.exchange".to_string(), seed % 1_000_000)],
        violations: rounds % 3,
        obs_share: wall_clock_secs.fract(),
        threads: 1,
        peak_rss_bytes: seed / 2,
    }
}

/// One event of each of the nine kinds, picked by `kind`.
fn cohort_event((kind, round, peer, a, b): (u8, u64, u64, u32, u32)) -> CohortEvent {
    match kind % 9 {
        0 => CohortEvent::Join(CohortJoin { round, peer }),
        1 => CohortEvent::Evict(CohortEvict { round, peer }),
        2 => CohortEvent::Acquire(CohortAcquire {
            round,
            peer,
            piece: a,
            source: b as u8,
        }),
        3 => CohortEvent::Slot(CohortSlot {
            round,
            peer,
            other: u64::from(a),
            opened: b % 2 == 0,
        }),
        4 => CohortEvent::Phase(CohortPhase {
            round,
            peer,
            phase: (a % 4) as u8,
        }),
        5 => CohortEvent::Observe(CohortObserve {
            round,
            peer,
            pieces: a,
            connections: b,
        }),
        6 => CohortEvent::Shake(CohortShake { round, peer }),
        7 => CohortEvent::Depart(CohortDepart {
            round,
            peer,
            pieces: a,
        }),
        _ => CohortEvent::Handout(CohortHandout {
            round,
            peer,
            entries: b,
        }),
    }
}

/// A client trace whose samples are the running sums of `steps`
/// (seconds, bytes, potential), so it also passes `Trace::validate`.
fn trace((client, completed, steps): (u8, bool, Vec<(f64, u32, u32)>)) -> Trace {
    let (mut t, mut bytes) = (0.0, 0u64);
    let samples = steps
        .into_iter()
        .map(|(dt, db, potential)| {
            t += dt;
            bytes += u64::from(db);
            TraceSample {
                t,
                bytes,
                potential,
            }
        })
        .collect();
    Trace {
        client: format!("client \"{client}\""),
        swarm: "alpha".to_string(),
        piece_bytes: 262_144,
        pieces: 200,
        completed,
        samples,
    }
}

/// A completion record whose acquisition rounds are the running sums
/// of `gaps` after the join round.
fn completion((seq, joined, gaps, slow): (u64, u64, Vec<u64>, bool)) -> CompletionRecord {
    let mut round = joined;
    let acquisition_rounds: Vec<u64> = gaps
        .into_iter()
        .map(|gap| {
            round += gap;
            round
        })
        .collect();
    CompletionRecord {
        id: PeerId::synthetic(seq),
        joined_round: joined,
        completed_round: round,
        acquisition_rounds,
        slow,
    }
}

/// Checks the line-stream properties on one generated stream.
fn check_stream<T>(records: &[T], at: usize, mask: u8) -> Result<(), TestCaseError>
where
    T: serde::Serialize + serde::Deserialize + PartialEq + Debug,
{
    let mut bytes = Vec::new();
    for record in records {
        write_line(&mut bytes, record).expect("in-memory write succeeds");
    }
    for cut in 0..=bytes.len() {
        let complete = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        let parsed: Vec<T> = read_lines(&bytes[..cut], "prop")
            .unwrap_or_else(|e| panic!("prefix of {cut} bytes must parse: {e}"));
        prop_assert_eq!(parsed.as_slice(), &records[..complete]);
    }
    let mut padded = bytes.clone();
    padded.extend_from_slice(b"\n  \n{\"in-flight");
    let parsed: Vec<T> = read_lines(&padded[..], "prop").expect("padding is skipped");
    prop_assert_eq!(parsed.as_slice(), records);
    if !bytes.is_empty() {
        let at = at % bytes.len();
        bytes[at] ^= mask;
        if let Err(e) = read_lines::<T, _>(&bytes[..], "prop") {
            prop_assert_eq!(e.kind(), ErrorKind::InvalidData);
            prop_assert!(e.to_string().starts_with("prop line "), "{e}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn series_point_streams(
        raw in prop::collection::vec((0usize..3, any::<u64>(), -1e12f64..1e12), 0..6),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        check_stream(&raw.into_iter().map(point).collect::<Vec<_>>(), at, mask)?;
    }

    #[test]
    fn ledger_record_streams(
        raw in prop::collection::vec((any::<u64>(), 0u64..=1_000_000, 0.0f64..=1e5), 0..3),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        check_stream(&raw.into_iter().map(ledger).collect::<Vec<_>>(), at, mask)?;
    }

    #[test]
    fn cohort_event_streams(
        raw in prop::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
            0..6,
        ),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        check_stream(&raw.into_iter().map(cohort_event).collect::<Vec<_>>(), at, mask)?;
    }

    #[test]
    fn trace_streams(
        raw in prop::collection::vec(
            (
                any::<u8>(),
                any::<bool>(),
                prop::collection::vec((0.0f64..60.0, 0u32..=262_144, 0u32..50), 0..4),
            ),
            0..4,
        ),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        check_stream(&raw.into_iter().map(trace).collect::<Vec<_>>(), at, mask)?;
    }

    #[test]
    fn completion_record_streams(
        raw in prop::collection::vec(
            (
                any::<u64>(),
                0u64..1_000_000,
                prop::collection::vec(0u64..50, 0..6),
                any::<bool>(),
            ),
            0..5,
        ),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        check_stream(&raw.into_iter().map(completion).collect::<Vec<_>>(), at, mask)?;
    }
}

#[test]
fn torn_garbage_or_missing_documents_are_rejected_by_kind() {
    let dir = std::env::temp_dir().join(format!("bt_obs_records_props_{}", std::process::id()));
    let (path, torn) = (dir.join("doc.json"), dir.join("torn.json"));
    let record = ledger((7, 60, 1.5));
    write_doc(&path, &record).expect("document writes");
    assert_eq!(read_doc::<LedgerRecord>(&path).expect("parses"), record);
    let full = std::fs::read(&path).expect("document exists");
    assert_eq!(full.last(), Some(&b'\n'), "documents end in a newline");

    // Every cut that loses the closing brace is a torn document.
    let close = full
        .iter()
        .rposition(|&b| b == b'}')
        .expect("object closes");
    for cut in 0..=close {
        std::fs::write(&torn, &full[..cut]).expect("write prefix");
        let err = read_doc::<LedgerRecord>(&torn).expect_err("torn document");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "cut at {cut}: {err}");
        assert!(
            err.to_string().contains("torn.json"),
            "names the path: {err}"
        );
    }
    std::fs::write(&torn, b"\xff\xfegarbage").expect("write garbage");
    let err = read_doc::<LedgerRecord>(&torn).expect_err("garbage document");
    assert_eq!(err.kind(), ErrorKind::InvalidData);

    let err = read_doc::<LedgerRecord>(&dir.join("absent.json")).expect_err("missing document");
    assert_eq!(err.kind(), ErrorKind::NotFound);
    assert!(
        err.to_string().contains("absent.json"),
        "names the path: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
