//! Reservoir-sampled peer cohorts with JSON-lines lifecycle traces.
//!
//! Full per-peer tracing is O(population) per round — unaffordable at
//! the 50k/500k populations the roadmap targets. A *cohort* is a small,
//! fixed-size, uniformly random sample of the arrival stream whose
//! members get complete lifecycle traces (join, piece acquisitions,
//! choke/slot churn, phase transitions, departure) at O(cohort) cost
//! per round, independent of population.
//!
//! # Determinism contract
//!
//! Membership is decided by Algorithm R reservoir sampling over the
//! arrival sequence, driven by a private SplitMix64 generator seeded
//! from the run seed. The sink makes **zero** calls into the model's
//! RNG stream, so attaching a cohort never changes what the simulation
//! does — same-seed runs with and without cohort tracing produce
//! byte-identical model telemetry (enforced by
//! `crates/swarm/tests/determinism.rs`), and same-seed cohort streams
//! are themselves byte-identical.
//!
//! # Stream format
//!
//! A cohort stream is JSON lines written through
//! [`crate::records::write_line`]: one [`CohortMeta`] line (schema
//! version, run seed, cohort size), then one [`CohortEvent`] per line.
//! [`read_cohort`] parses a stream back.

// bt-lint: allow-file(panic-index) — the one index below is bounded:
// Algorithm R replaces `slots[j]` only when `j < size`, and `slots` is
// full (`size` long) by then.
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};

/// Schema version of the cohort stream.
pub const COHORT_SCHEMA_VERSION: u32 = 1;

/// Salt mixed into the run seed so the cohort's private RNG stream is
/// decorrelated from every model stream derived from the same seed.
const COHORT_STREAM_SALT: u64 = 0xc0_0b_17_5a_3d_9e_44_21;

/// Cohort configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortOptions {
    /// Reservoir size: how many peers are traced at any time.
    pub size: u32,
    /// Run seed the private membership RNG derives from.
    pub seed: u64,
}

/// First line of a cohort trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortMeta {
    /// Stream schema version.
    pub schema_version: u32,
    /// Run seed recorded at capture time.
    pub seed: u64,
    /// Configured reservoir size.
    pub size: u32,
}

/// Where an acquired piece came from.
pub mod acquire_source {
    /// Initial endowment at spawn.
    pub const ENDOW: u8 = 0;
    /// Bootstrap first-piece injection.
    pub const BOOTSTRAP: u8 = 1;
    /// Origin-seed upload.
    pub const SEED: u8 = 2;
    /// Tit-for-tat exchange.
    pub const EXCHANGE: u8 = 3;

    /// Human-readable name of a source tag.
    #[must_use]
    pub fn name(source: u8) -> &'static str {
        match source {
            ENDOW => "endow",
            BOOTSTRAP => "bootstrap",
            SEED => "seed",
            EXCHANGE => "exchange",
            _ => "unknown",
        }
    }
}

/// The download phase (§3) a cohort phase event carries.
pub mod cohort_phase {
    /// Flash-crowd bootstrap: no piece to trade yet.
    pub const BOOTSTRAP: u8 = 0;
    /// Efficient tit-for-tat exchange.
    pub const EFFICIENT: u8 = 1;
    /// Last-download phase: the potential set has run dry.
    pub const LAST_DOWNLOAD: u8 = 2;
    /// Every piece held.
    pub const DONE: u8 = 3;

    /// Human-readable name of a phase tag; `"?"` for an unknown one.
    #[must_use]
    pub fn name(phase: u8) -> &'static str {
        match phase {
            BOOTSTRAP => "bootstrap",
            EFFICIENT => "efficient",
            LAST_DOWNLOAD => "last-download",
            DONE => "done",
            _ => "?",
        }
    }
}

/// A peer entered the cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortJoin {
    /// Round of the join.
    pub round: u64,
    /// Peer sequence number.
    pub peer: u64,
}

/// A traced peer was displaced by reservoir replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortEvict {
    /// Round of the eviction.
    pub round: u64,
    /// Peer sequence number whose trace ends here.
    pub peer: u64,
}

/// A traced peer acquired a whole piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortAcquire {
    /// Round of the acquisition.
    pub round: u64,
    /// Peer sequence number.
    pub peer: u64,
    /// Piece index acquired.
    pub piece: u32,
    /// Source channel (see [`acquire_source`]).
    pub source: u8,
}

/// A connection slot of a traced peer opened or closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortSlot {
    /// Round of the slot change.
    pub round: u64,
    /// Traced peer sequence number.
    pub peer: u64,
    /// The other endpoint's sequence number.
    pub other: u64,
    /// `true` when the connection opened, `false` when it closed.
    pub opened: bool,
}

/// A traced peer transitioned between download phases (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortPhase {
    /// Round of the transition.
    pub round: u64,
    /// Peer sequence number.
    pub peer: u64,
    /// New phase (see [`cohort_phase`]).
    pub phase: u8,
}

/// Per-round observation of a traced peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortObserve {
    /// Round observed.
    pub round: u64,
    /// Peer sequence number.
    pub peer: u64,
    /// Pieces held.
    pub pieces: u32,
    /// Active connections.
    pub connections: u32,
}

/// A traced peer shook its neighbor set (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortShake {
    /// Round of the shake.
    pub round: u64,
    /// Peer sequence number.
    pub peer: u64,
}

/// A traced peer departed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortDepart {
    /// Round of the departure.
    pub round: u64,
    /// Peer sequence number.
    pub peer: u64,
    /// Pieces held at departure.
    pub pieces: u32,
}

/// A traced peer received tracker handout entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortHandout {
    /// Round of the handout.
    pub round: u64,
    /// Peer sequence number.
    pub peer: u64,
    /// Entries delivered.
    pub entries: u32,
}

/// One record of a cohort trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CohortEvent {
    /// Cohort membership began.
    Join(CohortJoin),
    /// Trace ended by reservoir replacement.
    Evict(CohortEvict),
    /// Whole-piece acquisition.
    Acquire(CohortAcquire),
    /// Connection slot opened/closed.
    Slot(CohortSlot),
    /// Download-phase transition.
    Phase(CohortPhase),
    /// Per-round state observation.
    Observe(CohortObserve),
    /// Neighbor-set shake.
    Shake(CohortShake),
    /// Departure.
    Depart(CohortDepart),
    /// Tracker handout received.
    Handout(CohortHandout),
}

impl CohortEvent {
    /// Sequence number of the peer the event concerns.
    #[must_use]
    pub fn peer(&self) -> u64 {
        match self {
            CohortEvent::Join(e) => e.peer,
            CohortEvent::Evict(e) => e.peer,
            CohortEvent::Acquire(e) => e.peer,
            CohortEvent::Slot(e) => e.peer,
            CohortEvent::Phase(e) => e.peer,
            CohortEvent::Observe(e) => e.peer,
            CohortEvent::Shake(e) => e.peer,
            CohortEvent::Depart(e) => e.peer,
            CohortEvent::Handout(e) => e.peer,
        }
    }

    /// Round the event occurred in.
    #[must_use]
    pub fn round(&self) -> u64 {
        match self {
            CohortEvent::Join(e) => e.round,
            CohortEvent::Evict(e) => e.round,
            CohortEvent::Acquire(e) => e.round,
            CohortEvent::Slot(e) => e.round,
            CohortEvent::Phase(e) => e.round,
            CohortEvent::Observe(e) => e.round,
            CohortEvent::Shake(e) => e.round,
            CohortEvent::Depart(e) => e.round,
            CohortEvent::Handout(e) => e.round,
        }
    }
}

/// Private SplitMix64 step — the cohort's own RNG stream. Unlike
/// `bt_markov::seed::splitmix64`, a pure mix of its argument, this one
/// is the sequence generator: the state advances by the golden ratio
/// and the draw is the mix of the new state. bt-obs does not link
/// bt-markov, so the reservoir keeps its own copy.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The live recorder behind an enabled [`CohortSink`].
struct CohortRecorder {
    size: u32,
    rng: u64,
    arrivals: u64,
    /// Reservoir slots (peer seq per slot), for Algorithm R replacement.
    slots: Vec<u64>,
    /// Currently traced peers (reservoir members not yet departed).
    members: BTreeSet<u64>,
    /// Last emitted phase per traced peer, to dedup transitions.
    last_phase: BTreeMap<u64, u8>,
    events: u64,
    /// `None` after a write error: tracing drops the stream, the model
    /// run continues.
    writer: Option<Box<dyn Write + Send>>,
}

impl CohortRecorder {
    fn emit(&mut self, event: &CohortEvent) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        if let Err(e) = crate::records::write_line(writer, event) {
            tracing::warn!(target: "bt_obs::cohort", error = e.to_string(); "cohort writer failed; tracing stops");
            self.writer = None;
            return;
        }
        self.events += 1;
    }
}

/// Zero-cost-when-disabled cohort recorder handle, following the
/// [`crate::ProfileSink`] pattern: the engine and every round stage
/// call the hooks unconditionally; a disabled sink is a no-op.
#[derive(Default)]
pub struct CohortSink {
    inner: Option<Box<CohortRecorder>>,
}

impl std::fmt::Debug for CohortSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CohortSink")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl CohortSink {
    /// A disabled sink: every hook is a no-op.
    #[must_use]
    pub fn disabled() -> CohortSink {
        CohortSink::default()
    }

    /// An enabled sink writing the [`CohortMeta`] line immediately.
    #[must_use]
    pub fn enabled(options: CohortOptions, mut writer: Box<dyn Write + Send>) -> CohortSink {
        let meta = CohortMeta {
            schema_version: COHORT_SCHEMA_VERSION,
            seed: options.seed,
            size: options.size,
        };
        let writer = match crate::records::write_line(&mut writer, &meta) {
            Ok(()) => Some(writer),
            Err(e) => {
                tracing::warn!(target: "bt_obs::cohort", error = e.to_string(); "cohort header write failed; tracing disabled");
                None
            }
        };
        CohortSink {
            inner: Some(Box::new(CohortRecorder {
                size: options.size,
                rng: options.seed ^ COHORT_STREAM_SALT,
                arrivals: 0,
                slots: Vec::with_capacity(options.size as usize),
                members: BTreeSet::new(),
                last_phase: BTreeMap::new(),
                events: 0,
                writer,
            })),
        }
    }

    /// Whether `peer` is currently traced. Fast `false` when disabled —
    /// stages use this to skip event construction entirely.
    #[inline]
    #[must_use]
    pub fn is_member(&self, peer: u64) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|r| r.members.contains(&peer))
    }

    /// Offers an arriving peer to the reservoir (Algorithm R). Call
    /// exactly once per arrival, in arrival order; the RNG draw count
    /// is a pure function of the arrival index, keeping membership
    /// deterministic.
    #[inline]
    pub fn offer_join(&mut self, round: u64, peer: u64) {
        let Some(r) = self.inner.as_deref_mut() else {
            return;
        };
        let t = r.arrivals;
        r.arrivals += 1;
        if r.size == 0 {
            return;
        }
        if r.slots.len() < r.size as usize {
            r.slots.push(peer);
        } else {
            let j = splitmix64(&mut r.rng) % (t + 1);
            if j >= u64::from(r.size) {
                return;
            }
            #[allow(clippy::cast_possible_truncation)]
            let evicted = std::mem::replace(&mut r.slots[j as usize], peer);
            if r.members.remove(&evicted) {
                r.last_phase.remove(&evicted);
                r.emit(&CohortEvent::Evict(CohortEvict {
                    round,
                    peer: evicted,
                }));
            }
        }
        r.members.insert(peer);
        r.emit(&CohortEvent::Join(CohortJoin { round, peer }));
    }

    /// Records a piece acquisition of a traced peer.
    #[inline]
    pub fn acquire(&mut self, round: u64, peer: u64, piece: u32, source: u8) {
        let Some(r) = self.inner.as_deref_mut() else {
            return;
        };
        if r.members.contains(&peer) {
            r.emit(&CohortEvent::Acquire(CohortAcquire {
                round,
                peer,
                piece,
                source,
            }));
        }
    }

    /// Records a slot open/close on a traced peer.
    #[inline]
    pub fn slot(&mut self, round: u64, peer: u64, other: u64, opened: bool) {
        let Some(r) = self.inner.as_deref_mut() else {
            return;
        };
        if r.members.contains(&peer) {
            r.emit(&CohortEvent::Slot(CohortSlot {
                round,
                peer,
                other,
                opened,
            }));
        }
    }

    /// Records the phase of a traced peer, emitting a transition event
    /// only when it changed since the last call.
    #[inline]
    pub fn phase(&mut self, round: u64, peer: u64, phase: u8) {
        let Some(r) = self.inner.as_deref_mut() else {
            return;
        };
        if !r.members.contains(&peer) {
            return;
        }
        if r.last_phase.insert(peer, phase) != Some(phase) {
            r.emit(&CohortEvent::Phase(CohortPhase { round, peer, phase }));
        }
    }

    /// Records the per-round observation of a traced peer.
    #[inline]
    pub fn observe(&mut self, round: u64, peer: u64, pieces: u32, connections: u32) {
        let Some(r) = self.inner.as_deref_mut() else {
            return;
        };
        if r.members.contains(&peer) {
            r.emit(&CohortEvent::Observe(CohortObserve {
                round,
                peer,
                pieces,
                connections,
            }));
        }
    }

    /// Records a neighbor-set shake of a traced peer.
    #[inline]
    pub fn shake(&mut self, round: u64, peer: u64) {
        let Some(r) = self.inner.as_deref_mut() else {
            return;
        };
        if r.members.contains(&peer) {
            r.emit(&CohortEvent::Shake(CohortShake { round, peer }));
        }
    }

    /// Records a tracker handout delivered to a traced peer.
    #[inline]
    pub fn handout(&mut self, round: u64, peer: u64, entries: u32) {
        let Some(r) = self.inner.as_deref_mut() else {
            return;
        };
        if r.members.contains(&peer) {
            r.emit(&CohortEvent::Handout(CohortHandout {
                round,
                peer,
                entries,
            }));
        }
    }

    /// Records the departure of a traced peer and ends its trace. The
    /// reservoir slot stays occupied so Algorithm R's uniformity over
    /// the whole arrival stream is preserved.
    #[inline]
    pub fn depart(&mut self, round: u64, peer: u64, pieces: u32) {
        let Some(r) = self.inner.as_deref_mut() else {
            return;
        };
        if r.members.remove(&peer) {
            r.last_phase.remove(&peer);
            r.emit(&CohortEvent::Depart(CohortDepart {
                round,
                peer,
                pieces,
            }));
        }
    }

    /// Events written so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.events)
    }

    /// Flushes the underlying writer.
    pub fn finish(&mut self) {
        if let Some(r) = self.inner.as_deref_mut() {
            if let Some(writer) = r.writer.as_mut() {
                if let Err(e) = writer.flush() {
                    tracing::warn!(target: "bt_obs::cohort", error = e.to_string(); "cohort stream flush failed");
                }
            }
        }
    }
}

/// Parses a cohort stream: the [`CohortMeta`] line, then every
/// complete event line ([`crate::records::read_lines`]). A final line
/// cut short ends the stream, as in every JSON-lines artifact.
///
/// The events must be in the order [`CohortSink`] writes them: rounds
/// never decrease along the stream, and each peer's events lie between
/// its `Join` and its `Depart` or `Evict`. The lines carry no checksum,
/// so this is what catches a damaged digit that still parses.
///
/// # Errors
///
/// Propagates reader failures. A missing or malformed meta line, an
/// unknown schema version, a malformed event line, or events out of
/// that order is `ErrorKind::InvalidData`.
pub fn read_cohort<R: BufRead>(mut reader: R) -> std::io::Result<(CohortMeta, Vec<CohortEvent>)> {
    let mut first = Vec::new();
    reader.read_until(b'\n', &mut first)?;
    let invalid = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let meta: Vec<CohortMeta> = crate::records::read_lines(first.as_slice(), "cohort meta")?;
    let meta = *meta
        .first()
        .ok_or_else(|| invalid("cohort stream has no meta line".to_string()))?;
    if meta.schema_version != COHORT_SCHEMA_VERSION {
        return Err(invalid(format!(
            "cohort schema version {} unsupported (expected {COHORT_SCHEMA_VERSION})",
            meta.schema_version
        )));
    }
    let events = crate::records::read_lines(reader, "cohort events")?;
    check_order(&events).map_err(invalid)?;
    Ok((meta, events))
}

/// Checks the writer's ordering guarantees (see [`read_cohort`]),
/// naming the first event that breaks them.
fn check_order(events: &[CohortEvent]) -> Result<(), String> {
    // Per peer: `true` while traced, `false` once its trace ended.
    let mut traced: BTreeMap<u64, bool> = BTreeMap::new();
    let mut last_round = 0;
    for (index, event) in events.iter().enumerate() {
        let (peer, round) = (event.peer(), event.round());
        let at = || format!("cohort event {} (peer {peer}, round {round})", index + 1);
        if round < last_round {
            return Err(format!("{} comes after round {last_round}", at()));
        }
        let fault = match (traced.get(&peer).copied(), event) {
            (Some(true), CohortEvent::Join(_)) => Some("joins a traced peer again"),
            (None, CohortEvent::Join(_)) | (Some(true), _) => None,
            (None, _) => Some("comes before the peer's Join"),
            (Some(false), _) => Some("comes after the peer's trace ended"),
        };
        if let Some(fault) = fault {
            return Err(format!("{} {fault}", at()));
        }
        last_round = round;
        let ended = matches!(event, CohortEvent::Depart(_) | CohortEvent::Evict(_));
        traced.insert(peer, !ended);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Shared in-memory sink readable after the recorder owns the box.
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

    fn sink(size: u32, seed: u64) -> (CohortSink, SharedBuf) {
        let buf = SharedBuf::default();
        let sink = CohortSink::enabled(CohortOptions { size, seed }, Box::new(buf.clone()));
        (sink, buf)
    }

    /// The currently traced peer sequence numbers.
    fn members(s: &CohortSink) -> Vec<u64> {
        s.inner
            .as_ref()
            .map_or_else(Vec::new, |r| r.members.iter().copied().collect())
    }

    #[test]
    fn phase_tags_name_the_paper_phases_in_order() {
        let names: Vec<&str> = (0..=4).map(cohort_phase::name).collect();
        assert_eq!(
            names,
            ["bootstrap", "efficient", "last-download", "done", "?"]
        );
        assert_eq!(cohort_phase::DONE, 3);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut s = CohortSink::disabled();
        s.offer_join(0, 1);
        s.acquire(0, 1, 2, acquire_source::EXCHANGE);
        s.depart(1, 1, 3);
        assert!(s.inner.is_none());
        assert!(!s.is_member(1));
        assert_eq!(s.events(), 0);
    }

    #[test]
    fn round_trips_through_json_lines() {
        let (mut s, buf) = sink(2, 9);
        s.offer_join(0, 10);
        s.offer_join(0, 11);
        s.acquire(1, 10, 5, acquire_source::BOOTSTRAP);
        s.slot(2, 11, 10, true);
        s.phase(2, 10, 1);
        s.phase(3, 10, 1); // deduped
        s.observe(3, 11, 4, 2);
        s.shake(4, 10);
        s.handout(4, 11, 3);
        s.depart(5, 10, 16);
        s.finish();
        let (meta, events) = read_cohort(buf.contents().as_slice()).expect("parse");
        assert_eq!(meta.schema_version, COHORT_SCHEMA_VERSION);
        assert_eq!(meta.seed, 9);
        assert_eq!(meta.size, 2);
        assert_eq!(events.len() as u64, s.events());
        assert_eq!(
            events[0],
            CohortEvent::Join(CohortJoin { round: 0, peer: 10 })
        );
        assert!(matches!(
            events.last(),
            Some(CohortEvent::Depart(CohortDepart { pieces: 16, .. }))
        ));
        // Phase dedup: exactly one Phase record.
        let phases = events
            .iter()
            .filter(|e| matches!(e, CohortEvent::Phase(_)))
            .count();
        assert_eq!(phases, 1);
        let text = String::from_utf8(buf.contents()).expect("utf8");
        assert_eq!(text.lines().count(), events.len() + 1);
        assert!(text
            .lines()
            .next()
            .expect("meta line")
            .contains("\"seed\":9"));
    }

    #[test]
    fn reservoir_is_deterministic_and_bounded() {
        let run = || {
            let (mut s, buf) = sink(4, 123);
            for t in 0..200u64 {
                s.offer_join(t / 10, t);
            }
            s.finish();
            (members(&s), buf.contents())
        };
        let (members_a, bytes_a) = run();
        let (members_b, bytes_b) = run();
        assert_eq!(members_a, members_b, "same seed, same membership");
        assert_eq!(bytes_a, bytes_b, "same seed, byte-identical stream");
        assert!(members_a.len() <= 4);
        // A different seed picks a different cohort.
        let (mut other, _buf) = sink(4, 124);
        for t in 0..200u64 {
            other.offer_join(t / 10, t);
        }
        assert_ne!(members_a, members(&other), "distinct seeds diverge");
    }

    #[test]
    fn non_members_produce_no_events() {
        let (mut s, _buf) = sink(1, 7);
        s.offer_join(0, 1);
        let baseline = s.events();
        s.acquire(1, 999, 0, acquire_source::SEED);
        s.observe(1, 999, 1, 1);
        s.slot(1, 999, 1, false);
        assert_eq!(s.events(), baseline);
    }

    #[test]
    fn truncated_tail_reads_the_complete_records() {
        let (mut s, buf) = sink(2, 3);
        s.offer_join(0, 5);
        s.offer_join(0, 6);
        s.finish();
        let mut bytes = buf.contents();
        let (_, whole) = read_cohort(bytes.as_slice()).unwrap();
        assert_eq!(whole.len(), 2);
        bytes.pop();
        let (_, torn) = read_cohort(bytes.as_slice()).unwrap();
        assert_eq!(torn, whole[..1]);
        // A meta line cut short is still malformed.
        let err = read_cohort(&bytes[..10]).expect_err("meta truncation detected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn events_out_of_writer_order_rejected() {
        let meta = "{\"schema_version\":1,\"seed\":1,\"size\":4}\n";
        let join = "{\"Join\":{\"round\":3,\"peer\":7}}\n";
        let shake = |round: u64| format!("{{\"Shake\":{{\"round\":{round},\"peer\":7}}}}\n");
        let depart = "{\"Depart\":{\"round\":5,\"peer\":7,\"pieces\":2}}\n";
        let ok = format!("{meta}{join}{}{depart}", shake(4));
        assert_eq!(read_cohort(ok.as_bytes()).expect("writer order").1.len(), 3);
        for (stream, fault) in [
            (
                format!("{meta}{join}{}{}", shake(4), shake(2)),
                "comes after round 4",
            ),
            (
                format!("{meta}{}{join}", shake(3)),
                "before the peer's Join",
            ),
            (
                format!("{meta}{join}{depart}{}", shake(6)),
                "after the peer's trace ended",
            ),
            (format!("{meta}{join}{join}"), "joins a traced peer again"),
        ] {
            let err = read_cohort(stream.as_bytes()).expect_err(fault);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(fault), "{err}");
        }
    }

    #[test]
    fn bad_meta_line_rejected() {
        for first in [
            "NOTACOHORTSTREAM\n",
            "{\"schema_version\":2,\"seed\":1,\"size\":4}\n",
        ] {
            let err = read_cohort(first.as_bytes()).expect_err("bad meta line");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{first}: {err}"
            );
        }
    }
}
