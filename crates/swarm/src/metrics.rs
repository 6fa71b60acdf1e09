//! Measurement collection for swarm runs.
//!
//! Everything the paper's figures need: per-round population and entropy
//! series (Fig. 4(b)/(c)), potential-set size aggregated by piece count
//! (Fig. 1(a)), first-passage times to each piece count (Fig. 1(b)),
//! per-acquisition-index inter-piece times (Fig. 4(d)), connection-slot
//! utilization (Fig. 4(a)), and full per-round logs for designated
//! observer peers (Fig. 2).
//!
//! Completed downloads are kept as [`CompletionStats`], per-index sums
//! and counts, never as one record per peer. The per-peer
//! [`CompletionRecord`]s are an opt-in stream,
//! [`Swarm::attach_completions`](crate::Swarm::attach_completions),
//! read back with [`read_completions`].

use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};

use crate::peer::PeerId;

/// Outcome record of a completed download: one line of a completion
/// stream (see [`read_completions`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionRecord {
    /// The peer that completed.
    pub id: PeerId,
    /// Round it joined.
    pub joined_round: u64,
    /// Round it held the full file.
    pub completed_round: u64,
    /// Rounds (absolute) at which the 1st, 2nd, … piece was acquired,
    /// sorted ascending.
    pub acquisition_rounds: Vec<u64>,
    /// Whether the peer belonged to the slow bandwidth class.
    #[serde(default)]
    pub slow: bool,
}

/// What the completion-side figures need of every completed download,
/// accumulated as peers depart: per-index sums and counts instead of
/// one [`CompletionRecord`] per peer, so memory follows the live swarm
/// rather than its history.
///
/// Index `j` (0-based) holds the completions whose acquisition log
/// reached its `j + 1`-th entry: how many, the sum of
/// `acq[j] − joined` and the sum of the inter-piece times
/// `acq[j] − acq[j−1]` (`acq[−1]` being the join round). Durations are
/// summed per bandwidth class. Every sum is an integer and every mean
/// divides it, converted to `f64`, by its count: while a sum stays
/// below 2^53 that conversion is exact, so a mean equals the one a
/// record-by-record `f64` sum would give, bit for bit and in any order.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompletionStats {
    /// Completions whose log has a `j + 1`-th acquisition, per index `j`.
    reached: Vec<u64>,
    /// Σ `acq[j] − joined` in rounds, per index `j`.
    time_to_piece_sum: Vec<u64>,
    /// Σ `acq[j] − acq[j−1]` in rounds, per index `j`.
    inter_piece_sum: Vec<u64>,
    /// Σ download durations in rounds, `[fast, slow]`.
    duration_sum: [u64; 2],
    /// Completions per bandwidth class, `[fast, slow]`.
    class_count: [u64; 2],
}

impl CompletionStats {
    /// An empty accumulator for a file of `pieces` pieces.
    #[must_use]
    pub fn new(pieces: u32) -> Self {
        let per_index = vec![0; pieces as usize];
        CompletionStats {
            reached: per_index.clone(),
            time_to_piece_sum: per_index.clone(),
            inter_piece_sum: per_index,
            ..CompletionStats::default()
        }
    }

    /// Adds one completed download: joined at `joined_round`, complete
    /// at `completed_round`, with its acquisition rounds in order.
    pub fn record(
        &mut self,
        joined_round: u64,
        completed_round: u64,
        acquisition_rounds: impl IntoIterator<Item = u64>,
        slow: bool,
    ) {
        let mut previous = joined_round;
        for (j, round) in acquisition_rounds.into_iter().enumerate() {
            if j == self.reached.len() {
                self.reached.push(0);
                self.time_to_piece_sum.push(0);
                self.inter_piece_sum.push(0);
            }
            self.reached[j] += 1;
            self.time_to_piece_sum[j] += round - joined_round;
            self.inter_piece_sum[j] += round.saturating_sub(previous);
            previous = round;
        }
        let class = usize::from(slow);
        self.duration_sum[class] += completed_round - joined_round;
        self.class_count[class] += 1;
    }

    /// Number of completions recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.class_count[0] + self.class_count[1]
    }

    /// Fig. 1(b): mean round (relative to join) at which completed peers
    /// first held `b` pieces, for `b = 0..=B` (NaN where no completion
    /// reached `b`, and everywhere if there are none).
    #[must_use]
    pub fn mean_time_to_pieces(&self) -> Vec<f64> {
        let first = if self.count() == 0 { f64::NAN } else { 0.0 };
        std::iter::once(first)
            .chain(per_index_means(&self.time_to_piece_sum, &self.reached))
            .collect()
    }

    /// Fig. 4(d): mean inter-piece time for each acquisition index
    /// `1..=B` over completed peers (index 0 of the result is unused NaN).
    #[must_use]
    pub fn mean_inter_piece_times(&self) -> Vec<f64> {
        std::iter::once(f64::NAN)
            .chain(per_index_means(&self.inter_piece_sum, &self.reached))
            .collect()
    }

    /// Mean bootstrap duration over completions: rounds from joining to
    /// holding a second piece (the paper's bootstrap-phase exit). NaN if
    /// there are no completions with at least two pieces.
    #[must_use]
    pub fn mean_bootstrap_rounds(&self) -> f64 {
        match (self.time_to_piece_sum.get(1), self.reached.get(1)) {
            (Some(&sum), Some(&n)) => mean(sum, n),
            _ => f64::NAN,
        }
    }

    /// Mean download duration in rounds over completions (NaN if none).
    #[must_use]
    pub fn mean_download_rounds(&self) -> f64 {
        mean(self.duration_sum[0] + self.duration_sum[1], self.count())
    }

    /// Mean download duration in rounds split by bandwidth class:
    /// `(fast, slow)`; NaN entries where a class has no completions.
    #[must_use]
    pub fn mean_download_rounds_by_class(&self) -> (f64, f64) {
        (
            mean(self.duration_sum[0], self.class_count[0]),
            mean(self.duration_sum[1], self.class_count[1]),
        )
    }
}

/// `sum / n` as `f64`, NaN when `n` is 0. Exact conversions while `sum`
/// stays below 2^53 (see [`CompletionStats`]).
fn mean(sum: u64, n: u64) -> f64 {
    if n == 0 {
        f64::NAN
    } else {
        sum as f64 / n as f64
    }
}

fn per_index_means<'a>(sums: &'a [u64], counts: &'a [u64]) -> impl Iterator<Item = f64> + 'a {
    sums.iter().zip(counts).map(|(&sum, &n)| mean(sum, n))
}

/// Schema version of a completion stream.
pub const COMPLETION_SCHEMA_VERSION: u32 = 1;

/// The first line of a completion stream: what the records after it
/// describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionMeta {
    /// [`COMPLETION_SCHEMA_VERSION`] of the writer.
    pub schema_version: u32,
    /// Pieces `B` of the file: no acquisition log is longer.
    pub pieces: u32,
    /// Metrics warm-up: peers that joined before this round leave no
    /// record.
    pub warmup_rounds: u64,
}

/// The opt-in per-peer completion stream: a [`CompletionMeta`] line,
/// then one [`CompletionRecord`] per line in completion order, each
/// through [`bt_obs::records::write_line`]. The depart stage calls it
/// for every completion it counts; a disabled stream builds no record.
#[derive(Default)]
pub(crate) struct CompletionStream {
    writer: Option<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for CompletionStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionStream")
            .field("enabled", &self.writer.is_some())
            .finish()
    }
}

impl CompletionStream {
    /// A stream writing `meta` to `writer` now and records as they come.
    /// A failed header write disables it with a warning.
    pub(crate) fn enabled(meta: CompletionMeta, mut writer: Box<dyn Write + Send>) -> Self {
        let writer = match bt_obs::records::write_line(&mut writer, &meta) {
            Ok(()) => Some(writer),
            Err(e) => {
                tracing::warn!(target: "bt_swarm", error = e.to_string(); "completion stream header write failed; stream disabled");
                None
            }
        };
        CompletionStream { writer }
    }

    /// Writes the record of `id`, which joined at `joined_round`,
    /// acquired its pieces at `acquisition_rounds` and completed at
    /// `completed_round`. A write error stops the stream with a warning.
    pub(crate) fn write(
        &mut self,
        id: PeerId,
        joined_round: u64,
        completed_round: u64,
        acquisition_rounds: &[u32],
        slow: bool,
    ) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        let record = CompletionRecord {
            id,
            joined_round,
            completed_round,
            acquisition_rounds: acquisition_rounds.iter().map(|&r| u64::from(r)).collect(),
            slow,
        };
        if let Err(e) = bt_obs::records::write_line(writer, &record) {
            tracing::warn!(target: "bt_swarm", error = e.to_string(); "completion stream write failed; stream stops");
            self.writer = None;
        }
    }

    /// Flushes the writer, warning on failure.
    pub(crate) fn finish(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            if let Err(e) = writer.flush() {
                tracing::warn!(target: "bt_swarm", error = e.to_string(); "completion stream flush failed");
            }
        }
    }
}

/// Parses a completion stream: the [`CompletionMeta`] line, then every
/// complete record line ([`bt_obs::records::read_lines`]); a final line
/// cut short ends the stream.
///
/// The records must be what the writer produces, which is what catches
/// a damaged digit that still parses: completion rounds never decrease
/// along the stream, each peer joined no earlier than the warm-up and
/// no later than it completed, its acquisition rounds lie in between in
/// order, and it holds at most `pieces` of them.
///
/// # Errors
///
/// Propagates reader failures. A missing or malformed meta line, an
/// unknown schema version, a malformed record line, or a record that
/// breaks those rules is `ErrorKind::InvalidData`.
pub fn read_completions<R: BufRead>(
    mut reader: R,
) -> std::io::Result<(CompletionMeta, Vec<CompletionRecord>)> {
    let invalid = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let mut first = Vec::new();
    reader.read_until(b'\n', &mut first)?;
    let meta: Vec<CompletionMeta> =
        bt_obs::records::read_lines(first.as_slice(), "completion meta")?;
    let meta = *meta
        .first()
        .ok_or_else(|| invalid("completion stream has no meta line".to_string()))?;
    if meta.schema_version != COMPLETION_SCHEMA_VERSION {
        return Err(invalid(format!(
            "completion schema version {} unsupported (expected {COMPLETION_SCHEMA_VERSION})",
            meta.schema_version
        )));
    }
    let records: Vec<CompletionRecord> = bt_obs::records::read_lines(reader, "completion records")?;
    let mut last_completed = 0;
    for (index, rec) in records.iter().enumerate() {
        let in_order = rec.joined_round >= meta.warmup_rounds
            && rec.completed_round >= last_completed
            && rec.acquisition_rounds.len() <= meta.pieces as usize
            && std::iter::once(rec.joined_round)
                .chain(rec.acquisition_rounds.iter().copied())
                .chain(std::iter::once(rec.completed_round))
                .is_sorted();
        if !in_order {
            return Err(invalid(format!(
                "completion record {} (peer {}) is not one the writer produces: \
                 rounds out of order, before the warm-up, or more than {} pieces",
                index + 1,
                rec.id,
                meta.pieces
            )));
        }
        last_completed = rec.completed_round;
    }
    Ok((meta, records))
}

/// Per-round log of a designated observer peer — the raw material of the
/// paper's Fig. 2 and of the trace toolkit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverLog {
    /// The observed peer.
    pub id: PeerId,
    /// Sampled rounds (absolute).
    pub rounds: Vec<u64>,
    /// Pieces held at each sample.
    pub pieces: Vec<u32>,
    /// Potential-set size at each sample.
    pub potential: Vec<u32>,
    /// Active connections at each sample.
    pub connections: Vec<u32>,
    /// Round the peer completed, set by the depart stage when the
    /// completion is counted (the peer joined after the warm-up);
    /// `None` otherwise.
    #[serde(default)]
    pub completed_round: Option<u64>,
}

impl ObserverLog {
    /// Creates an empty log for `id`.
    #[must_use]
    pub fn new(id: PeerId) -> Self {
        ObserverLog {
            id,
            rounds: Vec::new(),
            pieces: Vec::new(),
            potential: Vec::new(),
            connections: Vec::new(),
            completed_round: None,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

/// Aggregated metrics of a swarm run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SwarmMetrics {
    /// `(round, leecher population)` samples.
    pub population: Vec<(u64, u64)>,
    /// `(round, entropy E = min(d)/max(d))` samples.
    pub entropy: Vec<(u64, f64)>,
    /// Completed downloads counted after warm-up, as per-index sums and
    /// counts.
    pub completions: CompletionStats,
    /// Σ potential-set sizes, bucketed by pieces held.
    pub potential_sum_by_pieces: Vec<f64>,
    /// Sample counts per bucket.
    pub potential_count_by_pieces: Vec<u64>,
    /// Σ per-round slot utilization samples.
    pub utilization_sum: f64,
    /// Number of utilization samples.
    pub utilization_samples: u64,
    /// Full logs of observer peers.
    pub observers: Vec<ObserverLog>,
    /// Total arrivals (including initial leechers).
    pub arrivals: u64,
    /// Total completed departures.
    pub departures: u64,
    /// Rounds executed.
    pub rounds_run: u64,
}

impl SwarmMetrics {
    /// Creates an empty collector for a file of `pieces` pieces.
    #[must_use]
    pub fn new(pieces: u32) -> Self {
        SwarmMetrics {
            completions: CompletionStats::new(pieces),
            potential_sum_by_pieces: vec![0.0; pieces as usize + 1],
            potential_count_by_pieces: vec![0; pieces as usize + 1],
            ..SwarmMetrics::default()
        }
    }

    /// Mean potential-set size at each piece count (NaN where unobserved)
    /// — the Fig. 1(a) series before normalization.
    #[must_use]
    pub fn mean_potential_by_pieces(&self) -> Vec<f64> {
        self.potential_sum_by_pieces
            .iter()
            .zip(&self.potential_count_by_pieces)
            .map(|(&sum, &n)| if n == 0 { f64::NAN } else { sum / n as f64 })
            .collect()
    }

    /// Fig. 1(a): mean potential-set size divided by the neighbor-set size.
    #[must_use]
    pub fn potential_ratio_by_pieces(&self, neighbor_set_size: u32) -> Vec<f64> {
        self.mean_potential_by_pieces()
            .iter()
            .map(|v| v / f64::from(neighbor_set_size))
            .collect()
    }

    /// Average connection-slot utilization (the Fig. 4(a) "simulation"
    /// series); NaN if never sampled.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization_samples == 0 {
            f64::NAN
        } else {
            self.utilization_sum / self.utilization_samples as f64
        }
    }

    /// Final entropy sample, or NaN.
    #[must_use]
    pub fn final_entropy(&self) -> f64 {
        self.entropy.last().map_or(f64::NAN, |&(_, e)| e)
    }

    /// Final population sample, or 0.
    #[must_use]
    pub fn final_population(&self) -> u64 {
        self.population.last().map_or(0, |&(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(joined: u64, acq: &[u64]) -> CompletionRecord {
        CompletionRecord {
            id: PeerId::synthetic(1),
            joined_round: joined,
            completed_round: *acq.last().unwrap(),
            acquisition_rounds: acq.to_vec(),
            slow: false,
        }
    }

    fn stats_of(pieces: u32, records: &[CompletionRecord]) -> CompletionStats {
        let mut stats = CompletionStats::new(pieces);
        for rec in records {
            stats.record(
                rec.joined_round,
                rec.completed_round,
                rec.acquisition_rounds.iter().copied(),
                rec.slow,
            );
        }
        stats
    }

    /// The record-based reducers the accumulator replaced, kept as the
    /// oracles it must match bit for bit.
    mod oracle {
        use super::CompletionRecord;

        fn duration(rec: &CompletionRecord) -> u64 {
            rec.completed_round - rec.joined_round
        }

        fn inter_piece_time(rec: &CompletionRecord, j: usize) -> Option<u64> {
            if j == 0 || j > rec.acquisition_rounds.len() {
                return None;
            }
            let prev = if j == 1 {
                rec.joined_round
            } else {
                rec.acquisition_rounds[j - 2]
            };
            Some(rec.acquisition_rounds[j - 1].saturating_sub(prev))
        }

        #[allow(clippy::needless_range_loop)] // index b is the piece count itself
        pub fn mean_time_to_pieces(records: &[CompletionRecord], pieces: u32) -> Vec<f64> {
            let mut out = vec![f64::NAN; pieces as usize + 1];
            if records.is_empty() {
                return out;
            }
            out[0] = 0.0;
            for b in 1..=pieces as usize {
                let mut sum = 0.0;
                let mut n = 0u64;
                for rec in records {
                    if let Some(&round) = rec.acquisition_rounds.get(b - 1) {
                        sum += (round - rec.joined_round) as f64;
                        n += 1;
                    }
                }
                if n > 0 {
                    out[b] = sum / n as f64;
                }
            }
            out
        }

        pub fn mean_inter_piece_times(records: &[CompletionRecord], pieces: u32) -> Vec<f64> {
            let mut out = vec![f64::NAN; pieces as usize + 1];
            for (j, slot) in out.iter_mut().enumerate().skip(1) {
                let mut sum = 0.0;
                let mut n = 0u64;
                for rec in records {
                    if let Some(t) = inter_piece_time(rec, j) {
                        sum += t as f64;
                        n += 1;
                    }
                }
                if n > 0 {
                    *slot = sum / n as f64;
                }
            }
            out
        }

        pub fn mean_bootstrap_rounds(records: &[CompletionRecord]) -> f64 {
            let mut sum = 0.0;
            let mut n = 0u64;
            for rec in records {
                if let Some(&second) = rec.acquisition_rounds.get(1) {
                    sum += (second - rec.joined_round) as f64;
                    n += 1;
                }
            }
            if n == 0 {
                f64::NAN
            } else {
                sum / n as f64
            }
        }

        pub fn mean_download_rounds_by_class(records: &[CompletionRecord]) -> (f64, f64) {
            let mean_of = |slow: bool| {
                let durations: Vec<f64> = records
                    .iter()
                    .filter(|r| r.slow == slow)
                    .map(|r| duration(r) as f64)
                    .collect();
                if durations.is_empty() {
                    f64::NAN
                } else {
                    durations.iter().sum::<f64>() / durations.len() as f64
                }
            };
            (mean_of(false), mean_of(true))
        }

        pub fn mean_download_rounds(records: &[CompletionRecord]) -> f64 {
            if records.is_empty() {
                return f64::NAN;
            }
            records.iter().map(|r| duration(r) as f64).sum::<f64>() / records.len() as f64
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A completion of a `pieces`-piece file: joined at `joined`, with
    /// `initial` pieces logged at the join round, then one acquisition
    /// after each gap, `missing` of the pieces never logged (a short
    /// log), completing `tail` rounds after its last acquisition.
    fn completion(
        pieces: u32,
        (joined, initial, gaps, missing, tail, slow): (u64, u32, Vec<u64>, u32, u64, bool),
    ) -> CompletionRecord {
        let logged = pieces.saturating_sub(missing) as usize;
        let mut rounds = vec![joined; (initial as usize).min(logged)];
        let mut round = joined;
        for gap in gaps.into_iter().cycle().take(logged - rounds.len()) {
            round += gap;
            rounds.push(round);
        }
        CompletionRecord {
            id: PeerId::synthetic(joined),
            joined_round: joined,
            completed_round: round + tail,
            acquisition_rounds: rounds,
            slow,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn accumulator_means_equal_the_record_oracles_bit_for_bit(
            pieces in 1u32..12,
            raw in prop::collection::vec(
                (
                    0u64..500,
                    0u32..6,
                    prop::collection::vec(0u64..40, 1..5),
                    0u32..3,
                    0u64..3,
                    any::<bool>(),
                ),
                0..24,
            ),
            warmup in 0u64..300,
        ) {
            // Warm-up skips: only records of peers that joined at or
            // after it are kept, as the depart stage does.
            let records: Vec<CompletionRecord> = raw
                .into_iter()
                .map(|r| completion(pieces, r))
                .filter(|rec| rec.joined_round >= warmup)
                .collect();
            let stats = stats_of(pieces, &records);
            prop_assert_eq!(stats.count(), records.len() as u64);
            prop_assert_eq!(
                bits(&stats.mean_time_to_pieces()),
                bits(&oracle::mean_time_to_pieces(&records, pieces))
            );
            prop_assert_eq!(
                bits(&stats.mean_inter_piece_times()),
                bits(&oracle::mean_inter_piece_times(&records, pieces))
            );
            prop_assert_eq!(
                stats.mean_bootstrap_rounds().to_bits(),
                oracle::mean_bootstrap_rounds(&records).to_bits()
            );
            prop_assert_eq!(
                stats.mean_download_rounds().to_bits(),
                oracle::mean_download_rounds(&records).to_bits()
            );
            let (fast, slow) = stats.mean_download_rounds_by_class();
            let (fast_oracle, slow_oracle) = oracle::mean_download_rounds_by_class(&records);
            prop_assert_eq!(fast.to_bits(), fast_oracle.to_bits());
            prop_assert_eq!(slow.to_bits(), slow_oracle.to_bits());
        }

        #[test]
        fn completion_streams_round_trip(
            pieces in 1u32..12,
            raw in prop::collection::vec(
                (
                    0u64..500,
                    0u32..6,
                    prop::collection::vec(0u64..40, 1..5),
                    0u32..3,
                    0u64..3,
                    any::<bool>(),
                ),
                0..8,
            ),
        ) {
            let mut records: Vec<CompletionRecord> =
                raw.into_iter().map(|r| completion(pieces, r)).collect();
            records.sort_by_key(|rec| rec.completed_round);
            let meta = CompletionMeta {
                schema_version: COMPLETION_SCHEMA_VERSION,
                pieces,
                warmup_rounds: 0,
            };
            let mut bytes = Vec::new();
            bt_obs::records::write_line(&mut bytes, &meta).unwrap();
            for rec in &records {
                bt_obs::records::write_line(&mut bytes, rec).unwrap();
            }
            let (read_meta, read) = read_completions(&bytes[..]).expect("stream reads back");
            prop_assert_eq!(read_meta, meta);
            prop_assert_eq!(read, records);
        }
    }

    #[test]
    fn mean_time_to_pieces_averages_over_completions() {
        let stats = stats_of(3, &[record(0, &[1, 2, 3]), record(10, &[13, 14, 15])]);
        let mean = stats.mean_time_to_pieces();
        assert_eq!(mean.len(), 4);
        assert_eq!(mean[0], 0.0);
        assert!((mean[1] - 2.0).abs() < 1e-12); // (1 + 3) / 2
        assert!((mean[3] - 4.0).abs() < 1e-12); // (3 + 5) / 2
        assert!((stats.mean_bootstrap_rounds() - 3.0).abs() < 1e-12); // (2 + 4) / 2
        assert!((stats.mean_download_rounds() - 4.0).abs() < 1e-12);
        assert_eq!(stats.count(), 2);
    }

    #[test]
    fn empty_stats_are_nan() {
        let stats = CompletionStats::new(3);
        assert_eq!(stats.count(), 0);
        assert!(stats.mean_time_to_pieces().iter().all(|v| v.is_nan()));
        assert!(stats.mean_inter_piece_times().iter().all(|v| v.is_nan()));
        assert!(stats.mean_bootstrap_rounds().is_nan());
        assert!(stats.mean_download_rounds().is_nan());
        let (fast, slow) = stats.mean_download_rounds_by_class();
        assert!(fast.is_nan() && slow.is_nan());
    }

    #[test]
    fn inter_piece_means() {
        let stats = stats_of(3, &[record(0, &[1, 2, 10])]);
        let gaps = stats.mean_inter_piece_times();
        assert!(gaps[0].is_nan());
        assert!((gaps[1] - 1.0).abs() < 1e-12);
        assert!((gaps[3] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn reader_rejects_records_the_writer_never_produces() {
        let meta = CompletionMeta {
            schema_version: COMPLETION_SCHEMA_VERSION,
            pieces: 3,
            warmup_rounds: 5,
        };
        let stream = |records: &[CompletionRecord]| {
            let mut bytes = Vec::new();
            bt_obs::records::write_line(&mut bytes, &meta).unwrap();
            for rec in records {
                bt_obs::records::write_line(&mut bytes, rec).unwrap();
            }
            read_completions(&bytes[..])
        };
        let good = record(5, &[6, 7, 9]);
        assert_eq!(
            stream(std::slice::from_ref(&good)).unwrap().1,
            vec![good.clone()]
        );
        let mut joined_late = good.clone();
        joined_late.joined_round = 8;
        let mut completed_early = good.clone();
        completed_early.completed_round = 4;
        let later = record(6, &[7, 8, 12]);
        for (bad, why) in [
            (vec![record(4, &[6, 7, 9])], "joined during warm-up"),
            (vec![record(5, &[6, 7, 8, 9])], "more pieces than the file"),
            (vec![record(5, &[7, 6, 9])], "acquisitions out of order"),
            (vec![joined_late], "joined after its first acquisition"),
            (vec![completed_early], "completed before it joined"),
            (vec![later, good.clone()], "completions out of order"),
        ] {
            let err = stream(&bad).expect_err(why);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{why}");
        }
        let err = read_completions(&b""[..]).expect_err("no meta line");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn potential_ratio_normalizes() {
        let mut m = SwarmMetrics::new(2);
        m.potential_sum_by_pieces[1] = 30.0;
        m.potential_count_by_pieces[1] = 10;
        let ratio = m.potential_ratio_by_pieces(6);
        assert!((ratio[1] - 0.5).abs() < 1e-12);
        assert!(ratio[0].is_nan());
    }

    #[test]
    fn utilization_mean() {
        let mut m = SwarmMetrics::new(2);
        assert!(m.mean_utilization().is_nan());
        m.utilization_sum = 1.5;
        m.utilization_samples = 3;
        assert!((m.mean_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn final_series_accessors() {
        let mut m = SwarmMetrics::new(2);
        assert!(m.final_entropy().is_nan());
        assert_eq!(m.final_population(), 0);
        m.entropy.push((5, 0.7));
        m.population.push((5, 42));
        assert_eq!(m.final_entropy(), 0.7);
        assert_eq!(m.final_population(), 42);
    }

    #[test]
    fn observer_log_len() {
        let mut log = ObserverLog::new(PeerId::synthetic(0));
        assert!(log.is_empty());
        log.rounds.push(1);
        log.pieces.push(0);
        log.potential.push(2);
        log.connections.push(0);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn metrics_serialize() {
        let mut m = SwarmMetrics::new(4);
        m.completions.record(3, 9, [3, 5, 7, 9], true);
        let json = serde_json::to_string(&m).unwrap();
        let back: SwarmMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
