//! Property-based and invariant tests for the swarm simulator.

use bt_model::stability::entropy;
use bt_swarm::config::{BootstrapInjection, InitialPieces, PieceSelection};
use bt_swarm::metrics::{read_completions, CompletionRecord};
use bt_swarm::piece::Bitfield;
use bt_swarm::selection::replication_counts;
use bt_swarm::{Swarm, SwarmConfig, SwarmMetrics};
use proptest::prelude::*;

/// An in-memory completion stream the test keeps a handle to.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `config` with a completion stream attached and reads the
/// per-peer records back from it.
fn run_recorded(config: SwarmConfig) -> (SwarmMetrics, Vec<CompletionRecord>) {
    let buf = SharedBuf::default();
    let mut swarm = Swarm::new(config);
    swarm.attach_completions(Box::new(buf.clone()));
    let metrics = swarm.run();
    let bytes = buf.0.lock().expect("buffer lock").clone();
    let (_, records) = read_completions(&bytes[..]).expect("the stream reads back");
    (metrics, records)
}

/// Strategy: a small but varied swarm configuration.
fn small_config() -> impl Strategy<Value = SwarmConfig> {
    (
        2u32..=16,    // pieces
        1u32..=4,     // k
        1u32..=8,     // s
        0.0f64..2.0,  // arrival rate
        0u32..=20,    // initial leechers
        0.3f64..=1.0, // p_r
        0.3f64..=1.0, // p_n
        any::<u64>(),
        prop::bool::ANY, // rarest vs random
        0u32..=3,        // seed uploads
    )
        .prop_map(
            |(pieces, k, s, lambda, init, p_r, p_n, seed, rarest, uploads)| {
                let mut config = SwarmConfig::builder()
                    .pieces(pieces)
                    .max_connections(k)
                    .neighbor_set_size(s)
                    .arrival_rate(lambda)
                    .initial_leechers(init)
                    .p_reencounter(p_r)
                    .piece_selection(if rarest {
                        PieceSelection::RarestFirst
                    } else {
                        PieceSelection::RandomFirst
                    })
                    .seed_uploads_per_round(uploads)
                    .max_rounds(40)
                    .seed(seed)
                    .build()
                    .expect("strategy generates valid configs");
                config.p_new_connection = p_n;
                config
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_throughout(config in small_config()) {
        let mut swarm = Swarm::new(config);
        for _ in 0..40 {
            swarm.step_round();
            swarm.assert_invariants();
        }
    }

    #[test]
    fn metrics_are_consistent(config in small_config()) {
        let pieces = config.pieces;
        let (metrics, records) = run_recorded(config);
        prop_assert_eq!(records.len() as u64, metrics.completions.count());
        prop_assert!(metrics.completions.count() <= metrics.departures);
        prop_assert!(metrics.arrivals >= metrics.departures);
        for rec in &records {
            prop_assert_eq!(rec.acquisition_rounds.len(), pieces as usize);
            prop_assert!(rec.completed_round >= rec.joined_round);
            for w in rec.acquisition_rounds.windows(2) {
                prop_assert!(w[1] >= w[0]);
            }
            prop_assert!(*rec.acquisition_rounds.last().unwrap() <= rec.completed_round);
        }
        // Population series matches arrivals - departures at the end.
        prop_assert_eq!(
            metrics.final_population(),
            metrics.arrivals - metrics.departures
        );
        for &(_, e) in &metrics.entropy {
            prop_assert!((0.0..=1.0).contains(&e));
        }
        let u = metrics.mean_utilization();
        prop_assert!(u.is_nan() || (0.0..=1.0).contains(&u));
    }

    #[test]
    fn runs_are_reproducible(config in small_config()) {
        let a = Swarm::new(config.clone()).run();
        let b = Swarm::new(config).run();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn bitfield_roundtrip(pieces in prop::collection::btree_set(0u32..64, 0..30)) {
        let mut bf = Bitfield::new(64);
        for &p in &pieces {
            bf.set(p);
        }
        prop_assert_eq!(bf.count() as usize, pieces.len());
        let have: Vec<u32> = bf.iter().collect();
        prop_assert_eq!(have, pieces.iter().copied().collect::<Vec<_>>());
        let missing = bf.iter_missing().count();
        prop_assert_eq!(missing + pieces.len(), 64);
    }

    #[test]
    fn trade_relation_is_symmetric(
        a in prop::collection::btree_set(0u32..16, 0..16),
        b in prop::collection::btree_set(0u32..16, 0..16),
    ) {
        let mut fa = Bitfield::new(16);
        let mut fb = Bitfield::new(16);
        for &p in &a { fa.set(p); }
        for &p in &b { fb.set(p); }
        prop_assert_eq!(fa.can_trade_with(&fb), fb.can_trade_with(&fa));
        // Tradability is exactly "neither set contains the other".
        let a_minus_b = a.difference(&b).count();
        let b_minus_a = b.difference(&a).count();
        prop_assert_eq!(fa.can_trade_with(&fb), a_minus_b > 0 && b_minus_a > 0);
    }

    #[test]
    fn replication_counts_bounded_by_population(
        fields in prop::collection::vec(prop::collection::btree_set(0u32..8, 0..8), 0..10)
    ) {
        let bitfields: Vec<Bitfield> = fields
            .iter()
            .map(|set| {
                let mut bf = Bitfield::new(8);
                for &p in set {
                    bf.set(p);
                }
                bf
            })
            .collect();
        let counts = replication_counts(8, bitfields.iter().map(Bitfield::row));
        for &c in &counts {
            prop_assert!(c <= bitfields.len() as u64);
        }
        let total: u64 = counts.iter().sum();
        let held: u64 = bitfields.iter().map(|b| u64::from(b.count())).sum();
        prop_assert_eq!(total, held);
    }

    #[test]
    fn entropy_scale_invariant(reps in prop::collection::vec(1u64..100, 1..20), factor in 1u64..10) {
        let scaled: Vec<u64> = reps.iter().map(|&d| d * factor).collect();
        let e1 = entropy(&reps);
        let e2 = entropy(&scaled);
        prop_assert!((e1 - e2).abs() < 1e-12);
    }
}

#[test]
fn bootstrap_uniform_covers_pieces() {
    // With uniform injection and no trading partners (k irrelevant, single
    // peer), all pieces eventually arrive via injection... except injection
    // only serves empty peers, so a lone peer acquires exactly one piece.
    let config = SwarmConfig::builder()
        .pieces(8)
        .max_connections(1)
        .neighbor_set_size(1)
        .arrival_rate(0.0)
        .initial_leechers(1)
        .bootstrap(BootstrapInjection::Uniform)
        .seed_uploads_per_round(0)
        .max_rounds(30)
        .seed(5)
        .build()
        .unwrap();
    let metrics = Swarm::new(config).run();
    assert_eq!(metrics.departures, 0);
    assert_eq!(metrics.final_population(), 1);
}

#[test]
fn lone_peer_with_seed_completes() {
    // The origin seed alone can serve a whole download.
    let config = SwarmConfig::builder()
        .pieces(8)
        .max_connections(1)
        .neighbor_set_size(1)
        .arrival_rate(0.0)
        .initial_leechers(1)
        .seed_uploads_per_round(1)
        .max_rounds(100)
        .seed(5)
        .build()
        .unwrap();
    let metrics = Swarm::new(config).run();
    assert_eq!(metrics.departures, 1);
}

#[test]
fn skewed_initial_state_has_low_entropy() {
    let config = SwarmConfig::builder()
        .pieces(12)
        .max_connections(2)
        .neighbor_set_size(6)
        .arrival_rate(0.0)
        .initial_leechers(50)
        .initial_pieces(InitialPieces::Skewed {
            count: 4,
            strength: 0.2,
        })
        .bootstrap(BootstrapInjection::Off)
        .seed_uploads_per_round(0)
        .max_rounds(1)
        .seed(1)
        .build()
        .unwrap();
    let metrics = Swarm::new(config).run();
    assert!(
        metrics.entropy[0].1 < 0.3,
        "strength 0.2 should be very skewed, got {}",
        metrics.entropy[0].1
    );
}

#[test]
fn mean_bootstrap_rounds_is_finite_for_healthy_swarms() {
    let config = SwarmConfig::builder()
        .pieces(12)
        .max_connections(3)
        .neighbor_set_size(6)
        .arrival_rate(1.0)
        .initial_leechers(12)
        .max_rounds(150)
        .seed(41)
        .build()
        .unwrap();
    let metrics = Swarm::new(config).run();
    let bootstrap = metrics.completions.mean_bootstrap_rounds();
    assert!(bootstrap.is_finite());
    assert!(
        bootstrap >= 1.0,
        "second piece takes at least a round: {bootstrap}"
    );
    assert!(
        bootstrap <= metrics.completions.mean_download_rounds(),
        "bootstrap is a prefix of the download"
    );
}

#[test]
fn bootstrap_relief_does_not_break_invariants() {
    let config = SwarmConfig::builder()
        .pieces(12)
        .max_connections(3)
        .neighbor_set_size(6)
        .arrival_rate(2.0)
        .initial_leechers(12)
        .bootstrap_relief(true)
        .max_rounds(60)
        .seed(43)
        .build()
        .unwrap();
    let mut swarm = Swarm::new(config);
    for _ in 0..60 {
        swarm.step_round();
        swarm.assert_invariants();
    }
    assert!(swarm.metrics().departures > 0);
}

/// One event in a synthetic replication-index history. Indices are taken
/// modulo the live population / piece count so every generated sequence
/// is applicable.
#[derive(Debug, Clone)]
enum IndexEvent {
    /// A peer joins holding a pseudo-random subset of pieces.
    Arrival { held: Vec<bool> },
    /// An alive peer acquires one (possibly already-held) piece.
    Acquire { peer: usize, piece: usize },
    /// An alive peer departs with everything it holds.
    Depart { peer: usize },
}

fn index_event(pieces: usize) -> impl Strategy<Value = IndexEvent> {
    (
        0u32..3,
        prop::collection::vec(prop::bool::ANY, pieces),
        any::<usize>(),
        any::<usize>(),
    )
        .prop_map(|(tag, held, peer, piece)| match tag {
            0 => IndexEvent::Arrival { held },
            1 => IndexEvent::Acquire { peer, piece },
            _ => IndexEvent::Depart { peer },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The incrementally maintained index must equal a from-scratch
    /// rebuild from the surviving bitfields after ANY interleaving of
    /// arrivals, acquisitions, and departures — `replication_counts` is
    /// kept around precisely as this oracle.
    #[test]
    fn replication_index_matches_rebuild_under_arbitrary_histories(
        pieces in 1usize..=80,
        events in prop::collection::vec(index_event(80), 0..120),
    ) {
        use bt_swarm::ReplicationIndex;

        let mut index = ReplicationIndex::new(pieces as u32);
        let mut alive: Vec<Bitfield> = Vec::new();
        for event in events {
            match event {
                IndexEvent::Arrival { held } => {
                    let mut have = Bitfield::new(pieces as u32);
                    for (p, &h) in held.iter().take(pieces).enumerate() {
                        if h {
                            have.set(p as u32);
                        }
                    }
                    for piece in have.iter() {
                        index.on_acquire(piece);
                    }
                    alive.push(have);
                }
                IndexEvent::Acquire { peer, piece } => {
                    if alive.is_empty() {
                        continue;
                    }
                    let peer = peer % alive.len();
                    let piece = (piece % pieces) as u32;
                    if alive[peer].set(piece) {
                        index.on_acquire(piece);
                    }
                }
                IndexEvent::Depart { peer } => {
                    if alive.is_empty() {
                        continue;
                    }
                    let gone = alive.swap_remove(peer % alive.len());
                    index.on_departure(gone.row());
                }
            }
            let oracle = replication_counts(pieces as u32, alive.iter().map(Bitfield::row));
            prop_assert_eq!(index.counts(), &oracle[..]);
        }
    }
}
