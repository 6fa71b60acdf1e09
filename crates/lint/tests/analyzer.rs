//! Integration tests for the workspace analyzer (cross-file dataflow,
//! stage contracts, waiver accounting) against the miniature fixture
//! workspace in `tests/fixtures/analyzer/`.
//!
//! The fixture workspace mirrors the real repo's shape — a sanctioned
//! model crate (`crates/swarm`) with a stage subtree, an observer crate
//! (`crates/obs`), and a test tree — and packs one positive and one
//! negative case per rule family. A golden snapshot pins the full
//! diagnostic set and the stage-matrix JSON; regenerate after an
//! intentional change with
//! `BTLINT_BLESS=1 cargo test -p bt-lint --test analyzer`.

use std::path::{Path, PathBuf};

use bt_lint::{analyze_workspace, Analysis, Rule};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analyzer")
}

fn analysis() -> Analysis {
    analyze_workspace(&fixture_root()).expect("analyze fixture workspace")
}

/// `(rule, file)` pairs of all non-waived findings.
fn blocking_pairs(a: &Analysis) -> Vec<(&'static str, String)> {
    a.report
        .findings
        .iter()
        .filter(|f| f.blocking())
        .map(|f| (f.rule.name(), f.file.clone()))
        .collect()
}

#[test]
fn rng_reachability_positive_and_negative() {
    let a = analysis();
    let rng: Vec<_> = a
        .report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::RngReachability)
        .collect();
    // Positives: the observer crate and the in-crate monitor file.
    assert!(
        rng.iter()
            .any(|f| f.file == "crates/obs/src/lib.rs" && f.message.contains("peek")),
        "observer RNG use must be flagged: {rng:?}"
    );
    assert!(
        rng.iter()
            .any(|f| f.file == "crates/swarm/src/monitors.rs" && f.message.contains("watch")),
        "monitor RNG use must be flagged: {rng:?}"
    );
    // Negative: the sanctioned stage uses the RNG without findings.
    assert!(
        !rng.iter().any(|f| f.file.contains("stages")),
        "sanctioned stages must not be flagged: {rng:?}"
    );
}

#[test]
fn shared_state_audit_crosses_the_crate_boundary() {
    let a = analysis();
    let f = a
        .report
        .findings
        .iter()
        .find(|f| f.rule == Rule::SharedInteriorMut && f.file == "crates/swarm/src/lib.rs")
        .expect("interior-mutability helper call flagged at the model call site");
    assert!(f.message.contains("record_exchange"), "{}", f.message);
    assert!(f.message.contains("Mutex"), "{}", f.message);
    let u = a
        .report
        .findings
        .iter()
        .find(|f| f.rule == Rule::SharedUnorderedHelper && f.file == "crates/swarm/src/lib.rs")
        .expect("unordered-iteration helper call flagged at the model call site");
    assert!(u.message.contains("tally"), "{}", u.message);
    assert!(u.message.contains("HashMap"), "{}", u.message);
}

#[test]
fn stage_contracts_check_against_analyzed_capabilities() {
    let a = analysis();
    let contract: Vec<_> = a
        .report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::StageContract)
        .collect();
    // Exactly one stage is stale; the diagnostic embeds the exact fix.
    assert_eq!(contract.len(), 1, "{contract:?}");
    assert!(
        contract[0].message.contains("`stale`"),
        "{}",
        contract[0].message
    );
    assert!(
        contract[0]
            .message
            .contains("// bt-stage: reads(store), writes(tracker)"),
        "diagnostic must spell out the corrected annotation: {}",
        contract[0].message
    );
}

#[test]
fn waiver_accounting_flags_stale_and_keeps_used() {
    let a = analysis();
    let unused: Vec<_> = a
        .report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::WaiverUnused)
        .collect();
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert_eq!(unused[0].file, "crates/obs/src/lib.rs");
    assert!(
        unused[0].message.contains("panic-unwrap"),
        "{}",
        unused[0].message
    );
    // The used determinism waiver in the model crate is not flagged,
    // and its finding stays visible as waived.
    assert!(a.report.findings.iter().any(|f| {
        f.file == "crates/swarm/src/lib.rs" && f.rule == Rule::DetUnorderedCollection && f.waived
    }));
}

#[test]
fn test_trees_are_scanned_with_determinism_rules() {
    let a = analysis();
    let clock: Vec<_> = a
        .report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DetWallClock && f.file == "tests/scale.rs")
        .collect();
    assert_eq!(clock.len(), 2, "{clock:?}");
    assert!(clock.iter().any(|f| !f.waived));
    assert!(clock.iter().any(|f| f.waived));
}

#[test]
fn stage_matrix_classifies_fields_and_disjointness() {
    let a = analysis();
    let json = a.matrix.render_json();
    assert!(
        json.contains("\"state\": [\"config\", \"store\", \"tracker\"]"),
        "{json}"
    );
    assert!(json.contains("\"telemetry\": [\"obs\"]"), "{json}");
    assert!(json.contains("\"rng\": [\"rng\"]"), "{json}");
    // good writes store, stale writes tracker: state-disjoint.
    assert!(json.contains("\"all_disjoint\": true"), "{json}");
    assert!(json.contains("\"stage\": \"good\""), "{json}");
    assert!(json.contains("\"stage\": \"stale\""), "{json}");
}

/// Pins the complete diagnostic report and matrix as golden snapshots.
#[test]
fn golden_snapshots() {
    let a = analysis();
    let cases = [
        (
            "tests/fixtures/analyzer_report.json",
            a.report.render_json(),
        ),
        (
            "tests/fixtures/analyzer_matrix.json",
            a.matrix.render_json(),
        ),
    ];
    for (rel, rendered) in cases {
        let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        if std::env::var_os("BTLINT_BLESS").is_some() {
            std::fs::write(&golden_path, &rendered).expect("write blessed snapshot");
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("read {rel}: {e}; bless with BTLINT_BLESS=1"));
        assert_eq!(
            rendered, golden,
            "output drifted from {rel}; if intentional, re-bless with BTLINT_BLESS=1"
        );
    }
}

/// Every expected blocking finding, as a coarse census: no rule family
/// silently stops firing, none fires where it should not.
#[test]
fn blocking_census() {
    let a = analysis();
    let mut pairs = blocking_pairs(&a);
    pairs.sort();
    assert_eq!(
        pairs,
        vec![
            ("det-wall-clock", "tests/scale.rs".to_string()),
            ("rng-reachability", "crates/obs/src/lib.rs".to_string()),
            (
                "rng-reachability",
                "crates/swarm/src/monitors.rs".to_string()
            ),
            ("shared-interior-mut", "crates/swarm/src/lib.rs".to_string()),
            (
                "shared-unordered-helper",
                "crates/swarm/src/lib.rs".to_string()
            ),
            (
                "stage-contract",
                "crates/swarm/src/stages/pipeline.rs".to_string()
            ),
            ("waiver-unused", "crates/obs/src/lib.rs".to_string()),
        ]
    );
}
