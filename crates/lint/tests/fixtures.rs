//! Fixture-backed integration tests for `bt-lint`.
//!
//! Each rule family is exercised against a dedicated fixture file that
//! contains positives, negatives, and waived occurrences — cases that
//! `clippy` either cannot express (repo-specific scoping, waiver
//! accounting) or does not check (policy attributes, ambient RNG).
//! A golden JSON snapshot pins the full diagnostic schema, and a final
//! test asserts the workspace itself is clean under the default scopes.
//!
//! Regenerate the snapshot after an intentional diagnostic change with
//! `BTLINT_BLESS=1 cargo test -p bt-lint --test fixtures`.

use std::path::Path;

use bt_lint::{lint_source, Finding, Report, Rule};

const DETERMINISM: &str = include_str!("fixtures/determinism.rs");
const PANICS: &str = include_str!("fixtures/panics.rs");
const FLOATCMP: &str = include_str!("fixtures/floatcmp.rs");
const POLICY_OK: &str = include_str!("fixtures/policy_ok.rs");
const POLICY_MISSING: &str = include_str!("fixtures/policy_missing.rs");

const DET_RULES: [Rule; 3] = [
    Rule::DetUnorderedCollection,
    Rule::DetWallClock,
    Rule::DetAmbientRng,
];
const PANIC_RULES: [Rule; 3] = [Rule::PanicUnwrap, Rule::PanicMacro, Rule::PanicIndex];

/// Collapses findings to comparable `(rule, line, waived)` triples.
fn triples(findings: &[Finding]) -> Vec<(&'static str, u32, bool)> {
    findings
        .iter()
        .map(|f| (f.rule.name(), f.line, f.waived))
        .collect()
}

#[test]
fn determinism_fixture() {
    let findings = lint_source("fixtures/determinism.rs", DETERMINISM, &DET_RULES, false);
    assert_eq!(
        triples(&findings),
        vec![
            ("det-unordered-collection", 5, false),
            ("det-wall-clock", 8, false),
            ("det-wall-clock", 9, false),
            ("det-ambient-rng", 13, false),
            ("det-unordered-collection", 17, true),
        ]
    );
    assert_eq!(findings.iter().filter(|f| f.blocking()).count(), 4);
}

#[test]
fn panics_fixture() {
    let findings = lint_source("fixtures/panics.rs", PANICS, &PANIC_RULES, false);
    assert_eq!(
        triples(&findings),
        vec![
            ("panic-index", 5, false),
            ("panic-unwrap", 6, false),
            ("panic-unwrap", 7, false),
            ("panic-macro", 9, false),
            ("panic-macro", 11, false),
            ("panic-unwrap", 22, true),
        ]
    );
    assert_eq!(findings.iter().filter(|f| f.blocking()).count(), 5);
}

#[test]
fn floatcmp_fixture() {
    let findings = lint_source("fixtures/floatcmp.rs", FLOATCMP, &[Rule::FloatCmp], false);
    assert_eq!(
        triples(&findings),
        vec![
            ("float-cmp", 5, false),
            ("float-cmp", 6, false),
            ("float-cmp", 7, false),
            ("float-cmp", 19, true),
        ]
    );
    assert_eq!(findings.iter().filter(|f| f.blocking()).count(), 3);
}

#[test]
fn policy_fixtures() {
    let ok = lint_source("fixtures/policy_ok.rs", POLICY_OK, &[], true);
    assert!(ok.is_empty(), "compliant crate root is clean: {ok:?}");

    let missing = lint_source("fixtures/policy_missing.rs", POLICY_MISSING, &[], true);
    assert_eq!(
        triples(&missing),
        vec![
            ("policy-crate-attrs", 1, false),
            ("policy-crate-attrs", 1, false),
        ]
    );
    assert!(missing[0].message.contains("forbid(unsafe_code)"));
    assert!(missing[1].message.contains("deny(missing_docs)"));
}

/// Lints every fixture with its family's rule set, as the workspace walk
/// would, and returns the combined report.
fn fixture_report() -> Report {
    let mut report = Report::default();
    let jobs: [(&str, &str, &[Rule], bool); 5] = [
        ("fixtures/determinism.rs", DETERMINISM, &DET_RULES, false),
        ("fixtures/floatcmp.rs", FLOATCMP, &[Rule::FloatCmp], false),
        ("fixtures/panics.rs", PANICS, &PANIC_RULES, false),
        ("fixtures/policy_missing.rs", POLICY_MISSING, &[], true),
        ("fixtures/policy_ok.rs", POLICY_OK, &[], true),
    ];
    for (file, source, rules, crate_root) in jobs {
        report.files_scanned += 1;
        report
            .findings
            .extend(lint_source(file, source, rules, crate_root));
    }
    report.sort();
    report
}

#[test]
fn golden_json_snapshot() {
    let rendered = fixture_report().render_json();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.json");
    if std::env::var_os("BTLINT_BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write blessed snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect("read expected.json");
    assert_eq!(
        rendered, golden,
        "JSON output drifted from tests/fixtures/expected.json; if the \
         change is intentional, re-bless with BTLINT_BLESS=1"
    );
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let analysis = bt_lint::analyze_workspace(&root).expect("workspace walk");
    let report = &analysis.report;
    // Library sources plus the tests/, examples/, and bench trees. The
    // library sources alone are 93 files: the floor sits above them, so
    // a walk that skips the test trees fails.
    assert!(
        report.files_scanned >= 110,
        "expected the full workspace incl. test trees, scanned only {} files",
        report.files_scanned
    );
    assert_eq!(
        report.blocking_count(),
        0,
        "workspace must stay lint-clean:\n{}",
        report.render_text()
    );
    // The two audited exact-comparison waivers in bt-markov's float
    // helpers stay visible in the report rather than vanishing.
    let waived: Vec<_> = report.findings.iter().filter(|f| f.waived).collect();
    assert!(
        waived
            .iter()
            .filter(|f| f.file == "crates/markov/src/float.rs" && f.rule == Rule::FloatCmp)
            .count()
            == 2,
        "expected the two audited float.rs waivers, got: {waived:?}"
    );
    // The model/observer boundary crossings are audited, not invisible:
    // every registry-handle resolution shows up waived.
    assert!(
        waived
            .iter()
            .any(|f| f.rule == Rule::SharedInteriorMut && f.file == "crates/swarm/src/obs.rs"),
        "expected the audited obs-boundary waivers, got: {waived:?}"
    );
    // All eight round stages carry checked capability annotations and
    // land in the stage matrix.
    let stages: Vec<&str> = analysis
        .matrix
        .stages
        .iter()
        .map(|s| s.stage.as_str())
        .collect();
    assert_eq!(
        stages,
        [
            "bootstrap",
            "depart",
            "establish",
            "exchange",
            "maintain",
            "prune",
            "sample",
            "shake"
        ],
        "every RoundStage impl must be annotated and analyzed"
    );
    // `sample` only reads model state: it must stay write-disjoint from
    // every other stage (the observation stage never mutates the model).
    let sample = analysis
        .matrix
        .stages
        .iter()
        .find(|s| s.stage == "sample")
        .expect("sample stage");
    for field in &sample.writes {
        assert!(
            !analysis.matrix.state_fields.contains(field),
            "sample must not write model state, writes {field}"
        );
    }
}
