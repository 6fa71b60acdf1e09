//! The workspace walker and analysis orchestrator: maps files to rule
//! scopes, lexes, strips test code, runs the token rules, builds the
//! cross-file workspace (parse → resolve → call graph), applies
//! waivers, and assembles the [`Report`] plus the stage-access matrix.
//!
//! ## Scoping
//!
//! Rules are repo-policy, not universal style, so each family applies
//! only where the invariant it protects actually holds
//! (see `DESIGN.md` for the rationale):
//!
//! * **determinism** (`det-*`, `shared-interior-mut` token form) —
//!   library sources of the simulation, model and numerics crates
//!   (`bt-swarm`, `bt-model`, `bt-markov`, home of the seed streams)
//!   plus the bench drivers,
//!   where iteration order or wall-clock reads break seeded replay;
//! * **determinism, test trees** (`det-*` only) — `tests/`,
//!   `examples/`, and every crate's `tests/`/`benches/` tree: test code
//!   must stay seeded and replayable too, but may panic and compare
//!   floats freely;
//! * **panic-safety** (`panic-*`) — the telemetry/observability I/O
//!   paths (`bt-obs` sources, `bt-swarm`'s `telemetry.rs`, `obs.rs` and
//!   `monitors.rs`), which must degrade to errors rather than abort a
//!   simulation;
//! * **float-cmp** — the model-numerics crates (`bt-markov`, `bt-model`);
//! * **policy-crate-attrs** — every workspace crate root;
//! * **cross-file rules** (`rng-reachability`, `commit-no-rng`,
//!   `shared-interior-mut`/`shared-unordered-helper` helper form,
//!   `stage-contract`) — computed over the whole library workspace
//!   call graph; see [`crate::callgraph`] and [`crate::contracts`];
//! * **waiver-unused** — every scanned file: a waiver that suppresses
//!   nothing must be removed;
//! * **pub-unused** — `pub` items of every library source, against the
//!   references in library, binary, example and bench code and in the
//!   caller-only trees; `tests/` trees and `#[cfg(test)]` code are not
//!   callers. See [`crate::unused`].
//!
//! `btbench/src` (the benchmark harness, its own cargo workspace) is a
//! *caller-only* tree: it is read only to index the references it makes
//! into the library, and no other rule runs on it.
//!
//! `vendor/` holds offline stand-ins for third-party crates and is
//! excluded; `target/` is never scanned; the linter's own fixture
//! corpus (`crates/lint/tests/fixtures/`) is intentionally dirty and
//! skipped.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::{self, CallGraph};
use crate::contracts::{self, StageMatrix};
use crate::diag::{Finding, Report};
use crate::lexer;
use crate::parse::{parse_file, FileAst};
use crate::resolve::Workspace;
use crate::rules::{self, Rule};
use crate::unused::{self, References};

/// Path prefixes (relative, forward slashes) where determinism rules apply.
const DETERMINISM_SCOPE: [&str; 4] = [
    "crates/swarm/src",
    "crates/core/src",
    "crates/markov/src",
    "crates/bench/src",
];

/// Path prefixes where the panic-safety rules apply.
const PANIC_SCOPE: [&str; 4] = [
    "crates/obs/src",
    "crates/swarm/src/telemetry.rs",
    "crates/swarm/src/obs.rs",
    "crates/swarm/src/monitors.rs",
];

/// Path prefixes where the float-comparison rule applies.
const FLOAT_SCOPE: [&str; 2] = ["crates/markov/src", "crates/core/src"];

/// Files outside the determinism scope whose wall-clock use is still
/// audited: the sanctioned wall-clock boundary. The heartbeat module is
/// the one place observer code may read clocks, and it must carry a
/// `bt-lint: allow-file(det-wall-clock)` waiver documenting that — the
/// waiver-unused rule then guarantees the audit note stays truthful if
/// the clock reads ever move elsewhere.
const WALL_CLOCK_AUDIT_SCOPE: [&str; 1] = ["crates/obs/src/heartbeat.rs"];

/// Files allowed to (transitively) reach the model RNG: the simulation
/// engine and its stages, the selection/tracker/piece policies, the
/// model/math crates, and the drivers that seed runs. Everything else —
/// observers, profilers, monitors, cohort sinks, telemetry — must stay
/// RNG-free so observation can never perturb the sampled stream.
const RNG_SANCTIONED: [&str; 12] = [
    "src",
    "crates/bench/src",
    "crates/markov/src",
    "crates/core/src",
    "crates/traces/src",
    "crates/swarm/src/engine.rs",
    "crates/swarm/src/stages",
    "crates/swarm/src/selection.rs",
    "crates/swarm/src/tracker.rs",
    "crates/swarm/src/piece.rs",
    "crates/swarm/src/scenario.rs",
    "crates/swarm/src/lib.rs",
];

/// Model scope for the cross-file shared-state audit: the crates whose
/// behavior must replay exactly from a seed.
const MODEL_SCOPE: [&str; 3] = ["crates/swarm/src", "crates/core/src", "crates/markov/src"];

/// Whether `rel` lies under any prefix in `scope` (`p` itself or `p/…`).
fn in_scope(scope: &[&str], rel: &str) -> bool {
    scope
        .iter()
        .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
}

/// Whether `rel` is inside a test/bench/example tree (scanned without
/// test-code stripping, determinism rules only).
#[must_use]
pub fn is_test_tree(rel: &str) -> bool {
    in_scope(&["tests", "examples", "benches"], rel)
        || rel.contains("/tests/")
        || rel.contains("/examples/")
        || rel.contains("/benches/")
}

/// The token-level rules that apply to a file at `rel` (forward-slash
/// relative path). The crate-root policy rule is handled separately.
#[must_use]
pub fn rules_for_path(rel: &str) -> Vec<Rule> {
    let mut set = Vec::new();
    if is_test_tree(rel) {
        // Test and bench code must stay deterministic (seeded, no
        // ambient clocks/RNG) but may panic and compare floats.
        return vec![
            Rule::DetUnorderedCollection,
            Rule::DetWallClock,
            Rule::DetAmbientRng,
        ];
    }
    if in_scope(&DETERMINISM_SCOPE, rel) {
        set.extend([
            Rule::DetUnorderedCollection,
            Rule::DetWallClock,
            Rule::DetAmbientRng,
            Rule::SharedInteriorMut,
        ]);
    }
    if in_scope(&PANIC_SCOPE, rel) {
        set.extend([Rule::PanicUnwrap, Rule::PanicMacro, Rule::PanicIndex]);
    }
    if in_scope(&WALL_CLOCK_AUDIT_SCOPE, rel) && !set.contains(&Rule::DetWallClock) {
        set.push(Rule::DetWallClock);
    }
    if in_scope(&FLOAT_SCOPE, rel) {
        set.push(Rule::FloatCmp);
    }
    set
}

/// Whether `rel` may reach the model RNG (see `RNG_SANCTIONED`).
#[must_use]
pub fn rng_sanctioned(rel: &str) -> bool {
    in_scope(&RNG_SANCTIONED, rel)
}

/// The full result of a workspace scan: the diagnostics report plus the
/// stage-access matrix.
#[derive(Debug)]
pub struct Analysis {
    /// Every finding (waived included) and scan statistics.
    pub report: Report,
    /// The stage capability matrix (see [`crate::contracts`]).
    pub matrix: StageMatrix,
}

/// How a scanned tree participates in analysis.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TreeKind {
    /// Library sources: token rules on test-stripped tokens, and the
    /// file's items join the cross-file workspace.
    Model,
    /// Test/bench/example trees: token rules on the raw stream (the
    /// whole file is test code), no cross-file participation.
    TestTree,
    /// Trees read only for the references they make into the library
    /// (`pub-unused`); no rule runs on them.
    CallerOnly,
}

/// Whether `rel` is in a `tests/` tree, whose references do not keep a
/// `pub` item alive.
fn is_tests_dir(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// Runs the complete analysis: token rules over every scanned tree,
/// the cross-file rules over the library workspace, waiver
/// application, and unused-waiver detection.
///
/// # Errors
///
/// Propagates filesystem errors from directory walking or file reads.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut report = Report::default();
    let mut findings: Vec<Finding> = Vec::new();
    let mut waiver_tables: BTreeMap<String, lexer::Waivers> = BTreeMap::new();
    let mut stage_notes: BTreeMap<String, Vec<(u32, String)>> = BTreeMap::new();
    let mut asts: BTreeMap<String, FileAst> = BTreeMap::new();
    let mut refs = References::default();

    for (dir, rel_prefix, kind) in scan_roots(root)? {
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = relative_label(&path, &dir, &rel_prefix);
            // The linter's own fixture corpus is intentionally dirty.
            if rel.starts_with("crates/lint/tests/fixtures") {
                continue;
            }
            let source = fs::read_to_string(&path)?;
            let lexed = lexer::lex(&source);
            let token_rules = rules_for_path(&rel);
            match kind {
                TreeKind::CallerOnly => {
                    refs.index(&rel, &rules::strip_test_code(&lexed.tokens));
                    continue;
                }
                TreeKind::Model => {
                    let clean = rules::strip_test_code(&lexed.tokens);
                    if !token_rules.is_empty() {
                        rules::check_tokens(&token_rules, &clean, &rel, &mut findings);
                    }
                    // The crate root is src/lib.rs, or src/main.rs for
                    // bin-only crates (checked only when no lib.rs exists).
                    let crate_root = path == dir.join("lib.rs")
                        || (path == dir.join("main.rs") && !dir.join("lib.rs").exists());
                    if crate_root {
                        rules::check_crate_root(&lexed.tokens, &rel, &mut findings);
                    }
                    refs.index(&rel, &clean);
                    asts.insert(rel.clone(), parse_file(&rel, &clean));
                }
                TreeKind::TestTree => {
                    if !token_rules.is_empty() {
                        rules::check_tokens(&token_rules, &lexed.tokens, &rel, &mut findings);
                    }
                    if !is_tests_dir(&rel) {
                        refs.index(&rel, &rules::strip_test_code(&lexed.tokens));
                    }
                }
            }
            stage_notes.insert(rel.clone(), lexed.stage_notes);
            waiver_tables.insert(rel, lexed.waivers);
            report.files_scanned += 1;
        }
    }

    // Cross-file analyses over the library workspace.
    let ws = Workspace::build(&asts);
    let cg = CallGraph::build(&ws, contracts::CORE_TYPE);
    let rng = callgraph::rng_reachability(&ws, &cg);
    callgraph::rng_findings(&ws, &rng, &rng_sanctioned, &mut findings);
    callgraph::commit_no_rng_findings(&ws, &rng, &mut findings);
    callgraph::shared_state_findings(&ws, &cg, &|rel| in_scope(&MODEL_SCOPE, rel), &mut findings);
    let caps = contracts::capabilities(&ws, &cg);
    let (matrix, contract_findings) = contracts::analyze_stages(&ws, &caps, &stage_notes);
    findings.extend(contract_findings);
    unused::findings(&asts, &refs, &mut findings);

    // Apply waivers (cross-file findings are waivable at their site).
    for finding in &mut findings {
        if let Some(waivers) = waiver_tables.get(&finding.file) {
            if waivers.covers(finding.rule.name(), finding.line) {
                finding.waived = true;
            }
        }
    }

    // Unused-waiver detection: an entry must have suppressed something.
    // A `pub-unused` waiver must also say which allowed reason it uses.
    for (file, waivers) in &waiver_tables {
        for entry in waivers.entries() {
            if entry.rule == Rule::PubUnused.name() && !unused::waiver_has_reason(&entry.note) {
                findings.push(Finding::new(
                    Rule::PubUnused,
                    file,
                    entry.line,
                    1,
                    format!(
                        "`allow(pub-unused)` waiver names no reason; write one of {:?} after it",
                        unused::WAIVER_REASONS
                    ),
                ));
            }
            let used = findings
                .iter()
                .any(|f| f.file == *file && f.waived && entry.matches(f.rule.name(), f.line));
            if !used {
                findings.push(Finding::new(
                    Rule::WaiverUnused,
                    file,
                    entry.line,
                    1,
                    format!(
                        "waiver `allow{}({})` suppresses no finding; remove it",
                        if entry.file_wide { "-file" } else { "" },
                        entry.rule
                    ),
                ));
            }
        }
    }

    report.findings = findings;
    report.sort();
    Ok(Analysis { report, matrix })
}

/// Every tree to scan: library sources, test/bench/example trees, and
/// the caller-only benchmark harness.
fn scan_roots(root: &Path) -> io::Result<Vec<(PathBuf, String, TreeKind)>> {
    let mut roots: Vec<(PathBuf, String, TreeKind)> = vec![
        (root.join("src"), "src".to_string(), TreeKind::Model),
        (
            root.join("btbench/src"),
            "btbench/src".to_string(),
            TreeKind::CallerOnly,
        ),
        (root.join("tests"), "tests".to_string(), TreeKind::TestTree),
        (
            root.join("examples"),
            "examples".to_string(),
            TreeKind::TestTree,
        ),
        (
            root.join("benches"),
            "benches".to_string(),
            TreeKind::TestTree,
        ),
    ];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for crate_dir in entries {
            let name = crate_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            roots.push((
                crate_dir.join("src"),
                format!("crates/{name}/src"),
                TreeKind::Model,
            ));
            for tree in ["tests", "examples", "benches"] {
                roots.push((
                    crate_dir.join(tree),
                    format!("crates/{name}/{tree}"),
                    TreeKind::TestTree,
                ));
            }
        }
    }
    Ok(roots)
}

/// Recursively collects `.rs` files under `dir`. Binary sources under
/// `src/bin` are scanned like any other source; scoping decides which
/// rules (if any) apply to them.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Builds the forward-slash label `rel_prefix/<path under dir>`.
fn relative_label(path: &Path, dir: &Path, rel_prefix: &str) -> String {
    let suffix = path
        .strip_prefix(dir)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    format!("{rel_prefix}/{suffix}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_matches_the_catalog() {
        assert!(rules_for_path("crates/swarm/src/peer.rs").contains(&Rule::DetUnorderedCollection));
        assert!(rules_for_path("crates/swarm/src/peer.rs").contains(&Rule::SharedInteriorMut));
        assert!(rules_for_path("crates/swarm/src/telemetry.rs").contains(&Rule::PanicUnwrap));
        assert!(rules_for_path("crates/swarm/src/monitors.rs").contains(&Rule::PanicUnwrap));
        assert!(!rules_for_path("crates/swarm/src/engine.rs").contains(&Rule::PanicUnwrap));
        assert!(rules_for_path("crates/markov/src/chain.rs").contains(&Rule::FloatCmp));
        assert!(rules_for_path("crates/core/src/exact.rs").contains(&Rule::FloatCmp));
        assert!(!rules_for_path("crates/obs/src/manifest.rs").contains(&Rule::FloatCmp));
        assert!(rules_for_path("crates/obs/src/manifest.rs").contains(&Rule::PanicUnwrap));
        assert!(rules_for_path("src/cli.rs").is_empty());
        assert!(rules_for_path("crates/bench/src/bin/all_figures.rs").contains(&Rule::DetWallClock));
        // The sanctioned wall-clock boundary: heartbeat.rs is audited
        // for clock use (so its allow-file waiver suppresses a real
        // finding), keeps its panic-scope rules, and its sibling
        // modules stay un-audited.
        let heartbeat = rules_for_path("crates/obs/src/heartbeat.rs");
        assert!(heartbeat.contains(&Rule::DetWallClock));
        assert!(heartbeat.contains(&Rule::PanicUnwrap));
        assert_eq!(
            heartbeat
                .iter()
                .filter(|r| **r == Rule::DetWallClock)
                .count(),
            1,
            "audit scope must not duplicate the rule"
        );
        assert!(!rules_for_path("crates/obs/src/mem.rs").contains(&Rule::DetWallClock));
    }

    #[test]
    fn test_trees_get_determinism_rules_only() {
        for rel in [
            "tests/determinism.rs",
            "examples/quickstart.rs",
            "crates/swarm/tests/engine.rs",
            "crates/bench/benches/swarm.rs",
        ] {
            let rules = rules_for_path(rel);
            assert!(rules.contains(&Rule::DetAmbientRng), "{rel}");
            assert!(!rules.contains(&Rule::PanicUnwrap), "{rel}");
            assert!(!rules.contains(&Rule::FloatCmp), "{rel}");
            assert!(!rules.contains(&Rule::SharedInteriorMut), "{rel}");
        }
    }

    #[test]
    fn rng_sanction_excludes_observer_paths() {
        assert!(rng_sanctioned("crates/swarm/src/stages/exchange.rs"));
        assert!(rng_sanctioned("crates/swarm/src/engine.rs"));
        assert!(rng_sanctioned("src/cli.rs"));
        assert!(!rng_sanctioned("crates/obs/src/profiling.rs"));
        assert!(!rng_sanctioned("crates/swarm/src/telemetry.rs"));
        assert!(!rng_sanctioned("crates/swarm/src/obs.rs"));
        assert!(!rng_sanctioned("crates/swarm/src/monitors.rs"));
        assert!(!rng_sanctioned("crates/swarm/src/audit.rs"));
    }
}
