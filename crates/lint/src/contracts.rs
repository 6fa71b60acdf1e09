//! Stage capability contracts and the machine-readable stage-access
//! matrix.
//!
//! Every `RoundStage` impl must carry a capability annotation directly
//! above its `impl` header:
//!
//! ```text
//! // bt-stage: reads(config, store), writes(rng, metrics, obs)
//! impl RoundStage for ExchangePieces { … }
//! ```
//!
//! The analyzer computes the *actual* capability set of the stage's
//! `run` method — every `SwarmCore` field read or written, transitively
//! through the call graph — and diagnoses any disagreement
//! (`stage-contract`). A field the stage writes appears in `writes`;
//! a field it only reads appears in `reads`; the `rng` field is always
//! a write (observing a random stream advances it).
//!
//! A **plan/commit** stage — one whose impl type has both a `plan` and
//! a `commit` method — must use the split form instead:
//!
//! ```text
//! // bt-stage: plan-reads(config, tracker), commit-writes(store, obs)
//! ```
//!
//! The clauses carry the same analyzed sets (`plan-reads` = fields the
//! stage only reads, `commit-writes` = fields it writes) but the names
//! document the phase discipline, and two extra checks enforce it: the
//! `plan` method's capability set must contain no core-field writes,
//! and `commit` must not reach the model RNG (`commit-no-rng`, checked
//! in [`crate::callgraph`]).
//!
//! `btlab lint --stage-matrix` renders the same analysis as JSON. The
//! matrix classifies core fields into **state** (the model's evolving
//! data), **telemetry** (commutative sinks: counters, profile, audit,
//! cohort, completion stream), and **rng**, and reports pairwise write-disjointness over
//! the *state* fields — the go/no-go artifact for sharding stages
//! across threads: two stages whose state writes are disjoint (and
//! whose rng use is restructured onto per-shard streams) can run in
//! parallel without changing observable behavior.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::diag::{json_escape, Finding};
use crate::resolve::{FnId, Workspace};
use crate::rules::Rule;

/// The engine-core struct whose fields form the capability vocabulary.
pub const CORE_TYPE: &str = "SwarmCore";

/// The stage trait whose impls must carry contracts.
pub const STAGE_TRAIT: &str = "RoundStage";

/// Core field types that are telemetry sinks (commutative, shard-safe
/// by construction) rather than model state.
const TELEMETRY_TYPES: &[&str] = &[
    "SwarmMetrics",
    "SwarmObs",
    "ProfileSink",
    "SwarmAudit",
    "CohortSink",
    "CompletionStream",
    "CountCells",
];

/// Core field types that are seeded random streams.
const RNG_TYPES: &[&str] = &["StdRng", "SmallRng", "ChaCha8Rng"];

/// Access mode for one core field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Read-only access.
    Read,
    /// At least one mutating access.
    Write,
}

/// Per-function capability set: core field → strongest access mode.
pub type Caps = BTreeMap<String, Mode>;

/// Computes the transitive capability set of every function: direct
/// core-field accesses unioned with the capabilities of every callee,
/// to a fixpoint. The `rng` field is always [`Mode::Write`].
#[must_use]
pub fn capabilities(ws: &Workspace, cg: &CallGraph) -> Vec<Caps> {
    let n = ws.functions.len();
    let mut caps: Vec<Caps> = vec![Caps::new(); n];
    for (id, facts) in cg.facts.iter().enumerate() {
        for access in &facts.core {
            let mode = if access.write || access.field == "rng" {
                Mode::Write
            } else {
                Mode::Read
            };
            merge(&mut caps[id], &access.field, mode);
        }
    }
    // Fixpoint: union callee capabilities into callers until stable.
    // The graph is small (a few thousand functions); a bounded sweep
    // loop is simpler than a worklist and just as fast here.
    for _ in 0..n.max(8) {
        let mut changed = false;
        for caller in 0..n {
            for &(callee, _, _) in &cg.edges[caller] {
                if callee == caller {
                    continue;
                }
                let callee_caps = caps[callee].clone();
                for (field, mode) in callee_caps {
                    if merge_get(&mut caps[caller], &field, mode) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    caps
}

/// Merges `mode` for `field` into `caps` (write dominates read).
fn merge(caps: &mut Caps, field: &str, mode: Mode) {
    merge_get(caps, field, mode);
}

/// Like [`merge`], returning whether anything changed.
fn merge_get(caps: &mut Caps, field: &str, mode: Mode) -> bool {
    match caps.get(field) {
        Some(Mode::Write) => false,
        Some(Mode::Read) if mode == Mode::Read => false,
        _ => {
            caps.insert(field.to_string(), mode);
            true
        }
    }
}

/// One stage's analyzed access profile.
#[derive(Debug, Clone)]
pub struct StageInfo {
    /// Stage name (from the `name()` method's string literal, falling
    /// back to the impl type).
    pub stage: String,
    /// Implementing type.
    pub impl_type: String,
    /// File of the `impl RoundStage for …` header.
    pub file: String,
    /// Line of the impl header.
    pub line: u32,
    /// Core fields read (never written), sorted.
    pub reads: Vec<String>,
    /// Core fields written, sorted.
    pub writes: Vec<String>,
    /// Whether the impl type is a plan/commit stage (has both a `plan`
    /// and a `commit` method) and must use the split contract form.
    pub plan_commit: bool,
}

/// The stage-access matrix: every stage's analyzed capability profile
/// plus the field classification and pairwise write-disjointness.
#[derive(Debug)]
pub struct StageMatrix {
    /// Model-state fields of the core struct, sorted.
    pub state_fields: Vec<String>,
    /// Telemetry-sink fields, sorted.
    pub telemetry_fields: Vec<String>,
    /// Random-stream fields, sorted.
    pub rng_fields: Vec<String>,
    /// Per-stage profiles, sorted by stage name.
    pub stages: Vec<StageInfo>,
}

/// A parsed `// bt-stage: reads(…), writes(…)` annotation (or the
/// split plan/commit form, `plan-reads(…), commit-writes(…)`).
#[derive(Debug, Default, PartialEq, Eq)]
struct Contract {
    reads: Vec<String>,
    writes: Vec<String>,
    /// Whether the annotation used the split plan/commit clause names.
    split: bool,
}

/// Parses the payload of a stage note: the split form
/// (`plan-reads(a), commit-writes(b)`) when its clauses are present,
/// the plain form (`reads(a, b), writes(c)`) otherwise. Returns `None`
/// when neither parses.
fn parse_contract(payload: &str) -> Option<Contract> {
    if let (Some(reads), Some(writes)) = (
        clause(payload, "plan-reads"),
        clause(payload, "commit-writes"),
    ) {
        return Some(Contract {
            reads,
            writes,
            split: true,
        });
    }
    let reads = clause(payload, "reads")?;
    let writes = clause(payload, "writes")?;
    Some(Contract {
        reads,
        writes,
        split: false,
    })
}

/// Extracts the sorted identifier list of `name(...)` from `payload`.
/// The match must start a clause: the preceding character (if any) may
/// not be part of an identifier or a hyphenated clause name, so plain
/// `reads(` never matches inside `plan-reads(`.
fn clause(payload: &str, name: &str) -> Option<Vec<String>> {
    let needle = format!("{name}(");
    let mut from = 0;
    let start = loop {
        let hit = from + payload.get(from..)?.find(&needle)?;
        let boundary = payload[..hit]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_' || c == '-'));
        if boundary {
            break hit;
        }
        from = hit + 1;
    };
    let rest = &payload[start + needle.len()..];
    let end = rest.find(')')?;
    let mut items: Vec<String> = rest[..end]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    items.sort();
    items.dedup();
    Some(items)
}

/// Analyzes every stage impl: computes its access profile, checks the
/// inline contract annotation, and returns the matrix plus any
/// `stage-contract` findings.
#[must_use]
pub fn analyze_stages(
    ws: &Workspace,
    caps: &[Caps],
    stage_notes: &BTreeMap<String, Vec<(u32, String)>>,
) -> (StageMatrix, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut stages = Vec::new();
    for imp in &ws.impls {
        if imp.trait_name.as_deref() != Some(STAGE_TRAIT) {
            continue;
        }
        let Some(run_id) = ws.method(&imp.self_type, "run") else {
            continue; // bodyless trait decl itself has no impls to check
        };
        let (reads, writes) = split_caps(&caps[run_id]);
        let stage = stage_name(ws, &imp.self_type).unwrap_or_else(|| imp.self_type.clone());
        let plan_id = ws.method(&imp.self_type, "plan");
        let commit_id = ws.method(&imp.self_type, "commit");
        let info = StageInfo {
            stage,
            impl_type: imp.self_type.clone(),
            file: imp.file.clone(),
            line: imp.line,
            reads: reads.clone(),
            writes: writes.clone(),
            plan_commit: plan_id.is_some() && commit_id.is_some(),
        };
        check_contract(&info, stage_notes, &mut findings);
        if info.plan_commit {
            check_plan_purity(
                ws,
                caps,
                &info,
                plan_id.expect("plan_commit"),
                &mut findings,
            );
        }
        stages.push(info);
    }
    stages.sort_by(|a, b| a.stage.cmp(&b.stage));
    let matrix = StageMatrix::new(ws, stages);
    (matrix, findings)
}

/// Splits a capability map into sorted (read-only, written) field lists.
fn split_caps(caps: &Caps) -> (Vec<String>, Vec<String>) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for (field, mode) in caps {
        match mode {
            Mode::Read => reads.push(field.clone()),
            Mode::Write => writes.push(field.clone()),
        }
    }
    (reads, writes)
}

/// The stage's runtime name: the string literal returned by its
/// `name()` method, unquoted.
fn stage_name(ws: &Workspace, impl_type: &str) -> Option<String> {
    let id = ws.method(impl_type, "name")?;
    let lit = ws.functions[id]
        .body
        .iter()
        .find(|t| t.kind == crate::lexer::TokenKind::Literal)?;
    Some(lit.text.trim_matches('"').to_string())
}

/// Diagnoses a plan phase that writes core state: the whole point of
/// the split is that `plan` runs sharded over a shared immutable view,
/// so any core-field write it can reach is a data race in waiting.
fn check_plan_purity(
    ws: &Workspace,
    caps: &[Caps],
    info: &StageInfo,
    plan_id: FnId,
    findings: &mut Vec<Finding>,
) {
    let plan_writes: Vec<&String> = caps[plan_id]
        .iter()
        .filter(|(_, mode)| **mode == Mode::Write)
        .map(|(field, _)| field)
        .collect();
    if !plan_writes.is_empty() {
        let f = &ws.functions[plan_id];
        findings.push(Finding::new(
            Rule::StageContract,
            &f.file,
            f.line,
            1,
            format!(
                "plan phase of stage `{}` can write core fields ({}); the plan phase must \
                 be read-only — apply mutations in `commit`",
                info.stage,
                plan_writes
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
        ));
    }
}

/// The canonical annotation for a stage's analyzed profile.
fn expected_annotation(info: &StageInfo) -> String {
    if info.plan_commit {
        format!(
            "// bt-stage: plan-reads({}), commit-writes({})",
            info.reads.join(", "),
            info.writes.join(", ")
        )
    } else {
        format!(
            "// bt-stage: reads({}), writes({})",
            info.reads.join(", "),
            info.writes.join(", ")
        )
    }
}

/// Checks one stage's annotation against its analyzed profile.
fn check_contract(
    info: &StageInfo,
    stage_notes: &BTreeMap<String, Vec<(u32, String)>>,
    findings: &mut Vec<Finding>,
) {
    let expected = expected_annotation(info);
    // The annotation must sit directly above the impl header (within
    // three lines, so a doc comment can intervene).
    let note = stage_notes.get(&info.file).and_then(|notes| {
        notes
            .iter()
            .filter(|(line, _)| *line < info.line && info.line - *line <= 3)
            .max_by_key(|(line, _)| *line)
    });
    let Some((note_line, payload)) = note else {
        findings.push(Finding::new(
            Rule::StageContract,
            &info.file,
            info.line,
            1,
            format!(
                "stage `{}` ({}) has no capability annotation; add `{}` above the impl",
                info.stage, info.impl_type, expected
            ),
        ));
        return;
    };
    let Some(declared) = parse_contract(payload) else {
        findings.push(Finding::new(
            Rule::StageContract,
            &info.file,
            *note_line,
            1,
            format!(
                "stage `{}` has an unparsable capability annotation `{}`; expected `{}`",
                info.stage, payload, expected
            ),
        ));
        return;
    };
    if declared.split != info.plan_commit {
        let (has, wants) = if info.plan_commit {
            ("plain reads/writes", "the split plan-reads/commit-writes")
        } else {
            ("split plan-reads/commit-writes", "the plain reads/writes")
        };
        findings.push(Finding::new(
            Rule::StageContract,
            &info.file,
            *note_line,
            1,
            format!(
                "stage `{}` uses the {has} contract form but needs {wants} form; \
                 update to `{expected}`",
                info.stage,
            ),
        ));
        return;
    }
    if declared.reads != info.reads || declared.writes != info.writes {
        findings.push(Finding::new(
            Rule::StageContract,
            &info.file,
            *note_line,
            1,
            format!(
                "stage `{}` capability annotation is stale: declared reads({}) writes({}), \
                 analyzed reads({}) writes({}); update to `{}`",
                info.stage,
                declared.reads.join(", "),
                declared.writes.join(", "),
                info.reads.join(", "),
                info.writes.join(", "),
                expected
            ),
        ));
    }
}

impl StageMatrix {
    /// Classifies the core struct's fields and assembles the matrix.
    fn new(ws: &Workspace, stages: Vec<StageInfo>) -> StageMatrix {
        let mut state_fields = Vec::new();
        let mut telemetry_fields = Vec::new();
        let mut rng_fields = Vec::new();
        if let Some(core) = ws.structs.get(CORE_TYPE) {
            for (field, ty) in &core.fields {
                if RNG_TYPES.contains(&ty.as_str()) {
                    rng_fields.push(field.clone());
                } else if TELEMETRY_TYPES.contains(&ty.as_str()) {
                    telemetry_fields.push(field.clone());
                } else {
                    state_fields.push(field.clone());
                }
            }
        }
        state_fields.sort();
        telemetry_fields.sort();
        rng_fields.sort();
        StageMatrix {
            state_fields,
            telemetry_fields,
            rng_fields,
            stages,
        }
    }

    /// State-field writes of one stage (the disjointness basis).
    fn state_writes<'a>(&self, info: &'a StageInfo) -> Vec<&'a String> {
        info.writes
            .iter()
            .filter(|w| self.state_fields.contains(w))
            .collect()
    }

    /// Renders the matrix as stable, deterministic JSON.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"bt-lint/stage-matrix/v1\",\n");
        out.push_str(&format!("  \"core\": \"{CORE_TYPE}\",\n"));
        out.push_str("  \"fields\": {\n");
        out.push_str(&format!(
            "    \"state\": {},\n",
            str_array(&self.state_fields)
        ));
        out.push_str(&format!(
            "    \"telemetry\": {},\n",
            str_array(&self.telemetry_fields)
        ));
        out.push_str(&format!("    \"rng\": {}\n", str_array(&self.rng_fields)));
        out.push_str("  },\n");
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"impl\": \"{}\", \"file\": \"{}\", \"plan_commit\": {}, \"reads\": {}, \"writes\": {}}}{}\n",
                json_escape(&s.stage),
                json_escape(&s.impl_type),
                json_escape(&s.file),
                s.plan_commit,
                str_array(&s.reads),
                str_array(&s.writes),
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        // Pairwise write-disjointness over state fields.
        let mut pairs = Vec::new();
        let mut all_disjoint = true;
        for (i, a) in self.stages.iter().enumerate() {
            for b in self.stages.iter().skip(i + 1) {
                let wa = self.state_writes(a);
                let overlap: Vec<&String> = self
                    .state_writes(b)
                    .into_iter()
                    .filter(|w| wa.contains(w))
                    .collect();
                let disjoint = overlap.is_empty();
                all_disjoint &= disjoint;
                pairs.push(format!(
                    "    {{\"a\": \"{}\", \"b\": \"{}\", \"disjoint\": {}, \"overlap\": {}}}",
                    json_escape(&a.stage),
                    json_escape(&b.stage),
                    disjoint,
                    str_array(&overlap.into_iter().cloned().collect::<Vec<_>>())
                ));
            }
        }
        out.push_str("  \"write_disjointness\": {\n");
        out.push_str("    \"basis\": \"state\",\n");
        out.push_str(&format!("    \"all_disjoint\": {all_disjoint},\n"));
        out.push_str("    \"pairs\": [\n");
        out.push_str(&pairs.join(",\n"));
        out.push('\n');
        out.push_str("    ]\n");
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// Renders a sorted string list as a compact JSON array.
fn str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    const STAGE_SRC: &str = "\
struct SwarmCore { config: SwarmConfig, store: PeerStore, rng: StdRng, obs: SwarmObs }
struct SwarmConfig { n: u32 }
struct PeerStore { n: u32 }
struct SwarmObs { c: Counter }
impl PeerStore { fn insert_peer(&mut self) {} fn len(&self) -> usize { 0 } }
struct Arrive { x: u32 }
// bt-stage: reads(config), writes(rng, store)
impl RoundStage for Arrive {
    fn name(&self) -> &'static str { \"bootstrap\" }
    fn run(&mut self, core: &mut SwarmCore) {
        let n = core.config.n;
        core.rng.next();
        core.store.insert_peer();
    }
}
";

    type Notes = BTreeMap<String, Vec<(u32, String)>>;

    fn analyze(src: &str) -> (Workspace, Vec<Caps>, Notes) {
        let file = "crates/swarm/src/stages/x.rs".to_string();
        let lexed = lex(src);
        let mut files = BTreeMap::new();
        files.insert(file.clone(), parse_file(&file, &lexed.tokens));
        let ws = Workspace::build(&files);
        let cg = CallGraph::build(&ws, CORE_TYPE);
        let caps = capabilities(&ws, &cg);
        let mut notes = BTreeMap::new();
        notes.insert(file, lexed.stage_notes);
        (ws, caps, notes)
    }

    #[test]
    fn correct_contract_produces_no_findings() {
        let (ws, caps, notes) = analyze(STAGE_SRC);
        let (matrix, findings) = analyze_stages(&ws, &caps, &notes);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(matrix.stages.len(), 1);
        let s = &matrix.stages[0];
        assert_eq!(s.stage, "bootstrap");
        assert_eq!(s.reads, vec!["config"]);
        assert_eq!(s.writes, vec!["rng", "store"]);
    }

    #[test]
    fn stale_contract_is_diagnosed_with_the_fix() {
        let src = STAGE_SRC.replace(
            "reads(config), writes(rng, store)",
            "reads(), writes(store)",
        );
        let (ws, caps, notes) = analyze(&src);
        let (_, findings) = analyze_stages(&ws, &caps, &notes);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::StageContract);
        assert!(findings[0]
            .message
            .contains("// bt-stage: reads(config), writes(rng, store)"));
    }

    #[test]
    fn missing_annotation_is_diagnosed() {
        let src = STAGE_SRC.replace("// bt-stage: reads(config), writes(rng, store)\n", "");
        let (ws, caps, notes) = analyze(&src);
        let (_, findings) = analyze_stages(&ws, &caps, &notes);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no capability annotation"));
    }

    #[test]
    fn capabilities_propagate_through_helpers() {
        let src = "\
struct SwarmCore { store: PeerStore, round: u64 }
struct PeerStore { n: u32 }
fn leaf(core: &mut SwarmCore) { core.round += 1; }
fn mid(core: &mut SwarmCore) { leaf(core); let _ = core.store.n; }
fn top(core: &mut SwarmCore) { mid(core); }
";
        let (ws, caps, _) = analyze(src);
        let top = (0..ws.functions.len())
            .find(|&i| ws.label(i) == "top")
            .unwrap();
        assert_eq!(caps[top].get("round"), Some(&Mode::Write));
        assert_eq!(caps[top].get("store"), Some(&Mode::Read));
    }

    #[test]
    fn matrix_json_reports_disjointness() {
        let (ws, caps, notes) = analyze(STAGE_SRC);
        let (matrix, _) = analyze_stages(&ws, &caps, &notes);
        let json = matrix.render_json();
        assert!(json.contains("\"schema\": \"bt-lint/stage-matrix/v1\""));
        assert!(json.contains("\"state\": [\"config\", \"store\"]"));
        assert!(json.contains("\"rng\": [\"rng\"]"));
        assert!(json.contains("\"telemetry\": [\"obs\"]"));
        assert!(json.contains("\"all_disjoint\": true"));
    }

    #[test]
    fn contract_clause_parsing_is_order_insensitive() {
        let c = parse_contract("writes(b, a), reads(z, y)").unwrap();
        assert_eq!(c.reads, vec!["y", "z"]);
        assert_eq!(c.writes, vec!["a", "b"]);
        assert!(!c.split);
        assert!(parse_contract("nonsense").is_none());
    }

    #[test]
    fn split_clause_names_do_not_leak_into_plain_clauses() {
        let c = parse_contract("plan-reads(config), commit-writes(store, obs)").unwrap();
        assert!(c.split);
        assert_eq!(c.reads, vec!["config"]);
        assert_eq!(c.writes, vec!["obs", "store"]);
        // The plain clause names must not match inside the hyphenated
        // ones: a split payload has no plain `reads(...)` clause.
        assert_eq!(
            clause("plan-reads(config), commit-writes(store)", "reads"),
            None
        );
        assert_eq!(
            clause("plan-reads(config), commit-writes(store)", "writes"),
            None
        );
    }

    /// A plan/commit stage: `run` delegates to a read-only `plan` and a
    /// mutating `commit`.
    const SPLIT_SRC: &str = "\
struct SwarmCore { config: SwarmConfig, store: PeerStore, obs: SwarmObs }
struct SwarmConfig { n: u32 }
struct PeerStore { n: u32 }
struct SwarmObs { c: Counter }
impl PeerStore { fn insert_peer(&mut self) {} }
struct Exchange { x: u32 }
// bt-stage: plan-reads(config), commit-writes(store)
impl RoundStage for Exchange {
    fn name(&self) -> &'static str { \"exchange\" }
    fn run(&mut self, core: &mut SwarmCore) {
        self.plan(core);
        self.commit(core);
    }
}
impl Exchange {
    fn plan(&mut self, core: &SwarmCore) { let n = core.config.n; }
    fn commit(&mut self, core: &mut SwarmCore) { core.store.insert_peer(); }
}
";

    #[test]
    fn split_contract_is_required_and_sufficient_for_plan_commit_stages() {
        let (ws, caps, notes) = analyze(SPLIT_SRC);
        let (matrix, findings) = analyze_stages(&ws, &caps, &notes);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(matrix.stages.len(), 1);
        assert!(matrix.stages[0].plan_commit);
        assert!(matrix.render_json().contains("\"plan_commit\": true"));

        // The plain form on a plan/commit stage is diagnosed with the fix.
        let src = SPLIT_SRC.replace(
            "plan-reads(config), commit-writes(store)",
            "reads(config), writes(store)",
        );
        let (ws, caps, notes) = analyze(&src);
        let (_, findings) = analyze_stages(&ws, &caps, &notes);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0]
                .message
                .contains("// bt-stage: plan-reads(config), commit-writes(store)"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn plan_phase_writes_are_diagnosed() {
        let src = SPLIT_SRC.replace(
            "fn plan(&mut self, core: &SwarmCore) { let n = core.config.n; }",
            "fn plan(&mut self, core: &SwarmCore) { core.store.insert_peer(); }",
        );
        let (ws, caps, notes) = analyze(&src);
        let (_, findings) = analyze_stages(&ws, &caps, &notes);
        // The annotation itself goes stale too (config is no longer
        // read); the purity finding is the one naming the plan phase.
        let purity: Vec<_> = findings
            .iter()
            .filter(|f| f.message.contains("must be read-only"))
            .collect();
        assert_eq!(purity.len(), 1, "{findings:?}");
        assert!(purity[0].message.contains("plan phase of stage `exchange`"));
        assert!(purity[0].message.contains("store"));
    }

    #[test]
    fn ordinary_stages_keep_the_plain_form() {
        let (ws, caps, notes) = analyze(STAGE_SRC);
        let (matrix, findings) = analyze_stages(&ws, &caps, &notes);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(!matrix.stages[0].plan_commit);
        assert!(matrix.render_json().contains("\"plan_commit\": false"));
    }
}
