//! Conservative call-graph construction and the cross-file dataflow
//! rules built on it: `rng-reachability`, `shared-interior-mut` (helper
//! form), and `shared-unordered-helper`.
//!
//! ## Extraction
//!
//! For each parsed function the extractor walks the body tokens and
//! records *call sites* and *core accesses*. Receiver chains
//! (`core.store.peer_mut(p)`) are typed left-to-right: the base ident is
//! typed from `self`/parameter hints, each `.field` step folds through
//! the parsed struct tables, and the terminal method resolves against
//! the workspace symbol table. A method call on a std container type
//! produces no workspace edge (cutoff); an untyped receiver falls back
//! to name-based resolution against every same-named method, which
//! over-approximates — acceptable for reachability analyses where a
//! missed edge is worse than a spurious one.
//!
//! ## Write classification
//!
//! An access through a core handle (`&mut SwarmCore` receiver or
//! parameter) is a **write** when the chain is assigned (`=`, `+=`, …),
//! mutably borrowed (`&mut core.field`), or ends in a mutating method —
//! a workspace method taking `&mut self`/`self`, a `_mut`-suffixed
//! name, a known std mutator (`push`, `insert`, `clear`, …), or a
//! method on the interior-mutability telemetry cells (`Counter`,
//! `Timer`) whose `&self` signature hides a semantic write. Uses of the
//! `rng` field are always writes: observing a random stream advances it.

use std::collections::{BTreeMap, VecDeque};

use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::parse::{is_expr_keyword, FnItem};
use crate::resolve::{is_std_type, FnId, Workspace};
use crate::rules::Rule;

/// Methods that mutate their receiver on std containers (and common
/// repo types) even though name resolution cannot see their signatures.
const BUILTIN_MUTATORS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "push_str",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "remove_entry",
    "clear",
    "extend",
    "extend_from_slice",
    "append",
    "truncate",
    "retain",
    "retain_mut",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "dedup",
    "dedup_by",
    "dedup_by_key",
    "drain",
    "swap",
    "swap_remove",
    "fill",
    "resize",
    "reverse",
    "rotate_left",
    "rotate_right",
    "shuffle",
    "entry",
    "get_or_insert_with",
    "take",
    "replace",
    "set",
    "advance",
];

/// `(type, method)` pairs that are semantic writes through `&self`
/// interior mutability (the telemetry cells are atomics under the hood).
const INTERIOR_MUT_WRITES: &[(&str, &str)] = &[
    ("Counter", "incr"),
    ("Counter", "add"),
    ("Counter", "record_max"),
    ("Timer", "record"),
    ("Timer", "time"),
];

/// Identifiers whose presence in a function marks it as using interior
/// mutability (shared-state audit, `shared-interior-mut`).
const INTERIOR_MUT_IDENTS: &[&str] = &[
    "RefCell",
    "Cell",
    "Mutex",
    "RwLock",
    "OnceLock",
    "OnceCell",
    "UnsafeCell",
    "LazyLock",
    "lazy_static",
    "thread_local",
];

/// Identifiers marking unordered iteration (`shared-unordered-helper`).
const UNORDERED_IDENTS: &[&str] = &["HashMap", "HashSet"];

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `name(...)` — free function (or tuple-struct constructor).
    Free,
    /// `recv.name(...)` with the receiver chain typed to a known type.
    Typed(String),
    /// `recv.name(...)` with an untypable receiver.
    Unknown,
    /// `Qualifier::name(...)` path call.
    Path(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Receiver classification.
    pub recv: Receiver,
    /// 1-based source line.
    pub line: u32,
}

/// One access to a field of the engine-core type through a handle.
#[derive(Debug, Clone)]
pub struct CoreAccess {
    /// Field of the core struct (`store`, `rng`, `metrics`, …).
    pub field: String,
    /// Whether the access mutates (see module docs for the rules).
    pub write: bool,
    /// 1-based source line.
    pub line: u32,
}

/// Everything extracted from one function body.
#[derive(Debug, Default, Clone)]
pub struct FnFacts {
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Core-field accesses, in source order.
    pub core: Vec<CoreAccess>,
    /// Interior-mutability identifiers used directly: `(ident, line)`.
    pub interior_mut: Vec<(String, u32)>,
    /// Unordered-collection identifiers used directly: `(ident, line)`.
    pub unordered: Vec<(String, u32)>,
    /// Whether a parameter names or types the model RNG.
    pub rng_param: bool,
}

/// The resolved call graph over a [`Workspace`].
#[derive(Debug)]
pub struct CallGraph {
    /// Per-function facts, parallel to `Workspace::functions`.
    pub facts: Vec<FnFacts>,
    /// Resolved edges: `edges[f]` = `(callee, call line, strong)`.
    /// An edge is *strong* when the callee was named directly (free or
    /// path call) or the receiver chain typed it; *weak* edges come from
    /// the untyped-receiver name fallback and over-approximate. The
    /// reachability analyses traverse both; findings that accuse a
    /// specific call site only fire on strong edges.
    pub edges: Vec<Vec<(FnId, u32, bool)>>,
}

/// Whether `text` is an assignment operator (excluding `==`, `=>`).
fn is_assign_op(text: &str) -> bool {
    matches!(
        text,
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>="
    )
}

/// Skips a balanced `(...)` group; `open` indexes the `(`. Returns the
/// index just past the matching `)`.
fn skip_parens(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct("(") {
            depth += 1;
        } else if tokens[i].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Skips a turbofish (`::<...>`) if one starts at `i` (the `::` token).
/// Returns the index after it, or `i` unchanged.
fn skip_turbofish(tokens: &[Token], i: usize) -> usize {
    if !tokens.get(i).is_some_and(|t| t.is_punct("::")) {
        return i;
    }
    let Some(first) = tokens.get(i + 1) else {
        return i;
    };
    let delta = match first.text.as_str() {
        "<" => 1,
        "<<" => 2,
        _ => return i,
    };
    let mut depth: i32 = 0;
    let mut j = i + 1;
    let _ = delta;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            depth += match t.text.as_str() {
                "<" => 1,
                ">" => -1,
                "<<" => 2,
                ">>" => -2,
                _ => 0,
            };
            if depth <= 0 && (t.is_punct(">") || t.is_punct(">>")) {
                return j + 1;
            }
        }
        j += 1;
    }
    i
}

/// Whether a method call mutates its receiver, given the receiver type
/// hint (if any) and the workspace signature (if resolvable).
#[must_use]
pub fn is_mutating_method(ws: &Workspace, recv_type: Option<&str>, name: &str) -> bool {
    if name.ends_with("_mut") || BUILTIN_MUTATORS.contains(&name) {
        return true;
    }
    if let Some(t) = recv_type {
        if INTERIOR_MUT_WRITES.contains(&(t, name)) {
            return true;
        }
        if let Some(id) = ws.method(t, name) {
            use crate::parse::SelfKind;
            return matches!(
                ws.functions[id].self_kind,
                Some(SelfKind::RefMut | SelfKind::Value)
            );
        }
    }
    false
}

/// Extracts call sites, core accesses, and taint idents from one
/// function. `core_type` names the engine-core struct whose field
/// accesses are tracked (`SwarmCore`).
#[must_use]
pub fn extract_facts(ws: &Workspace, f: &FnItem, core_type: &str) -> FnFacts {
    let mut facts = FnFacts::default();

    // Handle table: base ident → type.
    let mut handles: BTreeMap<&str, &str> = BTreeMap::new();
    if let Some(owner) = &f.owner {
        if f.self_kind.is_some() {
            handles.insert("self", owner.as_str());
        }
    }
    for p in &f.params {
        if !p.name.is_empty() {
            if let Some(t) = p.primary_type() {
                handles.insert(p.name.as_str(), t);
            }
        }
        // A name-based hint only counts when the declared type is not a
        // known workspace struct: `rng: &mut StdRng` and generic
        // `rng: &mut R` are roots, but `rng: &RngReachability` (this
        // linter analyzing itself) is just a well-named parameter.
        let rng_named = (p.name == "rng" || p.name.ends_with("_rng"))
            && p.primary_type().is_none_or(|t| !ws.structs.contains_key(t));
        let rng_typed = p.type_idents.iter().any(|t| {
            matches!(
                t.as_str(),
                "Rng"
                    | "RngCore"
                    | "StdRng"
                    | "SmallRng"
                    | "SeedStream"
                    | "Substream"
                    | "PlanStream"
            )
        });
        if rng_named || rng_typed {
            facts.rng_param = true;
        }
    }

    let tokens = &f.body;
    let mut j = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind != TokenKind::Ident {
            j += 1;
            continue;
        }
        // Taint idents are recorded wherever they appear.
        if INTERIOR_MUT_IDENTS.contains(&t.text.as_str()) {
            facts.interior_mut.push((t.text.clone(), t.line));
        } else if UNORDERED_IDENTS.contains(&t.text.as_str()) {
            facts.unordered.push((t.text.clone(), t.line));
        }
        // Only chain/path *bases* start an analysis: a previous `.`/`::`
        // means this ident is an interior segment already handled.
        let prev = j.checked_sub(1).map(|p| &tokens[p]);
        if prev.is_some_and(|p| p.is_punct(".") || p.is_punct("::")) {
            j += 1;
            continue;
        }
        if is_expr_keyword(&t.text) || t.text == "fn" {
            j += 1;
            continue;
        }
        let next = tokens.get(j + 1);
        // Macro invocation: `name ! (...)` — never a call edge.
        if next.is_some_and(|n| n.is_punct("!")) {
            j += 1;
            continue;
        }
        // Path call: `A::B::name(...)`.
        if next.is_some_and(|n| n.is_punct("::")) {
            let mut segs: Vec<&str> = vec![&t.text];
            let mut k = j + 1;
            while tokens.get(k).is_some_and(|n| n.is_punct("::")) {
                let after = skip_turbofish(tokens, k);
                if after != k {
                    k = after;
                    continue;
                }
                match tokens.get(k + 1) {
                    Some(n) if n.kind == TokenKind::Ident => {
                        segs.push(&n.text);
                        k += 2;
                    }
                    _ => break,
                }
            }
            if tokens.get(k).is_some_and(|n| n.is_punct("(")) && segs.len() >= 2 {
                let name = (*segs.last().unwrap()).to_string();
                let qual = segs[segs.len() - 2];
                let qual = if qual == "Self" {
                    f.owner.as_deref().unwrap_or(qual)
                } else {
                    qual
                };
                facts.calls.push(CallSite {
                    name,
                    recv: Receiver::Path(qual.to_string()),
                    line: t.line,
                });
            }
            j += 1;
            continue;
        }
        // Free call: `name(...)` — excluding declaration-ish contexts.
        if next.is_some_and(|n| n.is_punct("(")) {
            facts.calls.push(CallSite {
                name: t.text.clone(),
                recv: Receiver::Free,
                line: t.line,
            });
            j += 1;
            continue;
        }
        // Receiver chain: `base.seg...`.
        if next.is_some_and(|n| n.is_punct(".")) {
            let base_type = handles.get(t.text.as_str()).copied();
            let is_core = base_type == Some(core_type);
            let borrow_mut = j >= 2 && tokens[j - 1].is_ident("mut") && tokens[j - 2].is_punct("&");
            let mut cur_type: Option<String> = base_type.map(str::to_string);
            let mut core_field: Option<(String, u32)> = None;
            let mut wrote = borrow_mut;
            let mut pos = j + 1; // at the first `.`
            while tokens.get(pos).is_some_and(|n| n.is_punct(".")) {
                let Some(seg) = tokens.get(pos + 1) else {
                    break;
                };
                if seg.kind == TokenKind::Int {
                    // Tuple index: untyped from here on.
                    cur_type = None;
                    pos += 2;
                    continue;
                }
                if seg.kind != TokenKind::Ident {
                    break;
                }
                let mut m = pos + 2;
                m = skip_turbofish(tokens, m);
                if tokens.get(m).is_some_and(|n| n.is_punct("(")) {
                    // Method call segment.
                    let recv_hint = cur_type.as_deref();
                    let recv = match recv_hint {
                        Some(ty) => Receiver::Typed(ty.to_string()),
                        None => Receiver::Unknown,
                    };
                    facts.calls.push(CallSite {
                        name: seg.text.clone(),
                        recv,
                        line: seg.line,
                    });
                    if is_mutating_method(ws, recv_hint, &seg.text) {
                        wrote = true;
                    }
                    pos = skip_parens(tokens, m);
                    cur_type = None; // return types are not tracked
                } else {
                    // Field access segment.
                    if is_core && core_field.is_none() {
                        core_field = Some((seg.text.clone(), seg.line));
                    }
                    cur_type = cur_type
                        .as_deref()
                        .and_then(|ty| ws.field_type(ty, &seg.text))
                        .map(str::to_string);
                    pos += 2;
                }
            }
            // Trailing `?` operators do not end the place expression.
            while tokens.get(pos).is_some_and(|n| n.is_punct("?")) {
                pos += 1;
            }
            if tokens
                .get(pos)
                .is_some_and(|n| n.kind == TokenKind::Punct && is_assign_op(&n.text))
            {
                wrote = true;
            }
            if let Some((field, line)) = core_field {
                facts.core.push(CoreAccess {
                    field,
                    write: wrote,
                    line,
                });
            }
            j += 1;
            continue;
        }
        j += 1;
    }
    facts
}

/// Resolves one call site to workspace function ids. `owner` is the
/// caller's impl type (for `Self::` paths, already substituted during
/// extraction).
#[must_use]
pub fn resolve_call(ws: &Workspace, call: &CallSite) -> Vec<FnId> {
    match &call.recv {
        Receiver::Free => ws.free_fns(&call.name).to_vec(),
        Receiver::Path(qual) => {
            if let Some(id) = ws.method(qual, &call.name) {
                vec![id]
            } else if is_std_type(qual) {
                Vec::new()
            } else {
                // Module-qualified free function (`selection::pick(...)`).
                ws.free_fns(&call.name).to_vec()
            }
        }
        Receiver::Typed(ty) => {
            if let Some(id) = ws.method(ty, &call.name) {
                vec![id]
            } else {
                // Known type without that method: std cutoff or a
                // vendored type — no workspace edge either way.
                Vec::new()
            }
        }
        // A method call on an untyped receiver can only be a method —
        // never a free function — so the fallback stays method-only.
        Receiver::Unknown => ws.methods_named(&call.name).to_vec(),
    }
}

impl CallGraph {
    /// Extracts facts and resolves edges for every workspace function.
    #[must_use]
    pub fn build(ws: &Workspace, core_type: &str) -> CallGraph {
        let facts: Vec<FnFacts> = ws
            .functions
            .iter()
            .map(|f| extract_facts(ws, f, core_type))
            .collect();
        let edges = facts
            .iter()
            .map(|fc| {
                let mut out: Vec<(FnId, u32, bool)> = Vec::new();
                for call in &fc.calls {
                    let strong = call.recv != Receiver::Unknown;
                    for id in resolve_call(ws, call) {
                        out.push((id, call.line, strong));
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        CallGraph { facts, edges }
    }
}

/// RNG reachability over the call graph.
#[derive(Debug)]
pub struct RngReachability {
    /// Whether each function is itself an RNG root.
    pub root: Vec<bool>,
    /// Whether each function can reach an RNG root (roots included).
    pub reaches: Vec<bool>,
    /// For reaching functions, the next callee on a path to a root.
    pub next_hop: Vec<Option<FnId>>,
}

/// Computes which functions can transitively reach the model RNG.
///
/// Roots are functions that (a) take an RNG parameter (typed `Rng`/
/// `StdRng`/`SeedStream`/`Substream`/`PlanStream`, or named
/// `rng`/`*_rng` with a non-workspace type), (b) access the core `rng`
/// field, or (c) are methods of a seeded-stream type itself
/// (`SeedStream`, or the stateless plan-phase `PlanStream`). Pure hash
/// helpers in the rng module (`splitmix64`, seed derivation) are
/// deliberately *not* roots: they consume no stream state, so calling
/// them from observer code cannot perturb replay.
#[must_use]
pub fn rng_reachability(ws: &Workspace, cg: &CallGraph) -> RngReachability {
    let n = ws.functions.len();
    let mut root = vec![false; n];
    for (id, f) in ws.functions.iter().enumerate() {
        let facts = &cg.facts[id];
        if facts.rng_param
            || facts.core.iter().any(|a| a.field == "rng")
            || matches!(f.owner.as_deref(), Some("SeedStream" | "PlanStream"))
        {
            root[id] = true;
        }
    }
    // Reverse edges, then BFS from the roots.
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); n];
    for (caller, outs) in cg.edges.iter().enumerate() {
        for &(callee, _, _) in outs {
            rev[callee].push(caller);
        }
    }
    let mut reaches = vec![false; n];
    let mut next_hop: Vec<Option<FnId>> = vec![None; n];
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (id, is_root) in root.iter().enumerate() {
        if *is_root {
            reaches[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &caller in &rev[id] {
            if !reaches[caller] {
                reaches[caller] = true;
                next_hop[caller] = Some(id);
                queue.push_back(caller);
            }
        }
    }
    RngReachability {
        root,
        reaches,
        next_hop,
    }
}

/// Renders the call path from `id` toward an RNG root, for diagnostics.
#[must_use]
pub fn rng_path(ws: &Workspace, rng: &RngReachability, mut id: FnId) -> String {
    let mut parts = vec![ws.label(id)];
    let mut hops = 0;
    while let Some(next) = rng.next_hop[id] {
        parts.push(ws.label(next));
        id = next;
        hops += 1;
        if hops > 12 {
            parts.push("…".to_string());
            break;
        }
    }
    parts.join(" -> ")
}

/// Emits `rng-reachability` findings: every function that can reach the
/// RNG but whose file is not sanctioned.
pub fn rng_findings(
    ws: &Workspace,
    rng: &RngReachability,
    sanctioned: &dyn Fn(&str) -> bool,
    out: &mut Vec<Finding>,
) {
    for (id, f) in ws.functions.iter().enumerate() {
        if rng.reaches[id] && !sanctioned(&f.file) {
            out.push(Finding::new(
                Rule::RngReachability,
                &f.file,
                f.line,
                1,
                format!(
                    "`{}` can reach the model RNG ({}) but `{}` is outside the sanctioned RNG scope; \
                     routing randomness through observer/telemetry code breaks seeded replay",
                    ws.label(id),
                    rng_path(ws, rng, id),
                    f.file
                ),
            ));
        }
    }
}

/// Emits `commit-no-rng` findings: a commit-phase function (named
/// `commit` or `commit_*`) that can transitively reach the model RNG.
/// The commit phase of a plan/commit stage must replay decisions the
/// plan phase already made — if it can reach a random stream, the
/// serial commit order reintroduces a draw-order dependence that the
/// sharded plan phase was built to eliminate.
pub fn commit_no_rng_findings(ws: &Workspace, rng: &RngReachability, out: &mut Vec<Finding>) {
    for (id, f) in ws.functions.iter().enumerate() {
        let commit_phase = f.name == "commit" || f.name.starts_with("commit_");
        if commit_phase && rng.reaches[id] {
            out.push(Finding::new(
                Rule::CommitNoRng,
                &f.file,
                f.line,
                1,
                format!(
                    "`{}` is a commit-phase function but can reach the model RNG ({}); \
                     move the random choice into the plan phase's per-pair substream",
                    ws.label(id),
                    rng_path(ws, rng, id),
                ),
            ));
        }
    }
}

/// Taint classification for the shared-state audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaintKind {
    InteriorMut,
    Unordered,
}

/// Per-function taint: the root cause `(function, ident)` if tainted.
fn propagate_taint(ws: &Workspace, cg: &CallGraph, kind: TaintKind) -> Vec<Option<(FnId, String)>> {
    let n = ws.functions.len();
    let mut taint: Vec<Option<(FnId, String)>> = vec![None; n];
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (id, facts) in cg.facts.iter().enumerate() {
        let direct = match kind {
            TaintKind::InteriorMut => facts.interior_mut.first(),
            TaintKind::Unordered => facts.unordered.first(),
        };
        // Parameter types count too: a helper taking `&Mutex<T>` is as
        // tainted as one constructing the mutex.
        let param_hit = ws.functions[id].params.iter().find_map(|p| {
            p.type_idents
                .iter()
                .find(|t| match kind {
                    TaintKind::InteriorMut => INTERIOR_MUT_IDENTS.contains(&t.as_str()),
                    TaintKind::Unordered => UNORDERED_IDENTS.contains(&t.as_str()),
                })
                .cloned()
        });
        if let Some((ident, _)) = direct {
            taint[id] = Some((id, ident.clone()));
            queue.push_back(id);
        } else if let Some(ident) = param_hit {
            taint[id] = Some((id, ident));
            queue.push_back(id);
        }
    }
    // Reverse propagation: callers of tainted functions are tainted.
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); n];
    for (caller, outs) in cg.edges.iter().enumerate() {
        for &(callee, _, _) in outs {
            rev[callee].push(caller);
        }
    }
    while let Some(id) = queue.pop_front() {
        let cause = taint[id].clone();
        for &caller in &rev[id] {
            if taint[caller].is_none() {
                taint[caller] = cause.clone();
                queue.push_back(caller);
            }
        }
    }
    taint
}

/// Emits the shared-state audit findings: a model-scope function calling
/// an out-of-scope helper that (transitively) uses interior mutability
/// or unordered iteration. In-scope direct uses are already covered by
/// the token rules; this closes the cross-file blind spot. Only strong
/// edges accuse a call site — a weak name-fallback edge is too likely to
/// be a std-method collision (`fmt`/`finish`/`record`) to block CI on.
pub fn shared_state_findings(
    ws: &Workspace,
    cg: &CallGraph,
    model_scope: &dyn Fn(&str) -> bool,
    out: &mut Vec<Finding>,
) {
    for kind in [TaintKind::InteriorMut, TaintKind::Unordered] {
        let taint = propagate_taint(ws, cg, kind);
        let rule = match kind {
            TaintKind::InteriorMut => Rule::SharedInteriorMut,
            TaintKind::Unordered => Rule::SharedUnorderedHelper,
        };
        let mut seen: Vec<(String, u32, FnId)> = Vec::new();
        for (caller, outs) in cg.edges.iter().enumerate() {
            let cf = &ws.functions[caller];
            if !model_scope(&cf.file) {
                continue;
            }
            for &(callee, line, strong) in outs {
                if !strong {
                    continue; // weak fallback edges don't accuse call sites
                }
                let tf = &ws.functions[callee];
                if model_scope(&tf.file) {
                    continue; // in-scope callee: token rules own it
                }
                let Some((root, ident)) = &taint[callee] else {
                    continue;
                };
                let key = (cf.file.clone(), line, callee);
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                let what = match kind {
                    TaintKind::InteriorMut => "interior mutability",
                    TaintKind::Unordered => "unordered iteration",
                };
                out.push(Finding::new(
                    rule,
                    &cf.file,
                    line,
                    1,
                    format!(
                        "`{}` calls `{}` which uses {} (`{}` in `{}`); shared hidden state \
                         reached from model code must be audited for seeded-replay safety",
                        ws.label(caller),
                        ws.label(callee),
                        what,
                        ident,
                        ws.functions[*root].file,
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;
    use std::collections::BTreeMap;

    fn build(srcs: &[(&str, &str)]) -> (Workspace, CallGraph) {
        let mut files = BTreeMap::new();
        for (file, src) in srcs {
            files.insert((*file).to_string(), parse_file(file, &lex(src).tokens));
        }
        let ws = Workspace::build(&files);
        let cg = CallGraph::build(&ws, "SwarmCore");
        (ws, cg)
    }

    fn fn_id(ws: &Workspace, label: &str) -> FnId {
        (0..ws.functions.len())
            .find(|&i| ws.label(i) == label)
            .unwrap_or_else(|| panic!("no fn {label}"))
    }

    #[test]
    fn typed_chains_resolve_through_fields() {
        let (ws, cg) = build(&[(
            "a.rs",
            "struct SwarmCore { store: PeerStore, rng: StdRng }\n\
             struct PeerStore { n: u32 }\n\
             impl PeerStore { fn peer_mut(&mut self) -> u32 { 0 } }\n\
             fn helper(core: &mut SwarmCore) { core.store.peer_mut(); }",
        )]);
        let h = fn_id(&ws, "helper");
        let pm = fn_id(&ws, "PeerStore::peer_mut");
        assert!(cg.edges[h].iter().any(|&(id, _, _)| id == pm));
        // `peer_mut` is `_mut`-suffixed → write of the `store` field.
        let acc = &cg.facts[h].core[0];
        assert_eq!(acc.field, "store");
        assert!(acc.write);
    }

    #[test]
    fn same_name_methods_do_not_cross_resolve_when_typed() {
        let (ws, cg) = build(&[(
            "a.rs",
            "struct SwarmCore { tracker: Tracker, cohort: CohortSink }\n\
             struct Tracker { x: u32 }\n\
             struct CohortSink { y: u32 }\n\
             impl Tracker { fn handout(&self) {} }\n\
             impl CohortSink { fn handout(&mut self) {} }\n\
             fn f(core: &mut SwarmCore) { core.tracker.handout(); }",
        )]);
        let f = fn_id(&ws, "f");
        let t = fn_id(&ws, "Tracker::handout");
        let c = fn_id(&ws, "CohortSink::handout");
        assert!(cg.edges[f].iter().any(|&(id, _, _)| id == t));
        assert!(!cg.edges[f].iter().any(|&(id, _, _)| id == c));
        // &self Tracker::handout is not a write of `tracker`.
        assert!(!cg.facts[f].core[0].write);
    }

    #[test]
    fn assignment_and_borrow_mut_are_writes() {
        let (_ws, cg) = build(&[(
            "a.rs",
            "struct SwarmCore { round: u64, store: PeerStore }\n\
             struct PeerStore { n: u32 }\n\
             fn f(core: &mut SwarmCore) { core.round += 1; let s = &mut core.store; }",
        )]);
        let accesses = &cg.facts.iter().flat_map(|f| &f.core).collect::<Vec<_>>();
        assert!(accesses.iter().all(|a| a.write));
        assert_eq!(accesses.len(), 2);
    }

    #[test]
    fn rng_reachability_follows_call_chains() {
        let (ws, cg) = build(&[(
            "crates/swarm/src/x.rs",
            "struct SwarmCore { rng: StdRng }\n\
             fn uses_rng(core: &mut SwarmCore) { core.rng.next(); }\n\
             fn caller(core: &mut SwarmCore) { uses_rng(core); }\n\
             fn innocent() {}",
        )]);
        let rng = rng_reachability(&ws, &cg);
        assert!(rng.root[fn_id(&ws, "uses_rng")]);
        assert!(rng.reaches[fn_id(&ws, "caller")]);
        assert!(!rng.reaches[fn_id(&ws, "innocent")]);
        let path = rng_path(&ws, &rng, fn_id(&ws, "caller"));
        assert!(path.contains("caller -> uses_rng"), "{path}");
    }

    #[test]
    fn rng_findings_respect_sanctioned_scope() {
        let (ws, cg) = build(&[
            (
                "crates/swarm/src/stages/x.rs",
                "struct SwarmCore { rng: StdRng }\nfn stage_fn(core: &mut SwarmCore) { core.rng.next(); }",
            ),
            (
                "crates/obs/src/bad.rs",
                "fn observer(core: &mut SwarmCore) { stage_fn(core); }",
            ),
        ]);
        let rng = rng_reachability(&ws, &cg);
        let mut out = Vec::new();
        rng_findings(
            &ws,
            &rng,
            &|file| file.starts_with("crates/swarm/"),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].file, "crates/obs/src/bad.rs");
        assert!(out[0].message.contains("observer -> stage_fn"));
    }

    #[test]
    fn plan_stream_methods_are_rng_roots() {
        let (ws, cg) = build(&[(
            "crates/swarm/src/rng.rs",
            "struct PlanStream { hi: u64, lo: u64 }\n\
             impl PlanStream { fn pick(&mut self, n: usize) -> usize { 0 } }\n\
             fn planner(stream: &mut PlanStream) { stream.pick(4); }",
        )]);
        let rng = rng_reachability(&ws, &cg);
        assert!(rng.root[fn_id(&ws, "PlanStream::pick")]);
        assert!(rng.reaches[fn_id(&ws, "planner")]);
    }

    #[test]
    fn commit_phase_reaching_rng_is_flagged() {
        let (ws, cg) = build(&[(
            "crates/swarm/src/stages/x.rs",
            "struct SwarmCore { rng: StdRng }\n\
             struct Stage { n: u32 }\n\
             impl Stage {\n\
                 fn commit(&mut self, core: &mut SwarmCore) { core.rng.next(); }\n\
                 fn commit_one(&mut self, core: &mut SwarmCore) { self.commit(core); }\n\
                 fn plan(&mut self, core: &SwarmCore) {}\n\
             }",
        )]);
        let rng = rng_reachability(&ws, &cg);
        let mut out = Vec::new();
        commit_no_rng_findings(&ws, &rng, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == Rule::CommitNoRng));
        assert!(out[0].message.contains("Stage::commit"));

        // An RNG-free commit stays clean even when `plan` draws.
        let (ws, cg) = build(&[(
            "crates/swarm/src/stages/x.rs",
            "struct SwarmCore { round: u64 }\n\
             struct PlanStream { hi: u64 }\n\
             impl PlanStream { fn pick(&mut self) -> usize { 0 } }\n\
             struct Stage { n: u32 }\n\
             impl Stage {\n\
                 fn plan(&mut self, core: &SwarmCore, stream: &mut PlanStream) { stream.pick(); }\n\
                 fn commit(&mut self, core: &mut SwarmCore) { core.round += 1; }\n\
             }",
        )]);
        let rng = rng_reachability(&ws, &cg);
        let mut out = Vec::new();
        commit_no_rng_findings(&ws, &rng, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn shared_state_audit_flags_cross_scope_helpers() {
        let (ws, cg) = build(&[
            (
                "crates/swarm/src/model.rs",
                "fn model_step() { helper_log(); }",
            ),
            (
                "crates/obs/src/sink.rs",
                "fn helper_log() { deeper(); }\n\
                 fn deeper() { let m = Mutex::new(0); }",
            ),
        ]);
        let mut out = Vec::new();
        shared_state_findings(&ws, &cg, &|f| f.starts_with("crates/swarm/"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::SharedInteriorMut);
        assert_eq!(out[0].file, "crates/swarm/src/model.rs");
        assert!(out[0].message.contains("Mutex"));
    }

    #[test]
    fn counter_cells_classify_as_writes() {
        let (_ws, cg) = build(&[(
            "a.rs",
            "struct SwarmCore { obs: SwarmObs }\n\
             struct SwarmObs { pieces: Counter }\n\
             struct Counter { v: u64 }\n\
             impl Counter { fn add(&self, n: u64) {} }\n\
             fn f(core: &mut SwarmCore) { core.obs.pieces.add(1); }",
        )]);
        let acc = cg
            .facts
            .iter()
            .flat_map(|f| &f.core)
            .find(|a| a.field == "obs")
            .unwrap();
        assert!(acc.write);
    }
}
