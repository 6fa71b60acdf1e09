//! The rule catalog and the token-level checkers.
//!
//! Rules operate on the token stream produced by [`crate::lexer::lex`]
//! after test code has been stripped ([`strip_test_code`]): anything
//! under a `#[cfg(test)]` / `#[test]` item is exempt from every rule
//! except the crate-root policy check, which runs on the raw stream.

use crate::diag::{Finding, Severity};
use crate::lexer::{Token, TokenKind};

/// Identifiers of the individual rules. Waivers name these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in simulation/model library code.
    DetUnorderedCollection,
    /// `std::time::{SystemTime, Instant}` in simulation/model library code.
    DetWallClock,
    /// `rand::thread_rng` (ambient, non-seeded RNG) anywhere in scope.
    DetAmbientRng,
    /// `.unwrap()` / `.expect(...)` in telemetry/I-O library code.
    PanicUnwrap,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` in scope.
    PanicMacro,
    /// `expr[...]` indexing (panics on out-of-range) in scope; use `.get`.
    PanicIndex,
    /// Direct `==` / `!=` against a float literal in model numerics.
    FloatCmp,
    /// Crate root missing `#![forbid(unsafe_code)]` / `#![deny(missing_docs)]`.
    PolicyCrateAttrs,
    /// A function outside the sanctioned RNG scope can transitively
    /// reach the model RNG (cross-file, call-graph rule).
    RngReachability,
    /// Interior mutability (`RefCell`/`Cell`/`Mutex`/…) used in — or
    /// reached through a helper from — model code.
    SharedInteriorMut,
    /// Unordered iteration reached through an out-of-scope helper
    /// function from model code (cross-file form of
    /// `det-unordered-collection`).
    SharedUnorderedHelper,
    /// A `RoundStage` impl whose `// bt-stage: reads(…) writes(…)`
    /// capability contract is missing or disagrees with the analyzed
    /// field accesses.
    StageContract,
    /// A commit-phase function (`commit` / `commit_*`) can transitively
    /// reach the model RNG. The commit phase of a plan/commit stage
    /// replays planned decisions; any randomness belongs in the plan
    /// phase's per-pair substreams.
    CommitNoRng,
    /// An inline `// bt-lint: allow(...)` waiver that no longer
    /// suppresses any finding.
    WaiverUnused,
    /// A `pub` library item that no non-test code refers to (see
    /// [`crate::unused`]).
    PubUnused,
}

impl Rule {
    /// Every rule, in catalog order.
    pub const ALL: [Rule; 15] = [
        Rule::DetUnorderedCollection,
        Rule::DetWallClock,
        Rule::DetAmbientRng,
        Rule::PanicUnwrap,
        Rule::PanicMacro,
        Rule::PanicIndex,
        Rule::FloatCmp,
        Rule::PolicyCrateAttrs,
        Rule::RngReachability,
        Rule::SharedInteriorMut,
        Rule::SharedUnorderedHelper,
        Rule::StageContract,
        Rule::CommitNoRng,
        Rule::WaiverUnused,
        Rule::PubUnused,
    ];

    /// Stable rule name, used in diagnostics and waivers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::DetUnorderedCollection => "det-unordered-collection",
            Rule::DetWallClock => "det-wall-clock",
            Rule::DetAmbientRng => "det-ambient-rng",
            Rule::PanicUnwrap => "panic-unwrap",
            Rule::PanicMacro => "panic-macro",
            Rule::PanicIndex => "panic-index",
            Rule::FloatCmp => "float-cmp",
            Rule::PolicyCrateAttrs => "policy-crate-attrs",
            Rule::RngReachability => "rng-reachability",
            Rule::SharedInteriorMut => "shared-interior-mut",
            Rule::SharedUnorderedHelper => "shared-unordered-helper",
            Rule::StageContract => "stage-contract",
            Rule::CommitNoRng => "commit-no-rng",
            Rule::WaiverUnused => "waiver-unused",
            Rule::PubUnused => "pub-unused",
        }
    }

    /// One-line description for `--list-rules` and the docs.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Rule::DetUnorderedCollection => {
                "HashMap/HashSet iteration order is nondeterministic and breaks seeded replay"
            }
            Rule::DetWallClock => {
                "SystemTime/Instant leak wall-clock time into simulation code; use the DES clock"
            }
            Rule::DetAmbientRng => {
                "thread_rng is ambient, unseeded randomness; thread an explicit seeded Rng instead"
            }
            Rule::PanicUnwrap => {
                "unwrap/expect in telemetry and I/O paths; propagate io::Result or a typed error"
            }
            Rule::PanicMacro => {
                "panic-family macro in telemetry and I/O paths; return an error instead"
            }
            Rule::PanicIndex => {
                "direct indexing panics on out-of-range; use .get()/.get_mut() and handle None"
            }
            Rule::FloatCmp => {
                "direct f64 ==/!= against a float literal; use the bt_markov::float helpers"
            }
            Rule::PolicyCrateAttrs => {
                "crate root must carry #![forbid(unsafe_code)] and #![deny(missing_docs)]"
            }
            Rule::RngReachability => {
                "function outside the sanctioned scope can transitively reach the model RNG"
            }
            Rule::SharedInteriorMut => {
                "interior mutability (RefCell/Cell/Mutex/...) in or reachable from model code"
            }
            Rule::SharedUnorderedHelper => {
                "unordered iteration reached through a helper function from model code"
            }
            Rule::StageContract => {
                "RoundStage capability contract (// bt-stage: reads/writes) missing or stale"
            }
            Rule::CommitNoRng => {
                "commit-phase function reaches the model RNG; randomness belongs in the plan phase"
            }
            Rule::WaiverUnused => {
                "inline bt-lint waiver no longer suppresses any finding; remove it"
            }
            Rule::PubUnused => {
                "pub library item no non-test code refers to; delete it or waive it with a reason"
            }
        }
    }

    /// Diagnostic severity. Every current rule blocks the gate.
    #[must_use]
    pub fn severity(self) -> Severity {
        Severity::Error
    }
}

/// Keywords that can legitimately precede `[` without forming an index
/// expression (slice patterns, array types, array literals after `=`…).
const NON_INDEX_PREDECESSORS: [&str; 28] = [
    "let", "mut", "ref", "in", "as", "dyn", "move", "return", "break", "continue", "else", "match",
    "if", "while", "loop", "for", "where", "unsafe", "const", "static", "type", "struct", "enum",
    "union", "impl", "fn", "pub", "use",
];

/// Removes every token belonging to a test-gated item: an item annotated
/// `#[test]`, `#[cfg(test)]`, or `#[cfg(all(test, ...))]` (any `cfg`
/// attribute that mentions `test` and does not mention `not`), including
/// the item's entire body.
#[must_use]
pub fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let (attr_end, gating) = scan_attribute(tokens, i + 1);
            if gating {
                i = skip_item(tokens, attr_end + 1);
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Scans an attribute starting at the `[` index. Returns the index of the
/// closing `]` and whether the attribute gates test code.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident {
            idents.push(&t.text);
        }
        j += 1;
    }
    let gating = match idents.first().copied() {
        Some("cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        Some("cfg_attr") => false,
        Some(_) => idents.last().copied() == Some("test"),
        None => false,
    };
    (j, gating)
}

/// Skips one item starting right after a gating attribute: any further
/// attributes, then tokens up to either a `;` before any brace (e.g.
/// `use` items) or the matching `}` of the item's first brace block.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further stacked attributes (`#[test] #[should_panic] fn …`).
    while i < tokens.len()
        && tokens[i].is_punct("#")
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
    {
        let (end, _) = scan_attribute(tokens, i + 1);
        i = end + 1;
    }
    let mut brace_depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            brace_depth += 1;
        } else if t.is_punct("}") {
            brace_depth -= 1;
            if brace_depth == 0 {
                return i + 1;
            }
        } else if t.is_punct(";") && brace_depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// Runs the token-level rules from `rules` over `tokens` (which should
/// already be test-stripped), appending findings to `findings`.
pub fn check_tokens(rules: &[Rule], tokens: &[Token], file: &str, findings: &mut Vec<Finding>) {
    let mut emit = |rule: Rule, token: &Token, message: String| {
        findings.push(Finding::new(rule, file, token.line, token.col, message));
    };
    for (i, t) in tokens.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
        let next = tokens.get(i + 1);
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "HashMap" | "HashSet" if rules.contains(&Rule::DetUnorderedCollection) => {
                    emit(
                        Rule::DetUnorderedCollection,
                        t,
                        format!(
                            "`{}` has nondeterministic iteration order; use `BTree{}` or a \
                             seeded hasher so seeded replay stays exact",
                            t.text,
                            &t.text[4..]
                        ),
                    );
                }
                "SystemTime" | "Instant" if rules.contains(&Rule::DetWallClock) => {
                    emit(
                        Rule::DetWallClock,
                        t,
                        format!(
                            "`{}` reads wall-clock time, which differs across runs; take time \
                             from the simulation clock instead",
                            t.text
                        ),
                    );
                }
                "RefCell" | "Cell" | "Mutex" | "RwLock" | "OnceLock" | "OnceCell"
                | "UnsafeCell" | "LazyLock"
                    if rules.contains(&Rule::SharedInteriorMut) =>
                {
                    emit(
                        Rule::SharedInteriorMut,
                        t,
                        format!(
                            "`{}` is interior mutability: writes hide behind `&self`, which \
                             defeats the per-stage read/write audit and blocks `Sync` sharding; \
                             use plain fields, `&mut`, or an atomic telemetry cell",
                            t.text
                        ),
                    );
                }
                "static"
                    if rules.contains(&Rule::SharedInteriorMut)
                        && next.is_some_and(|n| n.is_ident("mut")) =>
                {
                    emit(
                        Rule::SharedInteriorMut,
                        t,
                        "`static mut` is unsynchronized global state; thread state explicitly \
                         or use an atomic"
                            .to_string(),
                    );
                }
                "thread_rng" if rules.contains(&Rule::DetAmbientRng) => {
                    emit(
                        Rule::DetAmbientRng,
                        t,
                        "`thread_rng` is unseeded ambient randomness; thread an explicit \
                         seeded `Rng` through instead"
                            .to_string(),
                    );
                }
                "unwrap" | "expect"
                    if rules.contains(&Rule::PanicUnwrap)
                        && prev.is_some_and(|p| p.is_punct("."))
                        && next.is_some_and(|n| n.is_punct("(")) =>
                {
                    emit(
                        Rule::PanicUnwrap,
                        t,
                        format!(
                            "`.{}()` can panic; propagate an `io::Result` or typed error \
                             through this path",
                            t.text
                        ),
                    );
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if rules.contains(&Rule::PanicMacro)
                        && next.is_some_and(|n| n.is_punct("!"))
                        && !prev.is_some_and(|p| p.is_punct("::")) =>
                {
                    emit(
                        Rule::PanicMacro,
                        t,
                        format!("`{}!` aborts the caller; return an error instead", t.text),
                    );
                }
                _ => {}
            }
        }
        if t.is_punct("[") && rules.contains(&Rule::PanicIndex) {
            let indexes = prev.is_some_and(|p| match p.kind {
                TokenKind::Ident => !NON_INDEX_PREDECESSORS.contains(&p.text.as_str()),
                TokenKind::Punct => p.text == ")" || p.text == "]",
                _ => false,
            });
            if indexes {
                emit(
                    Rule::PanicIndex,
                    t,
                    "indexing panics when out of range; use `.get()`/`.get_mut()` and \
                     handle the `None`"
                        .to_string(),
                );
            }
        }
        if (t.is_punct("==") || t.is_punct("!=")) && rules.contains(&Rule::FloatCmp) {
            // A float literal on either side, allowing a unary minus.
            let right_float = match next {
                Some(n) if n.kind == TokenKind::Float => true,
                Some(n) if n.is_punct("-") => tokens
                    .get(i + 2)
                    .is_some_and(|m| m.kind == TokenKind::Float),
                _ => false,
            };
            let left_float = prev.is_some_and(|p| p.kind == TokenKind::Float);
            if left_float || right_float {
                emit(
                    Rule::FloatCmp,
                    t,
                    format!(
                        "direct `{}` against a float literal; use \
                         `bt_markov::float::{{approx_eq, exactly_zero, exactly_one}}`",
                        t.text
                    ),
                );
            }
        }
    }
}

/// Checks the crate-root policy attributes on a raw (un-stripped) token
/// stream: the file must contain both `#![forbid(unsafe_code)]` and
/// `#![deny(missing_docs)]`.
pub fn check_crate_root(tokens: &[Token], file: &str, findings: &mut Vec<Finding>) {
    for (attr, arg) in [("forbid", "unsafe_code"), ("deny", "missing_docs")] {
        if !has_inner_attr(tokens, attr, arg) {
            findings.push(Finding::new(
                Rule::PolicyCrateAttrs,
                file,
                1,
                1,
                format!("crate root is missing `#![{attr}({arg})]`"),
            ));
        }
    }
}

/// Whether the stream contains the inner attribute `#![attr(arg)]`.
fn has_inner_attr(tokens: &[Token], attr: &str, arg: &str) -> bool {
    tokens.windows(7).any(|w| {
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && w[2].is_punct("[")
            && w[3].is_ident(attr)
            && w[4].is_punct("(")
            && w[5].is_ident(arg)
            && w[6].is_punct(")")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rules: &[Rule], src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let clean = strip_test_code(&lexed.tokens);
        let mut findings = Vec::new();
        check_tokens(rules, &clean, "test.rs", &mut findings);
        findings
    }

    #[test]
    fn flags_hashmap_and_hashset() {
        let f = run(
            &[Rule::DetUnorderedCollection],
            "use std::collections::HashMap;\nlet s: HashSet<u32>;",
        );
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn btreemap_is_clean() {
        assert!(run(
            &[Rule::DetUnorderedCollection],
            "use std::collections::BTreeMap;"
        )
        .is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}";
        assert!(run(&[Rule::DetUnorderedCollection], src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn prod() { let m: HashMap<u8, u8>; }";
        assert_eq!(run(&[Rule::DetUnorderedCollection], src).len(), 1);
    }

    #[test]
    fn test_fn_with_stacked_attrs_is_exempt() {
        let src = "#[test]\n#[should_panic(expected = \"x\")]\nfn t() { v.unwrap(); }\nfn p() { w.unwrap(); }";
        let f = run(&[Rule::PanicUnwrap], src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(run(&[Rule::PanicUnwrap], "x.unwrap_or(0); x.unwrap_or_else(f);").is_empty());
    }

    #[test]
    fn fn_named_expect_is_not_a_call_on_receiver() {
        assert!(run(&[Rule::PanicUnwrap], "fn expect(x: u8) {}").is_empty());
    }

    #[test]
    fn panic_macros_flagged_but_paths_are_not() {
        let f = run(
            &[Rule::PanicMacro],
            "panic!(\"boom\"); std::panic::catch_unwind(f);",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn indexing_flagged_but_types_and_patterns_are_not() {
        let clean = "let [a, b] = pair; let s: &[u8] = &x; let t: [f64; 3] = y; vec![1, 2];";
        assert!(run(&[Rule::PanicIndex], clean).is_empty());
        let dirty = "let v = rows[i]; f(x)[0];";
        assert_eq!(run(&[Rule::PanicIndex], dirty).len(), 2);
    }

    #[test]
    fn float_cmp_flags_literal_comparisons_only() {
        let f = run(
            &[Rule::FloatCmp],
            "if mass == 0.0 {}\nif k == 0 {}\nif 1.0 != x {}\nif y == -1.0 {}\nif a <= 0.0 {}",
        );
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 3);
        assert_eq!(f[2].line, 4);
    }

    #[test]
    fn crate_root_policy_detects_missing_attrs() {
        let mut findings = Vec::new();
        let lexed = lex("#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n");
        check_crate_root(&lexed.tokens, "lib.rs", &mut findings);
        assert!(findings.is_empty());

        let lexed = lex("#![warn(missing_docs)]\n");
        check_crate_root(&lexed.tokens, "lib.rs", &mut findings);
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "let s = \"HashMap unwrap() panic!\"; // HashMap\n/* Instant */";
        assert!(run(&Rule::ALL, src).is_empty());
    }
}
