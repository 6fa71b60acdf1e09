//! The `pub-unused` rule: a `pub` item of a library crate that no
//! non-test code refers to.
//!
//! rustc's `dead_code` lint already reports private and `pub(crate)`
//! items nothing uses, but it must assume a `pub` item has callers in
//! other crates. This rule closes that gap over the whole workspace: it
//! indexes every identifier that may name an item in the non-test code
//! of the library and binary sources, the example and bench trees, and
//! the caller-only trees (`btbench/src`), then reports each `pub` fn,
//! inherent method, struct, enum, trait, const or static whose name
//! occurs nowhere outside the item itself.
//!
//! Resolution is by name alone, so every occurrence counts as an edge:
//! a `len` method is live as long as anything calls a `len`. The rule
//! over-approximates liveness on purpose — a missed edge would delete
//! live code, a spurious one only keeps dead code. Occurrences that
//! cannot name the item are skipped: declaration names (`fn x`,
//! `struct X`), field accesses (`a.x` not followed by `(` or `::`),
//! field labels and parameter names (`x:`), and re-exports (`pub use`),
//! which forward a name without using it. An item's own span does not
//! count, and a type's or trait's own `impl` blocks do not either.
//!
//! Exempt: methods of `impl Trait for Type` blocks and signatures in
//! `trait` declarations (the trait decides their shape), items in
//! binaries (`src/main.rs`, `src/bin/`), and items under `#[cfg(test)]`,
//! which never reach the index.
//!
//! A waiver, `// bt-lint: allow(pub-unused) <reason>: <detail>`, keeps a
//! `pub` item nothing in the product calls. Its reason must be one of
//! [`WAIVER_REASONS`]; a waiver without one is itself a finding.

use std::collections::BTreeMap;

use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::parse::{DeclKind, FileAst};
use crate::rules::Rule;

/// The reasons a `pub-unused` waiver may give, as the phrase its comment
/// must contain:
///
/// * `test oracle` — a reference implementation the tests check the
///   product against (a dense solve, a full snapshot);
/// * `integration-test access` — run output that integration tests read
///   through the public API;
/// * `paper entry point` — a `bt-model` or `bt-traces` function whose
///   doc cites the section, equation or figure of the paper it computes.
pub const WAIVER_REASONS: [&str; 3] = [
    "test oracle",
    "integration-test access",
    "paper entry point",
];

/// Keywords whose next identifier is a declared name, not a reference.
const DECL_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "union", "mod", "const", "static",
];

/// Every identifier occurrence that may refer to an item, by name.
#[derive(Debug, Default)]
pub struct References {
    /// Name → `(file, token index)` of each occurrence.
    by_name: BTreeMap<String, Vec<(String, usize)>>,
}

impl References {
    /// Indexes the occurrences in one file's (test-stripped) tokens.
    /// Token indices line up with a [`FileAst`] parsed from the same
    /// stream.
    pub fn index(&mut self, file: &str, tokens: &[Token]) {
        let mut j = 0;
        while j < tokens.len() {
            if let Some(end) = reexport_end(tokens, j) {
                j = end;
                continue;
            }
            let t = &tokens[j];
            if t.kind == TokenKind::Ident && names_an_item(tokens, j) {
                self.by_name
                    .entry(t.text.clone())
                    .or_default()
                    .push((file.to_string(), j));
            }
            j += 1;
        }
    }

    /// Whether `name` occurs outside every `(file, span)` in `excluded`.
    fn used_outside(&self, name: &str, excluded: &[(&str, (usize, usize))]) -> bool {
        self.by_name.get(name).is_some_and(|sites| {
            sites.iter().any(|(file, at)| {
                !excluded
                    .iter()
                    .any(|(f, (lo, hi))| f == file && (lo..hi).contains(&at))
            })
        })
    }
}

/// If a `pub use` (any `pub(...)` form) starts at `j`, the index past
/// its `;`.
fn reexport_end(tokens: &[Token], j: usize) -> Option<usize> {
    if !tokens[j].is_ident("pub") {
        return None;
    }
    let mut k = j + 1;
    if tokens.get(k).is_some_and(|t| t.is_punct("(")) {
        k = tokens[k..].iter().position(|t| t.is_punct(")"))? + k + 1;
    }
    if !tokens.get(k).is_some_and(|t| t.is_ident("use")) {
        return None;
    }
    Some(
        tokens[k..]
            .iter()
            .position(|t| t.is_punct(";"))
            .map_or(tokens.len(), |p| k + p + 1),
    )
}

/// Whether the identifier at `j` can name an item (see module docs).
fn names_an_item(tokens: &[Token], j: usize) -> bool {
    let prev = j.checked_sub(1).map(|p| &tokens[p]);
    let next = tokens.get(j + 1);
    let declares = |k: usize| {
        tokens
            .get(k)
            .is_some_and(|t| t.kind == TokenKind::Ident && DECL_KEYWORDS.contains(&t.text.as_str()))
    };
    // `static mut NAME` declares too; `&mut Type` refers.
    let static_mut = j >= 2 && tokens[j - 1].is_ident("mut") && tokens[j - 2].is_ident("static");
    if (j >= 1 && declares(j - 1)) || static_mut {
        return false;
    }
    if next.is_some_and(|n| n.is_punct(":")) {
        return false;
    }
    let field_access = prev.is_some_and(|p| p.is_punct("."))
        && !next.is_some_and(|n| n.is_punct("(") || n.is_punct("::"));
    !field_access
}

/// Whether `rel` is a binary's source, whose items nothing else links.
fn is_binary(rel: &str) -> bool {
    rel == "src/main.rs" || rel.ends_with("/src/main.rs") || rel.contains("src/bin/")
}

/// Reports every unreferenced `pub` item declared in the library files
/// of `asts`.
pub fn findings(asts: &BTreeMap<String, FileAst>, refs: &References, out: &mut Vec<Finding>) {
    for (file, ast) in asts {
        if is_binary(file) {
            continue;
        }
        for decl in ast.decls.iter().filter(|d| d.public && !d.in_trait) {
            let mut excluded = vec![(file.as_str(), decl.span)];
            if matches!(
                decl.kind,
                DeclKind::Struct | DeclKind::Enum | DeclKind::Trait
            ) {
                for (other, other_ast) in asts {
                    excluded.extend(
                        other_ast
                            .impls
                            .iter()
                            .filter(|i| {
                                i.self_type == decl.name
                                    || i.trait_name.as_deref() == Some(decl.name.as_str())
                            })
                            .map(|i| (other.as_str(), i.span)),
                    );
                }
            }
            if refs.used_outside(&decl.name, &excluded) {
                continue;
            }
            let label = match &decl.owner {
                Some(owner) => format!("{owner}::{}", decl.name),
                None => decl.name.clone(),
            };
            out.push(Finding::new(
                Rule::PubUnused,
                file,
                decl.line,
                1,
                format!(
                    "`{label}` is `pub` but no non-test code in the workspace or btbench refers \
                     to it; delete it (with any test that checks only it) or waive it with a reason"
                ),
            ));
        }
    }
}

/// Whether a `pub-unused` waiver's comment names one of
/// [`WAIVER_REASONS`].
#[must_use]
pub fn waiver_has_reason(note: &str) -> bool {
    let note = note.to_ascii_lowercase();
    WAIVER_REASONS.iter().any(|r| note.contains(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn run(files: &[(&str, &str)]) -> Vec<String> {
        let mut asts = BTreeMap::new();
        let mut refs = References::default();
        for (file, src) in files {
            let tokens = lex(src).tokens;
            refs.index(file, &tokens);
            asts.insert((*file).to_string(), parse_file(file, &tokens));
        }
        let mut out = Vec::new();
        findings(&asts, &refs, &mut out);
        out.iter()
            .map(|f| f.message.split('`').nth(1).unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn reports_only_unreferenced_pub_items() {
        let found = run(&[(
            "crates/a/src/lib.rs",
            "pub fn dead() { dead(); }\n\
             pub fn live() {}\n\
             fn private() { live(); }\n\
             pub(crate) fn narrowed() {}\n\
             pub struct Lonely;\n\
             impl Lonely { pub fn new() -> Lonely { Lonely } }\n\
             impl Clone for Lonely { fn clone(&self) -> Self { Lonely } }\n\
             pub const LIMIT: u32 = 3;\n\
             pub static NAME: &str = \"x\";\n\
             pub enum Mode { A }\n\
             pub trait Shape { fn area(&self) -> f64; }\n\
             pub use inner::Exported;\n\
             pub struct Handle;\n\
             pub static mut COUNTER: u32 = 0;\n\
             fn takes(h: &mut Handle) { let _ = h; }\n",
        )]);
        assert_eq!(
            found,
            vec![
                "dead",
                "Lonely",
                "Lonely::new",
                "LIMIT",
                "NAME",
                "Mode",
                "Shape",
                "COUNTER"
            ]
        );
    }

    #[test]
    fn field_accesses_labels_and_declarations_are_not_references() {
        let found = run(&[
            (
                "crates/a/src/lib.rs",
                "impl Peer { pub fn blocks(&self) -> u32 { 0 } }",
            ),
            (
                "crates/b/src/lib.rs",
                "struct S { blocks: u32 }\n\
                 fn f(s: S, blocks: u32) -> S { let _ = s.blocks; S { blocks: 1 } }\n\
                 impl Other { fn blocks(&self) {} }\n\
                 fn g(p: Peer) { let _ = p.len(); }",
            ),
        ]);
        assert_eq!(found, vec!["Peer::blocks"]);
    }

    #[test]
    fn calls_paths_and_binaries_are_references() {
        let found = run(&[
            (
                "crates/a/src/lib.rs",
                "impl Peer { pub fn blocks(&self) -> u32 { 0 } pub fn build() {} }\n\
                 pub fn by_path() {}\npub fn as_value() {}",
            ),
            (
                "src/main.rs",
                "pub fn bin_only() {}\n\
                 fn main() { p.blocks(); Peer::build(); a::by_path(); xs.map(as_value); }",
            ),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn waiver_reasons_are_recognized() {
        assert!(waiver_has_reason("test oracle: dense reference"));
        assert!(waiver_has_reason("— Integration-test access to run output"));
        assert!(waiver_has_reason("paper entry point (Eq. 4)"));
        assert!(!waiver_has_reason("kept for later"));
        assert!(!waiver_has_reason(""));
    }
}
