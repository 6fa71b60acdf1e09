//! A hand-rolled Rust lexer: just enough token structure for the rule
//! engine, with exact line/column positions.
//!
//! The lexer understands everything that could confuse a grep-based
//! checker — nested block comments, doc comments, string/raw-string/char
//! literals, lifetimes vs. char literals, numeric literal kinds — and
//! collapses the common multi-character operators (`==`, `!=`, `::`, …)
//! into single tokens so rules can pattern-match on operator identity.
//!
//! Comments are not discarded: `// bt-lint: allow(...)` waivers are
//! extracted here (see [`Waivers`]) so the rule engine can suppress
//! findings without re-scanning the source text.

/// What kind of token was lexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `let`, `unwrap`, …).
    Ident,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Floating-point literal (`0.0`, `1e-9`, `2.5f64`).
    Float,
    /// String, raw-string, byte-string, or char literal.
    Literal,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Operator or punctuation, possibly multi-character (`==`, `::`, `{`).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token classification.
    pub kind: TokenKind,
    /// The token text exactly as written.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// 1-based source column of the token's first character.
    pub col: u32,
}

impl Token {
    /// Whether this is a punctuation token with exactly this text.
    #[must_use]
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }

    /// Whether this is an identifier token with exactly this text.
    #[must_use]
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }
}

/// One recorded waiver: a rule name allowed at a line (and the next) or
/// for the whole file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverEntry {
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// Waived rule name (`all` is the wildcard).
    pub rule: String,
    /// Whether the waiver covers the whole file (`allow-file`).
    pub file_wide: bool,
    /// The comment text after the closing `)`: the waiver's reason.
    pub note: String,
}

impl WaiverEntry {
    /// Whether this entry suppresses a finding for `rule` at `line`.
    #[must_use]
    pub fn matches(&self, rule: &str, line: u32) -> bool {
        (self.rule == rule || self.rule == "all")
            && (self.file_wide || self.line == line || self.line.saturating_add(1) == line)
    }
}

/// Inline waivers collected from comments during lexing.
///
/// Syntax (anywhere in a `//` or `/* */` comment):
///
/// * `bt-lint: allow(rule-a, rule-b)` — suppresses findings for the named
///   rules on the comment's line and the line immediately after it (so a
///   waiver can sit at the end of the offending line or on its own line
///   just above).
/// * `bt-lint: allow-file(rule-a)` — suppresses the named rules for the
///   whole file.
///
/// The rule name `all` waives every rule. Entries keep their comment's
/// line so the engine can report waivers that no longer suppress
/// anything (`waiver-unused`).
#[derive(Debug, Default, Clone)]
pub struct Waivers {
    entries: Vec<WaiverEntry>,
}

impl Waivers {
    /// Whether a finding for `rule` at `line` is waived.
    #[must_use]
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.entries.iter().any(|e| e.matches(rule, line))
    }

    /// Every recorded waiver, in source order.
    #[must_use]
    pub fn entries(&self) -> &[WaiverEntry] {
        &self.entries
    }

    fn record(&mut self, comment: &str, line: u32) {
        for (marker, file_wide) in [("bt-lint: allow-file(", true), ("bt-lint: allow(", false)] {
            let Some(start) = comment.find(marker) else {
                continue;
            };
            let rest = &comment[start + marker.len()..];
            let Some(end) = rest.find(')') else { continue };
            let note = rest[end + 1..].trim().to_string();
            for rule in rest[..end].split(',') {
                let rule = rule.trim().to_string();
                if rule.is_empty() {
                    continue;
                }
                self.entries.push(WaiverEntry {
                    line,
                    rule,
                    file_wide,
                    note: note.clone(),
                });
            }
            // `allow-file(` contains `allow(`? No — but `allow(` would also
            // match inside `allow-file(`; matching allow-file first and
            // returning avoids double-recording.
            return;
        }
    }
}

/// The output of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// Waivers extracted from comments.
    pub waivers: Waivers,
    /// `// bt-stage: ...` capability annotations, as `(line, text)` with
    /// the text starting after the `bt-stage:` marker. Consumed by the
    /// stage-contract checker ([`crate::contracts`]).
    pub stage_notes: Vec<(u32, String)>,
}

/// Records the payload of a `// bt-stage: ...` capability annotation.
fn record_stage_note(notes: &mut Vec<(u32, String)>, comment: &str, line: u32) {
    const MARKER: &str = "bt-stage:";
    if let Some(start) = comment.find(MARKER) {
        notes.push((line, comment[start + MARKER.len()..].trim().to_string()));
    }
}

/// Multi-character operators, longest first so maximal munch works.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "==", "!=", "<=", ">=", "->", "=>", "&&", "||", "..", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes Rust source text. Unknown bytes are emitted as single-character
/// punctuation rather than failing: the linter must never crash on source
/// that `rustc` itself will diagnose.
#[must_use]
pub fn lex(source: &str) -> Lexed {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    // Advances past `n` characters, tracking line/column.
    macro_rules! advance {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < bytes.len() {
                    if bytes[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let (start_line, start_col) = (line, col);

        // Whitespace.
        if c.is_whitespace() {
            advance!(1);
            continue;
        }

        // Line comments. Waivers and stage notes live in *plain* `//`
        // comments only: doc comments (`///`, `//!`) are documentation,
        // where waiver syntax appears as quoted examples, not intent.
        if c == '/' && bytes.get(i + 1) == Some(&'/') {
            let doc = matches!(bytes.get(i + 2), Some(&'/') | Some(&'!'));
            let mut text = String::new();
            while i < bytes.len() && bytes[i] != '\n' {
                text.push(bytes[i]);
                advance!(1);
            }
            if !doc {
                out.waivers.record(&text, start_line);
                record_stage_note(&mut out.stage_notes, &text, start_line);
            }
            continue;
        }

        // Block comments, nested. Doc forms (`/**`, `/*!`) are skipped
        // for waiver/stage-note collection like their line equivalents.
        if c == '/' && bytes.get(i + 1) == Some(&'*') {
            let doc = matches!(bytes.get(i + 2), Some(&'*') | Some(&'!'))
                && bytes.get(i + 3) != Some(&'/');
            let mut depth = 0usize;
            let mut text = String::new();
            while i < bytes.len() {
                if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    depth += 1;
                    text.push_str("/*");
                    advance!(2);
                } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    text.push_str("*/");
                    advance!(2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(bytes[i]);
                    advance!(1);
                }
            }
            if !doc {
                out.waivers.record(&text, start_line);
                record_stage_note(&mut out.stage_notes, &text, start_line);
            }
            continue;
        }

        // Raw strings and raw byte strings: r"..." / r#"..."# / br#"..."#.
        if c == 'r' || c == 'b' {
            let mut j = i;
            if bytes[j] == 'b' && bytes.get(j + 1) == Some(&'r') {
                j += 1;
            }
            if bytes[j] == 'r' {
                let mut hashes = 0usize;
                let mut k = j + 1;
                while bytes.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if bytes.get(k) == Some(&'"') {
                    // Consume up to and including the closing quote+hashes.
                    let prefix_len = k + 1 - i;
                    let mut text: String = bytes[i..=k].iter().collect();
                    advance!(prefix_len);
                    loop {
                        if i >= bytes.len() {
                            break;
                        }
                        if bytes[i] == '"' {
                            let mut ok = true;
                            for h in 0..hashes {
                                if bytes.get(i + 1 + h) != Some(&'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                for k2 in 0..=hashes {
                                    text.push(bytes[i + k2]);
                                }
                                advance!(hashes + 1);
                                break;
                            }
                        }
                        text.push(bytes[i]);
                        advance!(1);
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text,
                        line: start_line,
                        col: start_col,
                    });
                    continue;
                }
            }
        }

        // Strings and byte strings with escapes.
        if c == '"' || (c == 'b' && bytes.get(i + 1) == Some(&'"')) {
            let mut text = String::new();
            if c == 'b' {
                text.push('b');
                advance!(1);
            }
            text.push('"');
            advance!(1);
            while i < bytes.len() {
                let ch = bytes[i];
                text.push(ch);
                if ch == '\\' {
                    advance!(1);
                    if i < bytes.len() {
                        text.push(bytes[i]);
                        advance!(1);
                    }
                    continue;
                }
                advance!(1);
                if ch == '"' {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text,
                line: start_line,
                col: start_col,
            });
            continue;
        }

        // Char literal vs. lifetime. `'x'`, `'\n'`, `'\u{1F600}'` are char
        // literals; `'a`, `'static` are lifetimes.
        if c == '\'' {
            let next = bytes.get(i + 1).copied();
            let is_char = match next {
                Some('\\') => true,
                Some(n) if n != '\'' => bytes.get(i + 2) == Some(&'\''),
                _ => false,
            };
            if is_char {
                let mut text = String::from('\'');
                advance!(1);
                if bytes.get(i) == Some(&'\\') {
                    // Escape: consume backslash + escape body up to quote.
                    text.push('\\');
                    advance!(1);
                    while i < bytes.len() && bytes[i] != '\'' {
                        text.push(bytes[i]);
                        advance!(1);
                    }
                } else if i < bytes.len() {
                    text.push(bytes[i]);
                    advance!(1);
                }
                if bytes.get(i) == Some(&'\'') {
                    text.push('\'');
                    advance!(1);
                }
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text,
                    line: start_line,
                    col: start_col,
                });
            } else {
                let mut text = String::from('\'');
                advance!(1);
                while i < bytes.len() && (bytes[i] == '_' || bytes[i].is_alphanumeric()) {
                    text.push(bytes[i]);
                    advance!(1);
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line: start_line,
                    col: start_col,
                });
            }
            continue;
        }

        // Numeric literals.
        if c.is_ascii_digit() {
            let mut text = String::new();
            let mut is_float = false;
            let radix_prefix = c == '0'
                && matches!(bytes.get(i + 1), Some(&'x') | Some(&'o') | Some(&'b'))
                && bytes.get(i + 2).is_some();
            if radix_prefix {
                text.push(bytes[i]);
                text.push(bytes[i + 1]);
                advance!(2);
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    text.push(bytes[i]);
                    advance!(1);
                }
            } else {
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
                    text.push(bytes[i]);
                    advance!(1);
                }
                // Fractional part: a dot followed by a digit (not `..` or a
                // method call like `1.max(2)`).
                if bytes.get(i) == Some(&'.')
                    && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    is_float = true;
                    text.push('.');
                    advance!(1);
                    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
                        text.push(bytes[i]);
                        advance!(1);
                    }
                } else if bytes.get(i) == Some(&'.')
                    && !matches!(bytes.get(i + 1), Some(&'.'))
                    && !bytes
                        .get(i + 1)
                        .is_some_and(|d| d.is_alphabetic() || *d == '_')
                {
                    // Trailing-dot float like `1.`.
                    is_float = true;
                    text.push('.');
                    advance!(1);
                }
                // Exponent.
                if matches!(bytes.get(i), Some(&'e') | Some(&'E')) {
                    let mut k = i + 1;
                    if matches!(bytes.get(k), Some(&'+') | Some(&'-')) {
                        k += 1;
                    }
                    if bytes.get(k).is_some_and(|d| d.is_ascii_digit()) {
                        is_float = true;
                        while i < k {
                            text.push(bytes[i]);
                            advance!(1);
                        }
                        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
                            text.push(bytes[i]);
                            advance!(1);
                        }
                    }
                }
                // Type suffix (`u32`, `f64`, …).
                let suffix_start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    text.push(bytes[i]);
                    advance!(1);
                }
                let suffix: String = bytes[suffix_start..i].iter().collect();
                if suffix == "f32" || suffix == "f64" {
                    is_float = true;
                }
            }
            out.tokens.push(Token {
                kind: if is_float {
                    TokenKind::Float
                } else {
                    TokenKind::Int
                },
                text,
                line: start_line,
                col: start_col,
            });
            continue;
        }

        // Identifiers and keywords.
        if c == '_' || c.is_alphabetic() {
            let mut text = String::new();
            while i < bytes.len() && (bytes[i] == '_' || bytes[i].is_alphanumeric()) {
                text.push(bytes[i]);
                advance!(1);
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line: start_line,
                col: start_col,
            });
            continue;
        }

        // Multi-character operators (maximal munch), then single punctuation.
        let mut matched = None;
        for op in OPERATORS {
            if bytes[i..].iter().take(op.len()).collect::<String>() == **op {
                matched = Some(*op);
                break;
            }
        }
        if let Some(op) = matched {
            advance!(op.len());
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: op.to_string(),
                line: start_line,
                col: start_col,
            });
        } else {
            advance!(1);
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: c.to_string(),
                line: start_line,
                col: start_col,
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn lexes_idents_and_ops() {
        let toks = kinds("let x == y != z;");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "let".into()),
                (TokenKind::Ident, "x".into()),
                (TokenKind::Punct, "==".into()),
                (TokenKind::Ident, "y".into()),
                (TokenKind::Punct, "!=".into()),
                (TokenKind::Ident, "z".into()),
                (TokenKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn distinguishes_float_from_int() {
        let toks = kinds("1 1.0 1e-9 0x1e 2.5f64 3f64 7u32 1..2");
        let kinds_only: Vec<TokenKind> = toks.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds_only,
            vec![
                TokenKind::Int,
                TokenKind::Float,
                TokenKind::Float,
                TokenKind::Int,
                TokenKind::Float,
                TokenKind::Float,
                TokenKind::Int,
                TokenKind::Int,
                TokenKind::Punct,
                TokenKind::Int,
            ]
        );
    }

    #[test]
    fn range_after_int_is_not_a_float() {
        let toks = kinds("0..n");
        assert_eq!(toks[0], (TokenKind::Int, "0".into()));
        assert_eq!(toks[1], (TokenKind::Punct, "..".into()));
    }

    #[test]
    fn comments_and_strings_hide_contents() {
        let toks = kinds("// HashMap\n/* unwrap() */ \"panic!()\" 'x' f()");
        assert_eq!(toks[0], (TokenKind::Literal, "\"panic!()\"".into()));
        assert_eq!(toks[1], (TokenKind::Literal, "'x'".into()));
        assert_eq!(toks[2], (TokenKind::Ident, "f".into()));
    }

    #[test]
    fn nested_block_comment_terminates() {
        let toks = kinds("/* a /* b */ c */ x");
        assert_eq!(toks, vec![(TokenKind::Ident, "x".into())]);
    }

    #[test]
    fn raw_strings_hide_contents() {
        let toks = kinds(r###"r#"unwrap() "quoted" HashMap"# y"###);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "y".into()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("&'a str 'x' '\\n'");
        assert_eq!(toks[1], (TokenKind::Lifetime, "'a".into()));
        assert_eq!(toks[3], (TokenKind::Literal, "'x'".into()));
        assert_eq!(toks[4], (TokenKind::Literal, "'\\n'".into()));
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("a\n  bb");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn waiver_on_same_or_previous_line() {
        let lexed = lex("// bt-lint: allow(det-unordered-collection)\nx\ny");
        assert!(lexed.waivers.covers("det-unordered-collection", 1));
        assert!(lexed.waivers.covers("det-unordered-collection", 2));
        assert!(!lexed.waivers.covers("det-unordered-collection", 3));
        assert!(!lexed.waivers.covers("panic-unwrap", 2));
    }

    #[test]
    fn file_waiver_covers_everything() {
        let lexed = lex("// bt-lint: allow-file(float-cmp)\nfn f() {}\n");
        assert!(lexed.waivers.covers("float-cmp", 999));
        assert!(!lexed.waivers.covers("panic-unwrap", 999));
    }

    #[test]
    fn allow_all_waives_any_rule() {
        let lexed = lex("let x = 1; // bt-lint: allow(all)\n");
        assert!(lexed.waivers.covers("panic-unwrap", 1));
    }

    #[test]
    fn multi_rule_waiver() {
        let lexed = lex("// bt-lint: allow(panic-unwrap, float-cmp)\nx");
        assert!(lexed.waivers.covers("panic-unwrap", 2));
        assert!(lexed.waivers.covers("float-cmp", 2));
    }

    #[test]
    fn waiver_entries_keep_line_and_scope() {
        let lexed = lex("// bt-lint: allow-file(float-cmp)\n// bt-lint: allow(panic-unwrap)\n");
        let entries = lexed.waivers.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].file_wide && entries[0].line == 1 && entries[0].rule == "float-cmp");
        assert!(!entries[1].file_wide && entries[1].line == 2 && entries[1].rule == "panic-unwrap");
    }

    #[test]
    fn stage_notes_are_collected() {
        let lexed = lex("// bt-stage: reads(config) writes(store)\nfn f() {}\n");
        assert_eq!(
            lexed.stage_notes,
            vec![(1, "reads(config) writes(store)".to_string())]
        );
    }
}
