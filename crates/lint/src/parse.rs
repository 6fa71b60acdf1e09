//! A lightweight item parser on top of the lexer: extracts functions,
//! impl blocks, structs, and their signatures from a token stream.
//!
//! This is deliberately *not* a full Rust parser. It recovers exactly
//! the structure the workspace analyses need — which functions exist,
//! who owns them (`impl Type` / `impl Trait for Type` / `trait Decl`),
//! what their parameters look like, which tokens form their bodies, and
//! which fields a struct declares with which primary type — and skips
//! everything else by balanced-delimiter matching. Inputs are expected
//! to be test-stripped ([`crate::rules::strip_test_code`]) so test-only
//! items never enter the symbol tables.
//!
//! Known approximations (all conservative for the downstream rules):
//! macro-generated items are invisible, type aliases are not followed,
//! and generic parameters resolve to their literal identifier.

use crate::lexer::{Token, TokenKind};

/// How a method takes `self`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelfKind {
    /// `self` or `mut self` by value.
    Value,
    /// `&self` (possibly with a lifetime).
    Ref,
    /// `&mut self`.
    RefMut,
}

/// One function parameter: its pattern name (when it is a plain
/// identifier) and every identifier appearing in its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name (`core`, `rng`, …); empty for non-trivial patterns.
    pub name: String,
    /// Identifiers appearing in the type, in order (`&mut SwarmCore`
    /// yields `["SwarmCore"]`, `Vec<PeerId>` yields `["Vec", "PeerId"]`).
    pub type_idents: Vec<String>,
}

impl Param {
    /// The primary type identifier: the last segment of the leading
    /// type path, before any generic arguments (`bt_obs::ProfileSink`
    /// → `ProfileSink`, `Vec<PeerId>` → `Vec`).
    #[must_use]
    pub fn primary_type(&self) -> Option<&str> {
        self.type_idents.first().map(String::as_str)
    }
}

/// One parsed function (free function, method, or trait signature).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// File the function is defined in (engine-relative label).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Self type of the enclosing `impl` (or trait name for signatures
    /// inside a `trait` block); `None` for free functions.
    pub owner: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
    /// How the function takes `self`, if it does.
    pub self_kind: Option<SelfKind>,
    /// Non-self parameters.
    pub params: Vec<Param>,
    /// Body tokens (contents of the outer braces); empty for bodyless
    /// trait signatures.
    pub body: Vec<Token>,
}

/// One parsed `impl` block header.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// The implementing type (`ExchangePieces` in
    /// `impl RoundStage for ExchangePieces`).
    pub self_type: String,
    /// The implemented trait, when this is a trait impl.
    pub trait_name: Option<String>,
    /// File of the impl header.
    pub file: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
}

/// One parsed struct with named fields.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// `(field, primary type identifier)` pairs in declaration order.
    pub fields: Vec<(String, String)>,
}

/// Everything extracted from one file.
#[derive(Debug, Default, Clone)]
pub struct FileAst {
    /// Functions (free and methods) in source order.
    pub functions: Vec<FnItem>,
    /// Impl-block headers in source order.
    pub impls: Vec<ImplItem>,
    /// Structs with named fields.
    pub structs: Vec<StructItem>,
}

/// Keywords that start items the parser recognizes or skips.
const EXPR_KEYWORDS: [&str; 14] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "let", "where",
];

/// Whether `name` can never be a call target (control-flow keyword).
#[must_use]
pub fn is_expr_keyword(name: &str) -> bool {
    EXPR_KEYWORDS.contains(&name)
}

/// Parses the item structure of one (test-stripped) token stream.
#[must_use]
pub fn parse_file(file: &str, tokens: &[Token]) -> FileAst {
    let mut ast = FileAst::default();
    parse_items(file, tokens, &mut 0, None, None, &mut ast);
    ast
}

/// Parses items at one nesting level until the tokens run out or the
/// closing brace of the enclosing block is reached (the caller consumes
/// that brace).
fn parse_items(
    file: &str,
    tokens: &[Token],
    i: &mut usize,
    owner: Option<&str>,
    trait_name: Option<&str>,
    ast: &mut FileAst,
) {
    while *i < tokens.len() {
        let t = &tokens[*i];
        if t.is_punct("}") {
            return;
        }
        if t.is_punct("#") {
            *i = skip_attribute(tokens, *i);
            continue;
        }
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                // Item qualifiers: skip and re-dispatch on what follows.
                "pub" => {
                    *i += 1;
                    if tokens.get(*i).is_some_and(|n| n.is_punct("(")) {
                        let mut depth = 0usize;
                        while *i < tokens.len() {
                            if tokens[*i].is_punct("(") {
                                depth += 1;
                            } else if tokens[*i].is_punct(")") {
                                depth -= 1;
                                if depth == 0 {
                                    *i += 1;
                                    break;
                                }
                            }
                            *i += 1;
                        }
                    }
                    continue;
                }
                "async" | "unsafe" | "default" => {
                    *i += 1;
                    continue;
                }
                "const" if tokens.get(*i + 1).is_some_and(|n| n.is_ident("fn")) => {
                    *i += 1;
                    continue;
                }
                "extern" if tokens.get(*i + 2).is_some_and(|n| n.is_ident("fn")) => {
                    *i += 2;
                    continue;
                }
                "fn" => {
                    parse_fn(file, tokens, i, owner, trait_name, ast);
                    continue;
                }
                "impl" => {
                    parse_impl(file, tokens, i, ast);
                    continue;
                }
                "trait" => {
                    parse_trait(file, tokens, i, ast);
                    continue;
                }
                "struct" => {
                    parse_struct(tokens, i, ast);
                    continue;
                }
                "mod" => {
                    // `mod name { items }` — recurse into inline modules;
                    // `mod name;` declarations are skipped.
                    *i += 1;
                    while *i < tokens.len()
                        && !tokens[*i].is_punct("{")
                        && !tokens[*i].is_punct(";")
                    {
                        *i += 1;
                    }
                    if *i < tokens.len() && tokens[*i].is_punct("{") {
                        *i += 1;
                        parse_items(file, tokens, i, None, None, ast);
                        if *i < tokens.len() {
                            *i += 1; // closing brace
                        }
                    } else {
                        *i += 1;
                    }
                    continue;
                }
                _ => {}
            }
        }
        // Anything else (use, const, static, enum, type, macros, stray
        // tokens): skip to the end of the item — the first `;` or the
        // matching close of the first brace block.
        *i = skip_to_item_end(tokens, *i);
    }
}

/// Skips an outer or inner attribute starting at its `#`.
fn skip_attribute(tokens: &[Token], mut i: usize) -> usize {
    i += 1; // '#'
    if i < tokens.len() && tokens[i].is_punct("!") {
        i += 1;
    }
    if i < tokens.len() && tokens[i].is_punct("[") {
        let mut depth = 0usize;
        while i < tokens.len() {
            if tokens[i].is_punct("[") {
                depth += 1;
            } else if tokens[i].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
    }
    i
}

/// Skips one unrecognized item: to the first `;` at depth 0, or past the
/// matching `}` of the first brace block.
fn skip_to_item_end(tokens: &[Token], mut i: usize) -> usize {
    let mut brace = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            brace += 1;
        } else if t.is_punct("}") {
            if brace == 0 {
                // Closing brace of the enclosing block: stop before it.
                return i;
            }
            brace -= 1;
            if brace == 0 {
                return i + 1;
            }
        } else if t.is_punct(";") && brace == 0 {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// Net `<`-nesting delta of one punctuation token, treating `<<` / `>>`
/// as two and ignoring arrows (`->`, `=>`).
fn angle_delta(text: &str) -> i32 {
    match text {
        "<" => 1,
        ">" => -1,
        "<<" => 2,
        ">>" => -2,
        "<=" | ">=" | "->" | "=>" | "<<=" | ">>=" => 0,
        _ => 0,
    }
}

/// Skips a generic-parameter list if one starts at `i` (a `<` token).
fn skip_generics(tokens: &[Token], mut i: usize) -> usize {
    if i >= tokens.len() || angle_delta(&tokens[i].text) <= 0 {
        return i;
    }
    let mut depth = 0i32;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct {
            depth += angle_delta(&tokens[i].text);
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Parses `impl [<..>] Path [for Path] [where ..] { items }` starting at
/// the `impl` keyword.
fn parse_impl(file: &str, tokens: &[Token], i: &mut usize, ast: &mut FileAst) {
    let impl_line = tokens[*i].line;
    *i += 1;
    *i = skip_generics(tokens, *i);
    // Collect path idents until `for`, `where`, `{`, or `;`.
    let mut first_path: Vec<String> = Vec::new();
    let mut second_path: Vec<String> = Vec::new();
    let mut saw_for = false;
    while *i < tokens.len() {
        let t = &tokens[*i];
        if t.is_punct("{") || t.is_punct(";") {
            break;
        }
        if t.is_ident("for") {
            saw_for = true;
            *i += 1;
            continue;
        }
        if t.is_ident("where") {
            // Skip the where clause up to the body.
            while *i < tokens.len() && !tokens[*i].is_punct("{") {
                *i += 1;
            }
            break;
        }
        if t.kind == TokenKind::Ident && t.text != "dyn" && t.text != "mut" {
            if saw_for {
                second_path.push(t.text.clone());
            } else {
                first_path.push(t.text.clone());
            }
            *i += 1;
            *i = skip_generics(tokens, *i);
            continue;
        }
        *i += 1;
    }
    let (self_type, trait_name) = if saw_for {
        (
            second_path.last().cloned().unwrap_or_default(),
            first_path.last().cloned(),
        )
    } else {
        (first_path.last().cloned().unwrap_or_default(), None)
    };
    if *i < tokens.len() && tokens[*i].is_punct("{") {
        ast.impls.push(ImplItem {
            self_type: self_type.clone(),
            trait_name: trait_name.clone(),
            file: file.to_string(),
            line: impl_line,
        });
        *i += 1;
        parse_items(
            file,
            tokens,
            i,
            Some(&self_type),
            trait_name.as_deref(),
            ast,
        );
        if *i < tokens.len() {
            *i += 1; // closing brace
        }
    } else {
        *i += 1; // `impl Trait for Type;` style — nothing to collect
    }
}

/// Parses `trait Name [<..>] [: bounds] [where ..] { signatures }`.
/// Function signatures inside become [`FnItem`]s owned by the trait, so
/// default bodies participate in the call graph.
fn parse_trait(file: &str, tokens: &[Token], i: &mut usize, ast: &mut FileAst) {
    *i += 1;
    let name = if *i < tokens.len() && tokens[*i].kind == TokenKind::Ident {
        tokens[*i].text.clone()
    } else {
        String::new()
    };
    while *i < tokens.len() && !tokens[*i].is_punct("{") && !tokens[*i].is_punct(";") {
        *i += 1;
    }
    if *i < tokens.len() && tokens[*i].is_punct("{") {
        *i += 1;
        parse_items(file, tokens, i, Some(&name), Some(&name), ast);
        if *i < tokens.len() {
            *i += 1;
        }
    } else {
        *i += 1;
    }
}

/// Parses `struct Name [<..>] { fields }`; tuple and unit structs are
/// recorded with no fields.
fn parse_struct(tokens: &[Token], i: &mut usize, ast: &mut FileAst) {
    *i += 1;
    let Some(name_tok) = tokens.get(*i) else {
        return;
    };
    if name_tok.kind != TokenKind::Ident {
        *i = skip_to_item_end(tokens, *i);
        return;
    }
    let name = name_tok.text.clone();
    *i += 1;
    *i = skip_generics(tokens, *i);
    while *i < tokens.len() && tokens[*i].is_ident("where") {
        while *i < tokens.len() && !tokens[*i].is_punct("{") && !tokens[*i].is_punct(";") {
            *i += 1;
        }
    }
    let mut fields = Vec::new();
    match tokens.get(*i) {
        Some(t) if t.is_punct("{") => {
            *i += 1;
            let mut depth = 0usize; // nested braces/brackets/parens inside types
            while *i < tokens.len() {
                let t = &tokens[*i];
                if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct("}") {
                    if depth == 0 {
                        *i += 1;
                        break;
                    }
                    depth -= 1;
                } else if t.is_punct("#") {
                    *i = skip_attribute(tokens, *i);
                    continue;
                } else if depth == 0
                    && t.kind == TokenKind::Ident
                    && tokens.get(*i + 1).is_some_and(|n| n.is_punct(":"))
                {
                    // `name : Type` — walk the type's leading path to its
                    // primary identifier.
                    let field = t.text.clone();
                    let mut j = *i + 2;
                    let mut primary = String::new();
                    while j < tokens.len() {
                        let ty = &tokens[j];
                        if ty.kind == TokenKind::Ident {
                            if ty.text == "dyn" || ty.text == "mut" {
                                j += 1;
                                continue;
                            }
                            primary = ty.text.clone();
                            // Follow `::` path segments.
                            if tokens.get(j + 1).is_some_and(|n| n.is_punct("::")) {
                                j += 2;
                                continue;
                            }
                        } else if ty.is_punct("&") || ty.kind == TokenKind::Lifetime {
                            j += 1;
                            continue;
                        }
                        break;
                    }
                    if !primary.is_empty() {
                        fields.push((field, primary));
                    }
                    // Skip the rest of the type up to the field comma.
                    let mut tdepth = 0i32;
                    *i = j;
                    while *i < tokens.len() {
                        let ty = &tokens[*i];
                        if ty.is_punct("(") || ty.is_punct("[") {
                            tdepth += 1;
                        } else if ty.is_punct(")") || ty.is_punct("]") {
                            tdepth -= 1;
                        } else if ty.kind == TokenKind::Punct {
                            // Angle depth folds into the same counter.
                            tdepth += angle_delta(&ty.text);
                        }
                        if tdepth <= 0 && (ty.is_punct(",") || ty.is_punct("}")) {
                            break;
                        }
                        *i += 1;
                    }
                    continue;
                }
                *i += 1;
            }
        }
        Some(t) if t.is_punct("(") => {
            // Tuple struct: skip to the trailing `;`.
            *i = skip_to_item_end(tokens, *i);
        }
        _ => {
            *i += 1; // unit struct `;`
        }
    }
    ast.structs.push(StructItem { name, fields });
}

/// Parses `fn name [<..>] ( params ) [-> ty] [where ..] ({ body } | ;)`.
fn parse_fn(
    file: &str,
    tokens: &[Token],
    i: &mut usize,
    owner: Option<&str>,
    trait_name: Option<&str>,
    ast: &mut FileAst,
) {
    let fn_line = tokens[*i].line;
    *i += 1;
    let Some(name_tok) = tokens.get(*i) else {
        return;
    };
    let name = name_tok.text.clone();
    *i += 1;
    *i = skip_generics(tokens, *i);
    // Parameter list.
    let mut self_kind = None;
    let mut params = Vec::new();
    if tokens.get(*i).is_some_and(|t| t.is_punct("(")) {
        let (close, parsed_self, parsed_params) = parse_params(tokens, *i);
        self_kind = parsed_self;
        params = parsed_params;
        *i = close + 1;
    }
    // Return type / where clause: skip until `{` or `;` at depth 0.
    let mut body = Vec::new();
    {
        let mut depth = 0i32;
        while *i < tokens.len() {
            let t = &tokens[*i];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.kind == TokenKind::Punct {
                depth += angle_delta(&t.text);
            }
            if depth <= 0 && (t.is_punct("{") || t.is_punct(";")) {
                break;
            }
            *i += 1;
        }
    }
    if tokens.get(*i).is_some_and(|t| t.is_punct("{")) {
        // Capture the body tokens.
        let mut depth = 0usize;
        let start = *i;
        while *i < tokens.len() {
            let t = &tokens[*i];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if *i > start {
                body.push(t.clone());
            }
            *i += 1;
        }
        *i += 1; // closing brace
    } else {
        *i += 1; // `;` of a bodyless signature
    }
    ast.functions.push(FnItem {
        name,
        file: file.to_string(),
        line: fn_line,
        owner: owner.map(str::to_string),
        trait_name: trait_name.map(str::to_string),
        self_kind,
        params,
        body,
    });
}

/// Parses a parameter list starting at its `(`. Returns the index of the
/// closing `)`, the self kind, and the non-self parameters.
fn parse_params(tokens: &[Token], open: usize) -> (usize, Option<SelfKind>, Vec<Param>) {
    // Find the matching close paren first.
    let mut depth = 0i32;
    let mut close = open;
    while close < tokens.len() {
        let t = &tokens[close];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Punct {
            depth += angle_delta(&t.text);
        }
        close += 1;
    }
    // Split the interior at top-level commas.
    let inner = &tokens[open + 1..close.min(tokens.len())];
    let mut groups: Vec<Vec<&Token>> = vec![Vec::new()];
    let mut gdepth = 0i32;
    for t in inner {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            gdepth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            gdepth -= 1;
        } else if t.kind == TokenKind::Punct {
            gdepth += angle_delta(&t.text);
        }
        if gdepth == 0 && t.is_punct(",") {
            groups.push(Vec::new());
            continue;
        }
        if let Some(last) = groups.last_mut() {
            last.push(t);
        }
    }
    let mut self_kind = None;
    let mut params = Vec::new();
    for group in groups {
        // Strip leading attributes would already be gone; classify.
        let idents: Vec<&str> = group
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        if idents.first() == Some(&"self")
            || (idents.first() == Some(&"mut") && idents.get(1) == Some(&"self"))
        {
            let by_ref = group.first().is_some_and(|t| t.is_punct("&"));
            let is_mut = group.iter().any(|t| t.is_ident("mut"));
            self_kind = Some(match (by_ref, is_mut) {
                (true, true) => SelfKind::RefMut,
                (true, false) => SelfKind::Ref,
                (false, _) => SelfKind::Value,
            });
            continue;
        }
        if group.is_empty() {
            continue;
        }
        // `name: Type` — name only when the pattern is a lone identifier.
        let colon = group.iter().position(|t| t.is_punct(":"));
        let Some(colon) = colon else { continue };
        let name = if colon == 1 && group[0].kind == TokenKind::Ident {
            group[0].text.clone()
        } else if colon == 2 && group[0].is_ident("mut") && group[1].kind == TokenKind::Ident {
            group[1].text.clone()
        } else {
            String::new()
        };
        let type_idents: Vec<String> = group[colon + 1..]
            .iter()
            .filter(|t| {
                t.kind == TokenKind::Ident
                    && t.text != "dyn"
                    && t.text != "mut"
                    && t.text != "impl"
                    && t.text != "const"
            })
            .map(|t| t.text.clone())
            .collect();
        params.push(Param { name, type_idents });
    }
    (close, self_kind, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileAst {
        parse_file("test.rs", &lex(src).tokens)
    }

    #[test]
    fn parses_free_and_method_fns() {
        let ast = parse(
            "fn free(x: u32) -> u32 { x }\n\
             impl Foo { fn method(&mut self, core: &mut SwarmCore) { core.run(); } }",
        );
        assert_eq!(ast.functions.len(), 2);
        assert_eq!(ast.functions[0].name, "free");
        assert_eq!(ast.functions[0].owner, None);
        let m = &ast.functions[1];
        assert_eq!(m.name, "method");
        assert_eq!(m.owner.as_deref(), Some("Foo"));
        assert_eq!(m.self_kind, Some(SelfKind::RefMut));
        assert_eq!(m.params.len(), 1);
        assert_eq!(m.params[0].name, "core");
        assert_eq!(m.params[0].primary_type(), Some("SwarmCore"));
        assert!(!m.body.is_empty());
    }

    #[test]
    fn parses_trait_impl_header() {
        let ast = parse("impl RoundStage for ExchangePieces { fn run(&mut self) {} }");
        assert_eq!(ast.impls.len(), 1);
        assert_eq!(ast.impls[0].self_type, "ExchangePieces");
        assert_eq!(ast.impls[0].trait_name.as_deref(), Some("RoundStage"));
        assert_eq!(ast.functions[0].trait_name.as_deref(), Some("RoundStage"));
    }

    #[test]
    fn parses_struct_fields_with_primary_types() {
        let ast = parse(
            "pub struct SwarmCore { pub(crate) store: PeerStore, rng: StdRng,\n\
             profile: bt_obs::ProfileSink, pairs: Vec<(PeerId, PeerId)>, }",
        );
        assert_eq!(
            ast.structs[0].fields,
            vec![
                ("store".to_string(), "PeerStore".to_string()),
                ("rng".to_string(), "StdRng".to_string()),
                ("profile".to_string(), "ProfileSink".to_string()),
                ("pairs".to_string(), "Vec".to_string()),
            ]
        );
    }

    #[test]
    fn generic_fns_and_where_clauses_parse() {
        let ast = parse(
            "pub fn handout<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<PeerId>\n\
             where R: Sized { Vec::new() }",
        );
        let f = &ast.functions[0];
        assert_eq!(f.name, "handout");
        assert_eq!(f.self_kind, Some(SelfKind::Ref));
        assert_eq!(f.params[0].name, "rng");
        assert_eq!(f.params[0].type_idents, vec!["R".to_string()]);
    }

    #[test]
    fn trait_decl_signatures_are_owned_by_the_trait() {
        let ast =
            parse("pub trait RoundStage { fn name(&self) -> &'static str; fn run(&mut self); }");
        assert_eq!(ast.functions.len(), 2);
        assert!(ast
            .functions
            .iter()
            .all(|f| f.owner.as_deref() == Some("RoundStage")));
        assert!(ast.functions.iter().all(|f| f.body.is_empty()));
    }

    #[test]
    fn nested_modules_are_traversed() {
        let ast = parse("mod inner { pub fn deep() {} } fn outer() {}");
        let names: Vec<&str> = ast.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["deep", "outer"]);
    }

    #[test]
    fn unrelated_items_are_skipped() {
        let ast = parse(
            "use std::io; const X: u32 = 1; enum E { A, B } type T = u32;\n\
             static S: &str = \"x\"; fn real() {}",
        );
        assert_eq!(ast.functions.len(), 1);
        assert_eq!(ast.functions[0].name, "real");
    }

    #[test]
    fn shift_operators_in_generics_do_not_derail() {
        let ast = parse("fn f(x: Vec<Vec<u32>>) -> u32 { x.len() as u32 }");
        assert_eq!(ast.functions[0].params[0].type_idents[0], "Vec");
        assert!(!ast.functions[0].body.is_empty());
    }
}
