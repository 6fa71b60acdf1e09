//! Workspace symbol resolution: flattens per-file [`crate::parse::FileAst`]s
//! into one indexed symbol table the call-graph and contract analyses
//! query.
//!
//! Resolution is name-based and deliberately conservative. Methods are
//! keyed by `(owner type, name)`; free functions by name. Types carry no
//! crate qualification — the workspace's type names are unique enough in
//! practice, and where they are not, the receiver-type hints computed by
//! the call extractor keep lookups precise. Standard-library container
//! types act as a resolution cutoff: a call on a `Vec` or `BTreeMap`
//! never produces a workspace edge.

use std::collections::BTreeMap;

use crate::parse::{FileAst, FnItem, ImplItem, StructItem};

/// Identifier of a function in [`Workspace::functions`].
pub type FnId = usize;

/// Standard-library (or vendored-dep) types on which method calls never
/// resolve to workspace functions.
const STD_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "String",
    "str",
    "Option",
    "Result",
    "Box",
    "Rc",
    "Arc",
    "Cow",
    "Cell",
    "RefCell",
    "Mutex",
    "RwLock",
    "OnceLock",
    "OnceCell",
    "AtomicU64",
    "AtomicUsize",
    "AtomicBool",
    "Instant",
    "Duration",
    "PathBuf",
    "Path",
    "StdRng",
    "SmallRng",
    "ChaCha8Rng",
    "Range",
    "RangeInclusive",
    "Ordering",
    "Iterator",
    "Entry",
    "File",
    "BufWriter",
    "BufReader",
    "Wrapping",
];

/// Whether `name` is a std/vendored container type that cuts resolution.
#[must_use]
pub fn is_std_type(name: &str) -> bool {
    STD_TYPES.contains(&name)
}

/// The flattened, indexed symbol table for one workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every parsed function, in file order.
    pub functions: Vec<FnItem>,
    /// Every parsed impl header.
    pub impls: Vec<ImplItem>,
    /// Struct name → field table (merged across files; first wins).
    pub structs: BTreeMap<String, StructItem>,
    /// `(owner, name)` → method id.
    by_owner_name: BTreeMap<(String, String), FnId>,
    /// Free-function name → ids.
    free_by_name: BTreeMap<String, Vec<FnId>>,
    /// Method name → ids across all owners (fallback for untyped receivers).
    methods_by_name: BTreeMap<String, Vec<FnId>>,
}

impl Workspace {
    /// Builds the symbol table from per-file ASTs.
    #[must_use]
    pub fn build(files: &BTreeMap<String, FileAst>) -> Workspace {
        let mut ws = Workspace::default();
        for ast in files.values() {
            for s in &ast.structs {
                ws.structs
                    .entry(s.name.clone())
                    .or_insert_with(|| s.clone());
            }
            ws.impls.extend(ast.impls.iter().cloned());
            for f in &ast.functions {
                let id = ws.functions.len();
                ws.functions.push(f.clone());
                if let Some(owner) = &f.owner {
                    ws.by_owner_name
                        .entry((owner.clone(), f.name.clone()))
                        .or_insert(id);
                    ws.methods_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                } else {
                    ws.free_by_name.entry(f.name.clone()).or_default().push(id);
                }
            }
        }
        ws
    }

    /// Looks up a method on a concrete type.
    #[must_use]
    pub fn method(&self, owner: &str, name: &str) -> Option<FnId> {
        self.by_owner_name
            .get(&(owner.to_string(), name.to_string()))
            .copied()
    }

    /// Looks up free functions by name.
    #[must_use]
    pub fn free_fns(&self, name: &str) -> &[FnId] {
        self.free_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Looks up methods by bare name across all owners.
    #[must_use]
    pub fn methods_named(&self, name: &str) -> &[FnId] {
        self.methods_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The declared type of `ty_name.field`, when `ty_name` is a parsed
    /// struct with that field.
    #[must_use]
    pub fn field_type(&self, ty_name: &str, field: &str) -> Option<&str> {
        self.structs.get(ty_name).and_then(|s| {
            s.fields
                .iter()
                .find(|(f, _)| f == field)
                .map(|(_, t)| t.as_str())
        })
    }

    /// A stable display label for a function: `Type::name` or `name`.
    #[must_use]
    pub fn label(&self, id: FnId) -> String {
        let f = &self.functions[id];
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn ws(src: &str) -> Workspace {
        let mut files = BTreeMap::new();
        files.insert("a.rs".to_string(), parse_file("a.rs", &lex(src).tokens));
        Workspace::build(&files)
    }

    #[test]
    fn resolves_methods_and_free_fns() {
        let w = ws("struct Store { peers: Vec<u32> }\n\
             impl Store { fn len(&self) -> usize { 0 } }\n\
             fn helper() {}");
        assert!(w.method("Store", "len").is_some());
        assert_eq!(w.free_fns("helper").len(), 1);
        assert_eq!(w.field_type("Store", "peers"), Some("Vec"));
        assert!(is_std_type("Vec"));
        assert!(!is_std_type("Store"));
    }

    #[test]
    fn same_name_methods_stay_distinct_by_owner() {
        let w = ws("impl Tracker { fn handout(&self) {} }\n\
             impl CohortSink { fn handout(&mut self) {} }");
        let t = w.method("Tracker", "handout").unwrap();
        let c = w.method("CohortSink", "handout").unwrap();
        assert_ne!(t, c);
        assert_eq!(w.methods_named("handout").len(), 2);
        assert_eq!(w.label(t), "Tracker::handout");
    }
}
