//! Analyzer fixture: `pub-unused` cases. Positives: a dead `pub fn`
//! (its own recursion does not count), an item only a `tests/` tree
//! calls, and a type only its own impl block names. Negatives: an item
//! only the caller-only `btbench/src` tree calls, a trait-impl method,
//! a `pub(crate)` item, and a waived test oracle. A waiver that gives
//! no reason is itself a finding.

/// Positive: nothing outside its own body calls it.
pub fn orphan(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        orphan(n - 1)
    }
}

/// Positive: only the `tests/` tree calls it.
pub fn only_tested() -> u32 {
    1
}

/// Negative: only the caller-only benchmark tree calls it.
pub fn bench_only() -> u32 {
    2
}

/// Negative: only the benchmark tree builds one.
pub struct Row {
    /// Value.
    pub value: u32,
}

impl std::fmt::Display for Row {
    // Negative: a trait-impl method is exempt.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.value)
    }
}

/// Positive: only its own impl block names it.
pub struct Lonely;

impl Lonely {
    /// Positive: nothing calls it.
    pub fn make() -> Lonely {
        Lonely
    }
}

/// Negative: `pub(crate)` items are rustc's `dead_code` business.
pub(crate) fn narrowed() {}

/// Negative: waived with an allowed reason.
// bt-lint: allow(pub-unused) test oracle: the reference `orphan` is checked against
pub fn waived_oracle() -> u32 {
    3
}

/// The item is waived, but the waiver gives no reason.
// bt-lint: allow(pub-unused) kept for later
pub fn waived_without_reason() -> u32 {
    4
}
