//! Analyzer fixture: a test-tree file — determinism rules apply to the
//! raw token stream (no test-code stripping).

fn timed() {
    let t0 = Instant::now();
    let t1 = Instant::now(); // bt-lint: allow(det-wall-clock) — fixture
    let _ = (t0, t1);
}

fn exercises_the_library() {
    let _ = only_tested();
}
