//! Floating-point comparison helpers.
//!
//! The `bt-lint` `float-cmp` rule forbids raw `==`/`!=` against float
//! literals in model code: almost every such comparison should either be
//! a tolerance test ([`approx_eq`]) or an *exact* IEEE-754 test of a
//! structurally special value — probability mass that is identically
//! zero because it was never touched, or a degenerate parameter endpoint
//! like `p == 1.0`. The exact tests live here, once, under a named
//! helper and an audited waiver, instead of as anonymous comparisons
//! scattered through the numerics.

/// Whether `a` and `b` agree within absolute tolerance `tol`.
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Exact IEEE test for zero (matches `-0.0` too).
///
/// Use this only for structural zeros — mass that is zero because it was
/// initialized to zero and never accumulated into, or a parameter pinned
/// at an endpoint. For "small enough" tests use [`approx_eq`].
#[inline]
#[must_use]
pub fn exactly_zero(x: f64) -> bool {
    x == 0.0 // bt-lint: allow(float-cmp) — the one audited exact-zero test
}

/// Exact IEEE test for one. Same caveats as [`exactly_zero`].
#[inline]
#[must_use]
pub fn exactly_one(x: f64) -> bool {
    x == 1.0 // bt-lint: allow(float-cmp) — the one audited exact-one test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_respects_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 0.5e-9, 1e-9));
        assert!(!approx_eq(1.0, 1.0 + 2e-9, 1e-9));
        assert!(approx_eq(-0.5, -0.5, 0.0));
    }

    #[test]
    fn exact_tests_match_endpoints_only() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(1e-300));
        assert!(exactly_one(1.0));
        assert!(!exactly_one(1.0 - f64::EPSILON));
    }
}
