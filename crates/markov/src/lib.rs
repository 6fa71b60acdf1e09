//! # bt-markov — Markov-chain and discrete-distribution numerics
//!
//! The numeric substrate for the analytical models in this workspace. The
//! multiphased download model of the paper is a finite absorbing Markov
//! chain; its efficiency model is a fixed point of nonlinear balance
//! equations; both need exact binomial probabilities. The offline Rust
//! ecosystem available here has no suitable linear-algebra or statistics
//! crates, so the (small) required surface is implemented directly:
//!
//! * [`matrix::Matrix`] — dense row-major matrices with Gaussian-elimination
//!   solves (used for the small diagonal blocks of absorbing-chain solves);
//! * [`chain::TransitionMatrix`] — validated row-stochastic matrices and
//!   distribution stepping;
//! * [`absorbing::AbsorbingChain`] — expected absorption times and visits
//!   by block substitution over the strongly connected components of the
//!   transient block, with no whole-matrix inverse;
//! * [`dist`] — exact binomial pmf/sampling in the log domain,
//!   exponential/Poisson sampling, empirical discrete distributions;
//! * [`fixed_point`] — damped fixed-point iteration with convergence
//!   diagnostics (drives the §5 balance equations).
//!
//! # Example
//!
//! ```
//! use bt_markov::chain::TransitionMatrix;
//!
//! // A two-state weather chain: its stationary distribution (5/6, 1/6)
//! // is a fixed point of one step.
//! let p = TransitionMatrix::from_rows(vec![
//!     vec![0.9, 0.1],
//!     vec![0.5, 0.5],
//! ]).unwrap();
//! let pi = p.step(&[5.0 / 6.0, 1.0 / 6.0]);
//! assert!((pi[0] - 5.0 / 6.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod absorbing;
pub mod chain;
pub mod dist;
pub mod fixed_point;
pub mod float;
pub mod matrix;

pub use absorbing::AbsorbingChain;
pub use chain::TransitionMatrix;
pub use dist::Binomial;
pub use matrix::Matrix;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A matrix or vector had an unexpected shape.
    Shape {
        /// What was being constructed or solved.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A row of a transition matrix does not sum to one (or has negative
    /// or non-finite entries).
    NotStochastic {
        /// Index of the offending row.
        row: usize,
        /// The row's actual sum.
        sum: f64,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
    /// A linear system was singular (or numerically so).
    Singular,
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Shape { context, detail } => write!(f, "shape error in {context}: {detail}"),
            Error::NotStochastic { row, sum } => {
                write!(f, "row {row} is not stochastic (sums to {sum})")
            }
            Error::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:e})"
            ),
            Error::Singular => write!(f, "singular linear system"),
            Error::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter {name}: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
