//! # bt-lint — workspace-aware static analysis for the multiphase-bt lab
//!
//! The paper's validation story rests on the simulator being a
//! trustworthy oracle: every run must be exactly reproducible from a
//! seed, and the Markov machinery must never silently emit
//! non-stochastic matrices. Clippy cannot express those repo-specific
//! invariants, so this crate implements them directly: a hand-rolled
//! Rust lexer ([`lexer`]), a lightweight item parser ([`parse`]),
//! workspace symbol resolution ([`resolve`]), a conservative call
//! graph ([`callgraph`]), stage capability contracts ([`contracts`]),
//! a workspace reference index ([`unused`]), a rule catalog
//! ([`rules::Rule`]), and a workspace walker ([`engine`]) that together
//! enforce eight rule families:
//!
//! | family | rules | scope |
//! | --- | --- | --- |
//! | determinism | `det-unordered-collection`, `det-wall-clock`, `det-ambient-rng` | model library sources, bench drivers, and test/example trees |
//! | shared state | `shared-interior-mut`, `shared-unordered-helper` | model sources directly, plus helpers reached cross-file via the call graph |
//! | rng reachability | `rng-reachability` | whole library call graph; only a sanctioned set may reach the model RNG |
//! | stage contracts | `stage-contract` | every `RoundStage` impl must carry a checked `// bt-stage:` annotation |
//! | panic-safety | `panic-unwrap`, `panic-macro`, `panic-index` | `bt-obs` sources, `bt-swarm` telemetry/obs |
//! | numeric hygiene | `float-cmp` | `bt-markov`, `bt-model` sources |
//! | policy | `policy-crate-attrs`, `waiver-unused` | every workspace crate root / every scanned file |
//! | dead surface | `pub-unused` | `pub` items of every library source, against references from library, binary, example and bench code and the caller-only `btbench/src` |
//!
//! Library test code (`#[cfg(test)]` / `#[test]` items) is exempt from
//! the token rules; dedicated test/bench/example trees are scanned
//! with the determinism family only. Individual findings are
//! suppressed with inline waivers:
//!
//! ```text
//! let t = Instant::now(); // bt-lint: allow(det-wall-clock)
//! ```
//!
//! or file-wide with `// bt-lint: allow-file(rule)`. Waived findings are
//! still reported (marked `waived`) so the waiver inventory stays
//! auditable.
//!
//! A waiver that no longer suppresses anything is itself a blocking
//! `waiver-unused` finding, so the waiver inventory can only shrink.
//!
//! A `pub-unused` waiver must also say why the item stays, with one of
//! three reasons ([`unused::WAIVER_REASONS`]); a waiver without one is a
//! blocking finding:
//!
//! * `test oracle` — a reference implementation the tests check the
//!   product against (`AbsorbingChain::expected_visits`);
//! * `integration-test access` — run output that integration tests read
//!   through the public API (`Swarm::take_cohort`);
//! * `paper entry point` — a `bt-model` or `bt-traces` function whose doc
//!   cites the section, equation or figure of the paper it computes
//!   (`EfficiencyModel::sweep_k`, Fig. 4(a)).
//!
//! Run it as `cargo run -p bt-lint` or `btlab lint`; `--format json`
//! emits the machine-readable diagnostics CI consumes, and
//! `--stage-matrix` emits the stage-access matrix
//! (`bt-lint/stage-matrix/v1`) that gates the deterministic-parallel
//! work. The process exits non-zero when any non-waived finding
//! remains, making it a blocking gate in `scripts/lint.sh` and the CI
//! workflow.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod contracts;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod resolve;
pub mod rules;
pub mod unused;

pub use diag::{Finding, Report, Severity};
pub use engine::{analyze_workspace, rules_for_path, Analysis};
pub use rules::Rule;
