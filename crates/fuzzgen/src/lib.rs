//! # marionette-fuzzgen
//!
//! Differential fuzzing for the Marionette stack: a seeded generator of
//! random structured-control-flow programs (nested counted and
//! data-dependent loops, branch hammocks, token-serialized memory
//! traffic) that are driven through the **full pipeline** — CDFG build,
//! compile/place/route, configuration-bitstream roundtrip, cycle-level
//! simulation — on every architecture preset, and checked bit-for-bit
//! against the sequential reference interpreter.
//!
//! The paper's correctness claim is exactly this equivalence: the control
//! flow plane must execute arbitrary structured control flow identically
//! to sequential semantics. The 13 hand-written kernels sample that
//! space; this crate enumerates it.
//!
//! - [`gen::generate`] — deterministic program per `(seed, GenConfig)`;
//! - [`emit::emit`] — lowering through `cdfg::builder` (well-formed by
//!   construction, Kahn-deterministic memory via ordering tokens);
//! - [`diff::diff_program`] — interp-vs-sim differential check;
//! - [`source::to_mar`] / [`source::diff_source`] — the second
//!   differential axis: every fuzz program is also emitted as `.mar`
//!   source, re-lowered through the `marionette-lang` front end
//!   (lexer → parser → sema → lowering), and must compute bit-identical
//!   results to the direct builder path;
//! - [`shrink::shrink`] — greedy reducer for failing cases;
//! - `corpus/` — committed regression programs replayed by `cargo test`;
//! - the `fuzz_stack` binary — seed-range sweeps across cores.

#![warn(missing_docs)]

pub mod ast;
pub mod diff;
pub mod emit;
pub mod gen;
pub mod shrink;
pub mod source;

pub use ast::Program;
pub use diff::{diff_program, DiffStats, Divergence, DivergenceKind};
pub use emit::emit;
pub use gen::{generate, GenConfig};
pub use shrink::shrink;
pub use source::{diff_both, diff_source, to_mar};
