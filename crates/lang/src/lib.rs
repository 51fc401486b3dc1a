//! # marionette-lang
//!
//! The `.mar` source language: Marionette's front door for workloads that
//! are not hand-coded against the CDFG builder API.
//!
//! A `.mar` program declares scalar `param`s and typed arrays (`input`
//! read-only, `state` read-write/token-serialized/output), then computes
//! with `let` bindings over machine operators, structured `for` / `while`
//! loops with explicit loop-carried variables, `if`/`else` hammocks that
//! merge their `yield`s, `mux`, dependency-ordered loads and stores, and
//! `sink` result streams. See `docs/LANGUAGE.md` for the grammar and a
//! worked example.
//!
//! Pipeline stages, each usable on its own:
//!
//! - [`parser::parse`] — hand-written lexer + recursive descent into a
//!   spanned AST ([`ast`]);
//! - [`sema::check`] — semantic checks with source-located diagnostics
//!   ([`diag::Diagnostic`]): unknown names, certain type mismatches,
//!   arity and shape errors;
//! - [`lower::lower`] — lowering onto `marionette_cdfg::builder` with
//!   per-`state`-array ordering tokens, so accepted programs are
//!   well-formed by construction;
//! - [`print::print`] — canonical pretty-printer; parse→print→parse is a
//!   fixed point (property-tested over the fuzz corpus);
//! - [`driver`] — compile → bitstream round-trip → simulate on any
//!   architecture preset, checked bit-for-bit against the reference
//!   interpreter. This backs the `marc` CLI.
//!
//! `marionette-fuzzgen` uses this crate as a second differential axis:
//! every fuzz program is also emitted as `.mar` source, re-lowered
//! through this front end, and must produce bit-identical results to the
//! direct builder path.

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod driver;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod print;
pub mod sema;
pub mod tenancy;

pub use diag::{Diagnostic, Span};
pub use driver::{frontend, reference, run_preset, DriverError, FaultRun, PresetRun, Reference};
pub use lower::lower;
pub use parser::parse;
pub use print::print;
pub use sema::check;
pub use tenancy::{run_tenancy, TenancyReport, TenantJob, TenantOutcome, TenantRun};

use marionette_cdfg::Cdfg;

/// Parses, checks and lowers `.mar` source text in one call.
///
/// # Errors
/// Returns the parse diagnostic or all semantic diagnostics.
pub fn compile_source(src: &str) -> Result<Cdfg, Vec<Diagnostic>> {
    let p = parse(src).map_err(|d| vec![d])?;
    check(&p)?;
    Ok(lower(&p))
}
