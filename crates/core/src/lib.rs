//! # marionette
//!
//! A from-scratch Rust reproduction of **"Towards Efficient Control Flow
//! Handling in Spatial Architecture via Architecting the Control Flow
//! Plane"** (MICRO 2023): the Marionette spatial architecture with a
//! decoupled, explicitly-architected control flow plane, its ISA,
//! compiler (Agile PE Assignment), CS-Benes control network, cycle-level
//! simulator, hardware models, the 13 evaluation kernels, and the
//! baseline/state-of-the-art execution models it is compared against.
//!
//! ## Quick start
//!
//! ```
//! use marionette::prelude::*;
//!
//! // Pick a kernel and an architecture, run it end to end.
//! let kernel = marionette::kernels::by_short("CRC").unwrap();
//! let arch = marionette::arch::marionette_full();
//! let run = marionette::runner::run_kernel(
//!     kernel.as_ref(),
//!     &arch,
//!     Scale::Tiny,
//!     42,
//!     100_000_000,
//! )?;
//! assert!(run.verified);
//! assert!(run.cycles > 0);
//! # Ok::<(), marionette::runner::RunnerError>(())
//! ```
//!
//! ## Layout
//!
//! | Module | Contents |
//! |---|---|
//! | [`cdfg`] | CDFG computational model, builder DSL, reference interpreter |
//! | [`isa`] | spatial ISA, configuration bitstream, disassembler |
//! | [`net`] | Benes / CS / CS-Benes control network, mesh NoC |
//! | [`kernels`] | the 13 evaluation benchmarks (golden + CDFG + workload) |
//! | [`compiler`] | placement (Fig 8 scheduling), routing, config generation |
//! | [`sim`] | cycle-level simulator with per-architecture timing models |
//! | [`arch`] | architecture presets (vN/DF/Marionette ablations/SOTA) |
//! | [`hw`] | 28 nm area/power/delay models (Tables 4 & 6, Fig 13) |
//! | [`pipeline`] | the one compile → bitstream → simulate → verify path, behind an [`pipeline::Oracle`] |
//! | [`runner`] | kernel runs, sweeps and the self-heal policy |
//! | [`experiments`] | regeneration of every evaluation figure |
//! | [`parallel`] | scoped-thread fan-out for experiment sweeps |
//! | [`report`] | shared helpers for the JSON-report binaries |
//! | [`cli`] | the one declarative flag parser behind every binary |

#![warn(missing_docs)]

pub use marionette_arch as arch;
pub use marionette_cdfg as cdfg;
pub use marionette_compiler as compiler;
pub use marionette_hw as hw;
pub use marionette_isa as isa;
pub use marionette_kernels as kernels;
pub use marionette_net as net;
pub use marionette_sim as sim;

pub mod cli;
pub mod experiments;
pub mod parallel;
pub mod pipeline;
pub mod report;
pub mod request;
pub mod runner;

/// Convenience imports for examples and tests.
pub mod prelude {
    pub use crate::arch::Architecture;
    pub use crate::experiments::geomean;
    pub use crate::kernels::traits::{Kernel, Scale};
    pub use crate::runner::{run_kernel, KernelRun};
}
