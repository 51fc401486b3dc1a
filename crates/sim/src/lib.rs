//! # marionette-sim
//!
//! Cycle-level simulator for the Marionette spatial architecture and the
//! baseline PE execution models it is evaluated against.
//!
//! The simulator executes a placed-and-routed [`marionette_isa::MachineProgram`] (produced
//! by `marionette-compiler`, loadable from an ISA bitstream) with real
//! 32-bit values — every kernel's outputs are checked against golden
//! references — while accounting cycles for:
//!
//! - PE issue bandwidth (one FU operation per cycle, plus a parallel
//!   control flow part on Marionette-style PEs);
//! - the mesh data NoC (per-link bandwidth, XY routes, contention);
//! - the CS-Benes control network (single-cycle fixed paths);
//! - configuration behaviour: per-firing configure overhead (dataflow
//!   PEs), predicated branch execution (von Neumann PEs), group-exclusive
//!   execution with configuration-switch stalls (CCU round trips), and
//!   CCU surcharges on dynamically-bounded loop activations;
//! - memory latency on an optimistic multi-ported scratchpad.
//!
//! Architectural presets live in `marionette-arch`; this crate provides
//! the neutral machine plus the [`TimingModel`] parameter space. A run
//! is described by one [`RunSpec`] — injected faults, cycle budget,
//! optional tracer — and executed by [`run_with`] on a freshly built
//! machine; [`run`] and [`run_full`] spell the common cases out. On top
//! of the core engine sit the [`fault`] plane
//! (dead/flaky PEs and links, shared with the compiler as an
//! avoid-mask), the [`trace`] plane (opt-in Perfetto-loadable cycle
//! traces), and the [`tenancy`] runner (disjoint fabric partitions
//! simulated as independent factors).
//!
//! The pieces that don't need a compiled program are directly usable;
//! for example a [`FaultSet`] parses from the CLI fault syntax and
//! answers resource-liveness queries in the simulator's dense tile and
//! link encoding:
//!
//! ```
//! use marionette_sim::{FaultSet, FaultSpec};
//!
//! let mut faults = FaultSet::new(4, 4);
//! faults.add("pe:1,2".parse::<FaultSpec>().unwrap()).unwrap();
//! faults.add("flaky:0,0-0,1@3".parse::<FaultSpec>().unwrap()).unwrap();
//! assert!(faults.pe_dead(1 * 4 + 2)); // tile id = row * cols + col
//! assert!(faults.has_flaky());
//! assert_eq!(faults.specs().len(), 2);
//! ```

#![warn(missing_docs)]

mod ctrl;
mod data;
pub mod fault;
pub mod machine;
mod mem;
mod net;
pub mod stats;
pub mod tenancy;
pub mod timing;
pub mod trace;
pub mod wheel;

pub use fault::{FaultSet, FaultSpec};
pub use machine::{run, run_full, run_with, EngineKind, RunResult, RunSpec, SimError};
pub use stats::{GroupStats, RunStats, UnitStats};
pub use tenancy::{run_tenants, TenancyError, TenancyRun, TenantOutcome, TenantWorkload};
pub use timing::{CtrlTransport, TimingModel};
pub use trace::{ParsedEvent, ParsedTrace, Tracer};
