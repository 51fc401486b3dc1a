//! # marionette-compiler
//!
//! The mapping pipeline of the Marionette stack: a CDFG program becomes a
//! placed, routed and configured [`marionette_isa::MachineProgram`]:
//!
//! 1. [`place()`]: the Marionette scheduling algorithm (Fig 8) — mapping
//!    groups per loop level, innermost first, with reshape/time-extension
//!    minimizing `PE_waste` (**Agile PE Assignment**), or whole-array
//!    time multiplexing for baseline architectures;
//! 2. [`route()`]: dimension-ordered mesh paths for data edges; control
//!    edges classed for the CS-Benes control network, with a static
//!    feasibility check of the multicast sets;
//! 3. [`compile()`]: operand selector resolution, per-PE instruction buffer
//!    generation with Control Flow Sender modes (DFG / Branch / Loop,
//!    Fig 7a), and a [`CompileReport`] the evaluation harness consumes.
//!
//! A nonzero [`SearchBudget`] replaces steps 1–2 with the iterative
//! **mapping explorer**: simulated-annealing placement search under a
//! timing-derived [`cost::CostModel`] ([`explore`]) plus congestion-aware
//! rip-up-and-reroute ([`route::route_congestion_aware`]). The default
//! ([`SearchBudget::Off`]) keeps the one-shot pipeline bit-compatible
//! with the seed mappings.

//!
//! Fabric geometry is parametric ([`FabricDims`]), and rectangular
//! [`partition::Partition`] regions of one fabric can host independent
//! tenants — the spatial-sharding substrate behind multi-kernel
//! tenancy (see `docs/PARTITIONING.md`):
//!
//! ```
//! use marionette_compiler::{FabricDims, Partition, PartitionMap};
//!
//! // A 16x16 fabric sharded into four 8x8 partitions.
//! let map = PartitionMap::grid(FabricDims::new(16, 16), 8, 8)?;
//! assert_eq!(map.len(), 4);
//! let p: Partition = "8x8@0,8".parse()?;
//! assert_eq!(map.parts()[1], p);
//! // A tenant's control timing derives from the partition's own
//! // corner distance, not the host fabric's:
//! assert_eq!(p.dims().corner_hops(), 14);
//! assert_eq!(FabricDims::new(16, 16).corner_hops(), 30);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod explore;
pub mod options;
pub mod partition;
pub mod pipeline;
pub mod place;
pub mod route;

pub use cost::{CostModel, MappingCost};
pub use explore::{explore_chain, select_best, ExploreResult, SearchReport};
pub use options::{
    CompileOptions, CtrlPlacement, FabricDims, FabricSpecError, MemPlacement, SearchBudget,
    SplitFabric, MAX_FABRIC_SIDE,
};
pub use partition::{Partition, PartitionError, PartitionMap};
pub use pipeline::{
    compile, compile_with_timing_and_faults, finalize_explored_with_faults, CompileReport,
};
pub use place::{place, PlaceError, PlacementResult};
pub use route::route;
