//! The compile driver: CDFG → placed, routed, configured
//! [`MachineProgram`] plus a [`CompileReport`].
//!
//! Two pipelines share the configuration-generation tail:
//!
//! - **legacy** ([`SearchBudget::Off`]): one-shot greedy placement +
//!   XY routing — bit-compatible with the seed mappings;
//! - **explored** (any other budget): the annealing mapping explorer of
//!   [`crate::explore`] plus the congestion-aware rip-up router, scored
//!   by a [`CostModel`] (derive one from the architecture's timing model
//!   with [`compile_with_timing_and_faults`]).

use crate::cost::CostModel;
use crate::explore::{explore, ExploreResult, SearchReport};
use crate::options::{CompileOptions, SearchBudget};
use crate::place::{place, PlaceError, PlacementResult};
use crate::route::{route, route_congestion_aware, RoutingResult};
use marionette_cdfg::graph::{BlockKind, Cdfg, PortSrc};
use marionette_isa::{
    ArrayInfo, BbConfig, CtrlMode, MachineProgram, NodeConfig, OperandSrc, ParamInfo, PeConfig,
};
use marionette_net::Mesh;
use marionette_sim::{FaultSet, TimingModel};
use std::collections::BTreeMap;

/// Rip-up passes of the congestion-aware router on explored mappings.
const REROUTE_PASSES: usize = 2;

/// Compilation statistics, consumed by the evaluation harness.
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    /// Per-group `(loop, depth, pes, ii, waste, innermost)` decisions.
    pub groups: Vec<crate::place::GroupPlacement>,
    /// Data-plane operators placed.
    pub data_ops: usize,
    /// Control-plane operators placed.
    pub ctrl_ops: usize,
    /// Memory operators placed.
    pub mem_ops: usize,
    /// Total routes, and how many are control-class.
    pub routes: usize,
    /// Control-class route count.
    pub ctrl_routes: usize,
    /// Whether the CS-Benes control network fits statically.
    pub ctrl_net_fits: bool,
    /// Total control fan-out.
    pub ctrl_fanout: usize,
    /// Mean mesh hop count over data routes.
    pub mean_data_hops: f64,
    /// Mapping-search summary (`None` on the legacy one-shot pipeline).
    pub search: Option<SearchReport>,
}

/// Compiles a CDFG for the given options.
///
/// With a nonzero [`CompileOptions::search`] budget the mapping explorer
/// runs under the transport-neutral [`CostModel::neutral`] weights; use
/// [`compile_with_timing_and_faults`] to score with an architecture's
/// actual timing model.
///
/// # Errors
/// Returns [`PlaceError`] when the program cannot fit on the fabric.
pub fn compile(
    g: &Cdfg,
    opts: &CompileOptions,
) -> Result<(MachineProgram, CompileReport), PlaceError> {
    let none = FaultSet::none();
    match opts.search {
        SearchBudget::Off => compile_greedy(g, opts, &none),
        _ => compile_with_cost(g, opts, &CostModel::neutral(), &none),
    }
}

/// Compiles with mapping-search weights derived from `tm` (the legacy
/// pipeline when the search budget is off) around `faults`: placement
/// avoids dead PEs, routing detours around dead links (failing with
/// [`PlaceError::Unroutable`] when no dimension order works), and the
/// explorer's cost penalizes flaky links. Pass [`FaultSet::none`] for a
/// healthy fabric.
///
/// A partition region is a fault set too: compiling with
/// [`crate::partition::PartitionMap::exclusion_mask`] as `faults`
/// confines a full-fabric (*fabric-view*) compile to one region — dead
/// PEs drop out of the greedy placer's and the annealing explorer's
/// legality caps, and the rip-up router refuses any path over a link
/// crossing the region boundary. The tenancy pipeline's primary path
/// instead compiles on the partition's own dimensions
/// ([`crate::partition::Partition::dims`]) so a tenant is bit-identical
/// to a solo run on an equal-sized fabric.
///
/// # Errors
/// Returns [`PlaceError`] when the program cannot fit on, or be routed
/// across, the live fabric.
pub fn compile_with_timing_and_faults(
    g: &Cdfg,
    opts: &CompileOptions,
    tm: &TimingModel,
    faults: &FaultSet,
) -> Result<(MachineProgram, CompileReport), PlaceError> {
    match opts.search {
        SearchBudget::Off => compile_greedy(g, opts, faults),
        _ => compile_with_cost(g, opts, &CostModel::from_timing(tm), faults),
    }
}

/// The legacy one-shot pipeline (greedy place + XY route), bit-compatible
/// with the seed mappings.
fn compile_greedy(
    g: &Cdfg,
    opts: &CompileOptions,
    faults: &FaultSet,
) -> Result<(MachineProgram, CompileReport), PlaceError> {
    fabric_bytes(opts)?;
    let mesh = Mesh::new(opts.rows, opts.cols);
    let pl: PlacementResult = place(g, opts, faults)?;
    let rr = route(g, &pl.places, &mesh, faults)?;
    build_program(g, opts, pl, rr, None)
}

/// The explored pipeline under an explicit cost model.
fn compile_with_cost(
    g: &Cdfg,
    opts: &CompileOptions,
    cm: &CostModel,
    faults: &FaultSet,
) -> Result<(MachineProgram, CompileReport), PlaceError> {
    fabric_bytes(opts)?;
    let ex = explore(g, opts, cm, faults)?.expect("nonzero search budget");
    finalize_explored_with_faults(g, opts, cm, ex, faults)
}

/// Routes an explorer-chosen placement with the congestion-aware router
/// and generates the configuration: the rip-up router refuses dead
/// links and penalizes flaky ones. Exposed so the runner can fan the
/// annealing chains out across threads and finalize the winner itself.
///
/// # Errors
/// Returns [`PlaceError::Unroutable`] when some placed edge has no
/// fault-free dimension-ordered route.
pub fn finalize_explored_with_faults(
    g: &Cdfg,
    opts: &CompileOptions,
    cm: &CostModel,
    ex: ExploreResult,
    faults: &FaultSet,
) -> Result<(MachineProgram, CompileReport), PlaceError> {
    let mesh = Mesh::new(opts.rows, opts.cols);
    let (rr, moved) =
        route_congestion_aware(g, &ex.placement.places, &mesh, cm, REROUTE_PASSES, faults)?;
    let mut sr = ex.report;
    sr.rerouted = moved;
    build_program(g, opts, ex.placement, rr, Some(sr))
}

/// The fabric's rows and columns as the bytes the bitstream stores.
fn fabric_bytes(opts: &CompileOptions) -> Result<(u8, u8), PlaceError> {
    let too_large = || PlaceError::FabricTooLarge {
        rows: opts.rows,
        cols: opts.cols,
    };
    Ok((
        u8::try_from(opts.rows).map_err(|_| too_large())?,
        u8::try_from(opts.cols).map_err(|_| too_large())?,
    ))
}

/// Configuration generation: the shared tail of both pipelines.
fn build_program(
    g: &Cdfg,
    opts: &CompileOptions,
    pl: PlacementResult,
    rr: RoutingResult,
    search: Option<SearchReport>,
) -> Result<(MachineProgram, CompileReport), PlaceError> {
    let (rows, cols) = fabric_bytes(opts)?;
    // Node configurations with operand selectors.
    let mut nodes = Vec::with_capacity(g.nodes.len());
    for (i, n) in g.iter_nodes() {
        let srcs: Vec<OperandSrc> = n
            .inputs
            .iter()
            .enumerate()
            .map(|(port, s)| match s {
                PortSrc::Node(_) => OperandSrc::Route(rr.port_route[&(i.0, port as u8)]),
                PortSrc::Imm(v) => OperandSrc::Imm(*v),
                PortSrc::Param(p) => OperandSrc::Param(p.0 as u16),
                PortSrc::None => OperandSrc::None,
            })
            .collect();
        nodes.push(NodeConfig {
            op: n.op,
            srcs,
            place: pl.places[i.0 as usize],
            bb: n.bb.0 as u16,
            group: pl.node_group[i.0 as usize],
            label: n.label.clone(),
        });
    }

    // Per-PE instruction buffers: configs keyed by basic block.
    let npes = opts.pe_count();
    let mut per_pe: Vec<BTreeMap<u16, Vec<u32>>> = vec![BTreeMap::new(); npes];
    for (i, nc) in nodes.iter().enumerate() {
        if let marionette_isa::Placement::Pe { pe } = nc.place {
            per_pe[pe as usize].entry(nc.bb).or_default().push(i as u32);
        }
    }
    let mode_of = |bb: u16| -> CtrlMode {
        match g.block(marionette_cdfg::BlockId(u32::from(bb))).kind {
            BlockKind::LoopHeader => CtrlMode::Loop,
            BlockKind::BranchThen | BlockKind::BranchElse => CtrlMode::Branch,
            _ => CtrlMode::Dfg,
        }
    };
    let pes: Vec<PeConfig> = per_pe
        .into_iter()
        .map(|cfgs| PeConfig {
            configs: cfgs
                .into_iter()
                .map(|(bb, slots)| BbConfig {
                    bb,
                    mode: mode_of(bb),
                    slots,
                })
                .collect(),
        })
        .collect();

    let program = MachineProgram {
        name: g.name.clone(),
        rows,
        cols,
        nodes,
        routes: rr.routes.clone(),
        pes,
        arrays: g
            .arrays
            .iter()
            .map(|a| ArrayInfo {
                name: a.name.clone(),
                len: a.len as u32,
                elem: a.elem,
                is_output: a.is_output,
            })
            .collect(),
        params: g
            .params
            .iter()
            .map(|p| ParamInfo {
                name: p.name.clone(),
                default: p.default,
            })
            .collect(),
    };

    let data_routes: Vec<_> = rr
        .routes
        .iter()
        .filter(|r| r.class == marionette_isa::RouteClass::Data)
        .collect();
    let report = CompileReport {
        groups: pl.groups.clone(),
        data_ops: g
            .nodes
            .iter()
            .filter(|n| !n.op.is_control() && !matches!(n.op, marionette_cdfg::Op::Sink))
            .count(),
        ctrl_ops: g.control_node_count(),
        mem_ops: g.nodes.iter().filter(|n| n.op.is_memory()).count(),
        routes: rr.routes.len(),
        ctrl_routes: rr
            .routes
            .iter()
            .filter(|r| r.class == marionette_isa::RouteClass::Ctrl)
            .count(),
        ctrl_net_fits: rr.ctrl_net_fits,
        ctrl_fanout: rr.ctrl_fanout,
        mean_data_hops: if data_routes.is_empty() {
            0.0
        } else {
            data_routes
                .iter()
                .map(|r| r.path.len().saturating_sub(1))
                .sum::<usize>() as f64
                / data_routes.len() as f64
        },
        search,
    };
    Ok((program, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marionette_cdfg::builder::CdfgBuilder;

    fn sample() -> Cdfg {
        let mut b = CdfgBuilder::new("t");
        let a = b.array_i32("a", 8, &[5, 3, 8, 1, 9, 2, 7, 4]);
        let o = b.array_i32("o", 8, &[]);
        b.mark_output(o);
        let zero = b.imm(0);
        let s = b.for_range(0, 8, &[zero], |b, i, v| {
            let x = b.load(a, i);
            let c = b.gt(x, 4.into());
            let r = b.if_else(c, |b| vec![b.mul(x, 2.into())], |_| vec![x]);
            b.store(o, i, r[0]);
            vec![b.add(v[0], r[0])]
        });
        b.sink("sum", s[0]);
        b.finish()
    }

    #[test]
    fn compile_produces_valid_program() {
        let g = sample();
        let (p, rep) = compile(&g, &CompileOptions::marionette_4x4()).unwrap();
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        assert!(rep.data_ops > 0 && rep.ctrl_ops > 0);
        assert!(rep.ctrl_net_fits);
        assert_eq!(p.nodes.len(), g.nodes.len());
    }

    #[test]
    fn bitstream_roundtrips_compiled_program() {
        let g = sample();
        let (p, _) = compile(&g, &CompileOptions::marionette_4x4()).unwrap();
        let bytes = marionette_isa::bitstream::encode(&p);
        let q = marionette_isa::bitstream::decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn configs_have_modes() {
        let g = sample();
        let (p, _) = compile(&g, &CompileOptions::marionette_4x4()).unwrap();
        let modes: std::collections::HashSet<_> = p
            .pes
            .iter()
            .flat_map(|pe| pe.configs.iter().map(|c| format!("{:?}", c.mode)))
            .collect();
        assert!(modes.contains("Loop"), "loop header config present");
    }

    #[test]
    fn disasm_of_compiled_program_is_nonempty() {
        let g = sample();
        let (p, _) = compile(&g, &CompileOptions::marionette_4x4()).unwrap();
        let text = marionette_isa::disasm::disassemble(&p);
        assert!(text.contains("cfg 0"));
    }
}
