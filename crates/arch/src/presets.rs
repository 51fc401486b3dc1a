//! Architecture definitions, parameterized over the fabric geometry.
//!
//! Every preset exists in two forms: the no-argument constructor (the
//! paper's 4×4 normalization, e.g. [`von_neumann_pe`]) and an `_on`
//! variant taking explicit [`FabricDims`] (e.g. [`von_neumann_pe_on`]).
//! The 4×4 instantiations are bit-identical to the historical constants:
//! the geometry-derived timing formulas below reproduce the paper's
//! numbers exactly at 4×4 (pinned by tests), while larger fabrics let
//! the `fabric_sweep` experiment measure how centralized-control costs
//! grow with the array — the paper's thesis at scales it didn't plot.

use marionette_compiler::{
    CompileOptions, CtrlPlacement, FabricDims, MemPlacement, Partition, PartitionMap, SplitFabric,
};
use marionette_sim::{CtrlTransport, TimingModel};

/// One evaluated architecture: mapping policy + timing model.
#[derive(Clone, Debug)]
pub struct Architecture {
    /// Display name.
    pub name: &'static str,
    /// Short tag used in figures.
    pub short: &'static str,
    /// Mapping policy.
    pub opts: CompileOptions,
    /// Timing model.
    pub tm: TimingModel,
}

impl Architecture {
    /// The fabric geometry this preset instance is normalized to.
    pub fn fabric(&self) -> FabricDims {
        self.opts.dims()
    }
}

// ---- geometry-derived timing ---------------------------------------------
//
// The paper's centralized-control costs are distances on the mesh: a
// configuration change travels branch PE → CCU and configuration network →
// array, each "~corner distance" of the fabric. On the 4×4 evaluation
// fabric the corner distance is 6 hops, which is where the historical
// constants (12-cycle CCU switch, 10-cycle dynamic-bound surcharge,
// 6-cycle data-path detour) come from. Deriving them from [`FabricDims`]
// keeps the 4×4 numbers bit-identical while letting the costs grow with
// the array.

/// CCU round trip for a centralized configuration change: branch PE →
/// CCU over the mesh plus configuration network back out, each one
/// corner distance (Fig 3c "the whole array is left idle"). `2 × corner
/// hops`; 12 on the 4×4 fabric.
pub fn ccu_switch_cycles(dims: FabricDims) -> u32 {
    2 * dims.corner_hops()
}

/// Surcharge for configuring a dynamically-bounded loop through the CCU:
/// the round trip again, minus the two cycles of CCU-local processing
/// already overlapped with the switch itself. `2 × corner hops − 2`; 10
/// on the 4×4 fabric.
pub fn ccu_dyn_cycles(dims: FabricDims) -> u32 {
    (2 * dims.corner_hops()).saturating_sub(2)
}

/// Loop-configuration detour for architectures whose control must ride
/// the data network (Fig 3f: no direct channel between producer PEs and
/// the loop generator): one corner distance; 6 on the 4×4 fabric.
pub fn activation_detour_cycles(dims: FabricDims) -> u32 {
    dims.corner_hops()
}

/// TIA phase-entry cost: the scheduler re-resolves triggers across the
/// phased region, a sweep of one corner distance; 6 on the 4×4 fabric.
pub fn tia_switch_cycles(dims: FabricDims) -> u32 {
    dims.corner_hops()
}

/// Host-processor round trip for Softbrain stream reconfiguration
/// ("processor fetches instruction from memory", Table 2). A property of
/// the host interface, not the array — it does not scale with the
/// fabric.
const HOST_SWITCH: u32 = 30;
const HOST_DYN: u32 = 20;
/// Dataflow-PE configuration switch: fetching the next phase's
/// configuration tokens from the PE-local store — fabric-independent.
const DF_SWITCH: u32 = 4;
/// Proactive configuration switch: next-stage addresses are already
/// resident in the Control Flow Trigger when the data arrives (Fig 5).
const PROACTIVE_SWITCH: u32 = 1;

/// Generic von Neumann PE array (Fig 2a) on the paper's 4×4 fabric.
pub fn von_neumann_pe() -> Architecture {
    von_neumann_pe_on(FabricDims::paper())
}

/// Generic von Neumann PE array (Fig 2a): predicated branches, control
/// hand-offs through a centralized control unit, configuration switching
/// stalls the array. Switch costs scale with the CCU round trip
/// ([`ccu_switch_cycles`]).
pub fn von_neumann_pe_on(dims: FabricDims) -> Architecture {
    let mut opts = CompileOptions::for_fabric(dims);
    opts.ctrl = CtrlPlacement::PeSlots;
    opts.agile = false;
    let mut tm = TimingModel::ideal("von Neumann PE");
    tm.predicated_branches = true;
    tm.ctrl_transport = CtrlTransport::Mesh;
    tm.exclusive_groups = true;
    tm.group_switch_cost = ccu_switch_cycles(dims);
    tm.dyn_bound_extra = ccu_dyn_cycles(dims);
    tm.ctrl_parallel = false;
    Architecture {
        name: "von Neumann PE",
        short: "vN",
        opts,
        tm,
    }
}

/// Generic dataflow PE array (Fig 2b) on the paper's 4×4 fabric.
pub fn dataflow_pe() -> Architecture {
    dataflow_pe_on(FabricDims::paper())
}

/// Generic dataflow PE array (Fig 2b): tagged tokens couple configuration
/// to every firing (one extra cycle of occupancy) and control may only
/// travel on data paths, so loop configuration pays the corner-distance
/// detour ([`activation_detour_cycles`]).
pub fn dataflow_pe_on(dims: FabricDims) -> Architecture {
    let mut opts = CompileOptions::for_fabric(dims);
    opts.ctrl = CtrlPlacement::PeSlots;
    opts.agile = false;
    let mut tm = TimingModel::ideal("dataflow PE");
    tm.per_fire_overhead = 1;
    tm.ctrl_transport = CtrlTransport::Mesh;
    tm.ctrl_parallel = false;
    // Fig 3f: loop configuration rides the data path (no direct channel
    // between producer PEs and the loop generator).
    tm.activation_extra = activation_detour_cycles(dims);
    // Tagged token stores are shallow: wait-match capacity limits how far
    // iterations can run ahead (the temporal coupling of Fig 2b).
    tm.queue_capacity = 2;
    tm.route_inflight_cap = 2;
    // Under the conventional phased schedule only the current mapping's
    // instructions are resident; switching fetches the next phase's
    // configuration tokens.
    tm.exclusive_groups = true;
    tm.group_switch_cost = DF_SWITCH;
    tm.idle_switch_threshold = 1;
    Architecture {
        name: "dataflow PE",
        short: "DF",
        opts,
        tm,
    }
}

/// Marionette PE (Proactive PE Configuration only) on the 4×4 fabric.
pub fn marionette_pe() -> Architecture {
    marionette_pe_on(FabricDims::paper())
}

/// Marionette PE with Proactive PE Configuration only (the Fig 11
/// configuration: unified data network, no Agile PE Assignment).
pub fn marionette_pe_on(dims: FabricDims) -> Architecture {
    let mut opts = CompileOptions::for_fabric(dims);
    opts.agile = false;
    let mut tm = TimingModel::ideal("Marionette PE");
    tm.ctrl_transport = CtrlTransport::Mesh; // §6.1: "we unify the data network"
    tm.exclusive_groups = true; // pipelines rebuild serially without Agile
    tm.group_switch_cost = PROACTIVE_SWITCH;
    tm.idle_switch_threshold = 0; // proactive: switch as soon as the phase drains
    Architecture {
        name: "Marionette PE",
        short: "M-PE",
        opts,
        tm,
    }
}

/// Marionette PE + control network (Fig 12) on the 4×4 fabric.
pub fn marionette_cn() -> Architecture {
    marionette_cn_on(FabricDims::paper())
}

/// Marionette PE + the dedicated CS-Benes control network (Fig 12). The
/// network stays single-cycle at every fabric size — the Fig 13
/// scalability point (line count grows with the array, latency barely).
pub fn marionette_cn_on(dims: FabricDims) -> Architecture {
    let mut a = marionette_pe_on(dims);
    a.name = "Marionette PE + Control Network";
    a.short = "M-CN";
    a.tm.name = a.name.into();
    a.tm.ctrl_transport = CtrlTransport::CtrlNetwork { latency: 1 };
    a
}

/// Full Marionette (Fig 14) on the 4×4 fabric.
pub fn marionette_full() -> Architecture {
    marionette_full_on(FabricDims::paper())
}

/// Full Marionette: + Agile PE Assignment (Fig 14): loop levels become
/// co-resident pipelines on disjoint, reshape-sized PE regions.
pub fn marionette_full_on(dims: FabricDims) -> Architecture {
    let mut a = marionette_cn_on(dims);
    a.name = "Marionette";
    a.short = "M";
    a.tm.name = a.name.into();
    a.opts.agile = true;
    a.tm.exclusive_groups = false;
    a.tm.group_switch_cost = 0;
    a
}

/// Softbrain (Fig 17) on the 4×4 fabric.
pub fn softbrain() -> Architecture {
    softbrain_on(FabricDims::paper())
}

/// Softbrain (stream-dataflow): memory on stream engines, innermost-loop
/// pipelines, but outer control and reconfiguration owned by the host
/// processor — a fabric-independent host round trip.
///
/// Three stream engines, each on its own tile; a fabric of fewer tiles
/// gets one engine per tile.
pub fn softbrain_on(dims: FabricDims) -> Architecture {
    let mut opts = CompileOptions::for_fabric(dims);
    opts.ctrl = CtrlPlacement::PeSlots;
    let count = dims.pe_count().min(3) as u8; // at most 3: cannot truncate
    opts.mem = MemPlacement::StreamUnits { count };
    opts.agile = false;
    let mut tm = TimingModel::ideal("Softbrain");
    tm.predicated_branches = true;
    tm.ctrl_transport = CtrlTransport::Mesh;
    tm.exclusive_groups = true;
    tm.group_switch_cost = HOST_SWITCH;
    tm.dyn_bound_extra = HOST_DYN;
    tm.ctrl_parallel = false;
    Architecture {
        name: "Softbrain",
        short: "SB",
        opts,
        tm,
    }
}

/// TIA (Fig 17) on the 4×4 fabric.
pub fn tia() -> Architecture {
    tia_on(FabricDims::paper())
}

/// TIA (triggered instructions): autonomous — no centralized round trips
/// — but trigger resolution serializes with execution like a dataflow PE,
/// and control shares the data network (corner-distance activation
/// detours, phase-entry trigger re-resolution sweeps).
pub fn tia_on(dims: FabricDims) -> Architecture {
    let mut opts = CompileOptions::for_fabric(dims);
    opts.ctrl = CtrlPlacement::PeSlots;
    opts.agile = false;
    let mut tm = TimingModel::ideal("TIA");
    tm.per_fire_overhead = 1;
    tm.ctrl_transport = CtrlTransport::Mesh;
    tm.ctrl_parallel = false;
    // Triggered instructions are autonomous but control still shares the
    // datapath: activation transfers take the indirect route (Fig 3f).
    tm.activation_extra = activation_detour_cycles(dims);
    // Per-PE trigger state is shallow (a few architectural registers).
    tm.queue_capacity = 2;
    tm.route_inflight_cap = 2;
    // A PE holds only ~16 triggered instructions: multi-level nests are
    // phased, and the scheduler re-resolves triggers on each phase entry.
    tm.exclusive_groups = true;
    tm.group_switch_cost = tia_switch_cycles(dims);
    tm.idle_switch_threshold = 1;
    Architecture {
        name: "TIA",
        short: "TIA",
        opts,
        tm,
    }
}

/// REVEL (Fig 17) on the 4×4 fabric.
pub fn revel() -> Architecture {
    revel_on(FabricDims::paper())
}

/// REVEL (hybrid systolic-dataflow): all but one PE pipeline innermost
/// loops at full rate; everything else shares the single tagged-dataflow
/// PE (the paper's 4×4 normalization: "15 systolic PEs, 1 tagged-dataflow
/// PE" — the same 1-dataflow-PE split scaled to the fabric).
pub fn revel_on(dims: FabricDims) -> Architecture {
    let mut opts = CompileOptions::for_fabric(dims);
    opts.ctrl = CtrlPlacement::PeSlots;
    opts.agile = false;
    opts.split = Some(SplitFabric {
        systolic_pes: dims.pe_count() - 1,
        dataflow_pes: 1,
    });
    opts.slots_per_pe = 64; // the dataflow PE multiplexes many operators
    let mut tm = TimingModel::ideal("REVEL");
    tm.predicated_branches = true; // systolic lanes cannot steer
    tm.ctrl_transport = CtrlTransport::Mesh;
    tm.dyn_bound_extra = 2; // fast stream-port handoff
    tm.ctrl_parallel = false;
    Architecture {
        name: "REVEL",
        short: "RV",
        opts,
        tm,
    }
}

/// RipTide (Fig 17) on the 4×4 fabric.
pub fn riptide() -> Architecture {
    riptide_on(FabricDims::paper())
}

/// RipTide (control flow in the NoC): control operators execute inside
/// network switches — no PE slots, no reconfiguration — but every control
/// transfer is a multi-hop trip through the shared, slower fabric.
pub fn riptide_on(dims: FabricDims) -> Architecture {
    let mut opts = CompileOptions::for_fabric(dims);
    opts.ctrl = CtrlPlacement::NetSwitches;
    opts.agile = false;
    let mut tm = TimingModel::ideal("RipTide");
    tm.ctrl_transport = CtrlTransport::Mesh;
    tm.link_latency = 2; // energy-minimal NoC: "the transferring is slow"
    tm.ctrl_parallel = true; // switches run beside PEs
    Architecture {
        name: "RipTide",
        short: "RT",
        opts,
        tm,
    }
}

/// The four state-of-the-art comparison architectures of Fig 17.
pub fn all_sota() -> Vec<Architecture> {
    all_sota_on(FabricDims::paper())
}

/// The Fig 17 SOTA comparison points on an explicit fabric.
pub fn all_sota_on(dims: FabricDims) -> Vec<Architecture> {
    vec![
        softbrain_on(dims),
        tia_on(dims),
        revel_on(dims),
        riptide_on(dims),
    ]
}

/// All nine evaluated presets on the paper's 4×4 fabric, in canonical
/// order: the vN/DF baselines, the Marionette ablation ladder, then the
/// SOTA models. The single source of truth for "every preset" sweeps
/// (bench, fuzzing, tests).
pub fn all_presets() -> Vec<Architecture> {
    all_presets_on(FabricDims::paper())
}

/// All nine evaluated presets on an explicit fabric, in canonical order.
/// `all_presets_on(FabricDims::paper())` is bit-identical to
/// [`all_presets`].
pub fn all_presets_on(dims: FabricDims) -> Vec<Architecture> {
    let mut archs = vec![
        von_neumann_pe_on(dims),
        dataflow_pe_on(dims),
        marionette_pe_on(dims),
        marionette_cn_on(dims),
        marionette_full_on(dims),
    ];
    archs.extend(all_sota_on(dims));
    archs
}

/// Resolves preset short tags (e.g. `"M,vN"`) to architectures on the
/// given fabric. Tags are matched case-insensitively against the
/// [`all_presets_on`] canonical set.
///
/// # Errors
/// Returns a message naming the unknown tag and the known tags.
pub fn presets_by_tags_on(dims: FabricDims, tags: &str) -> Result<Vec<Architecture>, String> {
    let all = all_presets_on(dims);
    let mut out = Vec::new();
    for t in tags.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match all.iter().find(|a| a.short.eq_ignore_ascii_case(t)) {
            Some(a) => out.push(a.clone()),
            None => {
                return Err(format!(
                    "unknown preset {t} (known: {})",
                    all.iter().map(|a| a.short).collect::<Vec<_>>().join(", ")
                ))
            }
        }
    }
    Ok(out)
}

/// Instantiates a preset on a fabric **partition**: the architecture is
/// normalized to the partition's own dimensions, so every
/// geometry-derived control cost (CCU switch round trips, activation
/// detours, TIA predicate broadcast) is priced by the *partition's*
/// corner distance rather than the host fabric's. An 8x8 tenant of a
/// 16x16 fabric pays 14-hop control round trips, not 30-hop ones — the
/// control-plane payoff of spatial sharding (see `docs/PARTITIONING.md`).
///
/// # Errors
/// Returns the [`presets_by_tags_on`] message for an unknown tag.
pub fn preset_for_partition(part: &Partition, tag: &str) -> Result<Architecture, String> {
    let mut v = presets_by_tags_on(part.dims(), tag)?;
    match v.len() {
        1 => Ok(v.remove(0)),
        n => Err(format!("expected one preset tag, got {n} ({tag})")),
    }
}

/// One preset instance per partition of a [`PartitionMap`], each
/// normalized to its own partition's dimensions (see
/// [`preset_for_partition`]).
///
/// # Errors
/// Returns the [`presets_by_tags_on`] message for an unknown tag.
pub fn presets_for_partitions(map: &PartitionMap, tag: &str) -> Result<Vec<Architecture>, String> {
    map.parts()
        .iter()
        .map(|p| preset_for_partition(p, tag))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct() {
        let archs = all_presets();
        assert_eq!(archs.len(), 9);
        let mut names = std::collections::HashSet::new();
        for a in &archs {
            assert!(names.insert(a.short), "duplicate {}", a.short);
        }
    }

    #[test]
    fn ablation_ladder_is_monotone_in_features() {
        let pe = marionette_pe();
        let cn = marionette_cn();
        let full = marionette_full();
        assert!(matches!(pe.tm.ctrl_transport, CtrlTransport::Mesh));
        assert!(matches!(
            cn.tm.ctrl_transport,
            CtrlTransport::CtrlNetwork { .. }
        ));
        assert!(!pe.opts.agile && !cn.opts.agile && full.opts.agile);
        assert!(pe.tm.exclusive_groups && !full.tm.exclusive_groups);
    }

    #[test]
    fn revel_splits_fabric() {
        let r = revel();
        let s = r.opts.split.unwrap();
        assert_eq!(s.systolic_pes + s.dataflow_pes, 16);
        let r8 = revel_on(FabricDims::new(8, 8));
        let s8 = r8.opts.split.unwrap();
        assert_eq!(s8.systolic_pes, 63);
        assert_eq!(s8.dataflow_pes, 1);
    }

    #[test]
    fn derived_timing_reproduces_the_paper_constants_at_4x4() {
        let d = FabricDims::paper();
        assert_eq!(ccu_switch_cycles(d), 12, "Fig 3c CCU round trip");
        assert_eq!(ccu_dyn_cycles(d), 10, "Fig 3d dynamic-bound surcharge");
        assert_eq!(activation_detour_cycles(d), 6, "Fig 3f data-path detour");
        assert_eq!(tia_switch_cycles(d), 6);
        let vn = von_neumann_pe();
        assert_eq!(vn.tm.group_switch_cost, 12);
        assert_eq!(vn.tm.dyn_bound_extra, 10);
        assert_eq!(dataflow_pe().tm.activation_extra, 6);
        assert_eq!(dataflow_pe().tm.group_switch_cost, 4);
        assert_eq!(tia().tm.group_switch_cost, 6);
        assert_eq!(tia().tm.activation_extra, 6);
    }

    #[test]
    fn centralized_costs_grow_with_the_fabric() {
        let d6 = FabricDims::new(6, 6);
        let d8 = FabricDims::new(8, 8);
        assert_eq!(ccu_switch_cycles(d6), 20);
        assert_eq!(ccu_switch_cycles(d8), 28);
        let vn6 = von_neumann_pe_on(d6);
        assert_eq!(vn6.tm.group_switch_cost, 20);
        assert_eq!(vn6.tm.dyn_bound_extra, 18);
        // Marionette's proactive switch stays flat.
        assert_eq!(marionette_pe_on(d8).tm.group_switch_cost, 1);
        // Host round trips don't scale with the array.
        assert_eq!(softbrain_on(d8).tm.group_switch_cost, 30);
    }

    #[test]
    fn presets_on_paper_fabric_match_the_legacy_constructors() {
        let legacy = all_presets();
        let rxc = all_presets_on(FabricDims::new(4, 4));
        assert_eq!(legacy.len(), rxc.len());
        for (a, b) in legacy.iter().zip(&rxc) {
            assert_eq!(a.short, b.short);
            assert_eq!(a.opts, b.opts, "{}: options drifted", a.short);
            assert_eq!(a.tm, b.tm, "{}: timing model drifted", a.short);
        }
    }

    #[test]
    fn tags_resolve_on_any_fabric() {
        let sel = presets_by_tags_on(FabricDims::new(6, 6), "M,vN").unwrap();
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0].fabric(), FabricDims::new(6, 6));
        assert_eq!(
            sel[0].tm.ctrl_transport,
            CtrlTransport::CtrlNetwork { latency: 1 }
        );
        assert_eq!(sel[1].tm.group_switch_cost, 20);
        assert!(presets_by_tags_on(FabricDims::paper(), "nope").is_err());
    }
}
