//! Placement: the Marionette scheduling algorithm (Fig 8).
//!
//! Operators are partitioned into *mapping groups* — one per loop, plus
//! the top level — and groups are placed innermost-first:
//!
//! - **Agile PE Assignment** (`agile = true`): each group receives a
//!   disjoint PE region sized to run at the lowest feasible initiation
//!   interval. When PEs run out, already-placed groups are *reshaped*
//!   (time-extended: fewer PEs, higher II), choosing the reshape with the
//!   minimum `PE_waste = PEs × II − ops` exactly as the paper's
//!   pseudo-code prescribes. The resulting co-resident regions let outer
//!   basic blocks pipeline concurrently with inner loops.
//! - **Non-agile** (baseline): every group maps across the whole array
//!   and groups time-multiplex through configuration switching.
//!
//! Within a group, operators are balanced across the region's PEs with a
//! producer-affinity heuristic; branch-side operators carry fractional
//! load (the two sides of a divergent branch fire exclusively, so a
//! Marionette PE can host both at no II cost — predicated architectures
//! pay dynamically in the simulator instead).

use crate::options::{CompileOptions, CtrlPlacement, MemPlacement};
use marionette_cdfg::graph::{Cdfg, PortSrc};
use marionette_cdfg::Op;
use marionette_isa::Placement;
use marionette_net::Mesh;
use marionette_sim::FaultSet;
use std::fmt;

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// A group cannot fit even at the maximum II (instruction buffer depth).
    GroupTooLarge {
        /// Group index.
        group: u16,
        /// Operators in the group.
        ops: usize,
        /// Total slot capacity available.
        capacity: usize,
    },
    /// No dimension-ordered path (XY or YX) between two tiles avoids the
    /// dead links of the injected [`FaultSet`].
    Unroutable {
        /// Source tile (linear index).
        src_tile: u16,
        /// Destination tile (linear index).
        dst_tile: u16,
    },
    /// A fabric side exceeds the 255 the bitstream can encode.
    FabricTooLarge {
        /// Fabric rows.
        rows: usize,
        /// Fabric columns.
        cols: usize,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::GroupTooLarge {
                group,
                ops,
                capacity,
            } => write!(
                f,
                "group {group} has {ops} operators but only {capacity} slots exist"
            ),
            PlaceError::Unroutable { src_tile, dst_tile } => write!(
                f,
                "no fault-free XY/YX route from tile {src_tile} to tile {dst_tile}"
            ),
            PlaceError::FabricTooLarge { rows, cols } => write!(
                f,
                "a {rows}x{cols} fabric exceeds the 255x255 the bitstream encodes"
            ),
        }
    }
}

impl std::error::Error for PlaceError {}

/// Per-group placement decision.
#[derive(Clone, Debug)]
pub struct GroupPlacement {
    /// Loop backing this group (`None` = top level).
    pub loop_id: Option<u32>,
    /// Loop nesting depth (0 = top level).
    pub depth: u32,
    /// PEs assigned (linear indices).
    pub pes: Vec<u16>,
    /// Weighted operator count needing PE issue slots.
    pub ops: usize,
    /// Initiation interval implied by the densest PE of the region.
    pub ii: usize,
    /// `PEs × II − ops`: the reshape objective of Fig 8.
    pub waste: i64,
    /// Whether this group is an innermost loop.
    pub innermost: bool,
}

/// Result of placement.
#[derive(Clone, Debug)]
pub struct PlacementResult {
    /// Placement per node.
    pub places: Vec<Placement>,
    /// Mapping group per node.
    pub node_group: Vec<u16>,
    /// Group decisions, indexed by group id.
    pub groups: Vec<GroupPlacement>,
}

/// Computes each node's mapping group: group 0 is the top level, group
/// `l + 1` corresponds to loop `l`.
pub fn node_groups(g: &Cdfg) -> Vec<u16> {
    g.nodes
        .iter()
        .map(|n| match g.block(n.bb).loop_id {
            Some(l) => l.0 as u16 + 1,
            None => 0,
        })
        .collect()
}

fn is_innermost(g: &Cdfg, l: usize) -> bool {
    !g.loops
        .iter()
        .any(|x| x.parent == Some(marionette_cdfg::LoopId(l as u32)))
}

/// True when the node consumes a PE data-plane issue slot under the given
/// options.
pub(crate) fn takes_pe_slot(op: Op, opts: &CompileOptions) -> bool {
    match op {
        Op::Sink | Op::Start => false,
        o if o.is_control() => opts.ctrl == CtrlPlacement::PeSlots,
        o if o.is_memory() => opts.mem == MemPlacement::PeSlots,
        _ => true,
    }
}

/// Fractional issue weight: branch-side operators fire exclusively, so
/// deeper hammock sides weigh less.
pub(crate) fn node_weight(g: &Cdfg, nidx: usize) -> f64 {
    let bd = g.block(g.nodes[nidx].bb).branch_depth;
    1.0 / f64::from(1u32 << bd.min(8))
}

/// Runs placement. Dead PEs of `faults` are excluded from every region
/// (so no operator — data-plane, control-plane or anchor — lands on a
/// dead tile); pass [`FaultSet::none`] for a healthy fabric.
///
/// # Errors
/// Returns [`PlaceError`] when the program cannot fit on the live tiles.
pub fn place(
    g: &Cdfg,
    opts: &CompileOptions,
    faults: &FaultSet,
) -> Result<PlacementResult, PlaceError> {
    let npes = opts.pe_count();
    let mesh = Mesh::new(opts.rows, opts.cols);
    let node_group = node_groups(g);
    let ngroups = g.loops.len() + 1;

    // Gather per-group slot-taking nodes (weighted).
    let mut group_nodes: Vec<Vec<usize>> = vec![Vec::new(); ngroups];
    let mut group_weight: Vec<f64> = vec![0.0; ngroups];
    for (i, n) in g.nodes.iter().enumerate() {
        if takes_pe_slot(n.op, opts) {
            let grp = node_group[i] as usize;
            group_nodes[grp].push(i);
            group_weight[grp] += node_weight(g, i);
        }
    }

    // ---- region allocation -------------------------------------------
    // Partition the fabric (REVEL splits it; otherwise one region). Dead
    // PEs are removed up front so every region — and every capacity
    // computation below — only sees live tiles.
    let live = |pe: &u16| -> bool { !faults.pe_dead(*pe as usize) };
    let (inner_region, outer_region): (Vec<u16>, Vec<u16>) = match opts.split {
        Some(s) => (
            (0..s.systolic_pes as u16).filter(live).collect(),
            (s.systolic_pes as u16..(s.systolic_pes + s.dataflow_pes) as u16)
                .filter(live)
                .collect(),
        ),
        None => ((0..npes as u16).filter(live).collect(), Vec::new()),
    };
    if inner_region.is_empty() {
        return Err(PlaceError::GroupTooLarge {
            group: 0,
            ops: g.nodes.len(),
            capacity: 0,
        });
    }
    let live_pes = inner_region.len() + outer_region.len();
    // First live PE: the anchor for Start/Sink control-plane residency.
    let anchor = inner_region[0];

    // Group processing order: innermost (deepest) first, as in Fig 8.
    let mut order: Vec<usize> = (0..ngroups).collect();
    let depth_of = |grp: usize| -> u32 {
        if grp == 0 {
            0
        } else {
            g.loops[grp - 1].depth
        }
    };
    order.sort_by_key(|&grp| std::cmp::Reverse(depth_of(grp)));

    let mut groups: Vec<GroupPlacement> = (0..ngroups)
        .map(|grp| GroupPlacement {
            loop_id: if grp == 0 { None } else { Some(grp as u32 - 1) },
            depth: depth_of(grp),
            pes: Vec::new(),
            ops: group_nodes[grp].len(),
            ii: 1,
            waste: 0,
            innermost: grp > 0 && is_innermost(g, grp - 1),
        })
        .collect();

    if opts.agile && opts.split.is_none() {
        // Fig 8: innermost -> outermost, reshape on exhaustion.
        let mut free: Vec<u16> = inner_region.clone();
        let mut placed: Vec<usize> = Vec::new();
        for &grp in &order {
            let w = group_weight[grp].ceil() as usize;
            if w == 0 {
                continue;
            }
            // Grow the free list (by reshaping placed groups) until the
            // group fits within the instruction buffer depth; if reshape
            // is exhausted, share the least-loaded existing region.
            let min_pes = w.div_ceil(opts.slots_per_pe).max(1);
            let mut shared = false;
            while free.len() < min_pes {
                if reshape_until_free(&mut groups, &placed, &mut free, opts).is_err() {
                    let victim = placed
                        .iter()
                        .min_by(|&&a, &&b| {
                            let la = groups[a].ops as f64 / groups[a].pes.len().max(1) as f64;
                            let lb = groups[b].ops as f64 / groups[b].pes.len().max(1) as f64;
                            la.partial_cmp(&lb).unwrap()
                        })
                        .copied()
                        .ok_or(PlaceError::GroupTooLarge {
                            group: grp as u16,
                            ops: w,
                            capacity: live_pes * opts.slots_per_pe,
                        })?;
                    let pes = groups[victim].pes.clone();
                    let ii = w.div_ceil(pes.len().max(1)).max(1);
                    groups[grp].pes = pes;
                    groups[grp].ii = ii;
                    groups[grp].waste = (groups[grp].pes.len() * ii) as i64 - w as i64;
                    placed.push(grp);
                    shared = true;
                    break;
                }
            }
            if shared {
                continue;
            }
            let take = w.min(free.len());
            let ii = w.div_ceil(take);
            groups[grp].pes = free.drain(..take).collect();
            groups[grp].ii = ii;
            groups[grp].waste = (take * ii) as i64 - w as i64;
            placed.push(grp);
        }
    } else if let Some(_s) = opts.split {
        // REVEL: innermost loops on the systolic side, the rest on the
        // tagged-dataflow side.
        for grp in 0..ngroups {
            if group_nodes[grp].is_empty() {
                continue;
            }
            let region = if groups[grp].innermost {
                &inner_region
            } else {
                &outer_region
            };
            groups[grp].pes = region.clone();
            let w = group_weight[grp].ceil() as usize;
            groups[grp].ii = w.div_ceil(region.len().max(1)).max(1);
            groups[grp].waste = (region.len() * groups[grp].ii) as i64 - w as i64;
        }
    } else {
        // Non-agile: every group maps across the whole array and levels
        // time-multiplex through configuration switching.
        for grp in 0..ngroups {
            if group_nodes[grp].is_empty() {
                continue;
            }
            groups[grp].pes = inner_region.clone();
            let w = group_weight[grp].ceil() as usize;
            let n = inner_region.len();
            groups[grp].ii = w.div_ceil(n).max(1);
            groups[grp].waste = (n * groups[grp].ii) as i64 - w as i64;
        }
    }

    // ---- node assignment ----------------------------------------------
    // Single pass in node-id order (the builder emits producers before
    // consumers), placing data-plane and control-plane operators with the
    // same producer-affinity heuristic. Control parts track their own
    // load: a Marionette PE issues one control operator per cycle in
    // parallel with its FU.
    let mut places: Vec<Placement> = vec![Placement::CtrlPlane { pe: anchor }; g.nodes.len()];
    let mut pe_load: Vec<f64> = vec![0.0; npes];
    let mut ctrl_load: Vec<f64> = vec![0.0; npes];
    let mut mem_unit_rr: u8 = 0;

    let pick_tile =
        |region: &[u16], load: &[f64], places: &[Placement], g: &Cdfg, nidx: usize| -> u16 {
            let mut best = region[0];
            let mut best_key = (i64::MAX, usize::MAX, u16::MAX);
            for &pe in region {
                // Quantize load so producer affinity wins among
                // comparably-loaded tiles.
                let lq = (load[pe as usize] * 2.0).round() as i64;
                let dist: usize = g.nodes[nidx]
                    .inputs
                    .iter()
                    .filter_map(|s| match s {
                        PortSrc::Node(p) => places[p.0 as usize]
                            .pe()
                            .map(|src_pe| mesh.hops(src_pe as usize, pe as usize)),
                        _ => None,
                    })
                    .sum();
                let key = (lq, dist, pe);
                if key < best_key {
                    best_key = key;
                    best = pe;
                }
            }
            best
        };

    for (i, n) in g.nodes.iter().enumerate() {
        let grp = node_group[i] as usize;
        let region: &[u16] = if groups[grp].pes.is_empty() {
            &inner_region
        } else {
            &groups[grp].pes
        };
        if takes_pe_slot(n.op, opts) {
            let best = pick_tile(region, &pe_load, &places, g, i);
            pe_load[best as usize] += node_weight(g, i);
            places[i] = Placement::Pe { pe: best };
            continue;
        }
        match n.op {
            Op::Start | Op::Sink => {
                places[i] = Placement::CtrlPlane { pe: anchor };
            }
            o if o.is_memory() => {
                if let MemPlacement::StreamUnits { count } = opts.mem {
                    places[i] = Placement::MemUnit {
                        unit: mem_unit_rr % count,
                    };
                    mem_unit_rr = mem_unit_rr.wrapping_add(1);
                } else {
                    unreachable!("memory on PE slots is handled above");
                }
            }
            _ => {
                let best = pick_tile(region, &ctrl_load, &places, g, i);
                ctrl_load[best as usize] += node_weight(g, i);
                places[i] = match opts.ctrl {
                    CtrlPlacement::CtrlPlane => Placement::CtrlPlane { pe: best },
                    CtrlPlacement::NetSwitches => Placement::NetSwitch { sw: best },
                    CtrlPlacement::PeSlots => unreachable!("handled above"),
                };
            }
        }
    }

    Ok(PlacementResult {
        places,
        node_group,
        groups,
    })
}

/// Bumps the II of the placed group whose reshape wastes the least,
/// releasing PEs back to the free list (the inner `reshape` loop of the
/// Fig 8 pseudo-code).
fn reshape_until_free(
    groups: &mut [GroupPlacement],
    placed: &[usize],
    free: &mut Vec<u16>,
    opts: &CompileOptions,
) -> Result<(), PlaceError> {
    let mut best: Option<(usize, usize, i64)> = None; // (group, new_ii, waste)
    for &grp in placed {
        let gi = &groups[grp];
        let w = gi.ops.max(1);
        let mut ii = gi.ii + 1;
        while ii <= opts.slots_per_pe {
            let need = w.div_ceil(ii);
            if need < gi.pes.len() {
                let waste = (need * ii) as i64 - w as i64;
                if best.is_none_or(|(_, _, bw)| waste < bw) {
                    best = Some((grp, ii, waste));
                }
                break;
            }
            ii += 1;
        }
    }
    let Some((grp, ii, waste)) = best else {
        return Err(PlaceError::GroupTooLarge {
            group: 0,
            ops: 0,
            capacity: 0,
        });
    };
    let w = groups[grp].ops.max(1);
    let need = w.div_ceil(ii);
    let released: Vec<u16> = groups[grp].pes.drain(need..).collect();
    free.extend(released);
    groups[grp].ii = ii;
    groups[grp].waste = waste;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use marionette_cdfg::builder::CdfgBuilder;

    fn nest(depth_sizes: &[i32]) -> Cdfg {
        // builds a nest of counted loops with `k` adds per level
        fn level(
            b: &mut CdfgBuilder,
            sizes: &[i32],
            acc: marionette_cdfg::V,
        ) -> marionette_cdfg::V {
            if sizes.is_empty() {
                return acc;
            }
            let n = sizes[0];
            let rest: Vec<i32> = sizes[1..].to_vec();
            let out = b.for_range(0, n, &[acc], |b, i, v| {
                let t = b.add(v[0], i);
                let u = b.mul(t, 3.into());
                let deeper = level(b, &rest, u);
                vec![deeper]
            });
            out[0]
        }
        let mut b = CdfgBuilder::new("nest");
        let zero = b.imm(0);
        let r = level(&mut b, depth_sizes, zero);
        b.sink("r", r);
        b.finish()
    }

    #[test]
    fn agile_gives_disjoint_regions() {
        let g = nest(&[4, 4, 4]);
        let opts = CompileOptions::marionette_4x4();
        let r = place(&g, &opts, &FaultSet::none()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for gp in &r.groups {
            for &pe in &gp.pes {
                assert!(seen.insert(pe), "pe {pe} in two regions");
            }
        }
        // innermost loop must be placed
        assert!(r.groups.iter().any(|gp| gp.innermost && !gp.pes.is_empty()));
    }

    #[test]
    fn non_agile_shares_whole_array() {
        let g = nest(&[4, 4]);
        let mut opts = CompileOptions::marionette_4x4();
        opts.agile = false;
        let r = place(&g, &opts, &FaultSet::none()).unwrap();
        for gp in &r.groups {
            if gp.ops > 0 {
                assert_eq!(gp.pes.len(), 16);
            }
        }
    }

    #[test]
    fn waste_is_nonnegative() {
        let g = nest(&[4, 4, 4]);
        let r = place(&g, &CompileOptions::marionette_4x4(), &FaultSet::none()).unwrap();
        for gp in &r.groups {
            assert!(gp.waste >= 0, "waste must be non-negative");
            if !gp.pes.is_empty() {
                assert!(gp.ii >= 1);
            }
        }
    }

    #[test]
    fn every_node_placed_in_its_region() {
        let g = nest(&[4, 4]);
        let opts = CompileOptions::marionette_4x4();
        let r = place(&g, &opts, &FaultSet::none()).unwrap();
        for (i, n) in g.nodes.iter().enumerate() {
            if takes_pe_slot(n.op, &opts) {
                let grp = r.node_group[i] as usize;
                let pe = r.places[i].pe().unwrap();
                assert!(
                    r.groups[grp].pes.contains(&pe),
                    "node {i} outside its group region"
                );
            }
        }
    }

    #[test]
    fn reshape_triggers_on_wide_programs() {
        // Three levels with lots of ops force reshaping on a 2x2 fabric.
        let g = nest(&[3, 3, 3, 3, 3]);
        let mut opts = CompileOptions::marionette_4x4();
        opts.rows = 2;
        opts.cols = 2;
        opts.slots_per_pe = 64;
        let r = place(&g, &opts, &FaultSet::none()).unwrap();
        assert!(r.groups.iter().any(|gp| gp.ii > 1), "somebody reshaped");
    }

    #[test]
    fn dead_pes_are_excluded_from_every_region() {
        let g = nest(&[4, 4]);
        let opts = CompileOptions::marionette_4x4();
        let mut faults = FaultSet::new(4, 4);
        faults.add("pe:0,0".parse().unwrap()).unwrap();
        faults.add("pe:1,2".parse().unwrap()).unwrap();
        let r = place(&g, &opts, &faults).unwrap();
        for (i, p) in r.places.iter().enumerate() {
            if let Some(pe) = p.pe() {
                assert!(
                    !faults.pe_dead(pe as usize),
                    "node {i} placed on dead pe {pe}"
                );
            }
            if let Placement::CtrlPlane { pe } = p {
                assert!(!faults.pe_dead(*pe as usize), "ctrl node {i} on dead pe");
            }
        }
        for gp in &r.groups {
            assert!(gp.pes.iter().all(|&pe| !faults.pe_dead(pe as usize)));
        }
    }

    #[test]
    fn all_dead_fabric_is_a_typed_error() {
        let g = nest(&[4]);
        let mut opts = CompileOptions::marionette_4x4();
        opts.rows = 1;
        opts.cols = 2;
        let mut faults = FaultSet::new(1, 2);
        faults.add("pe:0,0".parse().unwrap()).unwrap();
        faults.add("pe:0,1".parse().unwrap()).unwrap();
        let err = place(&g, &opts, &faults).unwrap_err();
        assert!(matches!(err, PlaceError::GroupTooLarge { capacity: 0, .. }));
    }

    #[test]
    fn split_fabric_separates_inner_from_outer() {
        let g = nest(&[4, 4]);
        let mut opts = CompileOptions::marionette_4x4();
        opts.agile = false;
        opts.split = Some(crate::options::SplitFabric {
            systolic_pes: 15,
            dataflow_pes: 1,
        });
        let r = place(&g, &opts, &FaultSet::none()).unwrap();
        let inner = r.groups.iter().find(|gp| gp.innermost).unwrap();
        assert!(inner.pes.iter().all(|&pe| pe < 15));
        let outer = r
            .groups
            .iter()
            .find(|gp| !gp.innermost && gp.ops > 0)
            .unwrap();
        assert_eq!(outer.pes, vec![15]);
    }
}
