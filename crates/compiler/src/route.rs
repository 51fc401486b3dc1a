//! Routing: turns CDFG edges into physical [`Route`]s.
//!
//! Data edges take dimension-ordered mesh paths between the producer's
//! and consumer's tiles. Control edges (predicates, steering decisions,
//! loop state, ordering tokens) are classed [`RouteClass::Ctrl`]; on
//! architectures with the dedicated CS-Benes control network they ride
//! it point-to-point in one cycle, otherwise the simulator sends them
//! over the mesh (or through the CCU). The control multicast sets are
//! checked against the CS-Benes capacity here, reproducing the static
//! no-arbitration configuration of Fig 6.

use crate::place::PlaceError;
use marionette_cdfg::graph::{Cdfg, PortSrc};
use marionette_cdfg::Op;
use marionette_isa::{Placement, Route, RouteClass};
use marionette_net::{CsBenesNetwork, Mesh};
use marionette_sim::FaultSet;
use std::collections::HashMap;

/// Congestion score surcharge that makes a dead link strictly worse than
/// any congested-but-alive alternative during rip-up.
const DEAD_LINK_PENALTY: f64 = 1e18;

/// True when every mesh link of `path` survives the fault set.
fn path_is_clean(mesh: &Mesh, path: &[u16], faults: &FaultSet) -> bool {
    match mesh.links_of_path(path) {
        Some(links) => links.iter().all(|l| !faults.link_dead(l.0 as usize)),
        None => false,
    }
}

/// True when a destination port carries control information rather than
/// an operand value.
pub fn is_ctrl_port(op: Op, port: usize) -> bool {
    match op {
        Op::Steer { .. } | Op::Merge { .. } | Op::Gate => port == 0,
        Op::Carry => port == 0,
        Op::Inv => port == 1,
        // Optional memory-ordering tokens are control events.
        Op::Load(_) => port == 1,
        Op::Store(_) => port == 2,
        _ => false,
    }
}

/// Computes the set of *entry steers*: loop-control steers whose output
/// feeds loop state (carry initial values or invariant holds). Transfers
/// into them are the architectural loop-activation/configuration events —
/// the transfers the paper's Fig 3d/3f charge with CCU round trips or
/// data-path detours.
pub fn entry_steers(g: &Cdfg) -> std::collections::HashSet<u32> {
    let consumers = g.consumers();
    let mut out = std::collections::HashSet::new();
    for (id, n) in g.iter_nodes() {
        if !matches!(n.op, Op::Steer { .. }) {
            continue;
        }
        let feeds_state = consumers[id.0 as usize]
            .iter()
            .any(|&(c, port)| matches!((g.node(c).op, port), (Op::Carry, 1) | (Op::Inv, 0)));
        if feeds_state {
            out.insert(id.0);
        }
    }
    out
}

/// Operand-port → route-table-index map keyed by (node id, port).
type PortRouteMap = HashMap<(u32, u8), u32>;

/// Result of routing.
#[derive(Clone, Debug)]
pub struct RoutingResult {
    /// The route table (order matches discovery order).
    pub routes: Vec<Route>,
    /// Per-node operand selectors referencing the route table
    /// (`None` entries for non-edge ports are filled by configgen).
    pub port_route: HashMap<(u32, u8), u32>,
    /// Whether the control multicast sets fit the CS-Benes network in one
    /// static configuration.
    pub ctrl_net_fits: bool,
    /// Total control fan-out demanded of the control network.
    pub ctrl_fanout: usize,
}

/// Builds the route table with XY paths (shared by both routers). With a
/// non-empty fault set, a route whose XY path crosses a dead link falls
/// back to YX; if both dimension orders are blocked the edge is
/// unroutable (cluster-internal edges keep their path regardless — they
/// never send flits, so a dead link on them is harmless).
fn build_routes(
    g: &Cdfg,
    places: &[Placement],
    mesh: &Mesh,
    faults: &FaultSet,
) -> Result<(Vec<Route>, PortRouteMap), PlaceError> {
    let mut routes = Vec::new();
    let mut port_route = HashMap::new();
    let entries = entry_steers(g);
    let header_bb = if faults.is_empty() {
        Vec::new()
    } else {
        crate::cost::header_blocks(g)
    };
    for (i, n) in g.nodes.iter().enumerate() {
        for (port, src) in n.inputs.iter().enumerate() {
            let PortSrc::Node(p) = src else { continue };
            let src_tile = places[p.0 as usize].tile() as usize;
            let dst_tile = places[i].tile() as usize;
            let class = if is_ctrl_port(n.op, port) || g.node(*p).op.is_control() {
                RouteClass::Ctrl
            } else {
                RouteClass::Data
            };
            // Loop activation: a transfer from outside the loop header
            // into an entry steer (new loop configuration/state).
            let activation = entries.contains(&(i as u32)) && g.node(*p).bb != n.bb;
            let dynamic = activation
                && g.block(n.bb)
                    .loop_id
                    .map(|l| g.loop_info(l).dynamic_bounds)
                    .unwrap_or(false);
            let path = if src_tile == dst_tile {
                vec![src_tile as u16]
            } else if faults.is_empty() {
                mesh.path_tiles(src_tile, dst_tile)
            } else {
                let xy = mesh.path_tiles(src_tile, dst_tile);
                if path_is_clean(mesh, &xy, faults)
                    || crate::cost::is_cluster_internal(g, &header_bb, p.0 as usize, i)
                {
                    xy
                } else {
                    let yx = mesh.path_tiles_yx(src_tile, dst_tile);
                    if path_is_clean(mesh, &yx, faults) {
                        yx
                    } else {
                        return Err(PlaceError::Unroutable {
                            src_tile: src_tile as u16,
                            dst_tile: dst_tile as u16,
                        });
                    }
                }
            };
            let id = routes.len() as u32;
            routes.push(Route {
                src: p.0,
                dst: i as u32,
                dst_port: port as u8,
                class,
                activation,
                dynamic,
                path,
            });
            port_route.insert((i as u32, port as u8), id);
        }
    }
    Ok((routes, port_route))
}

/// Control-network feasibility: groups ctrl routes by source tile,
/// collects distinct destination tiles, and checks the multicast sets
/// against the CS-Benes capacity.
fn ctrl_feasibility(routes: &[Route], mesh: &Mesh) -> (bool, usize) {
    let mut casts: HashMap<usize, std::collections::BTreeSet<usize>> = HashMap::new();
    for r in routes {
        if r.class == RouteClass::Ctrl {
            let s = *r.path.first().unwrap() as usize;
            let d = *r.path.last().unwrap() as usize;
            if s != d {
                casts.entry(s).or_default().insert(d);
            }
        }
    }
    let ctrl_fanout: usize = casts.values().map(|d| d.len()).sum();
    // Control-network sizing is derived from the fabric width: four
    // internal lines per PE endpoint (64 lines on the paper's 4×4).
    let net = CsBenesNetwork::for_fabric(mesh.pe_count());
    let lines = net.lines();
    // Destinations may be shared between sources over time; the static
    // check below conservatively requires single-driver outputs, so fall
    // back to fan-out capacity when that fails (time-shared inputs).
    let cast_vec: Vec<(usize, Vec<usize>)> = casts
        .iter()
        .map(|(&s, d)| (s, d.iter().copied().collect()))
        .collect();
    let ctrl_net_fits = net.route(&cast_vec).is_ok() || ctrl_fanout <= lines;
    (ctrl_net_fits, ctrl_fanout)
}

/// Routes every node-sourced edge of the program, detouring
/// flit-carrying routes around the fault set's dead links (XY first, YX
/// fallback). Without faults routing cannot fail.
///
/// # Errors
/// Returns [`PlaceError::Unroutable`] when neither dimension order
/// between a producer/consumer tile pair avoids the dead links.
pub fn route(
    g: &Cdfg,
    places: &[Placement],
    mesh: &Mesh,
    faults: &FaultSet,
) -> Result<RoutingResult, PlaceError> {
    let (routes, port_route) = build_routes(g, places, mesh, faults)?;
    let (ctrl_net_fits, ctrl_fanout) = ctrl_feasibility(&routes, mesh);
    Ok(RoutingResult {
        routes,
        port_route,
        ctrl_net_fits,
        ctrl_fanout,
    })
}

/// Congestion-aware rip-up-and-reroute: starts from the XY route table
/// and iteratively re-chooses each multi-hop route between its two
/// dimension orders (XY / YX) to minimize quadratic link load, weighting
/// each route by the cost model's firing-frequency estimate. The pass
/// structure is deterministic (route-table order, XY on ties), so the
/// result is a pure function of the placement and the fault set.
///
/// Dead links of `faults` carry a prohibitive score surcharge and flaky
/// links are penalized by the extra stall cycles the simulator will
/// charge (`weight × link_latency × (mult − 1)`), steering traffic away
/// from degraded links when a clean alternative exists.
///
/// Returns the routing plus how many routes ended up off the XY default.
///
/// # Errors
/// Returns [`PlaceError::Unroutable`] when neither dimension order
/// between a producer/consumer tile pair avoids the dead links.
pub fn route_congestion_aware(
    g: &Cdfg,
    places: &[Placement],
    mesh: &Mesh,
    cm: &crate::cost::CostModel,
    passes: usize,
    faults: &FaultSet,
) -> Result<(RoutingResult, usize), PlaceError> {
    let have_faults = !faults.is_empty();
    let (mut routes, port_route) = build_routes(g, places, mesh, faults)?;
    let depths = crate::cost::node_depths(g);
    // Loop-unit-internal edges are combinational in the simulator (no
    // flit is ever sent): they must neither seed the load map nor be
    // rerouted, exactly as the explorer's cost model excludes them.
    let header_bb = crate::cost::header_blocks(g);
    let carries_flits = |r: &Route| -> bool {
        !crate::cost::is_cluster_internal(g, &header_bb, r.src as usize, r.dst as usize)
    };

    // Candidates: multi-hop routes that actually ride the mesh, with
    // both dimension-order paths and a traffic weight.
    struct Cand {
        route: usize,
        w: f64,
        xy: Vec<u16>,
        yx: Vec<u16>,
        use_yx: bool,
    }
    let mut cands: Vec<Cand> = Vec::new();
    for (ri, r) in routes.iter().enumerate() {
        if r.path.len() <= 2 {
            continue; // 0/1 hop: both orders identical
        }
        if r.class == RouteClass::Ctrl && !cm.ctrl_on_mesh {
            continue; // rides the dedicated network; path is irrelevant
        }
        if !carries_flits(r) {
            continue; // loop-unit internal register, never on the mesh
        }
        let (s, d) = (r.path[0] as usize, *r.path.last().unwrap() as usize);
        let w = cm.freq_weight(depths[r.src as usize].min(depths[r.dst as usize]));
        let xy = mesh.path_tiles(s, d);
        // The builder already fell back to YX when XY crossed a dead
        // link; start the rip-up from that same choice.
        let use_yx = have_faults && !path_is_clean(mesh, &xy, faults);
        cands.push(Cand {
            route: ri,
            w,
            xy,
            yx: mesh.path_tiles_yx(s, d),
            use_yx,
        });
    }

    let mut load = vec![0.0f64; mesh.link_id_space()];
    let path_links = |mesh: &Mesh, path: &[u16], f: &mut dyn FnMut(usize)| {
        for w in path.windows(2) {
            let mut done = false;
            mesh.for_each_xy_link(w[0] as usize, w[1] as usize, |l| {
                debug_assert!(!done, "adjacent tiles yield one link");
                done = true;
                f(l.0 as usize);
            });
        }
    };
    // Seed the load map from *every* mesh-riding route: single-hop
    // routes cannot change dimension order, but they still congest the
    // links the candidates are scored against — omitting them would let
    // a rip-up move traffic onto an already-saturated link it cannot
    // see.
    let mut is_cand = vec![false; routes.len()];
    for c in &cands {
        is_cand[c.route] = true;
    }
    for (ri, r) in routes.iter().enumerate() {
        if is_cand[ri] || r.path.len() < 2 {
            continue;
        }
        if r.class == RouteClass::Ctrl && !cm.ctrl_on_mesh {
            continue;
        }
        if !carries_flits(r) {
            continue;
        }
        let w = cm.freq_weight(depths[r.src as usize].min(depths[r.dst as usize]));
        path_links(mesh, &r.path, &mut |l| load[l] += w);
    }
    for c in &cands {
        let seed: &[u16] = if c.use_yx { &c.yx } else { &c.xy };
        path_links(mesh, seed, &mut |l| load[l] += c.w);
    }
    // Rip-up passes: re-choose each candidate against the current loads.
    let mut moved = 0usize;
    for _ in 0..passes.max(1) {
        moved = 0;
        for c in cands.iter_mut() {
            let w = c.w;
            let cur: &[u16] = if c.use_yx { &c.yx } else { &c.xy };
            path_links(mesh, cur, &mut |l| load[l] -= w);
            let score = |path: &[u16], load: &[f64]| -> f64 {
                let mut s = 0.0;
                path_links(mesh, path, &mut |l| {
                    let mut term = (load[l] + w) * (load[l] + w);
                    if have_faults {
                        if faults.link_dead(l) {
                            term += DEAD_LINK_PENALTY;
                        } else {
                            let m = faults.link_mult(l);
                            if m > 1 {
                                term += w * crate::cost::flaky_extra(cm.link_latency, m);
                            }
                        }
                    }
                    s += term;
                });
                s
            };
            // Ties keep XY, the bit-stable default.
            let use_yx = score(&c.yx, &load) + 1e-12 < score(&c.xy, &load);
            c.use_yx = use_yx;
            let new: &[u16] = if use_yx { &c.yx } else { &c.xy };
            path_links(mesh, new, &mut |l| load[l] += w);
            if use_yx {
                moved += 1;
            }
        }
    }
    for c in &cands {
        let chosen: &[u16] = if c.use_yx { &c.yx } else { &c.xy };
        if routes[c.route].path != *chosen {
            routes[c.route].path = chosen.to_vec();
        }
    }

    let (ctrl_net_fits, ctrl_fanout) = ctrl_feasibility(&routes, mesh);
    Ok((
        RoutingResult {
            routes,
            port_route,
            ctrl_net_fits,
            ctrl_fanout,
        },
        moved,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompileOptions;
    use crate::place::place;
    use marionette_cdfg::builder::CdfgBuilder;

    fn simple() -> Cdfg {
        let mut b = CdfgBuilder::new("t");
        let a = b.array_i32("a", 8, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let zero = b.imm(0);
        let out = b.for_range(0, 8, &[zero], |b, i, v| {
            let x = b.load(a, i);
            let c = b.gt(x, 4.into());
            let r = b.if_else(c, |b| vec![b.add(v[0], x)], |_| vec![v[0]]);
            vec![r[0]]
        });
        b.sink("s", out[0]);
        b.finish()
    }

    #[test]
    fn routes_cover_all_node_edges() {
        let g = simple();
        let opts = CompileOptions::marionette_4x4();
        let pl = place(&g, &opts, &FaultSet::none()).unwrap();
        let mesh = Mesh::new(4, 4);
        let r = route(&g, &pl.places, &mesh, &FaultSet::none()).unwrap();
        let expected: usize = g
            .nodes
            .iter()
            .map(|n| {
                n.inputs
                    .iter()
                    .filter(|s| matches!(s, PortSrc::Node(_)))
                    .count()
            })
            .sum();
        assert_eq!(r.routes.len(), expected);
        for (ri, route) in r.routes.iter().enumerate() {
            assert!(!route.path.is_empty(), "route {ri} has empty path");
        }
    }

    #[test]
    fn predicate_edges_are_ctrl_class() {
        let g = simple();
        let opts = CompileOptions::marionette_4x4();
        let pl = place(&g, &opts, &FaultSet::none()).unwrap();
        let mesh = Mesh::new(4, 4);
        let r = route(&g, &pl.places, &mesh, &FaultSet::none()).unwrap();
        let has_ctrl = r.routes.iter().any(|x| x.class == RouteClass::Ctrl);
        let has_data = r.routes.iter().any(|x| x.class == RouteClass::Data);
        assert!(has_ctrl && has_data);
        // steers' port 0 is always ctrl
        for route in &r.routes {
            let n = &g.nodes[route.dst as usize];
            if matches!(n.op, Op::Steer { .. }) && route.dst_port == 0 {
                assert_eq!(route.class, RouteClass::Ctrl);
            }
        }
    }

    #[test]
    fn activation_edges_marked() {
        let g = simple();
        let opts = CompileOptions::marionette_4x4();
        let pl = place(&g, &opts, &FaultSet::none()).unwrap();
        let mesh = Mesh::new(4, 4);
        let r = route(&g, &pl.places, &mesh, &FaultSet::none()).unwrap();
        assert!(r.routes.iter().any(|x| x.activation), "carry init edges");
    }

    /// A graph with a single mesh route, pinned to a diagonal tile pair
    /// so its XY and YX paths start over different links.
    fn pinned_diagonal() -> (Cdfg, Vec<Placement>) {
        let mut b = CdfgBuilder::new("d");
        let x = b.imm(1);
        let y = b.add(x, x);
        b.sink("r", y);
        let g = b.finish();
        let opts = CompileOptions::marionette_4x4();
        let pl = place(&g, &opts, &FaultSet::none()).unwrap();
        let mut places = pl.places;
        for (i, n) in g.nodes.iter().enumerate() {
            if matches!(n.op, Op::Bin(_)) {
                // Diagonal from the tile-0 Sink anchor: XY goes west
                // first (5 -> 4 -> 0), YX goes north first (5 -> 1 -> 0).
                places[i] = Placement::Pe { pe: 5 };
            }
        }
        (g, places)
    }

    #[test]
    fn dead_link_forces_detour() {
        let (g, places) = pinned_diagonal();
        let mesh = Mesh::new(4, 4);
        let mut faults = FaultSet::new(4, 4);
        faults
            .add(marionette_sim::FaultSpec::DeadLink {
                from: (1, 1),
                to: (1, 0),
            })
            .unwrap();
        let rr = route(&g, &places, &mesh, &faults).unwrap();
        for q in &rr.routes {
            assert!(
                path_is_clean(&mesh, &q.path, &faults),
                "route {} -> {} crosses the dead link",
                q.src,
                q.dst
            );
        }
        // The add -> sink route must have taken the YX detour.
        let detoured = rr
            .routes
            .iter()
            .find(|q| q.path.first() == Some(&5))
            .unwrap();
        assert_eq!(detoured.path, vec![5, 1, 0]);
    }

    #[test]
    fn fully_blocked_pair_is_unroutable() {
        let (g, places) = pinned_diagonal();
        let mesh = Mesh::new(4, 4);
        let mut faults = FaultSet::new(4, 4);
        for to in [(1, 0), (0, 1)] {
            faults
                .add(marionette_sim::FaultSpec::DeadLink { from: (1, 1), to })
                .unwrap();
        }
        let err = route(&g, &places, &mesh, &faults).unwrap_err();
        assert!(
            matches!(
                err,
                PlaceError::Unroutable {
                    src_tile: 5,
                    dst_tile: 0
                }
            ),
            "{err}"
        );
    }
}
