//! The mapping explorer: simulated-annealing search over placements.
//!
//! The legacy pipeline places once (greedy, producer-affinity) and
//! routes once (dimension-ordered XY). That leaves mapping quality on
//! the table: hop counts, link congestion and per-group load balance all
//! depend on *which* tile of a group's region each operator lands on,
//! and the greedy pass never revisits a decision. This module implements
//! the iterative search the `SearchBudget` option turns on:
//!
//! 1. start from the legal greedy placement of [`crate::place::place`];
//! 2. anneal over three neighborhoods — **relocate** (one operator to
//!    another tile of its group's region), **swap** (two same-lane
//!    operators of one group), and **cluster move** (exchange the
//!    regions of two equal-sized groups wholesale) — scoring candidates
//!    with the [`CostModel`] (hop latency + quadratic link congestion +
//!    group window pressure + control fan-out);
//! 3. keep the best-seen placement; independent restart chains
//!    (`SearchBudget::Anneal { restarts, .. }`) are combined by
//!    [`select_best`], deterministically.
//!
//! Caps derived from the greedy mapping keep every candidate legal: a
//! tile never exceeds the ceiling of its group's initial densest-tile
//! load (so the implied initiation interval cannot regress), regions are
//! never resized, and fixed operators (Start/Sink anchors, memory stream
//! units) never move. Any placement this module emits therefore
//! simulates to bit-identical *outputs* — only timing changes.
//!
//! The search is a pure function of `(program, options)`: chains use the
//! deterministic `rand` shim seeded from `SearchBudget::Anneal::base_seed`,
//! and ties between chains resolve to the lowest seed. Fanning chains
//! out across threads (see `marionette::runner`) cannot change the
//! result.

use crate::cost::{node_depths, CostModel, MappingCost};
use crate::options::{CompileOptions, SearchBudget};
use crate::place::{node_weight, place, takes_pe_slot, PlaceError, PlacementResult};
use marionette_cdfg::graph::{Cdfg, PortSrc};
use marionette_cdfg::Op;
use marionette_isa::Placement;
use marionette_net::Mesh;
use marionette_sim::FaultSet;
use rand::{Rng, SeedableRng, StdRng};

/// Cost surcharge for an edge whose endpoints have *no* fault-free
/// dimension-ordered route (neither XY nor YX) — large enough that the
/// annealer always prefers any routable alternative, small enough not to
/// overflow the cost arithmetic.
const UNROUTABLE_PENALTY: f64 = 1e6;

/// Which issue lane a movable operator occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    /// FU issue slot ([`Placement::Pe`]).
    Data,
    /// Control flow part / network switch slot.
    Ctrl,
}

/// One movable operator.
#[derive(Clone, Copy, Debug)]
struct Movable {
    node: u32,
    group: u16,
    lane: Lane,
    weight: f64,
}

/// A mesh-riding dataflow edge with its cost weights.
#[derive(Clone, Copy, Debug)]
struct XEdge {
    a: u32,
    b: u32,
    /// Frequency-weighted hop-latency weight (0 for edges that do not
    /// ride the mesh under the cost model's transport assumption).
    w_lat: f64,
    /// Frequency weight on the congestion term.
    w_cong: f64,
    /// Control fan-out weight (dedicated-network models only).
    w_fan: f64,
}

/// Summary of one finished search, attached to the `CompileReport`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchReport {
    /// Seed of the winning chain.
    pub seed: u64,
    /// Moves per chain.
    pub moves: u32,
    /// Restart chains run.
    pub restarts: u32,
    /// Scalar cost of the greedy starting mapping.
    pub greedy_total: f64,
    /// Scalar cost of the winning mapping.
    pub best_total: f64,
    /// Cost breakdown of the winning mapping.
    pub best_cost: MappingCost,
    /// Moves proposed across the winning chain.
    pub attempted: u32,
    /// Moves accepted across the winning chain.
    pub accepted: u32,
    /// Multi-hop routes the rip-up router moved off the XY default
    /// (filled in by the pipeline after routing).
    pub rerouted: usize,
}

/// Outcome of one annealing chain.
#[derive(Clone, Debug)]
pub struct ExploreResult {
    /// The best placement the chain saw (greedy if nothing improved).
    pub placement: PlacementResult,
    /// Its cost breakdown (recomputed from scratch, so chains compare
    /// exactly).
    pub cost: MappingCost,
    /// Its scalar cost under the chain's cost model.
    pub total: f64,
    /// Chain statistics.
    pub report: SearchReport,
}

/// Picks the winner among restart chains: strictly lowest total, with
/// ties resolved to the earliest chain (lowest seed). Deterministic for
/// any execution order of the chains.
///
/// # Panics
/// Panics on an empty slice.
pub fn select_best(results: Vec<ExploreResult>) -> ExploreResult {
    let mut best: Option<ExploreResult> = None;
    for r in results {
        let better = match &best {
            None => true,
            Some(b) => r.total < b.total - 1e-9,
        };
        if better {
            best = Some(r);
        }
    }
    best.expect("at least one chain")
}

/// Runs the full search budget of `opts` serially; `Ok(None)` when the
/// budget is [`SearchBudget::Off`]. The greedy seed avoids the dead PEs
/// of `faults` ([`place`]) and every chain's cost function penalizes
/// edges that must cross flaky links (by the simulator's extra stall
/// cycles) or have no fault-free dimension-ordered route at all.
///
/// # Errors
/// Returns [`PlaceError`] when the greedy seed placement cannot fit on
/// the live tiles.
pub fn explore(
    g: &Cdfg,
    opts: &CompileOptions,
    cm: &CostModel,
    faults: &FaultSet,
) -> Result<Option<ExploreResult>, PlaceError> {
    let seeds = opts.search.chain_seeds();
    if seeds.is_empty() {
        return Ok(None);
    }
    // The greedy seed placement is deterministic: compute it once and
    // share it across the restart chains.
    let pl = place(g, opts, faults)?;
    let mut results = Vec::with_capacity(seeds.len());
    for s in seeds {
        results.push(explore_chain_from(g, opts, cm, s, pl.clone(), faults));
    }
    Ok(Some(select_best(results)))
}

/// Cost of the greedy (one-shot) mapping under `cm` — the baseline the
/// explorer's improvement is measured against.
///
/// # Errors
/// Returns [`PlaceError`] when the program cannot fit on the fabric.
pub fn greedy_cost(
    g: &Cdfg,
    opts: &CompileOptions,
    cm: &CostModel,
) -> Result<MappingCost, PlaceError> {
    let none = FaultSet::none();
    let pl = place(g, opts, &none)?;
    let ev = Evaluator::new(g, opts, cm, &pl, &none);
    Ok(ev.cost())
}

/// Runs one annealing chain with RNG seed `seed` (see [`explore`] for
/// the fault semantics).
///
/// # Errors
/// Returns [`PlaceError`] when the greedy seed placement cannot fit on
/// the live tiles.
pub fn explore_chain(
    g: &Cdfg,
    opts: &CompileOptions,
    cm: &CostModel,
    seed: u64,
    faults: &FaultSet,
) -> Result<ExploreResult, PlaceError> {
    let pl = place(g, opts, faults)?;
    Ok(explore_chain_from(g, opts, cm, seed, pl, faults))
}

/// One annealing chain starting from a precomputed greedy placement.
fn explore_chain_from(
    g: &Cdfg,
    opts: &CompileOptions,
    cm: &CostModel,
    seed: u64,
    pl: PlacementResult,
    faults: &FaultSet,
) -> ExploreResult {
    let moves = match opts.search {
        SearchBudget::Off => 0,
        SearchBudget::Anneal { moves, .. } => moves,
    };
    let mut ev = Evaluator::new(g, opts, cm, &pl, faults);
    let greedy_total = ev.total();
    let mut report = SearchReport {
        seed,
        moves,
        restarts: match opts.search {
            SearchBudget::Off => 0,
            SearchBudget::Anneal { restarts, .. } => restarts,
        },
        greedy_total,
        ..Default::default()
    };

    if ev.movables.is_empty() || moves == 0 {
        report.best_total = greedy_total;
        report.best_cost = ev.cost();
        return ExploreResult {
            placement: pl,
            cost: ev.cost(),
            total: greedy_total,
            report,
        };
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = (greedy_total * 0.02).max(1.0);
    let t_end = t0 * 1e-3;
    let alpha = (t_end / t0).powf(1.0 / f64::from(moves.max(1)));
    let mut temp = t0;

    let mut best_total = greedy_total;
    let mut best_tiles = ev.tiles.clone();
    let mut best_regions = ev.regions.clone();

    for it in 0..moves {
        // Periodic from-scratch refresh bounds floating-point drift from
        // incremental add/remove cycles.
        if it % 256 == 255 {
            ev.recompute();
        }
        let before = ev.total();
        let applied = match rng.gen_range(0u32..100) {
            0..=44 => ev.try_relocate(&mut rng),
            45..=89 => ev.try_swap(&mut rng),
            _ => ev.try_cluster_swap(&mut rng),
        };
        report.attempted += 1;
        let Some(undo) = applied else {
            temp *= alpha;
            continue;
        };
        let delta = ev.total() - before;
        let accept = delta <= 0.0 || rng.gen_range(0.0f64..1.0) < (-delta / temp).exp();
        if accept {
            report.accepted += 1;
            if ev.total() < best_total - 1e-9 {
                best_total = ev.total();
                best_tiles.clone_from(&ev.tiles);
                best_regions.clone_from(&ev.regions);
            }
        } else {
            ev.apply_undo(undo);
        }
        temp *= alpha;
    }

    // Rebuild the winning placement and re-score it from scratch so
    // totals compare exactly across chains.
    ev.restore(&best_tiles, &best_regions);
    ev.recompute();
    let cost = ev.cost();
    let total = ev.total();
    report.best_total = total;
    report.best_cost = cost;
    let placement = ev.to_placement(&pl);
    ExploreResult {
        placement,
        cost,
        total,
        report,
    }
}

/// Route facts of one `(source, destination)` tile pair, as the cost
/// model reads them. They depend on the pair alone, so each is worked
/// out once per chain and every later move reuses it.
#[derive(Clone, Copy, Debug, Default)]
struct PairPath {
    /// Offset of the pair's XY directed links in [`PairTable::links`];
    /// there are `hops` of them.
    link_start: u32,
    /// Offset of the pair's flaky-link extras in [`PairTable::extras`].
    extra_start: u32,
    /// Manhattan distance, which is also the XY link count.
    hops: u16,
    /// Flaky links on the XY route (each a [`crate::cost::flaky_extra`]).
    extra_len: u16,
    /// Neither the XY nor the YX route is fault-free.
    unroutable: bool,
    filled: bool,
}

impl PairPath {
    /// Whether the pair carries any fault surcharge at all.
    fn penalized(&self) -> bool {
        self.extra_len > 0 || self.unroutable
    }
}

/// Per-tile-pair route table, filled lazily: the hops, XY link sequence
/// (CSR into `links`) and fault surcharges the annealer would otherwise
/// recompute by walking the mesh for every incident edge of every move.
struct PairTable<'a> {
    mesh: Mesh,
    faults: &'a FaultSet,
    link_latency: f64,
    /// `paths[src * tiles + dst]`.
    paths: Vec<PairPath>,
    links: Vec<u32>,
    extras: Vec<f64>,
}

impl<'a> PairTable<'a> {
    fn new(mesh: Mesh, faults: &'a FaultSet, link_latency: f64) -> Self {
        let n = mesh.pe_count();
        PairTable {
            mesh,
            faults,
            link_latency,
            paths: vec![PairPath::default(); n * n],
            links: Vec::new(),
            extras: Vec::new(),
        }
    }

    #[inline]
    fn get(&mut self, ta: usize, tb: usize) -> PairPath {
        let p = self.paths[ta * self.mesh.pe_count() + tb];
        if p.filled {
            p
        } else {
            self.fill(ta, tb)
        }
    }

    #[cold]
    fn fill(&mut self, ta: usize, tb: usize) -> PairPath {
        let (mesh, faults, link_latency) = (self.mesh, self.faults, self.link_latency);
        let (link_start, extra_start) = (self.links.len(), self.extras.len());
        let (links, extras) = (&mut self.links, &mut self.extras);
        let mut xy_dead = false;
        mesh.for_each_xy_link(ta, tb, |l| {
            links.push(l.0);
            let lid = l.0 as usize;
            if faults.link_dead(lid) {
                xy_dead = true;
            } else {
                let m = faults.link_mult(lid);
                if m > 1 {
                    extras.push(crate::cost::flaky_extra(link_latency, m));
                }
            }
        });
        let mut yx_dead = false;
        if xy_dead {
            mesh.for_each_yx_link(ta, tb, |l| yx_dead |= faults.link_dead(l.0 as usize));
        }
        let p = PairPath {
            link_start: link_start as u32,
            extra_start: extra_start as u32,
            hops: (self.links.len() - link_start) as u16,
            extra_len: (self.extras.len() - extra_start) as u16,
            unroutable: yx_dead,
            filled: true,
        };
        self.paths[ta * mesh.pe_count() + tb] = p;
        p
    }

    fn links(&self, p: PairPath) -> &[u32] {
        let s = p.link_start as usize;
        &self.links[s..s + usize::from(p.hops)]
    }

    /// Deterministic fault surcharge of an edge with congestion weight
    /// `w_cong` over pair `p`: the simulator's extra flaky-link stall
    /// cycles along the XY route, summed link by link, plus
    /// [`UNROUTABLE_PENALTY`] when no dimension order avoids the dead
    /// links (the rip-up router would fail outright).
    fn penalty(&self, p: PairPath, w_cong: f64) -> f64 {
        let s = p.extra_start as usize;
        let mut pen = 0.0;
        for &x in &self.extras[s..s + usize::from(p.extra_len)] {
            pen += w_cong * x;
        }
        if p.unroutable {
            pen += UNROUTABLE_PENALTY;
        }
        pen
    }
}

/// An undoable move.
enum Undo {
    Relocate { movable: usize, old_pe: u16 },
    Swap { m1: usize, m2: usize },
    ClusterSwap { ga: usize, gb: usize },
}

/// Incremental cost evaluator over a candidate placement.
struct Evaluator<'a> {
    cm: &'a CostModel,
    /// Route facts per tile pair under the injected faults.
    pairs: PairTable<'a>,
    /// Current tile per node (for fixed nodes: their fixed tile).
    tiles: Vec<u16>,
    /// Movable operators.
    movables: Vec<Movable>,
    /// Region (allowed tiles) per group, after any cluster swaps.
    regions: Vec<Vec<u16>>,
    /// Movable ids per `(group, lane)` bucket: `bucket[group*2 + lane]`.
    buckets: Vec<Vec<u32>>,
    /// Groups eligible for cluster swaps, as `(ga, gb)` pairs.
    cluster_pairs: Vec<(usize, usize)>,
    /// Per-group per-tile issue load, `[group][pe]`, data lane.
    dload: Vec<Vec<f64>>,
    /// Per-group per-tile issue load, ctrl lane.
    cload: Vec<Vec<f64>>,
    /// Load ceiling per `(group, lane)` (`cap[group*2 + lane]`).
    caps: Vec<f64>,
    /// Mesh-riding edges.
    edges: Vec<XEdge>,
    /// CSR: edge ids incident to each node.
    inc_base: Vec<u32>,
    inc_edges: Vec<u32>,
    /// Per-directed-link congestion load (XY paths).
    link_load: Vec<f64>,
    // running cost terms
    lat_sum: f64,
    cong_sumsq: f64,
    fan_sum: f64,
    pressure_sum: f64,
    /// Per-group current max data-lane load (pressure contribution).
    group_peak: Vec<f64>,
    /// Scratch for dedup of incident edges on multi-node moves.
    edge_mark: Vec<u32>,
    edge_epoch: u32,
    scratch_edges: Vec<u32>,
    /// Tile translation of a cluster swap: identity outside one.
    xlate: Vec<u16>,
    /// Scratch `(node, new tile)` list of a cluster swap.
    scratch_moves: Vec<(u32, u16)>,
}

impl<'a> Evaluator<'a> {
    fn new(
        g: &'a Cdfg,
        opts: &CompileOptions,
        cm: &'a CostModel,
        pl: &PlacementResult,
        faults: &'a FaultSet,
    ) -> Self {
        let mesh = Mesh::new(opts.rows, opts.cols);
        let npes = opts.pe_count();
        let ngroups = pl.groups.len();
        let depths = node_depths(g);

        let tiles: Vec<u16> = pl.places.iter().map(|p| p.tile()).collect();

        // Movable operators: slot-takers and region-placed control ops.
        // Start/Sink anchors and memory stream units stay fixed.
        let mut movables = Vec::new();
        for (i, n) in g.nodes.iter().enumerate() {
            let lane = match pl.places[i] {
                Placement::Pe { .. } => Lane::Data,
                Placement::CtrlPlane { .. } | Placement::NetSwitch { .. } => {
                    if matches!(n.op, Op::Start | Op::Sink) {
                        continue;
                    }
                    if takes_pe_slot(n.op, opts) {
                        // PeSlots control placement: already covered by
                        // the Pe arm; anything else here is fixed.
                        continue;
                    }
                    Lane::Ctrl
                }
                Placement::MemUnit { .. } => continue,
            };
            movables.push(Movable {
                node: i as u32,
                group: pl.node_group[i],
                lane,
                weight: node_weight(g, i),
            });
        }

        // Regions: a group's assigned PEs, falling back to the whole
        // fabric exactly like greedy node assignment does — minus any
        // dead tiles, so moves never relocate onto one.
        let live = |pe: &u16| -> bool { !faults.pe_dead(*pe as usize) };
        let fallback: Vec<u16> = match opts.split {
            Some(s) => (0..s.systolic_pes as u16).filter(live).collect(),
            None => (0..npes as u16).filter(live).collect(),
        };
        let regions: Vec<Vec<u16>> = pl
            .groups
            .iter()
            .map(|gp| {
                if gp.pes.is_empty() {
                    fallback.clone()
                } else {
                    gp.pes.clone()
                }
            })
            .collect();

        // Buckets and loads.
        let mut buckets = vec![Vec::new(); ngroups * 2];
        let mut dload = vec![vec![0.0; npes]; ngroups];
        let mut cload = vec![vec![0.0; npes]; ngroups];
        for (mi, m) in movables.iter().enumerate() {
            let gi = m.group as usize;
            buckets[gi * 2 + lane_idx(m.lane)].push(mi as u32);
            let pe = tiles[m.node as usize] as usize;
            match m.lane {
                Lane::Data => dload[gi][pe] += m.weight,
                Lane::Ctrl => cload[gi][pe] += m.weight,
            }
        }
        let mut caps = vec![0.0; ngroups * 2];
        for gi in 0..ngroups {
            let dmax = dload[gi].iter().cloned().fold(0.0, f64::max);
            let cmax = cload[gi].iter().cloned().fold(0.0, f64::max);
            // Ceiling of the densest tile: the implied initiation
            // interval cannot regress below the greedy mapping's.
            caps[gi * 2] = if dmax > 0.0 { dmax.ceil() } else { 0.0 };
            caps[gi * 2 + 1] = if cmax > 0.0 { cmax.ceil() } else { 0.0 };
        }

        // Cluster-swap pairs: equal-sized, disjoint regions with movable
        // occupants on both sides.
        let mut cluster_pairs = Vec::new();
        for ga in 0..ngroups {
            for gb in ga + 1..ngroups {
                let (ra, rb) = (&regions[ga], &regions[gb]);
                if ra.is_empty() || ra.len() != rb.len() {
                    continue;
                }
                if ra.iter().any(|t| rb.contains(t)) {
                    continue; // shared/time-multiplexed regions
                }
                let occupied =
                    |gi: usize| !buckets[gi * 2].is_empty() || !buckets[gi * 2 + 1].is_empty();
                if occupied(ga) && occupied(gb) {
                    cluster_pairs.push((ga, gb));
                }
            }
        }

        // Header clusters: same-header-bb edges are combinational inside
        // one loop unit (see `Data::emit` in the simulator's data plane)
        // and never touch the network, so they carry no mapping cost.
        let header_bb = crate::cost::header_blocks(g);

        // Edge extraction mirrors `route::route`'s classification.
        let mut edges = Vec::new();
        let mut incident: Vec<Vec<u32>> = vec![Vec::new(); g.nodes.len()];
        for (i, n) in g.nodes.iter().enumerate() {
            for (port, src) in n.inputs.iter().enumerate() {
                let PortSrc::Node(p) = src else { continue };
                let pi = p.0 as usize;
                if crate::cost::is_cluster_internal(g, &header_bb, pi, i) {
                    continue; // loop-unit internal register
                }
                let is_ctrl = crate::route::is_ctrl_port(n.op, port) || g.nodes[pi].op.is_control();
                let freq = cm.freq_weight(depths[pi].min(depths[i]));
                let (w_lat, w_cong, w_fan) = if is_ctrl && !cm.ctrl_on_mesh {
                    (0.0, 0.0, 1.0)
                } else {
                    (cm.link_latency * freq, freq, 0.0)
                };
                let ei = edges.len() as u32;
                edges.push(XEdge {
                    a: p.0,
                    b: i as u32,
                    w_lat,
                    w_cong,
                    w_fan,
                });
                incident[pi].push(ei);
                incident[i].push(ei);
            }
        }
        let mut inc_base = Vec::with_capacity(g.nodes.len() + 1);
        let mut inc_edges = Vec::with_capacity(edges.len() * 2);
        for l in &incident {
            inc_base.push(inc_edges.len() as u32);
            inc_edges.extend_from_slice(l);
        }
        inc_base.push(inc_edges.len() as u32);

        let mut ev = Evaluator {
            cm,
            pairs: PairTable::new(mesh, faults, cm.link_latency),
            tiles,
            movables,
            regions,
            buckets,
            cluster_pairs,
            dload,
            cload,
            caps,
            edges,
            inc_base,
            inc_edges,
            link_load: vec![0.0; mesh.link_id_space()],
            lat_sum: 0.0,
            cong_sumsq: 0.0,
            fan_sum: 0.0,
            pressure_sum: 0.0,
            group_peak: vec![0.0; ngroups],
            edge_mark: Vec::new(),
            edge_epoch: 0,
            scratch_edges: Vec::new(),
            xlate: (0..mesh.pe_count() as u16).collect(),
            scratch_moves: Vec::new(),
        };
        ev.edge_mark = vec![0; ev.edges.len()];
        ev.recompute();
        ev
    }

    fn cost(&self) -> MappingCost {
        MappingCost {
            latency: self.lat_sum,
            congestion: self.cong_sumsq,
            pressure: self.pressure_sum,
            fanout: self.fan_sum,
        }
    }

    fn total(&self) -> f64 {
        self.cost().total(self.cm)
    }

    /// Recomputes every running term from scratch.
    fn recompute(&mut self) {
        self.link_load.iter_mut().for_each(|l| *l = 0.0);
        self.lat_sum = 0.0;
        self.cong_sumsq = 0.0;
        self.fan_sum = 0.0;
        for ei in 0..self.edges.len() {
            self.add_edge(ei as u32);
        }
        // add_edge maintained sums incrementally over zeroed loads; the
        // quadratic term must be rebuilt exactly:
        self.cong_sumsq = self.link_load.iter().map(|l| l * l).sum();
        for gi in 0..self.group_peak.len() {
            self.group_peak[gi] = self.dload[gi].iter().cloned().fold(0.0, f64::max);
        }
        self.pressure_sum = self.group_peak.iter().sum();
    }

    // `add_edge` and `remove_edge` must keep this floating-point order —
    // hops term, then the fault surcharge summed link by link, then
    // congestion link by link — which the searched-mapping pins
    // (`crates/core/tests/mapping_search.rs`) hold bit for bit.
    fn add_edge(&mut self, ei: u32) {
        let e = self.edges[ei as usize];
        let (ta, tb) = (
            self.tiles[e.a as usize] as usize,
            self.tiles[e.b as usize] as usize,
        );
        if ta == tb {
            return;
        }
        if e.w_fan > 0.0 {
            self.fan_sum += e.w_fan;
        }
        if e.w_cong == 0.0 && e.w_lat == 0.0 {
            return;
        }
        let p = self.pairs.get(ta, tb);
        self.lat_sum += e.w_lat * f64::from(p.hops);
        if p.penalized() {
            self.lat_sum += self.pairs.penalty(p, e.w_cong);
        }
        let w = e.w_cong;
        if w > 0.0 {
            for &l in self.pairs.links(p) {
                let v = &mut self.link_load[l as usize];
                self.cong_sumsq += (*v + w) * (*v + w) - *v * *v;
                *v += w;
            }
        }
    }

    fn remove_edge(&mut self, ei: u32) {
        let e = self.edges[ei as usize];
        let (ta, tb) = (
            self.tiles[e.a as usize] as usize,
            self.tiles[e.b as usize] as usize,
        );
        if ta == tb {
            return;
        }
        if e.w_fan > 0.0 {
            self.fan_sum -= e.w_fan;
        }
        if e.w_cong == 0.0 && e.w_lat == 0.0 {
            return;
        }
        let p = self.pairs.get(ta, tb);
        self.lat_sum -= e.w_lat * f64::from(p.hops);
        if p.penalized() {
            self.lat_sum -= self.pairs.penalty(p, e.w_cong);
        }
        let w = e.w_cong;
        if w > 0.0 {
            for &l in self.pairs.links(p) {
                let v = &mut self.link_load[l as usize];
                self.cong_sumsq += (*v - w) * (*v - w) - *v * *v;
                *v -= w;
            }
        }
    }

    /// Collects the deduplicated incident-edge set of the nodes of
    /// `moves` into `scratch_edges`.
    fn collect_incident(&mut self, moves: &[(u32, u16)]) {
        self.edge_epoch += 1;
        self.scratch_edges.clear();
        for &(n, _) in moves {
            let (s, e) = (
                self.inc_base[n as usize] as usize,
                self.inc_base[n as usize + 1] as usize,
            );
            for &ei in &self.inc_edges[s..e] {
                if self.edge_mark[ei as usize] != self.edge_epoch {
                    self.edge_mark[ei as usize] = self.edge_epoch;
                    self.scratch_edges.push(ei);
                }
            }
        }
    }

    /// Applies `moves` (`(node, new tile)`), keeping edge terms coherent.
    fn retile(&mut self, moves: &[(u32, u16)]) {
        self.collect_incident(moves);
        let touched = std::mem::take(&mut self.scratch_edges);
        for &ei in &touched {
            self.remove_edge(ei);
        }
        for &(n, t) in moves {
            self.tiles[n as usize] = t;
        }
        for &ei in &touched {
            self.add_edge(ei);
        }
        self.scratch_edges = touched;
    }

    fn load_of(&mut self, gi: usize, lane: Lane) -> &mut Vec<f64> {
        match lane {
            Lane::Data => &mut self.dload[gi],
            Lane::Ctrl => &mut self.cload[gi],
        }
    }

    /// Updates the pressure term after group `gi`'s data loads changed.
    fn refresh_peak(&mut self, gi: usize) {
        let peak = self.dload[gi].iter().cloned().fold(0.0, f64::max);
        self.pressure_sum += peak - self.group_peak[gi];
        self.group_peak[gi] = peak;
    }

    /// Moves movable `mi` to `pe` unconditionally (caller checked caps).
    fn do_relocate(&mut self, mi: usize, pe: u16) {
        let m = self.movables[mi];
        let gi = m.group as usize;
        let old = self.tiles[m.node as usize];
        let loads = self.load_of(gi, m.lane);
        loads[old as usize] -= m.weight;
        loads[pe as usize] += m.weight;
        if m.lane == Lane::Data {
            self.refresh_peak(gi);
        }
        self.retile(&[(m.node, pe)]);
    }

    fn try_relocate(&mut self, rng: &mut StdRng) -> Option<Undo> {
        let mi = rng.gen_range(0usize..self.movables.len());
        let m = self.movables[mi];
        let gi = m.group as usize;
        let region = &self.regions[gi];
        if region.len() < 2 {
            return None;
        }
        let pe = region[rng.gen_range(0usize..region.len())];
        let old = self.tiles[m.node as usize];
        if pe == old {
            return None;
        }
        let cap = self.caps[gi * 2 + lane_idx(m.lane)];
        let loads = self.load_of(gi, m.lane);
        if loads[pe as usize] + m.weight > cap + 1e-9 {
            return None;
        }
        self.do_relocate(mi, pe);
        Some(Undo::Relocate {
            movable: mi,
            old_pe: old,
        })
    }

    fn try_swap(&mut self, rng: &mut StdRng) -> Option<Undo> {
        let mi = rng.gen_range(0usize..self.movables.len());
        let m1 = self.movables[mi];
        let gi = m1.group as usize;
        let bucket = &self.buckets[gi * 2 + lane_idx(m1.lane)];
        if bucket.len() < 2 {
            return None;
        }
        let mj = bucket[rng.gen_range(0usize..bucket.len())] as usize;
        if mj == mi {
            return None;
        }
        let m2 = self.movables[mj];
        let (t1, t2) = (self.tiles[m1.node as usize], self.tiles[m2.node as usize]);
        if t1 == t2 {
            return None;
        }
        let cap = self.caps[gi * 2 + lane_idx(m1.lane)];
        {
            let loads = self.load_of(gi, m1.lane);
            let new1 = loads[t1 as usize] - m1.weight + m2.weight;
            let new2 = loads[t2 as usize] - m2.weight + m1.weight;
            if new1 > cap + 1e-9 || new2 > cap + 1e-9 {
                return None;
            }
            loads[t1 as usize] = new1;
            loads[t2 as usize] = new2;
        }
        if m1.lane == Lane::Data {
            self.refresh_peak(gi);
        }
        self.retile(&[(m1.node, t2), (m2.node, t1)]);
        Some(Undo::Swap { m1: mi, m2: mj })
    }

    fn try_cluster_swap(&mut self, rng: &mut StdRng) -> Option<Undo> {
        if self.cluster_pairs.is_empty() {
            return None;
        }
        let (ga, gb) = self.cluster_pairs[rng.gen_range(0usize..self.cluster_pairs.len())];
        self.do_cluster_swap(ga, gb);
        Some(Undo::ClusterSwap { ga, gb })
    }

    /// Exchanges the regions of groups `ga` and `gb` position-wise,
    /// carrying every movable occupant along. Self-inverse. Cluster-swap
    /// regions are disjoint and hold distinct tiles, so the translation
    /// is a tile-indexed array and the loads permute by swaps.
    fn do_cluster_swap(&mut self, ga: usize, gb: usize) {
        let (ra, rb) = (&self.regions[ga], &self.regions[gb]);
        for (&ta, &tb) in ra.iter().zip(rb) {
            self.xlate[ta as usize] = tb;
            self.xlate[tb as usize] = ta;
        }
        let mut moves = std::mem::take(&mut self.scratch_moves);
        moves.clear();
        for gi in [ga, gb] {
            for &mi in self.buckets[gi * 2].iter().chain(&self.buckets[gi * 2 + 1]) {
                let n = self.movables[mi as usize].node;
                moves.push((n, self.xlate[self.tiles[n as usize] as usize]));
            }
        }
        self.retile(&moves);
        self.scratch_moves = moves;
        // Per-group loads move with the region, and the translation goes
        // back to the identity.
        for i in 0..self.regions[ga].len() {
            let (ta, tb) = (self.regions[ga][i] as usize, self.regions[gb][i] as usize);
            for gi in [ga, gb] {
                self.dload[gi].swap(ta, tb);
                self.cload[gi].swap(ta, tb);
            }
            self.xlate[ta] = ta as u16;
            self.xlate[tb] = tb as u16;
        }
        self.regions.swap(ga, gb);
        // Peaks are permutation-invariant; pressure unchanged.
    }

    fn apply_undo(&mut self, u: Undo) {
        match u {
            Undo::Relocate { movable, old_pe } => self.do_relocate(movable, old_pe),
            Undo::Swap { m1, m2 } => {
                let (a, b) = (self.movables[m1], self.movables[m2]);
                let gi = a.group as usize;
                let (t1, t2) = (self.tiles[a.node as usize], self.tiles[b.node as usize]);
                {
                    let loads = self.load_of(gi, a.lane);
                    loads[t1 as usize] += b.weight - a.weight;
                    loads[t2 as usize] += a.weight - b.weight;
                }
                if a.lane == Lane::Data {
                    self.refresh_peak(gi);
                }
                self.retile(&[(a.node, t2), (b.node, t1)]);
            }
            Undo::ClusterSwap { ga, gb } => self.do_cluster_swap(ga, gb),
        }
    }

    /// Restores a snapshot taken earlier in the chain.
    fn restore(&mut self, tiles: &[u16], regions: &[Vec<u16>]) {
        self.tiles.copy_from_slice(tiles);
        self.regions = regions.to_vec();
        // Rebuild loads from the restored tiles.
        for gi in 0..self.dload.len() {
            self.dload[gi].iter_mut().for_each(|v| *v = 0.0);
            self.cload[gi].iter_mut().for_each(|v| *v = 0.0);
        }
        for m in &self.movables {
            let pe = self.tiles[m.node as usize] as usize;
            match m.lane {
                Lane::Data => self.dload[m.group as usize][pe] += m.weight,
                Lane::Ctrl => self.cload[m.group as usize][pe] += m.weight,
            }
        }
    }

    /// Materializes the current tiles as a [`PlacementResult`].
    fn to_placement(&self, pl: &PlacementResult) -> PlacementResult {
        let mut out = pl.clone();
        for m in &self.movables {
            let t = self.tiles[m.node as usize];
            let p = &mut out.places[m.node as usize];
            *p = match *p {
                Placement::Pe { .. } => Placement::Pe { pe: t },
                Placement::CtrlPlane { .. } => Placement::CtrlPlane { pe: t },
                Placement::NetSwitch { .. } => Placement::NetSwitch { sw: t },
                Placement::MemUnit { .. } => unreachable!("memory units never move"),
            };
        }
        for (gi, gp) in out.groups.iter_mut().enumerate() {
            if !gp.pes.is_empty() {
                gp.pes = self.regions[gi].clone();
            }
        }
        out
    }
}

fn lane_idx(l: Lane) -> usize {
    match l {
        Lane::Data => 0,
        Lane::Ctrl => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marionette_cdfg::builder::CdfgBuilder;

    fn sample() -> Cdfg {
        let mut b = CdfgBuilder::new("t");
        let a = b.array_i32("a", 16, &[5, 3, 8, 1, 9, 2, 7, 4, 5, 3, 8, 1, 9, 2, 7, 4]);
        let o = b.array_i32("o", 16, &[]);
        b.mark_output(o);
        let zero = b.imm(0);
        let s = b.for_range(0, 16, &[zero], |b, i, v| {
            let x = b.load(a, i);
            let c = b.gt(x, 4.into());
            let r = b.if_else(c, |b| vec![b.mul(x, 2.into())], |_| vec![x]);
            b.store(o, i, r[0]);
            vec![b.add(v[0], r[0])]
        });
        b.sink("sum", s[0]);
        b.finish()
    }

    fn searched_opts() -> CompileOptions {
        let mut o = CompileOptions::marionette_4x4();
        o.search = SearchBudget::Anneal {
            moves: 300,
            restarts: 2,
            base_seed: 7,
        };
        o
    }

    #[test]
    fn chain_is_deterministic() {
        let g = sample();
        let opts = searched_opts();
        let cm = CostModel::neutral();
        let a = explore_chain(&g, &opts, &cm, 7, &FaultSet::none()).unwrap();
        let b = explore_chain(&g, &opts, &cm, 7, &FaultSet::none()).unwrap();
        assert_eq!(a.placement.places, b.placement.places);
        assert_eq!(a.total, b.total);
        assert_eq!(a.report.accepted, b.report.accepted);
    }

    #[test]
    fn search_never_worse_than_greedy() {
        let g = sample();
        let opts = searched_opts();
        let cm = CostModel::neutral();
        let best = explore(&g, &opts, &cm, &FaultSet::none()).unwrap().unwrap();
        let greedy = greedy_cost(&g, &opts, &cm).unwrap();
        assert!(
            best.total <= greedy.total(&cm) + 1e-9,
            "best {} vs greedy {}",
            best.total,
            greedy.total(&cm)
        );
    }

    #[test]
    fn explored_placement_respects_regions_and_caps() {
        let g = sample();
        let opts = searched_opts();
        let cm = CostModel::neutral();
        let best = explore(&g, &opts, &cm, &FaultSet::none()).unwrap().unwrap();
        let pl = &best.placement;
        // Data nodes stay inside their group's region.
        for (i, n) in g.nodes.iter().enumerate() {
            if let Placement::Pe { pe } = pl.places[i] {
                let grp = pl.node_group[i] as usize;
                if !pl.groups[grp].pes.is_empty() {
                    assert!(
                        pl.groups[grp].pes.contains(&pe),
                        "node {i} ({:?}) left its region",
                        n.op
                    );
                }
            }
        }
        // Densest-tile load per group never exceeds the greedy ceiling.
        let greedy = place(&g, &opts, &FaultSet::none()).unwrap();
        for gi in 0..pl.groups.len() {
            let peak = |p: &PlacementResult| -> f64 {
                let mut per_pe = std::collections::HashMap::new();
                for (i, _) in g.nodes.iter().enumerate() {
                    if let Placement::Pe { pe } = p.places[i] {
                        if p.node_group[i] as usize == gi {
                            *per_pe.entry(pe).or_insert(0.0) += node_weight(&g, i);
                        }
                    }
                }
                per_pe.values().cloned().fold(0.0, f64::max)
            };
            assert!(
                peak(pl) <= peak(&greedy).ceil() + 1e-9,
                "group {gi} over cap"
            );
        }
    }

    #[test]
    fn select_best_prefers_lowest_seed_on_ties() {
        let g = sample();
        let opts = searched_opts();
        let cm = CostModel::neutral();
        let a = explore_chain(&g, &opts, &cm, 7, &FaultSet::none()).unwrap();
        let mut b = explore_chain(&g, &opts, &cm, 8, &FaultSet::none()).unwrap();
        b.total = a.total; // force a tie
        let best = select_best(vec![a.clone(), b]);
        assert_eq!(best.report.seed, 7);
        let _ = a;
    }

    type Walk = (Vec<u32>, f64, bool);

    /// The mesh walk the pair table replaces: XY links, the flaky-link
    /// surcharge of an edge of weight `w` summed along them, and whether
    /// both XY and YX cross a dead link.
    fn walk(mesh: Mesh, faults: &FaultSet, ll: f64, ta: usize, tb: usize, w: f64) -> Walk {
        let (mut links, mut pen, mut xy_dead, mut yx_dead) = (Vec::new(), 0.0, false, false);
        mesh.for_each_xy_link(ta, tb, |l| {
            links.push(l.0);
            let lid = l.0 as usize;
            if faults.link_dead(lid) {
                xy_dead = true;
            } else if faults.link_mult(lid) > 1 {
                pen += w * crate::cost::flaky_extra(ll, faults.link_mult(lid));
            }
        });
        if xy_dead {
            mesh.for_each_yx_link(ta, tb, |l| yx_dead |= faults.link_dead(l.0 as usize));
        }
        if yx_dead {
            pen += UNROUTABLE_PENALTY;
        }
        (links, pen, yx_dead)
    }

    #[test]
    fn pair_table_matches_the_mesh_walk() {
        // Pinned dead links make unroutable pairs, pinned flaky links
        // make surcharges, and four seeded-random faults ride on top.
        let cases: [(usize, usize, &[&str]); 2] = [
            (4, 4, &["link:1,1-1,2", "link:1,1-2,1", "flaky:0,1-0,2@3"]),
            (6, 6, &["link:2,3-2,4", "link:2,3-3,3", "flaky:4,1-4,2@5"]),
        ];
        for (rows, cols, spec) in cases {
            let specs: Vec<String> = spec.iter().map(|s| s.to_string()).collect();
            let faults = FaultSet::from_cli(rows, cols, &specs, 4, 9).unwrap();
            let mesh = Mesh::new(rows, cols);
            let link_latency = 1.5;
            let mut table = PairTable::new(mesh, &faults, link_latency);
            let (mut flaky, mut unroutable) = (0, 0);
            for ta in 0..mesh.pe_count() {
                for tb in 0..mesh.pe_count() {
                    let p = table.get(ta, tb);
                    let (links, pen, dead) = walk(mesh, &faults, link_latency, ta, tb, 0.75);
                    let what = format!("{rows}x{cols} {ta}->{tb}");
                    assert_eq!(usize::from(p.hops), mesh.hops(ta, tb), "{what} hops");
                    assert_eq!(table.links(p), &links[..], "{what} links");
                    assert_eq!(
                        table.penalty(p, 0.75).to_bits(),
                        pen.to_bits(),
                        "{what} penalty"
                    );
                    assert_eq!(p.unroutable, dead, "{what} unroutable");
                    assert_eq!(p.penalized(), pen != 0.0, "{what} penalized");
                    flaky += usize::from(p.extra_len > 0);
                    unroutable += usize::from(p.unroutable);
                }
            }
            assert!(
                flaky > 0 && unroutable > 0,
                "{rows}x{cols}: faults must bite"
            );
            // A second lookup reads the filled entry.
            let links = table.links.len();
            table.get(0, mesh.pe_count() - 1);
            assert_eq!(table.links.len(), links);
        }
    }

    #[test]
    fn off_budget_explores_nothing() {
        let g = sample();
        let opts = CompileOptions::marionette_4x4();
        assert!(explore(&g, &opts, &CostModel::neutral(), &FaultSet::none())
            .unwrap()
            .is_none());
    }
}
