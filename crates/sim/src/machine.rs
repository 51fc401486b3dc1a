//! The cycle-level machine: executes a placed [`MachineProgram`] under a
//! [`TimingModel`].
//!
//! The machine is a synchronous token simulator:
//!
//! - every PE has a **data flow part** (one FU issue per cycle among its
//!   resident operators) and, on Marionette-style models, a **control
//!   flow part** issuing control operators in parallel (temporal
//!   decoupling, Fig 4);
//! - inter-tile data tokens traverse the mesh as flits, one link per
//!   cycle, one flit per directed link per cycle (contention is real);
//! - control tokens either ride the dedicated control network
//!   (fixed-path, one cycle, per-route serialization — Fig 6) or the
//!   mesh, per the timing model;
//! - configuration behaviour is modeled through group exclusivity and
//!   switch costs (CCU round trips for von Neumann machines, cheap
//!   proactive switches for non-agile Marionette) plus the per-firing
//!   configure overhead of dataflow PEs;
//! - operator firing semantics are identical to the reference
//!   interpreter's (`marionette-cdfg::interp`), including predicated
//!   (poison) execution — integration tests assert cycle-level runs
//!   produce bit-identical outputs.
//!
//! ## Engineering notes (hot loop)
//!
//! The simulator is the throughput bottleneck of the whole evaluation
//! sweep, so the core is event-driven and allocation-lean:
//!
//! - scheduled tokens live in a calendar-queue [`EventWheel`] (O(1) push
//!   and pop over a dense horizon, arena payloads, overflow bucket for
//!   the rare far-future booking) — the pre-wheel payload-carrying
//!   min-heap survives behind [`EngineKind::Heap`] as the differential
//!   reference engine;
//! - token queues are fixed-stride rings in one dense slab (`TokenQueues`),
//!   not per-port `VecDeque` allocations, and per-route hot metadata
//!   (hop link ids, destination queue/group) is flattened at
//!   construction so the flit and emit paths never chase `Route` heap
//!   pointers;
//! - sink labels are interned at construction; a sink firing is a dense
//!   `Vec` push, never a `HashMap<String, _>` probe;
//! - issue work comes from a maintained list of *active units* (units
//!   holding at least one ready candidate), walked in sorted order with a
//!   per-unit count of active-group candidates so exclusive models skip
//!   units whose whole backlog belongs to a parked group.

use crate::fault::FaultSet;
use crate::stats::{GroupStats, RunStats, UnitStats};
use crate::timing::{CtrlTransport, TimingModel};
use crate::trace::{Tracer, TrackKey};
use crate::wheel::EventWheel;
use marionette_cdfg::op::{Op, SteerRole};
use marionette_cdfg::value::Value;
use marionette_isa::{MachineProgram, OperandSrc, Placement, RouteClass};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::str::FromStr;

/// Selects the event-queue implementation driving the simulator core.
///
/// Both engines execute the identical machine model and produce
/// bit-identical [`RunResult`]s — `crates/core/tests/engine_equivalence.rs`
/// pins this on every kernel × preset, healthy and faulted. The heap is
/// kept as the differential reference; the wheel is the default and what
/// all committed benchmark snapshots gate against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Binary-heap event queue (the pre-wheel reference core).
    Heap,
    /// Calendar-queue event wheel (see [`crate::wheel`]).
    #[default]
    Wheel,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Heap => write!(f, "heap"),
            EngineKind::Wheel => write!(f, "wheel"),
        }
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "heap" => Ok(EngineKind::Heap),
            "wheel" => Ok(EngineKind::Wheel),
            other => Err(format!("unknown engine {other:?} (expected heap|wheel)")),
        }
    }
}
/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No progress is possible but tokens remain.
    Deadlock {
        /// Cycle at which the machine wedged.
        cycle: u64,
        /// Diagnostic description.
        detail: String,
    },
    /// The cycle budget was exhausted.
    CycleLimit {
        /// The exceeded budget.
        limit: u64,
    },
    /// A workload array does not exist in the program.
    UnknownArray(String),
    /// A parameter override does not exist in the program.
    UnknownParam(String),
    /// The bitstream touches a dead fabric resource from the injected
    /// [`FaultSet`] — diagnosed at machine construction, before any cycle
    /// runs, and distinguishable from a generic [`SimError::Deadlock`].
    Fault {
        /// The faulted resource, in fault-spec syntax (e.g. `pe:1,2`).
        what: String,
        /// Which part of the program touches it.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, detail } => {
                write!(f, "deadlock at cycle {cycle}: {detail}")
            }
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
            SimError::UnknownArray(a) => write!(f, "unknown workload array {a}"),
            SimError::UnknownParam(p) => write!(f, "unknown parameter {p}"),
            SimError::Fault { what, detail } => {
                write!(f, "faulted resource {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Run statistics (cycles, utilization, transport counters).
    pub stats: RunStats,
    /// Final contents of every array, by program array index.
    pub memory: Vec<Vec<Value>>,
    /// Sink collections by label.
    pub sinks: HashMap<String, Vec<Value>>,
    /// Out-of-bounds accesses observed (should be zero).
    pub oob_events: u64,
}

impl RunResult {
    /// Final contents of a named array, borrowed from the result.
    pub fn array(&self, prog: &MachineProgram, name: &str) -> Option<&[Value]> {
        prog.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| self.memory[i].as_slice())
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum SeqState {
    Fresh,
    Looping,
    Held(Value),
}

#[derive(Clone, Debug)]
enum EvKind {
    Deliver {
        node: u32,
        port: u8,
        value: Value,
        route: Option<u32>,
    },
    SpawnFlit {
        route: u32,
        value: Value,
    },
}

/// A scheduled event carrying its payload. Ordered so that
/// `BinaryHeap::pop` yields the earliest `(at, seq)` first — a single
/// min-heap replaces the old key-heap + payload-map pair, halving the
/// bookkeeping per delivered token.
#[derive(Clone, Debug)]
struct Ev {
    at: u64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Ev {}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The machine's event queue, behind the [`EngineKind`] selector. Both
/// variants yield events in identical `(at, insertion order)` total
/// order; only the data structure differs.
enum EventQueue {
    Heap { heap: BinaryHeap<Ev>, seq: u64 },
    Wheel(EventWheel<EvKind>),
}

impl EventQueue {
    fn new(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Heap => EventQueue::Heap {
                heap: BinaryHeap::new(),
                seq: 0,
            },
            EngineKind::Wheel => EventQueue::Wheel(EventWheel::new()),
        }
    }

    #[inline]
    fn push(&mut self, at: u64, kind: EvKind) {
        match self {
            EventQueue::Heap { heap, seq } => {
                let s = *seq;
                *seq += 1;
                heap.push(Ev { at, seq: s, kind });
            }
            EventQueue::Wheel(w) => w.push(at, kind),
        }
    }

    #[inline]
    fn pop_due(&mut self, now: u64) -> Option<EvKind> {
        match self {
            EventQueue::Heap { heap, .. } => {
                if heap.peek()?.at > now {
                    return None;
                }
                Some(heap.pop().expect("peeked event").kind)
            }
            EventQueue::Wheel(w) => w.pop_due(now),
        }
    }

    fn next_at(&self) -> Option<u64> {
        match self {
            EventQueue::Heap { heap, .. } => heap.peek().map(|ev| ev.at),
            EventQueue::Wheel(w) => w.next_at(),
        }
    }

    fn len(&self) -> usize {
        match self {
            EventQueue::Heap { heap, .. } => heap.len(),
            EventQueue::Wheel(w) => w.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Dense token storage: every capacity-bounded input queue is a
/// fixed-stride ring (`queue_capacity` slots) in one slab, so the hot
/// peek/pop/push paths touch two dense arrays instead of chasing a
/// per-port `VecDeque` allocation. The few loop-unit-internal register
/// queues (combinational same-cycle forwarding, *not* capacity-checked
/// by `output_ready`) keep growable `VecDeque` storage on the side.
struct TokenQueues {
    cap: usize,
    data: Vec<Value>,
    qhead: Vec<u32>,
    qlen: Vec<u32>,
    /// `spill[spill_idx[qi]]` replaces the slab ring when != `u32::MAX`.
    spill_idx: Vec<u32>,
    spill: Vec<VecDeque<Value>>,
}

impl TokenQueues {
    fn new(n: usize, cap: usize, is_spill: &[bool]) -> Self {
        let mut spill_idx = vec![u32::MAX; n];
        let mut spill = Vec::new();
        for (qi, &s) in is_spill.iter().enumerate() {
            if s {
                spill_idx[qi] = spill.len() as u32;
                spill.push(VecDeque::new());
            }
        }
        TokenQueues {
            cap,
            data: vec![Value::Unit; n * cap],
            qhead: vec![0; n],
            qlen: vec![0; n],
            spill_idx,
            spill,
        }
    }

    #[inline]
    fn len(&self, qi: usize) -> usize {
        let si = self.spill_idx[qi];
        if si != u32::MAX {
            return self.spill[si as usize].len();
        }
        self.qlen[qi] as usize
    }

    #[inline]
    fn front(&self, qi: usize) -> Option<Value> {
        let si = self.spill_idx[qi];
        if si != u32::MAX {
            return self.spill[si as usize].front().copied();
        }
        if self.qlen[qi] == 0 {
            return None;
        }
        Some(self.data[qi * self.cap + self.qhead[qi] as usize])
    }

    #[inline]
    fn push_back(&mut self, qi: usize, v: Value) {
        let si = self.spill_idx[qi];
        if si != u32::MAX {
            self.spill[si as usize].push_back(v);
            return;
        }
        let l = self.qlen[qi] as usize;
        debug_assert!(l < self.cap, "bounded queue overfilled");
        let mut pos = self.qhead[qi] as usize + l;
        if pos >= self.cap {
            pos -= self.cap;
        }
        self.data[qi * self.cap + pos] = v;
        self.qlen[qi] = (l + 1) as u32;
    }

    #[inline]
    fn pop_front(&mut self, qi: usize) -> Value {
        let si = self.spill_idx[qi];
        if si != u32::MAX {
            return self.spill[si as usize]
                .pop_front()
                .expect("pop on empty queue");
        }
        debug_assert!(self.qlen[qi] > 0, "pop on empty queue");
        let h = self.qhead[qi] as usize;
        let v = self.data[qi * self.cap + h];
        self.qhead[qi] = if h + 1 == self.cap { 0 } else { (h + 1) as u32 };
        self.qlen[qi] -= 1;
        v
    }
}

#[derive(Clone, Debug)]
struct Flit {
    route: u32,
    hop: usize,
    value: Value,
    alive: bool,
    /// Spawn order; ties between flits are always broken by serial, which
    /// reproduces the old single-vector iteration order.
    serial: u64,
    /// Earliest cycle the flit may take its next link (link latency).
    ready_at: u64,
}

/// A flit that lost link arbitration. It leaves the per-cycle traversal
/// scan entirely and waits in its link's serial-sorted queue; one waiter
/// is granted per link per cycle, and the stall cycles are accounted in
/// bulk at grant time (`grant_cycle - first_attempt`), exactly matching
/// the old one-stall-per-blocked-cycle accumulation.
#[derive(Clone, Debug)]
struct LinkWaiter {
    serial: u64,
    route: u32,
    hop: usize,
    value: Value,
    /// First cycle the flit contended for the link (the cycle it lost).
    first_attempt: u64,
}

/// A flit that reached its destination tile but found the input queue
/// full. Parked flits leave the per-cycle traversal loop entirely; their
/// stall cycles are accounted in bulk on delivery
/// (`delivery_cycle - first_attempt`), which equals the old
/// one-increment-per-blocked-cycle bookkeeping exactly.
#[derive(Clone, Debug)]
struct ParkedFlit {
    serial: u64,
    route: u32,
    value: Value,
    /// First cycle a delivery was attempted (last hop cycle + 1).
    first_attempt: u64,
}

/// Unit index space: data PEs, then control parts, then net switches,
/// then memory stream units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct UnitId(usize);

struct Machine<'p> {
    prog: &'p MachineProgram,
    tm: &'p TimingModel,
    npes: usize,
    // topology of units
    node_unit: Vec<UnitId>,
    // Flat, cache-friendly copies of the per-node metadata the hot loop
    // reads every firing (NodeConfig is large and heap-indirected).
    /// Operand selectors, flat-indexed by `port_base[node] + port`.
    src_of: Vec<OperandSrc>,
    node_group: Vec<u16>,
    node_op: Vec<Op>,
    node_place: Vec<Placement>,
    /// First unit index that is a loop unit (loop units occupy the tail
    /// of the unit index space).
    first_loop_unit: usize,
    last_fire_cycle: Vec<u64>,
    unit_free_at: Vec<u64>,
    unit_candidates: Vec<VecDeque<u32>>,
    in_candidates: Vec<bool>,
    /// Bitmap of units registered for the next issue pass: they hold at
    /// least one candidate. `unit_queued` mirrors membership of this map
    /// and `unit_work` together.
    unit_next: Vec<u64>,
    /// Bitmap of units still ahead of the cursor in the running issue
    /// pass (empty outside it).
    unit_work: Vec<u64>,
    /// Lowest unit index that may still join the running issue pass;
    /// `usize::MAX` outside it.
    issue_floor: usize,
    unit_queued: Vec<bool>,
    /// Total candidates across all units (== sum of deque lengths).
    cand_count: usize,
    /// Per-unit count of candidates whose group is the active group, plus
    /// the global total — maintained only on exclusive-group models
    /// (`track_groups`), recomputed on the rare group switch. Lets the
    /// issue pass skip units whose whole backlog is parked (a full
    /// wrong-group pass rotates the deque back to its start: a state
    /// no-op) and makes the fast-forward "any waiter outside the active
    /// group?" test O(1) (`cand_count > grp_cand_total`).
    unit_grp_cands: Vec<u32>,
    grp_cand_total: usize,
    track_groups: bool,
    /// Units holding at least one candidate of *any* group, with a
    /// membership flag (exclusive-group models only). Unlike
    /// the issue bitmaps this keeps parked-backlog units reachable: the
    /// issue pass deregisters a unit whose whole backlog belongs to a
    /// parked group (so idle cycles stop re-walking it), and the group
    /// switch re-registers the new group's units from this list.
    /// Entries whose deque drained are compacted lazily on the rare
    /// switch scan, keeping mark/pop O(1).
    cand_units: Vec<u32>,
    in_cand_units: Vec<bool>,
    // queues
    port_base: Vec<usize>,
    queues: TokenQueues,
    /// Tokens emitted but not yet delivered (local/control-network), per
    /// queue: capacity checks count them so deliveries never find a full
    /// queue and per-edge FIFO order is preserved.
    reserved: Vec<usize>,
    blocked_on_queue: Vec<Vec<u32>>,
    /// Scratch buffer circulated through the blocked-list drains so the
    /// per-queue/per-route vecs keep their capacity across block/unblock
    /// cycles (a plain `mem::take` would re-allocate on every re-block).
    unblock_scratch: Vec<u32>,
    // routing: consumer links in CSR layout (`cons_base[n]..cons_base[n+1]`
    // indexes the flat `cons_*` arrays), so emission and the output
    // capacity check walk plain parallel arrays — no enum dispatch, no
    // recomputed queue indices.
    cons_base: Vec<u32>,
    /// Destination node per consumer link.
    cons_dst: Vec<u32>,
    /// Destination port per consumer link.
    cons_port: Vec<u8>,
    /// Destination input-queue index per consumer link.
    cons_qi: Vec<u32>,
    /// Route id per consumer link (`u32::MAX` = same-tile local edge).
    cons_route: Vec<u32>,
    /// Loop-unit-internal register edge: combinational same-cycle
    /// forwarding, exempt from capacity checks.
    cons_internal: Vec<bool>,
    // Flat per-route hot metadata (the flit/emit paths never touch
    // `prog.routes` — `Route.path` is heap-indirected and cold).
    /// Destination node per route.
    route_dst: Vec<u32>,
    /// Destination input-queue index per route (`qidx(dst, dst_port)`).
    route_dst_qi: Vec<u32>,
    /// Destination node's group per route.
    route_dst_group: Vec<u16>,
    /// Mesh path length (tile count) per route.
    route_hops: Vec<u32>,
    /// CSR base into `route_hop_link` per route.
    route_hop_base: Vec<u32>,
    /// Precomputed directed-link id for every hop of every route.
    route_hop_link: Vec<u32>,
    /// Activation/dynamic-bound latency surcharge per route.
    route_extra: Vec<u64>,
    /// Whether the route carries control tokens.
    route_is_ctrl: Vec<bool>,
    route_inflight: Vec<usize>,
    blocked_on_route: Vec<Vec<u32>>,
    route_next_free: Vec<u64>,
    link_used: Vec<u64>,
    /// Per-directed-link flaky multiplier (1 = nominal), indexed like
    /// `link_used`; empty unless `has_flaky`.
    flaky_mult: Vec<u64>,
    /// Fast-path gate: the healthy flit loop never reads `flaky_mult`.
    has_flaky: bool,
    /// In-transit flits only, always serial-sorted (spawn appends in
    /// serial order; waiters re-enter by sorted insert); at-destination
    /// flits move to `parked` until their input queue has space, and
    /// flits that lost link arbitration move to `link_waiters`.
    flits: Vec<Flit>,
    flit_serial: u64,
    /// Per-directed-link waiter queue (serial-sorted), indexed like
    /// `link_used`. The head is the arbitration winner once the link is
    /// free: among all flits wanting a link, the smallest serial wins —
    /// identical to the old serial-ordered full-vector scan.
    link_waiters: Vec<VecDeque<LinkWaiter>>,
    /// Links with a non-empty waiter queue.
    waiting_links: Vec<u32>,
    /// Total waiters across all links.
    link_wait_count: usize,
    /// Parked flits per input queue, each list in serial order.
    parked: Vec<Vec<ParkedFlit>>,
    /// Whether a queue has a non-empty parked list.
    queue_parked: Vec<bool>,
    parked_count: usize,
    /// Scratch for serial-ordered candidate wakeups after deliveries.
    deliver_buf: Vec<(u64, u32)>,
    /// Parked queues that regained space since the last delivery scan
    /// (set by `pop`): only these can accept a parked flit, so the
    /// delivery pass never rescans queues that stayed full.
    waked_queues: Vec<u32>,
    queue_waked: Vec<bool>,
    // events
    events: EventQueue,
    // Hot timing-model scalars, hoisted out of the `&TimingModel` so the
    // per-fire paths read plain fields.
    /// `tm.issue_occupancy()`.
    fire_occ: u64,
    /// `tm.queue_capacity`.
    qcap: usize,
    /// `tm.route_inflight_cap`.
    route_cap: usize,
    /// Per-node fire-to-result latency (`tm.result_latency(op)`).
    node_lat: Vec<u64>,
    // state
    seq_state: Vec<SeqState>,
    params: Vec<Value>,
    memory: Vec<Vec<Value>>,
    oob: u64,
    /// Interned sink storage: `sink_slot[node]` indexes `sink_data` /
    /// `sink_labels` (nodes sharing a label share a slot).
    sink_slot: Vec<u32>,
    sink_labels: Vec<String>,
    sink_data: Vec<Vec<Value>>,
    // groups
    active_group: u16,
    switch_until: u64,
    last_active_fire: u64,
    /// Tokens emitted but not yet delivered, per destination group:
    /// a group with in-flight traffic is not drained, so exclusive
    /// execution must not switch away from it yet.
    group_inflight: Vec<u64>,
    // stats
    stats: RunStats,
    cycle: u64,
    progressed: bool,
    /// Opt-in trace recorder ([`RunSpec::tracer`]). `None` on untraced
    /// runs: each hook site is a single discriminant check, and
    /// the traced run is bit-identical to the untraced one.
    trace: Option<Box<Tracer>>,
}

/// How to run a program: the fault set to inject, the event-queue
/// engine, the cycle budget and an optional trace recorder. Each field
/// is one axis of a run; [`run_with`] takes them all at once.
///
/// ```
/// use marionette_sim::{EngineKind, FaultSet, RunSpec};
///
/// let faults = FaultSet::new(4, 4);
/// let spec = RunSpec { faults: &faults, ..RunSpec::new(1_000) };
/// assert_eq!(spec.engine, EngineKind::default());
/// assert!(spec.tracer.is_none());
/// ```
#[derive(Debug)]
pub struct RunSpec<'a> {
    /// Injected faults (empty for a healthy fabric).
    ///
    /// A dead resource the bitstream touches (a dead tile holding a
    /// node, a dead link crossed by a flit-carrying route) surfaces as
    /// [`SimError::Fault`] naming the resource, before any cycle
    /// executes. Flaky links only stretch traversal time — the extra
    /// cycles are charged to the link-stall counters and values are
    /// never altered. An empty fault set is bit-identical to a healthy
    /// run.
    pub faults: &'a FaultSet,
    /// Event-queue core; both engines are bit-identical.
    pub engine: EngineKind,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Records the cycle-accurate event stream (see [`crate::trace`]).
    /// The tracer is handed back with the recorded events on success
    /// **and** on error (a partial trace of a deadlocked run is exactly
    /// what one wants to look at); the run itself is bit-identical to
    /// the untraced one.
    pub tracer: Option<&'a mut Tracer>,
}

/// The empty fault set behind [`RunSpec::new`].
static NO_FAULTS: FaultSet = FaultSet::none();

impl RunSpec<'static> {
    /// A healthy, untraced run on the default engine within `max_cycles`.
    pub fn new(max_cycles: u64) -> Self {
        RunSpec {
            faults: &NO_FAULTS,
            engine: EngineKind::default(),
            max_cycles,
            tracer: None,
        }
    }
}

/// Runs a program to quiescence on a healthy fabric.
///
/// `inputs` overwrite array contents by name (missing arrays zero-fill);
/// `params` override scalar parameters.
///
/// # Errors
/// Returns [`SimError`] on deadlock, cycle-budget exhaustion or unknown
/// workload names.
pub fn run(
    prog: &MachineProgram,
    tm: &TimingModel,
    inputs: &[(String, Vec<Value>)],
    params: &[(String, Value)],
    max_cycles: u64,
) -> Result<RunResult, SimError> {
    run_with(prog, tm, inputs, params, &mut RunSpec::new(max_cycles))
}

/// [`run_with`] with the faults, engine and budget spelled out.
///
/// # Errors
/// As [`run_with`].
pub fn run_full(
    prog: &MachineProgram,
    tm: &TimingModel,
    faults: &FaultSet,
    engine: EngineKind,
    inputs: &[(String, Vec<Value>)],
    params: &[(String, Value)],
    max_cycles: u64,
) -> Result<RunResult, SimError> {
    let mut spec = RunSpec {
        faults,
        engine,
        max_cycles,
        tracer: None,
    };
    run_with(prog, tm, inputs, params, &mut spec)
}

/// Runs a program to quiescence as `spec` says: every other `run*`
/// function delegates here. See [`RunSpec`] for the fault and trace
/// semantics.
///
/// # Errors
/// Returns [`SimError`] on a touched fault, deadlock, cycle-budget
/// exhaustion or unknown workload names.
pub fn run_with(
    prog: &MachineProgram,
    tm: &TimingModel,
    inputs: &[(String, Vec<Value>)],
    params: &[(String, Value)],
    spec: &mut RunSpec<'_>,
) -> Result<RunResult, SimError> {
    let mut m = Machine::new(prog, tm, spec.faults, spec.engine)?;
    if let Some(tracer) = spec.tracer.as_deref_mut() {
        let mut t = std::mem::take(tracer);
        t.set_cols(prog.cols as usize);
        m.trace = Some(Box::new(t));
    }
    let run = m.apply_workload(inputs, params).and_then(|()| {
        m.boot();
        m.run_to_quiescence(spec.max_cycles)
    });
    if let Some(tracer) = spec.tracer.as_deref_mut() {
        *tracer = *m.trace.take().expect("tracer installed above");
    }
    run?;
    Ok(m.finish())
}

/// Dense directed-link id (`from * 4 + dir`, east/west/south/north =
/// 0/1/2/3) — the encoding shared with `marionette_net::Mesh` and
/// [`FaultSet::link_dead`].
fn link_id_for(cols: usize, from: usize, to: usize) -> usize {
    let dir = if to == from + 1 {
        0 // east
    } else if to + 1 == from {
        1 // west
    } else if to == from + cols {
        2 // south
    } else {
        3 // north
    };
    from * 4 + dir
}

impl<'p> Machine<'p> {
    fn new(
        prog: &'p MachineProgram,
        tm: &'p TimingModel,
        faults: &FaultSet,
        engine: EngineKind,
    ) -> Result<Self, SimError> {
        let npes = prog.pe_count();
        let nmem = prog
            .nodes
            .iter()
            .filter_map(|n| match n.place {
                Placement::MemUnit { unit } => Some(unit as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        // Loop headers: blocks containing a Carry operator. Every header
        // block becomes a dedicated loop unit.
        let max_bb = prog
            .nodes
            .iter()
            .map(|n| n.bb as usize + 1)
            .max()
            .unwrap_or(1);
        let mut header_bb = vec![false; max_bb];
        for n in &prog.nodes {
            if matches!(n.op, Op::Carry) {
                header_bb[n.bb as usize] = true;
            }
        }
        let mut header_unit = vec![usize::MAX; max_bb];
        let first_loop_unit = 3 * npes + nmem;
        let mut next_unit = first_loop_unit;
        for (bb, is_h) in header_bb.iter().enumerate() {
            if *is_h {
                header_unit[bb] = next_unit;
                next_unit += 1;
            }
        }
        let nunits = next_unit;
        let mut port_base = Vec::with_capacity(prog.nodes.len() + 1);
        let mut total = 0usize;
        for n in &prog.nodes {
            port_base.push(total);
            total += n.srcs.len();
        }
        port_base.push(total);

        let node_unit: Vec<UnitId> = prog
            .nodes
            .iter()
            .map(|n| {
                if header_bb[n.bb as usize] && !n.op.is_memory() {
                    return UnitId(header_unit[n.bb as usize]);
                }
                match n.place {
                    Placement::Pe { pe } => UnitId(pe as usize),
                    Placement::CtrlPlane { pe } => {
                        if tm.ctrl_parallel {
                            UnitId(npes + pe as usize)
                        } else {
                            UnitId(pe as usize)
                        }
                    }
                    Placement::NetSwitch { sw } => UnitId(2 * npes + sw as usize),
                    Placement::MemUnit { unit } => UnitId(3 * npes + unit as usize),
                }
            })
            .collect();

        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); prog.nodes.len()];
        for (ri, r) in prog.routes.iter().enumerate() {
            consumers[r.src as usize].push(ri as u32);
        }
        let mut cons_base = Vec::with_capacity(prog.nodes.len() + 1);
        let mut cons_dst = Vec::with_capacity(prog.routes.len());
        let mut cons_port = Vec::with_capacity(prog.routes.len());
        let mut cons_qi = Vec::with_capacity(prog.routes.len());
        let mut cons_route = Vec::with_capacity(prog.routes.len());
        let mut cons_internal = Vec::with_capacity(prog.routes.len());
        for (src, c) in consumers.iter().enumerate() {
            cons_base.push(cons_dst.len() as u32);
            let src_bb = prog.nodes[src].bb as usize;
            for &ri in c {
                let r = &prog.routes[ri as usize];
                cons_dst.push(r.dst);
                cons_port.push(r.dst_port);
                cons_qi.push((port_base[r.dst as usize] + r.dst_port as usize) as u32);
                cons_route.push(if r.path.len() <= 1 { u32::MAX } else { ri });
                cons_internal.push(
                    header_bb[src_bb]
                        && prog.nodes[r.dst as usize].bb as usize == src_bb
                        && !prog.nodes[r.dst as usize].op.is_memory(),
                );
            }
        }
        cons_base.push(cons_dst.len() as u32);

        let cols = prog.cols as usize;
        // Flatten the per-route metadata the flit/emit hot paths read
        // (destination queue, per-hop link ids, latency surcharges) so
        // the cycle loop never dereferences a `Route`.
        let nroutes = prog.routes.len();
        let mut route_dst = Vec::with_capacity(nroutes);
        let mut route_dst_port = Vec::with_capacity(nroutes);
        let mut route_dst_group = Vec::with_capacity(nroutes);
        let mut route_hops = Vec::with_capacity(nroutes);
        let mut route_hop_base = Vec::with_capacity(nroutes + 1);
        let mut route_hop_link: Vec<u32> = Vec::new();
        let mut route_extra = Vec::with_capacity(nroutes);
        let mut route_is_ctrl = Vec::with_capacity(nroutes);
        for r in &prog.routes {
            route_dst.push(r.dst);
            route_dst_port.push(r.dst_port);
            route_dst_group.push(prog.nodes[r.dst as usize].group);
            route_hops.push(r.path.len() as u32);
            route_hop_base.push(route_hop_link.len() as u32);
            for w in r.path.windows(2) {
                route_hop_link.push(link_id_for(cols, w[0] as usize, w[1] as usize) as u32);
            }
            let mut extra = 0u64;
            if r.activation {
                extra += u64::from(tm.activation_extra);
                if r.dynamic {
                    extra += u64::from(tm.dyn_bound_extra);
                }
            }
            route_extra.push(extra);
            route_is_ctrl.push(r.class == RouteClass::Ctrl);
        }
        route_hop_base.push(route_hop_link.len() as u32);
        let route_dst_qi: Vec<u32> = prog
            .routes
            .iter()
            .map(|r| (port_base[r.dst as usize] + r.dst_port as usize) as u32)
            .collect();

        // Loop-unit-internal register queues (combinational same-cycle
        // forwarding in `emit`, exempt from `output_ready` capacity
        // checks) may exceed `queue_capacity`: give exactly those
        // growable spill storage instead of a fixed-stride slab ring.
        let mut is_spill = vec![false; total];
        for r in &prog.routes {
            let sb = prog.nodes[r.src as usize].bb as usize;
            if header_bb[sb]
                && prog.nodes[r.dst as usize].bb as usize == sb
                && !prog.nodes[r.dst as usize].op.is_memory()
            {
                is_spill[port_base[r.dst as usize] + r.dst_port as usize] = true;
            }
        }

        let src_of: Vec<OperandSrc> = prog
            .nodes
            .iter()
            .flat_map(|n| n.srcs.iter().copied())
            .collect();
        debug_assert_eq!(src_of.len(), total);
        let node_group: Vec<u16> = prog.nodes.iter().map(|n| n.group).collect();
        let node_op: Vec<Op> = prog.nodes.iter().map(|n| n.op).collect();
        let node_place: Vec<Placement> = prog.nodes.iter().map(|n| n.place).collect();

        let memory: Vec<Vec<Value>> = prog
            .arrays
            .iter()
            .map(|a| vec![a.elem.zero(); a.len as usize])
            .collect();

        // Intern sink labels so a sink firing is a dense Vec push. Nodes
        // sharing a label share a collection slot, matching the old
        // by-label HashMap semantics.
        let mut sink_slot = vec![u32::MAX; prog.nodes.len()];
        let mut sink_labels: Vec<String> = Vec::new();
        let mut sink_data: Vec<Vec<Value>> = Vec::new();
        for (i, n) in prog.nodes.iter().enumerate() {
            if matches!(n.op, Op::Sink) {
                let label = n.label.clone().unwrap_or_default();
                let slot = match sink_labels.iter().position(|l| *l == label) {
                    Some(s) => s,
                    None => {
                        sink_labels.push(label);
                        sink_data.push(Vec::new());
                        sink_labels.len() - 1
                    }
                };
                sink_slot[i] = slot as u32;
            }
        }

        if !faults.is_empty() {
            if faults.cols() != cols || faults.rows() * faults.cols() != npes {
                return Err(SimError::Fault {
                    what: format!("fabric:{}x{}", faults.rows(), faults.cols()),
                    detail: format!(
                        "fault set geometry does not match the {}x{} program fabric",
                        npes / cols.max(1),
                        cols
                    ),
                });
            }
            // Dead tiles: nothing may execute on their data or control
            // plane. The tile's mesh router survives, so pass-through
            // flits and NetSwitch/MemUnit placements are unaffected.
            for (i, n) in prog.nodes.iter().enumerate() {
                let pe = match n.place {
                    Placement::Pe { pe } | Placement::CtrlPlane { pe } => pe as usize,
                    _ => continue,
                };
                if faults.pe_dead(pe) {
                    return Err(SimError::Fault {
                        what: format!("pe:{},{}", pe / cols, pe % cols),
                        detail: format!("node {i} ({:?}) is placed on the dead tile", n.op),
                    });
                }
            }
            // Dead links: fault exactly the routes that would put flits
            // on the mesh — control-network transfers and combinational
            // loop-unit internals never touch mesh links.
            for (ri, r) in prog.routes.iter().enumerate() {
                if r.path.len() <= 1 {
                    continue;
                }
                if r.class == RouteClass::Ctrl
                    && matches!(tm.ctrl_transport, CtrlTransport::CtrlNetwork { .. })
                {
                    continue;
                }
                let src_bb = prog.nodes[r.src as usize].bb as usize;
                if header_bb[src_bb]
                    && prog.nodes[r.dst as usize].bb as usize == src_bb
                    && !prog.nodes[r.dst as usize].op.is_memory()
                {
                    continue;
                }
                for w in r.path.windows(2) {
                    let (from, to) = (w[0] as usize, w[1] as usize);
                    let lid = link_id_for(cols, from, to);
                    if faults.link_dead(lid) {
                        return Err(SimError::Fault {
                            what: format!(
                                "link:{},{}-{},{}",
                                from / cols,
                                from % cols,
                                to / cols,
                                to % cols
                            ),
                            detail: format!(
                                "route {ri} ({} -> {}) crosses the dead link",
                                r.src, r.dst
                            ),
                        });
                    }
                }
            }
        }
        let has_flaky = faults.has_flaky();
        let flaky_mult: Vec<u64> = if has_flaky {
            (0..4 * npes)
                .map(|l| u64::from(faults.link_mult(l)))
                .collect()
        } else {
            Vec::new()
        };

        Ok(Machine {
            prog,
            tm,
            npes,
            node_unit,
            src_of,
            node_group,
            node_op,
            node_place,
            first_loop_unit,
            last_fire_cycle: vec![u64::MAX; prog.nodes.len()],
            unit_free_at: vec![0; nunits],
            unit_candidates: vec![VecDeque::new(); nunits],
            in_candidates: vec![false; prog.nodes.len()],
            unit_next: vec![0; nunits.div_ceil(64)],
            unit_work: vec![0; nunits.div_ceil(64)],
            issue_floor: usize::MAX,
            unit_queued: vec![false; nunits],
            cand_count: 0,
            unit_grp_cands: vec![0; nunits],
            grp_cand_total: 0,
            track_groups: tm.exclusive_groups,
            cand_units: Vec::new(),
            in_cand_units: vec![false; nunits],
            port_base,
            queues: TokenQueues::new(total, tm.queue_capacity, &is_spill),
            reserved: vec![0; total],
            blocked_on_queue: vec![Vec::new(); total],
            unblock_scratch: Vec::new(),
            cons_base,
            cons_dst,
            cons_port,
            cons_qi,
            cons_route,
            cons_internal,
            route_dst,
            route_dst_qi,
            route_dst_group,
            route_hops,
            route_hop_base,
            route_hop_link,
            route_extra,
            route_is_ctrl,
            route_inflight: vec![0; prog.routes.len()],
            blocked_on_route: vec![Vec::new(); prog.routes.len()],
            route_next_free: vec![0; prog.routes.len()],
            link_used: vec![u64::MAX; 4 * npes],
            flaky_mult,
            has_flaky,
            flits: Vec::new(),
            flit_serial: 0,
            link_waiters: vec![VecDeque::new(); 4 * npes],
            waiting_links: Vec::new(),
            link_wait_count: 0,
            parked: vec![Vec::new(); total],
            queue_parked: vec![false; total],
            parked_count: 0,
            deliver_buf: Vec::new(),
            waked_queues: Vec::new(),
            queue_waked: vec![false; total],
            events: EventQueue::new(engine),
            fire_occ: tm.issue_occupancy(),
            qcap: tm.queue_capacity,
            route_cap: tm.route_inflight_cap,
            node_lat: prog.nodes.iter().map(|n| tm.result_latency(n.op)).collect(),
            seq_state: vec![SeqState::Fresh; prog.nodes.len()],
            params: prog.params.iter().map(|p| p.default).collect(),
            memory,
            oob: 0,
            sink_slot,
            sink_labels,
            sink_data,
            active_group: 0,
            switch_until: 0,
            last_active_fire: 0,
            group_inflight: {
                let ngroups = prog
                    .nodes
                    .iter()
                    .map(|n| n.group as usize + 1)
                    .max()
                    .unwrap_or(1);
                vec![0; ngroups]
            },
            stats: RunStats {
                pe_data: vec![UnitStats::default(); npes],
                pe_ctrl: vec![UnitStats::default(); npes],
                groups: Vec::new(),
                link_stall_by_route: vec![0; prog.routes.len()],
                ..Default::default()
            },
            cycle: 0,
            progressed: false,
            trace: None,
        })
    }

    /// Overwrites array contents / parameter defaults with a workload.
    fn apply_workload(
        &mut self,
        inputs: &[(String, Vec<Value>)],
        params: &[(String, Value)],
    ) -> Result<(), SimError> {
        for (name, data) in inputs {
            let idx = self
                .prog
                .arrays
                .iter()
                .position(|a| &a.name == name)
                .ok_or_else(|| SimError::UnknownArray(name.clone()))?;
            let arr = &mut self.memory[idx];
            for (i, v) in data.iter().enumerate().take(arr.len()) {
                arr[i] = *v;
            }
        }
        for (name, v) in params {
            let idx = self
                .prog
                .param_by_name(name)
                .ok_or_else(|| SimError::UnknownParam(name.clone()))?;
            self.params[idx as usize] = *v;
        }
        Ok(())
    }

    /// Consumes the machine into its run outputs.
    fn finish(self) -> RunResult {
        let mut stats = self.stats;
        stats.cycles = self.cycle;
        RunResult {
            stats,
            memory: self.memory,
            sinks: self.sink_labels.into_iter().zip(self.sink_data).collect(),
            oob_events: self.oob,
        }
    }

    fn boot(&mut self) {
        // Fire every Start node at cycle 0.
        for (i, n) in self.prog.nodes.iter().enumerate() {
            if matches!(n.op, Op::Start) {
                self.active_group = n.group;
                self.record_fire(i as u32, false);
                self.emit(i as u32, Value::Unit, 1);
            }
        }
        // `emit` above may have marked candidates before the final Start
        // settled `active_group`: rebuild the per-group counts.
        self.recompute_group_counts();
    }

    fn qidx(&self, node: u32, port: u8) -> usize {
        self.port_base[node as usize] + port as usize
    }

    fn schedule(&mut self, at: u64, kind: EvKind) {
        self.events.push(at, kind);
    }

    fn mark_candidate(&mut self, node: u32) {
        if !self.in_candidates[node as usize] {
            self.in_candidates[node as usize] = true;
            self.cand_count += 1;
            let u = self.node_unit[node as usize].0;
            if self.track_groups {
                if self.node_group[node as usize] == self.active_group {
                    self.unit_grp_cands[u] += 1;
                    self.grp_cand_total += 1;
                }
                if !self.in_cand_units[u] {
                    self.in_cand_units[u] = true;
                    self.cand_units.push(u as u32);
                }
            }
            self.unit_candidates[u].push_back(node);
            self.register_unit(u);
        }
    }

    /// Registers unit `u` for issue unless it already is: into the
    /// running pass when its index is still ahead of the cursor (as a
    /// linear scan would reach it), else for the next pass.
    fn register_unit(&mut self, u: usize) {
        if !self.unit_queued[u] {
            self.unit_queued[u] = true;
            let map = if u >= self.issue_floor {
                &mut self.unit_work
            } else {
                &mut self.unit_next
            };
            map[u / 64] |= 1 << (u % 64);
        }
    }

    /// Removes the front candidate of `unit`, clearing its membership.
    fn pop_candidate(&mut self, unit: usize) -> Option<u32> {
        let n = self.unit_candidates[unit].pop_front()?;
        self.in_candidates[n as usize] = false;
        self.cand_count -= 1;
        if self.track_groups && self.node_group[n as usize] == self.active_group {
            self.unit_grp_cands[unit] -= 1;
            self.grp_cand_total -= 1;
        }
        Some(n)
    }

    /// Rebuilds `unit_grp_cands` / `grp_cand_total` after the active
    /// group changed. Outside the issue pass every unit holding a
    /// candidate is registered in `unit_next`, so the scan covers all
    /// candidates; switches are rare, so the O(candidates) cost is cold.
    fn recompute_group_counts(&mut self) {
        if !self.track_groups {
            return;
        }
        self.unit_grp_cands.fill(0);
        self.grp_cand_total = 0;
        let g = self.active_group;
        let mut cand_units = std::mem::take(&mut self.cand_units);
        cand_units.retain(|&uu| {
            let u = uu as usize;
            if self.unit_candidates[u].is_empty() {
                self.in_cand_units[u] = false;
                return false; // drained since registration: compact
            }
            let c = self.unit_candidates[u]
                .iter()
                .filter(|&&n| self.node_group[n as usize] == g)
                .count() as u32;
            self.unit_grp_cands[u] = c;
            self.grp_cand_total += c as usize;
            // Units parked until now hold backlog for the incoming group:
            // put them back on the walk.
            if c > 0 {
                self.register_unit(u);
            }
            true
        });
        self.cand_units = cand_units;
    }

    /// Emits a value to all consumers of `node`.
    fn emit(&mut self, node: u32, value: Value, lat: u64) {
        for li in self.cons_base[node as usize] as usize..self.cons_base[node as usize + 1] as usize
        {
            // Combinational forwarding inside a loop unit: same-header
            // operators see the value in the same cycle.
            if self.cons_internal[li] {
                self.queues.push_back(self.cons_qi[li] as usize, value);
                self.mark_candidate(self.cons_dst[li]);
                continue;
            }
            let route = self.cons_route[li];
            if route == u32::MAX {
                let dst = self.cons_dst[li];
                let qi = self.cons_qi[li] as usize;
                self.reserved[qi] += 1;
                self.group_inflight[self.node_group[dst as usize] as usize] += 1;
                self.schedule(
                    self.cycle + lat,
                    EvKind::Deliver {
                        node: dst,
                        port: self.cons_port[li],
                        value,
                        route: None,
                    },
                );
            } else {
                let ri = route as usize;
                self.route_inflight[ri] += 1;
                self.group_inflight[self.route_dst_group[ri] as usize] += 1;
                let extra = self.route_extra[ri];
                let is_ctrl = self.route_is_ctrl[ri];
                if is_ctrl {
                    self.stats.ctrl_tokens += 1;
                } else {
                    self.stats.data_tokens += 1;
                }
                match (is_ctrl, self.tm.ctrl_transport) {
                    (true, CtrlTransport::CtrlNetwork { latency }) => {
                        // Fixed-path network: one transfer per route per
                        // cycle, single-cycle traversal.
                        let qi = self.cons_qi[li] as usize;
                        self.reserved[qi] += 1;
                        let ready = self.cycle + lat + extra;
                        let slot = ready.max(self.route_next_free[ri]);
                        self.route_next_free[ri] = slot + 1;
                        self.schedule(
                            slot + u64::from(latency),
                            EvKind::Deliver {
                                node: self.cons_dst[li],
                                port: self.cons_port[li],
                                value,
                                route: Some(route),
                            },
                        );
                    }
                    _ => {
                        self.schedule(self.cycle + lat + extra, EvKind::SpawnFlit { route, value });
                    }
                }
            }
        }
    }

    fn record_fire(&mut self, node: u32, poisoned: bool) {
        self.stats.fires += 1;
        let grp = self.node_group[node as usize] as usize;
        if self.stats.groups.len() <= grp {
            self.stats.groups.resize(grp + 1, GroupStats::default());
        }
        let gs = &mut self.stats.groups[grp];
        gs.fires += 1;
        gs.busy += 1;
        if gs.first_fire.is_none() {
            gs.first_fire = Some(self.cycle);
        }
        gs.last_fire = self.cycle;
        let occ = self.fire_occ;
        match self.node_place[node as usize] {
            Placement::Pe { pe } => {
                let u = &mut self.stats.pe_data[pe as usize];
                u.busy += occ;
                if poisoned {
                    u.poison_fires += 1;
                } else {
                    u.useful_fires += 1;
                }
            }
            Placement::CtrlPlane { pe } | Placement::NetSwitch { sw: pe } => {
                let u = &mut self.stats.pe_ctrl[pe as usize % self.npes];
                u.busy += occ;
                if poisoned {
                    u.poison_fires += 1;
                } else {
                    u.useful_fires += 1;
                }
            }
            Placement::MemUnit { .. } => {}
        }
        if self.node_group[node as usize] == self.active_group {
            self.last_active_fire = self.cycle;
        }
        if self.trace.is_some() {
            let key = match self.node_place[node as usize] {
                Placement::Pe { pe } => TrackKey::PeData(u32::from(pe)),
                Placement::CtrlPlane { pe } => TrackKey::PeCtrl(u32::from(pe)),
                Placement::NetSwitch { sw } => TrackKey::Switch(u32::from(sw)),
                Placement::MemUnit { unit } => TrackKey::Mem(u32::from(unit)),
            };
            let (cycle, dur) = (self.cycle, occ);
            if let Some(t) = self.trace.as_deref_mut() {
                t.fire(key, cycle, dur, node, poisoned);
            }
        }
    }

    // ---------------- queue helpers -----------------------------------

    /// Peeks the operand at flat queue slot `qi` without consuming it.
    #[inline]
    fn peek_qi(&self, qi: usize) -> Option<Value> {
        match self.src_of[qi] {
            OperandSrc::Imm(v) => Some(v),
            OperandSrc::Param(p) => Some(self.params[p as usize]),
            OperandSrc::Route(_) => self.queues.front(qi),
            OperandSrc::None => None,
        }
    }

    /// Consumes the operand previously peeked at `qi`: token queues pop
    /// (waking parked flits and queue-blocked producers); immediates and
    /// params are inexhaustible so consuming them is free. The firing
    /// arms peek every operand, check output capacity, then consume —
    /// one `src_of` dispatch per port instead of the peek/pop double.
    fn consume_qi(&mut self, qi: usize) {
        if matches!(self.src_of[qi], OperandSrc::Route(_)) {
            self.queues.pop_front(qi);
            // The queue shrank: unblock producers waiting on it and
            // wake any flits parked on the freed slot.
            if self.queue_parked[qi] && !self.queue_waked[qi] {
                self.queue_waked[qi] = true;
                self.waked_queues.push(qi as u32);
            }
            if !self.blocked_on_queue[qi].is_empty() {
                let mut blocked = std::mem::replace(
                    &mut self.blocked_on_queue[qi],
                    std::mem::take(&mut self.unblock_scratch),
                );
                for &b in &blocked {
                    self.mark_candidate(b);
                }
                blocked.clear();
                self.unblock_scratch = blocked;
            }
        }
    }

    /// Can the node send to every consumer (queue/flight capacity)?
    /// On the first full consumer, registers the node to be re-marked
    /// when that queue/route drains and reports not-ready.
    fn output_ready(&mut self, node: u32) -> bool {
        // Read-only scan first; at most one block site is registered, so
        // the mutable part is a single deferred push (no take/restore of
        // the consumer list).
        enum Block {
            Queue(usize),
            Route(usize),
        }
        let mut block: Option<Block> = None;
        'links: for li in
            self.cons_base[node as usize] as usize..self.cons_base[node as usize + 1] as usize
        {
            if self.cons_internal[li] {
                continue; // loop-unit internal registers
            }
            let route = self.cons_route[li];
            if route == u32::MAX {
                let qi = self.cons_qi[li] as usize;
                if self.queues.len(qi) + self.reserved[qi] >= self.qcap {
                    block = Some(Block::Queue(qi));
                    break 'links;
                }
            } else {
                let ri = route as usize;
                if self.route_inflight[ri] >= self.route_cap {
                    block = Some(Block::Route(ri));
                    break 'links;
                }
                if self.route_is_ctrl[ri]
                    && matches!(self.tm.ctrl_transport, CtrlTransport::CtrlNetwork { .. })
                {
                    let qi = self.cons_qi[li] as usize;
                    if self.queues.len(qi) + self.reserved[qi] >= self.qcap {
                        block = Some(Block::Queue(qi));
                        break 'links;
                    }
                }
            }
        }
        match block {
            None => true,
            Some(Block::Queue(qi)) => {
                self.blocked_on_queue[qi].push(node);
                false
            }
            Some(Block::Route(route)) => {
                self.blocked_on_route[route].push(node);
                false
            }
        }
    }

    // ---------------- firing ------------------------------------------

    /// Attempts to fire `node`; returns true if it fired.
    ///
    /// Each arm peeks its operands (side-effect free), checks output
    /// capacity, then consumes — so every port is dispatched on
    /// `src_of` exactly once per attempt and failed attempts touch no
    /// state beyond the `output_ready` block registration.
    fn try_fire(&mut self, node: u32) -> bool {
        let op = self.node_op[node as usize];
        let predicated = self.tm.predicated_branches;
        let pb = self.port_base[node as usize];
        match op {
            Op::Start => false,
            Op::Bin(b) => {
                let Some(x) = self.peek_qi(pb) else {
                    return false;
                };
                let Some(y) = self.peek_qi(pb + 1) else {
                    return false;
                };
                if !self.output_ready(node) {
                    return false;
                }
                self.consume_qi(pb);
                self.consume_qi(pb + 1);
                let out = b.eval(x, y);
                self.finish_fire(node, Some(out));
                true
            }
            Op::Un(u) => {
                let Some(x) = self.peek_qi(pb) else {
                    return false;
                };
                if !self.output_ready(node) {
                    return false;
                }
                self.consume_qi(pb);
                let out = u.eval(x);
                self.finish_fire(node, Some(out));
                true
            }
            Op::Nl(u) => {
                let Some(x) = self.peek_qi(pb) else {
                    return false;
                };
                if !self.output_ready(node) {
                    return false;
                }
                self.consume_qi(pb);
                let out = u.eval(x);
                self.finish_fire(node, Some(out));
                true
            }
            Op::Mux => {
                let Some(p) = self.peek_qi(pb) else {
                    return false;
                };
                let Some(t) = self.peek_qi(pb + 1) else {
                    return false;
                };
                let Some(f) = self.peek_qi(pb + 2) else {
                    return false;
                };
                if !self.output_ready(node) {
                    return false;
                }
                self.consume_qi(pb);
                self.consume_qi(pb + 1);
                self.consume_qi(pb + 2);
                let out = match p.as_bool() {
                    None => Value::Poison,
                    Some(true) => t,
                    Some(false) => f,
                };
                self.finish_fire(node, Some(out));
                true
            }
            Op::Load(arr) => {
                let need_dep = !matches!(self.src_of[pb + 1], OperandSrc::None);
                let Some(idx) = self.peek_qi(pb) else {
                    return false;
                };
                if need_dep && self.peek_qi(pb + 1).is_none() {
                    return false;
                }
                if !self.output_ready(node) {
                    return false;
                }
                self.consume_qi(pb);
                if need_dep {
                    self.consume_qi(pb + 1);
                }
                let out = if idx.is_poison() {
                    Value::Poison
                } else {
                    self.mem_load(arr.0 as usize, idx.to_i32_lossy())
                };
                self.finish_fire(node, Some(out));
                true
            }
            Op::Store(arr) => {
                let need_dep = !matches!(self.src_of[pb + 2], OperandSrc::None);
                let Some(idx) = self.peek_qi(pb) else {
                    return false;
                };
                let Some(val) = self.peek_qi(pb + 1) else {
                    return false;
                };
                if need_dep && self.peek_qi(pb + 2).is_none() {
                    return false;
                }
                if !self.output_ready(node) {
                    return false;
                }
                self.consume_qi(pb);
                self.consume_qi(pb + 1);
                if need_dep {
                    self.consume_qi(pb + 2);
                }
                let poisoned = idx.is_poison() || val.is_poison();
                if !poisoned {
                    self.mem_store(arr.0 as usize, idx.to_i32_lossy(), val);
                }
                self.finish_fire_poison(node, Some(Value::Unit), poisoned);
                true
            }
            Op::Gate => {
                let Some(trig) = self.peek_qi(pb) else {
                    return false;
                };
                let Some(v) = self.peek_qi(pb + 1) else {
                    return false;
                };
                if !self.output_ready(node) {
                    return false;
                }
                self.consume_qi(pb);
                self.consume_qi(pb + 1);
                let out = if trig.is_poison() { Value::Poison } else { v };
                self.finish_fire(node, Some(out));
                true
            }
            Op::Steer { sense, role } => {
                let Some(p) = self.peek_qi(pb) else {
                    return false;
                };
                let Some(v) = self.peek_qi(pb + 1) else {
                    return false;
                };
                if !self.output_ready(node) {
                    return false;
                }
                self.consume_qi(pb);
                self.consume_qi(pb + 1);
                let pred_mode = predicated && role == SteerRole::Branch;
                if pred_mode {
                    let out = match p.as_bool() {
                        Some(b) if b == sense => v,
                        _ => Value::Poison,
                    };
                    let poisoned = out.is_poison();
                    self.finish_fire_poison(node, Some(out), poisoned);
                } else if p.as_bool() == Some(sense) {
                    self.finish_fire(node, Some(v));
                } else {
                    self.finish_fire(node, None);
                }
                true
            }
            Op::Merge { role } => {
                let pred_mode = predicated && role == SteerRole::Branch;
                if pred_mode {
                    let Some(p) = self.peek_qi(pb) else {
                        return false;
                    };
                    let Some(t) = self.peek_qi(pb + 1) else {
                        return false;
                    };
                    let Some(f) = self.peek_qi(pb + 2) else {
                        return false;
                    };
                    if !self.output_ready(node) {
                        return false;
                    }
                    self.consume_qi(pb);
                    self.consume_qi(pb + 1);
                    self.consume_qi(pb + 2);
                    let out = match p.as_bool() {
                        None => Value::Poison,
                        Some(true) => t,
                        Some(false) => f,
                    };
                    self.finish_fire(node, Some(out));
                    true
                } else {
                    let Some(p) = self.peek_qi(pb) else {
                        return false;
                    };
                    let side = if p.as_bool() == Some(true) { 1 } else { 2 };
                    let Some(v) = self.peek_qi(pb + side) else {
                        return false;
                    };
                    if !self.output_ready(node) {
                        return false;
                    }
                    self.consume_qi(pb);
                    self.consume_qi(pb + side);
                    self.finish_fire(node, Some(v));
                    true
                }
            }
            Op::Carry => match self.seq_state[node as usize] {
                SeqState::Fresh => {
                    let Some(init) = self.peek_qi(pb + 1) else {
                        return false;
                    };
                    if !self.output_ready(node) {
                        return false;
                    }
                    self.consume_qi(pb + 1);
                    self.seq_state[node as usize] = SeqState::Looping;
                    self.finish_fire(node, Some(init));
                    true
                }
                SeqState::Looping => {
                    let Some(last) = self.peek_qi(pb) else {
                        return false;
                    };
                    let Some(next) = self.peek_qi(pb + 2) else {
                        return false;
                    };
                    if !self.output_ready(node) {
                        return false;
                    }
                    self.consume_qi(pb);
                    self.consume_qi(pb + 2);
                    if last.as_bool() == Some(false) {
                        self.finish_fire(node, Some(next));
                    } else {
                        self.seq_state[node as usize] = SeqState::Fresh;
                        self.finish_fire(node, None);
                    }
                    true
                }
                SeqState::Held(_) => unreachable!("carry never holds"),
            },
            Op::Inv => match self.seq_state[node as usize] {
                SeqState::Fresh => {
                    let Some(v) = self.peek_qi(pb) else {
                        return false;
                    };
                    if !self.output_ready(node) {
                        return false;
                    }
                    self.consume_qi(pb);
                    self.seq_state[node as usize] = SeqState::Held(v);
                    self.finish_fire(node, Some(v));
                    true
                }
                SeqState::Held(v) => {
                    let Some(last) = self.peek_qi(pb + 1) else {
                        return false;
                    };
                    if !self.output_ready(node) {
                        return false;
                    }
                    self.consume_qi(pb + 1);
                    if last.as_bool() == Some(false) {
                        self.finish_fire(node, Some(v));
                    } else {
                        self.seq_state[node as usize] = SeqState::Fresh;
                        self.finish_fire(node, None);
                    }
                    true
                }
                SeqState::Looping => unreachable!("inv never loops"),
            },
            Op::Sink => {
                let Some(v) = self.peek_qi(pb) else {
                    return false;
                };
                self.consume_qi(pb);
                let slot = self.sink_slot[node as usize] as usize;
                self.sink_data[slot].push(v);
                self.record_fire(node, false);
                true
            }
        }
    }

    fn finish_fire(&mut self, node: u32, out: Option<Value>) {
        let poisoned = matches!(out, Some(Value::Poison));
        self.finish_fire_poison(node, out, poisoned);
    }

    fn finish_fire_poison(&mut self, node: u32, out: Option<Value>, poisoned: bool) {
        self.record_fire(node, poisoned);
        self.last_fire_cycle[node as usize] = self.cycle;
        let u = self.node_unit[node as usize];
        self.unit_free_at[u.0] = self.cycle + self.fire_occ;
        if let Some(v) = out {
            let lat = self.node_lat[node as usize];
            self.emit(node, v, lat);
        }
        // The node may be immediately ready again.
        self.mark_candidate(node);
    }

    fn mem_load(&mut self, arr: usize, idx: i32) -> Value {
        if self.trace.is_some() {
            let cycle = self.cycle;
            if let Some(t) = self.trace.as_deref_mut() {
                t.mem(cycle, false, arr as u32);
            }
        }
        let a = &self.memory[arr];
        if idx < 0 || idx as usize >= a.len() {
            self.oob += 1;
            return Value::I32(0);
        }
        a[idx as usize]
    }

    fn mem_store(&mut self, arr: usize, idx: i32, v: Value) {
        if self.trace.is_some() {
            let cycle = self.cycle;
            if let Some(t) = self.trace.as_deref_mut() {
                t.mem(cycle, true, arr as u32);
            }
        }
        let a = &mut self.memory[arr];
        if idx < 0 || idx as usize >= a.len() {
            self.oob += 1;
            return;
        }
        a[idx as usize] = v;
    }

    // ---------------- cycle loop ---------------------------------------

    fn handle_event(&mut self, kind: EvKind) {
        self.progressed = true;
        match kind {
            EvKind::Deliver {
                node,
                port,
                value,
                route,
            } => {
                let qi = self.qidx(node, port);
                debug_assert!(
                    self.queues.len(qi) < self.tm.queue_capacity,
                    "reservation guarantees space"
                );
                self.reserved[qi] = self.reserved[qi].saturating_sub(1);
                let dg = self.node_group[node as usize] as usize;
                self.group_inflight[dg] = self.group_inflight[dg].saturating_sub(1);
                self.queues.push_back(qi, value);
                if let Some(r) = route {
                    self.route_inflight[r as usize] -= 1;
                    if !self.blocked_on_route[r as usize].is_empty() {
                        let mut blocked = std::mem::replace(
                            &mut self.blocked_on_route[r as usize],
                            std::mem::take(&mut self.unblock_scratch),
                        );
                        for &b in &blocked {
                            self.mark_candidate(b);
                        }
                        blocked.clear();
                        self.unblock_scratch = blocked;
                    }
                }
                self.mark_candidate(node);
            }
            EvKind::SpawnFlit { route, value } => {
                let serial = self.flit_serial;
                self.flit_serial += 1;
                self.flits.push(Flit {
                    route,
                    hop: 0,
                    value,
                    alive: true,
                    serial,
                    ready_at: self.cycle,
                });
            }
        }
    }

    fn process_events(&mut self) {
        while let Some(kind) = self.events.pop_due(self.cycle) {
            self.handle_event(kind);
        }
    }

    /// Attempts delivery of parked (at-destination) flits. Per queue the
    /// serial-smallest flits deliver while space lasts; candidate wakeups
    /// are then applied in global serial order, which is exactly the old
    /// one-vector iteration order.
    fn deliver_parked(&mut self) {
        // A parked flit can only deliver after its queue regained space,
        // i.e. after a `pop` on that queue (flit-fed queues receive no
        // other traffic), so only waked queues need a look.
        if self.waked_queues.is_empty() {
            return;
        }
        self.deliver_buf.clear();
        let mut waked = std::mem::take(&mut self.waked_queues);
        for &q in &waked {
            let qi = q as usize;
            self.queue_waked[qi] = false;
            if !self.queue_parked[qi] {
                continue;
            }
            let space = self.tm.queue_capacity.saturating_sub(self.queues.len(qi));
            if space == 0 {
                continue; // refilled before the scan; await the next pop
            }
            let take_n = self.parked[qi].len().min(space);
            for k in 0..take_n {
                let pf = self.parked[qi][k].clone();
                let dg = self.route_dst_group[pf.route as usize] as usize;
                self.group_inflight[dg] = self.group_inflight[dg].saturating_sub(1);
                self.queues.push_back(qi, pf.value);
                self.route_inflight[pf.route as usize] -= 1;
                // All cycles spent waiting, one stall per blocked cycle.
                self.stats.link_stall_cycles += self.cycle - pf.first_attempt;
                self.stats.link_stall_by_route[pf.route as usize] += self.cycle - pf.first_attempt;
                if self.trace.is_some() {
                    // Backpressure is charged to the route's final link.
                    let route = pf.route as usize;
                    let nhops = self.route_hops[route] as usize;
                    let lid = if nhops >= 2 {
                        self.route_hop_link[self.route_hop_base[route] as usize + nhops - 2]
                    } else {
                        0
                    };
                    let stall = self.cycle - pf.first_attempt;
                    if let Some(t) = self.trace.as_deref_mut() {
                        t.park(lid, pf.route, pf.first_attempt, stall);
                    }
                }
                self.parked_count -= 1;
                self.progressed = true;
                self.deliver_buf.push((pf.serial, pf.route));
            }
            self.parked[qi].drain(..take_n);
            if self.parked[qi].is_empty() {
                self.queue_parked[qi] = false;
            }
        }
        waked.clear();
        self.waked_queues = waked;
        self.deliver_buf.sort_unstable_by_key(|&(s, _)| s);
        let buf = std::mem::take(&mut self.deliver_buf);
        for &(_, route) in &buf {
            let dst = self.route_dst[route as usize];
            if !self.blocked_on_route[route as usize].is_empty() {
                let mut blocked = std::mem::replace(
                    &mut self.blocked_on_route[route as usize],
                    std::mem::take(&mut self.unblock_scratch),
                );
                for &b in &blocked {
                    self.mark_candidate(b);
                }
                blocked.clear();
                self.unblock_scratch = blocked;
            }
            self.mark_candidate(dst);
        }
        self.deliver_buf = buf;
    }

    /// Parks a delivered token (flit that completed its last hop): it
    /// re-enters delivery arbitration (serial order per queue) starting
    /// next cycle.
    fn park_token(&mut self, serial: u64, route: u32, value: Value) {
        let qi = self.route_dst_qi[route as usize] as usize;
        let pf = ParkedFlit {
            serial,
            route,
            value,
            first_attempt: self.cycle + 1,
        };
        // Same-queue flits ride the same route, so serials arrive in
        // order; insertion keeps the list sorted even if they did not.
        let pos = self.parked[qi]
            .binary_search_by_key(&pf.serial, |p| p.serial)
            .unwrap_err();
        self.parked[qi].insert(pos, pf);
        self.parked_count += 1;
        self.queue_parked[qi] = true;
        // If the queue already has space the first attempt (next cycle)
        // must run; otherwise the enabling pop will set the wake flag.
        if self.queues.len(qi) < self.tm.queue_capacity && !self.queue_waked[qi] {
            self.queue_waked[qi] = true;
            self.waked_queues.push(qi as u32);
        }
    }

    fn park_flit(&mut self, fi: usize) {
        let f = &self.flits[fi];
        let (serial, route, value) = (f.serial, f.route, f.value);
        self.park_token(serial, route, value);
        self.flits[fi].alive = false;
    }

    /// Per-grant traversal latency: the nominal link latency, stretched
    /// by a flaky multiplier with the extra cycles charged as link
    /// stalls (mirrored by the compiler's cost penalty); the value is
    /// untouched.
    fn grant_latency(&mut self, lid: usize, route: usize) -> (u64, u64) {
        let base = u64::from(self.tm.link_latency);
        let mut lat = base;
        if self.has_flaky {
            let mult = self.flaky_mult[lid];
            if mult > 1 {
                let extra = base.max(1) * (mult - 1);
                self.stats.link_stall_cycles += extra;
                self.stats.link_stall_by_route[route] += extra;
                lat += extra;
            }
        }
        (lat, base)
    }

    /// Advances the mesh by one cycle.
    ///
    /// Arbitration invariant: among all flits wanting a link this cycle,
    /// the smallest serial wins — exactly the old serial-ordered
    /// full-vector scan. Losers leave the scan for their link's waiter
    /// queue ([`LinkWaiter`]), so a congested link costs one grant per
    /// cycle instead of one scan per blocked flit per cycle.
    fn advance_flits(&mut self) {
        self.deliver_parked();
        if self.flits.is_empty() && self.link_wait_count == 0 {
            return;
        }
        let mut any_removed = false;
        // In-flight flits, in serial order (the vec is kept sorted).
        for fi in 0..self.flits.len() {
            if self.flits[fi].ready_at > self.cycle {
                continue; // still traversing the previous link
            }
            let route = self.flits[fi].route as usize;
            let hop = self.flits[fi].hop;
            let nhops = self.route_hops[route] as usize;
            if hop + 1 >= nhops {
                // The final hop finished a stretched (flaky-link)
                // traversal: deliver now that `ready_at` has arrived.
                self.park_flit(fi);
                any_removed = true;
                self.progressed = true;
                continue;
            }
            let lid = self.route_hop_link[self.route_hop_base[route] as usize + hop] as usize;
            // The link is taken if a smaller-serial flit already grabbed
            // it this cycle, or an earlier-arrived smaller-serial waiter
            // is owed it (granted in the waiter sweep below).
            let lost = self.link_used[lid] == self.cycle
                || self.link_waiters[lid]
                    .front()
                    .is_some_and(|w| w.serial < self.flits[fi].serial);
            if lost {
                let f = &mut self.flits[fi];
                let w = LinkWaiter {
                    serial: f.serial,
                    route: f.route,
                    hop: f.hop,
                    value: f.value,
                    first_attempt: self.cycle,
                };
                f.alive = false;
                any_removed = true;
                let q = &mut self.link_waiters[lid];
                if q.is_empty() {
                    self.waiting_links.push(lid as u32);
                }
                let pos = match q.binary_search_by_key(&w.serial, |p| p.serial) {
                    Ok(_) => unreachable!("flit serials are unique"),
                    Err(p) => p,
                };
                q.insert(pos, w);
                self.link_wait_count += 1;
            } else {
                self.link_used[lid] = self.cycle;
                self.flits[fi].hop += 1;
                let (lat, base) = self.grant_latency(lid, route);
                self.flits[fi].ready_at = self.cycle + lat;
                self.stats.mesh_hops += 1;
                self.progressed = true;
                if self.trace.is_some() {
                    let cycle = self.cycle;
                    if let Some(t) = self.trace.as_deref_mut() {
                        t.grant(lid as u32, route as u32, cycle, lat);
                    }
                }
                if self.flits[fi].hop + 1 >= nhops && lat == base {
                    // Nominal links deliver at grant time (the healthy
                    // fast path); a stretched final hop stays in flight
                    // until `ready_at` and is delivered above.
                    self.park_flit(fi);
                    any_removed = true;
                }
            }
        }
        // One grant per contended link: the head waiter (smallest
        // serial) takes any link no in-flight flit claimed this cycle.
        // Links are independent, so sweep order is immaterial.
        if self.link_wait_count > 0 {
            let mut wl = std::mem::take(&mut self.waiting_links);
            wl.retain(|&l| {
                let lid = l as usize;
                if self.link_used[lid] == self.cycle {
                    return true; // lost to a smaller-serial in-flight flit
                }
                let w = self.link_waiters[lid]
                    .pop_front()
                    .expect("waiting_links tracks non-empty queues");
                self.link_wait_count -= 1;
                let route = w.route as usize;
                // All cycles spent waiting, one stall per blocked cycle.
                let stall = self.cycle - w.first_attempt;
                self.stats.link_stall_cycles += stall;
                self.stats.link_stall_by_route[route] += stall;
                self.link_used[lid] = self.cycle;
                let (lat, base) = self.grant_latency(lid, route);
                let hop = w.hop + 1;
                self.stats.mesh_hops += 1;
                self.progressed = true;
                if self.trace.is_some() {
                    let cycle = self.cycle;
                    if let Some(t) = self.trace.as_deref_mut() {
                        t.stall(lid as u32, route as u32, w.first_attempt, stall);
                        t.grant(lid as u32, route as u32, cycle, lat);
                    }
                }
                if hop + 1 >= self.route_hops[route] as usize && lat == base {
                    self.park_token(w.serial, w.route, w.value);
                } else {
                    // Re-enters the in-flight scan (a stretched final hop
                    // parks there once `ready_at` arrives).
                    let f = Flit {
                        route: w.route,
                        hop,
                        value: w.value,
                        alive: true,
                        serial: w.serial,
                        ready_at: self.cycle + lat,
                    };
                    let pos = self.flits.partition_point(|x| x.serial < f.serial);
                    self.flits.insert(pos, f);
                }
                !self.link_waiters[lid].is_empty()
            });
            self.waiting_links = wl;
        }
        if any_removed {
            self.flits.retain(|f| f.alive);
        }
    }

    /// Units holding candidates, in ascending unit order (issue priority
    /// is by unit index, exactly like the old full-array scan). Source is
    /// `cand_units`, which — unlike the issue bitmaps — still contains the
    /// parked-backlog units the issue pass deregistered.
    fn sorted_cand_units(&self) -> Vec<u32> {
        let mut units = self.cand_units.clone();
        units.sort_unstable();
        units
    }

    fn group_logic(&mut self) {
        if !self.tm.exclusive_groups {
            return;
        }
        if self.cycle < self.switch_until {
            self.stats.switch_stall_cycles += 1;
            return;
        }
        let idle = self.cycle.saturating_sub(self.last_active_fire);
        if idle <= u64::from(self.tm.idle_switch_threshold) {
            return;
        }
        // Only switch once the active group is truly drained: no tokens in
        // flight toward it (a transient memory/route stall is not a phase
        // boundary). A long stall overrides the drain check — the pending
        // tokens may themselves depend on another group's output.
        let drained = self
            .group_inflight
            .get(self.active_group as usize)
            .copied()
            .unwrap_or(0)
            == 0;
        if !drained && idle <= u64::from(self.tm.idle_switch_threshold) + 4 {
            return;
        }
        // Active group is idle: find another group with waiting candidates.
        // The group-candidate counters make the common no-switch case O(1):
        // a candidate outside the active group exists iff the total exceeds
        // the active group's share.
        if self.cand_count <= self.grp_cand_total {
            return;
        }
        let mut target: Option<u16> = None;
        'outer: for &ui in &self.sorted_cand_units() {
            for &n in &self.unit_candidates[ui as usize] {
                let g = self.node_group[n as usize];
                if g != self.active_group {
                    target = Some(g);
                    break 'outer;
                }
            }
        }
        if let Some(g) = target {
            self.active_group = g;
            self.switch_until = self.cycle + u64::from(self.tm.group_switch_cost);
            self.last_active_fire = self.switch_until;
            self.stats.group_switches += 1;
            if self.trace.is_some() {
                let (cycle, cost) = (self.cycle, u64::from(self.tm.group_switch_cost));
                if let Some(t) = self.trace.as_deref_mut() {
                    t.switch(cycle, cost, g);
                }
            }
            self.recompute_group_counts();
        }
    }

    /// Issues on one loop unit: evaluate the whole header cluster to
    /// fixpoint (each member at most once per cycle) — the paper's Loop
    /// operator sustains one iteration per cycle.
    fn issue_loop_unit(&mut self, ui: usize) {
        let mut fired_any = false;
        let mut guard = 0usize;
        loop {
            let mut fired_round = false;
            let len = self.unit_candidates[ui].len();
            for _ in 0..len {
                let Some(&n) = self.unit_candidates[ui].front() else {
                    break;
                };
                if self.last_fire_cycle[n as usize] == self.cycle
                    || (self.track_groups && self.node_group[n as usize] != self.active_group)
                {
                    // Keep waiting without losing the slot: a front-to-back
                    // rotation is pop+requeue minus the membership/counter
                    // churn (which cancels exactly).
                    self.unit_candidates[ui].rotate_left(1);
                    continue;
                }
                self.pop_candidate(ui);
                if self.try_fire(n) {
                    fired_round = true;
                    fired_any = true;
                }
            }
            guard += 1;
            if !fired_round || guard > 64 {
                break;
            }
        }
        if fired_any {
            self.progressed = true;
            self.unit_free_at[ui] = self.cycle + self.fire_occ;
        }
    }

    fn issue(&mut self) {
        if self.tm.exclusive_groups && self.cycle < self.switch_until {
            return; // the array is stalled while configurations change
        }
        // Visit only units holding candidates, in ascending unit order —
        // the same priority as the old 0..nunits scan. A unit activated
        // *during* the pass (e.g. a producer unblocked by a queue pop)
        // joins this cycle's walk iff its index is still ahead of the
        // cursor, exactly as the linear scan would have reached it:
        // `register_unit` sets it in `unit_work`, which the walk drains
        // lowest bit first, and anything at or behind the cursor waits in
        // `unit_next` for the next pass.
        debug_assert!(self.unit_work.iter().all(|&w| w == 0));
        std::mem::swap(&mut self.unit_work, &mut self.unit_next);
        self.issue_floor = 0;
        let mut wi = 0usize;
        loop {
            while wi < self.unit_work.len() && self.unit_work[wi] == 0 {
                wi += 1;
            }
            let Some(word) = self.unit_work.get_mut(wi) else {
                break;
            };
            let ui = wi * 64 + word.trailing_zeros() as usize;
            *word &= *word - 1;
            self.issue_floor = ui + 1;
            // Leaving the active set; firing/requeueing below re-adds.
            self.unit_queued[ui] = false;
            if self.unit_free_at[ui] > self.cycle {
                // Busy until a future cycle: stay registered, skip work.
                self.register_unit(ui);
                continue;
            }
            if self.unit_candidates[ui].is_empty() {
                continue; // drained earlier this cycle (stale entry)
            }
            if self.track_groups && self.unit_grp_cands[ui] == 0 {
                // Every candidate belongs to a parked group: a full pass
                // would rotate the deque back to its start and fire
                // nothing. Deregister — idle cycles must not re-walk the
                // unit; `cand_units` keeps it reachable and the group
                // switch (or an active-group arrival) re-registers it.
                continue;
            }
            if ui >= self.first_loop_unit {
                self.issue_loop_unit(ui);
            } else {
                // Pop candidates until one fires (or none can).
                let mut tried = 0usize;
                let max_tries = self.unit_candidates[ui].len();
                while tried < max_tries {
                    let Some(&n) = self.unit_candidates[ui].front() else {
                        break;
                    };
                    if self.track_groups && self.node_group[n as usize] != self.active_group {
                        // Wrong group: keep waiting without burning the
                        // slot (rotation == pop+requeue, counters cancel).
                        self.unit_candidates[ui].rotate_left(1);
                        tried += 1;
                        continue;
                    }
                    self.pop_candidate(ui);
                    if self.try_fire(n) {
                        self.progressed = true;
                        break;
                    }
                    tried += 1;
                }
            }
            if !self.unit_candidates[ui].is_empty() {
                self.register_unit(ui);
            }
        }
        self.issue_floor = usize::MAX;
    }

    fn pending_work(&self) -> bool {
        self.cand_count > 0
            || !self.events.is_empty()
            || !self.flits.is_empty()
            || self.link_wait_count > 0
            || self.parked_count > 0
    }

    fn run_to_quiescence(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let mut idle_streak = 0u64;
        while self.pending_work() {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
            self.progressed = false;
            self.process_events();
            self.advance_flits();
            self.group_logic();
            self.issue();
            if self.trace.is_some() {
                let cycle = self.cycle;
                let qd = self.events.len() as u64;
                let inflight = (self.flits.len() + self.link_wait_count + self.parked_count) as u64;
                if let Some(t) = self.trace.as_deref_mut() {
                    t.counters(cycle, qd, inflight);
                }
            }
            if self.progressed {
                idle_streak = 0;
                self.cycle += 1;
                continue;
            }
            // Nothing happened: fast-forward to the next interesting cycle.
            // All scans below touch only the registered-unit bitmap, so an
            // idle machine costs O(units / 64 + active units).
            let mut next: Option<u64> = self.events.next_at();
            if !self.flits.is_empty() || self.link_wait_count > 0 {
                // In-transit and link-blocked flits arbitrate every cycle.
                next = Some(next.map_or(self.cycle + 1, |n| n.min(self.cycle + 1)));
            }
            // Parked flits add no wakeup of their own: their queues only
            // gain space through a firing, so the next state change is
            // bounded by the other sources below; bulk stall accounting
            // (delivery_cycle - first_attempt) is unaffected by skipped
            // cycles. If nothing else is pending, the machine is provably
            // wedged and the idle streak below diagnoses the deadlock.
            if self.tm.exclusive_groups {
                if self.switch_until > self.cycle {
                    next = Some(next.map_or(self.switch_until, |n| n.min(self.switch_until)));
                } else if self.cand_count > self.grp_cand_total {
                    // O(1) "any waiter outside the active group?" — the
                    // group-candidate counters make the old active-unit
                    // scan unnecessary.
                    let t = self.last_active_fire + u64::from(self.tm.idle_switch_threshold) + 1;
                    let t = t.max(self.cycle + 1);
                    next = Some(next.map_or(t, |n| n.min(t)));
                }
            }
            // Units busy in the future holding candidates.
            for (wi, &word) in self.unit_next.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let ui = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if !self.unit_candidates[ui].is_empty() && self.unit_free_at[ui] > self.cycle {
                        let t = self.unit_free_at[ui];
                        next = Some(next.map_or(t, |n| n.min(t)));
                    }
                }
            }
            match next {
                Some(t) if t > self.cycle => {
                    self.cycle = t;
                    idle_streak = 0;
                }
                _ => {
                    idle_streak += 1;
                    self.cycle += 1;
                    if idle_streak > 64 {
                        let waiting: Vec<u32> = self
                            .unit_candidates
                            .iter()
                            .flatten()
                            .copied()
                            .take(8)
                            .collect();
                        return Err(SimError::Deadlock {
                            cycle: self.cycle,
                            detail: format!(
                                "{} flits ({} blocked at destination), {} events, waiting nodes {:?}",
                                self.flits.len() + self.link_wait_count + self.parked_count,
                                self.parked_count,
                                self.events.len(),
                                waiting
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}
