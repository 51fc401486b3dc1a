//! The data plane: every PE's data flow part and, on Marionette-style
//! models, its parallel control flow part (Fig 4), plus the network
//! switch, memory stream and loop units — their token queues, operand
//! selectors, candidate worklists and issue bitmaps, and the one firing
//! rule all of them share.

use crate::ctrl::Ctrl;
use crate::fault::FaultSet;
use crate::machine::{Delivery, SimError};
use crate::mem::Mem;
use crate::net::Net;
use crate::stats::Observer;
use crate::timing::TimingModel;
use crate::wheel::EventWheel;
use marionette_cdfg::op::{Op, SteerRole};
use marionette_cdfg::value::Value;
use marionette_isa::{MachineProgram, OperandSrc, Placement};
use std::collections::VecDeque;

/// Dense token storage: every capacity-bounded input queue is a
/// fixed-stride ring (`queue_capacity` slots) in one slab, so the hot
/// peek/pop/push paths touch two dense arrays instead of chasing a
/// per-port `VecDeque` allocation. The few loop-unit-internal register
/// queues (combinational same-cycle forwarding, *not* capacity-checked
/// by `output_ready`) keep growable `VecDeque` storage on the side.
pub(crate) struct TokenQueues {
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

    /// Free slots in queue `qi` (`queue_capacity` minus its tokens).
    pub(crate) fn space(&self, qi: usize) -> usize {
        self.cap.saturating_sub(self.len(qi))
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
    pub(crate) fn push_back(&mut self, qi: usize, v: Value) {
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

/// One consumer link out of a producer, flattened so emission and the
/// output capacity check never touch `prog.routes`.
#[derive(Clone, Copy, Debug)]
struct Link {
    dst: u32,
    port: u8,
    /// Loop-unit-internal register edge.
    internal: bool,
    /// Destination input-queue index.
    qi: u32,
    /// Route id (`u32::MAX` = same-tile local edge).
    route: u32,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum SeqState {
    Fresh,
    Looping,
    Held(Value),
}

/// The planes a firing reaches beyond the data plane, borrowed from the
/// machine for one issue pass (or the boot firing).
pub(crate) struct Reach<'a> {
    pub(crate) cycle: u64,
    pub(crate) ctrl: &'a mut Ctrl,
    pub(crate) net: &'a mut Net,
    pub(crate) mem: &'a mut Mem,
    pub(crate) events: &'a mut EventWheel<Delivery>,
    pub(crate) obs: &'a mut Observer,
}

pub(crate) struct Data {
    /// Execution unit per node. Unit index space: data PEs, then control
    /// parts, then net switches, then memory stream units, then one loop
    /// unit per loop-header block.
    node_unit: Vec<usize>,
    /// First unit index that is a loop unit.
    first_loop_unit: usize,
    // Flat, cache-friendly copies of the per-node metadata the hot loop
    // reads every firing (NodeConfig is large and heap-indirected).
    port_base: Vec<usize>,
    /// Operand selectors, flat-indexed by `port_base[node] + port`.
    src_of: Vec<OperandSrc>,
    node_op: Vec<Op>,
    node_place: Vec<Placement>,
    /// Per-node fire-to-result latency (`tm.result_latency(op)`).
    node_lat: Vec<u64>,
    /// `tm.issue_occupancy()`.
    fire_occ: u64,
    /// `tm.predicated_branches`.
    predicated: bool,
    seq_state: Vec<SeqState>,
    pub(crate) params: Vec<Value>,
    last_fire_cycle: Vec<u64>,
    unit_free_at: Vec<u64>,
    pub(crate) unit_candidates: Vec<VecDeque<u32>>,
    in_candidates: Vec<bool>,
    /// Total candidates across all units (== sum of deque lengths).
    pub(crate) cand_count: usize,
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
    pub(crate) queues: TokenQueues,
    /// Tokens emitted but not yet delivered (local/control-network), per
    /// queue: capacity checks count them so deliveries never find a full
    /// queue and per-edge FIFO order is preserved.
    reserved: Vec<usize>,
    /// Producers waiting for a queue to drain.
    blocked_on_queue: Vec<Vec<u32>>,
    /// Consumer links in CSR layout: `links[link_base[n]..link_base[n+1]]`
    /// are node `n`'s.
    link_base: Vec<u32>,
    links: Vec<Link>,
    /// Loop-unit-internal register edge per route: a route between
    /// non-memory operators of one loop-header block is combinational
    /// same-cycle forwarding inside the block's loop unit — exempt from
    /// capacity checks and never on the mesh.
    pub(crate) route_internal: Vec<bool>,
}

impl Data {
    /// Builds the unit topology and queue layout of `prog`; a node placed
    /// on a dead tile of `faults` is a [`SimError::Fault`].
    pub(crate) fn new(
        prog: &MachineProgram,
        tm: &TimingModel,
        faults: &FaultSet,
    ) -> Result<Self, SimError> {
        let npes = prog.pe_count();
        let cols = prog.cols as usize;
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
        let (mut nmem, mut max_bb) = (0, 1);
        for n in &prog.nodes {
            if let Placement::MemUnit { unit } = n.place {
                nmem = nmem.max(unit as usize + 1);
            }
            max_bb = max_bb.max(n.bb as usize + 1);
        }
        // Loop headers: blocks containing a Carry operator. Every header
        // block becomes a dedicated loop unit.
        let mut header_bb = vec![false; max_bb];
        for n in &prog.nodes {
            if matches!(n.op, Op::Carry) {
                header_bb[n.bb as usize] = true;
            }
        }
        let first_loop_unit = 3 * npes + nmem;
        let mut nunits = first_loop_unit;
        let header_unit: Vec<Option<usize>> = header_bb
            .iter()
            .map(|&h| {
                h.then(|| {
                    nunits += 1;
                    nunits - 1
                })
            })
            .collect();
        let port_base: Vec<usize> = std::iter::once(0)
            .chain(prog.nodes.iter().scan(0, |t, n| {
                *t += n.srcs.len();
                Some(*t)
            }))
            .collect();
        let total = port_base[prog.nodes.len()];

        let node_unit: Vec<usize> = prog
            .nodes
            .iter()
            .map(|n| {
                if let (Some(u), false) = (header_unit[n.bb as usize], n.op.is_memory()) {
                    return u;
                }
                match n.place {
                    Placement::Pe { pe } => pe as usize,
                    Placement::CtrlPlane { pe } if tm.ctrl_parallel => npes + pe as usize,
                    Placement::CtrlPlane { pe } => pe as usize,
                    Placement::NetSwitch { sw } => 2 * npes + sw as usize,
                    Placement::MemUnit { unit } => 3 * npes + unit as usize,
                }
            })
            .collect();

        let route_internal: Vec<bool> = prog
            .routes
            .iter()
            .map(|r| {
                let (src, dst) = (&prog.nodes[r.src as usize], &prog.nodes[r.dst as usize]);
                header_bb[src.bb as usize] && dst.bb == src.bb && !dst.op.is_memory()
            })
            .collect();
        let qidx = |r: &marionette_isa::Route| port_base[r.dst as usize] + r.dst_port as usize;
        // Internal register queues may exceed `queue_capacity`: give
        // exactly those growable spill storage instead of a slab ring.
        let mut is_spill = vec![false; total];
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); prog.nodes.len()];
        for (ri, r) in prog.routes.iter().enumerate() {
            consumers[r.src as usize].push(ri as u32);
            if route_internal[ri] {
                is_spill[qidx(r)] = true;
            }
        }
        let mut link_base = Vec::with_capacity(prog.nodes.len() + 1);
        let mut links = Vec::with_capacity(prog.routes.len());
        for c in &consumers {
            link_base.push(links.len() as u32);
            links.extend(c.iter().map(|&ri| {
                let r = &prog.routes[ri as usize];
                Link {
                    dst: r.dst,
                    port: r.dst_port,
                    internal: route_internal[ri as usize],
                    qi: qidx(r) as u32,
                    route: if r.path.len() <= 1 { u32::MAX } else { ri },
                }
            }));
        }
        link_base.push(links.len() as u32);

        let src_of: Vec<OperandSrc> = prog
            .nodes
            .iter()
            .flat_map(|n| n.srcs.iter().copied())
            .collect();
        debug_assert_eq!(src_of.len(), total);
        let nwords = nunits.div_ceil(64);
        Ok(Data {
            node_unit,
            first_loop_unit,
            port_base,
            src_of,
            node_op: prog.nodes.iter().map(|n| n.op).collect(),
            node_place: prog.nodes.iter().map(|n| n.place).collect(),
            node_lat: prog.nodes.iter().map(|n| tm.result_latency(n.op)).collect(),
            fire_occ: tm.issue_occupancy(),
            predicated: tm.predicated_branches,
            seq_state: vec![SeqState::Fresh; prog.nodes.len()],
            params: prog.params.iter().map(|p| p.default).collect(),
            last_fire_cycle: vec![u64::MAX; prog.nodes.len()],
            unit_free_at: vec![0; nunits],
            unit_candidates: vec![VecDeque::new(); nunits],
            in_candidates: vec![false; prog.nodes.len()],
            cand_count: 0,
            unit_next: vec![0; nwords],
            unit_work: vec![0; nwords],
            issue_floor: usize::MAX,
            unit_queued: vec![false; nunits],
            queues: TokenQueues::new(total, tm.queue_capacity, &is_spill),
            reserved: vec![0; total],
            blocked_on_queue: vec![Vec::new(); total],
            link_base,
            links,
            route_internal,
        })
    }

    pub(crate) fn units(&self) -> usize {
        self.unit_free_at.len()
    }

    pub(crate) fn queue_count(&self) -> usize {
        self.reserved.len()
    }

    /// How far ahead of its firing cycle a result can be emitted: the
    /// largest fire-to-result latency of any operator, and at least the
    /// boot emission's one cycle.
    pub(crate) fn max_latency(&self) -> u64 {
        self.node_lat.iter().copied().max().unwrap_or(0).max(1)
    }

    pub(crate) fn qidx(&self, node: u32, port: u8) -> usize {
        self.port_base[node as usize] + port as usize
    }

    /// `node`'s consumer link indices.
    fn links_of(&self, node: u32) -> std::ops::Range<usize> {
        self.link_base[node as usize] as usize..self.link_base[node as usize + 1] as usize
    }

    /// Fires every Start node at cycle 0.
    pub(crate) fn boot(&mut self, cx: &mut Reach) {
        for n in 0..self.node_op.len() {
            if matches!(self.node_op[n], Op::Start) {
                cx.ctrl.active_group = cx.ctrl.group(n as u32);
                self.record_fire(n as u32, false, cx);
                self.emit(n as u32, Value::Unit, 1, cx);
            }
        }
        // `emit` above may have marked candidates before the final Start
        // settled the active group: rebuild the per-group counts.
        cx.ctrl.recompute(self);
    }

    pub(crate) fn mark_candidate(&mut self, node: u32, ctrl: &mut Ctrl) {
        let n = node as usize;
        if !self.in_candidates[n] {
            self.in_candidates[n] = true;
            self.cand_count += 1;
            let u = self.node_unit[n];
            ctrl.candidate_added(u, node);
            self.unit_candidates[u].push_back(node);
            self.register_unit(u);
        }
    }

    /// Registers unit `u` for issue unless it already is: into the
    /// running pass when its index is still ahead of the cursor (as a
    /// linear scan would reach it), else for the next pass.
    pub(crate) fn register_unit(&mut self, u: usize) {
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
    fn pop_candidate(&mut self, unit: usize, ctrl: &mut Ctrl) {
        if let Some(n) = self.unit_candidates[unit].pop_front() {
            self.in_candidates[n as usize] = false;
            self.cand_count -= 1;
            ctrl.candidate_removed(unit, n);
        }
    }

    /// Re-marks every producer in `blocked` as a candidate, in block
    /// order, and empties the list (keeping its capacity).
    pub(crate) fn wake(&mut self, blocked: &mut Vec<u32>, ctrl: &mut Ctrl) {
        for &b in blocked.iter() {
            self.mark_candidate(b, ctrl);
        }
        blocked.clear();
    }

    /// A control-network or local token arrived at `node`'s `port`.
    pub(crate) fn deliver(&mut self, node: u32, port: u8, value: Value, ctrl: &mut Ctrl) {
        let qi = self.qidx(node, port);
        debug_assert!(self.queues.space(qi) > 0, "reservation guarantees space");
        self.reserved[qi] = self.reserved[qi].saturating_sub(1);
        ctrl.token_arrived(node);
        self.queues.push_back(qi, value);
    }

    /// Peeks the operand at flat queue slot `qi` without consuming it.
    #[inline]
    fn peek(&self, qi: usize) -> Option<Value> {
        match self.src_of[qi] {
            OperandSrc::Imm(v) => Some(v),
            OperandSrc::Param(p) => Some(self.params[p as usize]),
            OperandSrc::Route(_) => self.queues.front(qi),
            OperandSrc::None => None,
        }
    }

    /// Consumes the operand previously peeked at `qi`: token queues pop
    /// (waking parked flits and queue-blocked producers); immediates and
    /// params are inexhaustible so consuming them is free.
    fn consume(&mut self, qi: usize, net: &mut Net, ctrl: &mut Ctrl) {
        if matches!(self.src_of[qi], OperandSrc::Route(_)) {
            self.queues.pop_front(qi);
            net.queue_freed(qi);
            if !self.blocked_on_queue[qi].is_empty() {
                let mut blocked = std::mem::take(&mut self.blocked_on_queue[qi]);
                self.wake(&mut blocked, ctrl);
                self.blocked_on_queue[qi] = blocked;
            }
        }
    }

    /// Can the node send to every consumer (queue/flight capacity)?
    /// On the first full consumer, registers the node to be re-marked
    /// when that queue/route drains and reports not-ready.
    fn output_ready(&mut self, node: u32, net: &mut Net) -> bool {
        for li in self.links_of(node) {
            let l = self.links[li];
            if l.internal {
                continue; // loop-unit internal registers
            }
            if l.route != u32::MAX {
                let ri = l.route as usize;
                if net.route_full(ri) {
                    net.blocked_on_route[ri].push(node);
                    return false;
                }
                if net.ctrl_net_latency(ri).is_none() {
                    continue; // mesh flits park at a full destination
                }
            }
            let qi = l.qi as usize;
            if self.queues.len(qi) + self.reserved[qi] >= self.queues.cap {
                self.blocked_on_queue[qi].push(node);
                return false;
            }
        }
        true
    }

    /// The one firing rule: peeks every port in `PORTS` (a constant
    /// bitmask of port offsets), checks output capacity (vacuous for a
    /// sink, which has no outputs), then consumes the ports in ascending
    /// order. `None` — with no state touched beyond the `output_ready`
    /// block registration — when the node cannot fire.
    #[inline]
    fn take<const PORTS: u8>(&mut self, node: u32, cx: &mut Reach) -> Option<[Value; 3]> {
        let pb = self.port_base[node as usize];
        let mut v = [Value::Unit; 3];
        for (k, slot) in v.iter_mut().enumerate() {
            if PORTS >> k & 1 == 1 {
                *slot = self.peek(pb + k)?;
            }
        }
        if !self.output_ready(node, cx.net) {
            return None;
        }
        for k in 0..3 {
            if PORTS >> k & 1 == 1 {
                self.consume(pb + k, cx.net, cx.ctrl);
            }
        }
        Some(v)
    }

    /// Attempts to fire `node`: `Some` when it fired. Each arm names the
    /// ports its operator [`Data::take`]s, then computes the output.
    pub(crate) fn try_fire(&mut self, node: u32, cx: &mut Reach) -> Option<()> {
        let n = node as usize;
        let predicated = self.predicated;
        let branch = |role: SteerRole| predicated && role == SteerRole::Branch;
        let dep = |qi: usize| !matches!(self.src_of[qi], OperandSrc::None);
        let pb = self.port_base[n];
        let select = |[p, t, f]: [Value; 3]| match p.as_bool() {
            None => Value::Poison,
            Some(true) => t,
            Some(false) => f,
        };
        let mut poisoned = false;
        let out = match self.node_op[n] {
            Op::Start => None?,
            Op::Bin(b) => Some(self.take::<0b011>(node, cx).map(|[x, y, _]| b.eval(x, y))?),
            Op::Un(u) => Some(self.take::<0b001>(node, cx).map(|[x, ..]| u.eval(x))?),
            Op::Nl(u) => Some(self.take::<0b001>(node, cx).map(|[x, ..]| u.eval(x))?),
            Op::Merge { role } if !branch(role) => Some(match self.peek(pb)?.as_bool() {
                Some(true) => self.take::<0b011>(node, cx)?[1],
                _ => self.take::<0b101>(node, cx)?[2],
            }),
            Op::Mux | Op::Merge { .. } => Some(select(self.take::<0b111>(node, cx)?)),
            Op::Load(arr) => {
                let [idx, ..] = if dep(pb + 1) {
                    self.take::<0b011>(node, cx)?
                } else {
                    self.take::<0b001>(node, cx)?
                };
                Some(if idx.is_poison() {
                    Value::Poison
                } else {
                    cx.obs.mem(cx.cycle, false, arr.0);
                    cx.mem.load(arr.0 as usize, idx.to_i32_lossy())
                })
            }
            Op::Store(arr) => {
                let [idx, val, _] = if dep(pb + 2) {
                    self.take::<0b111>(node, cx)?
                } else {
                    self.take::<0b011>(node, cx)?
                };
                poisoned = idx.is_poison() || val.is_poison();
                if !poisoned {
                    cx.obs.mem(cx.cycle, true, arr.0);
                    cx.mem.store(arr.0 as usize, idx.to_i32_lossy(), val);
                }
                Some(Value::Unit)
            }
            Op::Gate => {
                let [t, v, _] = self.take::<0b011>(node, cx)?;
                Some(if t.is_poison() { Value::Poison } else { v })
            }
            Op::Steer { sense, role } => {
                let [p, v, _] = self.take::<0b011>(node, cx)?;
                match p.as_bool() == Some(sense) {
                    true => Some(v),
                    false if branch(role) => Some(Value::Poison),
                    false => None,
                }
            }
            Op::Carry if self.seq_state[n] == SeqState::Fresh => {
                let init = self.take::<0b010>(node, cx)?[1];
                self.seq_state[n] = SeqState::Looping;
                Some(init)
            }
            Op::Inv if self.seq_state[n] == SeqState::Fresh => {
                let v = self.take::<0b001>(node, cx)?[0];
                self.seq_state[n] = SeqState::Held(v);
                Some(v)
            }
            // Past the first iteration: a carry forwards its next value
            // and an invariant its held value, until the last-iteration
            // flag ends the loop.
            Op::Carry | Op::Inv => {
                let (last, v) = match self.seq_state[n] {
                    SeqState::Held(v) => (self.take::<0b010>(node, cx)?[1], v),
                    _ => {
                        let [last, _, next] = self.take::<0b101>(node, cx)?;
                        (last, next)
                    }
                };
                if last.as_bool() == Some(false) {
                    Some(v)
                } else {
                    self.seq_state[n] = SeqState::Fresh;
                    None
                }
            }
            Op::Sink => {
                let v = self.take::<0b001>(node, cx)?[0];
                cx.mem.sink(node, v);
                self.record_fire(node, false, cx);
                return Some(());
            }
        };
        self.record_fire(node, poisoned || out.is_some_and(Value::is_poison), cx);
        self.last_fire_cycle[n] = cx.cycle;
        self.unit_free_at[self.node_unit[n]] = cx.cycle + self.fire_occ;
        if let Some(v) = out {
            self.emit(node, v, self.node_lat[n], cx);
        }
        // The node may be immediately ready again.
        self.mark_candidate(node, cx.ctrl);
        Some(())
    }

    fn record_fire(&mut self, node: u32, poisoned: bool, cx: &mut Reach) {
        let (place, group) = (self.node_place[node as usize], cx.ctrl.group(node));
        cx.obs
            .fire(cx.cycle, self.fire_occ, node, place, group, poisoned);
        cx.ctrl.note_fire(group, cx.cycle);
    }

    /// Emits a value to all consumers of `node`, `lat` cycles from now.
    fn emit(&mut self, node: u32, value: Value, lat: u64, cx: &mut Reach) {
        for li in self.links_of(node) {
            let l = self.links[li];
            let qi = l.qi as usize;
            // Combinational forwarding inside a loop unit: same-header
            // operators see the value in the same cycle.
            if l.internal {
                self.queues.push_back(qi, value);
                self.mark_candidate(l.dst, cx.ctrl);
                continue;
            }
            cx.ctrl.token_sent(l.dst);
            let (at, reserve) = if l.route == u32::MAX {
                (cx.cycle + lat, true)
            } else {
                cx.net.launch(l.route as usize, cx.cycle + lat, cx.obs)
            };
            let route = l.route;
            if !reserve {
                cx.net.book(at, route, value);
                continue;
            }
            self.reserved[qi] += 1;
            let d = Delivery {
                node: l.dst,
                port: l.port,
                value,
                route: (route != u32::MAX).then_some(route),
            };
            cx.events.push(at, d);
        }
    }

    /// Issues on unit `ui`: pops candidates in order until one fires (or
    /// none can). A loop unit instead evaluates its whole header cluster
    /// to fixpoint, each member at most once per cycle — the paper's Loop
    /// operator sustains one iteration per cycle.
    fn issue_unit(&mut self, ui: usize, cx: &mut Reach) -> bool {
        let looping = ui >= self.first_loop_unit;
        let mut fired_any = false;
        for _round in 0..65 {
            let mut fired = false;
            for _ in 0..self.unit_candidates[ui].len() {
                let Some(&n) = self.unit_candidates[ui].front() else {
                    break;
                };
                if (looping && self.last_fire_cycle[n as usize] == cx.cycle) || cx.ctrl.parks(n) {
                    // Keep waiting without losing the slot: a front-to-back
                    // rotation is pop+requeue minus the membership/counter
                    // churn (which cancels exactly).
                    self.unit_candidates[ui].rotate_left(1);
                    continue;
                }
                self.pop_candidate(ui, cx.ctrl);
                if self.try_fire(n, cx).is_some() {
                    fired = true;
                    if !looping {
                        return true;
                    }
                }
            }
            fired_any |= fired;
            if !fired || !looping {
                break;
            }
        }
        if fired_any {
            self.unit_free_at[ui] = cx.cycle + self.fire_occ;
        }
        fired_any
    }

    /// The data plane's per-cycle step: one issue pass over the units
    /// holding candidates. Returns whether anything fired.
    pub(crate) fn issue(&mut self, cx: &mut Reach) -> bool {
        if cx.ctrl.switching(cx.cycle) {
            return false; // the array is stalled while configurations change
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
        let mut progressed = false;
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
            if self.unit_free_at[ui] > cx.cycle {
                // Busy until a future cycle: stay registered, skip work.
                self.register_unit(ui);
                continue;
            }
            if self.unit_candidates[ui].is_empty() {
                continue; // drained earlier this cycle (stale entry)
            }
            if cx.ctrl.parks_unit(ui) {
                // Every candidate belongs to a parked group: a full pass
                // would rotate the deque back to its start and fire
                // nothing. Deregister — idle cycles must not re-walk the
                // unit; the control plane keeps it reachable and the group
                // switch (or an active-group arrival) re-registers it.
                continue;
            }
            progressed |= self.issue_unit(ui, cx);
            if !self.unit_candidates[ui].is_empty() {
                self.register_unit(ui);
            }
        }
        self.issue_floor = usize::MAX;
        progressed
    }

    /// The earliest cycle after `cycle` a registered unit holding
    /// candidates comes free, for the idle fast-forward. Touches only the
    /// registered-unit bitmap: O(units / 64 + active units).
    pub(crate) fn next_free(&self, cycle: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        for (wi, &word) in self.unit_next.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let ui = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !self.unit_candidates[ui].is_empty() && self.unit_free_at[ui] > cycle {
                    let t = self.unit_free_at[ui];
                    next = Some(next.map_or(t, |n| n.min(t)));
                }
            }
        }
        next
    }
}
