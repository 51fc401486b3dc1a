//! Sequential reference interpreter for CDFG programs.
//!
//! Executes the flat dataflow graph with unbounded FIFO channels until
//! quiescence. Because every operator is a deterministic FIFO consumer the
//! network is a Kahn process network: results are independent of firing
//! order, so this interpreter is the *semantic specification* that the
//! cycle-level simulator (and the golden kernel references) are tested
//! against.
//!
//! Two execution modes exist, mirroring the architectural split the paper
//! draws between dataflow-style and von Neumann-style control handling:
//!
//! - [`ExecMode::Dropping`]: branch steers drop untaken tokens (tagged
//!   dataflow semantics);
//! - [`ExecMode::Predicated`]: branch steers always emit (poison when
//!   untaken) and branch merges pop both sides — predicated execution as
//!   performed by von Neumann PE arrays.
//!
//! Both modes must produce identical results; tests verify this on every
//! kernel and on random programs.

use crate::graph::{Cdfg, NodeId, PortSrc};
use crate::memory::Memory;
use crate::op::{Op, SteerRole};
use crate::value::Value;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Steering semantics for branch-divergence control operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Untaken branch tokens are dropped (dataflow/Marionette execution).
    Dropping,
    /// Untaken branch tokens become poison and both sides fire
    /// (von Neumann predication).
    Predicated,
}

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The program exceeded the firing budget (livelock or unbounded loop).
    FiringBudgetExceeded {
        /// Budget that was exceeded.
        budget: u64,
    },
    /// Tokens were left in channels at quiescence: the graph has a token
    /// rate mismatch (builder bug or hand-constructed graph error).
    ResidualTokens {
        /// Offending `(node, port, count)` triples (truncated to 8).
        leftovers: Vec<(NodeId, usize, usize)>,
    },
    /// A parameter override named no declared parameter.
    UnknownParam {
        /// The unresolved parameter name.
        name: String,
    },
    /// A sink lookup named no sink label.
    UnknownSink {
        /// The unresolved sink label.
        name: String,
    },
    /// A scalar sink lookup found a stream of more or fewer than one value.
    SinkArity {
        /// The sink label.
        name: String,
        /// How many values the sink collected.
        count: usize,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::FiringBudgetExceeded { budget } => {
                write!(f, "firing budget of {budget} exceeded (livelock?)")
            }
            InterpError::ResidualTokens { leftovers } => {
                write!(f, "residual tokens at quiescence: {leftovers:?}")
            }
            InterpError::UnknownParam { name } => write!(f, "no parameter named {name}"),
            InterpError::UnknownSink { name } => write!(f, "no sink named {name}"),
            InterpError::SinkArity { name, count } => {
                write!(
                    f,
                    "sink {name} collected {count} values, expected exactly 1"
                )
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Result of a successful interpretation.
#[derive(Debug, Clone)]
pub struct InterpResult {
    /// Values collected by each sink, in arrival order.
    pub sinks: HashMap<String, Vec<Value>>,
    /// Final memory state.
    pub memory: Memory,
    /// Total node firings.
    pub firings: u64,
}

impl InterpResult {
    /// The single value of a scalar sink.
    ///
    /// # Errors
    /// Returns [`InterpError::UnknownSink`] when no sink has this label
    /// and [`InterpError::SinkArity`] when the sink collected more or
    /// fewer than one value.
    pub fn scalar(&self, name: &str) -> Result<Value, InterpError> {
        let vs = self
            .sinks
            .get(name)
            .ok_or_else(|| InterpError::UnknownSink {
                name: name.to_string(),
            })?;
        if vs.len() != 1 {
            return Err(InterpError::SinkArity {
                name: name.to_string(),
                count: vs.len(),
            });
        }
        Ok(vs[0])
    }
}

/// Per-node sequencing state (Carry and Inv state machines).
#[derive(Clone, Copy, Debug, PartialEq)]
enum SeqState {
    /// Carry waiting for `init` / Inv waiting for `v`.
    Fresh,
    /// Carry in looping state.
    Looping,
    /// Inv holding a value.
    Held(Value),
}

struct Engine<'g> {
    g: &'g Cdfg,
    mode: ExecMode,
    consumers: Vec<Vec<(NodeId, usize)>>,
    /// One FIFO per node input port (flattened).
    queues: Vec<VecDeque<Value>>,
    port_base: Vec<usize>,
    state: Vec<SeqState>,
    params: Vec<Value>,
    memory: Memory,
    sinks: HashMap<String, Vec<Value>>,
    firings: u64,
    ready: VecDeque<NodeId>,
    in_ready: Vec<bool>,
}

/// Default budget: generous enough for the largest evaluation kernels.
pub const DEFAULT_FIRING_BUDGET: u64 = 400_000_000;

/// Interprets a program with parameter overrides (`name -> value`).
///
/// # Errors
/// Returns [`InterpError`] on livelock or token-rate violations.
pub fn interpret(
    g: &Cdfg,
    mode: ExecMode,
    overrides: &[(&str, Value)],
) -> Result<InterpResult, InterpError> {
    interpret_with_budget(g, mode, overrides, DEFAULT_FIRING_BUDGET)
}

/// [`interpret`] with an explicit firing budget.
///
/// # Errors
/// Returns [`InterpError`] on livelock or token-rate violations.
pub fn interpret_with_budget(
    g: &Cdfg,
    mode: ExecMode,
    overrides: &[(&str, Value)],
    budget: u64,
) -> Result<InterpResult, InterpError> {
    let mut params: Vec<Value> = g.params.iter().map(|p| p.default).collect();
    for (name, v) in overrides {
        let id = g
            .param_by_name(name)
            .ok_or_else(|| InterpError::UnknownParam {
                name: (*name).to_string(),
            })?;
        params[id.0 as usize] = *v;
    }
    let mut port_base = Vec::with_capacity(g.nodes.len() + 1);
    let mut total = 0usize;
    for n in &g.nodes {
        port_base.push(total);
        total += n.inputs.len();
    }
    port_base.push(total);
    let mut eng = Engine {
        g,
        mode,
        consumers: g.consumers(),
        queues: vec![VecDeque::new(); total],
        port_base,
        state: vec![SeqState::Fresh; g.nodes.len()],
        params,
        memory: Memory::from_cdfg(g),
        sinks: g
            .sinks()
            .iter()
            .map(|(_, name)| (name.to_string(), Vec::new()))
            .collect(),
        firings: 0,
        ready: VecDeque::new(),
        in_ready: vec![false; g.nodes.len()],
    };
    eng.run(budget)?;
    // Rate-consistency invariant: a quiescent well-formed program leaves no
    // tokens behind.
    let mut leftovers = Vec::new();
    for (id, n) in g.iter_nodes() {
        for port in 0..n.inputs.len() {
            let q = &eng.queues[eng.port_base[id.0 as usize] + port];
            if !q.is_empty() {
                leftovers.push((id, port, q.len()));
                if leftovers.len() >= 8 {
                    break;
                }
            }
        }
    }
    if !leftovers.is_empty() {
        return Err(InterpError::ResidualTokens { leftovers });
    }
    Ok(InterpResult {
        sinks: eng.sinks,
        memory: eng.memory,
        firings: eng.firings,
    })
}

impl<'g> Engine<'g> {
    fn qidx(&self, node: NodeId, port: usize) -> usize {
        self.port_base[node.0 as usize] + port
    }

    /// Peeks the value available at a port without consuming.
    fn peek(&self, node: NodeId, port: usize) -> Option<Value> {
        match self.g.node(node).inputs[port] {
            PortSrc::Imm(v) => Some(v),
            PortSrc::Param(p) => Some(self.params[p.0 as usize]),
            PortSrc::Node(_) => self.queues[self.qidx(node, port)].front().copied(),
            PortSrc::None => None,
        }
    }

    fn avail(&self, node: NodeId, port: usize) -> bool {
        match self.g.node(node).inputs[port] {
            PortSrc::Imm(_) | PortSrc::Param(_) => true,
            PortSrc::Node(_) => !self.queues[self.qidx(node, port)].is_empty(),
            PortSrc::None => false,
        }
    }

    fn connected(&self, node: NodeId, port: usize) -> bool {
        self.g.node(node).inputs[port].is_connected()
    }

    /// Consumes and returns the value at a port (immediates are copied).
    fn pop(&mut self, node: NodeId, port: usize) -> Value {
        match self.g.node(node).inputs[port] {
            PortSrc::Imm(v) => v,
            PortSrc::Param(p) => self.params[p.0 as usize],
            PortSrc::Node(_) => {
                let qi = self.qidx(node, port);
                self.queues[qi].pop_front().expect("pop on empty queue")
            }
            PortSrc::None => panic!("pop on unconnected port"),
        }
    }

    fn emit(&mut self, node: NodeId, v: Value) {
        // Fan the token out to every consumer port.
        let cons = std::mem::take(&mut self.consumers[node.0 as usize]);
        for &(c, port) in &cons {
            let qi = self.qidx(c, port);
            self.queues[qi].push_back(v);
            self.mark_ready(c);
        }
        self.consumers[node.0 as usize] = cons;
    }

    fn mark_ready(&mut self, n: NodeId) {
        if !self.in_ready[n.0 as usize] {
            self.in_ready[n.0 as usize] = true;
            self.ready.push_back(n);
        }
    }

    fn run(&mut self, budget: u64) -> Result<(), InterpError> {
        // Seed: the Start node fires once.
        for (id, n) in self.g.iter_nodes() {
            if matches!(n.op, Op::Start) {
                self.firings += 1;
                self.emit(id, Value::Unit);
            }
            // Nodes with all-immediate connected inputs would livelock;
            // the builder prevents them, but hand-built graphs could not.
        }
        while let Some(n) = self.ready.pop_front() {
            self.in_ready[n.0 as usize] = false;
            // Drain the node: fire as long as it can.
            while self.try_fire(n) {
                self.firings += 1;
                if self.firings > budget {
                    return Err(InterpError::FiringBudgetExceeded { budget });
                }
            }
        }
        Ok(())
    }

    /// Attempts one firing of `n`; returns whether it fired.
    fn try_fire(&mut self, n: NodeId) -> bool {
        let op = self.g.node(n).op;
        match op {
            Op::Start => false, // fired at seed time
            Op::Bin(b) => {
                if !(self.avail(n, 0) && self.avail(n, 1)) {
                    return false;
                }
                let a = self.pop(n, 0);
                let c = self.pop(n, 1);
                self.emit(n, b.eval(a, c));
                true
            }
            Op::Un(u) => {
                if !self.avail(n, 0) {
                    return false;
                }
                let a = self.pop(n, 0);
                self.emit(n, u.eval(a));
                true
            }
            Op::Nl(u) => {
                if !self.avail(n, 0) {
                    return false;
                }
                let a = self.pop(n, 0);
                self.emit(n, u.eval(a));
                true
            }
            Op::Mux => {
                if !(self.avail(n, 0) && self.avail(n, 1) && self.avail(n, 2)) {
                    return false;
                }
                let p = self.pop(n, 0);
                let t = self.pop(n, 1);
                let f = self.pop(n, 2);
                let out = match p.as_bool() {
                    None => Value::Poison,
                    Some(true) => t,
                    Some(false) => f,
                };
                self.emit(n, out);
                true
            }
            Op::Load(arr) => {
                let need_dep = self.connected(n, 1);
                if !self.avail(n, 0) || (need_dep && !self.avail(n, 1)) {
                    return false;
                }
                let idx = self.pop(n, 0);
                if need_dep {
                    self.pop(n, 1);
                }
                let out = if idx.is_poison() {
                    Value::Poison
                } else {
                    self.memory.load(arr, idx.to_i32_lossy())
                };
                self.emit(n, out);
                true
            }
            Op::Store(arr) => {
                let need_dep = self.connected(n, 2);
                if !(self.avail(n, 0) && self.avail(n, 1)) || (need_dep && !self.avail(n, 2)) {
                    return false;
                }
                let idx = self.pop(n, 0);
                let val = self.pop(n, 1);
                if need_dep {
                    self.pop(n, 2);
                }
                if !idx.is_poison() && !val.is_poison() {
                    self.memory.store(arr, idx.to_i32_lossy(), val);
                }
                self.emit(n, Value::Unit);
                true
            }
            Op::Gate => {
                let val_tok = matches!(self.g.node(n).inputs[1], PortSrc::Node(_));
                if !self.avail(n, 0) || (val_tok && !self.avail(n, 1)) {
                    return false;
                }
                let trig = self.pop(n, 0);
                let v = self.pop(n, 1);
                let out = if trig.is_poison() { Value::Poison } else { v };
                self.emit(n, out);
                true
            }
            Op::Steer { sense, role } => {
                if !(self.avail(n, 0) && self.avail(n, 1)) {
                    return false;
                }
                let p = self.pop(n, 0);
                let v = self.pop(n, 1);
                let predicated = self.mode == ExecMode::Predicated && role == SteerRole::Branch;
                if predicated {
                    let out = match p.as_bool() {
                        Some(b) if b == sense => v,
                        _ => Value::Poison,
                    };
                    self.emit(n, out);
                } else {
                    debug_assert!(
                        !(p.is_poison() && role == SteerRole::LoopCtl),
                        "poison predicate reached loop-control steer {n}"
                    );
                    if p.as_bool() == Some(sense) {
                        self.emit(n, v);
                    }
                }
                true
            }
            Op::Merge { role } => {
                let predicated = self.mode == ExecMode::Predicated && role == SteerRole::Branch;
                if predicated {
                    if !(self.avail(n, 0) && self.avail(n, 1) && self.avail(n, 2)) {
                        return false;
                    }
                    let p = self.pop(n, 0);
                    let t = self.pop(n, 1);
                    let f = self.pop(n, 2);
                    let out = match p.as_bool() {
                        None => Value::Poison,
                        Some(true) => t,
                        Some(false) => f,
                    };
                    self.emit(n, out);
                    true
                } else {
                    let Some(p) = self.peek(n, 0) else {
                        return false;
                    };
                    let side = match p.as_bool() {
                        Some(true) => 1,
                        Some(false) => 2,
                        None => {
                            debug_assert!(false, "poison predicate at dropping merge {n}");
                            2
                        }
                    };
                    if !self.avail(n, side) {
                        return false;
                    }
                    self.pop(n, 0);
                    let v = self.pop(n, side);
                    self.emit(n, v);
                    true
                }
            }
            Op::Carry => {
                match self.state[n.0 as usize] {
                    SeqState::Fresh => {
                        if !self.avail(n, 1) {
                            return false;
                        }
                        let init = self.pop(n, 1);
                        self.state[n.0 as usize] = SeqState::Looping;
                        self.emit(n, init);
                        true
                    }
                    SeqState::Looping => {
                        let Some(last) = self.peek(n, 0) else {
                            return false;
                        };
                        // Both arms need the `next` token (use or drop).
                        if !self.avail(n, 2) {
                            return false;
                        }
                        self.pop(n, 0);
                        let next = self.pop(n, 2);
                        if last.as_bool() == Some(false) {
                            self.emit(n, next);
                        } else {
                            // Loop ended (or poisoned): drop and reset.
                            self.state[n.0 as usize] = SeqState::Fresh;
                        }
                        true
                    }
                    SeqState::Held(_) => unreachable!("carry never holds"),
                }
            }
            Op::Inv => match self.state[n.0 as usize] {
                SeqState::Fresh => {
                    if !self.avail(n, 0) {
                        return false;
                    }
                    let v = self.pop(n, 0);
                    self.state[n.0 as usize] = SeqState::Held(v);
                    self.emit(n, v);
                    true
                }
                SeqState::Held(v) => {
                    if !self.avail(n, 1) {
                        return false;
                    }
                    let last = self.pop(n, 1);
                    if last.as_bool() == Some(false) {
                        self.emit(n, v);
                    } else {
                        self.state[n.0 as usize] = SeqState::Fresh;
                    }
                    true
                }
                SeqState::Looping => unreachable!("inv never loops"),
            },
            Op::Sink => {
                if !self.avail(n, 0) {
                    return false;
                }
                let v = self.pop(n, 0);
                let label = self.g.node(n).label.clone().unwrap_or_default();
                self.sinks.entry(label).or_default().push(v);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdfgBuilder;

    fn run_both(g: &Cdfg) -> (InterpResult, InterpResult) {
        let d = interpret(g, ExecMode::Dropping, &[]).expect("dropping mode");
        let p = interpret(g, ExecMode::Predicated, &[]).expect("predicated mode");
        (d, p)
    }

    #[test]
    fn straight_line_add() {
        let mut b = CdfgBuilder::new("t");
        let x = b.imm(2);
        let y = b.imm(40);
        let s = b.add(x, y);
        b.sink("s", s);
        let g = b.finish();
        let (d, p) = run_both(&g);
        assert_eq!(d.scalar("s").unwrap(), Value::I32(42));
        assert_eq!(p.scalar("s").unwrap(), Value::I32(42));
    }

    #[test]
    fn counted_loop_sum() {
        let mut b = CdfgBuilder::new("t");
        let zero = b.imm(0);
        let outs = b.for_range(0, 10, &[zero], |b, i, v| vec![b.add(v[0], i)]);
        b.sink("sum", outs[0]);
        let g = b.finish();
        let (d, p) = run_both(&g);
        assert_eq!(d.scalar("sum").unwrap(), Value::I32(45));
        assert_eq!(p.scalar("sum").unwrap(), Value::I32(45));
    }

    #[test]
    fn zero_trip_loop_bypasses() {
        let mut b = CdfgBuilder::new("t");
        let init = b.imm(7);
        let outs = b.for_range(5, 5, &[init], |b, i, v| vec![b.add(v[0], i)]);
        b.sink("r", outs[0]);
        let g = b.finish();
        let (d, _) = run_both(&g);
        assert_eq!(d.scalar("r").unwrap(), Value::I32(7));
    }

    #[test]
    fn loop_with_step() {
        let mut b = CdfgBuilder::new("t");
        let zero = b.imm(0);
        let outs = b.for_range_step(0, 10, 3, &[zero], |b, i, v| vec![b.add(v[0], i)]);
        b.sink("sum", outs[0]);
        let g = b.finish();
        let (d, _) = run_both(&g);
        assert_eq!(d.scalar("sum").unwrap(), Value::I32(3 + 6 + 9));
    }

    #[test]
    fn nested_loops_with_invariant() {
        // sum_{i=0..4} sum_{j=0..i} (j + K) where K is loop-invariant
        let mut b = CdfgBuilder::new("t");
        let k = b.param("k", 10);
        let zero = b.imm(0);
        let outs = b.for_range(0, 4, &[zero], |b, i, v| {
            let inner = b.for_range(0, i, &[v[0]], |b, j, w| {
                let t = b.add(j, k);
                vec![b.add(w[0], t)]
            });
            vec![inner[0]]
        });
        b.sink("s", outs[0]);
        let g = b.finish();
        let (d, p) = run_both(&g);
        // i=0: nothing; i=1: j=0 -> 10; i=2: 10+11; i=3: 10+11+12
        let expect = 10 + (10 + 11) + (10 + 11 + 12);
        assert_eq!(d.scalar("s").unwrap(), Value::I32(expect));
        assert_eq!(p.scalar("s").unwrap(), Value::I32(expect));
    }

    #[test]
    fn branch_divergence_both_modes() {
        // for i in 0..8 { if i&1 { s += i*2 } else { s -= i } }
        let mut b = CdfgBuilder::new("t");
        let zero = b.imm(0);
        let outs = b.for_range(0, 8, &[zero], |b, i, v| {
            let one = b.imm(1);
            let bit = b.and_(i, one);
            let r = b.if_else(
                bit,
                |b| {
                    let d = b.mul(i, 2.into());
                    vec![b.add(v[0], d)]
                },
                |b| vec![b.sub(v[0], i)],
            );
            vec![r[0]]
        });
        b.sink("s", outs[0]);
        let g = b.finish();
        let (d, p) = run_both(&g);
        let mut s = 0i32;
        for i in 0..8 {
            if i & 1 == 1 {
                s += i * 2;
            } else {
                s -= i;
            }
        }
        assert_eq!(d.scalar("s").unwrap(), Value::I32(s));
        assert_eq!(p.scalar("s").unwrap(), Value::I32(s));
    }

    #[test]
    fn nested_branches() {
        let mut b = CdfgBuilder::new("t");
        let zero = b.imm(0);
        let outs = b.for_range(0, 10, &[zero], |b, i, v| {
            let c1 = b.gt(i, 4.into());
            let r = b.if_else(
                c1,
                |b| {
                    let c2 = b.gt(i, 7.into());
                    let inner = b.if_else(
                        c2,
                        |b| vec![b.add(v[0], 100.into())],
                        |b| vec![b.add(v[0], 10.into())],
                    );
                    vec![inner[0]]
                },
                |b| vec![b.add(v[0], 1.into())],
            );
            vec![r[0]]
        });
        b.sink("s", outs[0]);
        let g = b.finish();
        let (d, p) = run_both(&g);
        // i 0..=4: +1 (5), i 5..=7: +10 (30), i 8,9: +100 (200) => 235
        assert_eq!(d.scalar("s").unwrap(), Value::I32(235));
        assert_eq!(p.scalar("s").unwrap(), Value::I32(235));
    }

    #[test]
    fn memory_kernel() {
        // out[i] = a[i] * 2 + 1
        let mut b = CdfgBuilder::new("t");
        let a = b.array_i32("a", 8, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let out = b.array_i32("out", 8, &[]);
        b.mark_output(out);
        let zero = b.imm(0);
        let _ = b.for_range(0, 8, &[zero], |b, i, v| {
            let x = b.load(a, i);
            let y = b.mul(x, 2.into());
            let z = b.add(y, 1.into());
            b.store(out, i, z);
            vec![v[0]]
        });
        let g = b.finish();
        let (d, p) = run_both(&g);
        for i in 0..8 {
            assert_eq!(d.memory.array(out)[i], Value::I32((i as i32 + 1) * 2 + 1));
            assert_eq!(p.memory.array(out)[i], Value::I32((i as i32 + 1) * 2 + 1));
        }
        assert_eq!(d.memory.oob_events(), 0);
    }

    #[test]
    fn store_in_branch_predicated_skips_poison() {
        // only even i write out[i]
        let mut b = CdfgBuilder::new("t");
        let out = b.array_i32("out", 8, &[]);
        b.mark_output(out);
        let zero = b.imm(0);
        let _ = b.for_range(0, 8, &[zero], |b, i, v| {
            let bit = b.and_(i, 1.into());
            let even = b.lnot(bit);
            let r = b.if_else(
                even,
                |b| {
                    b.store(out, i, i);
                    vec![v[0]]
                },
                |_| vec![v[0]],
            );
            vec![r[0]]
        });
        let g = b.finish();
        let (d, p) = run_both(&g);
        for i in 0..8 {
            let expect = if i % 2 == 0 { i as i32 } else { 0 };
            assert_eq!(d.memory.array(out)[i], Value::I32(expect), "i={i}");
            assert_eq!(p.memory.array(out)[i], Value::I32(expect), "i={i}");
        }
    }

    #[test]
    fn while_loop_collatz() {
        // count steps for 27 to reach 1 (hammock inside while)
        let mut b = CdfgBuilder::new("t");
        let n0 = b.imm(27);
        let c0 = b.imm(0);
        let one = b.imm(1);
        let outs = b.loop_while(
            &[n0, c0],
            |b, vals| b.gt(vals[0], one),
            |b, vals| {
                let n = vals[0];
                let bit = b.and_(n, 1.into());
                let half = b.ashr(n, 1.into());
                let tri = b.mul(n, 3.into());
                let tri1 = b.add(tri, 1.into());
                let next = b.mux(bit, tri1, half);
                let cnt = b.add(vals[1], 1.into());
                vec![next, cnt]
            },
        );
        b.sink("steps", outs[1]);
        let g = b.finish();
        let (d, p) = run_both(&g);
        // reference
        let (mut n, mut c) = (27i64, 0i32);
        while n > 1 {
            n = if n % 2 == 1 { 3 * n + 1 } else { n / 2 };
            c += 1;
        }
        assert_eq!(d.scalar("steps").unwrap(), Value::I32(c));
        assert_eq!(p.scalar("steps").unwrap(), Value::I32(c));
    }

    #[test]
    fn rmw_with_dependence_tokens() {
        // histogram: acc[a[i]] += 1, RMW chained through dep tokens
        let mut b = CdfgBuilder::new("t");
        let a = b.array_i32("a", 8, &[1, 3, 1, 0, 3, 3, 2, 1]);
        let acc = b.array_i32("acc", 4, &[]);
        b.mark_output(acc);
        let zero = b.imm(0);
        let start = b.start_token();
        let _ = b.for_range(0, 8, &[start, zero], |b, i, v| {
            let idx = b.load(a, i);
            let cur = b.load_dep(acc, idx, v[0]);
            let inc = b.add(cur, 1.into());
            let tok = b.store(acc, idx, inc);
            vec![tok, v[1]]
        });
        let g = b.finish();
        let (d, p) = run_both(&g);
        let expect = [1, 3, 1, 3];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(d.memory.array(acc)[i], Value::I32(*e));
            assert_eq!(p.memory.array(acc)[i], Value::I32(*e));
        }
    }

    #[test]
    fn param_override() {
        let mut b = CdfgBuilder::new("t");
        let n = b.param("n", 3);
        let zero = b.imm(0);
        let outs = b.for_range(0, n, &[zero], |b, i, v| vec![b.add(v[0], i)]);
        b.sink("s", outs[0]);
        let g = b.finish();
        let r = interpret(&g, ExecMode::Dropping, &[("n", Value::I32(5))]).unwrap();
        assert_eq!(r.scalar("s").unwrap(), Value::I32(10));
    }

    #[test]
    fn firing_budget_enforced() {
        let mut b = CdfgBuilder::new("t");
        let zero = b.imm(0);
        let outs = b.for_range(0, 1000, &[zero], |b, i, v| vec![b.add(v[0], i)]);
        b.sink("s", outs[0]);
        let g = b.finish();
        let err = interpret_with_budget(&g, ExecMode::Dropping, &[], 100).unwrap_err();
        assert!(matches!(err, InterpError::FiringBudgetExceeded { .. }));
    }

    #[test]
    fn unknown_param_override_is_a_typed_error() {
        let mut b = CdfgBuilder::new("t");
        let n = b.param("n", 4);
        b.sink("n", n);
        let g = b.finish();
        let err = interpret(&g, ExecMode::Dropping, &[("bogus", Value::I32(1))]).unwrap_err();
        assert_eq!(
            err,
            InterpError::UnknownParam {
                name: "bogus".into()
            }
        );
        assert_eq!(err.to_string(), "no parameter named bogus");
    }

    #[test]
    fn unknown_and_nonscalar_sinks_are_typed_errors() {
        let mut b = CdfgBuilder::new("t");
        let zero = b.imm(0);
        let outs = b.for_range(0, 3, &[zero], |b, i, v| {
            let x = b.add(i, 1.into());
            b.sink("stream", x);
            vec![b.add(v[0], i)]
        });
        b.sink("s", outs[0]);
        let g = b.finish();
        let r = interpret(&g, ExecMode::Dropping, &[]).unwrap();
        assert_eq!(
            r.scalar("nope").unwrap_err(),
            InterpError::UnknownSink {
                name: "nope".into()
            }
        );
        assert_eq!(
            r.scalar("stream").unwrap_err(),
            InterpError::SinkArity {
                name: "stream".into(),
                count: 3
            }
        );
        assert_eq!(r.scalar("s").unwrap(), Value::I32(3));
    }
}
