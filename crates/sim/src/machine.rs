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
//! ## Planes
//!
//! Each plane owns its state and its per-cycle step, taking the other
//! planes it touches as explicit `&mut` arguments:
//!
//! - `data`: token queues, operand selectors, candidate worklists and
//!   issue bitmaps, and the one firing rule;
//! - `net`: route tables, mesh flits, link waiters, parked flits, the
//!   control network's transfer slots, dead-link screening;
//! - `ctrl`: the active group, the CCU switch timer, per-group in-flight
//!   counts and group-candidate counters;
//! - `mem`: arrays, the out-of-bounds count, sinks;
//! - the observer (in [`crate::stats`]): every stats counter and trace
//!   event, one method per architectural event.
//!
//! Each cycle runs due events, the network (parked deliveries, then one
//! mesh cycle), the control plane, one data-plane issue pass and the
//! trace counter sample, in that order. A cycle in which nothing moved
//! fast-forwards to the next cycle any plane changes state on its own.
//!
//! Scheduled tokens live in a calendar-queue [`EventWheel`] (O(1) push
//! and pop over a dense horizon, arena payloads, overflow bucket for
//! the rare far-future booking), the machine's one event queue.

use crate::ctrl::Ctrl;
use crate::data::{Data, Reach};
use crate::fault::FaultSet;
use crate::mem::Mem;
use crate::net::Net;
use crate::stats::{Observer, RunStats};
use crate::timing::TimingModel;
use crate::trace::Tracer;
use crate::wheel::EventWheel;
use marionette_cdfg::value::Value;
use marionette_isa::MachineProgram;
use std::collections::HashMap;
use std::fmt;

/// Selects nothing: the [`EventWheel`] is the only event core. Kept only
/// because perfbench names it; the next change to perfbench deletes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The calendar-queue event wheel (see [`crate::wheel`]).
    #[default]
    Wheel,
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

#[derive(Clone, Debug)]
pub(crate) enum EvKind {
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

struct Machine<'p> {
    prog: &'p MachineProgram,
    events: EventWheel<EvKind>,
    cycle: u64,
    progressed: bool,
    data: Data,
    net: Net,
    ctrl: Ctrl,
    mem: Mem,
    obs: Observer,
}

/// How to run a program: the fault set to inject, the cycle budget and
/// an optional trace recorder. Each field
/// is one axis of a run; [`run_with`] takes them all at once.
///
/// ```
/// use marionette_sim::{FaultSet, RunSpec};
///
/// let faults = FaultSet::new(4, 4);
/// let spec = RunSpec { faults: &faults, ..RunSpec::new(1_000) };
/// assert_eq!(spec.max_cycles, 1_000);
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
    /// A healthy, untraced run within `max_cycles`.
    pub fn new(max_cycles: u64) -> Self {
        RunSpec {
            faults: &NO_FAULTS,
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

/// [`run_with`] with the faults and budget spelled out.
///
/// # Errors
/// As [`run_with`].
pub fn run_full(
    prog: &MachineProgram,
    tm: &TimingModel,
    faults: &FaultSet,
    // Selects nothing; the next change to perfbench, which passes it, deletes it.
    _engine: EngineKind,
    inputs: &[(String, Vec<Value>)],
    params: &[(String, Value)],
    max_cycles: u64,
) -> Result<RunResult, SimError> {
    let mut spec = RunSpec {
        faults,
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
    let mut m = Machine::new(prog, tm, spec.faults)?;
    if let Some(tracer) = spec.tracer.as_deref_mut() {
        let mut t = std::mem::take(tracer);
        t.set_cols(prog.cols as usize);
        m.obs.trace = Some(Box::new(t));
    }
    let run = m.apply_workload(inputs, params).and_then(|()| {
        let (data, mut cx) = m.split();
        data.boot(&mut cx);
        m.run_to_quiescence(spec.max_cycles)
    });
    if let Some(tracer) = spec.tracer.as_deref_mut() {
        *tracer = *m.obs.trace.take().expect("tracer installed above");
    }
    run?;
    Ok(m.finish())
}

impl<'p> Machine<'p> {
    fn new(
        prog: &'p MachineProgram,
        tm: &'p TimingModel,
        faults: &FaultSet,
    ) -> Result<Self, SimError> {
        let npes = prog.pe_count();
        let cols = prog.cols as usize;
        if !faults.is_empty() && (faults.cols() != cols || faults.rows() * faults.cols() != npes) {
            return Err(SimError::Fault {
                what: format!("fabric:{}x{}", faults.rows(), faults.cols()),
                detail: format!(
                    "fault set geometry does not match the {}x{} program fabric",
                    npes / cols.max(1),
                    cols
                ),
            });
        }
        let data = Data::new(prog, tm, faults)?;
        let net = Net::new(prog, tm, faults, &data)?;
        Ok(Machine {
            prog,
            events: EventWheel::new(),
            cycle: 0,
            progressed: false,
            ctrl: Ctrl::new(prog, tm, data.units()),
            mem: Mem::new(prog),
            obs: Observer::new(npes, prog.routes.len()),
            data,
            net,
        })
    }

    /// Overwrites array contents / parameter defaults with a workload.
    fn apply_workload(
        &mut self,
        inputs: &[(String, Vec<Value>)],
        params: &[(String, Value)],
    ) -> Result<(), SimError> {
        self.mem.apply(self.prog, inputs)?;
        for (name, v) in params {
            let idx = self
                .prog
                .param_by_name(name)
                .ok_or_else(|| SimError::UnknownParam(name.clone()))?;
            self.data.params[idx as usize] = *v;
        }
        Ok(())
    }

    /// Consumes the machine into its run outputs.
    fn finish(self) -> RunResult {
        let cycles = self.cycle;
        self.mem.finish(RunStats {
            cycles,
            ..self.obs.stats
        })
    }

    /// The data plane and, beside it, the planes a firing reaches.
    fn split(&mut self) -> (&mut Data, Reach<'_>) {
        let cx = Reach {
            cycle: self.cycle,
            ctrl: &mut self.ctrl,
            net: &mut self.net,
            mem: &mut self.mem,
            events: &mut self.events,
            obs: &mut self.obs,
        };
        (&mut self.data, cx)
    }

    fn process_events(&mut self) {
        while let Some(kind) = self.events.pop_due(self.cycle) {
            self.progressed = true;
            match kind {
                EvKind::Deliver {
                    node,
                    port,
                    value,
                    route,
                } => {
                    self.data.deliver(node, port, value, &mut self.ctrl);
                    if let Some(r) = route {
                        self.net.route_arrived(r, &mut self.data, &mut self.ctrl);
                    }
                    self.data.mark_candidate(node, &mut self.ctrl);
                }
                EvKind::SpawnFlit { route, value } => self.net.spawn(route, value, self.cycle),
            }
        }
    }

    fn pending_work(&self) -> bool {
        self.data.cand_count > 0 || !self.events.is_empty() || self.net.in_flight() > 0
    }

    fn run_to_quiescence(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let mut idle_streak = 0u64;
        while self.pending_work() {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
            self.progressed = false;
            self.process_events();
            self.progressed |=
                self.net
                    .step(self.cycle, &mut self.data, &mut self.ctrl, &mut self.obs);
            self.ctrl.step(self.cycle, &mut self.data, &mut self.obs);
            let (data, mut cx) = self.split();
            self.progressed |= data.issue(&mut cx);
            let (events, net) = (&self.events, &self.net);
            self.obs
                .counters(self.cycle, || (events.len() as u64, net.in_flight() as u64));
            if self.progressed {
                idle_streak = 0;
                self.cycle += 1;
                continue;
            }
            // Nothing happened: fast-forward to the next cycle any plane
            // changes state on its own. Parked flits add no wakeup of
            // their own: their queues only gain space through a firing,
            // so the next state change is bounded by the other sources;
            // bulk stall accounting (delivery_cycle - first_attempt) is
            // unaffected by skipped cycles. If nothing else is pending,
            // the machine is provably wedged and the idle streak below
            // diagnoses the deadlock.
            let cycle = self.cycle;
            let next = [
                self.events.next_at(),
                // In-transit and link-blocked flits arbitrate every cycle.
                self.net.moving().then_some(cycle + 1),
                self.ctrl.next_wake(cycle, self.data.cand_count),
                self.data.next_free(cycle),
            ]
            .into_iter()
            .flatten()
            .min();
            match next {
                Some(t) if t > cycle => {
                    self.cycle = t;
                    idle_streak = 0;
                }
                _ => {
                    idle_streak += 1;
                    self.cycle += 1;
                    if idle_streak > 64 {
                        let waiting: Vec<u32> = self
                            .data
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
                                self.net.in_flight(),
                                self.net.parked_count,
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
