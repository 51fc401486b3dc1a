//! Full-stack execution of a `.mar` program: parse → check → lower, then
//! the shared verified pipeline ([`marionette::pipeline`]: compile →
//! bitstream round-trip → cycle-level simulation) with every preset's
//! run checked bit-for-bit against the interpreter [`Reference`]. This
//! module adds the front end, the reference interpretation and the
//! [`DriverError`]/[`PresetRun`] vocabulary; it is the engine behind the
//! `marc` CLI, `mard` and the golden example tests.

use crate::ast;
use crate::diag::Diagnostic;
use crate::lower::lower;
use crate::parser::parse;
use crate::sema::check;
use marionette::pipeline::{self, PipelineError, Stages};
use marionette::runner::{self_heal, HealStages};
use marionette::sim::{EngineKind, FaultSet, RunResult, RunSpec};
use marionette_arch::Architecture;
use marionette_cdfg::interp::{interpret_with_budget, ExecMode, InterpError};
use marionette_cdfg::value::{compare_sink_maps as compare_sinks, stream_mismatch, Value};
use marionette_cdfg::Cdfg;
use std::fmt;

pub use marionette::pipeline::{Compiled, Reference};

/// Firing budget for the reference interpretations.
pub const INTERP_BUDGET: u64 = 200_000_000;

/// Default cycle budget per simulated preset.
pub const DEFAULT_MAX_CYCLES: u64 = 200_000_000;

/// A failure anywhere in the source-to-silicon pipeline.
#[derive(Debug)]
pub enum DriverError {
    /// Lexing or parsing failed.
    Parse(Diagnostic),
    /// Semantic checks failed.
    Sema(Vec<Diagnostic>),
    /// The reference interpreter failed (or its two steering modes
    /// disagreed, which indicates an operator-semantics bug).
    Interp(InterpError),
    /// The two interpreter modes disagreed.
    Modes(String),
    /// Placement/routing failed on a preset.
    Compile {
        /// Preset short tag.
        preset: String,
        /// Compiler error.
        e: marionette::compiler::PlaceError,
    },
    /// The configuration bitstream did not round-trip.
    Bitstream {
        /// Preset short tag.
        preset: String,
        /// Decoder error text.
        detail: String,
    },
    /// Simulation failed on a preset.
    Sim {
        /// Preset short tag.
        preset: String,
        /// Simulator error.
        e: marionette::sim::SimError,
    },
    /// Simulated results diverged from the reference interpreter.
    Mismatch {
        /// Preset short tag.
        preset: String,
        /// First mismatch description.
        detail: String,
    },
    /// A tenancy partition layout is invalid (overlap, off-fabric, …).
    Partition(marionette::compiler::PartitionError),
    /// Per-partition bitstreams could not be merged into one
    /// multi-tenant image (cross-partition route, stray node, …).
    Image(marionette::isa::ImageError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Parse(d) => write!(f, "parse: {}", d.message),
            DriverError::Sema(ds) => {
                write!(
                    f,
                    "{} semantic error(s); first: {}",
                    ds.len(),
                    ds[0].message
                )
            }
            DriverError::Interp(e) => write!(f, "reference interpreter: {e}"),
            DriverError::Modes(d) => write!(f, "interpreter steering modes disagree: {d}"),
            DriverError::Compile { preset, e } => write!(f, "compile on {preset}: {e}"),
            DriverError::Bitstream { preset, detail } => {
                write!(f, "bitstream round-trip on {preset}: {detail}")
            }
            DriverError::Sim { preset, e } => write!(f, "simulate on {preset}: {e}"),
            DriverError::Mismatch { preset, detail } => {
                write!(f, "sim diverges from the reference on {preset}: {detail}")
            }
            DriverError::Partition(e) => write!(f, "partition layout: {e}"),
            DriverError::Image(e) => write!(f, "multi-tenant image: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl DriverError {
    /// A pipeline stage failure `e` on `preset`.
    pub fn stage(preset: &str, e: PipelineError) -> Self {
        let preset = preset.to_string();
        match e {
            PipelineError::Compile(e) => DriverError::Compile { preset, e },
            PipelineError::Bitstream(e) => DriverError::Bitstream {
                preset,
                detail: e.to_string(),
            },
            PipelineError::Sim(e) => DriverError::Sim { preset, e },
            PipelineError::Verify(m) => DriverError::Mismatch {
                preset,
                detail: m.detail,
            },
        }
    }
}

/// Parses, checks and lowers source text.
///
/// # Errors
/// Returns [`DriverError::Parse`] or [`DriverError::Sema`].
pub fn frontend(src: &str) -> Result<(ast::Program, Cdfg), DriverError> {
    let p = parse(src).map_err(DriverError::Parse)?;
    check(&p).map_err(DriverError::Sema)?;
    let g = lower(&p);
    Ok((p, g))
}

/// Types raw `NAME=VALUE` parameter overrides from a program's parameter
/// declarations (`ast::Program::params`). Undeclared names are passed
/// through by value shape so the reference interpreter reports the typed
/// [`InterpError::UnknownParam`].
///
/// # Errors
/// Returns `param NAME: ...` when a value does not parse as its type.
pub fn typed_overrides(
    params: &[ast::ParamDecl],
    raw: &[(String, String)],
) -> Result<Vec<(String, Value)>, String> {
    let mut out = Vec::new();
    for (name, val) in raw {
        let decl = params.iter().find(|d| &d.name.name == name);
        let bad = |what: &str| format!("param {name}: `{val}` is not {what}");
        let v = match decl.map(|d| d.ty) {
            Some(ast::Ty::F32) => Value::F32(val.parse().map_err(|_| bad("an f32"))?),
            Some(ast::Ty::I32) => Value::I32(val.parse().map_err(|_| bad("an i32"))?),
            None => match (val.parse::<i32>(), val.parse::<f32>()) {
                (Ok(v), _) => Value::I32(v),
                (_, Ok(v)) => Value::F32(v),
                _ => return Err(bad("a number")),
            },
        };
        out.push((name.clone(), v));
    }
    Ok(out)
}

/// Interprets `g` in both modes with `overrides` and cross-checks them.
///
/// # Errors
/// Returns [`DriverError::Interp`] (including unknown parameter
/// overrides, surfaced as [`InterpError::UnknownParam`]) or
/// [`DriverError::Modes`].
pub fn reference(
    g: &Cdfg,
    overrides: &[(String, Value)],
    budget: u64,
) -> Result<Reference, DriverError> {
    let ovr: Vec<(&str, Value)> = overrides.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let dropping =
        interpret_with_budget(g, ExecMode::Dropping, &ovr, budget).map_err(DriverError::Interp)?;
    let predicated = interpret_with_budget(g, ExecMode::Predicated, &ovr, budget)
        .map_err(DriverError::Interp)?;
    for arr in &g.arrays {
        let id = g.array_by_name(&arr.name).expect("declared");
        if let Some(m) = stream_mismatch(dropping.memory.array(id), predicated.memory.array(id)) {
            return Err(DriverError::Modes(format!("array {}{m}", arr.name)));
        }
    }
    compare_sinks(&dropping.sinks, &predicated.sinks).map_err(DriverError::Modes)?;
    Ok(Reference {
        dropping,
        predicated,
    })
}

/// One preset's measured, verified run.
#[derive(Clone, Debug)]
pub struct PresetRun {
    /// Preset short tag.
    pub preset: String,
    /// Total cycles to quiescence.
    pub cycles: u64,
    /// Total node firings.
    pub fires: u64,
    /// Cycles flits spent blocked on busy links.
    pub link_stall_cycles: u64,
    /// Cycles stalled on group configuration switches.
    pub switch_stall_cycles: u64,
    /// Number of group switches.
    pub group_switches: u64,
    /// Routed point-to-point connections.
    pub routes: usize,
    /// Mean mesh hops per data route.
    pub mean_data_hops: f64,
    /// Annealing search report, when the mapping explorer ran.
    pub search: Option<marionette::compiler::SearchReport>,
}

impl PresetRun {
    /// Summarizes run `r` of an artifact compiled with `report`.
    pub fn new(
        preset: String,
        r: &RunResult,
        report: &marionette::compiler::CompileReport,
    ) -> Self {
        PresetRun {
            preset,
            cycles: r.stats.cycles,
            fires: r.stats.fires,
            link_stall_cycles: r.stats.link_stall_cycles,
            switch_stall_cycles: r.stats.switch_stall_cycles,
            group_switches: r.stats.group_switches,
            routes: report.routes,
            mean_data_hops: report.mean_data_hops,
            search: report.search.clone(),
        }
    }

    /// The run's counters as JSON object members ending in
    /// `"verified": true`: the run shape `marc --json` and mard share.
    pub fn json_members(&self) -> String {
        format!(
            "\"cycles\": {}, \"fires\": {}, \"link_stall_cycles\": {}, \
             \"switch_stall_cycles\": {}, \"group_switches\": {}, \"routes\": {}, \
             \"mean_data_hops\": {:.3}, \"verified\": true",
            self.cycles,
            self.fires,
            self.link_stall_cycles,
            self.switch_stall_cycles,
            self.group_switches,
            self.routes,
            self.mean_data_hops
        )
    }
}

/// Compiles `g` for `arch` and round-trips the configuration bitstream,
/// without simulating: the compile half of [`run_preset`], split out so
/// a server can cache the artifact and reuse it across requests.
///
/// # Errors
/// Returns [`DriverError::Compile`] or [`DriverError::Bitstream`].
pub fn compile_preset(g: &Cdfg, arch: &Architecture) -> Result<Compiled, DriverError> {
    pipeline::compile(g, arch, &FaultSet::none()).map_err(|e| DriverError::stage(arch.short, e))
}

/// Simulates a pre-compiled preset artifact with `faults` injected and
/// bit-verifies it against `reference` — the simulate half of
/// [`run_preset`], usable with a [`Compiled`] pulled from a cache
/// instead of a fresh compile. Pass [`FaultSet::none`] for a healthy
/// fabric.
///
/// # Errors
/// Returns [`DriverError::Sim`] (including the typed
/// [`marionette::sim::SimError::Fault`] screen when the artifact touches
/// a dead resource) or [`DriverError::Mismatch`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_compiled(
    g: &Cdfg,
    reference: &Reference,
    arch: &Architecture,
    compiled: &Compiled,
    overrides: &[(String, Value)],
    max_cycles: u64,
    faults: &FaultSet,
    // Selects nothing; the next change to perfbench, which passes it, deletes it.
    _engine: EngineKind,
) -> Result<PresetRun, DriverError> {
    let mut spec = RunSpec {
        faults,
        max_cycles,
        tracer: None,
    };
    let r = Stages::new(g, reference, arch, overrides)
        .simulate(compiled, &mut spec)
        .map_err(|e| DriverError::stage(arch.short, e))?;
    Ok(PresetRun::new(arch.short.to_string(), &r, &compiled.report))
}

/// One preset's run, with its fault outcome.
#[derive(Clone, Debug)]
pub struct FaultRun {
    /// The faulted resource (fault-spec syntax, e.g. `pe:1,2`) that
    /// wedged the fault-oblivious bitstream, when one did — in which
    /// case the measurement comes from the fault-aware remap.
    pub wedged: Option<String>,
    /// The verified measurement.
    pub run: PresetRun,
    /// The artifact that ran: the original compile, or the remap.
    pub compiled: Compiled,
}

/// Runs `g` on `arch` as `spec` says (faults, cycle budget, tracer):
/// compiles, round-trips the bitstream, simulates the decoded program
/// and bit-verifies it against `reference` — every array, every sink
/// stream, the out-of-bounds count and the firing count. When the
/// fault-oblivious bitstream touches a dead resource the run self-heals
/// by remap ([`self_heal`]); a remap that still cannot fit
/// ([`DriverError::Compile`]) is the typed "remap infeasible" outcome
/// callers count as a degradation failure.
///
/// # Errors
/// Returns the first [`DriverError`] along whichever pipeline (original
/// or remapped) survives fault screening.
pub fn run_preset(
    g: &Cdfg,
    reference: &Reference,
    arch: &Architecture,
    overrides: &[(String, Value)],
    spec: &mut RunSpec<'_>,
) -> Result<FaultRun, DriverError> {
    let mut stages = Stages::new(g, reference, arch, overrides);
    let healed = self_heal(&mut stages, arch, spec)
        .map_err(|e| DriverError::stage(arch.short, e.into_inner()))?;
    Ok(FaultRun {
        wedged: healed.wedged,
        run: PresetRun::new(arch.short.to_string(), &healed.run, &healed.artifact.report),
        compiled: healed.artifact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
program smoke;
param n: i32 = 6;
input a: i32[8] = [3, 1, 4, 1, 5, 9, 2, 6];
state s: i32[8];

let sum = for i in 0..n with acc = 0 {
  let x = a[i];
  let (y,) = if x & 1 { yield x * 3; } else { yield x; };
  s[i] = y;
  yield acc + y;
};
sink sum = sum;
";

    #[test]
    fn full_stack_on_the_ladder() {
        let (_, g) = frontend(SRC).unwrap();
        let r = reference(&g, &[], INTERP_BUDGET).unwrap();
        for arch in marionette_arch::all_presets() {
            let fr = run_preset(&g, &r, &arch, &[], &mut RunSpec::new(DEFAULT_MAX_CYCLES))
                .unwrap_or_else(|e| panic!("{}: {e}", arch.short));
            assert!(fr.run.cycles > 0);
        }
    }

    #[test]
    fn dead_resource_is_a_typed_fault_not_a_deadlock() {
        let (_, g) = frontend(SRC).unwrap();
        let arch = marionette_arch::marionette_full();
        let compiled = compile_preset(&g, &arch).unwrap();
        let mut faults = FaultSet::new(arch.opts.rows, arch.opts.cols);
        faults.add("pe:0,0".parse().unwrap()).unwrap();
        let mut spec = RunSpec {
            faults: &faults,
            ..RunSpec::new(DEFAULT_MAX_CYCLES)
        };
        let err =
            marionette::sim::run_with(&compiled.prog, &arch.tm, &g.array_inputs(), &[], &mut spec)
                .unwrap_err();
        match err {
            marionette::sim::SimError::Fault { what, .. } => assert_eq!(what, "pe:0,0"),
            other => panic!("expected a typed fault, got {other}"),
        }
    }

    #[test]
    fn heal_loop_remaps_around_a_dead_pe() {
        let (_, g) = frontend(SRC).unwrap();
        let r = reference(&g, &[], INTERP_BUDGET).unwrap();
        let arch = marionette_arch::marionette_full();
        let mut faults = FaultSet::new(arch.opts.rows, arch.opts.cols);
        faults.add("pe:0,0".parse().unwrap()).unwrap();
        let mut spec = RunSpec {
            faults: &faults,
            ..RunSpec::new(DEFAULT_MAX_CYCLES)
        };
        let fr = run_preset(&g, &r, &arch, &[], &mut spec).unwrap();
        assert_eq!(fr.wedged.as_deref(), Some("pe:0,0"));
        assert!(fr.wedged.is_some(), "a dead anchor tile must force a remap");
        assert!(fr.run.cycles > 0);
    }

    #[test]
    fn flaky_links_stretch_cycles_but_never_values() {
        let (_, g) = frontend(SRC).unwrap();
        let r = reference(&g, &[], INTERP_BUDGET).unwrap();
        let arch = marionette_arch::marionette_full();
        let clean = run_preset(&g, &r, &arch, &[], &mut RunSpec::new(DEFAULT_MAX_CYCLES))
            .unwrap()
            .run;
        let (rows, cols) = (arch.opts.rows, arch.opts.cols);
        let mut prev = clean.cycles;
        let mut grew = false;
        for mult in [2u32, 8] {
            // Degrade every mesh link in both directions: any program
            // with at least one cross-tile flit route must slow down.
            let mut faults = FaultSet::new(rows, cols);
            for row in 0..rows {
                for col in 0..cols {
                    if col + 1 < cols {
                        for (a, b) in [((row, col), (row, col + 1)), ((row, col + 1), (row, col))] {
                            faults
                                .add(marionette::sim::FaultSpec::FlakyLink {
                                    from: a,
                                    to: b,
                                    mult,
                                })
                                .unwrap();
                        }
                    }
                    if row + 1 < rows {
                        for (a, b) in [((row, col), (row + 1, col)), ((row + 1, col), (row, col))] {
                            faults
                                .add(marionette::sim::FaultSpec::FlakyLink {
                                    from: a,
                                    to: b,
                                    mult,
                                })
                                .unwrap();
                        }
                    }
                }
            }
            // run_preset bit-verifies against the interpreter, so a
            // value changed by a flaky link would fail here.
            let mut spec = RunSpec {
                faults: &faults,
                ..RunSpec::new(DEFAULT_MAX_CYCLES)
            };
            let fr = run_preset(&g, &r, &arch, &[], &mut spec).unwrap();
            assert!(
                fr.wedged.is_none(),
                "flaky links must not wedge the bitstream"
            );
            assert!(
                fr.run.cycles >= prev,
                "cycles must grow monotonically with the stall multiplier"
            );
            prev = fr.run.cycles;
            grew = grew || fr.run.cycles > clean.cycles;
        }
        assert!(grew, "uniformly flaky mesh must cost cycles");
    }

    #[test]
    fn unknown_param_override_is_typed() {
        let (_, g) = frontend(SRC).unwrap();
        let e = reference(&g, &[("zz".to_string(), Value::I32(1))], INTERP_BUDGET).unwrap_err();
        match e {
            DriverError::Interp(InterpError::UnknownParam { name }) => assert_eq!(name, "zz"),
            other => panic!("expected UnknownParam, got {other}"),
        }
    }

    #[test]
    fn sema_errors_surface_with_spans() {
        let e = frontend("program t; state s: i32[4]; let x = nope + 1;").unwrap_err();
        match e {
            DriverError::Sema(ds) => assert!(ds[0].message.contains("unknown name")),
            other => panic!("expected Sema, got {other}"),
        }
    }
}
