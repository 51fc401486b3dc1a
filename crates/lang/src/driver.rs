//! Full-stack execution of a `.mar` program: parse → check → lower →
//! compile → bitstream round-trip → cycle-level simulation, with every
//! preset's simulation checked bit-for-bit against the reference
//! interpreter. This is the engine behind the `marc` CLI and the golden
//! example tests.

use crate::ast;
use crate::diag::Diagnostic;
use crate::lower::lower;
use crate::parser::parse;
use crate::sema::check;
use marionette::runner::{compile_for_arch_with_faults, self_heal, HealError, HealStages};
use marionette::sim::{
    run_lanes_full, run_with, EngineKind, FaultSet, LaneSpec, RunSpec, SimError,
};
use marionette_arch::Architecture;
use marionette_cdfg::interp::{interpret_with_budget, ExecMode, InterpError, InterpResult};
use marionette_cdfg::value::{compare_sink_maps as compare_sinks, stream_mismatch, Value};
use marionette_cdfg::Cdfg;
use std::fmt;

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

/// The program's reference semantics: both interpreter steering modes,
/// cross-checked against each other.
#[derive(Debug)]
pub struct Reference {
    /// Dropping-mode interpretation (the specification).
    pub dropping: InterpResult,
    /// Predicated-mode interpretation (fires both branch sides).
    pub predicated: InterpResult,
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

/// A compiled, bitstream-round-tripped preset artifact: the unit the
/// `mard` content-addressed cache stores and replays. The program held
/// here is the *decoded* form of `bitstream`, so a consumer simulating
/// `prog` exercises exactly what a cold full-stack run would.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Decoded machine program (what the simulator runs).
    pub prog: marionette::isa::MachineProgram,
    /// Encoded configuration bitstream (what a cache persists; decoding
    /// these bytes yields `prog`).
    pub bitstream: Vec<u8>,
    /// Compilation report (route stats, search report).
    pub report: marionette::compiler::CompileReport,
}

/// Compiles `g` for `arch` and round-trips the configuration bitstream,
/// without simulating: the compile half of [`run_preset`], split out so
/// a server can cache the artifact and reuse it across requests.
///
/// # Errors
/// Returns [`DriverError::Compile`] or [`DriverError::Bitstream`].
pub fn compile_preset(g: &Cdfg, arch: &Architecture) -> Result<Compiled, DriverError> {
    compile_preset_faulted(g, arch, &FaultSet::none())
}

/// [`compile_preset`] with `faults` as the avoid-mask: dead resources
/// are masked out of placement/routing and flaky links are penalized.
/// An empty fault set is bit-identical to [`compile_preset`].
///
/// # Errors
/// Returns [`DriverError::Compile`] or [`DriverError::Bitstream`].
pub fn compile_preset_faulted(
    g: &Cdfg,
    arch: &Architecture,
    faults: &FaultSet,
) -> Result<Compiled, DriverError> {
    let preset = arch.short.to_string();
    let (prog, report) =
        compile_for_arch_with_faults(g, arch, faults).map_err(|e| DriverError::Compile {
            preset: preset.clone(),
            e,
        })?;
    // Full-stack fidelity: what runs is the decoded bitstream.
    let bitstream = marionette::isa::bitstream::encode(&prog);
    let prog =
        marionette::isa::bitstream::decode(&bitstream).map_err(|e| DriverError::Bitstream {
            preset,
            detail: e.to_string(),
        })?;
    Ok(Compiled {
        prog,
        bitstream,
        report,
    })
}

/// Simulates a pre-compiled preset artifact with `faults` injected and
/// bit-verifies it against `reference` — the simulate half of
/// [`run_preset`], usable with a [`Compiled`] pulled from a cache
/// instead of a fresh compile. Pass [`FaultSet::none`] for a healthy
/// fabric.
///
/// # Errors
/// Returns [`DriverError::Sim`] (including the typed [`SimError::Fault`]
/// screen when the artifact touches a dead resource) or
/// [`DriverError::Mismatch`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_compiled(
    g: &Cdfg,
    reference: &Reference,
    arch: &Architecture,
    compiled: &Compiled,
    overrides: &[(String, Value)],
    max_cycles: u64,
    faults: &FaultSet,
    engine: EngineKind,
) -> Result<PresetRun, DriverError> {
    let mut spec = RunSpec {
        faults,
        engine,
        max_cycles,
        tracer: None,
    };
    let mut stages = PresetStages {
        g,
        reference,
        arch,
        overrides,
    };
    stages.simulate(compiled, &mut spec)
}

/// Simulates N parameter lanes of one pre-compiled artifact in a single
/// batched pass ([`marionette::sim::run_lanes_full`]): the machine is
/// built once and reset between lanes, which is how the `mard` batch
/// endpoint folds same-bitstream requests into one run. Lane `i` is
/// verified against `references[i]` (its own parameter set's reference
/// interpretation); a lane that wedges reports its own error without
/// poisoning its neighbours.
///
/// # Errors
/// The outer `Err` is a [`DriverError::Sim`] from machine construction;
/// per-lane simulation/verification failures come back in the inner
/// results.
///
/// # Panics
/// Panics if `references` and `lane_overrides` lengths differ.
pub fn simulate_compiled_lanes(
    g: &Cdfg,
    references: &[Reference],
    arch: &Architecture,
    compiled: &Compiled,
    lane_overrides: &[Vec<(String, Value)>],
    max_cycles: u64,
    engine: EngineKind,
) -> Result<Vec<Result<PresetRun, DriverError>>, DriverError> {
    assert_eq!(
        references.len(),
        lane_overrides.len(),
        "one reference per lane"
    );
    let preset = arch.short.to_string();
    let inputs = g.array_inputs();
    let lanes: Vec<LaneSpec> = lane_overrides
        .iter()
        .map(|ovr| LaneSpec {
            inputs: inputs.clone(),
            params: ovr.clone(),
        })
        .collect();
    let results = run_lanes_full(
        &compiled.prog,
        &arch.tm,
        &FaultSet::none(),
        engine,
        &lanes,
        max_cycles,
    )
    .map_err(|e| DriverError::Sim {
        preset: preset.clone(),
        e,
    })?;
    Ok(results
        .into_iter()
        .zip(references)
        .map(|(r, reference)| {
            let r = r.map_err(|e| DriverError::Sim {
                preset: preset.clone(),
                e,
            })?;
            verify_vs_reference(g, reference, arch, &preset, &compiled.prog, &r)?;
            Ok(summarize(preset.clone(), &r, &compiled.report))
        })
        .collect())
}

/// Bit-verifies a simulation against the reference interpreter: every
/// array stream, every sink stream, the out-of-bounds event count and
/// the firing count (predicated or dropping, per the timing model).
pub(crate) fn verify_vs_reference(
    g: &Cdfg,
    reference: &Reference,
    arch: &Architecture,
    preset: &str,
    prog: &marionette::isa::MachineProgram,
    r: &marionette::sim::RunResult,
) -> Result<(), DriverError> {
    let fail = |detail: String| DriverError::Mismatch {
        preset: preset.to_string(),
        detail,
    };
    for arr in &g.arrays {
        let id = g.array_by_name(&arr.name).expect("declared");
        let expect = reference.dropping.memory.array(id);
        let got = r
            .array(prog, &arr.name)
            .ok_or_else(|| fail(format!("array {} missing from the simulation", arr.name)))?;
        if let Some(m) = stream_mismatch(expect, got) {
            return Err(fail(format!("array {}{m}", arr.name)));
        }
    }
    compare_sinks(&reference.dropping.sinks, &r.sinks).map_err(fail)?;
    if r.oob_events != reference.dropping.memory.oob_events() {
        return Err(fail(format!(
            "interp saw {} out-of-bounds events, sim {}",
            reference.dropping.memory.oob_events(),
            r.oob_events
        )));
    }
    let expect_fires = if arch.tm.predicated_branches {
        reference.predicated.firings
    } else {
        reference.dropping.firings
    };
    if r.stats.fires != expect_fires {
        return Err(fail(format!(
            "interp fired {expect_fires} times, sim fired {}",
            r.stats.fires
        )));
    }
    Ok(())
}

pub(crate) fn summarize(
    preset: String,
    r: &marionette::sim::RunResult,
    report: &marionette::compiler::CompileReport,
) -> PresetRun {
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

/// One preset's run, with its fault outcome.
#[derive(Clone, Debug)]
pub struct FaultRun {
    /// The faulted resource (fault-spec syntax, e.g. `pe:1,2`) that
    /// wedged the fault-oblivious bitstream, when one did.
    pub wedged: Option<String>,
    /// Whether the measurement comes from a fault-aware remap rather
    /// than the original mapping.
    pub remapped: bool,
    /// The verified measurement.
    pub run: PresetRun,
    /// The artifact that ran: the original compile, or the remap.
    pub compiled: Compiled,
}

/// Runs `g` on `arch` as `spec` says (faults, engine, cycle budget,
/// tracer): compiles, round-trips the bitstream, simulates the decoded
/// program and bit-verifies it against `reference` — every array, every
/// sink stream, the out-of-bounds count and the firing count. When the
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
    let mut stages = PresetStages {
        g,
        reference,
        arch,
        overrides,
    };
    let healed = self_heal(&mut stages, arch, spec).map_err(HealError::into_inner)?;
    Ok(FaultRun {
        remapped: healed.wedged.is_some(),
        wedged: healed.wedged,
        run: healed.run,
        compiled: healed.artifact,
    })
}

/// The driver's compile and simulate stages for one program on one
/// preset.
struct PresetStages<'a> {
    g: &'a Cdfg,
    reference: &'a Reference,
    arch: &'a Architecture,
    overrides: &'a [(String, Value)],
}

impl HealStages for PresetStages<'_> {
    type Artifact = Compiled;
    type Run = PresetRun;
    type Error = DriverError;

    fn compile(&mut self, arch: &Architecture, avoid: &FaultSet) -> Result<Compiled, DriverError> {
        compile_preset_faulted(self.g, arch, avoid)
    }

    fn simulate(
        &mut self,
        compiled: &Compiled,
        spec: &mut RunSpec<'_>,
    ) -> Result<PresetRun, DriverError> {
        let preset = self.arch.short.to_string();
        let inputs = self.g.array_inputs();
        let r = run_with(&compiled.prog, &self.arch.tm, &inputs, self.overrides, spec).map_err(
            |e| DriverError::Sim {
                preset: preset.clone(),
                e,
            },
        )?;
        verify_vs_reference(
            self.g,
            self.reference,
            self.arch,
            &preset,
            &compiled.prog,
            &r,
        )?;
        Ok(summarize(preset, &r, &compiled.report))
    }

    fn sim_error(e: &DriverError) -> Option<&SimError> {
        match e {
            DriverError::Sim { e, .. } => Some(e),
            _ => None,
        }
    }
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
        let inputs = g.array_inputs();
        let err = marionette::sim::run_full(
            &compiled.prog,
            &arch.tm,
            &faults,
            EngineKind::default(),
            &inputs,
            &[],
            DEFAULT_MAX_CYCLES,
        )
        .unwrap_err();
        match err {
            SimError::Fault { what, .. } => assert_eq!(what, "pe:0,0"),
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
        assert!(fr.remapped, "a dead anchor tile must force a remap");
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
            assert!(!fr.remapped, "flaky links must not wedge the bitstream");
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
