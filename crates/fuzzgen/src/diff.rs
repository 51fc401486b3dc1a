//! Differential execution: one fuzz program through the full stack
//! (build → compile → bitstream roundtrip → cycle-level simulation) on
//! every architecture preset, checked bit-for-bit against the reference
//! interpreter.

use crate::ast::Program;
use crate::emit::emit;
use marionette::isa::MachineProgram;
use marionette::runner::{self_heal, HealError, HealStages};
use marionette::sim::{
    run_lanes_full, run_with, EngineKind, FaultSet, LaneSpec, RunSpec, SimError,
};
use marionette_arch::Architecture;
use marionette_cdfg::interp::{interpret_with_budget, ExecMode, InterpResult};
use marionette_cdfg::value::Value;
use marionette_cdfg::Cdfg;
use std::fmt;

/// Firing budget for the reference interpreter (fuzz programs are small).
const INTERP_BUDGET: u64 = 20_000_000;

/// Cycle budget per simulated point.
pub const DEFAULT_MAX_CYCLES: u64 = 20_000_000;

/// What stage of the stack disagreed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The reference interpreter itself failed (generator-invariant bug).
    Interp,
    /// Dropping and predicated interpreter modes disagreed.
    Modes,
    /// Placement/routing failed.
    Compile,
    /// Bitstream roundtrip was lossy.
    Bitstream,
    /// The simulator errored (deadlock/limit).
    Sim,
    /// An output array differed from the interpreter.
    Memory,
    /// A sink stream differed from the interpreter.
    Sinks,
    /// Out-of-bounds counts differed.
    Oob,
    /// Total firing counts differed from the matching interpreter mode.
    Fires,
    /// The `.mar` source round-trip diverged: the emitted source was
    /// rejected by the front end, or the source-lowered graph computed
    /// different values than the direct builder path.
    Source,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::Interp => "interp",
            DivergenceKind::Modes => "modes",
            DivergenceKind::Compile => "compile",
            DivergenceKind::Bitstream => "bitstream",
            DivergenceKind::Sim => "sim",
            DivergenceKind::Memory => "memory",
            DivergenceKind::Sinks => "sinks",
            DivergenceKind::Oob => "oob",
            DivergenceKind::Fires => "fires",
            DivergenceKind::Source => "source",
        };
        f.write_str(s)
    }
}

/// One interp-vs-sim disagreement, precise enough to reproduce.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Preset short tag (empty for preset-independent failures).
    pub preset: String,
    /// Failing stage.
    pub kind: DivergenceKind,
    /// Human-readable detail (first mismatch, error text, ...).
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.preset.is_empty() {
            write!(f, "[{}] {}", self.kind, self.detail)
        } else {
            write!(f, "[{} on {}] {}", self.kind, self.preset, self.detail)
        }
    }
}

/// Aggregate counters for one fully-checked program.
#[derive(Clone, Debug, Default)]
pub struct DiffStats {
    /// Presets simulated.
    pub points: usize,
    /// Total simulated cycles across presets.
    pub cycles: u64,
    /// Total simulated firings across presets.
    pub fires: u64,
    /// Dataflow nodes in the emitted CDFG.
    pub nodes: usize,
    /// Fault-wedged points healed by a fault-aware remap.
    pub remaps: usize,
    /// Fault-wedged points whose remap could not fit on the surviving
    /// fabric (a typed, accepted outcome — not a divergence).
    pub infeasible: usize,
}

/// Differentially checks `p` on `presets`, each simulation run as
/// `spec` says (faults, engine, cycle budget, tracer).
///
/// The dropping-mode interpretation is the specification; each preset's
/// simulation (on the bitstream-decoded program) must match it bit for
/// bit in final array memory, every sink stream, and out-of-bounds
/// counts. Total firing counts must match the interpreter running in the
/// preset's own steering mode (predicated presets fire both branch
/// sides).
///
/// With faults injected this exercises the self-healing remap loop
/// ([`self_heal`]): a fault-oblivious bitstream that touches a dead
/// resource is recompiled around the faults and the remap must still
/// match the reference interpreter bit for bit. Flaky links may stretch
/// cycles but never change values. A remap that cannot fit on the
/// surviving fabric is the typed, accepted outcome counted in
/// [`DiffStats::infeasible`] — only the original healthy compile failing
/// is a [`DivergenceKind::Compile`].
///
/// # Errors
/// Returns the first [`Divergence`] in preset order.
pub fn diff_program(
    p: &Program,
    presets: &[Architecture],
    check_fires: bool,
    spec: &mut RunSpec<'_>,
) -> Result<DiffStats, Divergence> {
    let g = emit(p);
    let reference = interp_pair(&g)?;
    let mut stats = DiffStats {
        nodes: g.nodes.len(),
        ..DiffStats::default()
    };
    check_presets(&g, &reference, presets, check_fires, spec, &mut stats)?;
    Ok(stats)
}

/// Lane-batched differential check — the `fuzz_stack --lanes` axis.
///
/// Each preset compiles once and simulates `lanes` identical workloads
/// of the bitstream in one batched [`marionette::sim::run_lanes_full`] pass;
/// **every** lane must match the reference interpretation bit for bit
/// and report the same cycle count, pinning that machine reuse across
/// lanes (reset instead of rebuild) leaks no state between them.
///
/// # Errors
/// Returns the first [`Divergence`] in preset order; lane-specific
/// failures name the lane in the detail.
pub fn diff_program_lanes(
    p: &Program,
    presets: &[Architecture],
    max_cycles: u64,
    check_fires: bool,
    engine: EngineKind,
    lanes: usize,
) -> Result<DiffStats, Divergence> {
    let g = emit(p);
    let pair = interp_pair(&g)?;
    let mut stats = DiffStats {
        nodes: g.nodes.len(),
        ..DiffStats::default()
    };
    let specs = vec![
        LaneSpec {
            inputs: g.array_inputs(),
            params: Vec::new(),
        };
        lanes.max(1)
    ];
    for arch in presets {
        let fail = |kind: DivergenceKind, detail: String| Divergence {
            preset: arch.short.to_string(),
            kind,
            detail,
        };
        let prog = compile_point(&g, arch, &FaultSet::none())?;
        let results = run_lanes_full(
            &prog,
            &arch.tm,
            &FaultSet::none(),
            engine,
            &specs,
            max_cycles,
        )
        .map_err(|e| fail(DivergenceKind::Sim, e.to_string()))?;
        let mut lane0_cycles = None;
        for (li, r) in results.into_iter().enumerate() {
            let r = r.map_err(|e| fail(DivergenceKind::Sim, format!("lane {li}: {e}")))?;
            verify_point(&g, &pair, arch, &prog, &r, check_fires).map_err(|mut d| {
                d.detail = format!("lane {li}: {}", d.detail);
                d
            })?;
            match lane0_cycles {
                None => lane0_cycles = Some(r.stats.cycles),
                Some(c) if c != r.stats.cycles => {
                    return Err(fail(
                        DivergenceKind::Sim,
                        format!("lane {li} took {} cycles, lane 0 took {c}", r.stats.cycles),
                    ));
                }
                Some(_) => {}
            }
            stats.cycles += r.stats.cycles;
            stats.fires += r.stats.fires;
        }
        stats.points += 1;
    }
    Ok(stats)
}

/// Both interpreter steering modes of one graph, cross-checked.
pub(crate) struct RefPair {
    /// Dropping-mode interpretation (the specification).
    pub dropping: InterpResult,
    /// Predicated-mode interpretation (for firing-count checks).
    pub predicated: InterpResult,
}

/// Interprets `g` in both modes and cross-checks them ([`DivergenceKind::Modes`]).
pub(crate) fn interp_pair(g: &Cdfg) -> Result<RefPair, Divergence> {
    let dropping = interp(g, ExecMode::Dropping)?;
    let predicated = interp(g, ExecMode::Predicated)?;
    // The two steering semantics must agree before we even reach the
    // machine: this is the cheapest cross-check and localizes bugs to the
    // operator semantics rather than the timing machinery.
    compare_results(g, &dropping, &predicated).map_err(|d| Divergence {
        preset: String::new(),
        kind: DivergenceKind::Modes,
        detail: d,
    })?;
    Ok(RefPair {
        dropping,
        predicated,
    })
}

/// Runs `g` through compile → bitstream → simulate on each preset as
/// `spec` says, self-healing on faults, and bit-compares against the
/// reference pair, accumulating into `stats`.
pub(crate) fn check_presets(
    g: &Cdfg,
    pair: &RefPair,
    presets: &[Architecture],
    check_fires: bool,
    spec: &mut RunSpec<'_>,
    stats: &mut DiffStats,
) -> Result<(), Divergence> {
    let inputs = g.array_inputs();
    for arch in presets {
        let mut stages = FuzzStages {
            g,
            pair,
            arch,
            inputs: &inputs,
            check_fires,
            compiles: 0,
        };
        let healed = match self_heal(&mut stages, arch, spec) {
            Ok(h) => h,
            // Typed remap-infeasible: accepted, not a divergence.
            Err(HealError::Remap {
                error: StageError::Diverged(d),
                ..
            }) if d.kind == DivergenceKind::Compile => {
                stats.infeasible += 1;
                continue;
            }
            Err(e) => {
                return Err(match e.into_inner() {
                    StageError::Diverged(d) => d,
                    StageError::Sim(e) => Divergence {
                        preset: arch.short.to_string(),
                        kind: DivergenceKind::Sim,
                        detail: if stages.compiles > 1 {
                            format!("after remap: {e}")
                        } else {
                            e.to_string()
                        },
                    },
                })
            }
        };
        if healed.wedged.is_some() {
            stats.remaps += 1;
        }
        stats.points += 1;
        stats.cycles += healed.run.stats.cycles;
        stats.fires += healed.run.stats.fires;
    }
    Ok(())
}

/// A fuzz stage failure: a simulator error (which may wedge the
/// bitstream and trigger the remap) or any other divergence.
enum StageError {
    Sim(SimError),
    Diverged(Divergence),
}

/// The differential check's compile and simulate stages for one preset.
struct FuzzStages<'a> {
    g: &'a Cdfg,
    pair: &'a RefPair,
    arch: &'a Architecture,
    inputs: &'a [(String, Vec<Value>)],
    check_fires: bool,
    /// Compiles so far: the second one is the remap.
    compiles: u32,
}

impl HealStages for FuzzStages<'_> {
    type Artifact = MachineProgram;
    type Run = marionette::sim::RunResult;
    type Error = StageError;

    fn compile(
        &mut self,
        arch: &Architecture,
        avoid: &FaultSet,
    ) -> Result<MachineProgram, StageError> {
        self.compiles += 1;
        compile_point(self.g, arch, avoid).map_err(StageError::Diverged)
    }

    fn simulate(
        &mut self,
        prog: &MachineProgram,
        spec: &mut RunSpec<'_>,
    ) -> Result<Self::Run, StageError> {
        let r = run_with(prog, &self.arch.tm, self.inputs, &[], spec).map_err(StageError::Sim)?;
        verify_point(self.g, self.pair, self.arch, prog, &r, self.check_fires)
            .map_err(StageError::Diverged)?;
        Ok(r)
    }

    fn sim_error(e: &StageError) -> Option<&SimError> {
        match e {
            StageError::Sim(e) => Some(e),
            StageError::Diverged(_) => None,
        }
    }
}

/// Compiles `g` for `arch` around `avoid` and round-trips the bitstream
/// (full-stack fidelity: the simulator runs the decoded program).
///
/// `compile_with_timing_and_faults` is identical to `compile` when the
/// preset's search budget is off, and uses the timing-derived cost model
/// (the same one `runner::run_kernel` uses) when fuzzing with the
/// mapping explorer enabled.
fn compile_point(
    g: &Cdfg,
    arch: &Architecture,
    avoid: &FaultSet,
) -> Result<MachineProgram, Divergence> {
    let fail = |kind: DivergenceKind, detail: String| Divergence {
        preset: arch.short.to_string(),
        kind,
        detail,
    };
    let (prog, _) =
        marionette::compiler::compile_with_timing_and_faults(g, &arch.opts, &arch.tm, avoid)
            .map_err(|e| fail(DivergenceKind::Compile, e.to_string()))?;
    let bytes = marionette::isa::bitstream::encode(&prog);
    marionette::isa::bitstream::decode(&bytes)
        .map_err(|e| fail(DivergenceKind::Bitstream, e.to_string()))
}

/// Bit-compares one preset's simulation against the reference pair:
/// every array, every sink stream, out-of-bounds counts and (optionally)
/// total firings in the preset's own steering mode.
fn verify_point(
    g: &Cdfg,
    pair: &RefPair,
    arch: &Architecture,
    prog: &marionette::isa::MachineProgram,
    r: &marionette::sim::RunResult,
    check_fires: bool,
) -> Result<(), Divergence> {
    let reference = &pair.dropping;
    let fail = |kind: DivergenceKind, detail: String| Divergence {
        preset: arch.short.to_string(),
        kind,
        detail,
    };
    // Arrays: every declared array, bit for bit.
    for arr in &g.arrays {
        let id = g.array_by_name(&arr.name).expect("declared");
        let expect = reference.memory.array(id);
        let got = r.array(prog, &arr.name).ok_or_else(|| {
            fail(
                DivergenceKind::Memory,
                format!("array {} missing", arr.name),
            )
        })?;
        if let Some(m) = stream_mismatch(expect, got) {
            return Err(fail(
                DivergenceKind::Memory,
                format!("array {}{m}", arr.name),
            ));
        }
    }
    // Sinks: same label set, same streams in arrival order.
    if let Err(d) = compare_sinks(&reference.sinks, &r.sinks) {
        return Err(fail(DivergenceKind::Sinks, d));
    }
    if r.oob_events != reference.memory.oob_events() {
        return Err(fail(
            DivergenceKind::Oob,
            format!(
                "interp {} oob events, sim {}",
                reference.memory.oob_events(),
                r.oob_events
            ),
        ));
    }
    if check_fires {
        let expect = if arch.tm.predicated_branches {
            pair.predicated.firings
        } else {
            reference.firings
        };
        if r.stats.fires != expect {
            return Err(fail(
                DivergenceKind::Fires,
                format!("interp fired {expect}, sim fired {}", r.stats.fires),
            ));
        }
    }
    Ok(())
}

fn interp(g: &Cdfg, mode: ExecMode) -> Result<InterpResult, Divergence> {
    interpret_with_budget(g, mode, &[], INTERP_BUDGET).map_err(|e| Divergence {
        preset: String::new(),
        kind: DivergenceKind::Interp,
        detail: format!("{mode:?}: {e}"),
    })
}

// The shared bit-comparison primitives live next to `Value` itself.
pub(crate) use marionette_cdfg::value::{compare_sink_maps as compare_sinks, stream_mismatch};

/// Interp-mode cross-check: arrays and sinks bit-identical.
fn compare_results(g: &Cdfg, a: &InterpResult, b: &InterpResult) -> Result<(), String> {
    for arr in &g.arrays {
        let id = g.array_by_name(&arr.name).expect("declared");
        if let Some(m) = stream_mismatch(a.memory.array(id), b.memory.array(id)) {
            return Err(format!("array {} (dropping vs predicated){m}", arr.name));
        }
    }
    compare_sinks(&a.sinks, &b.sinks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn a_few_seeds_diff_clean_on_the_ladder() {
        let cfg = GenConfig::default();
        let presets =
            marionette_arch::presets_by_tags_on(marionette_arch::FabricDims::paper(), "M,vN")
                .unwrap();
        for seed in 0..6 {
            let p = generate(seed, &cfg);
            let stats = diff_program(&p, &presets, true, &mut RunSpec::new(DEFAULT_MAX_CYCLES))
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert_eq!(stats.points, 2);
            assert!(stats.nodes > 0);
        }
    }
}
