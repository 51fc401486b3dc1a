//! Differential execution: one fuzz program through the shared verified
//! pipeline ([`marionette::pipeline`]: compile → bitstream round-trip →
//! cycle-level simulation) on every architecture preset, checked
//! bit-for-bit against the interpreter [`Reference`] that
//! [`marionette_lang::driver::reference`] builds. This module adds only
//! the fuzzing vocabulary: [`DivergenceKind`]s and [`DiffStats`].

use crate::ast::Program;
use crate::emit::emit;
use marionette::pipeline::{MismatchKind, PipelineError, Stages};
use marionette::runner::{self_heal, HealError};
use marionette::sim::RunSpec;
use marionette_arch::Architecture;
use marionette_cdfg::Cdfg;
use marionette_lang::driver::{DriverError, Reference};
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
/// `spec` says (faults, cycle budget, tracer).
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
    spec: &mut RunSpec<'_>,
) -> Result<DiffStats, Divergence> {
    let g = emit(p);
    let reference = reference(&g)?;
    let mut stats = DiffStats {
        nodes: g.nodes.len(),
        ..DiffStats::default()
    };
    check_presets(&g, &reference, presets, spec, &mut stats)?;
    Ok(stats)
}

/// Both interpreter steering modes of `g`, cross-checked
/// ([`DivergenceKind::Modes`]), under the fuzzer's own firing budget.
pub(crate) fn reference(g: &Cdfg) -> Result<Reference, Divergence> {
    marionette_lang::driver::reference(g, &[], INTERP_BUDGET).map_err(|e| {
        let (kind, detail) = match e {
            DriverError::Modes(d) => (DivergenceKind::Modes, d),
            e => (DivergenceKind::Interp, e.to_string()),
        };
        Divergence {
            preset: String::new(),
            kind,
            detail,
        }
    })
}

/// A pipeline failure on `arch` as a divergence; `remapped` marks a
/// simulation failure of the self-heal remap.
fn diverged(arch: &Architecture, e: PipelineError, remapped: bool) -> Divergence {
    let (kind, detail) = match e {
        PipelineError::Compile(e) => (DivergenceKind::Compile, e.to_string()),
        PipelineError::Bitstream(e) => (DivergenceKind::Bitstream, e.to_string()),
        PipelineError::Sim(e) if remapped => (DivergenceKind::Sim, format!("after remap: {e}")),
        PipelineError::Sim(e) => (DivergenceKind::Sim, e.to_string()),
        PipelineError::Verify(m) => (
            match m.kind {
                MismatchKind::Array => DivergenceKind::Memory,
                MismatchKind::Sink => DivergenceKind::Sinks,
                MismatchKind::Oob => DivergenceKind::Oob,
                MismatchKind::Fires => DivergenceKind::Fires,
            },
            m.detail,
        ),
    };
    Divergence {
        preset: arch.short.to_string(),
        kind,
        detail,
    }
}

/// Runs `g` through the verified pipeline on each preset as `spec`
/// says, self-healing on faults, and bit-compares against `reference`,
/// accumulating into `stats`.
pub(crate) fn check_presets(
    g: &Cdfg,
    reference: &Reference,
    presets: &[Architecture],
    spec: &mut RunSpec<'_>,
    stats: &mut DiffStats,
) -> Result<(), Divergence> {
    for arch in presets {
        let mut stages = Stages::new(g, reference, arch, &[]);
        let healed = match self_heal(&mut stages, arch, spec) {
            Ok(h) => h,
            // Typed remap-infeasible: accepted, not a divergence.
            Err(HealError::Remap {
                error: PipelineError::Compile(_),
                ..
            }) => {
                stats.infeasible += 1;
                continue;
            }
            Err(e) => return Err(diverged(arch, e.into_inner(), stages.compiles > 1)),
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
            let stats = diff_program(&p, &presets, &mut RunSpec::new(DEFAULT_MAX_CYCLES))
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert_eq!(stats.points, 2);
            assert!(stats.nodes > 0);
        }
    }
}
