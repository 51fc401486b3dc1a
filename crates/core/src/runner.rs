//! End-to-end kernel execution: workload → CDFG → compile → bitstream
//! round-trip → cycle-level simulation → golden verification.
//!
//! Independent kernel × architecture points are embarrassingly parallel;
//! [`run_grid`] fans a whole sweep out across OS threads (see
//! [`crate::parallel`]) and is the engine behind every figure's
//! experiment and the `bench_sim` perf harness.

use crate::parallel::{par_map, sweep_threads};
use crate::pipeline::{PipelineError, Stages};
use marionette_arch::Architecture;
use marionette_cdfg::Cdfg;
use marionette_compiler::{
    compile_with_timing_and_faults, explore_chain, finalize_explored_with_faults, select_best,
    CompileReport, CostModel, PlaceError, SearchBudget,
};
use marionette_isa::bitstream::BitstreamError;
use marionette_isa::MachineProgram;
use marionette_kernels::traits::{Kernel, KernelError, Scale};
use marionette_sim::{FaultSet, RunSpec, RunStats, SimError};
use std::fmt;

/// Default cycle budget per run.
pub const DEFAULT_MAX_CYCLES: u64 = 4_000_000_000;

/// One kernel × architecture measurement.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Architecture short tag.
    pub arch: String,
    /// Kernel short tag.
    pub kernel: String,
    /// Total cycles to completion.
    pub cycles: u64,
    /// Full run statistics.
    pub stats: RunStats,
    /// Compilation report (group decisions, route stats).
    pub report: CompileReport,
    /// Outputs matched the golden reference.
    pub verified: bool,
}

/// Runner failure.
#[derive(Debug)]
pub enum RunnerError {
    /// The kernel could not build its program or golden reference from
    /// the workload (missing size/array/output name).
    Kernel(KernelError),
    /// Compilation failed.
    Compile(PlaceError),
    /// The configuration bitstream did not decode back into a program.
    Bitstream(BitstreamError),
    /// Simulation failed.
    Sim(SimError),
    /// Outputs diverged from the golden reference.
    Verification {
        /// Which kernel/architecture failed.
        what: String,
        /// First mismatch description.
        first: String,
        /// Mismatch count (capped).
        count: usize,
    },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Kernel(e) => write!(f, "kernel: {e}"),
            RunnerError::Compile(e) => write!(f, "compile: {e}"),
            RunnerError::Bitstream(e) => write!(f, "bitstream: {e}"),
            RunnerError::Sim(e) => write!(f, "simulate: {e}"),
            RunnerError::Verification { what, first, count } => {
                write!(f, "{what}: {count} mismatches, first: {first}")
            }
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<KernelError> for RunnerError {
    fn from(e: KernelError) -> Self {
        RunnerError::Kernel(e)
    }
}

impl From<PlaceError> for RunnerError {
    fn from(e: PlaceError) -> Self {
        RunnerError::Compile(e)
    }
}

impl From<BitstreamError> for RunnerError {
    fn from(e: BitstreamError) -> Self {
        RunnerError::Bitstream(e)
    }
}

impl From<SimError> for RunnerError {
    fn from(e: SimError) -> Self {
        RunnerError::Sim(e)
    }
}

impl RunnerError {
    /// `e` as a runner error; a mismatch names `kernel` on `arch`.
    fn stage(e: PipelineError, kernel: &dyn Kernel, arch: &Architecture) -> Self {
        match e {
            PipelineError::Compile(e) => RunnerError::Compile(e),
            PipelineError::Bitstream(e) => RunnerError::Bitstream(e),
            PipelineError::Sim(e) => RunnerError::Sim(e),
            PipelineError::Verify(m) => RunnerError::Verification {
                what: format!("{} on {}", kernel.name(), arch.name),
                first: m.detail,
                count: m.count,
            },
        }
    }
}

/// Compiles `g` for `arch`.
///
/// With [`marionette_compiler::SearchBudget::Off`] (the default on every
/// preset) this is the legacy one-shot pipeline — bit-compatible with
/// the seed mappings. With a nonzero budget the annealing restart chains
/// of the mapping explorer are fanned out across worker threads (see
/// [`crate::parallel::par_map`]) and combined with the explorer's
/// deterministic best-of-N selection, so the result is identical to a
/// serial [`marionette_compiler::compile_with_timing_and_faults`] call.
///
/// # Errors
/// Returns [`PlaceError`] when the program cannot fit on the fabric.
pub fn compile_for_arch(
    g: &Cdfg,
    arch: &Architecture,
) -> Result<(MachineProgram, CompileReport), PlaceError> {
    compile_for_arch_with_faults(g, arch, &FaultSet::none())
}

/// Fault-aware variant of [`compile_for_arch`]: dead PEs are masked out
/// of placement, dead links out of routing, and flaky links are
/// cost-penalized by the explorer and the rip-up router. An empty fault
/// set is bit-identical to [`compile_for_arch`].
///
/// # Errors
/// Returns [`PlaceError`] when the program cannot fit on, or be routed
/// across, the live fabric.
pub fn compile_for_arch_with_faults(
    g: &Cdfg,
    arch: &Architecture,
    faults: &FaultSet,
) -> Result<(MachineProgram, CompileReport), PlaceError> {
    let seeds = arch.opts.search.chain_seeds();
    if seeds.len() <= 1 {
        return compile_with_timing_and_faults(g, &arch.opts, &arch.tm, faults);
    }
    let cm = CostModel::from_timing(&arch.tm);
    let chains = par_map(seeds, sweep_threads(), |s| {
        explore_chain(g, &arch.opts, &cm, s, faults)
    });
    let mut ok = Vec::with_capacity(chains.len());
    for c in chains {
        ok.push(c?);
    }
    finalize_explored_with_faults(g, &arch.opts, &cm, select_best(ok), faults)
}

/// Compiles and simulates `kernel` on `arch`, verifying outputs against
/// the golden reference. The ISA bitstream round-trip is exercised on
/// every call: the simulator runs the *decoded* program.
///
/// # Errors
/// Returns [`RunnerError`] on compile/simulation failure or output
/// mismatch.
pub fn run_kernel(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seed: u64,
    max_cycles: u64,
) -> Result<KernelRun, RunnerError> {
    run_kernel_with(kernel, arch, scale, seed, &mut RunSpec::new(max_cycles)).map(|fr| fr.run)
}

/// [`run_kernel`] on a fabric with `faults` injected, self-healing by
/// remap ([`self_heal`]) when the fault-oblivious bitstream touches a
/// dead resource. With an empty `faults` this is bit-identical to
/// [`run_kernel`].
///
/// # Errors
/// As [`run_kernel_with`].
pub fn run_kernel_faulted(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seed: u64,
    max_cycles: u64,
    faults: &FaultSet,
) -> Result<FaultKernelRun, RunnerError> {
    let mut spec = RunSpec {
        faults,
        ..RunSpec::new(max_cycles)
    };
    run_kernel_with(kernel, arch, scale, seed, &mut spec)
}

/// Compiles and simulates `kernel` on `arch` as `spec` says (faults,
/// cycle budget, tracer) and bit-verifies the surviving run against the
/// golden reference:
///
/// 1. compile normally and simulate with the faults injected;
/// 2. on a typed [`SimError::Fault`], remap around the faulty resources
///    and simulate the remap ([`self_heal`]);
/// 3. either way, bit-verify the run against the golden reference.
///
/// Tracing never changes the result: traced and untraced runs are
/// bit-identical (`crates/core/tests/trace_plane.rs`). A remap that
/// still cannot fit surfaces as [`RunnerError::Compile`] — the typed
/// "remap infeasible" outcome degradation sweeps count as a failure
/// (the healthy compile of every shipped kernel × preset succeeds, so a
/// compile error under faults always means the remap).
///
/// # Errors
/// Returns [`RunnerError`] on compile/simulation failure (of whichever
/// pipeline survives fault screening) or output mismatch.
pub fn run_kernel_with(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seed: u64,
    spec: &mut RunSpec<'_>,
) -> Result<FaultKernelRun, RunnerError> {
    let wl = kernel.workload(scale, seed);
    let golden = kernel.golden(&wl)?;
    let g = kernel.build(&wl)?;
    let mut stages = Stages::new(&g, &golden, arch, &[]);
    let healed = self_heal(&mut stages, arch, spec)
        .map_err(|e| RunnerError::stage(e.into_inner(), kernel, arch))?;
    let r = healed.run;
    Ok(FaultKernelRun {
        wedged: healed.wedged,
        run: KernelRun {
            arch: arch.short.to_string(),
            kernel: kernel.short().to_string(),
            cycles: r.stats.cycles,
            stats: r.stats,
            report: healed.artifact.report,
            verified: true,
        },
    })
}

/// One kernel × architecture measurement on a faulted fabric.
#[derive(Clone, Debug)]
pub struct FaultKernelRun {
    /// The faulted resource (fault-spec syntax, e.g. `pe:1,2`) that
    /// wedged the fault-oblivious bitstream, when one did — in which
    /// case the measurement comes from the fault-aware remap.
    pub wedged: Option<String>,
    /// The verified measurement.
    pub run: KernelRun,
}

/// The compile and simulate stages [`self_heal`] drives. A stage owns
/// whatever the two share — the program being compiled, the oracle a
/// run is verified against, stage timers — and a test can plug in fake
/// stages.
pub trait HealStages {
    /// A compiled, simulatable program.
    type Artifact;
    /// A simulated (and, where the stage verifies, verified) run.
    type Run;
    /// A stage failure.
    type Error;

    /// Compiles for `arch`, placing and routing around `avoid`.
    ///
    /// # Errors
    /// Returns the stage's error when the program does not fit.
    fn compile(
        &mut self,
        arch: &Architecture,
        avoid: &FaultSet,
    ) -> Result<Self::Artifact, Self::Error>;

    /// Simulates `artifact` as `spec` says.
    ///
    /// # Errors
    /// Returns the stage's error on a failed or diverging run.
    fn simulate(
        &mut self,
        artifact: &Self::Artifact,
        spec: &mut RunSpec<'_>,
    ) -> Result<Self::Run, Self::Error>;

    /// The simulator error behind `e`, when a simulation caused it.
    fn sim_error(e: &Self::Error) -> Option<&SimError>;
}

/// The surviving pipeline of a [`self_heal`] run.
#[derive(Debug)]
pub struct Healed<A, R> {
    /// The artifact that ran: the original compile, or the remap.
    pub artifact: A,
    /// Its run.
    pub run: R,
    /// The faulted resource (fault-spec syntax, e.g. `pe:1,2`) that
    /// wedged the original artifact; `Some` exactly when `artifact` is
    /// the remap.
    pub wedged: Option<String>,
}

/// A [`self_heal`] failure, telling the remap compile apart from every
/// other stage.
#[derive(Debug)]
pub enum HealError<E> {
    /// The original compile, or a simulation of either artifact, failed.
    Stage(E),
    /// The original artifact wedged on `wedged` and the remap around the
    /// faults could not be compiled: the typed "remap infeasible"
    /// outcome.
    Remap {
        /// The faulted resource the original artifact touched.
        wedged: String,
        /// The remap compile's error.
        error: E,
    },
}

impl<E> HealError<E> {
    /// The stage error, whichever stage failed.
    pub fn into_inner(self) -> E {
        match self {
            HealError::Stage(e) | HealError::Remap { error: e, .. } => e,
        }
    }
}

/// The self-heal policy, the one place it is written:
///
/// 1. compile the fault-oblivious artifact and simulate it with
///    `spec.faults` injected;
/// 2. if — and only if — the simulator rejects it with a typed
///    [`SimError::Fault`], mark `remap after <resource>` on the tracer,
///    recompile with the faults as the avoid-mask (forcing
///    [`SearchBudget::default_on`] when `arch` compiles one-shot: the
///    greedy placer alone cannot rebalance around arbitrary dead tiles)
///    and simulate the remap once. A failure of that run is returned,
///    never retried.
///
/// # Errors
/// [`HealError::Remap`] when the remap does not compile,
/// [`HealError::Stage`] for every other stage failure.
#[allow(clippy::type_complexity)]
pub fn self_heal<S: HealStages>(
    stages: &mut S,
    arch: &Architecture,
    spec: &mut RunSpec<'_>,
) -> Result<Healed<S::Artifact, S::Run>, HealError<S::Error>> {
    let artifact = stages
        .compile(arch, &FaultSet::none())
        .map_err(HealError::Stage)?;
    let wedged = match stages.simulate(&artifact, spec) {
        Ok(run) => {
            return Ok(Healed {
                artifact,
                run,
                wedged: None,
            })
        }
        Err(e) => match S::sim_error(&e) {
            Some(SimError::Fault { what, .. }) => what.clone(),
            _ => return Err(HealError::Stage(e)),
        },
    };
    if let Some(t) = spec.tracer.as_deref_mut() {
        t.mark(0, &format!("remap after {wedged}"));
    }
    let mut healed = arch.clone();
    if !healed.opts.search.is_on() {
        healed.opts.search = SearchBudget::default_on();
    }
    let artifact = match stages.compile(&healed, spec.faults) {
        Ok(a) => a,
        Err(error) => return Err(HealError::Remap { wedged, error }),
    };
    let run = stages.simulate(&artifact, spec).map_err(HealError::Stage)?;
    Ok(Healed {
        artifact,
        run,
        wedged: Some(wedged),
    })
}

/// Runs every kernel × architecture point of a sweep across worker
/// threads, returning results in row-major order (for each kernel, every
/// architecture in sequence) — exactly the order a serial nested loop
/// would produce.
///
/// Thread count comes from [`sweep_threads`] (`MARIONETTE_THREADS=1`
/// forces serial execution). Each point is an independent simulation, so
/// results are identical to the serial sweep in any case; on error the
/// first failing point in row-major order is reported.
///
/// # Errors
/// Returns the first [`RunnerError`] in row-major point order.
pub fn run_grid(
    kernels: &[Box<dyn Kernel>],
    archs: &[Architecture],
    scale: Scale,
    seed: u64,
    max_cycles: u64,
) -> Result<Vec<KernelRun>, RunnerError> {
    let points: Vec<(&dyn Kernel, &Architecture)> = kernels
        .iter()
        .flat_map(|k| archs.iter().map(move |a| (k.as_ref(), a)))
        .collect();
    let results = par_map(points, sweep_threads(), |(k, a)| {
        run_kernel(k, a, scale, seed, max_cycles)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum FakeError {
        Compile,
        Sim(SimError),
    }

    /// Scripted stages: each compile returns its call index and records
    /// the search budget and avoid-mask it saw; each simulation pops the
    /// next scripted outcome.
    struct Fake {
        compiles: Vec<(SearchBudget, Vec<String>)>,
        remap_compiles: bool,
        sims: Vec<Result<u64, SimError>>,
    }

    impl HealStages for Fake {
        type Artifact = usize;
        type Run = u64;
        type Error = FakeError;

        fn compile(&mut self, arch: &Architecture, avoid: &FaultSet) -> Result<usize, FakeError> {
            let specs = avoid.specs().iter().map(|s| s.to_string()).collect();
            self.compiles.push((arch.opts.search, specs));
            if self.compiles.len() > 1 && !self.remap_compiles {
                return Err(FakeError::Compile);
            }
            Ok(self.compiles.len() - 1)
        }

        fn simulate(&mut self, _: &usize, _: &mut RunSpec<'_>) -> Result<u64, FakeError> {
            self.sims.remove(0).map_err(FakeError::Sim)
        }

        fn sim_error(e: &FakeError) -> Option<&SimError> {
            match e {
                FakeError::Sim(e) => Some(e),
                FakeError::Compile => None,
            }
        }
    }

    /// Runs [`self_heal`] over scripted simulation outcomes on `arch`
    /// with a dead PE at (1, 2) injected, returning the stages for
    /// inspection.
    #[allow(clippy::type_complexity)]
    fn heal(
        arch: &Architecture,
        remap_compiles: bool,
        sims: Vec<Result<u64, SimError>>,
    ) -> (Fake, Result<Healed<usize, u64>, HealError<FakeError>>) {
        let mut faults = FaultSet::new(4, 4);
        faults.add("pe:1,2".parse().unwrap()).unwrap();
        let mut spec = RunSpec {
            faults: &faults,
            ..RunSpec::new(100)
        };
        let mut fake = Fake {
            compiles: Vec::new(),
            remap_compiles,
            sims,
        };
        let r = self_heal(&mut fake, arch, &mut spec);
        (fake, r)
    }

    fn fault() -> SimError {
        SimError::Fault {
            what: "pe:1,2".to_string(),
            detail: "dead".to_string(),
        }
    }

    #[test]
    fn non_fault_sim_error_returns_without_a_remap() {
        let deadlock = SimError::Deadlock {
            cycle: 7,
            detail: "stuck".to_string(),
        };
        let arch = marionette_arch::marionette_full();
        match heal(&arch, true, vec![Err(deadlock.clone())]) {
            (fake, Err(HealError::Stage(FakeError::Sim(e)))) => {
                assert_eq!(e, deadlock);
                assert_eq!(fake.compiles.len(), 1, "no remap on a non-fault error");
            }
            (_, other) => panic!("expected the deadlock back, got {other:?}"),
        }
    }

    #[test]
    fn a_fault_triggers_exactly_one_remap_with_the_faults_as_mask() {
        let arch = marionette_arch::marionette_full();
        assert!(!arch.opts.search.is_on());
        let (fake, r) = heal(&arch, true, vec![Err(fault()), Ok(42)]);
        let healed = r.unwrap();
        assert_eq!(healed.wedged.as_deref(), Some("pe:1,2"));
        assert_eq!((healed.artifact, healed.run), (1, 42));
        assert_eq!(
            fake.compiles,
            vec![
                (arch.opts.search, Vec::new()),
                (SearchBudget::default_on(), vec!["pe:1,2".to_string()]),
            ]
        );
    }

    #[test]
    fn a_search_budget_already_on_is_kept_for_the_remap() {
        let mut arch = marionette_arch::marionette_full();
        let budget = SearchBudget::Anneal {
            moves: 17,
            restarts: 3,
            base_seed: 5,
        };
        arch.opts.search = budget;
        let (fake, r) = heal(&arch, true, vec![Err(fault()), Ok(1)]);
        r.unwrap();
        assert_eq!(fake.compiles.len(), 2);
        assert!(fake.compiles.iter().all(|(b, _)| *b == budget));
    }

    #[test]
    fn a_fault_after_the_remap_is_returned_not_retried() {
        let arch = marionette_arch::marionette_full();
        match heal(&arch, true, vec![Err(fault()), Err(fault())]) {
            (fake, Err(HealError::Stage(FakeError::Sim(e)))) => {
                assert_eq!(e, fault());
                assert_eq!(fake.compiles.len(), 2, "one remap, no retry");
                assert!(fake.sims.is_empty());
            }
            (_, other) => panic!("expected the second fault back, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_remap_compile_is_told_apart_from_the_first() {
        let arch = marionette_arch::marionette_full();
        match heal(&arch, false, vec![Err(fault())]).1 {
            Err(HealError::Remap { wedged, error }) => {
                assert_eq!(wedged, "pe:1,2");
                assert_eq!(error, FakeError::Compile);
            }
            other => panic!("expected a remap failure, got {other:?}"),
        }
    }
}
