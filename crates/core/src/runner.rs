//! End-to-end kernel execution: workload → CDFG → compile → bitstream
//! round-trip → cycle-level simulation → golden verification.
//!
//! Independent kernel × architecture points are embarrassingly parallel;
//! [`run_grid`] fans a whole sweep out across OS threads (see
//! [`crate::parallel`]) and is the engine behind every figure's
//! experiment and the `bench_sim` perf harness.

use crate::parallel::{par_map, sweep_threads};
use marionette_arch::Architecture;
use marionette_cdfg::value::Value;
use marionette_cdfg::Cdfg;
use marionette_compiler::{
    compile_with_timing_and_faults, explore_chain_with_faults, finalize_explored_with_faults,
    select_best, CompileReport, CostModel, PartitionMap, PlaceError, SearchBudget,
};
use marionette_isa::bitstream::{self, BitstreamError};
use marionette_isa::MachineProgram;
use marionette_kernels::traits::{Golden, Kernel, KernelError, Scale};
use marionette_kernels::verify::check_vs_golden;
use marionette_sim::{
    run_full, run_full_traced, run_lanes_full, run_with_engine, EngineKind, FaultSet, LaneSpec,
    RunResult, RunStats, SimError, Tracer,
};
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
    /// A lane's workload compiles to a different program than lane 0's,
    /// so the lanes cannot share one configuration bitstream (the kernel
    /// bakes workload-dependent constants into the fabric).
    NotBatchable {
        /// Which kernel/architecture refused batching.
        what: String,
        /// First lane whose program diverged from lane 0's.
        lane: usize,
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
            RunnerError::NotBatchable { what, lane } => {
                write!(
                    f,
                    "{what}: lane {lane} compiles to a different program than \
                     lane 0 (workload-dependent constants); not lane-batchable"
                )
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

/// Compiles `g` for `arch`.
///
/// With [`marionette_compiler::SearchBudget::Off`] (the default on every
/// preset) this is the legacy one-shot pipeline — bit-compatible with
/// the seed mappings. With a nonzero budget the annealing restart chains
/// of the mapping explorer are fanned out across worker threads (see
/// [`crate::parallel::par_map`]) and combined with the explorer's
/// deterministic best-of-N selection, so the result is identical to a
/// serial [`marionette_compiler::compile_with_timing`] call.
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
        explore_chain_with_faults(g, &arch.opts, &cm, s, faults)
    });
    let mut ok = Vec::with_capacity(chains.len());
    for c in chains {
        ok.push(c?);
    }
    finalize_explored_with_faults(g, &arch.opts, &cm, select_best(ok), faults)
}

/// Region-scoped variant of [`compile_for_arch`]: placement and routing
/// are confined to partition `idx` of `map`, with the rest of the host
/// fabric rendered as an exclusion mask over the fault-avoidance
/// machinery ([`PartitionMap::exclusion_mask`]) — the explorer's
/// legality caps and the rip-up router treat out-of-region tiles and
/// boundary-crossing links exactly like dead resources. `arch` must be
/// instantiated on the **host** fabric dims (this is the fabric-view
/// compile path; tenancy's solo-equivalent path instead compiles on the
/// partition's own dims, see `marionette_lang`'s tenancy driver).
///
/// # Errors
/// Returns [`PlaceError`] when the program cannot fit inside, or be
/// routed within, the region.
pub fn compile_for_arch_in_region(
    g: &Cdfg,
    arch: &Architecture,
    map: &PartitionMap,
    idx: usize,
) -> Result<(MachineProgram, CompileReport), PlaceError> {
    compile_for_arch_with_faults(g, arch, &map.exclusion_mask(idx))
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
    run_kernel_with_engine(kernel, arch, scale, seed, max_cycles, EngineKind::default())
}

/// [`run_kernel`] with an explicit simulator [`EngineKind`]. Both
/// engines are bit-identical (pinned by
/// `crates/core/tests/engine_equivalence.rs`); the selector exists so
/// differential harnesses and the `--engine` CLI axes can pin either
/// core explicitly.
///
/// # Errors
/// Returns [`RunnerError`] on compile/simulation failure or output
/// mismatch.
pub fn run_kernel_with_engine(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seed: u64,
    max_cycles: u64,
    engine: EngineKind,
) -> Result<KernelRun, RunnerError> {
    let wl = kernel.workload(scale, seed);
    let golden = kernel.golden(&wl)?;
    let g = kernel.build(&wl)?;
    let (prog, report) = compile_for_arch(&g, arch)?;
    let prog = roundtrip(&prog)?;
    let inputs: Vec<(String, Vec<Value>)> = g
        .arrays
        .iter()
        .map(|a| (a.name.clone(), a.init.clone()))
        .collect();
    let r = run_with_engine(&prog, &arch.tm, engine, &inputs, &[], max_cycles)?;
    verify_golden(kernel, arch, &g, &golden, &r)?;
    Ok(KernelRun {
        arch: arch.short.to_string(),
        kernel: kernel.short().to_string(),
        cycles: r.stats.cycles,
        stats: r.stats,
        report,
        verified: true,
    })
}

/// [`run_kernel_with_engine`] with a [`Tracer`] recording the
/// cycle-accurate event stream ([`marionette_sim::trace`]). The traced
/// run is bit-identical to the untraced one — same cycles, same stats,
/// same outputs — which `crates/core/tests/trace_plane.rs` pins.
///
/// # Errors
/// Returns [`RunnerError`] on compile/simulation failure or output
/// mismatch.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_traced(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seed: u64,
    max_cycles: u64,
    engine: EngineKind,
    tracer: &mut Tracer,
) -> Result<KernelRun, RunnerError> {
    let wl = kernel.workload(scale, seed);
    let golden = kernel.golden(&wl)?;
    let g = kernel.build(&wl)?;
    let (prog, report) = compile_for_arch(&g, arch)?;
    let prog = roundtrip(&prog)?;
    let inputs: Vec<(String, Vec<Value>)> = g
        .arrays
        .iter()
        .map(|a| (a.name.clone(), a.init.clone()))
        .collect();
    let r = run_full_traced(
        &prog,
        &arch.tm,
        &FaultSet::none(),
        engine,
        &inputs,
        &[],
        max_cycles,
        tracer,
    )?;
    verify_golden(kernel, arch, &g, &golden, &r)?;
    Ok(KernelRun {
        arch: arch.short.to_string(),
        kernel: kernel.short().to_string(),
        cycles: r.stats.cycles,
        stats: r.stats,
        report,
        verified: true,
    })
}

/// Compiles `kernel` **once** and simulates one lane per seed in a
/// single batched pass ([`marionette_sim::run_lanes`]): the machine
/// skeleton and the mapping are shared, only each lane's workload
/// (arrays seeded per lane) differs. Every lane is verified against its
/// own golden reference, so the result vector is bit-identical to
/// calling [`run_kernel`] once per seed — the per-seed graphs of every
/// shipped kernel differ only in array contents at a fixed scale, which
/// is exactly what a lane carries. A lane that deadlocks or exhausts the
/// budget reports its own `Err` without poisoning its neighbours.
///
/// # Errors
/// The outer `Err` covers the shared stages (workload/golden
/// construction, the one compile, the bitstream round-trip); per-lane
/// simulation/verification failures come back in the inner results.
pub fn run_kernel_lanes(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seeds: &[u64],
    max_cycles: u64,
) -> Result<Vec<Result<KernelRun, RunnerError>>, RunnerError> {
    run_kernel_lanes_with_engine(
        kernel,
        arch,
        scale,
        seeds,
        max_cycles,
        EngineKind::default(),
    )
}

/// [`run_kernel_lanes`] with an explicit simulator [`EngineKind`].
///
/// # Errors
/// As [`run_kernel_lanes`]: outer `Err` for the shared stages, inner
/// per-lane errors otherwise.
pub fn run_kernel_lanes_with_engine(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seeds: &[u64],
    max_cycles: u64,
    engine: EngineKind,
) -> Result<Vec<Result<KernelRun, RunnerError>>, RunnerError> {
    if seeds.is_empty() {
        return Ok(Vec::new());
    }
    let mut per_seed = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let wl = kernel.workload(scale, seed);
        let golden = kernel.golden(&wl)?;
        let g = kernel.build(&wl)?;
        per_seed.push((g, golden));
    }
    let (prog, report) = compile_for_arch(&per_seed[0].0, arch)?;
    let bytes = bitstream::encode(&prog);
    // All lanes execute lane 0's bitstream, so every other lane's graph
    // must compile to the very same bytes. Kernels that unroll workload
    // values into immediates (e.g. Conv-1d's filter taps) fail this for
    // differing seeds and are rejected up front rather than silently
    // running lane 0's constants against lane i's golden.
    for (lane, (g, _)) in per_seed.iter().enumerate().skip(1) {
        if seeds[lane] == seeds[0] {
            continue; // identical workload, identical program
        }
        let (pi, _) = compile_for_arch(g, arch)?;
        if bitstream::encode(&pi) != bytes {
            return Err(RunnerError::NotBatchable {
                what: format!("{} on {}", kernel.name(), arch.name),
                lane,
            });
        }
    }
    let prog = bitstream::decode(&bytes)?;
    let lanes: Vec<LaneSpec> = per_seed
        .iter()
        .map(|(g, _)| LaneSpec {
            inputs: g
                .arrays
                .iter()
                .map(|a| (a.name.clone(), a.init.clone()))
                .collect(),
            params: Vec::new(),
        })
        .collect();
    let results = run_lanes_full(
        &prog,
        &arch.tm,
        &FaultSet::none(),
        engine,
        &lanes,
        max_cycles,
    )?;
    Ok(results
        .into_iter()
        .zip(&per_seed)
        .map(|(r, (g, golden))| {
            let r = r?;
            verify_golden(kernel, arch, g, golden, &r)?;
            Ok(KernelRun {
                arch: arch.short.to_string(),
                kernel: kernel.short().to_string(),
                cycles: r.stats.cycles,
                stats: r.stats,
                report: report.clone(),
                verified: true,
            })
        })
        .collect())
}

/// Full-stack fidelity: serializes `prog` to the configuration bitstream
/// and decodes it back, so the simulator always runs the decoded program.
fn roundtrip(prog: &MachineProgram) -> Result<MachineProgram, RunnerError> {
    Ok(bitstream::decode(&bitstream::encode(prog))?)
}

/// Bit-compares one run against the kernel's golden reference (arrays,
/// sink streams, and the out-of-bounds event count).
fn verify_golden(
    kernel: &dyn Kernel,
    arch: &Architecture,
    g: &Cdfg,
    golden: &Golden,
    r: &RunResult,
) -> Result<(), RunnerError> {
    let mismatches = check_vs_golden(
        g,
        golden,
        |arr| r.memory[arr.0 as usize].clone(),
        |name| r.sinks.get(name).cloned().unwrap_or_default(),
    )?;
    if !mismatches.is_empty() || r.oob_events > 0 {
        return Err(RunnerError::Verification {
            what: format!("{} on {}", kernel.name(), arch.name),
            first: mismatches
                .first()
                .map(|m| m.to_string())
                .unwrap_or_else(|| format!("{} out-of-bounds accesses", r.oob_events)),
            count: mismatches.len(),
        });
    }
    Ok(())
}

/// One kernel × architecture measurement on a faulted fabric.
#[derive(Clone, Debug)]
pub struct FaultKernelRun {
    /// The faulted resource (fault-spec syntax, e.g. `pe:1,2`) that
    /// wedged the fault-oblivious bitstream, when one did.
    pub wedged: Option<String>,
    /// Whether the measurement comes from a fault-aware remap rather
    /// than the original mapping.
    pub remapped: bool,
    /// The verified measurement.
    pub run: KernelRun,
}

/// Runs `kernel` on `arch` with `faults` injected, self-healing by remap
/// when the fault-oblivious bitstream touches a dead resource:
///
/// 1. compile normally and simulate with the faults injected;
/// 2. on a typed [`SimError::Fault`], recompile with the faulty
///    resources masked (forcing the annealing explorer on, so operators
///    can move off dead tiles) and simulate the remap;
/// 3. either way, bit-verify the surviving run against the golden
///    reference — the same oracle [`run_kernel`] applies.
///
/// With an empty `faults` this is bit-identical to [`run_kernel`]. A
/// remap that still cannot fit surfaces as [`RunnerError::Compile`] —
/// the typed "remap infeasible" outcome degradation sweeps count as a
/// failure (the healthy compile of every shipped kernel × preset
/// succeeds, so a compile error here always means the remap).
///
/// # Errors
/// Returns [`RunnerError`] on compile/simulation failure (of whichever
/// pipeline survives fault screening) or output mismatch.
pub fn run_kernel_faulted(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seed: u64,
    max_cycles: u64,
    faults: &FaultSet,
) -> Result<FaultKernelRun, RunnerError> {
    run_kernel_faulted_with_engine(
        kernel,
        arch,
        scale,
        seed,
        max_cycles,
        faults,
        EngineKind::default(),
    )
}

/// [`run_kernel_faulted`] with an explicit simulator [`EngineKind`] —
/// fault delivery (dead-resource screening, flaky-link stretches, the
/// self-healing remap) is engine-independent, and this selector lets the
/// fault harnesses pin either core.
///
/// # Errors
/// As [`run_kernel_faulted`].
pub fn run_kernel_faulted_with_engine(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seed: u64,
    max_cycles: u64,
    faults: &FaultSet,
    engine: EngineKind,
) -> Result<FaultKernelRun, RunnerError> {
    let wl = kernel.workload(scale, seed);
    let golden = kernel.golden(&wl)?;
    let g = kernel.build(&wl)?;
    let (prog, report) = compile_for_arch(&g, arch)?;
    let prog = roundtrip(&prog)?;
    let inputs: Vec<(String, Vec<Value>)> = g
        .arrays
        .iter()
        .map(|a| (a.name.clone(), a.init.clone()))
        .collect();
    let wedged = match run_full(&prog, &arch.tm, faults, engine, &inputs, &[], max_cycles) {
        Ok(r) => {
            verify_golden(kernel, arch, &g, &golden, &r)?;
            return Ok(FaultKernelRun {
                wedged: None,
                remapped: false,
                run: KernelRun {
                    arch: arch.short.to_string(),
                    kernel: kernel.short().to_string(),
                    cycles: r.stats.cycles,
                    stats: r.stats,
                    report,
                    verified: true,
                },
            });
        }
        Err(SimError::Fault { what, .. }) => what,
        Err(e) => return Err(RunnerError::Sim(e)),
    };
    // Self-heal: recompile with the faulty resources masked. Presets
    // that compile one-shot get the default annealing budget — the
    // greedy placer alone cannot rebalance around arbitrary dead tiles.
    let mut healed = arch.clone();
    if !healed.opts.search.is_on() {
        healed.opts.search = SearchBudget::default_on();
    }
    let (prog, report) = compile_for_arch_with_faults(&g, &healed, faults)?;
    let prog = roundtrip(&prog)?;
    let r = run_full(&prog, &arch.tm, faults, engine, &inputs, &[], max_cycles)?;
    verify_golden(kernel, arch, &g, &golden, &r)?;
    Ok(FaultKernelRun {
        wedged: Some(wedged),
        remapped: true,
        run: KernelRun {
            arch: arch.short.to_string(),
            kernel: kernel.short().to_string(),
            cycles: r.stats.cycles,
            stats: r.stats,
            report,
            verified: true,
        },
    })
}

/// [`run_kernel_faulted_with_engine`] with a [`Tracer`]: the surviving
/// pipeline (original or self-healed remap) is simulated traced, and a
/// wedged bitstream leaves a `remap after <resource>` marker on the
/// trace's marks track, so a healthy-vs-remapped `trace_diff` can anchor
/// on the heal point.
///
/// # Errors
/// As [`run_kernel_faulted_with_engine`].
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_faulted_traced(
    kernel: &dyn Kernel,
    arch: &Architecture,
    scale: Scale,
    seed: u64,
    max_cycles: u64,
    faults: &FaultSet,
    engine: EngineKind,
    tracer: &mut Tracer,
) -> Result<FaultKernelRun, RunnerError> {
    let wl = kernel.workload(scale, seed);
    let golden = kernel.golden(&wl)?;
    let g = kernel.build(&wl)?;
    let (prog, report) = compile_for_arch(&g, arch)?;
    let prog = roundtrip(&prog)?;
    let inputs: Vec<(String, Vec<Value>)> = g
        .arrays
        .iter()
        .map(|a| (a.name.clone(), a.init.clone()))
        .collect();
    let wedged = match run_full_traced(
        &prog,
        &arch.tm,
        faults,
        engine,
        &inputs,
        &[],
        max_cycles,
        tracer,
    ) {
        Ok(r) => {
            verify_golden(kernel, arch, &g, &golden, &r)?;
            return Ok(FaultKernelRun {
                wedged: None,
                remapped: false,
                run: KernelRun {
                    arch: arch.short.to_string(),
                    kernel: kernel.short().to_string(),
                    cycles: r.stats.cycles,
                    stats: r.stats,
                    report,
                    verified: true,
                },
            });
        }
        Err(SimError::Fault { what, .. }) => what,
        Err(e) => return Err(RunnerError::Sim(e)),
    };
    tracer.mark(0, &format!("remap after {wedged}"));
    let mut healed = arch.clone();
    if !healed.opts.search.is_on() {
        healed.opts.search = SearchBudget::default_on();
    }
    let (prog, report) = compile_for_arch_with_faults(&g, &healed, faults)?;
    let prog = roundtrip(&prog)?;
    let r = run_full_traced(
        &prog,
        &arch.tm,
        faults,
        engine,
        &inputs,
        &[],
        max_cycles,
        tracer,
    )?;
    verify_golden(kernel, arch, &g, &golden, &r)?;
    Ok(FaultKernelRun {
        wedged: Some(wedged),
        remapped: true,
        run: KernelRun {
            arch: arch.short.to_string(),
            kernel: kernel.short().to_string(),
            cycles: r.stats.cycles,
            stats: r.stats,
            report,
            verified: true,
        },
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
