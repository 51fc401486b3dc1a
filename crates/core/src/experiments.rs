//! Experiment harness: regenerates every figure and table of the paper's
//! evaluation (§7). Each function returns a structured result that the
//! `repro_*` binaries print in the paper's format and that tests assert
//! shape properties on.

use crate::parallel::{par_map, sweep_threads};
use crate::runner::{run_grid, run_kernel, KernelRun, RunnerError, DEFAULT_MAX_CYCLES};
use marionette_arch as arch;
use marionette_arch::Architecture;
use marionette_kernels::traits::Scale;
use marionette_kernels::{intensive, non_intensive};

/// Geometric mean of a slice (1.0 for empty input).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Cycle counts per kernel for a set of architectures.
#[derive(Clone, Debug)]
pub struct CycleMatrix {
    /// Kernel short tags in run order.
    pub kernels: Vec<String>,
    /// `(architecture short tag, cycles per kernel)` series.
    pub series: Vec<(String, Vec<u64>)>,
}

impl CycleMatrix {
    /// Speedup of architecture `num` relative to `den`, per kernel.
    pub fn speedups(&self, num: &str, den: &str) -> Vec<f64> {
        let n = &self.series.iter().find(|(a, _)| a == num).unwrap().1;
        let d = &self.series.iter().find(|(a, _)| a == den).unwrap().1;
        d.iter()
            .zip(n)
            .map(|(&dc, &nc)| dc as f64 / nc as f64)
            .collect()
    }
}

fn run_matrix(
    kernels: &[Box<dyn marionette_kernels::Kernel>],
    archs: &[Architecture],
    scale: Scale,
    seed: u64,
) -> Result<(CycleMatrix, Vec<KernelRun>), RunnerError> {
    let mut series: Vec<(String, Vec<u64>)> = archs
        .iter()
        .map(|a| (a.short.to_string(), Vec::new()))
        .collect();
    // All points run in parallel; results come back in the same row-major
    // (kernel, arch) order the old serial loop produced.
    let runs = run_grid(kernels, archs, scale, seed, DEFAULT_MAX_CYCLES)?;
    for (i, r) in runs.iter().enumerate() {
        series[i % archs.len()].1.push(r.cycles);
    }
    Ok((
        CycleMatrix {
            kernels: kernels.iter().map(|k| k.short().to_string()).collect(),
            series,
        },
        runs,
    ))
}

/// Fig 11: Marionette PE (with Proactive PE Configuration) vs the generic
/// von Neumann and dataflow PE models, plus the operators-under-branch
/// ratio.
#[derive(Clone, Debug)]
pub struct Fig11 {
    /// Cycle counts (vN, DF, M-PE).
    pub cycles: CycleMatrix,
    /// Speedup of Marionette PE over von Neumann PE, per kernel.
    pub speedup_vs_vn: Vec<f64>,
    /// Speedup of Marionette PE over dataflow PE, per kernel.
    pub speedup_vs_df: Vec<f64>,
    /// Operators under a branch, per kernel (secondary axis of Fig 11).
    pub ops_under_branch: Vec<f64>,
}

/// Runs the Fig 11 experiment.
///
/// # Errors
/// Propagates any compile/simulation/verification failure.
pub fn fig11(scale: Scale, seed: u64) -> Result<Fig11, RunnerError> {
    let kernels = intensive();
    let archs = [
        arch::von_neumann_pe(),
        arch::dataflow_pe(),
        arch::marionette_pe(),
    ];
    let (cycles, _) = run_matrix(&kernels, &archs, scale, seed)?;
    let speedup_vs_vn = cycles.speedups("M-PE", "vN");
    let speedup_vs_df = cycles.speedups("M-PE", "DF");
    let mut ops_under_branch = Vec::with_capacity(kernels.len());
    for k in &kernels {
        let wl = k.workload(Scale::Tiny, seed);
        let g = k.build(&wl)?;
        ops_under_branch.push(marionette_cdfg::analysis::ops_under_branch_ratio(&g));
    }
    Ok(Fig11 {
        cycles,
        speedup_vs_vn,
        speedup_vs_df,
        ops_under_branch,
    })
}

/// Fig 12: the dedicated control network's contribution.
#[derive(Clone, Debug)]
pub struct Fig12 {
    /// Cycle counts (M-PE, M-CN).
    pub cycles: CycleMatrix,
    /// Per-kernel speedup from the control network.
    pub speedup: Vec<f64>,
}

/// Fig 14: Agile PE Assignment's contribution.
#[derive(Clone, Debug)]
pub struct Fig14 {
    /// Cycle counts (M-CN, M full).
    pub cycles: CycleMatrix,
    /// Per-kernel speedup from Agile PE Assignment.
    pub speedup: Vec<f64>,
}

/// Fig 15: utilization effects of Agile PE Assignment on the nested-loop
/// benchmarks.
#[derive(Clone, Debug)]
pub struct Fig15 {
    /// Kernel tags.
    pub kernels: Vec<String>,
    /// Outer-BB PE utilization before Agile assignment.
    pub outer_util_before: Vec<f64>,
    /// Outer-BB PE utilization after Agile assignment.
    pub outer_util_after: Vec<f64>,
    /// Pipeline (whole-array) utilization before.
    pub pipe_util_before: Vec<f64>,
    /// Pipeline utilization after.
    pub pipe_util_after: Vec<f64>,
}

/// Outer-BB utilization: busy-cycles of non-innermost groups divided by
/// their PE-region × active-window product.
fn outer_bb_utilization(run: &KernelRun) -> f64 {
    let mut busy = 0u64;
    let mut denom = 0f64;
    for (gi, gp) in run.report.groups.iter().enumerate() {
        if gp.innermost || gp.pes.is_empty() || gp.loop_id.is_none() {
            continue;
        }
        if let Some(gs) = run.stats.groups.get(gi) {
            busy += gs.busy;
        }
        denom += gp.pes.len() as f64;
    }
    if denom == 0.0 || run.cycles == 0 {
        return 0.0;
    }
    busy as f64 / (denom * run.cycles as f64)
}

/// Runs the Fig 15 experiment (the multi-level nested-loop subset).
///
/// # Errors
/// Propagates any compile/simulation/verification failure.
pub fn fig15(scale: Scale, seed: u64) -> Result<Fig15, RunnerError> {
    let tags = ["FFT", "VI", "NW", "HT", "SCD", "LDPC", "GEMM"];
    let before = arch::marionette_cn();
    let after = arch::marionette_full();
    let mut out = Fig15 {
        kernels: tags.iter().map(|s| s.to_string()).collect(),
        outer_util_before: Vec::new(),
        outer_util_after: Vec::new(),
        pipe_util_before: Vec::new(),
        pipe_util_after: Vec::new(),
    };
    let points: Vec<(&str, &Architecture)> = tags
        .iter()
        .flat_map(|t| [(*t, &before), (*t, &after)])
        .collect();
    let results = par_map(points, sweep_threads(), |(t, a)| {
        let k = marionette_kernels::by_short(t).expect("kernel tag");
        run_kernel(k.as_ref(), a, scale, seed, DEFAULT_MAX_CYCLES)
    });
    let mut it = results.into_iter();
    while let (Some(rb), Some(ra)) = (it.next(), it.next()) {
        let (rb, ra) = (rb?, ra?);
        out.outer_util_before.push(outer_bb_utilization(&rb));
        out.outer_util_after.push(outer_bb_utilization(&ra));
        out.pipe_util_before.push(rb.stats.mean_pe_utilization());
        out.pipe_util_after.push(ra.stats.mean_pe_utilization());
    }
    Ok(out)
}

/// The Marionette feature ladder (M-PE → M-CN → M) evaluated in one
/// sweep: Figs 12, 14 and 16 all derive from this matrix, so a combined
/// driver (`repro_all`) simulates each point exactly once instead of
/// re-running the shared columns per figure.
#[derive(Clone, Debug)]
pub struct Ladder {
    /// Cycle counts (M-PE, M-CN, M) on the intensive kernels.
    pub cycles: CycleMatrix,
}

/// Runs the feature-ladder sweep behind Figs 12, 14 and 16.
///
/// # Errors
/// Propagates any compile/simulation/verification failure.
pub fn ladder(scale: Scale, seed: u64) -> Result<Ladder, RunnerError> {
    let kernels = intensive();
    let archs = [
        arch::marionette_pe(),
        arch::marionette_cn(),
        arch::marionette_full(),
    ];
    let (cycles, _) = run_matrix(&kernels, &archs, scale, seed)?;
    Ok(Ladder { cycles })
}

impl Ladder {
    fn slice(&self, a: &str, b: &str) -> CycleMatrix {
        let pick = |tag: &str| {
            self.cycles
                .series
                .iter()
                .find(|(t, _)| t == tag)
                .expect("ladder series")
                .clone()
        };
        CycleMatrix {
            kernels: self.cycles.kernels.clone(),
            series: vec![pick(a), pick(b)],
        }
    }

    /// The Fig 12 view (M-PE vs M-CN).
    pub fn fig12(&self) -> Fig12 {
        let cycles = self.slice("M-PE", "M-CN");
        let speedup = cycles.speedups("M-CN", "M-PE");
        Fig12 { cycles, speedup }
    }

    /// The Fig 14 view (M-CN vs M full).
    pub fn fig14(&self) -> Fig14 {
        let cycles = self.slice("M-CN", "M");
        let speedup = cycles.speedups("M", "M-CN");
        Fig14 { cycles, speedup }
    }

    /// The Fig 16 view, combining the two ablation speedups.
    pub fn fig16(&self) -> Fig16 {
        let f12 = self.fig12();
        let f14 = self.fig14();
        // Paper order: MS ADPCM CRC LDPC NW FFT VI HT SCD GEMM.
        let order = [
            "MS", "ADPCM", "CRC", "LDPC", "NW", "FFT", "VI", "HT", "SCD", "GEMM",
        ];
        let mut out = Fig16 {
            kernels: order.iter().map(|s| s.to_string()).collect(),
            cn_speedup: Vec::new(),
            agile_speedup: Vec::new(),
        };
        for t in order {
            let i = f12.cycles.kernels.iter().position(|k| k == t).unwrap();
            out.cn_speedup.push(f12.speedup[i]);
            out.agile_speedup.push(f14.speedup[i]);
        }
        out
    }
}

/// Fig 16: the speedup balance between the control network and Agile PE
/// Assignment (which kernels benefit from which feature).
#[derive(Clone, Debug)]
pub struct Fig16 {
    /// Kernels in the paper's Fig 16 order.
    pub kernels: Vec<String>,
    /// Control-network speedup per kernel (from Fig 12).
    pub cn_speedup: Vec<f64>,
    /// Agile speedup per kernel (from Fig 14).
    pub agile_speedup: Vec<f64>,
}

/// Fig 17: Marionette against the state of the art on all 13 kernels.
#[derive(Clone, Debug)]
pub struct Fig17 {
    /// Intensive-kernel cycle matrix (SB, TIA, RV, RT, M).
    pub intensive: CycleMatrix,
    /// Non-intensive control group (CO, SI, GP).
    pub non_intensive: CycleMatrix,
    /// The composite full LDPC application (pre/decode/post phases).
    pub ldpc_app: CycleMatrix,
    /// Geomean speedup of Marionette over each SOTA architecture on the
    /// intensive kernels, keyed by architecture tag.
    pub geomeans: Vec<(String, f64)>,
    /// Marionette's speedup over each SOTA architecture on the full LDPC
    /// application (paper: 3.01x / 3.13x / 2.36x / 2.68x).
    pub ldpc_app_speedups: Vec<(String, f64)>,
}

/// Runs the Fig 17 experiment.
///
/// # Errors
/// Propagates any compile/simulation/verification failure.
pub fn fig17(scale: Scale, seed: u64) -> Result<Fig17, RunnerError> {
    let mut archs = arch::all_sota();
    archs.push(arch::marionette_full());
    let (intensive_m, _) = run_matrix(&intensive(), &archs, scale, seed)?;
    let (non_intensive_m, _) = run_matrix(&non_intensive(), &archs, scale, seed)?;
    let (app_m, _) = run_matrix(&[marionette_kernels::ldpc_app()], &archs, scale, seed)?;
    let geomeans = ["SB", "TIA", "RV", "RT"]
        .iter()
        .map(|a| (a.to_string(), geomean(&intensive_m.speedups("M", a))))
        .collect();
    let ldpc_app_speedups = ["SB", "TIA", "RV", "RT"]
        .iter()
        .map(|a| (a.to_string(), app_m.speedups("M", a)[0]))
        .collect();
    Ok(Fig17 {
        intensive: intensive_m,
        non_intensive: non_intensive_m,
        ldpc_app: app_m,
        geomeans,
        ldpc_app_speedups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
