//! The offline workloads: `sweep` (the 126-point greedy evaluation
//! sweep) and `heal` (the vN→M ladder under seeded random faults,
//! through the self-healing remap).
//!
//! Untraced passes call the runner exactly as `bench_sim` and
//! `fault_sweep` do (`run_kernel`, `run_kernel_faulted`). The traced
//! pass composes the same pipeline from each layer's public functions —
//! workload → golden → build → compile → encode → decode → simulate →
//! verify, plus the remap compile on a wedge — with a span around every
//! call, and must reproduce the runner's outcome for every point.

use crate::calib::Calibration;
use crate::spans::Recorder;
use crate::stats;
use crate::{Metric, Outcome, Params};
use marionette::arch::{Architecture, FabricDims};
use marionette::cdfg::value::Value;
use marionette::compiler::SearchBudget;
use marionette::isa::bitstream;
use marionette::kernels::traits::{Kernel, Scale};
use marionette::kernels::verify::check_vs_golden;
use marionette::runner::{
    compile_for_arch, compile_for_arch_with_faults, run_kernel, run_kernel_faulted, RunnerError,
    DEFAULT_MAX_CYCLES,
};
use marionette::sim::{run_full, EngineKind, FaultSet, FaultSpec, RunStats, SimError};
use std::time::Instant;

/// Which offline workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every kernel × every preset, healthy, `Scale::Small`.
    Sweep,
    /// Every kernel × the vN→M ladder, 2 random faults, `Scale::Tiny`.
    Heal,
}

/// The ladder presets the heal workload damages (the `fault_sweep`
/// presets).
const HEAL_PRESETS: &str = "vN,DF,M-PE,M-CN,M";
/// Random faults injected per heal point.
const HEAL_FAULTS: usize = 2;
/// Fault draws per kernel × preset: 140 heal points, so the p90 of
/// their times has ten points beyond it.
const HEAL_DRAWS: usize = 2;

/// The heal point's fault set: the first of `FaultSet::random`'s seeded
/// draws without a dead link. A dead link can leave a route with no
/// fault-free XY/YX path, which makes the remap infeasible; the
/// workload keeps dead PEs (the tile's router survives) and flaky
/// links, so every point is healable and a failure means a regression.
fn heal_faults(fabric: FabricDims, seed: u64) -> FaultSet {
    (0u64..)
        .map(|attempt| {
            FaultSet::random(
                fabric.rows,
                fabric.cols,
                HEAL_FAULTS,
                mix(seed ^ mix(attempt)),
            )
        })
        .find(|fs| {
            !fs.specs()
                .iter()
                .any(|s| matches!(s, FaultSpec::DeadLink { .. }))
        })
        .expect("FaultSet::random draws dead PEs")
}

/// One kernel × preset point with its (possibly empty) fault set.
pub struct Point {
    kernel: Box<dyn Kernel>,
    arch: Architecture,
    faults: FaultSet,
}

impl Point {
    fn label(&self) -> String {
        format!("{} on {}", self.kernel.short(), self.arch.short)
    }
}

/// A verified point's outcome; identical on every pass of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Done {
    kernel: String,
    arch: String,
    cycles: u64,
    fires: u64,
    wedged: bool,
}

/// Splitmix64 finalizer: spreads (seed, point) into independent fault
/// seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload's points, generated from `seed`.
pub fn points(kind: Kind, seed: u64) -> Vec<Point> {
    let fabric = FabricDims::paper();
    let archs = match kind {
        Kind::Sweep => marionette::arch::all_presets_on(fabric),
        Kind::Heal => marionette::arch::presets_by_tags_on(fabric, HEAL_PRESETS)
            .expect("ladder preset tags are valid"),
    };
    let draws = match kind {
        Kind::Sweep => 1,
        Kind::Heal => HEAL_DRAWS,
    };
    // Every kernel of the suite plus the composite LDPC application, in
    // `bench_sim`'s point order.
    let mut tags: Vec<&str> = marionette::kernels::all()
        .iter()
        .map(|k| k.short())
        .collect();
    tags.push("LDPC-APP");
    let mut out = Vec::new();
    for _ in 0..draws {
        for tag in &tags {
            for arch in &archs {
                let faults = match kind {
                    Kind::Sweep => FaultSet::none(),
                    Kind::Heal => heal_faults(fabric, seed ^ mix(out.len() as u64)),
                };
                out.push(Point {
                    kernel: marionette::kernels::by_short(tag).expect("registered kernel tag"),
                    arch: arch.clone(),
                    faults,
                });
            }
        }
    }
    out
}

fn scale(kind: Kind) -> Scale {
    match kind {
        Kind::Sweep => Scale::Small,
        Kind::Heal => Scale::Tiny,
    }
}

/// One point through the runner, as the end-to-end metrics see it.
fn run_point(kind: Kind, p: &Point, seed: u64) -> Result<Done, String> {
    let k = p.kernel.as_ref();
    let r = match kind {
        Kind::Sweep => {
            run_kernel(k, &p.arch, scale(kind), seed, DEFAULT_MAX_CYCLES).map(|r| (r, false))
        }
        Kind::Heal => {
            run_kernel_faulted(k, &p.arch, scale(kind), seed, DEFAULT_MAX_CYCLES, &p.faults)
                .map(|fr| (fr.run, fr.wedged.is_some()))
        }
    };
    match r {
        Ok((r, wedged)) if r.verified => Ok(Done {
            kernel: r.kernel,
            arch: r.arch,
            cycles: r.cycles,
            fires: r.stats.fires,
            wedged,
        }),
        Ok(_) => Err(format!("{}: unverified result", p.label())),
        Err(RunnerError::Compile(e)) if kind == Kind::Heal => Err(format!(
            "{} [{}]: remap infeasible: {e}",
            p.label(),
            p.faults
        )),
        Err(e) => Err(format!("{}: {e}", p.label())),
    }
}

/// Per-layer counters of a traced run (times come from the spans).
#[derive(Default)]
struct Counters {
    sim_runs: u64,
    sim_fires: u64,
    sim_cycles: u64,
    link_stall: u64,
    switch_stall: u64,
    group_switches: u64,
    fault_rejects: u64,
    compiles: u64,
    remap_infeasible: u64,
    wedged: u64,
    healed: u64,
    bitstream_bytes: u64,
}

impl Counters {
    fn add_sim(&mut self, s: &RunStats) {
        self.sim_runs += 1;
        self.sim_fires += s.fires;
        self.sim_cycles += s.cycles;
        self.link_stall += s.link_stall_cycles;
        self.switch_stall += s.switch_stall_cycles;
        self.group_switches += s.group_switches;
    }
}

/// One point composed from the layers' public functions, each call in
/// its own span under root `op` — the same steps, in the same order, as
/// `run_kernel` / `run_kernel_faulted`.
fn run_point_staged(
    kind: Kind,
    p: &Point,
    seed: u64,
    rec: &mut Recorder,
    op: usize,
    c: &mut Counters,
) -> Result<Done, String> {
    let k = p.kernel.as_ref();
    let label = p.label();
    let wl = rec.time(op, "kernels.workload", || k.workload(scale(kind), seed));
    let golden = rec
        .time(op, "kernels.golden", || k.golden(&wl))
        .map_err(|e| format!("{label}: kernel: {e}"))?;
    let g = rec
        .time(op, "kernels.build", || k.build(&wl))
        .map_err(|e| format!("{label}: kernel: {e}"))?;
    let inputs: Vec<(String, Vec<Value>)> = g
        .arrays
        .iter()
        .map(|a| (a.name.clone(), a.init.clone()))
        .collect();
    let mut remap = false;
    let mut wedged = false;
    let r = loop {
        let (compile_span, compiled) = if remap {
            let mut healed = p.arch.clone();
            if !healed.opts.search.is_on() {
                healed.opts.search = SearchBudget::default_on();
            }
            let r = rec.time(op, "compiler.remap", || {
                compile_for_arch_with_faults(&g, &healed, &p.faults)
            });
            ("remap", r)
        } else {
            (
                "compile",
                rec.time(op, "compiler.compile", || compile_for_arch(&g, &p.arch)),
            )
        };
        c.compiles += 1;
        let (prog, _report) = match compiled {
            Ok(x) => x,
            Err(e) if remap => {
                c.remap_infeasible += 1;
                return Err(format!("{label} [{}]: remap infeasible: {e}", p.faults));
            }
            Err(e) => return Err(format!("{label}: {compile_span}: {e}")),
        };
        let bytes = rec.time(op, "isa.encode", || bitstream::encode(&prog));
        c.bitstream_bytes += bytes.len() as u64;
        let prog = rec
            .time(op, "isa.decode", || bitstream::decode(&bytes))
            .map_err(|e| format!("{label}: bitstream: {e}"))?;
        let run = rec.time(op, "sim.run", || {
            run_full(
                &prog,
                &p.arch.tm,
                &p.faults,
                EngineKind::default(),
                &inputs,
                &[],
                DEFAULT_MAX_CYCLES,
            )
        });
        match run {
            Ok(r) => break r,
            Err(SimError::Fault { .. }) if kind == Kind::Heal && !remap => {
                c.fault_rejects += 1;
                c.wedged += 1;
                wedged = true;
                remap = true;
            }
            Err(e) => return Err(format!("{label}: simulate: {e}")),
        }
    };
    c.add_sim(&r.stats);
    let mismatches = rec
        .time(op, "kernels.verify", || {
            check_vs_golden(
                &g,
                &golden,
                |arr| r.memory[arr.0 as usize].clone(),
                |name| r.sinks.get(name).cloned().unwrap_or_default(),
            )
        })
        .map_err(|e| format!("{label}: verify: {e}"))?;
    if !mismatches.is_empty() || r.oob_events > 0 {
        return Err(format!(
            "{label}: {} mismatches, {} out-of-bounds accesses",
            mismatches.len(),
            r.oob_events
        ));
    }
    if remap {
        c.healed += 1;
    }
    Ok(Done {
        kernel: k.short().to_string(),
        arch: p.arch.short.to_string(),
        cycles: r.stats.cycles,
        fires: r.stats.fires,
        wedged,
    })
}

/// Result of one pass over every point.
struct Pass {
    /// Sum of the points' wall times (calibration slices excluded).
    secs: f64,
    outcomes: Vec<Result<Done, String>>,
    /// Wall time of each point, µs.
    point_us: Vec<f64>,
}

/// Points between two calibration slices of an untraced pass.
const CAL_EVERY: usize = 8;

/// Runs every point once, through the runner (taking a calibration
/// slice every [`CAL_EVERY`] points) or, with a recorder, through the
/// staged composition.
fn pass(
    kind: Kind,
    pts: &[Point],
    seed: u64,
    cal: &mut Calibration,
    mut traced: Option<(&mut Recorder, &mut Counters)>,
) -> Pass {
    let mut outcomes = Vec::with_capacity(pts.len());
    let mut point_us = Vec::with_capacity(pts.len());
    for (i, p) in pts.iter().enumerate() {
        if traced.is_none() && i % CAL_EVERY == 0 {
            cal.slice();
        }
        let tp = Instant::now();
        outcomes.push(match traced.as_mut() {
            None => run_point(kind, p, seed),
            Some((rec, c)) => {
                let op = rec.begin_op();
                let r = run_point_staged(kind, p, seed, rec, op, c);
                rec.end(op);
                r
            }
        });
        point_us.push(tp.elapsed().as_secs_f64() * 1e6);
    }
    Pass {
        secs: point_us.iter().sum::<f64>() / 1e6,
        outcomes,
        point_us,
    }
}

/// Set-up passes timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 3;

/// Checks `got` against the set-up pass: failures are counted, and a
/// verified point whose outcome differs from the set-up's is a
/// determinism error.
fn account(out: &mut Outcome, reference: &[Result<Done, String>], got: &Pass, what: &str) {
    for (r, g) in reference.iter().zip(&got.outcomes) {
        out.attempted += 1;
        match g {
            Err(e) => {
                out.failed += 1;
                out.note_failure(e);
            }
            Ok(d) => {
                if let Ok(r) = r {
                    if r != d {
                        out.errors
                            .push(format!("{what}: {d:?} differs from set-up run {r:?}"));
                    }
                }
            }
        }
    }
}

/// Geomean of greedy `cycles` over the committed `BENCH_sim.json`
/// points, checked point by point against `done`. Only meaningful at
/// the snapshot's seed.
fn check_bench_sim(done: &[Done]) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCH_sim.json")
        .map_err(|e| format!("BENCH_sim.json: {e} (run from the repository root)"))?;
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
        let v = rest.split([',', '}']).next()?.trim();
        Some(v.trim_matches('"').to_string())
    };
    let mut snap: Vec<(String, String, u64)> = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"kernel\": ")) {
        let (Some(k), Some(a), Some(c)) = (
            field(line, "kernel"),
            field(line, "arch"),
            field(line, "cycles").and_then(|c| c.parse().ok()),
        ) else {
            return Err(format!("BENCH_sim.json: unreadable point `{line}`"));
        };
        snap.push((k, a, c));
    }
    if snap.len() != done.len() {
        return Err(format!(
            "BENCH_sim.json has {} points, the sweep {}",
            snap.len(),
            done.len()
        ));
    }
    for (d, (k, a, c)) in done.iter().zip(&snap) {
        if (&d.kernel, &d.arch, d.cycles) != (k, a, *c) {
            return Err(format!(
                "BENCH_sim.json: {k} on {a} has {c} cycles, the sweep {} on {} {}",
                d.kernel, d.arch, d.cycles
            ));
        }
    }
    let snap_cycles: Vec<u64> = snap.iter().map(|s| s.2).collect();
    let ours: Vec<u64> = done.iter().map(|d| d.cycles).collect();
    if stats::geomean(&snap_cycles) != stats::geomean(&ours) {
        return Err("BENCH_sim.json geomean differs".to_string());
    }
    Ok(())
}

/// The seed `BENCH_sim.json` was taken at.
pub const SNAPSHOT_SEED: u64 = 1;

/// Runs an offline workload.
pub fn run(kind: Kind, params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let pts = points(kind, params.seed);

    // The set-up passes are calibrated by their own slices: the first
    // seconds of a process can run at another speed than the rest.
    let mut setup_cal = Calibration::default();
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut reference = Vec::new();
    for _ in 0..SETUP_REPS {
        let p = pass(kind, &pts, params.seed, &mut setup_cal, None);
        setup_secs.push(p.secs);
        if reference.is_empty() {
            account(&mut out, &p.outcomes, &p, "set-up");
            reference = p.outcomes;
        } else {
            account(&mut out, &reference, &p, "set-up");
        }
    }
    let done: Vec<Option<&Done>> = reference.iter().map(|r| r.as_ref().ok()).collect();
    if kind == Kind::Sweep && params.seed == SNAPSHOT_SEED {
        let done: Vec<Done> = done.iter().flatten().map(|d| (*d).clone()).collect();
        if let Err(e) = check_bench_sim(&done) {
            out.errors.push(e);
        }
    }

    let mut cal = Calibration::default();
    let mut reps: Vec<Vec<f64>> = vec![Vec::new(); pts.len()];
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut rec = Recorder::default();
    let mut c = Counters::default();
    let t0 = Instant::now();
    // Traced runs alternate untraced and traced passes, so both see the
    // same machine conditions and the ratio measures the spans alone.
    let mut i = 0usize;
    while i < 2 || t0.elapsed().as_secs_f64() < params.seconds {
        let traced = params.trace && i % 2 == 1;
        i += 1;
        if traced {
            let p = pass(kind, &pts, params.seed, &mut cal, Some((&mut rec, &mut c)));
            account(&mut out, &reference, &p, "traced pass");
            traced_secs.push(p.secs);
            continue;
        }
        let p = pass(kind, &pts, params.seed, &mut cal, None);
        account(&mut out, &reference, &p, "timed pass");
        untraced_secs.push(p.secs);
        for ((r, o), us) in reps.iter_mut().zip(&p.outcomes).zip(p.point_us) {
            if o.is_ok() {
                r.push(us);
            }
        }
    }

    if !params.trace {
        out.push_setup(&setup_secs, setup_cal.median_factor());
        let fires: Vec<u64> = done.iter().map(|d| d.map_or(0, |d| d.fires)).collect();
        out.push_best_times(&reps, &fires, &cal);
        let cycles: Vec<u64> = done.iter().flatten().map(|d| d.cycles).collect();
        out.metrics.push(Metric::new(
            "sim_cycles_geomean",
            stats::geomean(&cycles),
            "cycles",
        ));
        return out;
    }

    let s = rec.self_ns();
    let us = |name: &str| rec.mean_self_us(&s, name);
    let sim_ns = s.get("sim.run").copied().unwrap_or(0) as f64;
    let m = &mut out.metrics;
    m.push(Metric::new("sim.run_us", us("sim.run"), "us"));
    m.push(Metric::count("sim.runs", c.sim_runs));
    m.push(Metric::count("sim.fires", c.sim_fires));
    m.push(Metric::new("sim.cycles", c.sim_cycles as f64, "cycles"));
    m.push(Metric::new(
        "sim.ns_per_fire",
        sim_ns / c.sim_fires.max(1) as f64,
        "ns",
    ));
    m.push(Metric::new(
        "sim.link_stall_cycles",
        c.link_stall as f64,
        "cycles",
    ));
    m.push(Metric::new(
        "sim.switch_stall_cycles",
        c.switch_stall as f64,
        "cycles",
    ));
    m.push(Metric::count("sim.group_switches", c.group_switches));
    m.push(Metric::count("sim.fault_rejects", c.fault_rejects));
    m.push(Metric::new(
        "compiler.compile_us",
        us("compiler.compile"),
        "us",
    ));
    m.push(Metric::new("compiler.remap_us", us("compiler.remap"), "us"));
    m.push(Metric::count("compiler.compiles", c.compiles));
    m.push(Metric::count(
        "compiler.remap_infeasible",
        c.remap_infeasible,
    ));
    m.push(Metric::count("core.wedged", c.wedged));
    m.push(Metric::count("core.healed", c.healed));
    m.push(Metric::new(
        "core.heal_ratio",
        if c.wedged == 0 {
            0.0
        } else {
            c.healed as f64 / c.wedged as f64
        },
        "ratio",
    ));
    m.push(Metric::new("isa.encode_us", us("isa.encode"), "us"));
    m.push(Metric::new("isa.decode_us", us("isa.decode"), "us"));
    m.push(Metric::new(
        "isa.bitstream_bytes",
        c.bitstream_bytes as f64,
        "bytes",
    ));
    m.push(Metric::new(
        "kernels.workload_us",
        us("kernels.workload"),
        "us",
    ));
    m.push(Metric::new("kernels.golden_us", us("kernels.golden"), "us"));
    m.push(Metric::new("kernels.build_us", us("kernels.build"), "us"));
    m.push(Metric::new("kernels.verify_us", us("kernels.verify"), "us"));
    m.push(Metric::new("trace.unattributed_us", us("op"), "us"));
    m.push(Metric::new(
        "trace.overhead_ratio",
        stats::median(&untraced_secs) / stats::median(&traced_secs),
        "ratio",
    ));
    out.traced_ops = rec.ops();
    out.fill_absent_layers();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_seeded_and_heal_faults_are_healable() {
        let sweep = points(Kind::Sweep, 3);
        assert_eq!(sweep.len(), 126);
        assert!(sweep.iter().all(|p| p.faults.is_empty()));
        let heal = points(Kind::Heal, 3);
        assert_eq!(heal.len(), 14 * 5 * HEAL_DRAWS);
        for p in &heal {
            assert_eq!(p.faults.specs().len(), HEAL_FAULTS, "{}", p.faults);
            assert!(!p
                .faults
                .specs()
                .iter()
                .any(|s| matches!(s, FaultSpec::DeadLink { .. })));
        }
        let render = |pts: &[Point]| -> Vec<String> {
            pts.iter()
                .map(|p| format!("{} {}", p.label(), p.faults))
                .collect()
        };
        assert_eq!(render(&heal), render(&points(Kind::Heal, 3)));
        assert_ne!(render(&heal), render(&points(Kind::Heal, 4)));
    }
}
