//! Graceful-degradation experiment: how each control-plane preset holds
//! up on a damaged fabric.
//!
//! Every point injects a seeded-random [`marionette::sim::FaultSet`]
//! (dead PEs, dead mesh links, flaky links) into the full compile →
//! bitstream → simulate stack. A fault-oblivious bitstream that touches
//! a dead resource is wedged with a typed fault; the self-healing loop
//! (`marionette::runner::self_heal`) then re-runs the annealing
//! placer with the faulty resources masked and bit-verifies the remap
//! against the golden reference. The sweep reports, per preset, the
//! cycles-vs-#faults degradation curve and the remap success rate.
//!
//! `--trace FILE` attaches the cycle tracer and writes a Chrome
//! trace-event JSON (Perfetto-viewable, with a `remap after …` marker
//! on healed points) — the sweep must be narrowed to exactly one point
//! with `--kernels`, `--presets`, `--fault-counts` and `--fault-seeds`.
//!
//! Zero-fault points run an empty fault set, which is guaranteed
//! bit-identical to the fault-free stack — `--check BENCH_sim.json`
//! turns that guarantee into a gate by comparing their cycle counts
//! against the committed perf snapshot.
//!
//! A remap that cannot fit on the surviving fabric is the typed
//! "infeasible" outcome, counted against the preset's success rate, not
//! a sweep failure. Exit codes: `0` every surviving point verified,
//! `1` any pipeline/verification failure or `--check` mismatch,
//! `2` usage errors.

use marionette::cli::{multi, opt, Args, Spec};
use marionette::experiments::geomean;
use marionette::kernels::traits::Scale;
use marionette::parallel::sweep_threads;
use marionette::report::{self, Snapshot};
use marionette::runner::{run_kernel_with, RunnerError, DEFAULT_MAX_CYCLES};
use marionette::sim::{RunSpec, Tracer};
use marionette_bench::sweep::{self, kernel_tags, Axes, CyclePoint, Point, SEED};
use std::sync::Mutex;

static SPEC: Spec = Spec {
    name: "fault_sweep",
    about: "degradation curves of every preset under seeded-random faults, with self-heal",
    positional: "",
    flags: &[
        opt("--presets", "TAGS", "[default: vN,DF,M-PE,M-CN,M]"),
        opt("--kernels", "TAGS", "kernel tags [default: all]"),
        opt("--scale", "NAME", "tiny, small or paper [default: small]"),
        opt("--fabric", "RxC", "fabric [default: 4x4]"),
        opt("--fault-counts", "N,..", "[default: 0,1,2,4]"),
        opt("--fault-seeds", "N", "draws per fault count [default: 3]"),
        multi("--fault", "SPEC", "pin a fault under every point"),
        opt("--max-cycles", "N", "per-run cycle cap"),
        opt("--out", "PATH", "snapshot path [default: BENCH_fault.json]"),
        opt("--check", "SNAPSHOT", "gate the 0-fault cycles"),
        opt("--trace", "FILE", "trace the one selected point"),
    ],
    notes: "",
};

struct Config {
    axes: Axes,
    scale: Scale,
    max_cycles: u64,
    out: String,
    check: Option<String>,
    trace: Option<String>,
}

/// One point's surviving measurement, or the typed infeasible outcome.
struct Measured {
    kernel: String,
    arch: String,
    faults: usize,
    fault_seed: u64,
    specs: String,
    wedged: Option<String>,
    remapped: bool,
    /// `None`: the remap could not fit on the surviving fabric.
    cycles: Option<u64>,
}

fn config(a: &Args) -> Result<(Config, Vec<Point>), String> {
    let req = a.run_request()?;
    let presets = a.str("--presets").unwrap_or("vN,DF,M-PE,M-CN,M");
    let cfg = Config {
        axes: Axes {
            kernels: kernel_tags(a.list("--kernels")?.as_deref())?,
            fabrics: vec![req.fabric],
            presets: Some(presets.to_string()),
            pinned: req.pinned_faults.specs().to_vec(),
            fault_counts: a.list("--fault-counts")?.unwrap_or(vec![0, 1, 2, 4]),
            fault_seeds: (1..=a.positive("--fault-seeds", 3)? as u64).collect(),
            search: None,
        },
        scale: a.scale()?,
        max_cycles: req.max_cycles.unwrap_or(DEFAULT_MAX_CYCLES),
        out: a.str("--out").unwrap_or("BENCH_fault.json").to_string(),
        check: a.str("--check").map(str::to_string),
        trace: a.str("--trace").map(str::to_string),
    };
    let points = cfg.axes.points()?;
    if let Some(path) = &cfg.trace {
        // A trace interleaves every traced point's events into one
        // timeline, so it only makes sense for a single point.
        if points.len() != 1 {
            return Err(format!(
                "--trace records one point's run; narrow the {} selected points \
                 with --kernels, --presets, --fault-counts and --fault-seeds",
                points.len()
            ));
        }
        // Open the file now so an unwritable path is a usage error.
        std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
    }
    Ok((cfg, points))
}

fn main() {
    SPEC.run(config, |(cfg, points)| run(&cfg, points));
}

/// Compiles, (re)maps and simulates one sweep point, optionally with
/// the cycle tracer attached.
fn measure(p: &Point, cfg: &Config, tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let k = marionette::kernels::by_short(&p.kernel)
        .ok_or_else(|| format!("{}: unknown kernel tag", p.kernel))?;
    let specs: Vec<String> = p.fault_set.specs().iter().map(|s| s.to_string()).collect();
    let specs = specs.join("+");
    let mut spec = RunSpec {
        faults: &p.fault_set,
        max_cycles: cfg.max_cycles,
        tracer,
    };
    let (remapped, wedged, cycles) =
        match run_kernel_with(k.as_ref(), &p.arch, cfg.scale, SEED, &mut spec) {
            Ok(fr) => (fr.wedged.is_some(), fr.wedged, Some(fr.run.cycles)),
            // The healthy compile of every shipped kernel × preset
            // succeeds (the 0-fault sweep proves it), so a compile
            // error here is the typed remap-infeasible outcome.
            Err(RunnerError::Compile(e)) => (false, Some(e.to_string()), None),
            Err(e) => return Err(format!("{}: {e}", p.what())),
        };
    Ok(Measured {
        kernel: p.kernel.clone(),
        arch: p.arch.short.to_string(),
        faults: p.faults,
        fault_seed: p.fault_seed,
        specs,
        wedged,
        remapped,
        cycles,
    })
}

/// The 0-fault identity gate: an empty fault set must reproduce the
/// committed perf snapshot's cycle counts bit for bit. Returns the
/// number of diverging points.
fn zero_fault_gate(path: &str, measured: &[Measured]) -> Result<usize, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let base = sweep::parse_points(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    let fresh: Vec<CyclePoint> = measured
        .iter()
        .filter(|m| m.faults == 0 && m.specs.is_empty())
        .map(|m| CyclePoint {
            kernel: m.kernel.clone(),
            arch: m.arch.clone(),
            fabric: None,
            // An infeasible point has no cycles and cannot match.
            cycles: m.cycles.unwrap_or(0),
        })
        .collect();
    let (checked, violations) = sweep::compare_cycles(&base, &fresh, false);
    if checked == 0 {
        return Err(format!(
            "--check {path}: no 0-fault point matches the baseline (run with 0 in --fault-counts and no --fault)"
        ));
    }
    for v in &violations {
        eprintln!("fault_sweep: 0-fault {v} in {path}");
    }
    if violations.is_empty() {
        println!("fault_sweep: {checked} zero-fault points match {path} bit for bit");
    }
    Ok(violations.len())
}

fn run(cfg: &Config, points: Vec<Point>) -> Result<(), String> {
    let npoints = points.len();
    // Trace mode is pre-validated to a single point, so the recorder is
    // never contended.
    let tracer = cfg.trace.as_ref().map(|_| Mutex::new(Tracer::new()));
    let threads = sweep_threads();
    let (measured, wall_ms) = sweep::run(points, threads, |p| match &tracer {
        Some(t) => measure(p, cfg, Some(&mut *t.lock().expect("tracer lock"))),
        None => measure(p, cfg, None),
    })?;

    let gate_violations = match &cfg.check {
        Some(path) => zero_fault_gate(path, &measured)?,
        None => 0,
    };

    let preset_order: Vec<String> = cfg
        .axes
        .presets_on(cfg.axes.fabrics[0])?
        .iter()
        .map(|a| a.short.to_string())
        .collect();
    // Degradation curves: per preset × fault count, the remap success
    // rate and the geomean cycles over surviving points.
    let (mut curves, mut summary) = (Vec::new(), Vec::new());
    for p in &preset_order {
        let (mut cells, mut text) = (Vec::new(), Vec::new());
        for &n in &cfg.axes.fault_counts {
            let pts: Vec<&Measured> = measured
                .iter()
                .filter(|m| m.arch == *p && m.faults == n)
                .collect();
            let cycles: Vec<f64> = pts.iter().filter_map(|m| Some(m.cycles? as f64)).collect();
            let count = |f: fn(&Measured) -> bool| pts.iter().filter(|m| f(m)).count();
            let rate = match pts.len() {
                0 => 1.0,
                n => cycles.len() as f64 / n as f64,
            };
            let gm = geomean(&cycles);
            cells.push(format!(
                "{{\"faults\": {n}, \"points\": {}, \"wedged\": {}, \"remapped\": {}, \"infeasible\": {}, \"success_rate\": {rate:.4}, \"geomean_cycles\": {gm:.1}}}",
                pts.len(),
                count(|m| m.wedged.is_some()),
                count(|m| m.remapped),
                pts.len() - cycles.len()
            ));
            text.push(format!("{n}f {gm:.0} cyc {:.0}% ok", rate * 100.0));
        }
        curves.push(format!(
            "{{\"arch\": \"{p}\", \"curve\": [{}]}}",
            cells.join(", ")
        ));
        summary.push(format!("fault_sweep: {p}: {}", text.join(", ")));
    }

    let mut snap = Snapshot::new("marionette.fault_sweep/v1");
    snap.str("scale", sweep::scale_name(cfg.scale))
        .field("seed", SEED)
        .str("fabric", &cfg.axes.fabrics[0].to_string())
        .field("presets", report::str_list(&preset_order))
        .field("fault_counts", report::num_list(&cfg.axes.fault_counts))
        .field("fault_seeds", cfg.axes.fault_seeds.len())
        .field("pinned_faults", report::str_list(&cfg.axes.pinned))
        .field("total_wall_ms", format!("{wall_ms:.3}"));
    snap.rows("degradation", &curves);
    let rows: Vec<String> = measured
        .iter()
        .map(|m| {
            let wedged = match &m.wedged {
                Some(w) => format!("\"{}\"", report::json_escape(w)),
                None => "null".to_string(),
            };
            let cycles = m.cycles.map_or("null".to_string(), |c| c.to_string());
            format!(
                "{{\"kernel\": \"{}\", \"arch\": \"{}\", \"faults\": {}, \"fault_seed\": {}, \"specs\": \"{}\", \"wedged\": {wedged}, \"remapped\": {}, \"cycles\": {cycles}, \"verified\": {}}}",
                m.kernel,
                m.arch,
                m.faults,
                m.fault_seed,
                m.specs,
                m.remapped,
                m.cycles.is_some()
            )
        })
        .collect();
    snap.rows("points", &rows);
    snap.write(&cfg.out)?;

    if let (Some(path), Some(t)) = (&cfg.trace, tracer) {
        let t = t.into_inner().expect("tracer lock");
        std::fs::write(path, t.to_chrome_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("fault_sweep: wrote {} trace events to {path}", t.len());
    }

    let wedged = measured.iter().filter(|m| m.wedged.is_some()).count();
    let remapped = measured.iter().filter(|m| m.remapped).count();
    let infeasible = measured.iter().filter(|m| m.cycles.is_none()).count();
    println!(
        "fault_sweep: {} kernels x {} presets x {:?} faults = {npoints} points ({wedged} wedged, {remapped} remapped, {infeasible} infeasible), {wall_ms:.1} ms ({threads} threads) -> {}",
        cfg.axes.kernels.len(),
        preset_order.len(),
        cfg.axes.fault_counts,
        cfg.out
    );
    for line in &summary {
        println!("{line}");
    }
    if gate_violations > 0 {
        return Err(format!(
            "{gate_violations} zero-fault point(s) diverged from {}",
            cfg.check.as_deref().unwrap_or("the baseline")
        ));
    }
    Ok(())
}
