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
//! ```text
//! fault_sweep [--presets vN,DF,M-PE,M-CN,M] [--kernels A,B]
//!             [--scale tiny|small|paper] [--fabric RxC]
//!             [--fault-counts 0,1,2,4] [--fault-seeds N]
//!             [--fault SPEC]... [--max-cycles N]
//!             [--out BENCH_fault.json] [--check BENCH_sim.json]
//!             [--engine wheel|heap] [--trace FILE]
//! ```
//!
//! `--trace FILE` attaches the cycle tracer and writes a Chrome
//! trace-event JSON (Perfetto-viewable, with a `remap after …` marker
//! on healed points) — the sweep must be narrowed to exactly one point
//! with `--kernels`, `--presets`, `--fault-counts` and `--fault-seeds`.
//!
//! `--engine wheel|heap` pins the simulator's event-queue core for every
//! point (default wheel); fault delivery is engine-independent, so the
//! degradation curves and the 0-fault identity gate must come out the
//! same either way.
//!
//! `--fault SPEC` pins explicit faults (`pe:R,C`, `link:R,C-R,C`,
//! `flaky:R,C-R,C@MULT`) under every point on top of the seeded-random
//! ones. Zero-fault points run an empty fault set, which is guaranteed
//! bit-identical to the fault-free stack — `--check BENCH_sim.json`
//! turns that guarantee into a gate by comparing their cycle counts
//! against the committed perf snapshot.
//!
//! A remap that cannot fit on the surviving fabric is the typed
//! "infeasible" outcome, counted against the preset's success rate, not
//! a sweep failure. Exit codes: `0` every surviving point verified,
//! `1` any pipeline/verification failure or `--check` mismatch,
//! `2` usage errors.

use marionette::arch::{Architecture, FabricDims};
use marionette::compiler::SearchBudget;
use marionette::experiments::geomean;
use marionette::kernels::traits::Scale;
use marionette::parallel::{par_map, sweep_threads};
use marionette::report::json_escape;
use marionette::runner::{run_kernel_with, RunnerError, DEFAULT_MAX_CYCLES};
use marionette::sim::{EngineKind, FaultSet, RunSpec, Tracer};
use marionette_bench::{kernel_tags, snapshot};
use std::time::Instant;

const SEED: u64 = 1;

struct Args {
    presets: String,
    kernels: Option<String>,
    scale: Scale,
    fabric: FabricDims,
    fault_counts: Vec<usize>,
    fault_seeds: u64,
    fault_specs: Vec<String>,
    max_cycles: u64,
    out: String,
    check: Option<String>,
    engine: EngineKind,
    trace: Option<String>,
}

fn usage() -> String {
    "usage: fault_sweep [--presets vN,DF,M-PE,M-CN,M] [--kernels A,B] \
     [--scale tiny|small|paper] [--fabric RxC] [--fault-counts 0,1,2,4] \
     [--fault-seeds N] [--fault SPEC]... [--max-cycles N] [--out PATH] \
     [--check BENCH_sim.json] [--engine wheel|heap] [--trace FILE]"
        .to_string()
}

const KNOWN_FLAGS: &[&str] = &[
    "--presets",
    "--kernels",
    "--scale",
    "--fabric",
    "--fault-counts",
    "--fault-seeds",
    "--fault",
    "--max-cycles",
    "--out",
    "--check",
    "--engine",
    "--trace",
];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    // Strict argv validation: every token must be a known flag or the
    // value of the preceding one (a typo'd `--fault-count` must error,
    // not silently run the default sweep).
    let mut i = 1;
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    while i < argv.len() {
        if !KNOWN_FLAGS.contains(&argv[i].as_str()) {
            return Err(format!("unknown argument `{}`\n{}", argv[i], usage()));
        }
        *counts.entry(argv[i].as_str()).or_insert(0) += 1;
        i += 2; // the flag's value (validated by the per-flag parser)
    }
    // `--fault` accumulates; every other flag may appear once. The
    // position-based `get` below takes the *first* occurrence, so a
    // silently-accepted duplicate would not even last-win — reject it.
    for (flag, n) in &counts {
        if *flag != "--fault" && *n > 1 {
            return Err(format!("duplicate flag `{flag}`\n{}", usage()));
        }
    }
    let get = |flag: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
                _ => Err(format!("{flag} needs a value\n{}", usage())),
            },
        }
    };
    // `--fault` repeats; collect every occurrence.
    let mut fault_specs = Vec::new();
    let mut i = 1;
    while i < argv.len() {
        if argv[i] == "--fault" {
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => fault_specs.push(v.clone()),
                _ => return Err(format!("--fault needs a value\n{}", usage())),
            }
        }
        i += 2;
    }
    let fault_counts = get("--fault-counts")?
        .unwrap_or_else(|| "0,1,2,4".to_string())
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("--fault-counts: `{s}` is not a count"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if fault_counts.is_empty() {
        return Err("--fault-counts needs at least one entry".to_string());
    }
    let fault_seeds = match get("--fault-seeds")? {
        None => 3,
        Some(v) => {
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--fault-seeds must be numeric, got `{v}`"))?;
            if n == 0 {
                return Err("--fault-seeds must be at least 1".to_string());
            }
            n
        }
    };
    Ok(Args {
        presets: get("--presets")?.unwrap_or_else(|| "vN,DF,M-PE,M-CN,M".to_string()),
        kernels: get("--kernels")?,
        scale: match get("--scale")?.as_deref() {
            None | Some("small") => Scale::Small,
            Some("tiny") => Scale::Tiny,
            Some("paper") => Scale::Paper,
            Some(other) => {
                return Err(format!(
                    "--scale: `{other}` is not one of tiny, small, paper"
                ))
            }
        },
        fabric: match get("--fabric")? {
            None => FabricDims::paper(),
            Some(v) => v.parse().map_err(|e| format!("--fabric: {e}"))?,
        },
        fault_counts,
        fault_seeds,
        fault_specs,
        max_cycles: match get("--max-cycles")? {
            None => DEFAULT_MAX_CYCLES,
            Some(v) => v
                .parse()
                .map_err(|_| format!("--max-cycles must be numeric, got `{v}`"))?,
        },
        out: get("--out")?.unwrap_or_else(|| "BENCH_fault.json".to_string()),
        check: get("--check")?,
        engine: match get("--engine")? {
            None => EngineKind::default(),
            Some(v) => v.parse().map_err(|e| format!("--engine: {e}"))?,
        },
        trace: get("--trace")?,
    })
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

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fault_sweep: {e}");
            std::process::exit(2);
        }
    };
    // Selection and fault-spec problems are usage errors.
    let selection = (|| -> Result<_, String> {
        let tags = kernel_tags(args.kernels.as_deref())?;
        let mut archs = marionette::arch::presets_by_tags_on(args.fabric, &args.presets)?;
        if archs.is_empty() {
            return Err("empty preset selection".to_string());
        }
        for a in &mut archs {
            a.opts.search = SearchBudget::Off;
        }
        // Validate the pinned `--fault` specs once, up front.
        FaultSet::from_cli(args.fabric.rows, args.fabric.cols, &args.fault_specs, 0, 0)?;
        if let Some(path) = &args.trace {
            // A trace interleaves every traced point's events into one
            // timeline, so it only makes sense for a single point.
            let seed_axis: usize = args
                .fault_counts
                .iter()
                .map(|&n| {
                    if n == 0 && args.fault_specs.is_empty() {
                        1
                    } else {
                        args.fault_seeds as usize
                    }
                })
                .sum();
            let total = tags.len() * archs.len() * seed_axis;
            if total != 1 {
                return Err(format!(
                    "--trace records one point's run; narrow the {total} selected points \
                     with --kernels, --presets, --fault-counts and --fault-seeds"
                ));
            }
            // Open the file now so an unwritable path is a usage error.
            std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
        }
        Ok((tags, archs))
    })();
    let (tags, archs) = match selection {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fault_sweep: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args, tags, archs) {
        eprintln!("fault_sweep: {e}");
        std::process::exit(1);
    }
}

/// Compiles, (re)maps and simulates one sweep point, optionally with
/// the cycle tracer attached.
fn measure(
    args: &Args,
    tag: String,
    arch: &Architecture,
    n: usize,
    fseed: u64,
    tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let k =
        marionette::kernels::by_short(&tag).ok_or_else(|| format!("{tag}: unknown kernel tag"))?;
    let faults = FaultSet::from_cli(
        args.fabric.rows,
        args.fabric.cols,
        &args.fault_specs,
        n,
        fseed,
    )
    .map_err(|e| format!("{tag} on {}: {e}", arch.short))?;
    let specs = faults
        .specs()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join("+");
    let mut spec = RunSpec {
        faults: &faults,
        engine: args.engine,
        max_cycles: args.max_cycles,
        tracer,
    };
    let (wedged, remapped, cycles) =
        match run_kernel_with(k.as_ref(), arch, args.scale, SEED, &mut spec) {
            Ok(fr) => (fr.wedged, fr.remapped, Some(fr.run.cycles)),
            // The healthy compile of every shipped kernel × preset
            // succeeds (the 0-fault sweep proves it), so a compile
            // error here is the typed remap-infeasible outcome.
            Err(RunnerError::Compile(e)) => (Some(e.to_string()), false, None),
            Err(e) => return Err(format!("{tag} on {} with [{specs}]: {e}", arch.short)),
        };
    Ok(Measured {
        kernel: tag,
        arch: arch.short.to_string(),
        faults: n,
        fault_seed: fseed,
        specs,
        wedged,
        remapped,
        cycles,
    })
}

fn run(args: &Args, tags: Vec<String>, archs: Vec<Architecture>) -> Result<(), String> {
    let t0 = Instant::now();
    let threads = sweep_threads();

    // Zero-fault points are seed-independent (the fault set is empty
    // either way), so they run once instead of once per fault seed.
    let mut points: Vec<(String, Architecture, usize, u64)> = Vec::new();
    for tag in &tags {
        for arch in &archs {
            for &n in &args.fault_counts {
                let seeds = if n == 0 && args.fault_specs.is_empty() {
                    1
                } else {
                    args.fault_seeds
                };
                for fs in 1..=seeds {
                    points.push((tag.clone(), arch.clone(), n, fs));
                }
            }
        }
    }
    let npoints = points.len();
    let mut tracer = args.trace.as_ref().map(|_| Tracer::new());
    let outcomes = match tracer.as_mut() {
        // Trace mode is pre-validated to a single point: run it on this
        // thread so the recorder needs no cross-thread plumbing.
        Some(t) => {
            let (tag, arch, n, fseed) = points.into_iter().next().expect("one point");
            vec![measure(args, tag, &arch, n, fseed, Some(t))]
        }
        None => par_map(points, threads, |(tag, arch, n, fseed)| {
            measure(args, tag, &arch, n, fseed, None)
        }),
    };
    let mut measured = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        measured.push(o?);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The 0-fault identity gate: an empty fault set must reproduce the
    // committed perf snapshot's cycle counts bit for bit.
    let mut gate_violations = 0usize;
    if let Some(base_path) = &args.check {
        let json =
            std::fs::read_to_string(base_path).map_err(|e| format!("reading {base_path}: {e}"))?;
        let base =
            snapshot::parse_points(&json).map_err(|e| format!("parsing {base_path}: {e}"))?;
        let mut checked = 0usize;
        for m in measured
            .iter()
            .filter(|m| m.faults == 0 && m.specs.is_empty())
        {
            let Some(b) = base
                .iter()
                .find(|b| b.kernel == m.kernel && b.arch == m.arch)
            else {
                continue;
            };
            checked += 1;
            if m.cycles != Some(b.cycles) {
                gate_violations += 1;
                eprintln!(
                    "fault_sweep: {} on {}: 0-fault run took {:?} cycles, baseline {} has {}",
                    m.kernel, m.arch, m.cycles, base_path, b.cycles
                );
            }
        }
        if checked == 0 {
            return Err(format!(
                "--check {base_path}: no 0-fault point matches the baseline (run with 0 in --fault-counts and no --fault)"
            ));
        }
        if gate_violations == 0 {
            println!("fault_sweep: {checked} zero-fault points match {base_path} bit for bit");
        }
    }

    // Degradation curves: per preset × fault count, the remap success
    // rate and the geomean cycles over surviving points.
    let preset_order: Vec<String> = archs.iter().map(|a| a.short.to_string()).collect();
    struct Curve {
        faults: usize,
        points: usize,
        wedged: usize,
        remapped: usize,
        infeasible: usize,
        geomean_cycles: f64,
    }
    let mut degradation: Vec<(String, Vec<Curve>)> = Vec::new();
    for p in &preset_order {
        let mut curves = Vec::new();
        for &n in &args.fault_counts {
            let pts: Vec<&Measured> = measured
                .iter()
                .filter(|m| m.arch == *p && m.faults == n)
                .collect();
            let cycles: Vec<f64> = pts
                .iter()
                .filter_map(|m| m.cycles.map(|c| c as f64))
                .collect();
            curves.push(Curve {
                faults: n,
                points: pts.len(),
                wedged: pts.iter().filter(|m| m.wedged.is_some()).count(),
                remapped: pts.iter().filter(|m| m.remapped).count(),
                infeasible: pts.iter().filter(|m| m.cycles.is_none()).count(),
                geomean_cycles: geomean(&cycles),
            });
        }
        degradation.push((p.clone(), curves));
    }

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"marionette.fault_sweep/v1\",\n");
    j.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match args.scale {
            Scale::Tiny => "tiny",
            Scale::Paper => "paper",
            _ => "small",
        }
    ));
    j.push_str(&format!("  \"seed\": {SEED},\n"));
    j.push_str(&format!("  \"fabric\": \"{}\",\n", args.fabric));
    j.push_str(&format!("  \"engine\": \"{}\",\n", args.engine));
    j.push_str(&format!(
        "  \"presets\": [{}],\n",
        preset_order
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!(
        "  \"fault_counts\": [{}],\n",
        args.fault_counts
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!("  \"fault_seeds\": {},\n", args.fault_seeds));
    j.push_str(&format!(
        "  \"pinned_faults\": [{}],\n",
        args.fault_specs
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!("  \"total_wall_ms\": {wall_ms:.3},\n"));
    j.push_str("  \"degradation\": [\n");
    for (pi, (p, curves)) in degradation.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"arch\": \"{}\", \"curve\": [",
            json_escape(p)
        ));
        for (ci, c) in curves.iter().enumerate() {
            let rate = if c.points == 0 {
                1.0
            } else {
                (c.points - c.infeasible) as f64 / c.points as f64
            };
            j.push_str(&format!(
                "{}{{\"faults\": {}, \"points\": {}, \"wedged\": {}, \"remapped\": {}, \"infeasible\": {}, \"success_rate\": {rate:.4}, \"geomean_cycles\": {:.1}}}",
                if ci == 0 { "" } else { ", " },
                c.faults,
                c.points,
                c.wedged,
                c.remapped,
                c.infeasible,
                c.geomean_cycles
            ));
        }
        j.push_str(&format!(
            "]}}{}\n",
            if pi + 1 == degradation.len() { "" } else { "," }
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"points\": [\n");
    for (i, m) in measured.iter().enumerate() {
        let wedged = match &m.wedged {
            Some(w) => format!("\"{}\"", json_escape(w)),
            None => "null".to_string(),
        };
        let cycles = match m.cycles {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        j.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"arch\": \"{}\", \"faults\": {}, \"fault_seed\": {}, \"specs\": \"{}\", \"wedged\": {wedged}, \"remapped\": {}, \"cycles\": {cycles}, \"verified\": {}}}{}\n",
            json_escape(&m.kernel),
            json_escape(&m.arch),
            m.faults,
            m.fault_seed,
            json_escape(&m.specs),
            m.remapped,
            m.cycles.is_some(),
            if i + 1 == measured.len() { "" } else { "," }
        ));
    }
    j.push_str("  ]\n}\n");
    std::fs::write(&args.out, &j).map_err(|e| format!("writing {}: {e}", args.out))?;

    if let (Some(path), Some(t)) = (&args.trace, &tracer) {
        std::fs::write(path, t.to_chrome_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("fault_sweep: wrote {} trace events to {path}", t.len());
    }

    let wedged: usize = measured.iter().filter(|m| m.wedged.is_some()).count();
    let remapped: usize = measured.iter().filter(|m| m.remapped).count();
    let infeasible: usize = measured.iter().filter(|m| m.cycles.is_none()).count();
    println!(
        "fault_sweep: {} kernels x {} presets x {:?} faults = {npoints} points ({wedged} wedged, {remapped} remapped, {infeasible} infeasible), {wall_ms:.1} ms ({threads} threads) -> {}",
        tags.len(),
        preset_order.len(),
        args.fault_counts,
        args.out
    );
    for (p, curves) in &degradation {
        let cells: Vec<String> = curves
            .iter()
            .map(|c| {
                let rate = if c.points == 0 {
                    1.0
                } else {
                    (c.points - c.infeasible) as f64 / c.points as f64
                };
                format!(
                    "{}f {:.0} cyc {:.0}% ok",
                    c.faults,
                    c.geomean_cycles,
                    rate * 100.0
                )
            })
            .collect();
        println!("fault_sweep: {p}: {}", cells.join(", "));
    }
    if gate_violations > 0 {
        return Err(format!(
            "{gate_violations} zero-fault point(s) diverged from {}",
            args.check.as_deref().unwrap_or("the baseline")
        ));
    }
    Ok(())
}
