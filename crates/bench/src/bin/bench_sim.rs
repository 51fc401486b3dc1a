//! Simulator performance trajectory harness.
//!
//! Runs the full evaluation sweep (every kernel, every architecture
//! preset: the 13-kernel suite + the composite LDPC app, across the
//! vN/DF ladder and the SOTA models) and writes `BENCH_sim.json` with
//! per-point cycle counts and wall-clock times, so successive PRs can
//! track simulator speedups and catch cycle-count regressions.
//!
//! Unless `--no-search` is given, every point is additionally compiled
//! with the annealing mapping explorer (`SearchBudget::default_on()`)
//! and re-simulated; each point records `cycles_search` and the summary
//! records the geomean cycle speedup of the searched mappings over the
//! greedy baseline.
//!
//! A healthy sweep also records its [`WallGate`]: the greedy sweep
//! re-run serially, normalised by a calibration slice timed in the same
//! process. `--check BASELINE` fails when any
//! per-point cycle count differs from BASELINE or when this normalised
//! wall regresses by more than the tolerance over BASELINE's.
//!
//! Fault runs (`--fault`/`--faults`) imply `--no-search` and refuse
//! `--check`: a damaged fabric is not comparable to the healthy
//! baseline.

use marionette::cli::{multi, opt, switch, Args, Spec};
use marionette::compiler::SearchBudget;
use marionette::kernels::traits::Scale;
use marionette::parallel::sweep_threads;
use marionette::report::{self, Snapshot};
use marionette::runner::{run_kernel, run_kernel_with, RunnerError, DEFAULT_MAX_CYCLES};
use marionette::sim::{RunSpec, Tracer};
use marionette_bench::sweep::{self, kernel_tags, Axes, Point, WallGate, SEED};

static SPEC: Spec = Spec {
    name: "bench_sim",
    about: "simulator perf snapshot of every kernel x preset, with cycle and wall gates",
    positional: "",
    flags: &[
        switch("--paper", "use the paper's Table 5 data sizes"),
        switch("--serial", "run the sweep single-threaded"),
        switch("--compare", "also run serially; record the speedup"),
        switch("--no-search", "skip the mapping-search delta sweep"),
        opt("--fabric", "RxC", "[default: 4x4]"),
        opt("--out", "PATH", "snapshot path [default: BENCH_sim.json]"),
        opt("--check", "BASE", "gate cycles and wall against BASE"),
        opt("--replay", "FRESH", "with --check: gate FRESH, no run"),
        opt("--wall-tolerance", "PCT", "[default: 25]"),
        multi("--fault", "SPEC", "pin a fault (pe:, link: or flaky:)"),
        opt("--faults", "N", "add N seeded-random faults"),
        opt("--fault-seed", "S", "random fault seed [default: 1]"),
        opt("--trace", "FILE", "trace one point instead of sweeping"),
        opt("--trace-point", "K:P", "the KERNEL:PRESET to trace"),
    ],
    notes: "",
};

struct Config {
    scale: Scale,
    serial: bool,
    compare: bool,
    out: String,
    check: Option<String>,
    replay: Option<String>,
    wall_tolerance: f64,
    trace: Option<String>,
    axes: Axes,
}

struct Measured {
    kernel: String,
    arch: String,
    cycles: u64,
    fires: u64,
    wall_ms: f64,
    cycles_search: Option<u64>,
    remapped: bool,
}

fn main() {
    SPEC.run(config, |cfg| run(&cfg));
}

fn config(a: &Args) -> Result<Config, String> {
    let req = a.run_request()?;
    let faulted = !req.faults().is_empty();
    let wall_tolerance = match a.parsed::<f64>("--wall-tolerance")? {
        None => 0.25,
        Some(pct) if pct >= 0.0 => pct / 100.0,
        Some(pct) => return Err(format!("--wall-tolerance: `{pct}` must be >= 0")),
    };
    let str = |name| a.str(name).map(str::to_string);
    let mut cfg = Config {
        scale: a.scale()?,
        serial: a.has("--serial"),
        compare: a.has("--compare"),
        out: str("--out").unwrap_or_else(|| "BENCH_sim.json".to_string()),
        check: str("--check"),
        replay: str("--replay"),
        wall_tolerance,
        trace: str("--trace"),
        axes: Axes {
            pinned: req.pinned_faults.specs().to_vec(),
            fault_counts: vec![req.random_faults],
            fault_seeds: vec![req.fault_seed],
            // Fault runs measure self-healed greedy mappings and the gate
            // compares greedy cycles: the search delta sweep would only
            // add time to each.
            search: (!(a.has("--no-search") || faulted || a.has("--check")))
                .then(SearchBudget::default_on),
            ..Axes::healthy(kernel_tags(None)?, vec![req.fabric], None)
        },
    };
    let (traced, check, point) = (
        cfg.trace.is_some(),
        cfg.check.is_some(),
        a.has("--trace-point"),
    );
    let conflict = if cfg.replay.is_some() && !check {
        "--replay only makes sense with --check BASELINE"
    } else if faulted && check {
        "--check compares against a healthy baseline; drop the fault flags"
    } else if traced != point {
        match traced {
            true => "--trace needs --trace-point KERNEL:PRESET to name the run",
            false => "--trace-point only makes sense with --trace FILE",
        }
    } else if traced && (check || cfg.replay.is_some() || cfg.compare || cfg.serial) {
        "--trace records a single run; drop --check/--replay/--compare/--serial"
    } else if cfg.replay.is_none() && cfg.check.as_ref() == Some(&cfg.out) {
        "--check BASELINE would be overwritten by --out; pass a different --out"
    } else {
        ""
    };
    if !conflict.is_empty() {
        return Err(conflict.to_string());
    }
    if let (Some(path), Some(point)) = (&cfg.trace, a.str("--trace-point")) {
        let (ktag, ptag) = point.split_once(':').ok_or_else(|| {
            format!("--trace-point wants KERNEL:PRESET (e.g. CRC:M), got `{point}`")
        })?;
        let kernel = sweep::canonical_kernel(ktag).map_err(|e| format!("--trace-point: {e}"))?;
        cfg.axes.kernels = vec![kernel];
        cfg.axes.presets = Some(ptag.to_string());
        let n = cfg
            .axes
            .points()
            .map_err(|e| format!("--trace-point: {e}"))?
            .len();
        if n != 1 {
            return Err(format!(
                "--trace-point: `{ptag}` selects {n} presets; name exactly one"
            ));
        }
        // An unwritable path is a usage error, not a mid-run failure.
        std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
    }
    Ok(cfg)
}

/// Measures one point: the greedy compile+simulate (timed), then the
/// searched mapping's cycles under `search`, if any. `None` is the typed
/// remap-infeasible outcome of a faulted point.
fn measure(
    p: &Point,
    cfg: &Config,
    search: Option<SearchBudget>,
    tracer: Option<&mut Tracer>,
) -> Result<Option<Measured>, String> {
    let k = marionette::kernels::by_short(&p.kernel)
        .ok_or_else(|| format!("{}: unknown kernel tag", p.kernel))?;
    // `wall_ms` times the greedy compile+simulate only: it must not
    // absorb the mapping-search compile time of the delta below.
    let t = std::time::Instant::now();
    let mut spec = RunSpec {
        faults: &p.fault_set,
        max_cycles: DEFAULT_MAX_CYCLES,
        tracer,
    };
    let (r, remapped) = match run_kernel_with(k.as_ref(), &p.arch, cfg.scale, SEED, &mut spec) {
        Ok(fr) => (fr.run, fr.wedged.is_some()),
        // Every shipped point compiles healthy, so a compile error
        // under faults is the typed remap-infeasible outcome.
        Err(RunnerError::Compile(_)) if !p.fault_set.is_empty() => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", p.what())),
    };
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let cycles_search = match search {
        None => None,
        Some(budget) => {
            let mut searched = p.arch.clone();
            searched.opts.search = budget;
            let rs = run_kernel(k.as_ref(), &searched, cfg.scale, SEED, DEFAULT_MAX_CYCLES)
                .map_err(|e| format!("{} (search): {e}", p.what()))?;
            Some(rs.cycles)
        }
    };
    Ok(Some(Measured {
        kernel: p.kernel.clone(),
        arch: p.arch.short.to_string(),
        cycles: r.cycles,
        fires: r.stats.fires,
        wall_ms,
        cycles_search,
        remapped,
    }))
}

/// Refuses to compare snapshots of a different scale or fabric.
fn comparable(path: &str, base: &str, fresh: &str) -> Result<(), String> {
    for key in ["scale", "fabric"] {
        let (b, f) = (sweep::header_str(base, key), sweep::header_str(fresh, key));
        let (b, f) = (b.unwrap_or_default(), f.unwrap_or_default());
        if b != f {
            return Err(format!(
                "baseline {path} has {key} `{b}`, this run `{f}` — not comparable"
            ));
        }
    }
    Ok(())
}

/// The `--check` gate between two snapshot texts: every cycle count
/// exact, the normalised greedy wall within tolerance.
fn gate(path: &str, base: &str, fresh: &str, tolerance: f64) -> Result<(), String> {
    comparable(path, base, fresh)?;
    let points = |json| sweep::parse_points(json).map_err(|e| format!("{path}: {e}"));
    let (checked, mut violations) = sweep::compare_cycles(&points(base)?, &points(fresh)?, true);
    let (b, f) = (WallGate::recorded(base), WallGate::recorded(fresh));
    match (b, f) {
        (Some(b), Some(f)) => violations.extend(sweep::check_wall(b, f, tolerance)),
        _ => violations.push(format!(
            "normalized_wall missing: baseline {b:?}, this run {f:?}"
        )),
    }
    if violations.is_empty() {
        println!(
            "bench_check: {checked} points match {path} bit for bit, normalized greedy wall {:.1} vs baseline {:.1} slices (gate <= +{:.0}%)",
            f.unwrap_or(0.0),
            b.unwrap_or(0.0),
            tolerance * 100.0
        );
        return Ok(());
    }
    for v in &violations {
        eprintln!("bench_check: {v}");
    }
    Err(format!("{} regression(s) against {path}", violations.len()))
}

/// Traces the one point `--trace-point` names.
fn trace(cfg: &Config, path: &str) -> Result<(), String> {
    let p = cfg.axes.points()?.pop().expect("validated to one point");
    let mut tracer = Tracer::new();
    let m = measure(&p, cfg, None, Some(&mut tracer))?
        .ok_or_else(|| format!("{}: remap infeasible", p.what()))?;
    std::fs::write(path, tracer.to_chrome_json()).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "bench_sim: traced {} on {}: {} cycles, {} fires{}, {:.1} ms -> {} trace events in {path}",
        m.kernel,
        m.arch,
        m.cycles,
        m.fires,
        if m.remapped { " (remapped)" } else { "" },
        m.wall_ms,
        tracer.len()
    );
    Ok(())
}

fn run(cfg: &Config) -> Result<(), String> {
    if let Some(path) = &cfg.trace {
        return trace(cfg, path);
    }
    // The baseline is read before anything is written.
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let baseline = cfg.check.as_deref().map(read).transpose()?;
    if let (Some(path), Some(base), Some(fresh)) = (&cfg.check, &baseline, &cfg.replay) {
        return gate(path, base, &read(fresh)?, cfg.wall_tolerance);
    }
    let mut snap = Snapshot::new("marionette.bench_sim/v1");
    snap.str("scale", sweep::scale_name(cfg.scale))
        .field("seed", SEED)
        .str("fabric", &cfg.axes.fabrics[0].to_string());
    if let (Some(path), Some(base)) = (&cfg.check, &baseline) {
        // Refuse an incomparable gate run before spending a sweep on it.
        comparable(path, base, &snap.render())?;
    }

    let points = cfg.axes.points()?;
    let faults = points[0].fault_set.clone();
    let sweep_once = |threads| {
        sweep::run(points.clone(), threads, |p| {
            measure(p, cfg, cfg.axes.search, None)
        })
    };
    let serial_wall = match cfg.compare && !cfg.serial {
        true => Some(sweep_once(1)?.1),
        false => None,
    };
    let threads = if cfg.serial { 1 } else { sweep_threads() };
    let mode = if cfg.serial { "serial" } else { "parallel" };
    let (results, wall_ms) = sweep_once(threads)?;
    let infeasible = results.iter().filter(|m| m.is_none()).count();
    let measured: Vec<Measured> = results.into_iter().flatten().collect();
    let wall_gate = faults
        .is_empty()
        .then(|| {
            WallGate::measure(points.len(), |i| {
                measure(&points[i], cfg, None, None).map(drop)
            })
        })
        .transpose()?;

    if !faults.is_empty() {
        snap.field("faults", report::str_list(faults.specs()))
            .field("remap_infeasible", infeasible);
    }
    snap.str("mode", mode)
        .field("threads", threads)
        .field("total_wall_ms", format!("{wall_ms:.3}"));
    if let Some(sw) = serial_wall {
        snap.field("serial_wall_ms", format!("{sw:.3}"))
            .field("parallel_speedup", format!("{:.3}", sw / wall_ms));
    }
    let speedups: Vec<f64> = measured
        .iter()
        .filter_map(|m| m.cycles_search.map(|cs| m.cycles as f64 / cs as f64))
        .collect();
    let search_geomean = marionette::experiments::geomean(&speedups);
    if let Some(SearchBudget::Anneal {
        moves, restarts, ..
    }) = cfg.axes.search
    {
        let count = |f: fn(f64) -> bool| speedups.iter().filter(|&&s| f(s)).count();
        snap.field(
            "search",
            format!(
                "{{\"moves\": {moves}, \"restarts\": {restarts}, \"geomean_speedup\": {search_geomean:.4}, \"improved\": {}, \"regressed\": {}}}",
                count(|s| s > 1.0),
                count(|s| s < 1.0)
            ),
        );
    }
    if let Some(g) = &wall_gate {
        g.record(&mut snap);
    }
    let rows: Vec<String> = measured
        .iter()
        .map(|m| {
            let search = m.cycles_search.map(|cs| format!(", \"cycles_search\": {cs}"));
            let remap = (!faults.is_empty()).then(|| format!(", \"remapped\": {}", m.remapped));
            format!(
                "{{\"kernel\": \"{}\", \"arch\": \"{}\", \"cycles\": {}, \"fires\": {}{}{}, \"wall_ms\": {:.3}}}",
                m.kernel,
                m.arch,
                m.cycles,
                m.fires,
                search.unwrap_or_default(),
                remap.unwrap_or_default(),
                m.wall_ms
            )
        })
        .collect();
    snap.rows("points", &rows);
    snap.write(&cfg.out)?;

    let total_cycles: u64 = measured.iter().map(|m| m.cycles).sum();
    println!(
        "bench_sim: {} points, {total_cycles} total cycles, {wall_ms:.1} ms wall ({mode}, {threads} threads) -> {}",
        measured.len(),
        cfg.out
    );
    if !faults.is_empty() {
        println!(
            "bench_sim: injected {faults}; {} of {} points healed by remap, {infeasible} remap-infeasible (skipped)",
            measured.iter().filter(|m| m.remapped).count(),
            measured.len()
        );
    }
    if cfg.axes.search.is_some() {
        println!("bench_sim: mapping search geomean cycle speedup {search_geomean:.4} over the greedy baseline");
    }
    if let Some(sw) = serial_wall {
        println!(
            "bench_sim: serial {sw:.1} ms vs parallel {wall_ms:.1} ms = {:.2}x speedup",
            sw / wall_ms
        );
    }
    if let Some(g) = &wall_gate {
        println!(
            "bench_sim: wall gate: median of {} serial greedy runs = {:.1} calibration slices (spread {:.1}%)",
            g.walls_ms.len(),
            g.normalized(),
            g.spread() * 100.0
        );
    }
    match (&cfg.check, &baseline) {
        (Some(path), Some(base)) => gate(path, base, &snap.render(), cfg.wall_tolerance),
        _ => Ok(()),
    }
}
