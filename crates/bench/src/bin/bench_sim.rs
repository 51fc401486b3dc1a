//! Simulator performance trajectory harness.
//!
//! Runs the full evaluation sweep (every kernel, every architecture
//! preset: the 13-kernel suite + the composite LDPC app, across the
//! vN/DF ladder and the SOTA models) on a healthy fabric and writes
//! `BENCH_sim.json` with per-point cycle counts and wall-clock times,
//! so successive PRs can track simulator speedups and catch
//! cycle-count regressions.
//!
//! Unless `--no-search` or `--check` is given, every point is
//! additionally compiled with the annealing mapping explorer
//! (`SearchBudget::default_on()`) and re-simulated; each point records
//! `cycles_search` and the summary records the geomean cycle speedup of
//! the searched mappings over the greedy baseline.
//!
//! Every run also records its [`WallGate`]: the greedy sweep re-run
//! serially, normalised by a calibration slice timed in the same
//! process. `--check BASELINE` fails when any per-point cycle count
//! differs from BASELINE or when this normalised wall regresses by more
//! than 25% over BASELINE's.
//!
//! Faulted sweeps and single-point traces are `fault_sweep`'s job;
//! `MARIONETTE_THREADS=1` runs the sweep single-threaded.

use marionette::cli::{opt, switch, Args, Spec};
use marionette::compiler::SearchBudget;
use marionette::kernels::traits::Scale;
use marionette::parallel::sweep_threads;
use marionette::report::Snapshot;
use marionette::runner::{run_kernel, DEFAULT_MAX_CYCLES};
use marionette_bench::sweep::{self, kernel_tags, Axes, Point, WallGate, SEED};

static SPEC: Spec = Spec {
    name: "bench_sim",
    about: "simulator perf snapshot of every kernel x preset, with cycle and wall gates",
    positional: "",
    flags: &[
        switch("--paper", "use the paper's Table 5 data sizes"),
        switch("--no-search", "skip the mapping-search delta sweep"),
        opt("--fabric", "RxC", "[default: 4x4]"),
        opt("--out", "PATH", "snapshot path [default: BENCH_sim.json]"),
        opt("--check", "BASE", "gate cycles and wall against BASE"),
        opt("--replay", "FRESH", "with --check: gate FRESH, no run"),
    ],
    notes: "",
};

/// How far the normalised greedy wall may exceed the baseline's.
const WALL_TOLERANCE: f64 = 0.25;

struct Config {
    scale: Scale,
    out: String,
    check: Option<String>,
    replay: Option<String>,
    axes: Axes,
}

struct Measured {
    kernel: String,
    arch: String,
    cycles: u64,
    fires: u64,
    wall_ms: f64,
    cycles_search: Option<u64>,
}

fn main() {
    SPEC.run(config, |cfg| run(&cfg));
}

fn config(a: &Args) -> Result<Config, String> {
    let str = |name| a.str(name).map(str::to_string);
    let cfg = Config {
        scale: a.scale()?,
        out: str("--out").unwrap_or_else(|| "BENCH_sim.json".to_string()),
        check: str("--check"),
        replay: str("--replay"),
        axes: Axes {
            // The gate compares greedy cycles: the search delta sweep
            // would only add time to it.
            search: (!(a.has("--no-search") || a.has("--check"))).then(SearchBudget::default_on),
            ..Axes::healthy(kernel_tags(None)?, vec![a.run_request()?.fabric], None)
        },
    };
    if cfg.replay.is_some() && cfg.check.is_none() {
        return Err("--replay only makes sense with --check BASELINE".to_string());
    }
    if cfg.replay.is_none() && cfg.check.as_ref() == Some(&cfg.out) {
        return Err(
            "--check BASELINE would be overwritten by --out; pass a different --out".to_string(),
        );
    }
    Ok(cfg)
}

/// Measures one point: the greedy compile+simulate (timed), then the
/// searched mapping's cycles under `search`, if any.
fn measure(p: &Point, scale: Scale, search: Option<SearchBudget>) -> Result<Measured, String> {
    let k = marionette::kernels::by_short(&p.kernel)
        .ok_or_else(|| format!("{}: unknown kernel tag", p.kernel))?;
    // `wall_ms` times the greedy compile+simulate only: it must not
    // absorb the mapping-search compile time of the delta below.
    let t = std::time::Instant::now();
    let r = run_kernel(k.as_ref(), &p.arch, scale, SEED, DEFAULT_MAX_CYCLES)
        .map_err(|e| format!("{}: {e}", p.what()))?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let cycles_search = match search {
        None => None,
        Some(budget) => {
            let mut searched = p.arch.clone();
            searched.opts.search = budget;
            let rs = run_kernel(k.as_ref(), &searched, scale, SEED, DEFAULT_MAX_CYCLES)
                .map_err(|e| format!("{} (search): {e}", p.what()))?;
            Some(rs.cycles)
        }
    };
    Ok(Measured {
        kernel: p.kernel.clone(),
        arch: p.arch.short.to_string(),
        cycles: r.cycles,
        fires: r.stats.fires,
        wall_ms,
        cycles_search,
    })
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
/// exact, the normalised greedy wall within [`WALL_TOLERANCE`].
fn gate(path: &str, base: &str, fresh: &str) -> Result<(), String> {
    comparable(path, base, fresh)?;
    let points = |json| sweep::parse_points(json).map_err(|e| format!("{path}: {e}"));
    let (checked, mut violations) = sweep::compare_cycles(&points(base)?, &points(fresh)?, true);
    let (b, f) = (WallGate::recorded(base), WallGate::recorded(fresh));
    match (b, f) {
        (Some(b), Some(f)) => violations.extend(sweep::check_wall(b, f, WALL_TOLERANCE)),
        _ => violations.push(format!(
            "normalized_wall missing: baseline {b:?}, this run {f:?}"
        )),
    }
    if violations.is_empty() {
        println!(
            "bench_check: {checked} points match {path} bit for bit, normalized greedy wall {:.1} vs baseline {:.1} slices (gate <= +{:.0}%)",
            f.unwrap_or(0.0),
            b.unwrap_or(0.0),
            WALL_TOLERANCE * 100.0
        );
        return Ok(());
    }
    for v in &violations {
        eprintln!("bench_check: {v}");
    }
    Err(format!("{} regression(s) against {path}", violations.len()))
}

fn run(cfg: &Config) -> Result<(), String> {
    // The baseline is read before anything is written.
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let baseline = cfg.check.as_deref().map(read).transpose()?;
    if let (Some(path), Some(base), Some(fresh)) = (&cfg.check, &baseline, &cfg.replay) {
        return gate(path, base, &read(fresh)?);
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
    let threads = sweep_threads();
    let (measured, wall_ms) = sweep::run(points.clone(), threads, |p| {
        measure(p, cfg.scale, cfg.axes.search)
    })?;
    let wall_gate = WallGate::measure(points.len(), |i| {
        measure(&points[i], cfg.scale, None).map(drop)
    })?;

    snap.field("threads", threads)
        .field("total_wall_ms", format!("{wall_ms:.3}"));
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
    wall_gate.record(&mut snap);
    let rows: Vec<String> = measured
        .iter()
        .map(|m| {
            let search = m.cycles_search.map(|cs| format!(", \"cycles_search\": {cs}"));
            format!(
                "{{\"kernel\": \"{}\", \"arch\": \"{}\", \"cycles\": {}, \"fires\": {}{}, \"wall_ms\": {:.3}}}",
                m.kernel,
                m.arch,
                m.cycles,
                m.fires,
                search.unwrap_or_default(),
                m.wall_ms
            )
        })
        .collect();
    snap.rows("points", &rows);
    snap.write(&cfg.out)?;

    let total_cycles: u64 = measured.iter().map(|m| m.cycles).sum();
    println!(
        "bench_sim: {} points, {total_cycles} total cycles, {wall_ms:.1} ms wall ({threads} threads) -> {}",
        measured.len(),
        cfg.out
    );
    if cfg.axes.search.is_some() {
        println!("bench_sim: mapping search geomean cycle speedup {search_geomean:.4} over the greedy baseline");
    }
    println!(
        "bench_sim: wall gate: median of {} serial greedy runs = {:.1} calibration slices (spread {:.1}%)",
        wall_gate.walls_ms.len(),
        wall_gate.normalized(),
        wall_gate.spread() * 100.0
    );
    match (&cfg.check, &baseline) {
        (Some(path), Some(base)) => gate(path, base, &snap.render()),
        _ => Ok(()),
    }
}
