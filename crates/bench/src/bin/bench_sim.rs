//! Simulator performance trajectory harness.
//!
//! Runs the full evaluation sweep (every kernel, every architecture
//! preset: the 13-kernel suite + the composite LDPC app, across the
//! vN/DF ladder and the SOTA models) and writes `BENCH_sim.json` with
//! per-point cycle counts and wall-clock times, so successive PRs can
//! track simulator speedups and catch cycle-count regressions.
//!
//! Flags:
//! - `--paper`     use the paper's Table 5 data sizes (default: Small);
//! - `--serial`    run the sweep single-threaded only;
//! - `--compare`   run the sweep twice (serial then parallel) and record
//!   the wall-clock speedup;
//! - `--no-search` skip the mapping-search delta sweep;
//! - `--fabric RxC` instantiate the presets on an R×C fabric
//!   (default 4x4);
//! - `--out PATH`  output path (default `BENCH_sim.json`);
//! - `--check BASELINE`  perf-regression gate: run the greedy sweep only
//!   (search implied off) and exit 1 if any per-point `cycles` differs
//!   from the committed BASELINE snapshot, or if the greedy wall clock
//!   regresses more than 25% over it;
//! - `--replay FRESH`  with `--check`: compare an already-written FRESH
//!   snapshot against BASELINE without re-running the sweep (used by CI
//!   to demonstrate the gate on a tampered baseline);
//! - `--wall-tolerance PCT`  wall-regression threshold of the gate
//!   (default 25; the cycle compare is exact regardless — widen this
//!   when baseline and runner are not comparable machines);
//! - `--fault SPEC` (repeatable: `pe:R,C`, `link:R,C-R,C`,
//!   `flaky:R,C-R,C@MULT`) and `--faults N` (seeded-random damage,
//!   `--fault-seed S` to vary it)  inject faults into every simulation;
//!   wedged bitstreams are re-mapped around the damage and bit-verified.
//!   Fault runs imply `--no-search` and refuse `--check` (a damaged
//!   fabric is not comparable to the healthy baseline);
//! - `--engine wheel|heap`  pin the simulator's event-queue core. The
//!   default (and what every committed snapshot records and gates
//!   against) is the event wheel; `--engine heap` measures the reference
//!   core. The gate refuses to compare snapshots from different engines;
//! - `--lanes N`  run each point as N batched lanes (seeds S..S+N) of
//!   one compiled bitstream (`runner::run_kernel_lanes`), recording lane
//!   0's cycles and the whole batch's wall time — the amortized-sweep
//!   mode. Implies `--no-search` and refuses `--check` (an N-lane wall
//!   is not comparable to the single-lane baseline);
//! - `--trace FILE --trace-point KERNEL:PRESET`  skip the sweep and run
//!   the one named point with the cycle tracer attached, writing a
//!   Chrome trace-event JSON (Perfetto-viewable) to FILE. Combines with
//!   `--engine` (heap-vs-wheel trace diffing) and the fault flags
//!   (healthy-vs-remapped); refuses `--check`/`--replay`/`--compare`/
//!   `--serial`/`--lanes`, whose wall-clock semantics a traced run
//!   would distort.
//!
//! Unless `--no-search` is given, every point is additionally compiled
//! with the annealing mapping explorer (`SearchBudget::default_on()`)
//! and re-simulated; each point records `cycles_search` and the summary
//! records the geomean cycle speedup of the searched mappings over the
//! greedy baseline.

use marionette::arch::FabricDims;
use marionette::compiler::SearchBudget;
use marionette::kernels::traits::Scale;
use marionette::parallel::{par_map, sweep_threads};
use marionette::runner::{
    run_kernel, run_kernel_lanes, run_kernel_with, RunnerError, DEFAULT_MAX_CYCLES,
};
use marionette::sim::{EngineKind, FaultSet, RunSpec, Tracer};
use marionette_bench::{kernel_tags, snapshot};
use std::time::Instant;

const SEED: u64 = 1;

/// Default wall-clock regression threshold of the `--check` gate
/// (override with `--wall-tolerance PCT`). The per-point cycle compare
/// is exact; the wall gate assumes baseline and run come from
/// comparable machines — widen the tolerance when they don't.
const WALL_TOLERANCE: f64 = 0.25;

struct Point {
    kernel: String,
    arch: marionette::arch::Architecture,
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

fn points(fabric: FabricDims) -> Vec<Point> {
    let archs = marionette::arch::all_presets_on(fabric);
    let tags = kernel_tags(None).expect("no filter");
    tags.iter()
        .flat_map(|kernel| {
            archs.iter().map(move |a| Point {
                kernel: kernel.clone(),
                arch: a.clone(),
            })
        })
        .collect()
}

/// `KERNEL on PRESET`, plus the injected faults when there are any.
fn what(kernel: &str, preset: &str, faults: &FaultSet) -> String {
    if faults.is_empty() {
        format!("{kernel} on {preset}")
    } else {
        format!("{kernel} on {preset} with [{faults}]")
    }
}

fn sweep(
    scale: Scale,
    threads: usize,
    search: bool,
    fabric: FabricDims,
    faults: &FaultSet,
    engine: EngineKind,
    lanes: usize,
) -> Result<(Vec<Measured>, usize, f64), String> {
    let pts = points(fabric);
    let t0 = Instant::now();
    let results = par_map(pts, threads, |p| -> Result<Option<Measured>, String> {
        let k = marionette::kernels::by_short(&p.kernel)
            .ok_or_else(|| format!("{}: unknown kernel tag", p.kernel))?;
        // `wall_ms` times the greedy compile+simulate only: it is the
        // cross-PR simulator-throughput metric, and must not absorb the
        // mapping-search compile time of the delta sweep below.
        let t = Instant::now();
        // The empty fault set keeps the legacy path (bit-identical
        // anyway, but the throughput metric stays honest).
        let (r, remapped) = if faults.is_empty() && lanes > 1 {
            // Amortized mode: one compile, N verified lanes; the point
            // records lane 0 (seed SEED, same numbers as a 1-lane run)
            // and the batch wall time. Every lane replays the same seed:
            // kernels that bake workload values into immediates (e.g.
            // Conv-1d) are not batchable across seeds, and identical
            // lanes still pin machine-reset isolation — any cross-lane
            // state leak shows up as a lane-i verification mismatch.
            let seeds: Vec<u64> = vec![SEED; lanes];
            let runs = run_kernel_lanes(
                k.as_ref(),
                &p.arch,
                scale,
                &seeds,
                DEFAULT_MAX_CYCLES,
                engine,
            )
            .map_err(|e| format!("{} on {}: {e}", p.kernel, p.arch.short))?;
            let mut first = None;
            for (li, r) in runs.into_iter().enumerate() {
                let r =
                    r.map_err(|e| format!("{} on {} lane {li}: {e}", p.kernel, p.arch.short))?;
                if li == 0 {
                    first = Some(r);
                }
            }
            (first.expect("lanes >= 1"), false)
        } else {
            let mut spec = RunSpec {
                faults,
                engine,
                max_cycles: DEFAULT_MAX_CYCLES,
                tracer: None,
            };
            match run_kernel_with(k.as_ref(), &p.arch, scale, SEED, &mut spec) {
                Ok(fr) => (fr.run, fr.remapped),
                // The healthy compile of every shipped point succeeds,
                // so a compile error under faults is the typed
                // remap-infeasible outcome: the point is skipped, not a
                // sweep failure.
                Err(RunnerError::Compile(_)) if !faults.is_empty() => return Ok(None),
                Err(e) => return Err(format!("{}: {e}", what(&p.kernel, p.arch.short, faults))),
            }
        };
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let cycles_search = match search {
            false => None,
            true => {
                let mut searched = p.arch.clone();
                searched.opts.search = SearchBudget::default_on();
                let rs = run_kernel(k.as_ref(), &searched, scale, SEED, DEFAULT_MAX_CYCLES)
                    .map_err(|e| format!("{} on {} (search): {e}", p.kernel, p.arch.short))?;
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
    });
    let mut measured = Vec::with_capacity(results.len());
    let mut infeasible = 0usize;
    for r in results {
        match r? {
            Some(m) => measured.push(m),
            None => infeasible += 1,
        }
    }
    Ok((measured, infeasible, t0.elapsed().as_secs_f64() * 1e3))
}

use marionette::report::json_escape;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match parse_flags(&args) {
        Err(e) => {
            eprintln!("bench_sim: {e}");
            std::process::exit(2);
        }
        Ok(flags) => {
            if let Err(e) = run(flags) {
                eprintln!("bench_sim: {e}");
                std::process::exit(1);
            }
        }
    }
}

struct Flags {
    scale: Scale,
    serial_only: bool,
    compare: bool,
    search: bool,
    out_path: String,
    fabric: FabricDims,
    check: Option<String>,
    replay: Option<String>,
    wall_tolerance: f64,
    fault_specs: Vec<String>,
    faults: usize,
    fault_seed: u64,
    engine: EngineKind,
    lanes: usize,
    trace: Option<String>,
    trace_point: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        scale: Scale::Small,
        serial_only: false,
        compare: false,
        search: true,
        out_path: "BENCH_sim.json".to_string(),
        fabric: FabricDims::paper(),
        check: None,
        replay: None,
        wall_tolerance: WALL_TOLERANCE,
        fault_specs: Vec::new(),
        faults: 0,
        fault_seed: 1,
        engine: EngineKind::default(),
        lanes: 1,
        trace: None,
        trace_point: None,
    };
    // Single pass: a value consumed by a flag can never double as a flag.
    // Each flag may appear once (`--fault` excepted: it accumulates) —
    // a repeated flag is a typo'd command line, and silently letting the
    // last occurrence win hides it.
    let mut seen = std::collections::HashSet::new();
    let mut i = 1;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        match args.get(*i) {
            Some(p) if !p.starts_with("--") => Ok(p.clone()),
            _ => Err(format!("{flag} needs a value")),
        }
    };
    while i < args.len() {
        if args[i] != "--fault" && !seen.insert(args[i].clone()) {
            return Err(format!("duplicate flag `{}`", args[i]));
        }
        match args[i].as_str() {
            "--paper" => flags.scale = Scale::Paper,
            "--serial" => flags.serial_only = true,
            "--compare" => flags.compare = true,
            "--no-search" => flags.search = false,
            "--out" => flags.out_path = value(args, &mut i, "--out")?,
            "--fabric" => {
                flags.fabric = value(args, &mut i, "--fabric")?
                    .parse()
                    .map_err(|e| format!("--fabric: {e}"))?
            }
            "--check" => flags.check = Some(value(args, &mut i, "--check")?),
            "--replay" => flags.replay = Some(value(args, &mut i, "--replay")?),
            "--wall-tolerance" => {
                let v = value(args, &mut i, "--wall-tolerance")?;
                let pct: f64 = v
                    .parse()
                    .map_err(|_| format!("--wall-tolerance: `{v}` is not a percentage"))?;
                if pct < 0.0 || pct.is_nan() {
                    return Err(format!("--wall-tolerance: `{v}` must be >= 0"));
                }
                flags.wall_tolerance = pct / 100.0;
            }
            "--fault" => flags.fault_specs.push(value(args, &mut i, "--fault")?),
            "--faults" => {
                let v = value(args, &mut i, "--faults")?;
                flags.faults = v
                    .parse()
                    .map_err(|_| format!("--faults needs a numeric count, got `{v}`"))?;
            }
            "--fault-seed" => {
                let v = value(args, &mut i, "--fault-seed")?;
                flags.fault_seed = v
                    .parse()
                    .map_err(|_| format!("--fault-seed must be numeric, got `{v}`"))?;
            }
            "--engine" => {
                let v = value(args, &mut i, "--engine")?;
                flags.engine = v.parse().map_err(|e| format!("--engine: {e}"))?;
            }
            "--lanes" => {
                let v = value(args, &mut i, "--lanes")?;
                flags.lanes = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("--lanes needs a count >= 1, got `{v}`")),
                };
            }
            "--trace" => flags.trace = Some(value(args, &mut i, "--trace")?),
            "--trace-point" => flags.trace_point = Some(value(args, &mut i, "--trace-point")?),
            other => {
                return Err(format!(
                    "unknown argument `{other}` (flags: --paper --serial --compare \
                     --no-search --fabric RxC --out PATH --check BASELINE --replay FRESH \
                     --wall-tolerance PCT --fault SPEC --faults N --fault-seed S \
                     --engine wheel|heap --lanes N --trace FILE --trace-point KERNEL:PRESET)"
                ))
            }
        }
        i += 1;
    }
    if flags.replay.is_some() && flags.check.is_none() {
        return Err("--replay only makes sense with --check BASELINE".to_string());
    }
    // Fault specs are validated against the selected fabric here so a
    // malformed or off-fabric `--fault` is a usage error (exit 2).
    FaultSet::from_cli(
        flags.fabric.rows,
        flags.fabric.cols,
        &flags.fault_specs,
        flags.faults,
        flags.fault_seed,
    )?;
    if flags.faults > 0 || !flags.fault_specs.is_empty() {
        if flags.check.is_some() {
            return Err(
                "--check compares against a healthy baseline; drop the fault flags".to_string(),
            );
        }
        if flags.engine != EngineKind::default() {
            // The self-healing fault path runs the production engine;
            // cross-engine fault equivalence is pinned by the test suite
            // (`engine_equivalence.rs`), not this harness.
            return Err(
                "--engine combines with healthy sweeps only; drop the fault flags".to_string(),
            );
        }
        if flags.lanes > 1 {
            return Err(
                "--lanes combines with healthy sweeps only; drop the fault flags".to_string(),
            );
        }
        // The search delta sweep measures healthy mappings; on a damaged
        // fabric only the (self-healing) greedy sweep is meaningful.
        flags.search = false;
    }
    if flags.lanes > 1 {
        if flags.check.is_some() {
            return Err(
                "--check compares single-lane wall times; drop --lanes for gate runs".to_string(),
            );
        }
        // Lane batching amortizes the greedy sweep; the search delta
        // re-compiles per point and would dominate the measurement.
        flags.search = false;
    }
    match (&flags.trace, &flags.trace_point) {
        (Some(_), None) => {
            return Err("--trace needs --trace-point KERNEL:PRESET to name the run".to_string())
        }
        (None, Some(_)) => {
            return Err("--trace-point only makes sense with --trace FILE".to_string())
        }
        (Some(path), Some(point)) => {
            if flags.check.is_some() || flags.replay.is_some() || flags.compare || flags.serial_only
            {
                return Err(
                    "--trace records a single run; drop --check/--replay/--compare/--serial"
                        .to_string(),
                );
            }
            if flags.lanes > 1 {
                return Err("--trace records a single-lane run; drop --lanes".to_string());
            }
            // Resolve the point and open the file now so a typo'd
            // selector or an unwritable path is a usage error (exit 2),
            // not a mid-run failure.
            resolve_trace_point(point, flags.fabric)?;
            std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
        }
        (None, None) => {}
    }
    if let Some(base) = &flags.check {
        // The gate compares greedy cycle counts: the search delta sweep
        // would only add wall time without entering the comparison.
        flags.search = false;
        // Writing the fresh snapshot over the baseline would make the
        // gate compare the run against itself (and destroy the committed
        // reference) — the baseline is loaded before the sweep runs
        // regardless, but an identical path is always a mistake.
        if flags.replay.is_none() && *base == flags.out_path {
            return Err(format!(
                "--check {base} would be overwritten by --out {}; pass a different --out",
                flags.out_path
            ));
        }
    }
    Ok(flags)
}

/// Resolves a `--trace-point KERNEL:PRESET` selector (kernel tags are
/// matched case-insensitively, like `fault_sweep --kernels`) to the
/// canonical kernel tag and the one architecture it names.
fn resolve_trace_point(
    point: &str,
    fabric: FabricDims,
) -> Result<(String, marionette::arch::Architecture), String> {
    let (ktag, ptag) = point
        .split_once(':')
        .ok_or_else(|| format!("--trace-point wants KERNEL:PRESET (e.g. CRC:M), got `{point}`"))?;
    let tags = kernel_tags(None).expect("no filter");
    let tag = tags
        .iter()
        .find(|t| t.eq_ignore_ascii_case(ktag))
        .ok_or_else(|| format!("--trace-point: `{ktag}` is not a kernel tag"))?
        .clone();
    let mut archs = marionette::arch::presets_by_tags_on(fabric, ptag)
        .map_err(|e| format!("--trace-point: {e}"))?;
    if archs.len() != 1 {
        return Err(format!(
            "--trace-point: `{ptag}` selects {} presets; name exactly one",
            archs.len()
        ));
    }
    Ok((tag, archs.remove(0)))
}

/// A parsed baseline (or replay) snapshot with its sweep metadata.
struct Snapshot {
    points: Vec<snapshot::BenchPoint>,
    wall_ms: f64,
    scale: String,
    fabric: String,
    engine: String,
}

/// Loads a `bench_sim` snapshot file up front — before anything is
/// written — so the gate always compares against the pre-run contents.
fn load_snapshot(path: &str) -> Result<Snapshot, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let points = snapshot::parse_points(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    let wall_ms = snapshot::greedy_wall_ms(&json, &points);
    let meta = |key: &str, default: &str| {
        json.lines()
            .find_map(|l| snapshot::field_str(l, key))
            .unwrap_or_else(|| default.to_string())
    };
    Ok(Snapshot {
        points,
        wall_ms,
        scale: meta("scale", "small"),
        // Snapshots written before the fabric axis existed are 4×4.
        fabric: meta("fabric", "4x4"),
        // Snapshots written before the engine selector existed were
        // measured on the pre-wheel heap core — but their cycle counts
        // are engine-independent, and the wheel has been the default
        // since it landed, so missing means "wheel" for gate purposes.
        engine: meta("engine", "wheel"),
    })
}

/// The `--check` gate: compares fresh greedy points against the
/// pre-loaded baseline snapshot. Refuses incomparable runs (different
/// scale or fabric) with a single clear error instead of 126 bogus
/// per-point violations.
#[allow(clippy::too_many_arguments)]
fn run_gate(
    baseline_path: &str,
    base: &Snapshot,
    fresh: &[snapshot::BenchPoint],
    fresh_wall_ms: f64,
    fresh_scale: &str,
    fresh_fabric: &str,
    fresh_engine: &str,
    wall_tolerance: f64,
) -> Result<(), String> {
    if (base.scale.as_str(), base.fabric.as_str()) != (fresh_scale, fresh_fabric) {
        return Err(format!(
            "baseline {baseline_path} is scale={} fabric={}, this run is scale={fresh_scale} fabric={fresh_fabric} — not comparable",
            base.scale, base.fabric
        ));
    }
    if base.engine != fresh_engine {
        return Err(format!(
            "baseline {baseline_path} was measured on the {} engine, this run on {fresh_engine} — wall times are not comparable",
            base.engine
        ));
    }
    let violations = snapshot::check_against_baseline(
        &base.points,
        base.wall_ms,
        fresh,
        fresh_wall_ms,
        wall_tolerance,
    );
    if violations.is_empty() {
        println!(
            "bench_check: {} points match {baseline_path} bit for bit, greedy wall {fresh_wall_ms:.1} ms vs baseline {:.1} ms (gate <= +{:.0}%)",
            fresh.len(),
            base.wall_ms,
            wall_tolerance * 100.0
        );
        return Ok(());
    }
    for v in &violations {
        eprintln!("bench_check: {v}");
    }
    Err(format!(
        "{} regression(s) against {baseline_path}",
        violations.len()
    ))
}

fn run(flags: Flags) -> Result<(), String> {
    let Flags {
        scale,
        serial_only,
        compare,
        search,
        out_path,
        fabric,
        check,
        replay,
        wall_tolerance,
        fault_specs,
        faults,
        fault_seed,
        engine,
        lanes,
        trace,
        trace_point,
    } = flags;
    let faults = FaultSet::from_cli(fabric.rows, fabric.cols, &fault_specs, faults, fault_seed)
        .expect("validated by parse_flags");

    // Trace mode: one named point with the cycle recorder attached, no
    // sweep (tracing perturbs the wall times the snapshot tracks).
    if let (Some(path), Some(point)) = (&trace, &trace_point) {
        let (tag, arch) = resolve_trace_point(point, fabric).expect("validated by parse_flags");
        let k = marionette::kernels::by_short(&tag).expect("tag from the registry");
        let mut tracer = Tracer::new();
        let t = Instant::now();
        let mut spec = RunSpec {
            faults: &faults,
            engine,
            max_cycles: DEFAULT_MAX_CYCLES,
            tracer: Some(&mut tracer),
        };
        let fr = run_kernel_with(k.as_ref(), &arch, scale, SEED, &mut spec)
            .map_err(|e| format!("{}: {e}", what(&tag, arch.short, &faults)))?;
        let (r, remapped) = (fr.run, fr.remapped);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        std::fs::write(path, tracer.to_chrome_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "bench_sim: traced {tag} on {}: {} cycles, {} fires{}, {wall_ms:.1} ms -> {} trace events in {path}",
            arch.short,
            r.cycles,
            r.stats.fires,
            if remapped { " (remapped)" } else { "" },
            tracer.len()
        );
        return Ok(());
    }

    // The baseline is loaded before the sweep runs (and before anything
    // is written), so the gate always compares against the pre-run file.
    let baseline = match &check {
        Some(path) => Some(load_snapshot(path)?),
        None => None,
    };

    // --check --replay: compare two already-written snapshots without
    // re-running the sweep (CI uses this to demonstrate the gate).
    if let (Some(base_path), Some(fresh_path)) = (&check, &replay) {
        let base = baseline.as_ref().expect("loaded above");
        let fresh = load_snapshot(fresh_path)?;
        return run_gate(
            base_path,
            base,
            &fresh.points,
            fresh.wall_ms,
            &fresh.scale,
            &fresh.fabric,
            &fresh.engine,
            wall_tolerance,
        );
    }

    // Refuse an incomparable gate run before spending a sweep on it.
    let scale_name = if matches!(scale, Scale::Paper) {
        "paper"
    } else {
        "small"
    };
    if let (Some(path), Some(base)) = (&check, &baseline) {
        if (base.scale.as_str(), base.fabric.as_str()) != (scale_name, fabric.to_string().as_str())
        {
            return Err(format!(
                "baseline {path} is scale={} fabric={}, this run is scale={scale_name} fabric={fabric} — not comparable",
                base.scale, base.fabric
            ));
        }
        if base.engine != engine.to_string() {
            return Err(format!(
                "baseline {path} was measured on the {} engine, this run on {engine} — wall times are not comparable",
                base.engine
            ));
        }
    }

    let threads = sweep_threads();

    let mut serial_wall: Option<f64> = None;
    let (points, infeasible, wall_ms, mode, used_threads) = if serial_only {
        let (p, inf, w) = sweep(scale, 1, search, fabric, &faults, engine, lanes)?;
        (p, inf, w, "serial", 1)
    } else {
        if compare {
            let (_, _, w) = sweep(scale, 1, search, fabric, &faults, engine, lanes)?;
            serial_wall = Some(w);
        }
        let (p, inf, w) = sweep(scale, threads, search, fabric, &faults, engine, lanes)?;
        (p, inf, w, "parallel", threads)
    };

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"marionette.bench_sim/v1\",\n");
    j.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    j.push_str(&format!("  \"seed\": {SEED},\n"));
    j.push_str(&format!("  \"fabric\": \"{fabric}\",\n"));
    j.push_str(&format!("  \"engine\": \"{engine}\",\n"));
    if lanes > 1 {
        j.push_str(&format!("  \"lanes\": {lanes},\n"));
    }
    if !faults.is_empty() {
        j.push_str(&format!(
            "  \"faults\": [{}],\n",
            faults
                .specs()
                .iter()
                .map(|s| format!("\"{}\"", json_escape(&s.to_string())))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        j.push_str(&format!("  \"remap_infeasible\": {infeasible},\n"));
    }
    j.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    j.push_str(&format!("  \"threads\": {used_threads},\n"));
    j.push_str(&format!("  \"total_wall_ms\": {wall_ms:.3},\n"));
    if let Some(sw) = serial_wall {
        j.push_str(&format!("  \"serial_wall_ms\": {sw:.3},\n"));
        j.push_str(&format!("  \"parallel_speedup\": {:.3},\n", sw / wall_ms));
    }
    let speedups: Vec<f64> = points
        .iter()
        .filter_map(|m| m.cycles_search.map(|cs| m.cycles as f64 / cs as f64))
        .collect();
    let search_geomean = marionette::experiments::geomean(&speedups);
    if search {
        let improved = speedups.iter().filter(|&&s| s > 1.0).count();
        let regressed = speedups.iter().filter(|&&s| s < 1.0).count();
        let greedy_wall: f64 = points.iter().map(|m| m.wall_ms).sum();
        if let SearchBudget::Anneal {
            moves, restarts, ..
        } = SearchBudget::default_on()
        {
            j.push_str(&format!(
                "  \"search\": {{\"moves\": {moves}, \"restarts\": {restarts}, \"geomean_speedup\": {search_geomean:.4}, \"improved\": {improved}, \"regressed\": {regressed}}},\n"
            ));
        }
        // Per-point wall_ms times the greedy run only; this sum is the
        // comparable simulator-throughput number across snapshots.
        j.push_str(&format!("  \"greedy_wall_ms\": {greedy_wall:.3},\n"));
    }
    j.push_str("  \"points\": [\n");
    for (i, m) in points.iter().enumerate() {
        let search_field = match m.cycles_search {
            Some(cs) => format!(", \"cycles_search\": {cs}"),
            None => String::new(),
        };
        let remap_field = if faults.is_empty() {
            String::new()
        } else {
            format!(", \"remapped\": {}", m.remapped)
        };
        j.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"arch\": \"{}\", \"cycles\": {}, \"fires\": {}{}{}, \"wall_ms\": {:.3}}}{}\n",
            json_escape(&m.kernel),
            json_escape(&m.arch),
            m.cycles,
            m.fires,
            search_field,
            remap_field,
            m.wall_ms,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    j.push_str("  ]\n}\n");
    std::fs::write(&out_path, &j).map_err(|e| format!("writing {out_path}: {e}"))?;

    let total_cycles: u64 = points.iter().map(|m| m.cycles).sum();
    println!(
        "bench_sim: {} points, {total_cycles} total cycles, {wall_ms:.1} ms wall ({mode}, {used_threads} threads) -> {out_path}",
        points.len()
    );
    if !faults.is_empty() {
        println!(
            "bench_sim: injected {faults}; {} of {} points healed by remap, {infeasible} remap-infeasible (skipped)",
            points.iter().filter(|m| m.remapped).count(),
            points.len()
        );
    }
    if search {
        println!(
            "bench_sim: mapping search geomean cycle speedup {search_geomean:.4} over the greedy baseline"
        );
    }
    if let Some(sw) = serial_wall {
        println!(
            "bench_sim: serial {sw:.1} ms vs parallel {wall_ms:.1} ms = {:.2}x speedup",
            sw / wall_ms
        );
    }

    if let Some(base_path) = &check {
        let fresh: Vec<snapshot::BenchPoint> = points
            .iter()
            .map(|m| snapshot::BenchPoint {
                kernel: m.kernel.clone(),
                arch: m.arch.clone(),
                cycles: m.cycles,
                wall_ms: m.wall_ms,
            })
            .collect();
        let fresh_wall: f64 = points.iter().map(|m| m.wall_ms).sum();
        run_gate(
            base_path,
            baseline.as_ref().expect("loaded above"),
            &fresh,
            fresh_wall,
            scale_name,
            &fabric.to_string(),
            &engine.to_string(),
            wall_tolerance,
        )?;
    }
    Ok(())
}
