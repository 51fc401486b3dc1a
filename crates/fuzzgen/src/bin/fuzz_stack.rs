//! Differential fuzzing driver: sweep a seed range of generated programs
//! through the full compile→simulate stack on the architecture presets,
//! in parallel across cores (`marionette::parallel`).
//!
//! ```text
//! fuzz_stack [--start S] [--count N] [--presets M,vN,...] [--depth D]
//!            [--max-stmts K] [--shrink] [--corpus-dir DIR]
//!            [--json PATH] [--max-cycles C] [--serial]
//!            [--search MOVES[,RESTARTS]] [--source] [--fabric RxC]
//!            [--faults N] [--fault SPEC]... [--engine wheel|heap]
//!            [--lanes N]
//! ```
//!
//! `--engine wheel|heap` pins the simulator's event-queue core (default
//! wheel, the production engine); fuzzing under `--engine heap` is the
//! cross-engine differential axis. `--lanes N` runs every program as N
//! batched lanes of one machine ([`marionette::sim::run_lanes_full`]) and
//! requires each lane to match the reference interpreter bit for bit —
//! the axis that fuzzes machine reuse/reset across lanes. Both combine
//! with neither `--source` nor fault injection.
//!
//! `--faults N` injects N seeded-random faults (dead PEs, dead links,
//! flaky links — a fresh set per program seed) into every simulation and
//! differentially fuzzes the self-healing remap loop: wedged bitstreams
//! are re-mapped around the faults and the remap must still match the
//! reference interpreter bit for bit. `--fault SPEC` (repeatable) pins
//! explicit faults (`pe:R,C`, `link:R,C-R,C`, `flaky:R,C-R,C@MULT`)
//! under every seed. A remap that cannot fit on the surviving fabric is
//! a typed, accepted outcome — not a divergence.
//!
//! `--fabric RxC` instantiates the selected presets on an R×C fabric
//! (default 4x4): larger meshes exercise longer routes, bigger agile
//! regions and the geometry-derived centralized-control timing.
//!
//! `--search` turns the compiler's annealing mapping explorer on for
//! every selected preset (MOVES annealing moves, RESTARTS chains),
//! fuzzing the searched placements and rip-up routes instead of the
//! legacy one-shot pipeline.
//!
//! `--source` additionally exercises the `.mar` source axis: each
//! program is emitted as `marionette-lang` source, re-lowered through
//! the lexer/parser/sema front end, value-compared against the direct
//! builder path, and the source-lowered graph is driven through the
//! full stack on the same presets.
//!
//! Exit status is non-zero when any divergence was found. With
//! `--shrink`, each divergence is reduced while it still reproduces and
//! written to `--corpus-dir` (default `crates/fuzzgen/corpus/`) in the
//! corpus text format, ready to commit as a regression.
//!
//! `--print-seed S` prints seed S's program in the corpus text format and
//! exits (handy for seeding the corpus or inspecting a failure).

use marionette::arch::FabricDims;
use marionette::parallel::{par_map, sweep_threads};
use marionette::sim::{EngineKind, FaultSet, RunSpec};
use marionette_fuzzgen::diff::{diff_program, diff_program_lanes, DEFAULT_MAX_CYCLES};
use marionette_fuzzgen::gen::{generate, GenConfig};
use marionette_fuzzgen::shrink::shrink;
use marionette_fuzzgen::source::diff_both;
use std::time::Instant;

struct Args {
    start: u64,
    count: u64,
    presets: String,
    depth: u32,
    max_stmts: usize,
    do_shrink: bool,
    corpus_dir: String,
    json: Option<String>,
    max_cycles: u64,
    serial: bool,
    print_seed: Option<u64>,
    search: Option<(u32, u32)>,
    source: bool,
    fabric: FabricDims,
    faults: usize,
    fault_specs: Vec<String>,
    engine: EngineKind,
    lanes: usize,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let has = |flag: &str| argv.iter().any(|a| a == flag);
    // `--fault` repeats; collect every occurrence.
    let fault_specs: Vec<String> = argv
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--fault")
        .map(|(i, _)| match argv.get(i + 1) {
            Some(v) if !v.starts_with("--") => v.clone(),
            _ => {
                eprintln!(
                    "fuzz_stack: --fault needs a spec (pe:R,C | link:R,C-R,C | flaky:R,C-R,C@MULT)"
                );
                std::process::exit(2);
            }
        })
        .collect();
    Args {
        start: get("--start").and_then(|v| v.parse().ok()).unwrap_or(0),
        count: get("--count").and_then(|v| v.parse().ok()).unwrap_or(1000),
        presets: get("--presets").unwrap_or_default(),
        depth: get("--depth").and_then(|v| v.parse().ok()).unwrap_or(3),
        max_stmts: get("--max-stmts")
            .and_then(|v| v.parse().ok())
            .unwrap_or(22),
        do_shrink: has("--shrink"),
        corpus_dir: get("--corpus-dir").unwrap_or_else(|| "crates/fuzzgen/corpus".into()),
        json: get("--json"),
        max_cycles: get("--max-cycles")
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_MAX_CYCLES),
        serial: has("--serial"),
        print_seed: has("--print-seed").then(|| {
            get("--print-seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("fuzz_stack: --print-seed needs a numeric seed");
                    std::process::exit(2);
                })
        }),
        search: has("--search").then(|| {
            let spec = get("--search").unwrap_or_default();
            let mut it = spec.split(',').map(str::trim);
            let moves = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("fuzz_stack: --search needs MOVES[,RESTARTS]");
                std::process::exit(2);
            });
            let restarts = match it.next() {
                None => 1,
                Some(v) => v.parse().unwrap_or_else(|_| {
                    eprintln!("fuzz_stack: --search RESTARTS must be numeric, got {v:?}");
                    std::process::exit(2);
                }),
            };
            (moves, restarts)
        }),
        source: has("--source"),
        fabric: match get("--fabric") {
            None => FabricDims::paper(),
            Some(spec) => spec.parse().unwrap_or_else(|e| {
                eprintln!("fuzz_stack: --fabric: {e}");
                std::process::exit(2);
            }),
        },
        faults: match get("--faults") {
            None => 0,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("fuzz_stack: --faults needs a numeric count, got `{v}`");
                std::process::exit(2);
            }),
        },
        fault_specs,
        engine: match get("--engine") {
            None => EngineKind::default(),
            Some(v) => v.parse().unwrap_or_else(|e| {
                eprintln!("fuzz_stack: --engine: {e}");
                std::process::exit(2);
            }),
        },
        lanes: match get("--lanes") {
            None => 1,
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("fuzz_stack: --lanes needs a count >= 1, got `{v}`");
                    std::process::exit(2);
                }
            },
        },
    }
}

struct SeedOutcome {
    seed: u64,
    points: usize,
    cycles: u64,
    fires: u64,
    nodes: usize,
    remaps: usize,
    infeasible: usize,
    failure: Option<String>,
}

use marionette::report::json_escape;

fn main() {
    let args = parse_args();
    let mut presets = if args.presets.is_empty() {
        marionette::arch::all_presets_on(args.fabric)
    } else {
        match marionette::arch::presets_by_tags_on(args.fabric, &args.presets) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("fuzz_stack: {e}");
                std::process::exit(2);
            }
        }
    };
    if let Some((moves, restarts)) = args.search {
        for a in &mut presets {
            a.opts.search = marionette::compiler::SearchBudget::Anneal {
                moves,
                restarts,
                base_seed: 0xF022,
            };
        }
    }
    // Explicit `--fault` specs are pinned under every seed; `--faults N`
    // adds fresh random faults per seed.
    let base_faults =
        match FaultSet::from_cli(args.fabric.rows, args.fabric.cols, &args.fault_specs, 0, 0) {
            Ok(fs) => fs,
            Err(e) => {
                eprintln!("fuzz_stack: {e}");
                std::process::exit(2);
            }
        };
    let have_faults = args.faults > 0 || !base_faults.is_empty();
    if have_faults && args.source {
        eprintln!("fuzz_stack: --source and fault injection cannot be combined");
        std::process::exit(2);
    }
    if args.lanes > 1 && (args.source || have_faults) {
        eprintln!("fuzz_stack: --lanes combines with neither --source nor fault injection");
        std::process::exit(2);
    }
    if args.source && args.engine != EngineKind::default() {
        eprintln!("fuzz_stack: --source runs on the default engine only");
        std::process::exit(2);
    }
    let cfg = GenConfig {
        max_depth: args.depth,
        max_stmts: args.max_stmts,
        ..GenConfig::default()
    };
    if let Some(seed) = args.print_seed {
        print!("{}", generate(seed, &cfg).to_text());
        return;
    }
    let threads = if args.serial { 1 } else { sweep_threads() };
    let seeds: Vec<u64> = (args.start..args.start + args.count).collect();
    let t0 = Instant::now();
    // The shared fault CLI surface: each seed gets its own seeded-random
    // damage on top of the pinned specs and exercises the self-healing
    // remap loop.
    let seed_faults = |seed: u64| {
        let mut faults = base_faults.clone();
        faults.add_random(args.faults, seed);
        faults
    };
    // With --source, each seed runs both axes sharing one reference
    // interpretation of the builder graph.
    let diff = |q: &marionette_fuzzgen::Program, faults: &FaultSet| {
        if args.source {
            diff_both(q, &presets, args.max_cycles)
        } else if args.lanes > 1 {
            diff_program_lanes(q, &presets, args.max_cycles, args.engine, args.lanes)
        } else {
            let mut spec = RunSpec {
                faults,
                engine: args.engine,
                max_cycles: args.max_cycles,
                tracer: None,
            };
            diff_program(q, &presets, &mut spec)
        }
    };
    let outcomes = par_map(seeds, threads, |seed| {
        let result = diff(&generate(seed, &cfg), &seed_faults(seed));
        match result {
            Ok(s) => SeedOutcome {
                seed,
                points: s.points,
                cycles: s.cycles,
                fires: s.fires,
                nodes: s.nodes,
                remaps: s.remaps,
                infeasible: s.infeasible,
                failure: None,
            },
            Err(d) => SeedOutcome {
                seed,
                points: 0,
                cycles: 0,
                fires: 0,
                nodes: 0,
                remaps: 0,
                infeasible: 0,
                failure: Some(d.to_string()),
            },
        }
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let failures: Vec<&SeedOutcome> = outcomes.iter().filter(|o| o.failure.is_some()).collect();
    let total_points: usize = outcomes.iter().map(|o| o.points).sum();
    let total_cycles: u64 = outcomes.iter().map(|o| o.cycles).sum();
    let total_fires: u64 = outcomes.iter().map(|o| o.fires).sum();

    for f in &failures {
        eprintln!(
            "fuzz_stack: seed {} DIVERGED: {}",
            f.seed,
            f.failure.as_deref().unwrap_or("")
        );
        if args.do_shrink {
            // Reproduce under the same damage the seed originally saw.
            let faults = seed_faults(f.seed);
            let still_fails = |q: &marionette_fuzzgen::Program| diff(q, &faults).err();
            let full = generate(f.seed, &cfg);
            let small = shrink(&full, 4000, |q| still_fails(q).is_some());
            let d = still_fails(&small).expect("shrunk case still fails");
            let path = format!("{}/shrunk_seed{}.txt", args.corpus_dir, f.seed);
            let mut text = small.to_text();
            text.insert_str(
                0,
                &format!(
                    "# seed {} ({} stmts -> {}): {d}\n",
                    f.seed,
                    full.stmt_count(),
                    small.stmt_count()
                ),
            );
            if let Err(e) = std::fs::create_dir_all(&args.corpus_dir)
                .and_then(|()| std::fs::write(&path, &text))
            {
                eprintln!("fuzz_stack: writing {path}: {e}");
            } else {
                eprintln!("fuzz_stack: shrunk reproducer written to {path}");
            }
            eprintln!("{text}");
        }
    }

    if let Some(path) = &args.json {
        let mut j = String::new();
        j.push_str("{\n");
        j.push_str("  \"schema\": \"marionette.fuzz_stack/v1\",\n");
        j.push_str(&format!("  \"start\": {},\n", args.start));
        j.push_str(&format!("  \"count\": {},\n", args.count));
        j.push_str(&format!(
            "  \"presets\": [{}],\n",
            presets
                .iter()
                .map(|a| format!("\"{}\"", a.short))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        j.push_str(&format!("  \"fabric\": \"{}\",\n", args.fabric));
        j.push_str(&format!("  \"threads\": {threads},\n"));
        match args.search {
            Some((m, r)) => j.push_str(&format!(
                "  \"search\": {{\"moves\": {m}, \"restarts\": {r}}},\n"
            )),
            None => j.push_str("  \"search\": null,\n"),
        }
        j.push_str(&format!("  \"source_axis\": {},\n", args.source));
        j.push_str(&format!("  \"engine\": \"{}\",\n", args.engine));
        j.push_str(&format!("  \"lanes\": {},\n", args.lanes));
        j.push_str(&format!("  \"faults\": {},\n", args.faults));
        j.push_str(&format!(
            "  \"pinned_faults\": [{}],\n",
            args.fault_specs
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        j.push_str(&format!(
            "  \"remaps\": {},\n",
            outcomes.iter().map(|o| o.remaps).sum::<usize>()
        ));
        j.push_str(&format!(
            "  \"remap_infeasible\": {},\n",
            outcomes.iter().map(|o| o.infeasible).sum::<usize>()
        ));
        j.push_str(&format!("  \"programs\": {},\n", outcomes.len()));
        j.push_str(&format!("  \"points\": {total_points},\n"));
        j.push_str(&format!("  \"sim_cycles\": {total_cycles},\n"));
        j.push_str(&format!("  \"sim_fires\": {total_fires},\n"));
        j.push_str(&format!("  \"divergences\": {},\n", failures.len()));
        j.push_str(&format!("  \"wall_ms\": {wall_ms:.3},\n"));
        j.push_str("  \"failed_seeds\": [\n");
        for (i, f) in failures.iter().enumerate() {
            j.push_str(&format!(
                "    {{\"seed\": {}, \"detail\": \"{}\"}}{}\n",
                f.seed,
                json_escape(f.failure.as_deref().unwrap_or("")),
                if i + 1 == failures.len() { "" } else { "," }
            ));
        }
        j.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(path, &j) {
            eprintln!("fuzz_stack: writing {path}: {e}");
        }
    }

    let mean_nodes = if outcomes.is_empty() {
        0.0
    } else {
        outcomes.iter().map(|o| o.nodes).sum::<usize>() as f64 / outcomes.len() as f64
    };
    let fault_note = if have_faults {
        format!(
            ", {} remaps, {} remap-infeasible",
            outcomes.iter().map(|o| o.remaps).sum::<usize>(),
            outcomes.iter().map(|o| o.infeasible).sum::<usize>()
        )
    } else {
        String::new()
    };
    let lane_note = if args.lanes > 1 {
        format!(" x {} lanes", args.lanes)
    } else {
        String::new()
    };
    println!(
        "fuzz_stack: {} programs x {} presets on {} ({} engine{}) = {} points, {} sim cycles, ~{:.0} nodes/program, {} divergences{}, {:.1} ms ({} threads)",
        outcomes.len(),
        presets.len(),
        args.fabric,
        args.engine,
        lane_note,
        total_points,
        total_cycles,
        mean_nodes,
        failures.len(),
        fault_note,
        wall_ms,
        threads
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
