//! Differential fuzzing driver: sweep a seed range of generated programs
//! through the full compile→simulate stack on the architecture presets,
//! in parallel across cores (`marionette::parallel`).
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

use marionette::arch::{Architecture, FabricDims};
use marionette::cli::{multi, opt, switch, Args, Spec};
use marionette::parallel::{par_map, sweep_threads};
use marionette::sim::{FaultSet, RunSpec};
use marionette_fuzzgen::diff::{diff_program, DEFAULT_MAX_CYCLES};
use marionette_fuzzgen::gen::{generate, GenConfig};
use marionette_fuzzgen::shrink::shrink;
use marionette_fuzzgen::source::diff_both;
use std::time::Instant;

static SPEC: Spec = Spec {
    name: "fuzz_stack",
    about: "differential fuzzing of generated programs through the full stack",
    positional: "",
    flags: &[
        opt("--start", "S", "first seed [default: 0]"),
        opt("--count", "N", "programs to generate [default: 1000]"),
        opt("--presets", "TAGS", "preset tags [default: all]"),
        opt("--depth", "D", "generator nesting depth [default: 3]"),
        opt("--max-stmts", "K", "generator statement cap [default: 22]"),
        switch("--shrink", "shrink divergences into the corpus"),
        opt("--corpus-dir", "DIR", "[default: crates/fuzzgen/corpus]"),
        opt("--json", "PATH", "write the counter summary"),
        opt("--max-cycles", "N", "per-run cycle cap"),
        switch("--serial", "run single-threaded"),
        opt("--print-seed", "S", "print seed S's program and exit"),
        opt("--search", "M[,R]", "anneal M moves x R chains"),
        switch("--source", "also fuzz the .mar source axis"),
        opt("--fabric", "RxC", "fabric [default: 4x4]"),
        opt("--faults", "N", "random faults per seed"),
        multi("--fault", "SPEC", "pin a fault under every seed"),
    ],
    notes: "",
};

struct Config {
    start: u64,
    count: u64,
    presets: Vec<Architecture>,
    gen: GenConfig,
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
    base_faults: FaultSet,
}

fn config(a: &Args) -> Result<Config, String> {
    let fabric = a.parsed("--fabric")?.unwrap_or_else(FabricDims::paper);
    let search = a.search("--search")?;
    let mut presets = match a.str("--presets") {
        None => marionette::arch::all_presets_on(fabric),
        Some(tags) => marionette::arch::presets_by_tags_on(fabric, tags)?,
    };
    if let Some((moves, restarts)) = search {
        for p in &mut presets {
            p.opts.search = marionette::compiler::SearchBudget::Anneal {
                moves,
                restarts,
                base_seed: 0xF022,
            };
        }
    }
    // Explicit `--fault` specs are pinned under every seed; `--faults N`
    // adds fresh random faults per seed.
    let fault_specs = a.strings("--fault");
    let base_faults = FaultSet::from_cli(fabric.rows, fabric.cols, &fault_specs, 0, 0)?;
    let cfg = Config {
        start: a.num("--start", 0)?,
        count: a.num("--count", 1000)?,
        presets,
        gen: GenConfig {
            max_depth: a.num("--depth", 3)?,
            max_stmts: a.num("--max-stmts", 22)?,
            ..GenConfig::default()
        },
        do_shrink: a.has("--shrink"),
        corpus_dir: a
            .str("--corpus-dir")
            .unwrap_or("crates/fuzzgen/corpus")
            .to_string(),
        json: a.str("--json").map(str::to_string),
        max_cycles: a.num("--max-cycles", DEFAULT_MAX_CYCLES)?,
        serial: a.has("--serial"),
        print_seed: a
            .str("--print-seed")
            .map(|_| a.num("--print-seed", 0))
            .transpose()?,
        search,
        source: a.has("--source"),
        fabric,
        faults: a.num("--faults", 0)?,
        fault_specs,
        base_faults,
    };
    let have_faults = cfg.faults > 0 || !cfg.base_faults.is_empty();
    if have_faults && cfg.source {
        return Err("--source and fault injection cannot be combined".to_string());
    }
    Ok(cfg)
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

use marionette::report::{json_escape, str_list, Snapshot};

fn main() {
    let a = SPEC.parse_env();
    let args = a.or_exit(config(&a));
    let (presets, base_faults, cfg) = (&args.presets, &args.base_faults, &args.gen);
    let have_faults = args.faults > 0 || !base_faults.is_empty();
    if let Some(seed) = args.print_seed {
        print!("{}", generate(seed, cfg).to_text());
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
            diff_both(q, presets, args.max_cycles)
        } else {
            let mut spec = RunSpec {
                faults,
                max_cycles: args.max_cycles,
                tracer: None,
            };
            diff_program(q, presets, &mut spec)
        }
    };
    let outcomes = par_map(seeds, threads, |seed| {
        let result = diff(&generate(seed, cfg), &seed_faults(seed));
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
            let full = generate(f.seed, cfg);
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
        let failed: Vec<String> = failures
            .iter()
            .map(|f| {
                let detail = json_escape(f.failure.as_deref().unwrap_or(""));
                format!("{{\"seed\": {}, \"detail\": \"{detail}\"}}", f.seed)
            })
            .collect();
        let search = match args.search {
            Some((m, r)) => format!("{{\"moves\": {m}, \"restarts\": {r}}}"),
            None => "null".to_string(),
        };
        let mut snap = Snapshot::new("marionette.fuzz_stack/v1");
        snap.field("start", args.start)
            .field("count", args.count)
            .field("presets", str_list(presets.iter().map(|a| a.short)))
            .str("fabric", &args.fabric.to_string())
            .field("threads", threads)
            .field("search", search)
            .field("source_axis", args.source)
            .field("faults", args.faults)
            .field("pinned_faults", str_list(&args.fault_specs))
            .field("remaps", outcomes.iter().map(|o| o.remaps).sum::<usize>())
            .field(
                "remap_infeasible",
                outcomes.iter().map(|o| o.infeasible).sum::<usize>(),
            )
            .field("programs", outcomes.len())
            .field("points", total_points)
            .field("sim_cycles", total_cycles)
            .field("sim_fires", total_fires)
            .field("divergences", failures.len())
            .field("wall_ms", format!("{wall_ms:.3}"))
            .rows("failed_seeds", &failed);
        if let Err(e) = snap.write(path) {
            eprintln!("fuzz_stack: {e}");
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
    println!(
        "fuzz_stack: {} programs x {} presets on {} = {} points, {} sim cycles, ~{:.0} nodes/program, {} divergences{}, {:.1} ms ({} threads)",
        outcomes.len(),
        presets.len(),
        args.fabric,
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
