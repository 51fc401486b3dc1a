//! Mapping-quality explorer report: greedy vs annealed mapping for every
//! kernel × architecture point.
//!
//! For each point the tool compiles twice — once with the legacy one-shot
//! pipeline and once with the annealing mapping explorer — simulates
//! both mappings, and emits a JSON report with the cost-model breakdown,
//! route statistics, per-route stall attribution and the cycle delta.
//!
//! ```text
//! map_explore [--moves N] [--restarts K] [--seed S] [--kernels A,B]
//!             [--presets M,vN,...] [--scale tiny|small|paper]
//!             [--fabric RxC] [--no-sim] [--out PATH]
//! ```
//!
//! `--no-sim` skips the simulations (cost model only), for quick smoke
//! runs in CI.

use marionette::arch::{Architecture, FabricDims};
use marionette::compiler::explore::greedy_cost;
use marionette::compiler::{compile, CostModel, SearchBudget, SearchReport};
use marionette::kernels::traits::Scale;
use marionette::parallel::{par_map, sweep_threads};
use marionette::runner::{compile_for_arch, run_kernel, DEFAULT_MAX_CYCLES};
use marionette_bench::kernel_tags;

const SEED: u64 = 1;

struct Args {
    moves: u32,
    restarts: u32,
    base_seed: u64,
    kernels: Option<String>,
    presets: Option<String>,
    scale: Scale,
    fabric: FabricDims,
    simulate: bool,
    out: String,
}

/// Parses a flag's value strictly: an absent flag yields the default, a
/// present flag with a missing or malformed value is a usage error.
fn numeric<T: std::str::FromStr>(argv: &[String], flag: &str, default: T) -> Result<T, String> {
    match argv.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => {
            let v = argv
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a valid value"))
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match argv.get(i + 1) {
                // A flag-like token is a forgotten value, not a value.
                Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
                _ => Err(format!("{flag} needs a value")),
            },
        }
    };
    let has = |flag: &str| argv.iter().any(|a| a == flag);
    Ok(Args {
        moves: numeric(&argv, "--moves", 1500)?,
        restarts: numeric(&argv, "--restarts", 2)?,
        base_seed: numeric(&argv, "--seed", 0xA11E)?,
        kernels: get("--kernels")?,
        presets: get("--presets")?,
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
            Some(spec) => spec.parse().map_err(|e| format!("--fabric: {e}"))?,
        },
        simulate: !has("--no-sim"),
        out: get("--out")?.unwrap_or_else(|| "MAP_explore.json".to_string()),
    })
}

struct PointReport {
    kernel: String,
    arch: String,
    nodes: usize,
    routes: usize,
    greedy: Side,
    explored: Side,
}

#[derive(Default)]
struct Side {
    cost_total: f64,
    latency: f64,
    congestion: f64,
    pressure: f64,
    fanout: f64,
    mean_data_hops: f64,
    cycles: Option<u64>,
    link_stalls: Option<u64>,
    top_stalled: Vec<(u32, u64)>,
    accepted: u32,
    attempted: u32,
    rerouted: usize,
    chain_seed: u64,
}

fn side_of_search(sr: &SearchReport, mean_data_hops: f64) -> Side {
    Side {
        cost_total: sr.best_total,
        latency: sr.best_cost.latency,
        congestion: sr.best_cost.congestion,
        pressure: sr.best_cost.pressure,
        fanout: sr.best_cost.fanout,
        accepted: sr.accepted,
        attempted: sr.attempted,
        rerouted: sr.rerouted,
        chain_seed: sr.seed,
        mean_data_hops,
        ..Side::default()
    }
}

fn json_side(s: &Side) -> String {
    let mut j = format!(
        "{{\"cost\": {:.3}, \"latency\": {:.3}, \"congestion\": {:.3}, \"pressure\": {:.3}, \"fanout\": {:.1}, \"mean_data_hops\": {:.3}",
        s.cost_total, s.latency, s.congestion, s.pressure, s.fanout, s.mean_data_hops
    );
    if let Some(c) = s.cycles {
        j.push_str(&format!(", \"cycles\": {c}"));
    }
    if let Some(l) = s.link_stalls {
        j.push_str(&format!(", \"link_stall_cycles\": {l}"));
        let tops: Vec<String> = s
            .top_stalled
            .iter()
            .map(|(r, c)| format!("[{r}, {c}]"))
            .collect();
        j.push_str(&format!(", \"top_stalled_routes\": [{}]", tops.join(", ")));
    }
    if s.attempted > 0 {
        j.push_str(&format!(
            ", \"accepted\": {}, \"attempted\": {}, \"rerouted\": {}, \"chain_seed\": {}",
            s.accepted, s.attempted, s.rerouted, s.chain_seed
        ));
    }
    j.push('}');
    j
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("map_explore: {e}");
            std::process::exit(2);
        }
    };
    // Selection problems (unknown preset/kernel tags) are usage errors.
    let (archs, tags) = match select(&args) {
        Ok(sel) => sel,
        Err(e) => {
            eprintln!("map_explore: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args, archs, tags) {
        eprintln!("map_explore: {e}");
        std::process::exit(1);
    }
}

/// Resolves the preset and kernel selections.
fn select(args: &Args) -> Result<(Vec<Architecture>, Vec<String>), String> {
    let archs: Vec<Architecture> = match &args.presets {
        None => marionette::arch::all_presets_on(args.fabric),
        Some(tags) => marionette::arch::presets_by_tags_on(args.fabric, tags)?,
    };
    let tags = kernel_tags(args.kernels.as_deref())?;
    Ok((archs, tags))
}

/// One kernel × architecture measurement; every stage failure becomes a
/// tagged error instead of a panic.
fn point_report(
    tag: &str,
    arch: &Architecture,
    scale: Scale,
    simulate: bool,
    budget: SearchBudget,
) -> Result<PointReport, String> {
    let k = marionette::kernels::by_short(tag).ok_or("unknown kernel tag")?;
    let cm = CostModel::from_timing(&arch.tm);
    let wl = k.workload(scale, SEED);
    let g = k.build(&wl).map_err(|e| format!("build: {e}"))?;
    // The explorer's cost of the greedy mapping, for a like-for-like
    // cost comparison with the searched side.
    let gc = greedy_cost(&g, &arch.opts, &cm).map_err(|e| format!("greedy cost: {e}"))?;
    let mut g_side = Side {
        cost_total: gc.total(&cm),
        latency: gc.latency,
        congestion: gc.congestion,
        pressure: gc.pressure,
        fanout: gc.fanout,
        ..Side::default()
    };
    let mut searched = arch.clone();
    searched.opts.search = budget;
    let (routes, e_side) = if simulate {
        // Greedy side: the preset as shipped (search off).
        let gr = run_kernel(k.as_ref(), arch, scale, SEED, DEFAULT_MAX_CYCLES)
            .map_err(|e| format!("greedy: {e}"))?;
        g_side.mean_data_hops = gr.report.mean_data_hops;
        g_side.cycles = Some(gr.cycles);
        g_side.link_stalls = Some(gr.stats.link_stall_cycles);
        g_side.top_stalled = gr.stats.top_stalled_routes(3);
        let run = run_kernel(k.as_ref(), &searched, scale, SEED, DEFAULT_MAX_CYCLES)
            .map_err(|e| format!("search: {e}"))?;
        if !run.verified {
            return Err("explored mapping diverged from the golden reference".into());
        }
        let sr = run
            .report
            .search
            .as_ref()
            .ok_or("searched compile produced no search report")?;
        let mut e = side_of_search(sr, run.report.mean_data_hops);
        e.cycles = Some(run.cycles);
        e.link_stalls = Some(run.stats.link_stall_cycles);
        e.top_stalled = run.stats.top_stalled_routes(3);
        (run.report.routes, e)
    } else {
        // --no-sim: compile both sides only (cost model smoke).
        let (_, grep) = compile(&g, &arch.opts).map_err(|e| format!("greedy: {e}"))?;
        g_side.mean_data_hops = grep.mean_data_hops;
        let (_, erep) = compile_for_arch(&g, &searched).map_err(|e| format!("search: {e}"))?;
        let sr = erep
            .search
            .as_ref()
            .ok_or("searched compile produced no search report")?;
        (erep.routes, side_of_search(sr, erep.mean_data_hops))
    };
    Ok(PointReport {
        kernel: tag.to_string(),
        arch: arch.short.to_string(),
        nodes: g.nodes.len(),
        routes,
        greedy: g_side,
        explored: e_side,
    })
}

fn run(args: Args, archs: Vec<Architecture>, tags: Vec<String>) -> Result<(), String> {
    let budget = SearchBudget::Anneal {
        moves: args.moves,
        restarts: args.restarts,
        base_seed: args.base_seed,
    };

    let points: Vec<(String, Architecture)> = tags
        .iter()
        .flat_map(|t| archs.iter().map(move |a| (t.clone(), a.clone())))
        .collect();
    let scale = args.scale;
    let simulate = args.simulate;
    let outcomes = par_map(points, sweep_threads(), |(tag, arch)| {
        point_report(&tag, &arch, scale, simulate, budget)
            .map_err(|e| format!("{tag} on {}: {e}", arch.short))
    });
    // Report the first failing point in row-major order.
    let mut reports = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        reports.push(o?);
    }

    let mut speedups: Vec<f64> = Vec::new();
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"marionette.map_explore/v1\",\n");
    j.push_str(&format!(
        "  \"budget\": {{\"moves\": {}, \"restarts\": {}, \"base_seed\": {}}},\n",
        args.moves, args.restarts, args.base_seed
    ));
    j.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match args.scale {
            Scale::Tiny => "tiny",
            Scale::Paper => "paper",
            _ => "small",
        }
    ));
    j.push_str(&format!("  \"fabric\": \"{}\",\n", args.fabric));
    j.push_str(&format!("  \"simulated\": {},\n", args.simulate));
    j.push_str("  \"points\": [\n");
    for (i, p) in reports.iter().enumerate() {
        let mut line = format!(
            "    {{\"kernel\": \"{}\", \"arch\": \"{}\", \"nodes\": {}, \"routes\": {}, \"greedy\": {}, \"explored\": {}",
            p.kernel,
            p.arch,
            p.nodes,
            p.routes,
            json_side(&p.greedy),
            json_side(&p.explored)
        );
        if let (Some(gc), Some(ec)) = (p.greedy.cycles, p.explored.cycles) {
            let sp = gc as f64 / ec as f64;
            speedups.push(sp);
            line.push_str(&format!(", \"cycle_speedup\": {sp:.4}"));
        }
        line.push('}');
        line.push_str(if i + 1 == reports.len() { "\n" } else { ",\n" });
        j.push_str(&line);
    }
    j.push_str("  ],\n");
    let gm = marionette::experiments::geomean(&speedups);
    j.push_str(&format!("  \"geomean_cycle_speedup\": {gm:.4}\n"));
    j.push_str("}\n");
    std::fs::write(&args.out, &j).map_err(|e| format!("writing {}: {e}", args.out))?;

    let improved = speedups.iter().filter(|&&s| s > 1.0).count();
    let regressed = speedups.iter().filter(|&&s| s < 1.0).count();
    println!(
        "map_explore: {} points ({} kernels x {} presets), budget {}x{} moves -> {}",
        reports.len(),
        tags.len(),
        archs.len(),
        args.restarts,
        args.moves,
        args.out
    );
    if args.simulate {
        println!(
            "map_explore: geomean cycle speedup {gm:.4} ({improved} improved, {regressed} regressed)"
        );
    }
    Ok(())
}
