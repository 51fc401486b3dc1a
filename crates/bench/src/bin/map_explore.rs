//! Mapping-quality explorer report: greedy vs annealed mapping for every
//! kernel × architecture point.
//!
//! For each point the tool compiles twice — once with the legacy one-shot
//! pipeline and once with the annealing mapping explorer — simulates
//! both mappings, and emits a JSON report with the cost-model breakdown,
//! route statistics, per-route stall attribution and the cycle delta.
//!
//! `--no-sim` skips the simulations (cost model only), for quick smoke
//! runs in CI.

use marionette::cli::{opt, switch, Args, Spec};
use marionette::compiler::explore::greedy_cost;
use marionette::compiler::{compile, CostModel, SearchBudget, SearchReport};
use marionette::kernels::traits::Scale;
use marionette::parallel::sweep_threads;
use marionette::report::Snapshot;
use marionette::runner::{compile_for_arch, run_kernel, DEFAULT_MAX_CYCLES};
use marionette_bench::sweep::{self, kernel_tags, Axes, Point, SEED};

static SPEC: Spec = Spec {
    name: "map_explore",
    about: "greedy vs annealed mapping quality for every kernel x preset",
    positional: "",
    flags: &[
        opt(
            "--search",
            "M[,R]",
            "anneal M moves x R chains [default: 1500,2]",
        ),
        opt("--kernels", "TAGS", "kernel tags [default: all]"),
        opt("--presets", "TAGS", "preset tags [default: all]"),
        opt("--scale", "NAME", "tiny, small or paper [default: small]"),
        opt("--fabric", "RxC", "fabric [default: 4x4]"),
        switch("--no-sim", "compile only (cost model smoke)"),
        opt("--out", "PATH", "report path [default: MAP_explore.json]"),
    ],
    notes: "",
};

struct Config {
    axes: Axes,
    search: SearchBudget,
    scale: Scale,
    simulate: bool,
    out: String,
}

fn config(a: &Args) -> Result<Config, String> {
    let req = a.run_request()?;
    let cfg = Config {
        axes: Axes::healthy(
            kernel_tags(a.list("--kernels")?.as_deref())?,
            vec![req.fabric],
            a.str("--presets").map(str::to_string),
        ),
        search: req.search.unwrap_or_else(SearchBudget::default_on),
        scale: a.scale()?,
        simulate: !a.has("--no-sim"),
        out: a.str("--out").unwrap_or("MAP_explore.json").to_string(),
    };
    // Resolve the selection now: unknown presets are usage errors.
    cfg.axes.points()?;
    Ok(cfg)
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
    SPEC.run(config, |cfg| run(&cfg));
}

/// One kernel × architecture measurement; every stage failure becomes a
/// tagged error instead of a panic.
fn point_report(p: &Point, cfg: &Config) -> Result<PointReport, String> {
    let (arch, scale) = (&p.arch, cfg.scale);
    let k = marionette::kernels::by_short(&p.kernel).ok_or("unknown kernel tag")?;
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
    searched.opts.search = cfg.search;
    let (routes, e_side) = if cfg.simulate {
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
        kernel: p.kernel.clone(),
        arch: arch.short.to_string(),
        nodes: g.nodes.len(),
        routes,
        greedy: g_side,
        explored: e_side,
    })
}

fn run(cfg: &Config) -> Result<(), String> {
    let (reports, _) = sweep::run(cfg.axes.points()?, sweep_threads(), |p| {
        point_report(p, cfg).map_err(|e| format!("{} on {}: {e}", p.kernel, p.arch.short))
    })?;

    let mut speedups: Vec<f64> = Vec::new();
    let rows: Vec<String> = reports
        .iter()
        .map(|p| {
            let mut line = format!(
                "{{\"kernel\": \"{}\", \"arch\": \"{}\", \"nodes\": {}, \"routes\": {}, \"greedy\": {}, \"explored\": {}",
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
            line
        })
        .collect();
    let gm = marionette::experiments::geomean(&speedups);
    let SearchBudget::Anneal {
        moves,
        restarts,
        base_seed,
    } = cfg.search
    else {
        unreachable!("a run request's search is an anneal budget");
    };
    let mut snap = Snapshot::new("marionette.map_explore/v1");
    snap.field(
        "budget",
        format!("{{\"moves\": {moves}, \"restarts\": {restarts}, \"base_seed\": {base_seed}}}"),
    )
    .str("scale", sweep::scale_name(cfg.scale))
    .str("fabric", &cfg.axes.fabrics[0].to_string())
    .field("simulated", cfg.simulate)
    .rows("points", &rows)
    .field("geomean_cycle_speedup", format!("{gm:.4}"));
    snap.write(&cfg.out)?;

    println!(
        "map_explore: {} points ({} kernels x {} presets), budget {restarts}x{moves} moves -> {}",
        reports.len(),
        cfg.axes.kernels.len(),
        reports.len() / cfg.axes.kernels.len(),
        cfg.out
    );
    if cfg.simulate {
        println!(
            "map_explore: geomean cycle speedup {gm:.4} ({} improved, {} regressed)",
            speedups.iter().filter(|&&s| s > 1.0).count(),
            speedups.iter().filter(|&&s| s < 1.0).count()
        );
    }
    Ok(())
}
