//! Fabric-scaling experiment: how the control-plane gap grows with the
//! array.
//!
//! The paper models a centralized configuration change as a CCU round
//! trip of "~corner distance" of the mesh — a cost that *grows* with the
//! fabric, while Marionette's proactive switch stays one cycle. This
//! sweep runs every kernel on the same presets instantiated at several
//! fabric sizes (default 4×4, 6×6 and 8×8 — scales the paper didn't
//! plot) and reports, per fabric, the geomean cycle gap of each preset
//! against full Marionette. Every point is driven through the complete
//! compile → bitstream → simulate stack and bit-verified against the
//! reference interpreter (arrays, sink streams, out-of-bounds counts and
//! firing totals).
//!
//! With `--search`, each point is additionally compiled with the
//! annealing mapping explorer and re-verified (`cycles_search`).
//!
//! With `--partition` (repeatable, one per tenant) and `--tenants`
//! (kernel tags, one per partition) the sweep additionally runs the
//! **tenancy experiment**: for every preset, each tenant kernel runs
//! solo on a fabric of its partition's size, then all tenants co-run on
//! the sharded host fabric (default: the tightest fabric covering the
//! partitions; override with `--tenancy-fabric`), and the same kernels
//! run serially on the monolithic host fabric. Each co-resident tenant
//! is asserted bit-identical to its solo run (cycles and fires), and
//! the report compares sharded makespan against the monolith's serial
//! total — does a 2x2-of-8x8 sharded mesh beat one 16x16 monolith?
//!
//! Exit codes: `0` every point verified, `1` any pipeline or
//! verification failure (including a tenant diverging from its solo
//! run), `2` usage errors.

use marionette::arch::{preset_for_partition, FabricDims};
use marionette::cdfg::Cdfg;
use marionette::cli::{multi, opt, Args, Spec};
use marionette::compiler::{Partition, PartitionMap, SearchBudget};
use marionette::experiments::geomean;
use marionette::kernels::traits::Scale;
use marionette::parallel::{par_map, sweep_threads};
use marionette::report::{self, Snapshot};
use marionette::runner::DEFAULT_MAX_CYCLES;
use marionette::sim::RunSpec;
use marionette_bench::sweep::{self, canonical_kernel, kernel_tags, Axes, SEED};
use marionette_lang::driver::{reference, run_preset, Reference, INTERP_BUDGET};
use marionette_lang::tenancy::{run_tenancy, TenantJob};

static SPEC: Spec = Spec {
    name: "fabric_sweep",
    about: "control-plane gap vs fabric size, and sharded multi-tenant runs",
    positional: "",
    flags: &[
        opt("--fabrics", "RxC,..", "[default: 4x4,6x6,8x8]"),
        opt("--presets", "TAGS", "[default: vN,DF,M-PE,M-CN,M]"),
        opt("--kernels", "TAGS", "kernel tags [default: all]"),
        opt("--scale", "NAME", "tiny, small or paper [default: small]"),
        opt("--search", "M[,R]", "also anneal M moves x R chains"),
        opt("--max-cycles", "N", "per-run cycle cap"),
        multi("--partition", "RxC@r,c", "one tenant's partition"),
        opt("--tenants", "TAGS", "tenant kernels, one per --partition"),
        opt("--tenancy-fabric", "RxC", "[default: smallest cover]"),
        opt("--out", "PATH", "[default: BENCH_fabric.json]"),
    ],
    notes: "",
};

struct Config {
    axes: Axes,
    scale: Scale,
    max_cycles: u64,
    partitions: Vec<Partition>,
    tenants: Vec<String>,
    tenancy_fabric: Option<FabricDims>,
    out: String,
}

fn config(a: &Args) -> Result<Config, String> {
    let partitions = a.strings("--partition").into_iter().map(|v| v.parse());
    let partitions = partitions
        .collect::<Result<Vec<Partition>, _>>()
        .map_err(|e| format!("--partition: {e}"))?;
    let tenants: Vec<String> = a.list("--tenants")?.unwrap_or_default();
    match (a.has("--tenants"), partitions.len()) {
        (false, 0) => {}
        (false, _) => return Err("--partition requires --tenants".to_string()),
        (true, 0) => return Err("--tenants requires at least one --partition".to_string()),
        (true, n) if tenants.len() != n => {
            return Err(format!(
                "--tenants lists {} kernels but {n} --partition flags were given",
                tenants.len()
            ))
        }
        (true, _) => {}
    }
    let tenants = tenants.iter().map(|t| canonical_kernel(t));
    let fabrics = [(4, 4), (6, 6), (8, 8)].map(|(r, c)| FabricDims::new(r, c));
    let presets = a.str("--presets").unwrap_or("vN,DF,M-PE,M-CN,M");
    let req = a.run_request()?;
    let cfg = Config {
        axes: Axes {
            search: req.search,
            ..Axes::healthy(
                kernel_tags(a.list("--kernels")?.as_deref())?,
                a.list("--fabrics")?.unwrap_or(fabrics.to_vec()),
                Some(presets.to_string()),
            )
        },
        scale: a.scale()?,
        max_cycles: req.max_cycles.unwrap_or(DEFAULT_MAX_CYCLES),
        partitions,
        tenants: tenants
            .collect::<Result<_, _>>()
            .map_err(|e| format!("--tenants: {e}"))?,
        tenancy_fabric: a.parsed("--tenancy-fabric")?,
        out: a.str("--out").unwrap_or("BENCH_fabric.json").to_string(),
    };
    // Resolve the selection now: unknown presets are usage errors.
    cfg.axes.points()?;
    Ok(cfg)
}

fn main() {
    SPEC.run(config, |cfg| run(&cfg));
}

/// Builds each kernel's CDFG and its reference interpretation, which
/// are fabric-independent.
fn build_references(
    tags: &[String],
    scale: Scale,
    threads: usize,
) -> Result<Vec<(Cdfg, Reference)>, String> {
    par_map(tags.to_vec(), threads, |tag| {
        let k = marionette::kernels::by_short(&tag)
            .ok_or_else(|| format!("{tag}: unknown kernel tag"))?;
        let wl = k.workload(scale, SEED);
        let g = k.build(&wl).map_err(|e| format!("{tag}: build: {e}"))?;
        let r = reference(&g, &[], INTERP_BUDGET).map_err(|e| format!("{tag}: reference: {e}"))?;
        Ok((g, r))
    })
    .into_iter()
    .collect()
}

struct Measured {
    kernel: String,
    fabric: FabricDims,
    arch: String,
    cycles: u64,
    fires: u64,
    switch_stalls: u64,
    cycles_search: Option<u64>,
}

/// The sharded-vs-monolith tenancy experiment for one preset: runs every
/// tenant solo on a partition-sized fabric, co-runs them on the sharded
/// host fabric asserting each tenant bit-matches its solo run, and runs
/// the same kernels serially on the monolithic host fabric. Returns the
/// preset's snapshot row and summary line.
fn tenancy_preset(
    cfg: &Config,
    map: &PartitionMap,
    kernels: &[(Cdfg, Reference)],
    ptag: String,
) -> Result<(String, String), String> {
    let host = map.fabric();
    let mut archs = Vec::new();
    let mut solos = Vec::new();
    for (i, part) in map.parts().iter().enumerate() {
        let mut arch = preset_for_partition(part, &ptag)?;
        arch.opts.search = cfg.axes.search.unwrap_or(SearchBudget::Off);
        let (g, r) = &kernels[i];
        let solo = run_preset(g, r, &arch, &[], &mut RunSpec::new(cfg.max_cycles))
            .map_err(|e| {
                format!(
                    "{} solo on {} at {}: {e}",
                    cfg.tenants[i],
                    arch.short,
                    part.dims()
                )
            })?
            .run;
        archs.push(arch);
        solos.push(solo);
    }
    let jobs: Vec<TenantJob<'_>> = map
        .parts()
        .iter()
        .enumerate()
        .map(|(i, part)| TenantJob {
            name: cfg.tenants[i].clone(),
            g: &kernels[i].0,
            reference: &kernels[i].1,
            arch: &archs[i],
            partition: *part,
            overrides: Vec::new(),
            max_cycles: cfg.max_cycles,
        })
        .collect();
    let side = |n: usize| {
        u8::try_from(n).map_err(|_| format!("tenancy host fabric {host} exceeds 255x255"))
    };
    let report = run_tenancy(side(host.rows)?, side(host.cols)?, &jobs)
        .map_err(|e| format!("tenancy on {ptag} at {host}: {e}"))?;
    // Every tenant must complete AND bit-match its solo run.
    let mut tenants = Vec::new();
    for (t, solo) in report.tenants.iter().zip(&solos) {
        let run = t.outcome.run().ok_or_else(|| {
            format!(
                "tenancy on {ptag}: tenant {} wedged: {:?}",
                t.name, t.outcome
            )
        })?;
        if (run.cycles, run.fires) != (solo.cycles, solo.fires) {
            return Err(format!(
                "tenancy on {ptag}: tenant {} diverges from its solo run \
                 (co-resident {} cycles / {} fires, solo {} / {})",
                t.name, run.cycles, run.fires, solo.cycles, solo.fires
            ));
        }
        tenants.push(format!(
            "{{\"kernel\": \"{}\", \"partition\": \"{}\", \"cycles\": {}, \"fires\": {}, \"solo_identical\": true}}",
            t.name, t.partition, run.cycles, run.fires
        ));
    }
    // Monolith: the same kernels serially on the full host fabric.
    let mut mono = marionette::arch::presets_by_tags_on(host, &ptag)?
        .pop()
        .ok_or_else(|| format!("empty preset {ptag}"))?;
    mono.opts.search = cfg.axes.search.unwrap_or(SearchBudget::Off);
    let mut monolith_serial_cycles = 0u64;
    for (tag, (g, r)) in cfg.tenants.iter().zip(kernels) {
        let m = run_preset(g, r, &mono, &[], &mut RunSpec::new(cfg.max_cycles))
            .map_err(|e| format!("{tag} monolith on {} at {host}: {e}", mono.short))?;
        monolith_serial_cycles += m.run.cycles;
    }
    let (makespan, mono) = (report.makespan_cycles, monolith_serial_cycles);
    let speedup = mono as f64 / makespan as f64;
    Ok((
        format!(
            "{{\"preset\": \"{ptag}\", \"makespan_cycles\": {makespan}, \"monolith_serial_cycles\": {mono}, \"sharded_speedup\": {speedup:.4}, \"tenants\": [{}]}}",
            tenants.join(", ")
        ),
        format!(
            "fabric_sweep: tenancy {host} {ptag}: sharded makespan {makespan} vs monolith serial {mono} ({speedup:.2}x), {} tenants all bit-identical to solo",
            tenants.len()
        ),
    ))
}

fn run(cfg: &Config) -> Result<(), String> {
    let threads = sweep_threads();
    let kernels = build_references(&cfg.axes.kernels, cfg.scale, threads)?;
    let (measured, wall_ms) = sweep::run(cfg.axes.points()?, threads, |p| {
        let ki = cfg.axes.kernels.iter().position(|k| *k == p.kernel);
        let (g, reference) = &kernels[ki.expect("point kernels come from the axes")];
        let what = || format!("{} on {} at {}", p.kernel, p.arch.short, p.fabric);
        let mut spec = RunSpec::new(cfg.max_cycles);
        let run = run_preset(g, reference, &p.arch, &[], &mut spec)
            .map_err(|e| format!("{}: {e}", what()))?
            .run;
        let cycles_search = if let Some(budget) = cfg.axes.search {
            let mut searched = p.arch.clone();
            searched.opts.search = budget;
            let rs = run_preset(g, reference, &searched, &[], &mut spec)
                .map_err(|e| format!("{} (search): {e}", what()))?;
            Some(rs.run.cycles)
        } else {
            None
        };
        Ok(Measured {
            kernel: p.kernel.clone(),
            fabric: p.fabric,
            arch: p.arch.short.to_string(),
            cycles: run.cycles,
            fires: run.fires,
            switch_stalls: run.switch_stall_cycles,
            cycles_search,
        })
    })?;

    // Control-plane gap: per fabric, the geomean over kernels of each
    // preset's cycles relative to full Marionette on the same fabric.
    let preset_order: Vec<String> = cfg
        .axes
        .presets_on(cfg.axes.fabrics[0])?
        .iter()
        .map(|a| a.short.to_string())
        .collect();
    let mut gap: Vec<(FabricDims, Vec<(&String, f64)>)> = Vec::new();
    if preset_order.iter().any(|p| p == "M") {
        for &dims in &cfg.axes.fabrics {
            let cycles_of = |kernel: &str, arch: &str| {
                measured
                    .iter()
                    .find(|m| m.fabric == dims && m.kernel == kernel && m.arch == arch)
                    .map(|m| m.cycles as f64)
            };
            let per_preset = preset_order
                .iter()
                .filter(|p| *p != "M")
                .map(|p| {
                    let ratios: Vec<f64> = cfg
                        .axes
                        .kernels
                        .iter()
                        .filter_map(|k| Some(cycles_of(k, p)? / cycles_of(k, "M")?))
                        .collect();
                    (p, geomean(&ratios))
                })
                .collect();
            gap.push((dims, per_preset));
        }
    }

    // The tenancy block of the snapshot and its summary lines.
    let (mut tenancy, mut tenancy_lines) = ("null".to_string(), Vec::new());
    if !cfg.tenants.is_empty() {
        let tenant_kernels = build_references(&cfg.tenants, cfg.scale, threads)?;
        let map = match cfg.tenancy_fabric {
            Some(dims) => PartitionMap::new(dims, cfg.partitions.clone()),
            None => PartitionMap::covering(cfg.partitions.clone()),
        }
        .map_err(|e| format!("tenancy partitions: {e}"))?;
        let per_preset = par_map(preset_order.clone(), threads, |ptag| {
            tenancy_preset(cfg, &map, &tenant_kernels, ptag)
        });
        let (rows, lines): (Vec<String>, Vec<String>) = per_preset
            .into_iter()
            .collect::<Result<Vec<_>, String>>()?
            .into_iter()
            .unzip();
        tenancy = format!(
            "{{\n    \"fabric\": \"{}\",\n    \"partitions\": {},\n    \"per_preset\": {}\n  }}",
            map.fabric(),
            report::str_list(&cfg.partitions),
            report::rows(&rows, 4)
        );
        tenancy_lines = lines;
    }

    let mut snap = Snapshot::new("marionette.fabric_sweep/v1");
    snap.str("scale", sweep::scale_name(cfg.scale))
        .field("seed", SEED)
        .field("fabrics", report::str_list(&cfg.axes.fabrics))
        .field("presets", report::str_list(&preset_order))
        .field("search", report::search_json(cfg.axes.search))
        .field("total_wall_ms", format!("{wall_ms:.3}"));
    let gap_rows: Vec<String> = gap
        .iter()
        .map(|(dims, per_preset)| {
            let cells: Vec<String> = per_preset
                .iter()
                .map(|(p, g)| format!("\"{p}\": {g:.4}"))
                .collect();
            format!("{{\"fabric\": \"{dims}\", {}}}", cells.join(", "))
        })
        .collect();
    snap.rows("gap_vs_marionette", &gap_rows);
    snap.field("tenancy", tenancy);
    let rows: Vec<String> = measured
        .iter()
        .map(|m| {
            let search = match m.cycles_search {
                Some(cs) => format!(", \"cycles_search\": {cs}"),
                None => String::new(),
            };
            format!(
                "{{\"kernel\": \"{}\", \"fabric\": \"{}\", \"arch\": \"{}\", \"cycles\": {}, \"fires\": {}, \"switch_stall_cycles\": {}{search}, \"verified\": true}}",
                m.kernel, m.fabric, m.arch, m.cycles, m.fires, m.switch_stalls
            )
        })
        .collect();
    snap.rows("points", &rows);
    snap.write(&cfg.out)?;

    println!(
        "fabric_sweep: {} kernels x {} fabrics x {} presets = {} points, all bit-verified vs the interpreter, {wall_ms:.1} ms ({threads} threads) -> {}",
        cfg.axes.kernels.len(),
        cfg.axes.fabrics.len(),
        preset_order.len(),
        measured.len(),
        cfg.out
    );
    for (dims, per_preset) in &gap {
        let cells: Vec<String> = per_preset
            .iter()
            .map(|(p, g)| format!("{p} {g:.2}x"))
            .collect();
        println!(
            "fabric_sweep: {dims} geomean cycles vs Marionette: {}",
            cells.join(", ")
        );
    }
    for line in &tenancy_lines {
        println!("{line}");
    }
    Ok(())
}
