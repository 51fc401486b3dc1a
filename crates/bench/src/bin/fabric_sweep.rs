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
//! ```text
//! fabric_sweep [--fabrics 4x4,6x6,8x8] [--presets vN,DF,M-PE,M-CN,M]
//!              [--kernels A,B] [--scale tiny|small|paper]
//!              [--search MOVES[,RESTARTS]] [--max-cycles N]
//!              [--partition RxC@r,c]... [--tenants A,B,...]
//!              [--tenancy-fabric RxC] [--out BENCH_fabric.json]
//! ```
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

use marionette::arch::{preset_for_partition, Architecture, FabricDims};
use marionette::compiler::{Partition, PartitionMap, SearchBudget};
use marionette::experiments::geomean;
use marionette::kernels::traits::Scale;
use marionette::parallel::{par_map, sweep_threads};
use marionette::report::json_escape;
use marionette::runner::DEFAULT_MAX_CYCLES;
use marionette::sim::RunSpec;
use marionette_bench::kernel_tags;
use marionette_lang::driver::{reference, run_preset, Reference, INTERP_BUDGET};
use marionette_lang::tenancy::{run_tenancy, TenantJob};
use std::time::Instant;

const SEED: u64 = 1;

struct Args {
    fabrics: Vec<FabricDims>,
    presets: String,
    kernels: Option<String>,
    scale: Scale,
    search: Option<(u32, u32)>,
    max_cycles: u64,
    partitions: Vec<Partition>,
    tenants: Option<String>,
    tenancy_fabric: Option<FabricDims>,
    out: String,
}

fn usage() -> String {
    "usage: fabric_sweep [--fabrics 4x4,6x6,8x8] [--presets vN,DF,M-PE,M-CN,M] \
     [--kernels A,B] [--scale tiny|small|paper] [--search MOVES[,RESTARTS]] \
     [--max-cycles N] [--partition RxC@r,c]... [--tenants A,B,...] \
     [--tenancy-fabric RxC] [--out PATH]"
        .to_string()
}

const KNOWN_FLAGS: &[&str] = &[
    "--fabrics",
    "--presets",
    "--kernels",
    "--scale",
    "--search",
    "--max-cycles",
    "--partition",
    "--tenants",
    "--tenancy-fabric",
    "--out",
];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    // Strict argv validation: every token must be a known flag or the
    // value of the preceding one (a typo'd `--fabric` must error, not
    // silently run the default 4x4,6x6,8x8 sweep).
    let mut i = 1;
    while i < argv.len() {
        if !KNOWN_FLAGS.contains(&argv[i].as_str()) {
            return Err(format!("unknown argument `{}`\n{}", argv[i], usage()));
        }
        i += 2; // the flag's value (validated by the per-flag parser)
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
    let fabrics = get("--fabrics")?
        .unwrap_or_else(|| "4x4,6x6,8x8".to_string())
        .split(',')
        .map(|s| s.trim().parse::<FabricDims>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("--fabrics: {e}"))?;
    if fabrics.is_empty() {
        return Err("--fabrics needs at least one RxC entry".to_string());
    }
    let search = match get("--search")? {
        None => None,
        Some(spec) => {
            let mut it = spec.split(',').map(str::trim);
            let moves: u32 = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("--search needs MOVES[,RESTARTS], got `{spec}`"))?;
            let restarts: u32 = match it.next() {
                None => 1,
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--search RESTARTS must be numeric, got `{v}`"))?,
            };
            Some((moves, restarts))
        }
    };
    // --partition is repeatable: one entry per tenant, in tenant order.
    let mut partitions = Vec::new();
    for (i, a) in argv.iter().enumerate() {
        if a == "--partition" {
            let v = argv
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("--partition needs a value\n{}", usage()))?;
            partitions.push(
                v.parse::<Partition>()
                    .map_err(|e| format!("--partition: {e}"))?,
            );
        }
    }
    let tenants = get("--tenants")?;
    match (&tenants, partitions.len()) {
        (None, 0) => {}
        (None, _) => return Err("--partition requires --tenants".to_string()),
        (Some(_), 0) => return Err("--tenants requires at least one --partition".to_string()),
        (Some(t), n) => {
            let count = t.split(',').filter(|s| !s.trim().is_empty()).count();
            if count != n {
                return Err(format!(
                    "--tenants lists {count} kernels but {n} --partition flags were given"
                ));
            }
        }
    }
    let tenancy_fabric = get("--tenancy-fabric")?
        .map(|v| {
            v.parse::<FabricDims>()
                .map_err(|e| format!("--tenancy-fabric: {e}"))
        })
        .transpose()?;
    Ok(Args {
        fabrics,
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
        search,
        max_cycles: match get("--max-cycles")? {
            None => DEFAULT_MAX_CYCLES,
            Some(v) => v
                .parse()
                .map_err(|_| format!("--max-cycles must be numeric, got `{v}`"))?,
        },
        partitions,
        tenants,
        tenancy_fabric,
        out: get("--out")?.unwrap_or_else(|| "BENCH_fabric.json".to_string()),
    })
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

struct TenantMeasure {
    kernel: String,
    partition: String,
    cycles: u64,
    fires: u64,
}

struct TenancyPreset {
    preset: String,
    makespan_cycles: u64,
    monolith_serial_cycles: u64,
    tenants: Vec<TenantMeasure>,
}

/// The sharded-vs-monolith tenancy experiment (see module docs): per
/// preset, runs every tenant solo on a partition-sized fabric, co-runs
/// them on the sharded host fabric asserting each tenant bit-matches
/// its solo run, and runs the same kernels serially on the monolithic
/// host fabric for the makespan comparison.
fn tenancy_experiment(
    args: &Args,
    threads: usize,
) -> Result<Option<(FabricDims, Vec<TenancyPreset>)>, String> {
    let Some(tenant_spec) = &args.tenants else {
        return Ok(None);
    };
    // Canonicalize tenant tags case-insensitively, like --kernels.
    let canonical = kernel_tags(None)?;
    let mut tags = Vec::new();
    for t in tenant_spec
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
    {
        let tag = canonical
            .iter()
            .find(|c| c.eq_ignore_ascii_case(t))
            .ok_or_else(|| format!("--tenants: unknown kernel tag {t}"))?;
        tags.push(tag.clone());
    }
    let map = match args.tenancy_fabric {
        Some(dims) => PartitionMap::new(dims, args.partitions.clone()),
        None => PartitionMap::covering(args.partitions.clone()),
    }
    .map_err(|e| format!("tenancy partitions: {e}"))?;
    let host = map.fabric();

    // Build each tenant's CDFG and reference once (slot order).
    let builds = par_map(tags.clone(), threads, |tag| {
        let k = marionette::kernels::by_short(&tag)
            .ok_or_else(|| format!("{tag}: unknown kernel tag"))?;
        let wl = k.workload(args.scale, SEED);
        let g = k.build(&wl).map_err(|e| format!("{tag}: build: {e}"))?;
        let r = reference(&g, &[], INTERP_BUDGET).map_err(|e| format!("{tag}: reference: {e}"))?;
        Ok::<_, String>((g, r))
    });
    let mut kernels = Vec::with_capacity(builds.len());
    for b in builds {
        kernels.push(b?);
    }

    let preset_tags: Vec<String> = args
        .presets
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let apply_search = |a: &mut Architecture| {
        a.opts.search = match args.search {
            None => SearchBudget::Off,
            Some((moves, restarts)) => SearchBudget::Anneal {
                moves,
                restarts,
                base_seed: 0xA11E,
            },
        };
    };
    let kernels_ref = &kernels;
    let tags_ref = &tags;
    let map_ref = &map;
    let outcomes = par_map(
        preset_tags,
        threads,
        |ptag| -> Result<TenancyPreset, String> {
            // Solo baselines: each tenant alone on a partition-sized fabric.
            let mut archs = Vec::new();
            let mut solos = Vec::new();
            for (i, part) in map_ref.parts().iter().enumerate() {
                let mut arch = preset_for_partition(part, &ptag)?;
                apply_search(&mut arch);
                let (g, r) = &kernels_ref[i];
                let solo = run_preset(g, r, &arch, &[], &mut RunSpec::new(args.max_cycles))
                    .map_err(|e| {
                        format!(
                            "{} solo on {} at {}: {e}",
                            tags_ref[i],
                            arch.short,
                            part.dims()
                        )
                    })?
                    .run;
                archs.push(arch);
                solos.push(solo);
            }
            // Co-resident run on the sharded host fabric.
            let jobs: Vec<TenantJob<'_>> = map_ref
                .parts()
                .iter()
                .enumerate()
                .map(|(i, part)| TenantJob {
                    name: tags_ref[i].clone(),
                    g: &kernels_ref[i].0,
                    reference: &kernels_ref[i].1,
                    arch: &archs[i],
                    partition: *part,
                    overrides: Vec::new(),
                    max_cycles: args.max_cycles,
                })
                .collect();
            let report = run_tenancy(host.rows as u8, host.cols as u8, &jobs, Default::default())
                .map_err(|e| format!("tenancy on {ptag} at {host}: {e}"))?;
            // Every tenant must complete AND bit-match its solo run.
            let mut tenants = Vec::new();
            for (i, t) in report.tenants.iter().enumerate() {
                let run = t.outcome.run().ok_or_else(|| {
                    format!(
                        "tenancy on {ptag}: tenant {} wedged: {:?}",
                        t.name, t.outcome
                    )
                })?;
                if (run.cycles, run.fires) != (solos[i].cycles, solos[i].fires) {
                    return Err(format!(
                        "tenancy on {ptag}: tenant {} diverges from its solo run \
                     (co-resident {} cycles / {} fires, solo {} / {})",
                        t.name, run.cycles, run.fires, solos[i].cycles, solos[i].fires
                    ));
                }
                tenants.push(TenantMeasure {
                    kernel: t.name.clone(),
                    partition: t.partition.clone(),
                    cycles: run.cycles,
                    fires: run.fires,
                });
            }
            // Monolith: the same kernels serially on the full host fabric.
            let mut mono = marionette::arch::presets_by_tags_on(host, &ptag)?
                .pop()
                .ok_or_else(|| format!("empty preset {ptag}"))?;
            apply_search(&mut mono);
            let mut monolith_serial_cycles = 0u64;
            for (i, (g, r)) in kernels_ref.iter().enumerate() {
                let m = run_preset(g, r, &mono, &[], &mut RunSpec::new(args.max_cycles))
                    .map_err(|e| {
                        format!("{} monolith on {} at {host}: {e}", tags_ref[i], mono.short)
                    })?
                    .run;
                monolith_serial_cycles += m.cycles;
            }
            Ok(TenancyPreset {
                preset: ptag,
                makespan_cycles: report.makespan_cycles,
                monolith_serial_cycles,
                tenants,
            })
        },
    );
    let mut per_preset = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        per_preset.push(o?);
    }
    Ok(Some((host, per_preset)))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fabric_sweep: {e}");
            std::process::exit(2);
        }
    };
    // Selection problems (unknown kernel/preset tags) are usage errors.
    let selection = (|| -> Result<_, String> {
        let tags = kernel_tags(args.kernels.as_deref())?;
        let mut grids: Vec<(FabricDims, Vec<Architecture>)> = Vec::new();
        for &dims in &args.fabrics {
            let mut archs = marionette::arch::presets_by_tags_on(dims, &args.presets)?;
            if archs.is_empty() {
                return Err("empty preset selection".to_string());
            }
            for a in &mut archs {
                a.opts.search = SearchBudget::Off;
            }
            grids.push((dims, archs));
        }
        Ok((tags, grids))
    })();
    let (tags, grids) = match selection {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fabric_sweep: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args, tags, grids) {
        eprintln!("fabric_sweep: {e}");
        std::process::exit(1);
    }
}

fn run(
    args: &Args,
    tags: Vec<String>,
    grids: Vec<(FabricDims, Vec<Architecture>)>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let threads = sweep_threads();

    // The CDFG and its reference interpretation are fabric-independent:
    // build and interpret each kernel once, then fan the fabric × preset
    // simulations out over threads.
    let refs: Vec<Result<(String, marionette::cdfg::Cdfg, Reference), String>> =
        par_map(tags.clone(), threads, |tag| {
            let k = marionette::kernels::by_short(&tag)
                .ok_or_else(|| format!("{tag}: unknown kernel tag"))?;
            let wl = k.workload(args.scale, SEED);
            let g = k.build(&wl).map_err(|e| format!("{tag}: build: {e}"))?;
            let r =
                reference(&g, &[], INTERP_BUDGET).map_err(|e| format!("{tag}: reference: {e}"))?;
            Ok((tag, g, r))
        });
    let mut kernels = Vec::with_capacity(refs.len());
    for r in refs {
        kernels.push(r?);
    }

    let points: Vec<(usize, FabricDims, Architecture)> = (0..kernels.len())
        .flat_map(|ki| {
            grids
                .iter()
                .flat_map(move |(dims, archs)| archs.iter().map(move |a| (ki, *dims, a.clone())))
        })
        .collect();
    let npoints = points.len();
    let kernels_ref = &kernels;
    let outcomes = par_map(
        points,
        threads,
        |(ki, dims, arch)| -> Result<Measured, String> {
            let (tag, g, reference) = &kernels_ref[ki];
            let what = || format!("{tag} on {} at {dims}", arch.short);
            let mut spec = RunSpec::new(args.max_cycles);
            let run = run_preset(g, reference, &arch, &[], &mut spec)
                .map_err(|e| format!("{}: {e}", what()))?
                .run;
            let cycles_search = match args.search {
                None => None,
                Some((moves, restarts)) => {
                    let mut searched = arch.clone();
                    searched.opts.search = SearchBudget::Anneal {
                        moves,
                        restarts,
                        base_seed: 0xA11E,
                    };
                    let rs = run_preset(g, reference, &searched, &[], &mut spec)
                        .map_err(|e| format!("{} (search): {e}", what()))?
                        .run;
                    Some(rs.cycles)
                }
            };
            Ok(Measured {
                kernel: tag.clone(),
                fabric: dims,
                arch: arch.short.to_string(),
                cycles: run.cycles,
                fires: run.fires,
                switch_stalls: run.switch_stall_cycles,
                cycles_search,
            })
        },
    );
    let mut measured = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        measured.push(o?);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Control-plane gap: per fabric, the geomean over kernels of each
    // preset's cycles relative to full Marionette on the same fabric.
    let preset_order: Vec<String> = grids[0].1.iter().map(|a| a.short.to_string()).collect();
    let has_m = preset_order.iter().any(|p| p == "M");
    let mut gap: Vec<(FabricDims, Vec<(String, f64)>)> = Vec::new();
    if has_m {
        for &(dims, _) in &grids {
            let cycles_of = |kernel: &str, arch: &str| -> Option<u64> {
                measured
                    .iter()
                    .find(|m| m.fabric == dims && m.kernel == *kernel && m.arch == arch)
                    .map(|m| m.cycles)
            };
            let mut per_preset = Vec::new();
            for p in &preset_order {
                if p == "M" {
                    continue;
                }
                let ratios: Vec<f64> = kernels
                    .iter()
                    .filter_map(|(tag, _, _)| {
                        Some(cycles_of(tag, p)? as f64 / cycles_of(tag, "M")? as f64)
                    })
                    .collect();
                per_preset.push((p.clone(), geomean(&ratios)));
            }
            gap.push((dims, per_preset));
        }
    }

    let tenancy = tenancy_experiment(args, threads)?;

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"marionette.fabric_sweep/v1\",\n");
    j.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match args.scale {
            Scale::Tiny => "tiny",
            Scale::Paper => "paper",
            _ => "small",
        }
    ));
    j.push_str(&format!("  \"seed\": {SEED},\n"));
    j.push_str(&format!(
        "  \"fabrics\": [{}],\n",
        args.fabrics
            .iter()
            .map(|d| format!("\"{d}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!(
        "  \"presets\": [{}],\n",
        preset_order
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    match args.search {
        Some((m, r)) => j.push_str(&format!(
            "  \"search\": {{\"moves\": {m}, \"restarts\": {r}}},\n"
        )),
        None => j.push_str("  \"search\": null,\n"),
    }
    j.push_str(&format!("  \"total_wall_ms\": {wall_ms:.3},\n"));
    j.push_str("  \"gap_vs_marionette\": [\n");
    for (i, (dims, per_preset)) in gap.iter().enumerate() {
        let cells: Vec<String> = per_preset
            .iter()
            .map(|(p, g)| format!("\"{}\": {g:.4}", json_escape(p)))
            .collect();
        j.push_str(&format!(
            "    {{\"fabric\": \"{dims}\", {}}}{}\n",
            cells.join(", "),
            if i + 1 == gap.len() { "" } else { "," }
        ));
    }
    j.push_str("  ],\n");
    match &tenancy {
        None => j.push_str("  \"tenancy\": null,\n"),
        Some((host, per_preset)) => {
            j.push_str("  \"tenancy\": {\n");
            j.push_str(&format!("    \"fabric\": \"{host}\",\n"));
            j.push_str(&format!(
                "    \"partitions\": [{}],\n",
                args.partitions
                    .iter()
                    .map(|p| format!("\"{p}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            j.push_str("    \"per_preset\": [\n");
            for (i, tp) in per_preset.iter().enumerate() {
                let speedup = tp.monolith_serial_cycles as f64 / tp.makespan_cycles as f64;
                let tenants: Vec<String> = tp
                    .tenants
                    .iter()
                    .map(|t| {
                        format!(
                            "{{\"kernel\": \"{}\", \"partition\": \"{}\", \"cycles\": {}, \"fires\": {}, \"solo_identical\": true}}",
                            json_escape(&t.kernel),
                            json_escape(&t.partition),
                            t.cycles,
                            t.fires
                        )
                    })
                    .collect();
                j.push_str(&format!(
                    "      {{\"preset\": \"{}\", \"makespan_cycles\": {}, \"monolith_serial_cycles\": {}, \"sharded_speedup\": {speedup:.4}, \"tenants\": [{}]}}{}\n",
                    json_escape(&tp.preset),
                    tp.makespan_cycles,
                    tp.monolith_serial_cycles,
                    tenants.join(", "),
                    if i + 1 == per_preset.len() { "" } else { "," }
                ));
            }
            j.push_str("    ]\n  },\n");
        }
    }
    j.push_str("  \"points\": [\n");
    for (i, m) in measured.iter().enumerate() {
        let search_field = match m.cycles_search {
            Some(cs) => format!(", \"cycles_search\": {cs}"),
            None => String::new(),
        };
        j.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"fabric\": \"{}\", \"arch\": \"{}\", \"cycles\": {}, \"fires\": {}, \"switch_stall_cycles\": {}{}, \"verified\": true}}{}\n",
            json_escape(&m.kernel),
            m.fabric,
            json_escape(&m.arch),
            m.cycles,
            m.fires,
            m.switch_stalls,
            search_field,
            if i + 1 == measured.len() { "" } else { "," }
        ));
    }
    j.push_str("  ]\n}\n");
    std::fs::write(&args.out, &j).map_err(|e| format!("writing {}: {e}", args.out))?;

    println!(
        "fabric_sweep: {} kernels x {} fabrics x {} presets = {npoints} points, all bit-verified vs the interpreter, {wall_ms:.1} ms ({threads} threads) -> {}",
        kernels.len(),
        grids.len(),
        preset_order.len(),
        args.out
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
    if let Some((host, per_preset)) = &tenancy {
        for tp in per_preset {
            let speedup = tp.monolith_serial_cycles as f64 / tp.makespan_cycles as f64;
            println!(
                "fabric_sweep: tenancy {host} {}: sharded makespan {} vs monolith serial {} ({speedup:.2}x), {} tenants all bit-identical to solo",
                tp.preset,
                tp.makespan_cycles,
                tp.monolith_serial_cycles,
                tp.tenants.len()
            );
        }
    }
    Ok(())
}
