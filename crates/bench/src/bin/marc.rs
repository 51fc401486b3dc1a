//! `marc` — the Marionette source compiler driver.
//!
//! Takes a `.mar` program and drives the full stack: parse → semantic
//! checks → CDFG lowering → compile (greedy, or the annealing mapping
//! explorer with `--search`) → configuration-bitstream round-trip →
//! cycle-level simulation on every selected architecture preset — and
//! verifies each simulation bit-for-bit against the reference
//! interpreter before reporting it.
//!
//! ```text
//! marc FILE.mar [--presets M,vN,...] [--fabric RxC]
//!               [--search MOVES[,RESTARTS]]
//!               [--param NAME=VALUE]... [--max-cycles N]
//!               [--fault SPEC]... [--faults N] [--fault-seed S]
//!               [--engine wheel|heap] [--disasm] [--json PATH]
//! ```
//!
//! `--fault SPEC` (repeatable: `pe:R,C`, `link:R,C-R,C`,
//! `flaky:R,C-R,C@MULT`) and `--faults N` (seeded-random damage,
//! `--fault-seed` to vary it) inject faults into every simulation; a
//! bitstream wedged on a dead resource is re-mapped around the damage
//! and the remap is bit-verified like any other run.
//!
//! `--engine` selects the simulator's event-scheduling core (the
//! calendar-wheel default or the reference binary heap); both produce
//! bit-identical results, so the flag exists to cross-check them.
//!
//! Parse and semantic errors are rendered with their source line and a
//! caret. Exit codes: `0` verified on every preset, `1` any pipeline or
//! verification failure, `2` usage errors.

use marionette::arch::{Architecture, FabricDims};
use marionette::cdfg::value::Value;
use marionette::compiler::SearchBudget;
use marionette::sim::{EngineKind, FaultSet, RunSpec};
use marionette_lang::driver::{
    frontend, reference, run_preset, typed_overrides, DriverError, FaultRun, DEFAULT_MAX_CYCLES,
    INTERP_BUDGET,
};

struct Args {
    file: String,
    presets: Option<String>,
    fabric: FabricDims,
    search: Option<(u32, u32)>,
    params: Vec<(String, String)>,
    max_cycles: u64,
    fault_specs: Vec<String>,
    faults: usize,
    fault_seed: u64,
    engine: EngineKind,
    disasm: bool,
    json: Option<String>,
    trace: Option<String>,
}

fn usage() -> String {
    "usage: marc FILE.mar [--presets M,vN,...] [--fabric RxC] \
     [--search MOVES[,RESTARTS]] \
     [--param NAME=VALUE]... [--max-cycles N] \
     [--fault SPEC]... [--faults N] [--fault-seed S] \
     [--engine wheel|heap] [--disasm] [--json PATH] [--trace PATH]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        presets: None,
        fabric: FabricDims::paper(),
        search: None,
        params: Vec::new(),
        max_cycles: DEFAULT_MAX_CYCLES,
        fault_specs: Vec::new(),
        faults: 0,
        fault_seed: 1,
        engine: EngineKind::default(),
        disasm: false,
        json: None,
        trace: None,
    };
    let rest: Vec<&String> = argv.iter().skip(1).collect();
    let mut i = 0usize;
    let value_of = |flag: &str, i: &mut usize| -> Result<String, String> {
        *i += 1;
        match rest.get(*i) {
            // A flag-like token is a forgotten value, not a value.
            Some(s) if !s.starts_with("--") => Ok(s.to_string()),
            _ => Err(format!("{flag} needs a value\n{}", usage())),
        }
    };
    // Each flag may appear once; `--fault` and `--param` accumulate by
    // design. A repeated single flag is a typo'd command line — silently
    // letting the last occurrence win hides it.
    let mut seen = std::collections::HashSet::new();
    while i < rest.len() {
        let a = rest[i];
        if a.starts_with("--") && a != "--fault" && a != "--param" && !seen.insert(a.clone()) {
            return Err(format!("duplicate flag `{a}`\n{}", usage()));
        }
        match a.as_str() {
            "--presets" => args.presets = Some(value_of("--presets", &mut i)?),
            "--fabric" => {
                args.fabric = value_of("--fabric", &mut i)?
                    .parse()
                    .map_err(|e| format!("--fabric: {e}\n{}", usage()))?
            }
            "--search" => {
                let spec = value_of("--search", &mut i)?;
                let mut parts = spec.split(',').map(str::trim);
                let moves: u32 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("--search needs MOVES[,RESTARTS], got `{spec}`"))?;
                let restarts: u32 = match parts.next() {
                    None => 1,
                    Some(v) => v
                        .parse()
                        .map_err(|_| format!("--search RESTARTS must be numeric, got `{v}`"))?,
                };
                args.search = Some((moves, restarts));
            }
            "--param" => {
                let spec = value_of("--param", &mut i)?;
                let (name, val) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--param needs NAME=VALUE, got `{spec}`"))?;
                args.params.push((name.to_string(), val.to_string()));
            }
            "--max-cycles" => {
                let v = value_of("--max-cycles", &mut i)?;
                args.max_cycles = v
                    .parse()
                    .map_err(|_| format!("--max-cycles must be numeric, got `{v}`"))?;
            }
            "--fault" => args.fault_specs.push(value_of("--fault", &mut i)?),
            "--faults" => {
                let v = value_of("--faults", &mut i)?;
                args.faults = v
                    .parse()
                    .map_err(|_| format!("--faults must be numeric, got `{v}`"))?;
            }
            "--fault-seed" => {
                let v = value_of("--fault-seed", &mut i)?;
                args.fault_seed = v
                    .parse()
                    .map_err(|_| format!("--fault-seed must be numeric, got `{v}`"))?;
            }
            "--engine" => {
                let v = value_of("--engine", &mut i)?;
                args.engine = v.parse().map_err(|e| format!("--engine: {e}"))?;
            }
            "--disasm" => args.disasm = true,
            "--json" => args.json = Some(value_of("--json", &mut i)?),
            "--trace" => args.trace = Some(value_of("--trace", &mut i)?),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{}", usage()))
            }
            file => {
                if !args.file.is_empty() {
                    return Err(format!("more than one input file\n{}", usage()));
                }
                args.file = file.to_string();
            }
        }
        i += 1;
    }
    if args.file.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn select_presets(fabric: FabricDims, filter: Option<&str>) -> Result<Vec<Architecture>, String> {
    let Some(tags) = filter else {
        return Ok(marionette::arch::all_presets_on(fabric));
    };
    let out = marionette::arch::presets_by_tags_on(fabric, tags)?;
    if out.is_empty() {
        return Err("empty preset selection".to_string());
    }
    Ok(out)
}

use marionette::report::{json_escape, json_sinks};

#[allow(clippy::too_many_arguments)]
fn json_report(
    file: &str,
    prog_name: &str,
    nodes: usize,
    loops: usize,
    sinks: &std::collections::HashMap<String, Vec<Value>>,
    search: Option<(u32, u32)>,
    fabric: FabricDims,
    faults: &FaultSet,
    runs: &[FaultRun],
    disasm: bool,
) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"marionette.marc/v1\",\n");
    j.push_str(&format!("  \"file\": \"{}\",\n", json_escape(file)));
    j.push_str(&format!("  \"program\": \"{}\",\n", json_escape(prog_name)));
    j.push_str(&format!("  \"fabric\": \"{fabric}\",\n"));
    j.push_str(&format!(
        "  \"faults\": [{}],\n",
        faults
            .specs()
            .iter()
            .map(|s| format!("\"{}\"", json_escape(&s.to_string())))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!("  \"nodes\": {nodes},\n"));
    j.push_str(&format!("  \"loops\": {loops},\n"));
    match search {
        Some((m, r)) => j.push_str(&format!(
            "  \"search\": {{\"moves\": {m}, \"restarts\": {r}}},\n"
        )),
        None => j.push_str("  \"search\": null,\n"),
    }
    j.push_str(&format!("  \"sinks\": {},\n", json_sinks(sinks)));
    j.push_str("  \"presets\": [\n");
    for (i, fr) in runs.iter().enumerate() {
        let r = &fr.run;
        let mut line = format!(
            "    {{\"preset\": \"{}\", \"cycles\": {}, \"fires\": {}, \
             \"link_stall_cycles\": {}, \"switch_stall_cycles\": {}, \"group_switches\": {}, \
             \"routes\": {}, \"mean_data_hops\": {:.3}, \"verified\": true",
            json_escape(&r.preset),
            r.cycles,
            r.fires,
            r.link_stall_cycles,
            r.switch_stall_cycles,
            r.group_switches,
            r.routes,
            r.mean_data_hops
        );
        if !faults.is_empty() {
            match &fr.wedged {
                Some(w) => line.push_str(&format!(", \"wedged\": \"{}\"", json_escape(w))),
                None => line.push_str(", \"wedged\": null"),
            }
            line.push_str(&format!(", \"remapped\": {}", fr.remapped));
        }
        if let Some(sr) = &r.search {
            line.push_str(&format!(
                ", \"search\": {{\"cost\": {:.3}, \"accepted\": {}, \"attempted\": {}, \"chain_seed\": {}}}",
                sr.best_total, sr.accepted, sr.attempted, sr.seed
            ));
        }
        if disasm {
            let d = marionette::isa::disasm::disassemble(&fr.compiled.prog);
            line.push_str(&format!(", \"disasm\": \"{}\"", json_escape(&d)));
        }
        line.push('}');
        line.push_str(if i + 1 == runs.len() { "\n" } else { ",\n" });
        j.push_str(&line);
    }
    j.push_str("  ]\n}\n");
    j
}

fn run() -> Result<(), i32> {
    let argv: Vec<String> = std::env::args().collect();
    let args = parse_args(&argv).map_err(|e| {
        eprintln!("marc: {e}");
        2
    })?;
    let fail2 = |e: String| {
        eprintln!("marc: {e}");
        2
    };
    let presets = select_presets(args.fabric, args.presets.as_deref()).map_err(fail2)?;
    if args.trace.is_some() && presets.len() != 1 {
        return Err(fail2(format!(
            "--trace records one preset's run; narrow the {} selected presets \
             with --presets TAG",
            presets.len()
        )));
    }
    // Surface an unwritable trace path before spending cycles simulating.
    if let Some(path) = &args.trace {
        std::fs::File::create(path).map_err(|e| fail2(format!("--trace {path}: {e}")))?;
    }
    let faults = FaultSet::from_cli(
        args.fabric.rows,
        args.fabric.cols,
        &args.fault_specs,
        args.faults,
        args.fault_seed,
    )
    .map_err(fail2)?;
    let src = std::fs::read_to_string(&args.file).map_err(|e| {
        eprintln!("marc: reading {}: {e}", args.file);
        1
    })?;

    // Front end, with rendered diagnostics.
    let (ast, g) = frontend(&src).map_err(|e| {
        match e {
            DriverError::Parse(d) => eprintln!("{}", d.render(&args.file, &src)),
            DriverError::Sema(ds) => {
                for d in &ds {
                    eprintln!("{}", d.render(&args.file, &src));
                }
                eprintln!("marc: {} error(s)", ds.len());
            }
            other => eprintln!("marc: {other}"),
        }
        1
    })?;
    let overrides = typed_overrides(&ast, &args.params).map_err(|e| fail2(format!("--{e}")))?;

    // Reference semantics (both interpreter modes, cross-checked).
    let r = reference(&g, &overrides, INTERP_BUDGET).map_err(|e| {
        eprintln!("marc: {e}");
        1
    })?;
    println!(
        "marc: {} ({} nodes, {} loops, {} sinks) on {} preset(s)",
        ast.name.name,
        g.nodes.len(),
        g.loops.len(),
        r.dropping.sinks.len(),
        presets.len()
    );

    if !faults.is_empty() {
        println!("marc: injecting {faults}");
    }
    let mut runs = Vec::new();
    let mut tracer = args.trace.as_ref().map(|_| marionette::sim::Tracer::new());
    for arch in &presets {
        let mut arch = arch.clone();
        if let Some((moves, restarts)) = args.search {
            arch.opts.search = SearchBudget::Anneal {
                moves,
                restarts,
                base_seed: 0xA11E,
            };
        }
        let mut spec = RunSpec {
            faults: &faults,
            engine: args.engine,
            max_cycles: args.max_cycles,
            tracer: tracer.as_mut(),
        };
        let fr = run_preset(&g, &r, &arch, &overrides, &mut spec).map_err(|e| {
            eprintln!("marc: {e}");
            1
        })?;
        let note = match &fr.wedged {
            Some(w) => format!("  (wedged by {w}, remapped)"),
            None => String::new(),
        };
        let run = &fr.run;
        println!(
            "marc: {:>5}  {:>10} cycles  {:>9} fires  {:>7} link-stall  {:>5} switch-stall  verified{note}",
            run.preset, run.cycles, run.fires, run.link_stall_cycles, run.switch_stall_cycles
        );
        runs.push(fr);
    }

    let report = json_report(
        &args.file,
        &ast.name.name,
        g.nodes.len(),
        g.loops.len(),
        &r.dropping.sinks,
        args.search,
        args.fabric,
        &faults,
        &runs,
        args.disasm,
    );
    match &args.json {
        Some(path) if path != "-" => std::fs::write(path, &report).map_err(|e| {
            eprintln!("marc: writing {path}: {e}");
            1
        })?,
        Some(_) => print!("{report}"),
        None => {}
    }
    if let (Some(path), Some(t)) = (&args.trace, &tracer) {
        std::fs::write(path, t.to_chrome_json()).map_err(|e| {
            eprintln!("marc: writing {path}: {e}");
            1
        })?;
        println!("marc: wrote {} trace events to {path}", t.len());
    }
    Ok(())
}

fn main() {
    if let Err(code) = run() {
        std::process::exit(code);
    }
}
