//! `marc` — the Marionette source compiler driver.
//!
//! Takes a `.mar` program and drives the full stack: parse → semantic
//! checks → CDFG lowering → compile (greedy, or the annealing mapping
//! explorer with `--search`) → configuration-bitstream round-trip →
//! cycle-level simulation on every selected architecture preset — and
//! verifies each simulation bit-for-bit against the reference
//! interpreter before reporting it.
//!
//! `--fault SPEC` (repeatable: `pe:R,C`, `link:R,C-R,C`,
//! `flaky:R,C-R,C@MULT`) and `--faults N` (seeded-random damage,
//! `--fault-seed` to vary it) inject faults into every simulation; a
//! bitstream wedged on a dead resource is re-mapped around the damage
//! and the remap is bit-verified like any other run.
//!
//! Parse and semantic errors are rendered with their source line and a
//! caret. Exit codes: `0` verified on every preset, `1` any pipeline or
//! verification failure, `2` usage errors.

use marionette::arch::Architecture;
use marionette::cdfg::Cdfg;
use marionette::cli::{multi, opt, switch, usage_exit, Args, Spec};
use marionette::report::{self, json_escape, json_sinks, Snapshot};
use marionette::request::RunRequest;
use marionette::sim::{FaultSet, RunSpec};
use marionette_lang::driver::{
    frontend, reference, run_preset, typed_overrides, DriverError, FaultRun, Reference,
    DEFAULT_MAX_CYCLES, INTERP_BUDGET,
};

static SPEC: Spec = Spec {
    name: "marc",
    about: "compile a .mar program and run it, bit-verified, on every selected preset",
    positional: "FILE.mar",
    flags: &[
        opt("--presets", "TAGS", "preset tags [default: all]"),
        opt("--fabric", "RxC", "fabric [default: 4x4]"),
        opt("--search", "M[,R]", "anneal M moves x R chains"),
        multi("--param", "NAME=VALUE", "override a program parameter"),
        opt("--max-cycles", "N", "per-run cycle cap"),
        multi("--fault", "SPEC", "pin a fault (pe:, link: or flaky:)"),
        opt("--faults", "N", "add N seeded-random faults"),
        opt("--fault-seed", "S", "random fault seed [default: 1]"),
        switch("--disasm", "include each preset's disassembly in the JSON"),
        opt("--json", "PATH", "write the JSON report (`-`: stdout)"),
        opt("--trace", "PATH", "trace the one selected preset's run"),
    ],
    notes: "",
};

struct Config {
    file: String,
    /// The selected presets, with the request's search budget applied.
    presets: Vec<Architecture>,
    req: RunRequest,
    max_cycles: u64,
    faults: FaultSet,
    disasm: bool,
    json: Option<String>,
    trace: Option<String>,
}

fn config(a: &Args) -> Result<Config, String> {
    let file = match a.positional() {
        [file] => file.clone(),
        [] => return Err("expected an input file FILE.mar".to_string()),
        _ => return Err("more than one input file".to_string()),
    };
    let req = a.run_request()?;
    let mut presets = match a.str("--presets") {
        None => marionette::arch::all_presets_on(req.fabric),
        Some(tags) => marionette::arch::presets_by_tags_on(req.fabric, tags)?,
    };
    presets.iter_mut().for_each(|p| req.apply_search(p));
    if presets.is_empty() {
        return Err("empty preset selection".to_string());
    }
    let trace = a.str("--trace").map(str::to_string);
    if let Some(path) = &trace {
        if presets.len() != 1 {
            return Err(format!(
                "--trace records one preset's run; narrow the {} selected presets \
                 with --presets TAG",
                presets.len()
            ));
        }
        // Surface an unwritable trace path before spending cycles.
        std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
    }
    Ok(Config {
        file,
        presets,
        max_cycles: req.max_cycles.unwrap_or(DEFAULT_MAX_CYCLES),
        faults: req.faults(),
        req,
        disasm: a.has("--disasm"),
        json: a.str("--json").map(str::to_string),
        trace,
    })
}

/// The `--json` report of a program's verified runs.
fn json_report(args: &Config, program: &str, g: &Cdfg, r: &Reference, runs: &[FaultRun]) -> String {
    let faults = &args.faults;
    let lines: Vec<String> = runs
        .iter()
        .map(|fr| {
            let r = &fr.run;
            let preset = json_escape(&r.preset);
            let mut line = format!("{{\"preset\": \"{preset}\", {}", r.json_members());
            if !faults.is_empty() {
                match &fr.wedged {
                    Some(w) => line.push_str(&format!(", \"wedged\": \"{}\"", json_escape(w))),
                    None => line.push_str(", \"wedged\": null"),
                }
                line.push_str(&format!(", \"remapped\": {}", fr.wedged.is_some()));
            }
            if let Some(sr) = &r.search {
                line.push_str(&format!(
                    ", \"search\": {{\"cost\": {:.3}, \"accepted\": {}, \"attempted\": {}, \"chain_seed\": {}}}",
                    sr.best_total, sr.accepted, sr.attempted, sr.seed
                ));
            }
            if args.disasm {
                let d = marionette::isa::disasm::disassemble(&fr.compiled.prog);
                line.push_str(&format!(", \"disasm\": \"{}\"", json_escape(&d)));
            }
            line.push('}');
            line
        })
        .collect();
    let mut snap = Snapshot::new("marionette.marc/v1");
    snap.str("file", &args.file)
        .str("program", program)
        .str("fabric", &args.req.fabric.to_string())
        .field("faults", report::str_list(faults.specs()))
        .field("nodes", g.nodes.len())
        .field("loops", g.loops.len())
        .field("search", report::search_json(args.req.search))
        .field("sinks", json_sinks(&r.dropping.sinks))
        .rows("presets", &lines);
    snap.render()
}

fn run() -> Result<(), i32> {
    let a = SPEC.parse_env();
    let args = a.or_exit(config(&a));
    let (presets, faults) = (&args.presets, &args.faults);
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
    let overrides = typed_overrides(&ast.params, &args.req.params)
        .unwrap_or_else(|e| usage_exit(SPEC.name, format!("--{e}")));

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
    for arch in presets {
        let mut spec = RunSpec {
            faults,
            max_cycles: args.max_cycles,
            tracer: tracer.as_mut(),
        };
        let fr = run_preset(&g, &r, arch, &overrides, &mut spec).map_err(|e| {
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

    let report = json_report(&args, &ast.name.name, &g, &r, &runs);
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
