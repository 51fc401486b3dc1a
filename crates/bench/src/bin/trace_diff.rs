//! Differential trace comparator.
//!
//! Loads two Chrome trace-event JSON files written by the simulator's
//! cycle tracer (`marc --trace`, `fault_sweep --trace`) and reports
//! where the two timelines diverge: the first event (and its cycle) at
//! which they differ, plus per-track stall-cycle deltas. This turns the repo's differential harnesses
//! into a debugging workflow — heap-vs-wheel traces of the same kernel
//! must be identical, and a healthy-vs-remapped pair shows exactly
//! which links the healed mapping pays its extra cycles on.
//!
//! `--limit N` caps the number of per-track stall-delta lines printed
//! (default 10; the summary always counts every differing track).
//!
//! Exit codes: `0` traces identical, `1` diverged, `2` usage errors
//! (bad flags, unreadable files, schema violations).

use marionette::cli::{opt, Args, Spec};
use marionette::sim::trace::{parse, ParsedTrace};

static SPEC: Spec = Spec {
    name: "trace_diff",
    about: "report where two cycle traces diverge",
    positional: "A.json B.json",
    flags: &[opt(
        "--limit",
        "N",
        "stall-delta lines to print [default: 10]",
    )],
    notes: "",
};

struct Config {
    a: String,
    b: String,
    limit: usize,
}

fn config(a: &Args) -> Result<Config, String> {
    let [first, second] = a.positional() else {
        return Err(format!(
            "expected exactly two trace files, got {}",
            a.positional().len()
        ));
    };
    Ok(Config {
        a: first.clone(),
        b: second.clone(),
        limit: a.num("--limit", 10)?,
    })
}

fn load(path: &str) -> Result<ParsedTrace, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse(&s).map_err(|e| format!("{path}: {e}"))
}

/// One event resolved to its track *name*, so traces whose tracks were
/// created in different first-use orders still compare by meaning.
fn describe(t: &ParsedTrace, i: usize) -> String {
    let e = &t.events[i];
    let track = &t.tracks[e.track as usize];
    match e.ph {
        'C' => format!("[{track}] counter {} = {}", e.name, e.value.unwrap_or(0)),
        'i' => format!("[{track}] mark \"{}\" @ {}", e.name, e.ts),
        _ => format!("[{track}] {} @ {} dur {}", e.name, e.ts, e.dur),
    }
}

/// Index of the first event at which the two timelines differ, or
/// `None` when one is a prefix of the other (or they are identical).
fn first_divergence(a: &ParsedTrace, b: &ParsedTrace) -> Option<usize> {
    (0..a.events.len().min(b.events.len())).find(|&i| {
        let (ea, eb) = (&a.events[i], &b.events[i]);
        a.tracks[ea.track as usize] != b.tracks[eb.track as usize]
            || ea.ph != eb.ph
            || ea.ts != eb.ts
            || ea.dur != eb.dur
            || ea.name != eb.name
            || ea.value != eb.value
    })
}

/// Per-track stall cycles keyed by track name.
fn stalls_by_name(t: &ParsedTrace) -> std::collections::BTreeMap<String, u64> {
    t.tracks
        .iter()
        .cloned()
        .zip(t.stall_by_track())
        .filter(|(_, s)| *s > 0)
        .collect()
}

/// Returns `true` when the traces are identical.
fn run(args: &Config) -> Result<bool, String> {
    let a = load(&args.a)?;
    let b = load(&args.b)?;

    let div = first_divergence(&a, &b);
    let identical = div.is_none() && a.events.len() == b.events.len() && a.tracks == b.tracks;
    if identical {
        println!(
            "trace_diff: traces identical ({} tracks, {} events, last cycle {})",
            a.tracks.len(),
            a.events.len(),
            a.last_cycle()
        );
        return Ok(true);
    }

    match div {
        Some(i) => {
            let cycle = a.events[i].ts.min(b.events[i].ts);
            println!("trace_diff: first divergence at event {i}, cycle {cycle}:");
            println!("  {}: {}", args.a, describe(&a, i));
            println!("  {}: {}", args.b, describe(&b, i));
        }
        None => {
            // One timeline is a strict prefix of the other: the first
            // divergence is the first event only one of them has.
            let i = a.events.len().min(b.events.len());
            let (longer, path) = if a.events.len() > b.events.len() {
                (&a, &args.a)
            } else {
                (&b, &args.b)
            };
            println!(
                "trace_diff: first divergence at event {i}, cycle {}: only {path} continues:",
                longer.events[i].ts
            );
            println!("  {path}: {}", describe(longer, i));
        }
    }
    println!(
        "trace_diff: {} has {} events to cycle {}; {} has {} events to cycle {}",
        args.a,
        a.events.len(),
        a.last_cycle(),
        args.b,
        b.events.len(),
        b.last_cycle()
    );

    // Per-track stall attribution: where the two runs wait differently.
    let (sa, sb) = (stalls_by_name(&a), stalls_by_name(&b));
    let names: std::collections::BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
    let mut deltas: Vec<(&String, u64, u64)> = names
        .into_iter()
        .map(|n| {
            (
                n,
                sa.get(n).copied().unwrap_or(0),
                sb.get(n).copied().unwrap_or(0),
            )
        })
        .filter(|(_, va, vb)| va != vb)
        .collect();
    deltas.sort_by_key(|(n, va, vb)| (std::cmp::Reverse(va.abs_diff(*vb)), (*n).clone()));
    if deltas.is_empty() {
        println!("trace_diff: no per-track stall deltas");
    } else {
        println!(
            "trace_diff: {} track(s) differ in stall cycles:",
            deltas.len()
        );
        for (n, va, vb) in deltas.iter().take(args.limit) {
            let sign = if vb >= va { "+" } else { "-" };
            println!("  {n}: {sign}{} cycles ({va} vs {vb})", va.abs_diff(*vb));
        }
        if deltas.len() > args.limit {
            println!("  ... {} more (raise --limit)", deltas.len() - args.limit);
        }
    }
    Ok(false)
}

fn main() {
    let a = SPEC.parse_env();
    let args = a.or_exit(config(&a));
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("trace_diff: {e}");
            std::process::exit(2);
        }
    }
}
