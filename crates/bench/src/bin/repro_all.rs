//! Regenerates the paper's figures (11-17) and tables (1-6). With no
//! selection every experiment runs in one process, computing shared
//! sweeps only once: the feature ladder behind Figs 12/14/16 is
//! simulated one time and sliced per figure. `--fig N` prints one
//! figure, `--tables` the tables; `--paper` selects the full Table 5
//! data sizes.

use marionette::cli::{opt, switch, usage_exit, Spec};
use marionette::experiments;
use marionette::kernels::traits::Scale;
use marionette::runner::RunnerError;
use marionette_bench::report;
use std::time::Instant;

static SPEC: Spec = Spec {
    name: "repro_all",
    about: "regenerate the paper's evaluation figures and tables",
    positional: "",
    flags: &[
        switch("--paper", "use the paper's Table 5 data sizes"),
        opt("--fig", "N", "print only figure N (11-17)"),
        switch("--tables", "print only Tables 1-6"),
    ],
    notes: "",
};

/// Prints one figure.
fn print_fig(n: u32, scale: Scale) -> Result<(), RunnerError> {
    match n {
        11 => report::print_fig11(&experiments::fig11(scale, 1)?),
        12 => report::print_fig12(&experiments::ladder(scale, 1)?.fig12()),
        13 => report::print_fig13(),
        14 => report::print_fig14(&experiments::ladder(scale, 1)?.fig14()),
        15 => report::print_fig15(&experiments::fig15(scale, 1)?),
        16 => report::print_fig16(&experiments::ladder(scale, 1)?.fig16()),
        17 => report::print_fig17(&experiments::fig17(scale, 1)?),
        _ => unreachable!("figure number validated by main"),
    }
    Ok(())
}

fn print_all(scale: Scale) -> Result<(), RunnerError> {
    let t0 = Instant::now();
    report::print_tables();
    println!();
    print_fig(11, scale)?;
    println!();
    // One sweep feeds Figs 12, 14 and 16.
    let ladder = experiments::ladder(scale, 1)?;
    report::print_fig12(&ladder.fig12());
    println!();
    print_fig(13, scale)?;
    println!();
    report::print_fig14(&ladder.fig14());
    println!();
    print_fig(15, scale)?;
    println!();
    report::print_fig16(&ladder.fig16());
    println!();
    print_fig(17, scale)?;
    println!();
    println!(
        "repro_all: done in {:.2}s ({} threads; set MARIONETTE_THREADS=1 for serial)",
        t0.elapsed().as_secs_f64(),
        marionette::parallel::sweep_threads()
    );
    Ok(())
}

fn main() {
    let a = SPEC.parse_env();
    let scale = a.or_exit(a.scale());
    let fig = a.str("--fig").map(|_| a.or_exit(a.num("--fig", 0u32)));
    if let Some(n) = fig {
        if !(11..=17).contains(&n) {
            usage_exit(SPEC.name, format!("--fig: no figure {n} (figures 11-17)"));
        }
        if a.has("--tables") {
            usage_exit(SPEC.name, "--fig and --tables select different outputs");
        }
    }
    let result = match fig {
        Some(n) => print_fig(n, scale),
        None if a.has("--tables") => {
            report::print_tables();
            Ok(())
        }
        None => print_all(scale),
    };
    if let Err(e) = result {
        eprintln!("repro_all: {e}");
        std::process::exit(1);
    }
}
