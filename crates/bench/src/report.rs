//! Shared figure/table printers.
//!
//! `repro_all` prints through these functions, whether it runs one
//! figure or all of them, so it can compute shared experiment results
//! once (see `marionette::experiments::ladder`) without duplicating any
//! formatting.

use crate::{banner, header, row};
use marionette::experiments::{geomean, CycleMatrix, Fig11, Fig12, Fig14, Fig15, Fig16, Fig17};
use marionette::hw::breakdown::{area_power_breakdown, FabricParams};
use marionette::hw::netcmp::network_comparison;
use marionette::hw::netdelay::paper_sweep;
use marionette::kernels::traits::Scale;

/// Prints Tables 1-6.
pub fn print_tables() {
    println!("=== Table 1: control flow forms across the benchmarks ===");
    println!(
        "{:<18} {:<22} {:<28} {:<28}",
        "workload", "domain", "branches", "loops"
    );
    for k in marionette::kernels::all() {
        let wl = k.workload(Scale::Tiny, 0);
        let g = k
            .build(&wl)
            .expect("suite kernels build from their own workloads");
        let p = marionette::cdfg::analysis::profile(&g);
        println!(
            "{:<18} {:<22} {:<28} {:<28}",
            k.name(),
            k.domain(),
            p.branch_text(),
            p.loop_text()
        );
    }

    println!("\n=== Table 2: SA taxonomy by PE execution model ===");
    for r in marionette::arch::taxonomy::sa_taxonomy() {
        println!("{:<12} {:<12} {}", r.architecture, r.class, r.mechanism);
    }

    println!("\n=== Table 3: control-flow capability matrix ===");
    println!(
        "{:<12} {:>11} {:>13} {:>22}",
        "architecture", "autonomous", "peer-to-peer", "temporally decoupled"
    );
    for (name, c) in marionette::arch::taxonomy::capability_matrix() {
        let t = |b: bool| if b { "yes" } else { "no" };
        println!(
            "{name:<12} {:>11} {:>13} {:>22}",
            t(c.autonomous),
            t(c.peer_to_peer),
            t(c.temporally_decoupled)
        );
    }

    println!("\n=== Table 4: area & power breakdown (28nm, 500MHz, 4x4) ===");
    println!(
        "{:<10} {:<42} {:>10} {:>10}",
        "category", "component", "area mm2", "power mW"
    );
    for r in area_power_breakdown(FabricParams::paper()) {
        println!(
            "{:<10} {:<42} {:>10.4} {:>10.2}",
            r.category, r.component, r.area_mm2, r.power_mw
        );
    }
    println!("(paper totals: 0.151 mm2, 152.09 mW)");

    println!("\n=== Table 5: benchmark data sizes (Paper scale) ===");
    for k in marionette::kernels::all() {
        let wl = k.workload(Scale::Paper, 0);
        let sizes: Vec<String> = wl.sizes.iter().map(|(n, v)| format!("{n}={v}")).collect();
        println!("{:<18} {}", k.name(), sizes.join(", "));
    }

    println!("\n=== Table 6: network area vs state of the art (normalized) ===");
    println!(
        "{:<12} {:>9} {:>12} {:>9} {:>12} {:>9}",
        "arch", "PE mm2", "network mm2", "fabric", "net ratio", "source"
    );
    for r in network_comparison() {
        println!(
            "{:<12} {:>9.4} {:>12.4} {:>9.4} {:>11.1}% {:>9}",
            r.architecture,
            r.pe_area_mm2,
            r.network_area_mm2,
            r.fabric_area(),
            100.0 * r.network_ratio(),
            if r.computed { "computed" } else { "paper" }
        );
    }
    println!("(paper: Marionette network ratio 11.5%)");
}

/// Prints a cycle matrix: a kernel header, then one row per series.
fn print_cycles(m: &CycleMatrix) {
    println!("{}", header("kernel", &m.kernels));
    for (a, cyc) in &m.series {
        let cyc: Vec<f64> = cyc.iter().map(|&c| c as f64).collect();
        println!("{}", row(&format!("cycles {a}"), &cyc));
    }
}

/// Prints the Fig 11 comparison (PE execution models).
pub fn print_fig11(f: &Fig11) {
    banner("Fig 11 — PE execution model comparison", "MICRO'23 Fig 11");
    print_cycles(&f.cycles);
    println!("{}", row("speedup M-PE / vN", &f.speedup_vs_vn));
    println!("{}", row("speedup M-PE / DF", &f.speedup_vs_df));
    println!(
        "{}",
        row(
            "ops under branch (%)",
            &f.ops_under_branch
                .iter()
                .map(|x| x * 100.0)
                .collect::<Vec<_>>()
        )
    );
    println!("----------------------------------------------------------------");
    println!(
        "geomean speedup vs von Neumann PE: {:.2}x   (paper: 1.18x)",
        geomean(&f.speedup_vs_vn)
    );
    println!(
        "geomean speedup vs dataflow PE:    {:.2}x   (paper: 1.33x)",
        geomean(&f.speedup_vs_df)
    );
}

/// Prints the Fig 12 ablation (control network).
pub fn print_fig12(f: &Fig12) {
    banner("Fig 12 — control network speedup", "MICRO'23 Fig 12");
    print_cycles(&f.cycles);
    println!("{}", row("speedup from ctrl net", &f.speedup));
    println!("----------------------------------------------------------------");
    println!(
        "geomean speedup: {:.2}x   (paper: 1.14x, up to 1.36x on CRC)",
        geomean(&f.speedup)
    );
}

/// Prints the Fig 13 network-delay study.
pub fn print_fig13() {
    println!("================================================================");
    println!("Fig 13 — control network scalability (analytical 28nm model)");
    println!("================================================================");
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>8}",
        "stages", "freq MHz", "path ns", "period ns", "cycles"
    );
    for p in paper_sweep() {
        println!(
            "{:>7} {:>10} {:>10.3} {:>10.3} {:>8}",
            p.stages, p.freq_mhz, p.path_delay_ns, p.period_ns, p.cycles
        );
    }
    println!("----------------------------------------------------------------");
    println!("The paper's operating point (64 lines / 11 stages @ 500 MHz) is 1 cycle;");
    println!("latency grows slowly with frequency and fabric size.");
}

/// Prints the Fig 14 ablation (Agile PE Assignment).
pub fn print_fig14(f: &Fig14) {
    banner("Fig 14 — Agile PE Assignment speedup", "MICRO'23 Fig 14");
    print_cycles(&f.cycles);
    println!("{}", row("speedup from Agile", &f.speedup));
    println!("----------------------------------------------------------------");
    println!(
        "geomean speedup: {:.2}x   (paper: 2.03x, up to 5.99x)",
        geomean(&f.speedup)
    );
}

/// Prints the Fig 15 utilization study.
pub fn print_fig15(f: &Fig15) {
    banner(
        "Fig 15 — utilization effects of Agile PE Assignment",
        "MICRO'23 Fig 15",
    );
    println!(
        "{:<8} {:>12} {:>12} {:>8} | {:>11} {:>11} {:>7}",
        "kernel", "outer before", "outer after", "gain", "pipe before", "pipe after", "gain"
    );
    let mut outer_gains = Vec::new();
    let mut pipe_gains = Vec::new();
    for i in 0..f.kernels.len() {
        let og = f.outer_util_after[i] / f.outer_util_before[i].max(1e-9);
        let pg = f.pipe_util_after[i] / f.pipe_util_before[i].max(1e-9);
        outer_gains.push(og);
        pipe_gains.push(pg);
        println!(
            "{:<8} {:>11.1}% {:>11.1}% {:>7.1}x | {:>10.1}% {:>10.1}% {:>6.2}x",
            f.kernels[i],
            100.0 * f.outer_util_before[i],
            100.0 * f.outer_util_after[i],
            og,
            100.0 * f.pipe_util_before[i],
            100.0 * f.pipe_util_after[i],
            pg
        );
    }
    println!("----------------------------------------------------------------");
    println!(
        "mean outer-BB utilization gain: {:.1}x (paper: 21.57x avg, 134x on GEMM)",
        outer_gains.iter().sum::<f64>() / outer_gains.len() as f64
    );
    println!(
        "mean pipeline utilization gain: {:.2}x (paper: 1.54x avg)",
        pipe_gains.iter().sum::<f64>() / pipe_gains.len() as f64
    );
}

/// Prints the Fig 16 feature-balance comparison.
pub fn print_fig16(f: &Fig16) {
    banner(
        "Fig 16 — control network vs Agile PE Assignment",
        "MICRO'23 Fig 16",
    );
    println!(
        "{:<8} {:>14} {:>14} {:>22}",
        "kernel", "ctrl-net gain", "agile gain", "dominant feature"
    );
    for i in 0..f.kernels.len() {
        let cn = f.cn_speedup[i];
        let ag = f.agile_speedup[i];
        let who = if (cn - 1.0) > 1.25 * (ag - 1.0) {
            "network"
        } else if (ag - 1.0) > 1.25 * (cn - 1.0) {
            "pipeline (agile)"
        } else {
            "balanced"
        };
        println!(
            "{:<8} {:>13.2}x {:>13.2}x {:>22}",
            f.kernels[i], cn, ag, who
        );
    }
    println!("----------------------------------------------------------------");
    println!("Paper: MS/ADPCM/CRC/LDPC lean on the network; VI/HT/SCD/GEMM on Agile.");
}

/// Prints the Fig 17 state-of-the-art face-off.
pub fn print_fig17(f: &Fig17) {
    banner("Fig 17 — state-of-the-art comparison", "MICRO'23 Fig 17");
    println!("intensive control flow:");
    print_cycles(&f.intensive);
    for a in ["SB", "TIA", "RV", "RT"] {
        println!(
            "{}",
            row(&format!("speedup M / {a}"), &f.intensive.speedups("M", a))
        );
    }
    println!("\nnon-intensive control flow (must not regress):");
    print_cycles(&f.non_intensive);
    println!("----------------------------------------------------------------");
    let paper = [("SB", 2.88), ("TIA", 3.38), ("RV", 1.55), ("RT", 2.66)];
    for (a, gm) in &f.geomeans {
        let p = paper.iter().find(|(t, _)| t == a).unwrap().1;
        println!("geomean speedup vs {a:<4}: {gm:.2}x   (paper: {p:.2}x)");
    }
    println!("\nfull LDPC application (pre + decode + post):");
    let paper_app = [("SB", 3.01), ("TIA", 3.13), ("RV", 2.36), ("RT", 2.68)];
    for (a, sp) in &f.ldpc_app_speedups {
        let p = paper_app.iter().find(|(t, _)| t == a).unwrap().1;
        println!("speedup vs {a:<4}: {sp:.2}x   (paper: {p:.2}x)");
    }
}
