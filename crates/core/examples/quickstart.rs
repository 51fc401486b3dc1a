//! Quickstart: build a small program with the CDFG DSL, compile it for
//! the Marionette fabric, inspect the configuration, and run it on the
//! cycle-level simulator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use marionette::cdfg::builder::CdfgBuilder;
use marionette::compiler::compile;
use marionette::isa::disasm;
use marionette::sim::{run, TimingModel};

fn main() {
    // 1. A dot product with a data-dependent clamp — enough control flow
    //    to see the control plane do something.
    let a_data: Vec<i32> = (0..64).map(|i| (i * 13 + 5) % 41 - 20).collect();
    let b_data: Vec<i32> = (0..64).map(|i| (i * 7 + 2) % 31 - 15).collect();
    let mut b = CdfgBuilder::new("clamped-dot");
    let aa = b.array_i32("a", 64, &a_data);
    let bb = b.array_i32("b", 64, &b_data);
    let zero = b.imm(0);
    let outs = b.for_range(0, 64, &[zero], |b, i, vars| {
        let x = b.load(aa, i);
        let y = b.load(bb, i);
        let p = b.mul(x, y);
        // Branch divergence: saturate large contributions.
        let big = b.gt(p, 200.into());
        let r = b.if_else(big, |b| vec![b.imm(200)], |_| vec![p]);
        vec![b.add(vars[0], r[0])]
    });
    b.sink("dot", outs[0]);
    let g = b.finish();
    println!(
        "built CDFG: {} nodes, {} blocks, {} loops",
        g.nodes.len(),
        g.blocks.len(),
        g.loops.len()
    );

    // 2. Compile for the paper's 4x4 Marionette fabric.
    let arch = marionette::arch::marionette_full();
    let (prog, report) = compile(&g, &arch.opts).expect("fits on the fabric");
    println!(
        "compiled: {} data ops, {} control ops, {} routes ({} control-class)",
        report.data_ops, report.ctrl_ops, report.routes, report.ctrl_routes
    );
    println!("\n--- configuration listing (first 24 lines) ---");
    for line in disasm::disassemble(&prog).lines().take(24) {
        println!("{line}");
    }

    // 3. Serialize/deserialize through the configuration bitstream.
    let bytes = marionette::isa::bitstream::encode(&prog);
    println!("\nbitstream: {} bytes", bytes.len());
    let prog = marionette::isa::bitstream::decode(&bytes).unwrap();

    // 4. Simulate.
    let inputs = g.array_inputs();
    let tm = TimingModel::ideal("marionette");
    let r = run(&prog, &tm, &inputs, &[], 10_000_000).expect("runs");
    let expected: i64 = a_data
        .iter()
        .zip(&b_data)
        .map(|(&x, &y)| i64::from((x * y).min(200)))
        .sum();
    println!(
        "\nresult: dot = {} (expected {expected}), {} cycles, mean PE utilization {:.1}%",
        r.sinks.get("dot").unwrap()[0],
        r.stats.cycles,
        100.0 * r.stats.mean_pe_utilization()
    );
}
