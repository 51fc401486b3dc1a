//! Cross-model agreement on randomly generated structured programs: the
//! sequential reference interpreter (both steering modes) and the
//! cycle-level simulator (several timing models) must compute identical
//! results — the strongest end-to-end check of the shared operator
//! semantics.

use marionette::cdfg::builder::CdfgBuilder;
use marionette::cdfg::interp::{interpret, ExecMode};
use marionette::cdfg::value::Value;
use marionette::cdfg::Cdfg;
use marionette::compiler::{compile, CompileOptions, CtrlPlacement};
use marionette::sim::{run, TimingModel};
use proptest::prelude::*;

/// A tiny deterministic program generator: nested counted loops with
/// branches, accumulators and array traffic, driven by a shape vector.
fn gen_program(shape: &[u8]) -> Cdfg {
    let mut b = CdfgBuilder::new("rand");
    let n = 4 + (shape.first().copied().unwrap_or(0) % 5) as i32; // 4..8
    let arr_init: Vec<i32> = (0..16).map(|i| (i * 7 + 3) % 23 - 11).collect();
    let a = b.array_i32("a", 16, &arr_init);
    let out = b.array_i32("out", 16, &[]);
    b.mark_output(out);
    let s0 = shape.get(1).copied().unwrap_or(0);
    let s1 = shape.get(2).copied().unwrap_or(0);
    let s2 = shape.get(3).copied().unwrap_or(0);
    let zero = b.imm(0);
    let outer = b.for_range(0, n, &[zero], |b, i, v| {
        let x = b.load(a, i);
        // optional inner loop
        let acc = if s0 % 2 == 0 {
            let inner = b.for_range(0, (s1 % 3) as i32 + 1, &[v[0]], |b, j, w| {
                let t = b.mul(x, j);
                vec![b.add(w[0], t)]
            });
            inner[0]
        } else {
            b.add(v[0], x)
        };
        // optional branch
        let res = if s1 % 2 == 0 {
            let c = b.gt(x, (s2 as i32 % 7 - 3).into());
            let r = b.if_else(
                c,
                |b| vec![b.add(acc, 1.into())],
                |b| vec![b.sub(acc, 2.into())],
            );
            r[0]
        } else {
            acc
        };
        b.store(out, i, res);
        vec![res]
    });
    b.sink("total", outer[0]);
    b.finish()
}

fn run_sim(g: &Cdfg, tm: &TimingModel, opts: &CompileOptions) -> (Vec<Value>, Value) {
    let (prog, _) = compile(g, opts).expect("compiles");
    let inputs = g.array_inputs();
    let r = run(&prog, tm, &inputs, &[], 50_000_000).expect("simulates");
    let out_idx = prog.arrays.iter().position(|a| a.name == "out").unwrap();
    (r.memory[out_idx].clone(), r.sinks.get("total").unwrap()[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn interpreter_and_simulator_agree(shape in proptest::collection::vec(any::<u8>(), 4)) {
        let g = gen_program(&shape);
        let di = interpret(&g, ExecMode::Dropping, &[]).expect("dropping");
        let pi = interpret(&g, ExecMode::Predicated, &[]).expect("predicated");
        let out_id = g.array_by_name("out").unwrap();
        prop_assert_eq!(di.memory.array(out_id), pi.memory.array(out_id));
        prop_assert_eq!(di.scalar("total").unwrap(), pi.scalar("total").unwrap());

        // Marionette timing model (dropping semantics).
        let tm = TimingModel::ideal("m");
        let (mem_m, total_m) = run_sim(&g, &tm, &CompileOptions::marionette_4x4());
        prop_assert_eq!(&mem_m[..], di.memory.array(out_id));
        prop_assert!(total_m.bit_eq(di.scalar("total").unwrap()));

        // Predicated, exclusive von-Neumann-style model.
        let mut tv = TimingModel::ideal("vn");
        tv.predicated_branches = true;
        tv.exclusive_groups = true;
        tv.group_switch_cost = 8;
        tv.ctrl_parallel = false;
        let mut opts = CompileOptions::marionette_4x4();
        opts.ctrl = CtrlPlacement::PeSlots;
        opts.agile = false;
        let (mem_v, total_v) = run_sim(&g, &tv, &opts);
        prop_assert_eq!(&mem_v[..], di.memory.array(out_id));
        prop_assert!(total_v.bit_eq(di.scalar("total").unwrap()));
    }
}

#[test]
fn zero_trip_and_single_trip_edges() {
    // Loop bounds of 0 and 1 exercise the guard/bypass machinery.
    for n in [0i32, 1, 2] {
        let mut b = CdfgBuilder::new("edge");
        let zero = b.imm(0);
        let o = b.for_range(0, n, &[zero], |b, i, v| vec![b.add(v[0], i)]);
        b.sink("s", o[0]);
        let g = b.finish();
        let di = interpret(&g, ExecMode::Dropping, &[]).unwrap();
        let tm = TimingModel::ideal("m");
        let (prog, _) = compile(&g, &CompileOptions::marionette_4x4()).unwrap();
        let r = run(&prog, &tm, &[], &[], 1_000_000).unwrap();
        assert_eq!(
            r.sinks.get("s").unwrap()[0],
            di.scalar("s").unwrap(),
            "n={n}"
        );
    }
}
