//! The batched-lane bar: `run_lanes_full` executes N workloads on one
//! machine with a `reset()` between lanes, and every lane must be
//! **bit-identical** to a standalone single-lane run of the same
//! workload — including lanes that follow a lane that busted its cycle
//! budget mid-flight. Any state leaking across a reset shows up here.

use marionette::cdfg::builder::CdfgBuilder;
use marionette::cdfg::value::Value;
use marionette::compiler::compile;
use marionette::kernels::traits::Scale;
use marionette::runner::{run_kernel, run_kernel_lanes, RunnerError};
use marionette::sim::{
    run_full, run_lanes_full, EngineKind, FaultSet, LaneSpec, RunResult, SimError,
};

const MAX_CYCLES: u64 = 500_000_000;

/// The production engine (`engine_equivalence.rs` pins the heap to it).
const ENGINE: EngineKind = EngineKind::Wheel;

fn assert_runs_identical(tag: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.stats, b.stats, "{tag}: stats diverge");
    assert_eq!(a.oob_events, b.oob_events, "{tag}: oob diverges");
    assert_eq!(a.memory.len(), b.memory.len(), "{tag}: array count");
    for (ai, (x, y)) in a.memory.iter().zip(&b.memory).enumerate() {
        assert_eq!(x.len(), y.len(), "{tag}: array #{ai} length");
        for (i, (xv, yv)) in x.iter().zip(y).enumerate() {
            assert!(xv.bit_eq(*yv), "{tag}: array #{ai}[{i}]: {xv} vs {yv}");
        }
    }
    assert_eq!(a.sinks.len(), b.sinks.len(), "{tag}: sink count");
    for (label, x) in &a.sinks {
        let y = &b.sinks[label];
        assert_eq!(x.len(), y.len(), "{tag}: sink {label} length");
        for (i, (xv, yv)) in x.iter().zip(y).enumerate() {
            assert!(xv.bit_eq(*yv), "{tag}: sink {label}[{i}]: {xv} vs {yv}");
        }
    }
}

/// Kernel-level batching: N distinct seeds through `run_kernel_lanes`
/// must reproduce N standalone `run_kernel` calls exactly, for every
/// batch width the bench exposes.
fn assert_kernel_lanes_match_serial(tag: &str, widths: &[usize]) {
    let k = marionette::kernels::by_short(tag).expect("kernel tag");
    let arch = marionette::arch::marionette_full();
    for &n in widths {
        let seeds: Vec<u64> = (40..40 + n as u64).collect();
        let batched = run_kernel_lanes(k.as_ref(), &arch, Scale::Tiny, &seeds, MAX_CYCLES, ENGINE)
            .unwrap_or_else(|e| panic!("{tag} x{n}: batch: {e}"));
        assert_eq!(batched.len(), n);
        for (li, (lane, &seed)) in batched.into_iter().zip(&seeds).enumerate() {
            let lane = lane.unwrap_or_else(|e| panic!("{tag} lane {li}: {e}"));
            let solo = run_kernel(k.as_ref(), &arch, Scale::Tiny, seed, MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{tag} seed {seed}: {e}"));
            assert_eq!(lane.cycles, solo.cycles, "{tag} lane {li}: cycles");
            assert_eq!(lane.stats, solo.stats, "{tag} lane {li}: stats");
            assert!(lane.verified && solo.verified);
        }
    }
}

#[test]
fn mergesort_lanes_match_serial_runs() {
    assert_kernel_lanes_match_serial("MS", &[1, 2, 8]);
}

#[test]
fn crc_lanes_match_serial_runs() {
    assert_kernel_lanes_match_serial("CRC", &[1, 2, 8]);
}

/// Conv-1d unrolls its filter taps into immediates, so two seeds
/// compile to two different programs — batching them must be refused
/// with the typed error, not silently run lane 0's weights.
#[test]
fn immediates_baking_kernel_refuses_cross_seed_batching() {
    let k = marionette::kernels::by_short("CO").expect("kernel tag");
    let arch = marionette::arch::marionette_full();
    let err = run_kernel_lanes(k.as_ref(), &arch, Scale::Tiny, &[1, 2], MAX_CYCLES, ENGINE)
        .expect_err("distinct Conv-1d seeds must not share a bitstream");
    match err {
        RunnerError::NotBatchable { lane, .. } => assert_eq!(lane, 1),
        other => panic!("expected NotBatchable, got {other}"),
    }
    // Identical seeds share one program trivially and must still work.
    let ok = run_kernel_lanes(k.as_ref(), &arch, Scale::Tiny, &[1, 1], MAX_CYCLES, ENGINE).unwrap();
    assert_eq!(ok.len(), 2);
    for lane in ok {
        assert!(lane.unwrap().verified);
    }
}

/// A parameterized sum: `sum = Σ_{i<n} a[i]` with `n` a runtime
/// parameter, so lanes can drive the loop's trip count — including to
/// zero — without recompiling.
fn param_sum_prog() -> (
    marionette::isa::config::MachineProgram,
    marionette::arch::Architecture,
    Vec<(String, Vec<Value>)>,
) {
    let mut b = CdfgBuilder::new("lane_param_sum");
    let data: Vec<i32> = (0..16).map(|i| 3 * i - 7).collect();
    let a = b.array_i32("a", data.len(), &data);
    let n = b.param("n", 4);
    let zero = b.imm(0);
    let out = b.for_range(0, n, &[zero], |b, i, v| {
        let x = b.load(a, i);
        vec![b.add(v[0], x)]
    });
    b.sink("sum", out[0]);
    let g = b.finish();
    let arch = marionette::arch::marionette_full();
    let (prog, _) = compile(&g, &arch.opts).expect("param sum compiles");
    let inputs = vec![(
        "a".to_string(),
        data.iter().map(|&v| Value::I32(v)).collect(),
    )];
    (prog, arch, inputs)
}

fn lane(inputs: &[(String, Vec<Value>)], n: i32) -> LaneSpec {
    LaneSpec {
        inputs: inputs.to_vec(),
        params: vec![("n".to_string(), Value::I32(n))],
    }
}

/// Per-lane parameter overrides, including a zero-trip loop, must match
/// standalone runs bit for bit on both engines.
#[test]
fn param_lanes_including_zero_trip_match_serial() {
    let (prog, arch, inputs) = param_sum_prog();
    let trips = [4i32, 0, 16, 1, 0, 9];
    let lanes: Vec<LaneSpec> = trips.iter().map(|&n| lane(&inputs, n)).collect();
    for engine in [EngineKind::Wheel, EngineKind::Heap] {
        let batched = run_lanes_full(
            &prog,
            &arch.tm,
            &FaultSet::none(),
            engine,
            &lanes,
            MAX_CYCLES,
        )
        .expect("machine constructs");
        for (li, (r, spec)) in batched.iter().zip(&lanes).enumerate() {
            let r = r.as_ref().unwrap_or_else(|e| panic!("lane {li}: {e}"));
            let solo = run_full(
                &prog,
                &arch.tm,
                &FaultSet::none(),
                engine,
                &spec.inputs,
                &spec.params,
                MAX_CYCLES,
            )
            .unwrap_or_else(|e| panic!("solo n={}: {e}", trips[li]));
            assert_runs_identical(&format!("{engine} lane {li} (n={})", trips[li]), r, &solo);
            // The zero-trip lanes really must sum nothing.
            if trips[li] == 0 {
                assert!(
                    r.sinks["sum"].iter().all(|v| v.bit_eq(Value::I32(0))),
                    "zero-trip lane {li} produced a nonzero sum"
                );
            }
        }
    }
}

/// A lane that busts its cycle budget mid-flight leaves arbitrary
/// in-flight state behind; the reset before the next lane must scrub
/// all of it. The wedged lane reports its typed error, neighbours stay
/// bit-identical to standalone runs.
#[test]
fn wedged_lane_does_not_poison_its_neighbours() {
    let (prog, arch, inputs) = param_sum_prog();
    // Find a budget that lets n=4 finish but wedges n=16 mid-run.
    let short = run_full(
        &prog,
        &arch.tm,
        &FaultSet::none(),
        EngineKind::Wheel,
        &inputs,
        &[("n".to_string(), Value::I32(4))],
        MAX_CYCLES,
    )
    .expect("n=4 runs")
    .stats
    .cycles;
    let budget = short + 2; // enough for n=4, nowhere near n=16
    let lanes = [lane(&inputs, 4), lane(&inputs, 16), lane(&inputs, 4)];
    for engine in [EngineKind::Wheel, EngineKind::Heap] {
        let batched = run_lanes_full(&prog, &arch.tm, &FaultSet::none(), engine, &lanes, budget)
            .expect("machine constructs");
        assert_eq!(batched.len(), 3);
        assert_eq!(
            batched[1].as_ref().err(),
            Some(&SimError::CycleLimit { limit: budget }),
            "{engine}: the oversize lane must bust its budget"
        );
        let solo = run_full(
            &prog,
            &arch.tm,
            &FaultSet::none(),
            engine,
            &inputs,
            &[("n".to_string(), Value::I32(4))],
            budget,
        )
        .expect("n=4 fits the budget");
        for li in [0usize, 2] {
            let r = batched[li]
                .as_ref()
                .unwrap_or_else(|e| panic!("{engine} lane {li}: {e}"));
            assert_runs_identical(&format!("{engine} lane {li} after wedge"), r, &solo);
        }
    }
}

/// Fault screening happens at machine construction, before any lane
/// runs: a dead resource under the mapping is one outer error, not N
/// per-lane copies.
#[test]
fn dead_resource_is_an_outer_error_for_the_whole_batch() {
    let (prog, arch, inputs) = param_sum_prog();
    let mut faults = FaultSet::new(arch.opts.rows, arch.opts.cols);
    faults.add("pe:0,0".parse().unwrap()).unwrap();
    let lanes = [lane(&inputs, 4), lane(&inputs, 2)];
    let err = run_lanes_full(
        &prog,
        &arch.tm,
        &faults,
        EngineKind::Wheel,
        &lanes,
        MAX_CYCLES,
    )
    .expect_err("anchored program must wedge on the dead anchor tile");
    match err {
        SimError::Fault { what, .. } => assert_eq!(what, "pe:0,0"),
        other => panic!("expected a typed fault, got {other}"),
    }
}
