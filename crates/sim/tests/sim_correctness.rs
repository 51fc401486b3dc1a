//! Cycle-level simulator correctness: compiled kernels must produce
//! golden-identical outputs under representative timing models, and runs
//! must be deterministic.

use marionette_compiler::{compile, CompileOptions, CtrlPlacement};
use marionette_kernels::traits::{Kernel, Scale};
use marionette_kernels::verify::check_vs_golden;
use marionette_sim::{run, CtrlTransport, TimingModel};

const MAX_CYCLES: u64 = 200_000_000;

fn marionette_tm() -> TimingModel {
    TimingModel::ideal("marionette")
}

fn von_neumann_tm() -> TimingModel {
    let mut t = TimingModel::ideal("von-neumann");
    t.predicated_branches = true;
    t.ctrl_transport = CtrlTransport::Mesh;
    t.exclusive_groups = true;
    t.group_switch_cost = 12;
    t.dyn_bound_extra = 10;
    t.ctrl_parallel = false;
    t
}

fn dataflow_tm() -> TimingModel {
    let mut t = TimingModel::ideal("dataflow");
    t.per_fire_overhead = 1;
    t.ctrl_transport = CtrlTransport::Mesh;
    t.ctrl_parallel = false;
    t
}

fn opts_for(tm: &TimingModel) -> CompileOptions {
    let mut o = CompileOptions::marionette_4x4();
    if !tm.ctrl_parallel {
        o.ctrl = CtrlPlacement::PeSlots;
    }
    if tm.exclusive_groups {
        o.agile = false;
    }
    o
}

fn check_kernel(k: &dyn Kernel, tm: &TimingModel, seed: u64) -> u64 {
    let wl = k.workload(Scale::Small, seed);
    let golden = k.golden(&wl).expect("golden builds");
    let g = k.build(&wl).expect("kernel builds");
    let opts = opts_for(tm);
    let (prog, _report) = compile(&g, &opts).expect("compiles");
    let inputs = g.array_inputs();
    let r = run(&prog, tm, &inputs, &[], MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", k.name(), tm.name));
    assert_eq!(r.oob_events, 0, "{}: oob accesses", k.name());
    let mismatches = check_vs_golden(
        &g,
        &golden,
        |arr| r.memory[arr.0 as usize].clone(),
        |name| r.sinks.get(name).cloned().unwrap_or_default(),
    )
    .expect("golden arrays declared");
    assert!(
        mismatches.is_empty(),
        "{} under {}: {} mismatches, first: {}",
        k.name(),
        tm.name,
        mismatches.len(),
        mismatches[0]
    );
    r.stats.cycles
}

#[test]
fn gray_all_models() {
    let k = marionette_kernels::gray::GrayProcessing;
    check_kernel(&k, &marionette_tm(), 1);
    check_kernel(&k, &von_neumann_tm(), 1);
    check_kernel(&k, &dataflow_tm(), 1);
}

#[test]
fn gemm_all_models() {
    let k = marionette_kernels::gemm::Gemm;
    check_kernel(&k, &marionette_tm(), 2);
    check_kernel(&k, &von_neumann_tm(), 2);
    check_kernel(&k, &dataflow_tm(), 2);
}

#[test]
fn crc_all_models() {
    let k = marionette_kernels::crc::Crc;
    check_kernel(&k, &marionette_tm(), 3);
    check_kernel(&k, &von_neumann_tm(), 3);
    check_kernel(&k, &dataflow_tm(), 3);
}

#[test]
fn mergesort_all_models() {
    let k = marionette_kernels::mergesort::MergeSort;
    check_kernel(&k, &marionette_tm(), 4);
    check_kernel(&k, &von_neumann_tm(), 4);
    check_kernel(&k, &dataflow_tm(), 4);
}

#[test]
fn adpcm_all_models() {
    let k = marionette_kernels::adpcm::AdpcmEncode;
    check_kernel(&k, &marionette_tm(), 5);
    check_kernel(&k, &von_neumann_tm(), 5);
    check_kernel(&k, &dataflow_tm(), 5);
}

#[test]
fn runs_are_deterministic() {
    let k = marionette_kernels::crc::Crc;
    let a = check_kernel(&k, &marionette_tm(), 7);
    let b = check_kernel(&k, &marionette_tm(), 7);
    assert_eq!(a, b, "same seed, same cycles");
}

#[test]
fn dataflow_overhead_slows_execution() {
    let k = marionette_kernels::gray::GrayProcessing;
    let m = check_kernel(&k, &marionette_tm(), 9);
    let d = check_kernel(&k, &dataflow_tm(), 9);
    assert!(
        d > m,
        "per-fire configure overhead must cost cycles: {d} vs {m}"
    );
}

#[test]
fn stats_are_sane() {
    let k = marionette_kernels::gemm::Gemm;
    let wl = k.workload(Scale::Tiny, 0);
    let g = k.build(&wl).expect("kernel builds");
    let (prog, _) = compile(&g, &CompileOptions::marionette_4x4()).unwrap();
    let tm = marionette_tm();
    let r = run(&prog, &tm, &[], &[], MAX_CYCLES).unwrap();
    assert!(r.stats.cycles > 0);
    assert!(r.stats.fires > 0);
    let util = r.stats.mean_pe_utilization();
    assert!(util > 0.0 && util <= 1.0, "utilization {util}");
    assert!(r.stats.ctrl_tokens + r.stats.data_tokens > 0);
}
