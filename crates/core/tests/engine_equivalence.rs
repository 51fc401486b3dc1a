//! The engine differential bar: the calendar-wheel event core must be
//! observationally indistinguishable from the binary-heap reference
//! core. Every kernel × preset pair, healthy and faulted, must produce
//! **bit-identical** [`RunResult`]s — cycles, firing counts, final
//! memory, sink streams, out-of-bounds counts, and the per-route stall
//! attribution the mapping explorer's cost model is calibrated against.
//!
//! The heap core exists only to be compared against; if these tests
//! pass, nothing downstream can tell which engine ran.

use marionette::compiler::compile;
use marionette::kernels::traits::Scale;
use marionette::runner::run_kernel_with;
use marionette::sim::{run_full, EngineKind, FaultSet, RunResult, RunSpec, SimError};

const MAX_CYCLES: u64 = 500_000_000;

/// Full bit-compare of two runs: stats (including every per-PE,
/// per-group, and per-route counter), memory, sinks, and OOB events.
fn assert_runs_identical(tag: &str, arch: &str, wheel: &RunResult, heap: &RunResult) {
    assert_eq!(
        wheel.stats, heap.stats,
        "{tag} on {arch}: stats diverge between engines"
    );
    assert_eq!(
        wheel.oob_events, heap.oob_events,
        "{tag} on {arch}: oob counts diverge"
    );
    assert_eq!(
        wheel.memory.len(),
        heap.memory.len(),
        "{tag} on {arch}: array counts diverge"
    );
    for (ai, (w, h)) in wheel.memory.iter().zip(&heap.memory).enumerate() {
        assert_eq!(w.len(), h.len(), "{tag} on {arch}: array #{ai} length");
        for (i, (wv, hv)) in w.iter().zip(h).enumerate() {
            assert!(
                wv.bit_eq(*hv),
                "{tag} on {arch}: array #{ai}[{i}]: wheel {wv}, heap {hv}"
            );
        }
    }
    let mut wk: Vec<&String> = wheel.sinks.keys().collect();
    let mut hk: Vec<&String> = heap.sinks.keys().collect();
    wk.sort();
    hk.sort();
    assert_eq!(wk, hk, "{tag} on {arch}: sink label sets diverge");
    for (label, w) in &wheel.sinks {
        let h = &heap.sinks[label];
        assert_eq!(w.len(), h.len(), "{tag} on {arch}: sink {label} length");
        for (i, (wv, hv)) in w.iter().zip(h).enumerate() {
            assert!(
                wv.bit_eq(*hv),
                "{tag} on {arch}: sink {label}[{i}]: wheel {wv}, heap {hv}"
            );
        }
    }
}

/// Compiles `tag` once per preset and runs the same decoded bitstream
/// under both engines, demanding identical results.
fn assert_engine_identical(tag: &str, seed: u64, scale: Scale) {
    let k = marionette::kernels::by_short(tag).expect("kernel tag");
    let wl = k.workload(scale, seed);
    let g = k.build(&wl).expect("kernel builds");
    let inputs = g.array_inputs();
    for arch in marionette::arch::all_presets() {
        let (prog, _) = compile(&g, &arch.opts)
            .unwrap_or_else(|e| panic!("{tag} on {}: compile: {e}", arch.name));
        let bytes = marionette::isa::bitstream::encode(&prog);
        let prog = marionette::isa::bitstream::decode(&bytes).expect("bitstream roundtrip");
        let run = |engine| {
            run_full(
                &prog,
                &arch.tm,
                &FaultSet::none(),
                engine,
                &inputs,
                &[],
                MAX_CYCLES,
            )
            .unwrap_or_else(|e| panic!("{tag} on {} ({engine}): {e}", arch.name))
        };
        let wheel = run(EngineKind::Wheel);
        let heap = run(EngineKind::Heap);
        assert_runs_identical(tag, arch.name, &wheel, &heap);
    }
}

/// The full matrix: every registered kernel on every architecture
/// preset, both engines, one compile each.
#[test]
fn every_kernel_on_every_preset_is_engine_identical() {
    for k in marionette::kernels::all() {
        assert_engine_identical(k.short(), 7, Scale::Tiny);
    }
}

/// Longer runs exercise the wheel's horizon wrap-around (a Tiny run can
/// finish inside the first lap); two representative kernels at Small.
#[test]
fn crc_small_is_engine_identical() {
    assert_engine_identical("CRC", 21, Scale::Small);
}

#[test]
fn mergesort_small_is_engine_identical() {
    assert_engine_identical("MS", 22, Scale::Small);
}

/// Faulted differential: the same fault set must produce the same
/// outcome under both engines — the same typed wedge on dead resources,
/// or bit-identical (stretched) runs on flaky links.
fn assert_faulted_engine_identical(tag: &str, specs: &[&str]) {
    let k = marionette::kernels::by_short(tag).expect("kernel tag");
    let wl = k.workload(Scale::Tiny, 7);
    let g = k.build(&wl).expect("kernel builds");
    let inputs = g.array_inputs();
    for arch in marionette::arch::all_presets() {
        let mut faults = FaultSet::new(arch.opts.rows, arch.opts.cols);
        for s in specs {
            faults
                .add(s.parse().expect("fault spec"))
                .expect("in range");
        }
        let (prog, _) = compile(&g, &arch.opts)
            .unwrap_or_else(|e| panic!("{tag} on {}: compile: {e}", arch.name));
        let run = |engine| run_full(&prog, &arch.tm, &faults, engine, &inputs, &[], MAX_CYCLES);
        match (run(EngineKind::Wheel), run(EngineKind::Heap)) {
            (Ok(w), Ok(h)) => assert_runs_identical(tag, arch.name, &w, &h),
            (Err(w), Err(h)) => assert_eq!(
                w, h,
                "{tag} on {} [{specs:?}]: engines wedge differently",
                arch.name
            ),
            (w, h) => panic!(
                "{tag} on {} [{specs:?}]: wheel {:?} but heap {:?}",
                arch.name,
                w.map(|r| r.stats.cycles),
                h.map(|r| r.stats.cycles)
            ),
        }
    }
}

#[test]
fn dead_pe_wedges_identically_on_both_engines() {
    assert_faulted_engine_identical("CRC", &["pe:0,0"]);
}

#[test]
fn dead_link_wedges_identically_on_both_engines() {
    assert_faulted_engine_identical("MS", &["link:0,0-0,1"]);
}

#[test]
fn flaky_link_mult2_is_engine_identical() {
    assert_faulted_engine_identical("CRC", &["flaky:0,0-0,1@2"]);
}

#[test]
fn flaky_link_mult7_is_engine_identical() {
    assert_faulted_engine_identical("GP", &["flaky:1,0-1,1@7"]);
}

/// The whole self-healing pipeline (wedge → fault-aware remap →
/// re-verify) must land on the same remapped measurement under either
/// engine: same wedge diagnosis, same remap decision, same cycles and
/// full stats on the healed bitstream.
#[test]
fn self_heal_remap_is_engine_identical() {
    let k = marionette::kernels::by_short("CRC").expect("kernel tag");
    let arch = marionette::arch::marionette_full();
    let mut faults = FaultSet::new(arch.opts.rows, arch.opts.cols);
    faults.add("pe:0,0".parse().unwrap()).unwrap();
    let run = |engine| {
        let mut spec = RunSpec {
            faults: &faults,
            engine,
            ..RunSpec::new(MAX_CYCLES)
        };
        run_kernel_with(k.as_ref(), &arch, Scale::Tiny, 7, &mut spec)
            .unwrap_or_else(|e| panic!("faulted run ({engine}): {e}"))
    };
    let wheel = run(EngineKind::Wheel);
    let heap = run(EngineKind::Heap);
    assert_eq!(wheel.wedged, heap.wedged, "wedge diagnosis diverges");
    assert_eq!(wheel.remapped, heap.remapped, "remap decision diverges");
    assert_eq!(wheel.run.cycles, heap.run.cycles, "healed cycles diverge");
    assert_eq!(wheel.run.stats, heap.run.stats, "healed stats diverge");
    assert!(wheel.run.verified && heap.run.verified);
}

/// A cycle-budget bust must be the same typed error at the same point
/// under both engines.
#[test]
fn cycle_limit_is_engine_identical() {
    let k = marionette::kernels::by_short("CRC").expect("kernel tag");
    let wl = k.workload(Scale::Tiny, 7);
    let g = k.build(&wl).expect("kernel builds");
    let inputs = g.array_inputs();
    let arch = marionette::arch::marionette_full();
    let (prog, _) = compile(&g, &arch.opts).expect("compiles");
    for budget in [1u64, 16, 100] {
        let none = FaultSet::none();
        let run = |engine| run_full(&prog, &arch.tm, &none, engine, &inputs, &[], budget);
        let (w, h) = (run(EngineKind::Wheel), run(EngineKind::Heap));
        assert_eq!(
            w.clone().err(),
            h.err(),
            "budget {budget}: engines bust differently"
        );
        assert_eq!(
            w.err(),
            Some(SimError::CycleLimit { limit: budget }),
            "budget {budget} should bust"
        );
    }
}
