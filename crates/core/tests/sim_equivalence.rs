//! The simulator equivalence bar: on every architecture preset, the
//! cycle-level simulator must produce outputs **bit-identical** to the
//! sequential reference interpreter (`marionette-cdfg::interp`) — final
//! array memory and every sink stream. This is the contract the
//! event-driven core refactor is held to.

use marionette::cdfg::interp::{interpret, ExecMode};
use marionette::compiler::compile;
use marionette::kernels::traits::Scale;
use marionette::sim::run;

const MAX_CYCLES: u64 = 500_000_000;

fn assert_bit_identical(tag: &str, seed: u64, scale: Scale) {
    let k = marionette::kernels::by_short(tag).expect("kernel tag");
    let wl = k.workload(scale, seed);
    let g = k.build(&wl).expect("kernel builds");
    let reference = interpret(&g, ExecMode::Dropping, &[]).expect("interpreter runs");
    let inputs = g.array_inputs();
    for arch in marionette::arch::all_presets() {
        let (prog, _) = compile(&g, &arch.opts)
            .unwrap_or_else(|e| panic!("{tag} on {}: compile: {e}", arch.name));
        // Exercise the bitstream round trip like the runner does.
        let bytes = marionette::isa::bitstream::encode(&prog);
        let prog = marionette::isa::bitstream::decode(&bytes).expect("bitstream roundtrip");
        let r = run(&prog, &arch.tm, &inputs, &[], MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{tag} on {}: sim: {e}", arch.name));
        // Every declared array must match the interpreter bit for bit.
        for (ai, arr) in g.arrays.iter().enumerate() {
            let id = g.array_by_name(&arr.name).expect("declared array");
            let expect = reference.memory.array(id);
            let got = r
                .array(&prog, &arr.name)
                .unwrap_or_else(|| panic!("{tag} on {}: array {} missing", arch.name, arr.name));
            assert_eq!(
                expect.len(),
                got.len(),
                "{tag} on {}: array {} length",
                arch.name,
                arr.name
            );
            for (i, (e, a)) in expect.iter().zip(got).enumerate() {
                assert!(
                    e.bit_eq(*a),
                    "{tag} on {}: array {}[{i}] (decl #{ai}): interp {e}, sim {a}",
                    arch.name,
                    arr.name
                );
            }
        }
        // Every sink stream must match in content and arrival order.
        assert_eq!(
            {
                let mut ks: Vec<&String> = reference.sinks.keys().collect();
                ks.sort();
                ks
            },
            {
                let mut ks: Vec<&String> = r.sinks.keys().collect();
                ks.sort();
                ks
            },
            "{tag} on {}: sink label sets differ",
            arch.name
        );
        for (label, expect) in &reference.sinks {
            let got = &r.sinks[label];
            assert_eq!(
                expect.len(),
                got.len(),
                "{tag} on {}: sink {label} length",
                arch.name
            );
            for (i, (e, a)) in expect.iter().zip(got).enumerate() {
                assert!(
                    e.bit_eq(*a),
                    "{tag} on {}: sink {label}[{i}]: interp {e}, sim {a}",
                    arch.name
                );
            }
        }
    }
}

#[test]
fn mergesort_bit_identical_on_all_presets() {
    assert_bit_identical("MS", 11, Scale::Small);
}

#[test]
fn crc_bit_identical_on_all_presets() {
    assert_bit_identical("CRC", 12, Scale::Small);
}

#[test]
fn gemm_bit_identical_on_all_presets() {
    assert_bit_identical("GEMM", 13, Scale::Small);
}

#[test]
fn ldpc_bit_identical_on_all_presets() {
    assert_bit_identical("LDPC", 14, Scale::Small);
}

#[test]
fn gray_bit_identical_on_all_presets() {
    assert_bit_identical("GP", 15, Scale::Small);
}

#[test]
fn adpcm_bit_identical_on_all_presets_tiny() {
    assert_bit_identical("ADPCM", 16, Scale::Tiny);
}
