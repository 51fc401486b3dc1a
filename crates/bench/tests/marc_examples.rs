//! Golden end-to-end tests for the committed `examples/*.mar` programs:
//! each example is pushed through the full `marc` pipeline (parse →
//! check → lower → compile → bitstream round-trip → simulate) on **all
//! nine architecture presets**, the simulation is verified bit-for-bit
//! against the reference interpreter, and the program's *meaning* is
//! pinned against an independent golden model (the kernel crate's CRC
//! reference, `sort()`, and a direct convolution).

use marionette::cdfg::value::Value;
use marionette::kernels::crc::crc32_reference;
use marionette::sim::RunSpec;
use marionette_lang::driver::{frontend, reference, run_preset, Reference, INTERP_BUDGET};
use marionette_lang::Diagnostic;

const MAX_CYCLES: u64 = 100_000_000;

fn example(name: &str) -> String {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn render_all(src: &str, ds: &[Diagnostic]) -> String {
    ds.iter()
        .map(|d| d.render("example", src))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Front end + reference + all nine presets, bit-verified.
fn run_everywhere(name: &str) -> (marionette::cdfg::Cdfg, Reference) {
    let src = example(name);
    let (_, g) = frontend(&src).unwrap_or_else(|e| match e {
        marionette_lang::DriverError::Sema(ds) => {
            panic!("{name}: {}", render_all(&src, &ds))
        }
        other => panic!("{name}: {other}"),
    });
    let r = reference(&g, &[], INTERP_BUDGET).unwrap_or_else(|e| panic!("{name}: {e}"));
    let presets = marionette::arch::all_presets();
    assert_eq!(presets.len(), 9);
    for arch in &presets {
        let run = run_preset(&g, &r, arch, &[], &mut RunSpec::new(MAX_CYCLES))
            .unwrap_or_else(|e| panic!("{name} on {}: {e}", arch.short))
            .run;
        assert!(run.cycles > 0, "{name} on {}: empty run", arch.short);
    }
    (g, r)
}

fn i32_array(g: &marionette::cdfg::Cdfg, r: &Reference, name: &str) -> Vec<i32> {
    let id = g
        .array_by_name(name)
        .unwrap_or_else(|| panic!("array {name}"));
    r.dropping
        .memory
        .array(id)
        .iter()
        .map(|v| v.as_i32().unwrap_or_else(|| panic!("{name}: non-i32 {v}")))
        .collect()
}

#[test]
fn crc_example_matches_the_kernel_reference_on_all_presets() {
    let (_, r) = run_everywhere("crc.mar");
    // The message committed in the example: bytes of "12345678".
    let msg: Vec<i32> = b"12345678".iter().map(|&b| b as i32).collect();
    assert_eq!(
        r.dropping.sinks["crc"],
        vec![Value::I32(crc32_reference(&msg))],
        "crc.mar disagrees with kernels::crc::crc32_reference"
    );
}

#[test]
fn mergesort_example_sorts_on_all_presets() {
    let (g, r) = run_everywhere("mergesort.mar");
    let got = i32_array(&g, &r, "data");
    let mut expect = vec![42, -7, 19, 3, -25, 88, 0, 11];
    expect.sort_unstable();
    assert_eq!(got, expect, "mergesort.mar left data unsorted");
}

#[test]
fn conv1d_example_matches_a_direct_convolution_on_all_presets() {
    let (g, r) = run_everywhere("conv1d.mar");
    let x: [i32; 12] = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8];
    let w: [i32; 4] = [2, -3, 1, 4];
    let expect: Vec<i32> = (0..8)
        .map(|i| (0..4).map(|t| x[i + t].wrapping_mul(w[t])).sum())
        .collect();
    assert_eq!(i32_array(&g, &r, "y"), expect, "conv1d.mar wrong output");
}

#[test]
fn examples_survive_the_mapping_explorer() {
    // A small annealing budget on the full Marionette preset: searched
    // placements must stay bit-correct too.
    let src = example("crc.mar");
    let (_, g) = frontend(&src).unwrap();
    let r = reference(&g, &[], INTERP_BUDGET).unwrap();
    let mut arch = marionette::arch::marionette_full();
    arch.opts.search = marionette::compiler::SearchBudget::Anneal {
        moves: 150,
        restarts: 1,
        base_seed: 7,
    };
    let run = run_preset(&g, &r, &arch, &[], &mut RunSpec::new(MAX_CYCLES))
        .unwrap()
        .run;
    assert!(run.search.is_some(), "search report missing");
}

#[test]
fn every_preset_on_fabrics_below_three_tiles_verifies_or_fails_typed() {
    // Softbrain's stream engines each sit on a tile of their own, so a
    // fabric of fewer than three tiles gets fewer engines. Every run
    // either verifies or comes back as a typed compile error (a preset
    // whose regions cannot fit), and Softbrain verifies everywhere.
    use marionette::compiler::FabricDims;
    use marionette_lang::DriverError;
    for name in ["conv1d.mar", "crc.mar", "mergesort.mar"] {
        let (_, g) = frontend(&example(name)).unwrap();
        let r = reference(&g, &[], INTERP_BUDGET).unwrap();
        for (rows, cols) in [(1, 1), (1, 2), (2, 1)] {
            for arch in marionette::arch::all_presets_on(FabricDims::new(rows, cols)) {
                let what = format!("{name} on {} at {rows}x{cols}", arch.short);
                match run_preset(&g, &r, &arch, &[], &mut RunSpec::new(MAX_CYCLES)) {
                    Ok(fr) => assert!(fr.run.cycles > 0, "{what}: empty run"),
                    Err(DriverError::Compile { .. }) if arch.short != "SB" => {}
                    Err(e) => panic!("{what}: {e}"),
                }
            }
        }
    }
}

/// `marc --json -` runs pinned as FNV-1a digests of their stdout (the
/// progress lines and the JSON report) with the `"file"` line left
/// out: every example on every preset, plus a searched, a parameter
/// and two faulted runs.
const MARC_PINS: &[(&[&str], u64)] = &[
    (&["examples/conv1d.mar"], 0x08efcd2792e16238),
    (&["examples/crc.mar"], 0xa9d7976c8001fed7),
    (&["examples/mergesort.mar"], 0xa88326e0591e210d),
    (&["examples/crc.mar", "--search", "150"], 0x28a01ca68c222efc),
    (
        &["examples/crc.mar", "--fault", "pe:0,0"],
        0xac7f7e6b5d1820dd,
    ),
    (
        &["examples/conv1d.mar", "--param", "n=4", "--presets", "M,DF"],
        0x005e954f61eb7259,
    ),
    (
        &[
            "examples/mergesort.mar",
            "--presets",
            "M,vN",
            "--faults",
            "2",
            "--fault-seed",
            "3",
        ],
        0xf4185a282018a5ce,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `marc --json - ARGS` from the repository root and digests its
/// stdout without the `"file"` line.
fn marc_digest(args: &[&str]) -> u64 {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_marc"))
        .current_dir(root)
        .args(["--json", "-"])
        .args(args)
        .output()
        .expect("spawn marc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "marc {args:?}: {:?}\n{stdout}{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let kept: String = stdout
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"file\":"))
        .map(|l| format!("{l}\n"))
        .collect();
    fnv1a(kept.as_bytes())
}

#[test]
fn marc_json_output_is_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut examples: Vec<String> = std::fs::read_dir(dir)
        .expect("examples dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".mar"))
        .collect();
    examples.sort();
    for ex in &examples {
        let path = format!("examples/{ex}");
        assert!(
            MARC_PINS.iter().any(|(args, _)| args == &[path.as_str()]),
            "{path} has no plain pin"
        );
    }
    let got: Vec<(&[&str], u64)> = MARC_PINS
        .iter()
        .map(|&(args, _)| (args, marc_digest(args)))
        .collect();
    let differing: Vec<&[&str]> = (got.iter().zip(MARC_PINS))
        .filter(|(g, p)| g.1 != p.1)
        .map(|(g, _)| g.0)
        .collect();
    let table: String = got
        .iter()
        .map(|(args, d)| format!("    (&{args:?}, {d:#018x}),\n"))
        .collect();
    assert!(
        differing.is_empty(),
        "marc runs differing from their pins: {differing:?}\nthe runs now read:\n{table}"
    );
}
