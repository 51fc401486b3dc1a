//! Properties of the `.mar` source round-trip, over the committed
//! regression corpus and a seeded fuzz range:
//!
//! - parse → print → parse is a fixed point of the canonical printer;
//! - lowering is deterministic (same source, bit-identical CDFG);
//! - the source-lowered graph computes bit-identical values to the
//!   direct builder path (the interpreter-level half of the source
//!   differential; the full compile→simulate half runs in `fuzz_stack
//!   --source` and the CI smoke job).

use marionette_fuzzgen::diff::DEFAULT_MAX_CYCLES;
use marionette_fuzzgen::gen::{generate, GenConfig};
use marionette_fuzzgen::source::{diff_source, to_mar};
use marionette_fuzzgen::Program;
use marionette_lang::{compile_source, parse, print};
use proptest::prelude::*;

/// Every committed corpus regression program.
fn corpus_programs() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("corpus file");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let p = Program::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((name, p));
    }
    out
}

/// A deterministic structural fingerprint of a CDFG.
fn fingerprint(g: &marionette_cdfg::Cdfg) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        g.nodes, g.arrays, g.params, g.blocks, g.loops
    )
}

fn assert_roundtrip_properties(name: &str, p: &Program) {
    let text = to_mar(p);
    // parse → print → parse fixed point.
    let a1 = parse(&text).unwrap_or_else(|e| panic!("{name}: emitted source fails to parse: {e}"));
    let t1 = print(&a1);
    let a2 = parse(&t1).unwrap_or_else(|e| panic!("{name}: printed source fails to re-parse: {e}"));
    assert_eq!(t1, print(&a2), "{name}: printer is not a fixed point");
    // Deterministic lowering: same source, bit-identical graph.
    let g1 = compile_source(&text).unwrap_or_else(|d| panic!("{name}: {d:?}"));
    let g2 = compile_source(&text).unwrap();
    assert_eq!(
        fingerprint(&g1),
        fingerprint(&g2),
        "{name}: lowering is not deterministic"
    );
    // Builder-vs-source value agreement (interpreter level).
    diff_source(p, &[], DEFAULT_MAX_CYCLES).unwrap_or_else(|d| panic!("{name}: {d}\n{text}"));
}

#[test]
fn corpus_entries_roundtrip_through_the_source_language() {
    let programs = corpus_programs();
    assert!(programs.len() >= 6, "corpus unexpectedly small");
    for (name, p) in &programs {
        assert_roundtrip_properties(name, p);
    }
}

#[test]
fn seeded_range_roundtrips_through_the_source_language() {
    let cfg = GenConfig::default();
    for seed in 0..96 {
        let p = generate(seed, &cfg);
        assert_roundtrip_properties(&format!("seed {seed}"), &p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary seeds keep the round-trip properties (sampled wider than
    /// the exhaustive prefix above).
    #[test]
    fn sampled_seeds_roundtrip(seed in 0u64..1_000_000) {
        let p = generate(seed, &GenConfig::default());
        assert_roundtrip_properties(&format!("seed {seed}"), &p);
    }

    /// The emitter is a function: equal programs emit equal source.
    #[test]
    fn emission_is_deterministic(seed in 0u64..1_000_000) {
        let p = generate(seed, &GenConfig::default());
        prop_assert_eq!(to_mar(&p), to_mar(&p));
    }
}
