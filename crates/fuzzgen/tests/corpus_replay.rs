//! Regression-corpus replay and a fixed-seed differential smoke sweep,
//! both part of the ordinary `cargo test` run.

use marionette::arch::{all_presets, presets_by_tags_on, FabricDims};
use marionette::sim::{FaultSet, RunSpec};
use marionette_fuzzgen::diff::{diff_program, DEFAULT_MAX_CYCLES};
use marionette_fuzzgen::gen::{generate, GenConfig};
use marionette_fuzzgen::source::diff_both;
use marionette_fuzzgen::Program;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn corpus_entries() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for e in std::fs::read_dir(corpus_dir()).expect("corpus dir exists") {
        let path = e.expect("dir entry").path();
        if path.extension().and_then(|x| x.to_str()) != Some("txt") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        let p = Program::parse(&text).unwrap_or_else(|err| panic!("{name}: {err}"));
        out.push((name, p));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn corpus_is_nonempty_and_parses() {
    let entries = corpus_entries();
    assert!(
        entries.len() >= 5,
        "corpus shrank to {} entries",
        entries.len()
    );
    for (name, p) in &entries {
        // The stored text is canonical: re-rendering must not drift, so
        // committed corpus files stay diffable.
        let text = std::fs::read_to_string(corpus_dir().join(name)).unwrap();
        let stripped: String = text
            .lines()
            .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
            .map(|l| format!("{l}\n"))
            .collect();
        let canonical: String = p
            .to_text()
            .lines()
            .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, canonical, "{name}: non-canonical text");
    }
}

#[test]
fn corpus_replays_divergence_free_on_all_presets() {
    // `diff_both` replays each regression on the builder axis *and* the
    // `.mar` source axis, so corpus entries shrunk from a
    // `fuzz_stack --source` failure keep pinning their failing axis.
    let presets = all_presets();
    for (name, p) in corpus_entries() {
        let stats =
            diff_both(&p, &presets, DEFAULT_MAX_CYCLES).unwrap_or_else(|d| panic!("{name}: {d}"));
        assert_eq!(stats.points, 2 * presets.len(), "{name}: preset skipped");
    }
}

#[test]
fn fixed_seed_smoke_sweep_three_presets() {
    // A slice of the fuzz_stack sweep small enough for every `cargo
    // test` run: 40 programs across the three most divergent execution
    // models (full Marionette, predicated von Neumann, tagged dataflow).
    let cfg = GenConfig::default();
    let presets = presets_by_tags_on(FabricDims::paper(), "M,vN,DF").expect("tags resolve");
    for seed in 0..40 {
        let p = generate(seed, &cfg);
        diff_program(&p, &presets, &mut RunSpec::new(DEFAULT_MAX_CYCLES))
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
    }
}

#[test]
fn deep_seed_smoke_all_presets() {
    // A few deeper programs across every preset, covering the nesting
    // depth the default sweep rarely reaches.
    let cfg = GenConfig {
        max_depth: 4,
        max_stmts: 34,
        ..GenConfig::default()
    };
    let presets = all_presets();
    for seed in 100..106 {
        let p = generate(seed, &cfg);
        diff_program(&p, &presets, &mut RunSpec::new(DEFAULT_MAX_CYCLES))
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
    }
}

#[test]
fn faulted_sweep_counters_are_pinned() {
    // `fuzz_stack --presets M,vN,DF --faults 2` over seeds 0..32: the same
    // per-seed draw of two random faults, so these totals pin which
    // points heal by remap and which remaps are classified infeasible.
    let fabric = FabricDims::paper();
    let presets = presets_by_tags_on(fabric, "M,vN,DF").expect("tags resolve");
    let cfg = GenConfig::default();
    let mut totals = (0, 0, 0, 0, 0);
    for seed in 0..32 {
        let faults = FaultSet::from_cli(fabric.rows, fabric.cols, &[], 2, seed).unwrap();
        let mut spec = RunSpec {
            faults: &faults,
            ..RunSpec::new(DEFAULT_MAX_CYCLES)
        };
        let s = diff_program(&generate(seed, &cfg), &presets, &mut spec)
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        totals.0 += s.points;
        totals.1 += s.remaps;
        totals.2 += s.infeasible;
        totals.3 += s.cycles;
        totals.4 += s.fires;
    }
    // (points, remaps, infeasible, cycles, fires)
    assert_eq!(totals, (83, 80, 13, 32227, 48301));
}
