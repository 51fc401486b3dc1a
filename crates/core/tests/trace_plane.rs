//! The trace plane's contract: tracing is an observer, never an actor.
//!
//! A traced run must be bit-identical to the untraced run it observes
//! (same cycles, same full stats), the exported Chrome trace JSON must
//! be byte-for-byte deterministic for a fixed seed + engine, both event
//! cores must emit the same trace, and the committed example trace in
//! `examples/traces/` must validate against the schema documented in
//! `docs/OBSERVABILITY.md`.

use marionette::arch::marionette_full;
use marionette::arch::Architecture;
use marionette::kernels::by_short;
use marionette::kernels::traits::Kernel;
use marionette::kernels::traits::Scale;
use marionette::runner::{run_kernel_with, KernelRun, RunnerError};
use marionette::sim::{trace, EngineKind, RunSpec, Tracer};

const MAX_CYCLES: u64 = 500_000_000;

/// `kernel` at `Scale::Tiny`, seed 7, on `engine`, optionally traced.
fn run_seven(
    kernel: &dyn Kernel,
    arch: &Architecture,
    engine: EngineKind,
    tracer: Option<&mut Tracer>,
) -> Result<KernelRun, RunnerError> {
    let mut spec = RunSpec {
        engine,
        tracer,
        ..RunSpec::new(MAX_CYCLES)
    };
    run_kernel_with(kernel, arch, Scale::Tiny, 7, &mut spec).map(|fr| fr.run)
}

/// Tracing must not perturb the simulation: the traced run reports the
/// same cycles and the same full stats (every per-PE, per-group, and
/// per-route counter) as the untraced run.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let k = by_short("CRC").expect("kernel tag");
    let arch = marionette_full();
    for engine in [EngineKind::Wheel, EngineKind::Heap] {
        let plain = run_seven(k.as_ref(), &arch, engine, None).expect("untraced run");
        let mut tracer = Tracer::new();
        let traced = run_seven(k.as_ref(), &arch, engine, Some(&mut tracer)).expect("traced run");
        assert_eq!(plain.cycles, traced.cycles, "{engine}: cycles diverge");
        assert_eq!(plain.stats, traced.stats, "{engine}: stats diverge");
        assert!(traced.verified, "{engine}: traced run must still verify");
        assert!(!tracer.is_empty(), "{engine}: tracer saw no events");
    }
}

/// Same kernel, seed, and engine ⇒ byte-identical trace JSON. The trace
/// is evidence; it must not wobble between runs.
#[test]
fn trace_json_is_deterministic() {
    let k = by_short("CRC").expect("kernel tag");
    let arch = marionette_full();
    let dump = || {
        let mut tracer = Tracer::new();
        run_seven(k.as_ref(), &arch, EngineKind::Wheel, Some(&mut tracer)).expect("traced run");
        tracer.to_chrome_json()
    };
    let (a, b) = (dump(), dump());
    assert_eq!(a, b, "same seed + engine must produce identical bytes");
}

/// The two event cores are observationally identical, so they must emit
/// the same trace — the cycle-level schedule, not just the end state.
#[test]
fn heap_and_wheel_traces_are_identical() {
    let k = by_short("CRC").expect("kernel tag");
    let arch = marionette_full();
    let dump = |engine| {
        let mut tracer = Tracer::new();
        run_seven(k.as_ref(), &arch, engine, Some(&mut tracer)).expect("traced run");
        tracer.to_chrome_json()
    };
    assert_eq!(
        dump(EngineKind::Wheel),
        dump(EngineKind::Heap),
        "engines must trace identically"
    );
}

/// A fresh trace must round-trip through the parser the trace tooling
/// uses, with every track and event intact.
#[test]
fn fresh_trace_parses_and_attributes_stalls() {
    let k = by_short("MS").expect("kernel tag");
    let arch = marionette_full();
    let mut tracer = Tracer::new();
    run_seven(k.as_ref(), &arch, EngineKind::Wheel, Some(&mut tracer)).expect("traced run");
    let parsed = trace::parse(&tracer.to_chrome_json()).expect("fresh trace parses");
    assert_eq!(parsed.events.len(), tracer.len());
    assert!(parsed.last_cycle() > 0);
    let uniq: std::collections::HashSet<&String> = parsed.tracks.iter().collect();
    assert_eq!(uniq.len(), parsed.tracks.len(), "duplicate track names");
    assert_eq!(parsed.stall_by_track().len(), parsed.tracks.len());
}

/// The committed example trace (the `crc` example program on the 4×4 M
/// preset, regenerated via `marc examples/crc.mar --presets M --fabric
/// 4x4 --trace ...`) must validate against the documented schema: the
/// envelope, the metadata/track discipline, and the event grammar are
/// all enforced by [`trace::parse`].
#[test]
fn committed_example_trace_validates_against_schema() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/traces/crc_M_4x4.trace.json"
    );
    let text = std::fs::read_to_string(path).expect("committed example trace exists");
    let parsed = trace::parse(&text).unwrap_or_else(|e| panic!("example trace invalid: {e}"));
    assert!(!parsed.events.is_empty(), "example trace has no events");
    // The documented track families a healthy M-preset run exercises
    // must all be present (tracks materialize on first use, so a run
    // with no group switches or remap marks has no ccu/marks track).
    for needle in ["pe 0,0 data", "pe 0,0 ctrl", "link ", "mem "] {
        assert!(
            parsed.tracks.iter().any(|t| t.contains(needle)),
            "no `{needle}` track in {:?}",
            parsed.tracks
        );
    }
    for counter in ["queue depth", "flits in flight"] {
        assert!(
            parsed.tracks.iter().any(|t| t == counter),
            "missing counter track `{counter}`"
        );
    }
    // Every event cites a real track, and time never runs backwards
    // past the recorded end of the run.
    let last = parsed.last_cycle();
    for e in &parsed.events {
        assert!((e.track as usize) < parsed.tracks.len());
        assert!(e.ts + e.dur <= last);
    }
}
