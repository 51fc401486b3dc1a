//! Usage-error conformance for the bench binaries: duplicate flags,
//! conflicting flags, and out-of-range values must exit 2 with a
//! diagnostic on stderr — never panic, never silently last-win.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_usage_error(out: &Output, needle: &str, ctx: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "{ctx}: expected exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{ctx}: stderr missing `{needle}`:\n{stderr}"
    );
}

const BENCH_SIM: &str = env!("CARGO_BIN_EXE_bench_sim");
const MARC: &str = env!("CARGO_BIN_EXE_marc");
const FAULT_SWEEP: &str = env!("CARGO_BIN_EXE_fault_sweep");
const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");
const TRACE_DIFF: &str = env!("CARGO_BIN_EXE_trace_diff");
const MAP_EXPLORE: &str = env!("CARGO_BIN_EXE_map_explore");
const FABRIC_SWEEP: &str = env!("CARGO_BIN_EXE_fabric_sweep");
const REPRO_ALL: &str = env!("CARGO_BIN_EXE_repro_all");

#[test]
fn bench_sim_rejects_duplicate_engine() {
    // The wheel is the only event core: `--engine` is no flag of it.
    // Faulted sweeps and traces are fault_sweep's, a serial run is
    // `MARIONETTE_THREADS=1`, and the wall tolerance is fixed.
    for args in [
        &["--engine", "wheel", "--engine", "heap"][..],
        &["--fault", "pe:0,0"],
        &["--faults", "1"],
        &["--fault-seed", "1"],
        &["--trace", "a.json"],
        &["--trace-point", "CRC:M"],
        &["--serial"],
        &["--compare"],
        &["--wall-tolerance", "25"],
    ] {
        let out = run(BENCH_SIM, args);
        assert_usage_error(
            &out,
            &format!("unknown flag `{}`", args[0]),
            &format!("bench_sim {args:?}"),
        );
    }
}

#[test]
fn bench_sim_rejects_duplicate_lanes_and_zero_lanes() {
    // bench_sim runs one machine per point: `--lanes` is no flag of it.
    for args in [
        &["--lanes", "2"][..],
        &["--lanes", "2", "--lanes", "4"],
        &["--lanes", "0"],
    ] {
        let out = run(BENCH_SIM, args);
        assert_usage_error(
            &out,
            "unknown flag `--lanes`",
            &format!("bench_sim {args:?}"),
        );
    }
}

#[test]
fn bench_sim_rejects_conflicting_replay_without_check() {
    let out = run(BENCH_SIM, &["--replay", "fresh.json"]);
    assert_usage_error(&out, "--replay only makes sense", "bench_sim replay alone");
}

#[test]
fn marc_rejects_duplicate_engine_and_json() {
    let out = run(MARC, &["--engine", "wheel", "--engine", "heap", "x.mar"]);
    assert_usage_error(&out, "unknown flag `--engine`", "marc dup engine");
    let out = run(MARC, &["--json", "a.json", "--json", "b.json", "x.mar"]);
    assert_usage_error(&out, "duplicate flag `--json`", "marc dup json");
}

#[test]
fn marc_rejects_unknown_flag_and_multiple_files() {
    let out = run(MARC, &["--nope", "x.mar"]);
    assert_usage_error(&out, "unknown flag `--nope`", "marc unknown flag");
    let out = run(MARC, &["a.mar", "b.mar"]);
    assert_usage_error(&out, "more than one input file", "marc two files");
}

#[test]
fn marc_rejects_a_search_that_is_not_moves_and_restarts() {
    // The decoder mard shares: three parts, or zero chains, is no budget.
    for (bin, file) in [(MARC, Some("examples/crc.mar")), (MAP_EXPLORE, None)] {
        for (search, needle) in [
            ("20,1,3", "not MOVES[,RESTARTS]"),
            ("20,0", "runs no chain"),
        ] {
            let mut args = vec!["--search", search];
            args.extend(file);
            let out = run(bin, &args);
            let ctx = format!("{bin} --search {search}");
            assert_usage_error(&out, &format!("search `{search}`"), &ctx);
            assert_usage_error(&out, needle, &ctx);
        }
    }
}

#[test]
fn fault_sweep_rejects_duplicate_fabric() {
    let out = run(FAULT_SWEEP, &["--fabric", "4x4", "--fabric", "6x6"]);
    assert_usage_error(&out, "duplicate flag `--fabric`", "fault_sweep dup fabric");
}

#[test]
fn fault_sweep_rejects_unknown_argument() {
    let out = run(FAULT_SWEEP, &["--fault-count", "3"]);
    assert_usage_error(
        &out,
        "unknown flag `--fault-count`",
        "fault_sweep typo'd flag",
    );
}

#[test]
fn fault_sweep_trace_flags_are_audited() {
    let out = run(FAULT_SWEEP, &["--trace", "a.json", "--trace", "b.json"]);
    assert_usage_error(&out, "duplicate flag `--trace`", "fault_sweep dup trace");
    // An unnarrowed sweep has hundreds of points; --trace refuses it.
    let out = run(FAULT_SWEEP, &["--trace", "a.json"]);
    assert_usage_error(
        &out,
        "--trace records one point's run",
        "fault_sweep trace unnarrowed",
    );
    let out = run(
        FAULT_SWEEP,
        &[
            "--trace",
            "/nonexistent-dir/t.json",
            "--kernels",
            "CRC",
            "--presets",
            "M",
            "--fault-counts",
            "0",
        ],
    );
    assert_usage_error(
        &out,
        "--trace /nonexistent-dir/t.json",
        "fault_sweep bad trace path",
    );
}

#[test]
fn marc_rejects_duplicate_trace_and_bad_trace_path() {
    let out = run(MARC, &["--trace", "a.json", "--trace", "b.json", "x.mar"]);
    assert_usage_error(&out, "duplicate flag `--trace`", "marc dup trace");
    let out = run(
        MARC,
        &[
            "--trace",
            "/nonexistent-dir/t.json",
            "--presets",
            "M",
            "x.mar",
        ],
    );
    assert_usage_error(&out, "--trace /nonexistent-dir/t.json", "marc bad path");
}

#[test]
fn trace_diff_rejects_bad_argv_and_unreadable_files() {
    let out = run(TRACE_DIFF, &["a.json"]);
    assert_usage_error(
        &out,
        "expected exactly two trace files",
        "trace_diff one file",
    );
    let out = run(TRACE_DIFF, &["a.json", "b.json", "c.json"]);
    assert_usage_error(
        &out,
        "expected exactly two trace files",
        "trace_diff three files",
    );
    let out = run(
        TRACE_DIFF,
        &["a.json", "b.json", "--limit", "1", "--limit", "2"],
    );
    assert_usage_error(&out, "duplicate flag `--limit`", "trace_diff dup limit");
    let out = run(TRACE_DIFF, &["a.json", "b.json", "--limit", "many"]);
    assert_usage_error(&out, "--limit needs a count", "trace_diff bad limit");
    let out = run(TRACE_DIFF, &["a.json", "b.json", "--nope"]);
    assert_usage_error(&out, "unknown flag `--nope`", "trace_diff unknown flag");
    let out = run(TRACE_DIFF, &["/nonexistent-a.json", "/nonexistent-b.json"]);
    assert_usage_error(
        &out,
        "reading /nonexistent-a.json",
        "trace_diff missing input",
    );
}

#[test]
fn loadgen_rejects_duplicates_and_unknown_flags() {
    let out = run(LOADGEN, &["--requests", "10", "--requests", "20"]);
    assert_usage_error(&out, "duplicate flag `--requests`", "loadgen dup requests");
    let out = run(LOADGEN, &["--nope"]);
    assert_usage_error(&out, "unknown flag `--nope`", "loadgen unknown flag");
}

#[test]
fn map_explore_rejects_unknown_and_duplicate_flags() {
    // The anneal budget is the shared `--search MOVES[,RESTARTS]`.
    for flag in ["--nope", "--moves", "--restarts", "--seed"] {
        let out = run(MAP_EXPLORE, &[flag, "1"]);
        assert_usage_error(
            &out,
            &format!("unknown flag `{flag}`"),
            &format!("map_explore {flag}"),
        );
    }
    let out = run(MAP_EXPLORE, &["--kernels", "CRC", "--kernels", "MS"]);
    assert_usage_error(
        &out,
        "duplicate flag `--kernels`",
        "map_explore dup kernels",
    );
}

#[test]
fn fabric_sweep_rejects_duplicate_kernels() {
    let out = run(FABRIC_SWEEP, &["--kernels", "CRC", "--kernels", "MS"]);
    assert_usage_error(
        &out,
        "duplicate flag `--kernels`",
        "fabric_sweep dup kernels",
    );
}

#[test]
fn repro_all_rejects_an_unknown_figure() {
    let out = run(REPRO_ALL, &["--fig", "99"]);
    assert_usage_error(&out, "no figure 99", "repro_all fig 99");
}

#[test]
fn fabric_sides_above_255_are_usage_errors() {
    let out = run(BENCH_SIM, &["--fabric", "300x300"]);
    assert_usage_error(&out, "at most 255", "bench_sim 300x300");
    let out = run(BENCH_SIM, &["--fabric", "999999x999999"]);
    assert_usage_error(&out, "at most 255", "bench_sim 999999x999999");
    let out = run(FABRIC_SWEEP, &["--fabrics", "256x256"]);
    assert_usage_error(&out, "at most 255", "fabric_sweep 256x256");
}
