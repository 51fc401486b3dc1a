//! `perfbench`: the marionette stack's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload sweep|heal|serve-hot|serve-cold --seed N
//!           --seconds S --trace 0|1 [--connections C]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it times each layer's public functions from the
//! benchmark's own spans and reports the per-layer metrics. Every
//! operation is verified; the last stdout line is the result object,
//! and the exit code is nonzero when any operation failed or any
//! fidelity check broke. Bad flags exit 2.

mod calib;
mod offline;
mod serve;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("ns_per_fire", "ns"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("sim_cycles_geomean", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), reported by every workload; a layer
/// a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.run_us", "us"),
    ("sim.runs", "count"),
    ("sim.fires", "count"),
    ("sim.cycles", "cycles"),
    ("sim.ns_per_fire", "ns"),
    ("sim.link_stall_cycles", "cycles"),
    ("sim.switch_stall_cycles", "cycles"),
    ("sim.group_switches", "count"),
    ("sim.fault_rejects", "count"),
    ("compiler.compile_us", "us"),
    ("compiler.remap_us", "us"),
    ("compiler.compiles", "count"),
    ("compiler.remap_infeasible", "count"),
    ("core.wedged", "count"),
    ("core.healed", "count"),
    ("core.heal_ratio", "ratio"),
    ("isa.encode_us", "us"),
    ("isa.decode_us", "us"),
    ("isa.bitstream_bytes", "bytes"),
    ("kernels.workload_us", "us"),
    ("kernels.golden_us", "us"),
    ("kernels.build_us", "us"),
    ("kernels.verify_us", "us"),
    ("lang.frontend_us", "us"),
    ("lang.print_us", "us"),
    ("lang.reference_us", "us"),
    ("lang.compile_us", "us"),
    ("lang.simulate_us", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.route_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.rejected_429", "count"),
    ("serve.request_p99_us", "us"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

const WORKLOADS: &[&str] = &["sweep", "heal", "serve-hot", "serve-cold"];

const USAGE: &str = "\
perfbench: end-to-end and per-layer benchmark of the marionette stack

USAGE:
  perfbench --workload W --seed N --seconds S --trace 0|1 [--connections C]

  --workload W      sweep | heal | serve-hot | serve-cold
  --seed N          input seed (same seed, same inputs)    [default: 1]
  --seconds S       measured time per run                  [default: 10]
  --trace 0|1       1: per-layer metrics from spans         [default: 0]
  --connections C   serve client connections = server workers =
                    CPUs the run is pinned to, at most the
                    machine's parallelism                  [default: 1]
";

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A measurement with its unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }

    /// A per-run count.
    pub fn count(name: &'static str, n: u64) -> Self {
        Metric::new(name, n as f64, "count")
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (set-up operations included).
    pub attempted: u64,
    /// Operations that failed verification or errored.
    pub failed: u64,
    /// Broken run-level checks (determinism, snapshot, replay fidelity).
    pub errors: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Samples behind the percentiles: one best time per point offline,
    /// one per verified timed request on serve.
    pub samples: usize,
    /// Operations the traced phase recorded spans for.
    pub traced_ops: u64,
    /// Uncalibrated figures (set-up time, throughput, median latency)
    /// and the calibration itself, reported beside the metrics for
    /// reference.
    pub raw: Vec<(&'static str, f64)>,
}

/// Failures echoed to stderr per run (the count is always exact).
const FAILURES_SHOWN: u64 = 10;

impl Outcome {
    /// True when every operation verified and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Echoes the first few failures to stderr.
    pub fn note_failure(&self, what: &str) {
        if self.failed <= FAILURES_SHOWN {
            eprintln!("perfbench: failed: {what}");
        }
    }

    /// Adds an exact percentile of `sorted`, or an error when too few
    /// samples lie beyond it.
    pub fn push_percentile(&mut self, name: &'static str, sorted: &[f64], q: f64) {
        match stats::percentile(sorted, q) {
            Some(v) => self.metrics.push(Metric::new(name, v, "us")),
            None => self.errors.push(format!(
                "{name}: {} samples leave fewer than {} beyond it",
                sorted.len(),
                stats::MIN_BEYOND
            )),
        }
    }

    /// Adds `setup_s`: the median of the run's set-up repetitions
    /// (seconds) times `k`, the calibration of the slices taken around
    /// and within them.
    pub fn push_setup(&mut self, setup_secs: &[f64], k: f64) {
        let median = stats::median(setup_secs);
        self.raw
            .extend([("setup_s", median), ("setup_calibration", k)]);
        self.metrics.push(Metric::new("setup_s", k * median, "s"));
    }

    /// Adds the host-time metrics of a serve run from its raw samples:
    /// the client-observed latency (µs) of every verified timed request,
    /// the fires they simulated, and the seconds the timed loop spent on
    /// them. Throughput is requests over those seconds; ns per fire and
    /// the exact p50/p90 are over the raw latencies. All are calibrated
    /// to the reference machine by `cal`'s median slice.
    pub fn push_samples(
        &mut self,
        mut latency_us: Vec<f64>,
        fires: u64,
        busy_secs: f64,
        cal: &calib::Calibration,
    ) {
        let k = cal.median_factor();
        let n = latency_us.len();
        stats::sort(&mut latency_us);
        let ops_per_s = n as f64 / busy_secs;
        self.raw.extend([
            ("ops_per_s", ops_per_s),
            (
                "p50_us",
                stats::percentile(&latency_us, 0.5).unwrap_or(f64::NAN),
            ),
            ("median_slice_us", cal.median_us()),
            ("calibration", k),
        ]);
        self.metrics
            .push(Metric::new("ops_per_s", ops_per_s / k, "1/s"));
        self.metrics.push(Metric::new(
            "ns_per_fire",
            k * latency_us.iter().sum::<f64>() * 1e3 / fires.max(1) as f64,
            "ns",
        ));
        for v in &mut latency_us {
            *v *= k;
        }
        self.push_percentile("p50_us", &latency_us, 0.50);
        self.push_percentile("p90_us", &latency_us, 0.90);
        self.samples = n;
    }

    /// Adds the host-time metrics of an offline run from each point's
    /// repeat times (µs) and simulated fires. Every point contributes
    /// its best time over the run: a point is fixed, deterministic
    /// compute, and on a machine shared with other tenants contention
    /// only ever adds time, so the best of many repeats is the steadiest
    /// estimate of what the point costs. All times are calibrated to the
    /// reference machine by `cal`'s best slice.
    pub fn push_best_times(&mut self, reps: &[Vec<f64>], fires: &[u64], cal: &calib::Calibration) {
        let k = cal.best_factor();
        let mut all: Vec<f64> = reps.iter().flatten().copied().collect();
        stats::sort(&mut all);
        self.raw.extend([
            (
                "ops_per_s",
                1e6 * all.len() as f64 / all.iter().sum::<f64>(),
            ),
            ("p50_us", stats::percentile(&all, 0.5).unwrap_or(f64::NAN)),
            ("repeats", all.len() as f64),
            ("best_slice_us", cal.best_us()),
            ("calibration", k),
        ]);
        let mut samples = Vec::new();
        let mut fired = 0u64;
        for (r, &f) in reps.iter().zip(fires) {
            if let Some(best) = r.iter().copied().reduce(f64::min) {
                samples.push(k * best);
                fired += f;
            }
        }
        let total_us: f64 = samples.iter().sum();
        self.metrics.push(Metric::new(
            "ops_per_s",
            1e6 * samples.len() as f64 / total_us,
            "1/s",
        ));
        self.metrics.push(Metric::new(
            "ns_per_fire",
            total_us * 1e3 / fired.max(1) as f64,
            "ns",
        ));
        stats::sort(&mut samples);
        self.push_percentile("p50_us", &samples, 0.50);
        self.push_percentile("p90_us", &samples, 0.90);
        self.samples = samples.len();
    }

    /// Adds a zero for every per-layer metric the workload did not
    /// reach, so each traced result carries the whole list.
    pub fn fill_absent_layers(&mut self) {
        for &(name, unit) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.metrics.push(Metric::new(name, 0.0, unit));
            }
        }
    }
}

/// Validated command line.
#[derive(Clone, Debug)]
pub struct Params {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
    /// Serve client connections (= server workers).
    pub connections: usize,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_args(args: &[String], nproc: usize) -> Result<Params, String> {
    let mut p = Params {
        workload: String::new(),
        seed: offline::SNAPSHOT_SEED,
        seconds: 10.0,
        trace: false,
        connections: 1,
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if !matches!(
            flag,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--connections"
        ) {
            return Err(format!("unknown flag `{flag}`"));
        }
        if seen.contains(&flag) {
            return Err(format!("duplicate flag `{flag}`"));
        }
        seen.push(flag);
        let v = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("`{flag}`: bad value `{v}`");
        match flag {
            "--workload" => {
                if !WORKLOADS.contains(&v.as_str()) {
                    return Err(format!("unknown workload `{v}` (one of {WORKLOADS:?})"));
                }
                p.workload.clone_from(v);
            }
            "--seed" => p.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => {
                p.seconds = v.parse().map_err(|_| bad())?;
                if !(p.seconds > 0.0 && p.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                p.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => {
                p.connections = v.parse().map_err(|_| bad())?;
                if p.connections == 0 || p.connections > nproc {
                    return Err(format!(
                        "`--connections {v}`: must be 1..={nproc} (the machine's parallelism)"
                    ));
                }
            }
        }
    }
    if p.workload.is_empty() {
        return Err("`--workload` is required".to_string());
    }
    Ok(p)
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", marionette::report::json_escape(s))
}

fn main() -> ExitCode {
    let nproc = nproc();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let params = match parse_args(&args, nproc) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The runner's serial path: sweeps and the annealing explorer run on
    // this thread, so the numbers measure the program, not a scheduler.
    std::env::set_var("MARIONETTE_THREADS", "1");

    let serving = params.workload.starts_with("serve");
    let mut out = match params.workload.as_str() {
        "sweep" => offline::run(offline::Kind::Sweep, &params),
        "heal" => offline::run(offline::Kind::Heal, &params),
        "serve-hot" => serve::run(serve::Kind::Hot, &params),
        _ => serve::run(serve::Kind::Cold, &params),
    };
    if !params.trace {
        match peak_rss_mb() {
            Ok(mb) => out.metrics.push(Metric::new("peak_rss_mb", mb, "MB")),
            Err(e) => out.errors.push(e),
        }
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.errors.push(format!("{} is not finite", m.name));
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: error: {e}");
    }

    let (connections, workers) = if serving {
        (params.connections, params.connections)
    } else {
        (0, 0)
    };
    let errors: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
    let raw: Vec<String> = out
        .raw
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"run\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"connections\": {connections}, \"server_workers\": {workers}, \"sweep_threads\": {}, \"latency_samples\": {}, \"traced_ops\": {}, \"raw\": {{{}}}, \"errors\": [{}]}}}}",
        json_str(&params.workload),
        params.seed,
        params.seconds,
        u8::from(params.trace),
        marionette::parallel::sweep_threads(),
        out.samples,
        out.traced_ops,
        raw.join(", "),
        errors.join(", ")
    );
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_follow_the_grammar() {
        let mut names: Vec<&str> = Vec::new();
        for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(n), "metric name `{n}`");
            assert!(unit_ok(u), "unit `{u}` of `{n}`");
            assert!(!names.contains(&n), "metric `{n}` listed twice");
            names.push(n);
        }
        for w in WORKLOADS {
            assert!(name_ok(w), "workload name `{w}`");
        }
        assert!(!name_ok("p99 us") && !name_ok("_x") && !name_ok("a/b"));
    }

    /// The metric lists here and in `BENCHMARK.json` are the same, in
    /// the same order, with the same units.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let body = text.split(&format!("\"{key}\": [")).nth(1).expect(key);
            let body = body.split(']').next().expect(key);
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let get = |k: &str| {
                        let v = entry.split(&format!("\"{k}\": \"")).nth(1).expect(k);
                        v.split('"').next().expect(k).to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = text
            .split("\"workloads\": [")
            .nth(1)
            .expect("workloads")
            .split(']')
            .next()
            .expect("workloads")
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn configurations_beyond_nproc_are_usage_errors() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(str::to_string).collect() };
        assert!(parse_args(&args("--workload serve-hot --connections 2"), 2).is_ok());
        let e = parse_args(&args("--workload serve-hot --connections 3"), 2).unwrap_err();
        assert!(e.contains("1..=2"), "{e}");
        assert!(parse_args(&args("--workload serve-hot --connections 0"), 2).is_err());
        assert!(parse_args(&args("--workload nope"), 2).is_err());
        assert!(parse_args(&args("--workload sweep --seed 1 --seed 2"), 2).is_err());
        assert!(parse_args(&args("--workload sweep --trace 2"), 2).is_err());
        assert!(parse_args(&args("--seed 1"), 2).is_err());
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        assert!(out.correct());
        out.failed = 1;
        assert!(!out.correct());
        let mut out = Outcome::default();
        out.push_percentile("p90_us", &[1.0; 50], 0.9);
        assert!(!out.correct(), "an unsupported percentile is an error");
    }
}
