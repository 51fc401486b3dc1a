//! The one sweep behind the bench CLIs: [`Axes`] (kernels × fabrics ×
//! presets × fault draws, under one search budget) cross into
//! [`Point`]s in row-major order, [`run`] measures them on `par_map`,
//! and a committed snapshot (written with [`Snapshot`]) is gated by
//! [`compare_cycles`] (exact per-point cycles) and [`WallGate`] (the
//! serial greedy wall, normalised by a fixed sort-slice calibration).
//! The snapshots are our own one-object-per-line output, so a line
//! scanner reads them back; the workspace has no JSON dependency.

use marionette::arch::{all_presets_on, presets_by_tags_on, Architecture, FabricDims};
use marionette::compiler::SearchBudget;
use marionette::kernels::traits::Scale;
use marionette::parallel::par_map;
use marionette::report::{num_list, Snapshot};
use marionette::sim::{FaultSet, FaultSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// The workload seed every sweep runs at.
pub const SEED: u64 = 1;

/// Every kernel tag the sweeps cover (the suite plus the LDPC
/// application), narrowed case-insensitively to a `--kernels` list.
pub fn kernel_tags(filter: Option<&[String]>) -> Result<Vec<String>, String> {
    let mut tags: Vec<String> = marionette::kernels::all()
        .iter()
        .map(|k| k.short().to_string())
        .collect();
    tags.push("LDPC-APP".to_string());
    if let Some(want) = filter {
        tags.retain(|t| want.iter().any(|w| w.eq_ignore_ascii_case(t)));
        if tags.is_empty() {
            return Err(format!("no kernels match --kernels {}", want.join(",")));
        }
    }
    Ok(tags)
}

/// The canonical spelling of one kernel tag.
pub fn canonical_kernel(tag: &str) -> Result<String, String> {
    kernel_tags(None)?
        .into_iter()
        .find(|t| t.eq_ignore_ascii_case(tag))
        .ok_or_else(|| format!("`{tag}` is not a kernel tag"))
}

/// The axes of a sweep.
pub struct Axes {
    /// Canonical kernel tags.
    pub kernels: Vec<String>,
    /// Fabrics every preset is instantiated on.
    pub fabrics: Vec<FabricDims>,
    /// A comma list of preset tags (`None`: every preset).
    pub presets: Option<String>,
    /// Faults pinned under every point.
    pub pinned: Vec<FaultSpec>,
    /// Random-fault counts, one draw per count and seed.
    pub fault_counts: Vec<usize>,
    /// Seeds of the random draws (a draw with no fault runs once).
    pub fault_seeds: Vec<u64>,
    /// The budget every point's searched mapping is compiled with, on
    /// top of its greedy one (`None`: greedy only).
    pub search: Option<SearchBudget>,
}

impl Axes {
    /// Healthy axes: no faults.
    pub fn healthy(
        kernels: Vec<String>,
        fabrics: Vec<FabricDims>,
        presets: Option<String>,
    ) -> Self {
        Axes {
            kernels,
            fabrics,
            presets,
            pinned: Vec::new(),
            fault_counts: vec![0],
            fault_seeds: vec![1],
            search: None,
        }
    }

    /// The presets of one fabric (an empty selection is an error).
    pub fn presets_on(&self, dims: FabricDims) -> Result<Vec<Architecture>, String> {
        let archs = match &self.presets {
            None => all_presets_on(dims),
            Some(tags) => presets_by_tags_on(dims, tags)?,
        };
        if archs.is_empty() {
            return Err("empty preset selection".to_string());
        }
        Ok(archs)
    }

    /// Every point, kernel-major, then fabric, preset, fault count and
    /// fault seed; a bad preset or off-fabric pinned fault is an error.
    pub fn points(&self) -> Result<Vec<Point>, String> {
        let grids = self
            .fabrics
            .iter()
            .map(|&d| Ok((d, self.presets_on(d)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let mut out = Vec::new();
        for kernel in &self.kernels {
            for (dims, archs) in &grids {
                for arch in archs {
                    for &n in &self.fault_counts {
                        // A draw without any fault is seed-independent.
                        let fixed = n == 0 && self.pinned.is_empty();
                        let seeds =
                            &self.fault_seeds[..if fixed { 1 } else { self.fault_seeds.len() }];
                        for &seed in seeds {
                            let mut fault_set = FaultSet::new(dims.rows, dims.cols);
                            for &spec in &self.pinned {
                                fault_set.add(spec)?;
                            }
                            fault_set.add_random(n, seed);
                            out.push(Point {
                                kernel: kernel.clone(),
                                fabric: *dims,
                                arch: arch.clone(),
                                faults: n,
                                fault_seed: seed,
                                fault_set,
                            });
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// One sweep point.
#[derive(Clone)]
pub struct Point {
    /// Canonical kernel tag.
    pub kernel: String,
    /// The fabric the preset is instantiated on.
    pub fabric: FabricDims,
    /// The preset.
    pub arch: Architecture,
    /// Random faults drawn for this point.
    pub faults: usize,
    /// Seed of the random draw.
    pub fault_seed: u64,
    /// The pinned faults plus the random draw.
    pub fault_set: FaultSet,
}

impl Point {
    /// `KERNEL on PRESET`, plus the injected faults when there are any.
    pub fn what(&self) -> String {
        if self.fault_set.is_empty() {
            format!("{} on {}", self.kernel, self.arch.short)
        } else {
            format!(
                "{} on {} with [{}]",
                self.kernel, self.arch.short, self.fault_set
            )
        }
    }
}

/// Measures every point on up to `threads` threads: the results in
/// point order (or the first error in point order) and the wall in ms.
pub fn run<T, F>(points: Vec<Point>, threads: usize, f: F) -> Result<(Vec<T>, f64), String>
where
    T: Send,
    F: Fn(&Point) -> Result<T, String> + Sync,
{
    let t0 = Instant::now();
    let results = par_map(points, threads, |p| f(&p))
        .into_iter()
        .collect::<Result<Vec<T>, String>>()?;
    Ok((results, t0.elapsed().as_secs_f64() * 1e3))
}

/// The snapshot name of a problem size.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Extracts the string value of `"key": "..."` from `line`, if present.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Extracts the numeric value of `"key": N` from `line`, if present
/// (stops at the first non-numeric character).
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-' && c != 'e')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The first header field `key` of a snapshot, as a string.
pub fn header_str(json: &str, key: &str) -> Option<String> {
    json.lines().find_map(|l| field_str(l, key))
}

/// One point's cycle count, keyed by kernel, preset and (when the point
/// records it) fabric.
#[derive(Clone, Debug, PartialEq)]
pub struct CyclePoint {
    /// Kernel tag.
    pub kernel: String,
    /// Preset tag.
    pub arch: String,
    /// Fabric, for snapshots whose points record it.
    pub fabric: Option<String>,
    /// Cycle count.
    pub cycles: u64,
}

impl CyclePoint {
    fn key(&self) -> (String, String, Option<String>) {
        (self.kernel.clone(), self.arch.clone(), self.fabric.clone())
    }

    fn name(&self) -> String {
        match &self.fabric {
            None => format!("{} on {}", self.kernel, self.arch),
            Some(f) => format!("{} on {} at {f}", self.kernel, self.arch),
        }
    }
}

/// Parses the per-point records of a snapshot.
pub fn parse_points(json: &str) -> Result<Vec<CyclePoint>, String> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(kernel) = field_str(line, "kernel") else {
            continue;
        };
        let arch =
            field_str(line, "arch").ok_or_else(|| format!("point record without arch: {line}"))?;
        let cycles = field_num(line, "cycles")
            .ok_or_else(|| format!("point record without cycles: {line}"))?
            as u64;
        out.push(CyclePoint {
            kernel,
            arch,
            fabric: field_str(line, "fabric"),
            cycles,
        });
    }
    if out.is_empty() {
        return Err("no point records found (not a sweep snapshot?)".to_string());
    }
    Ok(out)
}

/// Compares fresh cycle counts against a baseline's. With `whole`, the
/// two must cover the same points; otherwise points only one side has
/// are skipped. Returns how many points were compared and the
/// violations (none: the gate passes).
pub fn compare_cycles(
    baseline: &[CyclePoint],
    fresh: &[CyclePoint],
    whole: bool,
) -> (usize, Vec<String>) {
    let base: BTreeMap<_, u64> = baseline.iter().map(|p| (p.key(), p.cycles)).collect();
    let mut violations = Vec::new();
    let mut checked = 0;
    for p in fresh {
        match base.get(&p.key()) {
            None if whole => {
                violations.push(format!("{}: point missing from the baseline", p.name()))
            }
            None => {}
            Some(&want) => {
                checked += 1;
                if want != p.cycles {
                    violations.push(format!(
                        "{}: cycles {} != baseline {} ({:+})",
                        p.name(),
                        p.cycles,
                        want,
                        p.cycles as i64 - want as i64
                    ));
                }
            }
        }
    }
    if whole {
        let seen: std::collections::BTreeSet<_> = fresh.iter().map(CyclePoint::key).collect();
        for p in baseline.iter().filter(|p| !seen.contains(&p.key())) {
            violations.push(format!("{}: point missing from this run", p.name()));
        }
    }
    (checked, violations)
}

/// Repeats of the serial greedy sweep behind a wall-gate measurement.
const GATE_RUNS: usize = 3;

/// Keys sorted by one calibration slice (a 320 KiB working set, like
/// the simulator's).
const SLICE_KEYS: usize = 40_000;

/// Times one calibration slice: a fixed xorshift key stream, sorted.
/// The work never changes with the code under test, so its time tracks
/// only the machine's speed. Returns µs.
fn calibration_slice_us(keys: &mut [u64]) -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for k in keys.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *k = x;
    }
    keys.sort_unstable();
    std::hint::black_box(&keys);
    t.elapsed().as_secs_f64() * 1e6
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A wall-clock measurement two machines can compare. The greedy sweep
/// runs serially three times with a calibration slice before
/// every point; each run's wall (its points only) is divided by the
/// median of its own slices, so load that slows the run's points slows
/// its slices alike, and the gate reads the median of those
/// normalised runs.
#[derive(Clone, Debug, PartialEq)]
pub struct WallGate {
    /// Every run's wall, ms.
    pub walls_ms: Vec<f64>,
    /// Every run's median calibration slice, µs.
    pub slices_us: Vec<f64>,
}

impl WallGate {
    /// Runs `f` over items `0..n` serially, three times.
    pub fn measure(
        n: usize,
        mut f: impl FnMut(usize) -> Result<(), String>,
    ) -> Result<Self, String> {
        let mut keys = vec![0u64; SLICE_KEYS];
        let mut gate = WallGate {
            walls_ms: Vec::with_capacity(GATE_RUNS),
            slices_us: Vec::with_capacity(GATE_RUNS),
        };
        for _ in 0..GATE_RUNS {
            let mut slices = Vec::with_capacity(n);
            let mut wall_ms = 0.0;
            for i in 0..n {
                slices.push(calibration_slice_us(&mut keys));
                let t = Instant::now();
                f(i)?;
                wall_ms += t.elapsed().as_secs_f64() * 1e3;
            }
            gate.walls_ms.push(wall_ms);
            gate.slices_us.push(median(&slices));
        }
        Ok(gate)
    }

    /// Each run's wall in calibration slices.
    fn runs(&self) -> Vec<f64> {
        self.walls_ms
            .iter()
            .zip(&self.slices_us)
            .map(|(w, s)| w * 1e3 / s)
            .collect()
    }

    /// The median normalised run, in calibration slices.
    pub fn normalized(&self) -> f64 {
        median(&self.runs())
    }

    /// The normalised runs' spread: (slowest − fastest) / median.
    pub fn spread(&self) -> f64 {
        let runs = self.runs();
        let max = runs.iter().copied().fold(f64::MIN, f64::max);
        let min = runs.iter().copied().fold(f64::MAX, f64::min);
        (max - min) / median(&runs)
    }

    /// Records the measurement in a snapshot.
    pub fn record(&self, snap: &mut Snapshot) {
        let fmt = |v: &[f64]| num_list(v.iter().map(|x| format!("{x:.3}")));
        snap.field("gate_walls_ms", fmt(&self.walls_ms))
            .field("calib_slices_us", fmt(&self.slices_us))
            .field("gate_spread", format!("{:.4}", self.spread()))
            .field("normalized_wall", format!("{:.3}", self.normalized()));
    }

    /// The normalised wall a snapshot records, if any.
    pub fn recorded(json: &str) -> Option<f64> {
        json.lines().find_map(|l| field_num(l, "normalized_wall"))
    }
}

/// The wall gate: `fresh` may exceed `baseline` (both normalised walls)
/// by at most `tolerance` (a fraction).
pub fn check_wall(baseline: f64, fresh: f64, tolerance: f64) -> Option<String> {
    (fresh > baseline * (1.0 + tolerance)).then(|| {
        format!(
            "normalized greedy wall {fresh:.1} slices regresses >{:.0}% over baseline {baseline:.1} ({:+.1}%)",
            tolerance * 100.0,
            (fresh / baseline - 1.0) * 100.0
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAP: &str = r#"{
  "schema": "marionette.bench_sim/v1",
  "normalized_wall": 80.000,
  "points": [
    {"kernel": "CRC", "arch": "M", "cycles": 123, "fires": 9, "cycles_search": 110, "wall_ms": 40.000},
    {"kernel": "MS", "arch": "vN", "cycles": 456, "fires": 8, "wall_ms": 40.000}
  ]
}"#;

    #[test]
    fn parses_points_and_wall() {
        let pts = parse_points(SNAP).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!((pts[0].kernel.as_str(), pts[0].arch.as_str()), ("CRC", "M"));
        assert_eq!((pts[0].cycles, pts[1].cycles), (123, 456));
        assert_eq!(pts[0].fabric, None);
        assert_eq!(WallGate::recorded(SNAP), Some(80.0));
        assert!(parse_points("{}").is_err());
    }

    #[test]
    fn snapshot_layout_round_trips() {
        let mut s = Snapshot::new("marionette.test/v1");
        s.field("seed", 1)
            .str("fabric", "4x4")
            .rows(
                "points",
                &[r#"{"kernel": "CRC", "arch": "M", "cycles": 7}"#.to_string()],
            )
            .rows("empty", &[]);
        let text = s.render();
        assert_eq!(
            text,
            "{\n  \"schema\": \"marionette.test/v1\",\n  \"seed\": 1,\n  \"fabric\": \"4x4\",\n  \
             \"points\": [\n    {\"kernel\": \"CRC\", \"arch\": \"M\", \"cycles\": 7}\n  ],\n  \
             \"empty\": [\n  ]\n}\n"
        );
        assert_eq!(parse_points(&text).unwrap()[0].cycles, 7);
        assert_eq!(header_str(&text, "fabric").as_deref(), Some("4x4"));
    }

    #[test]
    fn gate_passes_on_identical_runs() {
        let base = parse_points(SNAP).unwrap();
        assert_eq!(compare_cycles(&base, &base, true), (2, vec![]));
        // Faster is fine; slower within tolerance is fine.
        assert_eq!(check_wall(80.0, 80.0, 0.25), None);
        assert_eq!(check_wall(80.0, 60.0, 0.25), None);
        assert_eq!(check_wall(80.0, 99.0, 0.25), None);
    }

    #[test]
    fn gate_catches_cycle_drift() {
        let base = parse_points(SNAP).unwrap();
        let mut fresh = base.clone();
        fresh[0].cycles += 1;
        let (_, v) = compare_cycles(&base, &fresh, true);
        assert_eq!(v, ["CRC on M: cycles 124 != baseline 123 (+1)"]);
    }

    #[test]
    fn gate_catches_missing_points_both_ways() {
        let base = parse_points(SNAP).unwrap();
        let fresh = vec![base[0].clone()];
        let (_, v) = compare_cycles(&base, &fresh, true);
        assert!(v[0].contains("missing from this run"), "{v:?}");
        let (_, v) = compare_cycles(&fresh, &base, true);
        assert!(v[0].contains("missing from the baseline"), "{v:?}");
        // A partial comparison skips them; the fabric is part of the key
        // when points record it.
        assert_eq!(compare_cycles(&base, &fresh, false), (1, vec![]));
        let mut other = fresh.clone();
        other[0].fabric = Some("6x6".into());
        assert_eq!(compare_cycles(&base, &other, false), (0, vec![]));
    }

    #[test]
    fn gate_catches_wall_regression() {
        let v = check_wall(70.0, 100.0, 0.25).expect("43% slower fails");
        assert!(v.contains("regresses >25%"), "{v}");
        assert!(check_wall(80.0, 101.0, 0.25).is_some());
    }

    #[test]
    fn wall_gate_normalizes_each_run_by_its_own_slices() {
        let mut calls = 0;
        let g = WallGate::measure(4, |_| {
            calls += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(calls, 4 * GATE_RUNS);
        assert_eq!(
            (g.walls_ms.len(), g.slices_us.len()),
            (GATE_RUNS, GATE_RUNS)
        );
        assert!(g.slices_us.iter().all(|&s| s > 0.0));
        // A run on a machine twice as slow takes twice the slices' time:
        // its normalised wall is unchanged.
        let g = WallGate {
            walls_ms: vec![12.0, 20.0, 11.0],
            slices_us: vec![500.0, 1000.0, 500.0],
        };
        assert_eq!(g.normalized(), 22.0);
        assert!((g.spread() - 4.0 / 22.0).abs() < 1e-12);
        let mut s = Snapshot::new("x");
        g.record(&mut s);
        assert_eq!(WallGate::recorded(&s.render()), Some(22.0));
        assert!(WallGate::measure(1, |_| Err("boom".into())).is_err());
    }

    #[test]
    fn axes_cross_row_major_and_run_zero_fault_draws_once() {
        let axes = Axes {
            kernels: vec!["CRC".into(), "MS".into()],
            fabrics: vec![FabricDims::paper(), FabricDims::new(6, 6)],
            presets: Some("M,vN".into()),
            pinned: Vec::new(),
            fault_counts: vec![0, 1],
            fault_seeds: vec![1, 2],
            search: None,
        };
        let pts = axes.points().unwrap();
        // 2 kernels x 2 fabrics x 2 presets x (1 + 2) draws.
        assert_eq!(pts.len(), 24);
        let p = &pts[4];
        assert_eq!(
            (p.kernel.as_str(), p.fabric, p.arch.short),
            ("CRC", FabricDims::paper(), "vN")
        );
        assert_eq!((p.faults, p.fault_seed), (1, 1));
        assert_eq!((pts[5].faults, pts[5].fault_seed), (1, 2));
        assert_eq!(pts[12].kernel, "MS");
        assert!(pts[0].fault_set.is_empty() && !pts[1].fault_set.is_empty());
        let (out, _) = run(pts, 2, |p| Ok(p.faults)).unwrap();
        assert_eq!(&out[..3], &[0, 1, 1]);
        let bad = Axes {
            pinned: vec!["pe:9,9".parse().unwrap()],
            ..Axes::healthy(vec!["CRC".into()], vec![FabricDims::paper()], None)
        };
        assert!(bad.points().is_err(), "off-fabric pinned fault");
    }

    #[test]
    fn executor_reports_the_first_error_in_point_order() {
        let axes = Axes::healthy(
            kernel_tags(None).unwrap(),
            vec![FabricDims::paper()],
            Some("M".into()),
        );
        let pts = axes.points().unwrap();
        let r = run(pts, 4, |p| {
            if p.kernel == "CRC" || p.kernel == "FFT" {
                Err(p.kernel.clone())
            } else {
                Ok(())
            }
        });
        let first = kernel_tags(None)
            .unwrap()
            .into_iter()
            .find(|k| k == "CRC" || k == "FFT")
            .unwrap();
        assert_eq!(r.unwrap_err(), first);
    }

    #[test]
    fn kernel_selection_is_case_insensitive() {
        let all = kernel_tags(None).unwrap();
        assert_eq!(all.len(), 14);
        assert_eq!(kernel_tags(Some(&["crc".into()])).unwrap(), ["CRC"]);
        assert!(kernel_tags(Some(&["nope".into()])).is_err());
        assert_eq!(canonical_kernel("ldpc-app").unwrap(), "LDPC-APP");
        assert!(canonical_kernel("x").is_err());
    }
}
