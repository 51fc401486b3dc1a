//! Smoke tests of the experiment harness at small scale: every figure's
//! experiment must run end-to-end, verify outputs, and reproduce the
//! paper's *directional* findings (who wins).

use marionette::experiments::{self, geomean};
use marionette::kernels::traits::Scale;

#[test]
fn fig11_shape() {
    let f = experiments::fig11(Scale::Small, 1).expect("fig11 runs");
    let gm_vn = geomean(&f.speedup_vs_vn);
    let gm_df = geomean(&f.speedup_vs_df);
    println!("fig11 geomeans: vs vN {gm_vn:.3} (paper 1.18), vs DF {gm_df:.3} (paper 1.33)");
    for (k, (svn, sdf)) in f
        .cycles
        .kernels
        .iter()
        .zip(f.speedup_vs_vn.iter().zip(&f.speedup_vs_df))
    {
        println!("  {k:6} vs-vN {svn:.3} vs-DF {sdf:.3}");
    }
    assert!(
        gm_vn > 1.0,
        "Marionette PE must beat von Neumann PE (got {gm_vn:.3})"
    );
    assert!(
        gm_df > 1.0,
        "Marionette PE must beat dataflow PE (got {gm_df:.3})"
    );
}

#[test]
fn fig12_shape() {
    let f = experiments::ladder(Scale::Small, 1)
        .expect("fig12 runs")
        .fig12();
    let gm = geomean(&f.speedup);
    println!("fig12 geomean: {gm:.3} (paper 1.14)");
    for (k, s) in f.cycles.kernels.iter().zip(&f.speedup) {
        println!("  {k:6} {s:.3}");
    }
    assert!(gm >= 1.0, "the control network must not hurt (got {gm:.3})");
}

#[test]
fn fig14_shape() {
    let f = experiments::ladder(Scale::Small, 1)
        .expect("fig14 runs")
        .fig14();
    let gm = geomean(&f.speedup);
    println!("fig14 geomean: {gm:.3} (paper 2.03)");
    for (k, s) in f.cycles.kernels.iter().zip(&f.speedup) {
        println!("  {k:6} {s:.3}");
    }
    assert!(
        gm > 1.0,
        "Agile PE Assignment must win overall (got {gm:.3})"
    );
}

#[test]
fn fig15_shape() {
    let f = experiments::fig15(Scale::Small, 1).expect("fig15 runs");
    for i in 0..f.kernels.len() {
        println!(
            "  {:6} outer {:.3} -> {:.3}   pipe {:.3} -> {:.3}",
            f.kernels[i],
            f.outer_util_before[i],
            f.outer_util_after[i],
            f.pipe_util_before[i],
            f.pipe_util_after[i]
        );
    }
    // Outer-BB PEs must be busier after Agile assignment on average.
    let before: f64 = f.outer_util_before.iter().sum();
    let after: f64 = f.outer_util_after.iter().sum();
    assert!(
        after > before,
        "outer-BB utilization must rise: {before:.3} -> {after:.3}"
    );
}

#[test]
fn fig17_shape() {
    let f = experiments::fig17(Scale::Small, 1).expect("fig17 runs");
    for (a, gm) in &f.geomeans {
        println!("fig17 geomean vs {a}: {gm:.3}");
    }
    for (a, gm) in &f.geomeans {
        assert!(
            *gm > 1.0,
            "Marionette must beat {a} on intensive kernels (got {gm:.3})"
        );
    }
    // Non-intensive kernels must not regress dramatically vs any SOTA.
    let m = &f
        .non_intensive
        .series
        .iter()
        .find(|(a, _)| a == "M")
        .unwrap()
        .1;
    for (a, cyc) in &f.non_intensive.series {
        if a == "M" {
            continue;
        }
        for (i, (&mc, &oc)) in m.iter().zip(cyc).enumerate() {
            assert!(
                (mc as f64) < 1.5 * oc as f64,
                "non-intensive {} on M ({mc}) should not be >1.5x slower than {a} ({oc})",
                f.non_intensive.kernels[i]
            );
        }
    }
}
