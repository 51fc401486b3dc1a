//! Typed kernel failures must surface through the runner as
//! `RunnerError::Kernel`, not panics: a workload missing a size or array
//! (the fuzzing / external-workload case) fails gracefully.

use marionette::cdfg::Cdfg;
use marionette::kernels::traits::{Golden, Kernel, KernelError, Scale, Workload};
use marionette::runner::{run_kernel, RunnerError};

/// A kernel whose workload generator "forgets" entries, simulating an
/// externally-supplied (fuzzed) workload.
struct Amnesiac {
    drop_size: bool,
}

impl Kernel for Amnesiac {
    fn name(&self) -> &'static str {
        "Amnesiac"
    }
    fn short(&self) -> &'static str {
        "AMN"
    }
    fn domain(&self) -> &'static str {
        "test"
    }
    fn workload(&self, _scale: Scale, _seed: u64) -> Workload {
        let mut wl = Workload {
            arrays: vec![],
            sizes: vec![("n".into(), 4)],
        };
        if self.drop_size {
            wl.sizes.clear();
        }
        wl
    }
    fn build(&self, wl: &Workload) -> Result<Cdfg, KernelError> {
        let n = wl.size("n")? as i32;
        let mut b = marionette::cdfg::builder::CdfgBuilder::new("amnesiac");
        let zero = b.imm(0);
        let outs = b.for_range(0, n, &[zero], |b, i, v| vec![b.add(v[0], i)]);
        b.sink("s", outs[0]);
        Ok(b.finish())
    }
    fn golden(&self, wl: &Workload) -> Result<Golden, KernelError> {
        let n = wl.size("n")?;
        let sum: i32 = (0..n as i32).sum();
        Ok(Golden {
            arrays: vec![],
            sinks: vec![("s".into(), vec![marionette::cdfg::value::Value::I32(sum)])],
        })
    }
}

#[test]
fn missing_size_surfaces_as_runner_error() {
    let arch = marionette::arch::marionette_full();
    let err = run_kernel(
        &Amnesiac { drop_size: true },
        &arch,
        Scale::Tiny,
        0,
        1_000_000,
    )
    .expect_err("must fail");
    match &err {
        RunnerError::Kernel(KernelError::MissingSize(n)) => assert_eq!(n, "n"),
        other => panic!("expected RunnerError::Kernel(MissingSize), got {other}"),
    }
    assert!(err.to_string().contains("missing size"));
}

#[test]
fn intact_workload_runs_end_to_end() {
    let arch = marionette::arch::marionette_full();
    let run = run_kernel(
        &Amnesiac { drop_size: false },
        &arch,
        Scale::Tiny,
        0,
        1_000_000,
    )
    .expect("runs");
    assert!(run.verified);
}

#[test]
fn bitstream_decode_failure_is_a_typed_runner_error() {
    use marionette::isa::bitstream::BitstreamError;
    let err = RunnerError::from(BitstreamError::Truncated);
    assert!(matches!(
        err,
        RunnerError::Bitstream(BitstreamError::Truncated)
    ));
    assert_eq!(err.to_string(), "bitstream: truncated bitstream");
}
