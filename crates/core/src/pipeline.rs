//! The verified pipeline, written once: compile → configuration
//! bitstream round-trip → cycle-level simulation → verification against
//! an [`Oracle`].
//!
//! Every front end shares this mechanism and differs only in policy:
//!
//! - the kernel runner ([`crate::runner`]) verifies against a kernel's
//!   [`Golden`] outputs;
//! - the `.mar` driver, the `mard` server, tenancy and the differential
//!   fuzzer verify against the interpreter [`Reference`].
//!
//! [`Stages`] is the one production [`HealStages`] implementation, so
//! the self-heal policy ([`crate::runner::self_heal`]) drives every
//! caller through the same compile and simulate code. Every simulation
//! builds its own machine, so independent runs share no state.

use crate::runner::{compile_for_arch_with_faults, HealStages};
use marionette_arch::Architecture;
use marionette_cdfg::interp::InterpResult;
use marionette_cdfg::memory::Memory;
use marionette_cdfg::value::{compare_sink_maps, stream_mismatch, Value};
use marionette_cdfg::Cdfg;
use marionette_compiler::{CompileReport, PlaceError};
use marionette_isa::bitstream::{self, BitstreamError};
use marionette_isa::MachineProgram;
use marionette_kernels::traits::Golden;
use marionette_kernels::verify::check_vs_golden;
use marionette_sim::{run_with, FaultSet, RunResult, RunSpec, SimError};
use std::collections::HashMap;

/// A compiled, bitstream-round-tripped artifact: the unit the `mard`
/// content-addressed cache stores and replays. `prog` is the *decoded*
/// form of `bitstream`, so simulating it exercises exactly what a cold
/// full-stack run would.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Decoded machine program (what the simulator runs).
    pub prog: MachineProgram,
    /// Encoded configuration bitstream (what a cache persists; decoding
    /// these bytes yields `prog`).
    pub bitstream: Vec<u8>,
    /// Compilation report (route stats, search report).
    pub report: CompileReport,
}

/// Compiles `g` for `arch` around `avoid` ([`compile_for_arch_with_faults`])
/// and round-trips the configuration bitstream: the one place a program
/// is compiled for simulation.
///
/// # Errors
/// [`PipelineError::Compile`] when the program does not fit, or
/// [`PipelineError::Bitstream`] when the bitstream does not decode.
pub fn compile(g: &Cdfg, arch: &Architecture, avoid: &FaultSet) -> Result<Compiled, PipelineError> {
    let (prog, report) =
        compile_for_arch_with_faults(g, arch, avoid).map_err(PipelineError::Compile)?;
    let bitstream = bitstream::encode(&prog);
    let prog = bitstream::decode(&bitstream).map_err(PipelineError::Bitstream)?;
    Ok(Compiled {
        prog,
        bitstream,
        report,
    })
}

/// What part of a run an [`Oracle`] found wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MismatchKind {
    /// An array's final contents (or an array missing from the run).
    Array,
    /// A sink stream.
    Sink,
    /// The out-of-bounds event count.
    Oob,
    /// The firing count.
    Fires,
}

/// An oracle's verdict on a run that does not match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// What differed.
    pub kind: MismatchKind,
    /// The first difference, in the oracle's words.
    pub detail: String,
    /// Array and sink elements found different (the kernel golden caps
    /// its count; the interpreter reference stops at the first); zero
    /// for count mismatches.
    pub count: usize,
}

/// The bar a simulated run must meet.
pub trait Oracle {
    /// Checks run `r` of `prog` (compiled from `g`) on `arch`.
    ///
    /// # Errors
    /// Returns the first [`Mismatch`].
    fn check(
        &self,
        g: &Cdfg,
        arch: &Architecture,
        prog: &MachineProgram,
        r: &RunResult,
    ) -> Result<(), Mismatch>;
}

/// The kernel oracle: every golden output array and sink stream (within
/// the kernels' float tolerance), and no out-of-bounds access.
impl Oracle for Golden {
    fn check(
        &self,
        g: &Cdfg,
        _: &Architecture,
        _: &MachineProgram,
        r: &RunResult,
    ) -> Result<(), Mismatch> {
        let mismatches = check_vs_golden(
            g,
            self,
            |arr| r.memory[arr.0 as usize].clone(),
            |name| r.sinks.get(name).cloned().unwrap_or_default(),
        )
        .map_err(|e| Mismatch {
            kind: MismatchKind::Array,
            detail: e.to_string(),
            count: 1,
        })?;
        match mismatches.first() {
            // Arrays are compared before sinks, whose sites say `sink`.
            Some(first) => Err(Mismatch {
                kind: if first.site.starts_with("sink ") {
                    MismatchKind::Sink
                } else {
                    MismatchKind::Array
                },
                detail: first.to_string(),
                count: mismatches.len(),
            }),
            None if r.oob_events > 0 => Err(Mismatch {
                kind: MismatchKind::Oob,
                detail: format!("{} out-of-bounds accesses", r.oob_events),
                count: 0,
            }),
            None => Ok(()),
        }
    }
}

/// A program's reference semantics: both interpreter steering modes.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Dropping-mode interpretation (the specification).
    pub dropping: InterpResult,
    /// Predicated-mode interpretation (fires both branch sides).
    pub predicated: InterpResult,
}

impl Reference {
    /// This reference without what [`Oracle::check`] never reads: the
    /// predicated run's memory and sinks (its firing count stays). For
    /// callers that keep a reference to verify later runs against.
    #[must_use]
    pub fn into_oracle(self) -> Reference {
        Reference {
            dropping: self.dropping,
            predicated: InterpResult {
                sinks: HashMap::new(),
                memory: Memory::default(),
                firings: self.predicated.firings,
            },
        }
    }
}

/// The interpreter oracle: every array and sink stream bit for bit, the
/// out-of-bounds event count, and the firing count of the preset's own
/// steering mode (predicated presets fire both branch sides).
impl Oracle for Reference {
    fn check(
        &self,
        g: &Cdfg,
        arch: &Architecture,
        prog: &MachineProgram,
        r: &RunResult,
    ) -> Result<(), Mismatch> {
        let differs = |kind, detail| Mismatch {
            kind,
            detail,
            count: usize::from(matches!(kind, MismatchKind::Array | MismatchKind::Sink)),
        };
        for arr in &g.arrays {
            let id = g.array_by_name(&arr.name).expect("declared");
            let got = r.array(prog, &arr.name).ok_or_else(|| {
                differs(
                    MismatchKind::Array,
                    format!("array {} missing from the simulation", arr.name),
                )
            })?;
            if let Some(m) = stream_mismatch(self.dropping.memory.array(id), got) {
                return Err(differs(
                    MismatchKind::Array,
                    format!("array {}{m}", arr.name),
                ));
            }
        }
        compare_sink_maps(&self.dropping.sinks, &r.sinks)
            .map_err(|d| differs(MismatchKind::Sink, d))?;
        let oob = self.dropping.memory.oob_events();
        if r.oob_events != oob {
            return Err(differs(
                MismatchKind::Oob,
                format!(
                    "interp saw {oob} out-of-bounds events, sim {}",
                    r.oob_events
                ),
            ));
        }
        let fires = if arch.tm.predicated_branches {
            self.predicated.firings
        } else {
            self.dropping.firings
        };
        if r.stats.fires != fires {
            return Err(differs(
                MismatchKind::Fires,
                format!("interp fired {fires} times, sim fired {}", r.stats.fires),
            ));
        }
        Ok(())
    }
}

/// A pipeline stage failure; front ends map it onto their own errors.
#[derive(Debug)]
pub enum PipelineError {
    /// Placement/routing failed.
    Compile(PlaceError),
    /// The configuration bitstream did not decode back into a program.
    Bitstream(BitstreamError),
    /// Simulation failed.
    Sim(SimError),
    /// The run does not match its oracle.
    Verify(Mismatch),
}

/// The compile and simulate stages for one program on one preset,
/// verifying every run against `oracle`.
pub struct Stages<'a, O: ?Sized> {
    g: &'a Cdfg,
    oracle: &'a O,
    arch: &'a Architecture,
    inputs: Vec<(String, Vec<Value>)>,
    params: &'a [(String, Value)],
    /// Compiles run so far: a second one is the self-heal remap.
    pub compiles: usize,
}

impl<'a, O: Oracle + ?Sized> Stages<'a, O> {
    /// Stages running `g` with its declared array inputs and `params`
    /// overrides on `arch`, checked against `oracle`.
    pub fn new(
        g: &'a Cdfg,
        oracle: &'a O,
        arch: &'a Architecture,
        params: &'a [(String, Value)],
    ) -> Self {
        Stages {
            g,
            oracle,
            arch,
            inputs: g.array_inputs(),
            params,
            compiles: 0,
        }
    }
}

impl<O: Oracle + ?Sized> HealStages for Stages<'_, O> {
    type Artifact = Compiled;
    type Run = RunResult;
    type Error = PipelineError;

    fn compile(
        &mut self,
        arch: &Architecture,
        avoid: &FaultSet,
    ) -> Result<Compiled, PipelineError> {
        self.compiles += 1;
        compile(self.g, arch, avoid)
    }

    fn simulate(
        &mut self,
        compiled: &Compiled,
        spec: &mut RunSpec<'_>,
    ) -> Result<RunResult, PipelineError> {
        let r = run_with(
            &compiled.prog,
            &self.arch.tm,
            &self.inputs,
            self.params,
            spec,
        )
        .map_err(PipelineError::Sim)?;
        self.oracle
            .check(self.g, self.arch, &compiled.prog, &r)
            .map_err(PipelineError::Verify)?;
        Ok(r)
    }

    fn sim_error(e: &PipelineError) -> Option<&SimError> {
        match e {
            PipelineError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marionette_cdfg::interp::{interpret, ExecMode};
    use marionette_kernels::traits::Scale;

    /// LDPC-app on the full Marionette preset: one real, verified run
    /// whose outputs include both an array and a sink stream.
    struct Fixture {
        g: Cdfg,
        golden: Golden,
        reference: Reference,
        arch: Architecture,
        compiled: Compiled,
        run: RunResult,
    }

    fn fixture() -> Fixture {
        let k = marionette_kernels::by_short("LDPC-APP").unwrap();
        let wl = k.workload(Scale::Tiny, 7);
        let golden = k.golden(&wl).unwrap();
        let g = k.build(&wl).unwrap();
        let reference = Reference {
            dropping: interpret(&g, ExecMode::Dropping, &[]).unwrap(),
            predicated: interpret(&g, ExecMode::Predicated, &[]).unwrap(),
        };
        let arch = marionette_arch::marionette_full();
        let compiled = compile(&g, &arch, &FaultSet::none()).unwrap();
        let run = run_with(
            &compiled.prog,
            &arch.tm,
            &g.array_inputs(),
            &[],
            &mut RunSpec::new(crate::runner::DEFAULT_MAX_CYCLES),
        )
        .unwrap();
        assert!(!golden.arrays.is_empty() && !golden.sinks.is_empty());
        Fixture {
            g,
            golden,
            reference,
            arch,
            compiled,
            run,
        }
    }

    impl Fixture {
        fn check(&self, oracle: &dyn Oracle, r: &RunResult) -> Result<(), Mismatch> {
            oracle.check(&self.g, &self.arch, &self.compiled.prog, r)
        }

        /// The real run with one tampering applied.
        fn tampered(&self, f: impl FnOnce(&Self, &mut RunResult)) -> RunResult {
            let mut r = self.run.clone();
            f(self, &mut r);
            r
        }

        fn flip_array(&self, r: &mut RunResult) {
            let name = &self.golden.arrays[0].0;
            let i = self
                .compiled
                .prog
                .arrays
                .iter()
                .position(|a| &a.name == name)
                .unwrap();
            assert_eq!(Some(i as u32), self.g.array_by_name(name).map(|id| id.0));
            r.memory[i][0] = match r.memory[i][0] {
                Value::I32(x) => Value::I32(!x),
                Value::F32(x) => Value::F32(-x - 1.0),
                other => panic!("unexpected array value {other:?}"),
            };
        }

        fn drop_sink(&self, r: &mut RunResult) {
            let name = &self.golden.sinks[0].0;
            r.sinks.get_mut(name).unwrap().pop().unwrap();
        }
    }

    fn kind(r: Result<(), Mismatch>) -> MismatchKind {
        r.expect_err("a tampered run must be rejected").kind
    }

    #[test]
    fn golden_passes_a_real_run_and_rejects_tampered_ones() {
        let f = fixture();
        let o = &f.golden;
        f.check(o, &f.run).unwrap();
        let r = f.tampered(Fixture::flip_array);
        assert_eq!(kind(f.check(o, &r)), MismatchKind::Array);
        let r = f.tampered(Fixture::drop_sink);
        assert_eq!(kind(f.check(o, &r)), MismatchKind::Sink);
        let r = f.tampered(|_, r| r.oob_events += 1);
        let m = f.check(o, &r).unwrap_err();
        assert_eq!((m.kind, m.count), (MismatchKind::Oob, 0));
        assert_eq!(m.detail, "1 out-of-bounds accesses");
    }

    #[test]
    fn reference_passes_a_real_run_and_rejects_tampered_ones() {
        let f = fixture();
        let o = &f.reference;
        f.check(o, &f.run).unwrap();
        let r = f.tampered(Fixture::flip_array);
        assert_eq!(kind(f.check(o, &r)), MismatchKind::Array);
        let r = f.tampered(Fixture::drop_sink);
        assert_eq!(kind(f.check(o, &r)), MismatchKind::Sink);
        let r = f.tampered(|_, r| r.oob_events += 1);
        assert_eq!(kind(f.check(o, &r)), MismatchKind::Oob);
        let r = f.tampered(|_, r| r.stats.fires += 1);
        assert_eq!(kind(f.check(o, &r)), MismatchKind::Fires);
        let r = f.tampered(|_, r| r.stats.fires -= 1);
        assert_eq!(kind(f.check(o, &r)), MismatchKind::Fires);
    }

    #[test]
    fn reference_checks_the_firings_of_the_presets_steering_mode() {
        let f = fixture();
        let vn = marionette_arch::presets_by_tags_on(f.arch.fabric(), "vN")
            .unwrap()
            .remove(0);
        assert!(vn.tm.predicated_branches && !f.arch.tm.predicated_branches);
        assert_ne!(
            f.reference.predicated.firings, f.reference.dropping.firings,
            "the fixture must tell the two modes apart"
        );
        let m = f
            .reference
            .check(&f.g, &vn, &f.compiled.prog, &f.run)
            .unwrap_err();
        assert_eq!(m.kind, MismatchKind::Fires);
    }
}
