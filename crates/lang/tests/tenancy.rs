//! Tenant-isolation guarantees of partitioned multi-kernel tenancy
//! (see `docs/PARTITIONING.md`):
//!
//! 1. every co-resident tenant is **bit-identical** to its solo run on
//!    an equal-sized fabric — cycles and fires — under all 9 presets;
//! 2. a wedging tenant reports its own typed outcome without poisoning
//!    its neighbours;
//! 3. invalid layouts are rejected with typed errors before anything
//!    compiles or runs.

use marionette::arch::{all_presets, preset_for_partition};
use marionette::compiler::{Partition, PartitionError};
use marionette::kernels::traits::Scale;
use marionette::sim::{RunSpec, SimError};
use marionette_cdfg::Cdfg;
use marionette_lang::driver::{reference, run_preset, Reference, INTERP_BUDGET};
use marionette_lang::tenancy::{run_tenancy, TenancyReport, TenantJob, TenantOutcome};
use marionette_lang::DriverError;

const MAX_CYCLES: u64 = 200_000_000;

fn kernel(tag: &str) -> (Cdfg, Reference) {
    let k = marionette::kernels::by_short(tag).expect("kernel tag");
    let wl = k.workload(Scale::Tiny, 7);
    let g = k.build(&wl).expect("kernel builds");
    let r = reference(&g, &[], INTERP_BUDGET).expect("reference interprets");
    (g, r)
}

/// Two 4x4 tenants side by side on a 4x8 host.
fn two_tenant_report(preset: &str, budgets: [u64; 2]) -> Result<TenancyReport, DriverError> {
    let parts = [Partition::new(4, 4, 0, 0), Partition::new(4, 4, 0, 4)];
    let (crc_g, crc_r) = kernel("CRC");
    let (fft_g, fft_r) = kernel("FFT");
    let archs = [
        preset_for_partition(&parts[0], preset).expect("preset tag"),
        preset_for_partition(&parts[1], preset).expect("preset tag"),
    ];
    let jobs = vec![
        TenantJob {
            name: "CRC".to_string(),
            g: &crc_g,
            reference: &crc_r,
            arch: &archs[0],
            partition: parts[0],
            overrides: Vec::new(),
            max_cycles: budgets[0],
        },
        TenantJob {
            name: "FFT".to_string(),
            g: &fft_g,
            reference: &fft_r,
            arch: &archs[1],
            partition: parts[1],
            overrides: Vec::new(),
            max_cycles: budgets[1],
        },
    ];
    run_tenancy(4, 8, &jobs)
}

#[test]
fn tenants_bit_match_solo_runs_under_all_presets() {
    // The central tenancy guarantee, pinned for every preset: a tenant
    // co-resident on a partition of a larger fabric runs bit-identically
    // (cycles AND fires) to a solo run on a fabric of its partition's
    // size. This is what makes partitioned sweep numbers composable
    // with solo sweep numbers.
    let parts = [Partition::new(4, 4, 0, 0), Partition::new(4, 4, 0, 4)];
    let (crc_g, crc_r) = kernel("CRC");
    let (fft_g, fft_r) = kernel("FFT");
    for arch in all_presets() {
        let tag = arch.short;
        let report = two_tenant_report(tag, [MAX_CYCLES, MAX_CYCLES])
            .unwrap_or_else(|e| panic!("{tag}: tenancy failed: {e}"));
        assert!(report.all_completed(), "{tag}: a tenant wedged");
        let solo_archs = [
            preset_for_partition(&parts[0], tag).unwrap(),
            preset_for_partition(&parts[1], tag).unwrap(),
        ];
        let mut spec = RunSpec::new(MAX_CYCLES);
        let solos = [
            run_preset(&crc_g, &crc_r, &solo_archs[0], &[], &mut spec)
                .unwrap_or_else(|e| panic!("{tag}: CRC solo failed: {e}"))
                .run,
            run_preset(&fft_g, &fft_r, &solo_archs[1], &[], &mut spec)
                .unwrap_or_else(|e| panic!("{tag}: FFT solo failed: {e}"))
                .run,
        ];
        for (t, solo) in report.tenants.iter().zip(&solos) {
            let run = t.outcome.run().expect("completed");
            assert_eq!(
                (run.cycles, run.fires),
                (solo.cycles, solo.fires),
                "{tag}: tenant {} diverges from its solo run",
                t.name
            );
        }
        assert_eq!(
            report.makespan_cycles,
            solos.iter().map(|s| s.cycles).max().unwrap(),
            "{tag}: makespan must be the max tenant cycle count"
        );
    }
}

#[test]
fn wedged_tenant_does_not_poison_neighbours() {
    // Starve the CRC tenant with a 5-cycle budget: it must come back as
    // its own typed CycleLimit outcome while the FFT tenant completes
    // and still bit-verifies against its reference.
    let report = two_tenant_report("M", [5, MAX_CYCLES]).expect("tenancy runs");
    assert!(!report.all_completed());
    match &report.tenants[0].outcome {
        TenantOutcome::Wedged(SimError::CycleLimit { limit }) => assert_eq!(*limit, 5),
        other => panic!("expected CycleLimit wedge, got {other:?}"),
    }
    let fft = report.tenants[1].outcome.run().expect("FFT completes");
    assert!(fft.cycles > 0 && fft.fires > 0);
    // The wedged tenant still occupies its partition up to the budget.
    assert!(report.makespan_cycles >= fft.cycles);
}

#[test]
fn overlapping_layout_is_rejected_typed() {
    let parts = [Partition::new(4, 4, 0, 0), Partition::new(4, 4, 0, 2)];
    let (crc_g, crc_r) = kernel("CRC");
    let (fft_g, fft_r) = kernel("FFT");
    let archs = [
        preset_for_partition(&parts[0], "M").unwrap(),
        preset_for_partition(&parts[1], "M").unwrap(),
    ];
    let jobs = vec![
        TenantJob {
            name: "CRC".to_string(),
            g: &crc_g,
            reference: &crc_r,
            arch: &archs[0],
            partition: parts[0],
            overrides: Vec::new(),
            max_cycles: MAX_CYCLES,
        },
        TenantJob {
            name: "FFT".to_string(),
            g: &fft_g,
            reference: &fft_r,
            arch: &archs[1],
            partition: parts[1],
            overrides: Vec::new(),
            max_cycles: MAX_CYCLES,
        },
    ];
    match run_tenancy(4, 8, &jobs) {
        Err(DriverError::Partition(PartitionError::Overlap { .. })) => {}
        other => panic!("expected typed Overlap rejection, got {other:?}"),
    }
}

#[test]
fn off_fabric_layout_is_rejected_typed() {
    let part = Partition::new(4, 4, 0, 4);
    let (crc_g, crc_r) = kernel("CRC");
    let arch = preset_for_partition(&part, "M").unwrap();
    let jobs = vec![TenantJob {
        name: "CRC".to_string(),
        g: &crc_g,
        reference: &crc_r,
        arch: &arch,
        partition: part,
        overrides: Vec::new(),
        max_cycles: MAX_CYCLES,
    }];
    // 4x6 host: the partition's columns 4..8 spill off the fabric.
    match run_tenancy(4, 6, &jobs) {
        Err(DriverError::Partition(PartitionError::OutOfFabric { .. })) => {}
        other => panic!("expected typed OutOfFabric rejection, got {other:?}"),
    }
}
