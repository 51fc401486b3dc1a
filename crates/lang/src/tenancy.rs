//! Multi-kernel tenancy orchestration: N source programs, one fabric.
//!
//! [`run_tenancy`] is the full-stack driver for spatial sharding: each
//! tenant's CDFG is compiled on its **partition's own dimensions** (so
//! its mapping and control timing are bit-identical to a solo run on an
//! equal-sized fabric), the per-partition bitstreams are merged into a
//! validated [`marionette::isa::MultiTenantImage`] (typed rejection of
//! overlap, escape and cross-partition routes), the programs decoded
//! from the merged image are simulated tenant-per-partition with
//! isolated wedge detection, and every *completed* tenant is
//! bit-verified against its own reference interpretation — arrays,
//! sinks, out-of-bounds events and firing counts, exactly like a solo
//! [`crate::driver::run_preset`]. See `docs/PARTITIONING.md` for the
//! semantics.
//!
//! ## Why per-partition simulation is exact, not an approximation
//!
//! The merged image proves (by type) that partitions are disjoint
//! rectangles and that no tenant's placements or route paths leave its
//! own partition — there is no shared PE, link, control network or
//! memory port between tenants. The composed transition system of the
//! full fabric therefore **factors into the product of the per-partition
//! machines**: no event in one partition can enable, block or reorder an
//! event in another, so simulating each factor independently and taking
//! the cycle-wise union is bit-identical to stepping one monolithic
//! machine hosting all tenants. Each partition therefore runs on its
//! own freshly built machine, sharing no state with its neighbours —
//! which is what makes each co-resident tenant *bit-identical to a solo
//! run on an equal-sized fabric*, the property the tenancy test suite
//! pins for all presets.
//!
//! Isolation of failure follows from the same factorization: a tenant
//! that wedges (deadlock or cycle-budget exhaustion) reports its own
//! typed [`SimError`] as [`TenantOutcome::Wedged`] while its neighbours
//! run to completion unperturbed.

use crate::driver::{compile_preset, Compiled, DriverError, PresetRun, Reference};
use marionette::compiler::{Partition, PlaceError};
use marionette::isa::{MultiTenantImage, TenantImage};
use marionette::pipeline::{Oracle, PipelineError};
use marionette::sim::{self, RunResult, SimError};
use marionette_arch::Architecture;
use marionette_cdfg::{Cdfg, Value};

/// One tenant of a partitioned fabric: a program, its reference
/// semantics, a preset instantiated on the **partition's** dims, and
/// the partition it owns.
pub struct TenantJob<'a> {
    /// Tenant label (kernel tag, program name, …).
    pub name: String,
    /// The tenant's CDFG.
    pub g: &'a Cdfg,
    /// The tenant's reference interpretation (both steering modes).
    pub reference: &'a Reference,
    /// Preset instance normalized to the partition's dimensions — use
    /// [`marionette_arch::preset_for_partition`].
    pub arch: &'a Architecture,
    /// The rectangle of the host fabric this tenant owns.
    pub partition: Partition,
    /// Scalar parameter overrides.
    pub overrides: Vec<(String, Value)>,
    /// Per-tenant cycle budget (wedge detection is per partition).
    pub max_cycles: u64,
}

/// How one tenant's run ended.
#[derive(Clone, Debug)]
pub enum TenantOutcome {
    /// The tenant ran to quiescence and bit-matched its reference.
    Completed(PresetRun),
    /// The tenant wedged (deadlock / cycle budget) — its own typed
    /// error, reported without poisoning neighbouring tenants.
    Wedged(SimError),
}

impl TenantOutcome {
    /// The completed run, when there is one.
    pub fn run(&self) -> Option<&PresetRun> {
        match self {
            TenantOutcome::Completed(r) => Some(r),
            TenantOutcome::Wedged(_) => None,
        }
    }
}

/// One tenant's slice of a [`TenancyReport`].
#[derive(Clone, Debug)]
pub struct TenantRun {
    /// Tenant label.
    pub name: String,
    /// The partition, in `RxC@r,c` syntax.
    pub partition: String,
    /// How the run ended.
    pub outcome: TenantOutcome,
}

/// The verified result of co-running N tenants on one fabric.
#[derive(Clone, Debug)]
pub struct TenancyReport {
    /// Host-fabric rows.
    pub rows: u8,
    /// Host-fabric columns.
    pub cols: u8,
    /// Per-tenant results, in job order.
    pub tenants: Vec<TenantRun>,
    /// Fabric makespan: the latest cycle any partition is occupied.
    pub makespan_cycles: u64,
    /// Node firings summed over completed tenants.
    pub total_fires: u64,
}

impl TenancyReport {
    /// True when every tenant completed and verified.
    pub fn all_completed(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| matches!(t.outcome, TenantOutcome::Completed(_)))
    }
}

/// Compiles, merges, simulates and verifies N tenants on one
/// `rows`×`cols` host fabric.
///
/// Each tenant compiles on its partition's own dims ([`compile_preset`]
/// with the job's partition-normalized preset), so its bitstream —
/// and therefore its simulated cycle count — is bit-identical to a solo
/// run on an equal-sized fabric. The merge step re-validates the
/// layout and every bitstream's containment; the simulation step runs
/// each partition as an isolated machine factor.
///
/// # Errors
/// Returns [`DriverError::Partition`] for an invalid layout,
/// [`DriverError::Image`] for an un-mergeable bitstream set, a
/// [`DriverError::Compile`]/[`DriverError::Bitstream`] from a tenant's
/// compile, or [`DriverError::Mismatch`] when a *completed* tenant
/// diverges from its reference. A tenant that merely wedges is not an
/// error: it comes back as [`TenantOutcome::Wedged`].
pub fn run_tenancy(
    rows: u8,
    cols: u8,
    jobs: &[TenantJob<'_>],
) -> Result<TenancyReport, DriverError> {
    use marionette::compiler::{FabricDims, PartitionMap};
    // Validate the layout first: typed overlap/out-of-fabric rejection.
    let parts: Vec<Partition> = jobs.iter().map(|j| j.partition).collect();
    let _map = PartitionMap::new(FabricDims::new(usize::from(rows), usize::from(cols)), parts)
        .map_err(DriverError::Partition)?;

    // Compile every tenant at its partition's dims (solo-equivalent).
    let mut compiled: Vec<Compiled> = Vec::with_capacity(jobs.len());
    let mut slots: Vec<TenantImage> = Vec::with_capacity(jobs.len());
    for j in jobs {
        let dims = j.partition.dims();
        assert_eq!(
            j.arch.fabric(),
            dims,
            "tenant {}: preset must be instantiated on its partition's dims",
            j.name
        );
        let c = compile_preset(j.g, j.arch)?;
        // The layout check above bounds every partition by the u8 host
        // fabric, so these only fail on a broken invariant.
        let byte = |n: usize| {
            u8::try_from(n).map_err(|_| DriverError::Compile {
                preset: j.arch.short.to_string(),
                e: PlaceError::FabricTooLarge {
                    rows: dims.rows,
                    cols: dims.cols,
                },
            })
        };
        slots.push(TenantImage {
            name: j.name.clone(),
            rows: byte(dims.rows)?,
            cols: byte(dims.cols)?,
            row0: byte(j.partition.row0)?,
            col0: byte(j.partition.col0)?,
            bitstream: c.bitstream.clone(),
        });
        compiled.push(c);
    }

    // Merge into one image: typed cross-partition-route rejection.
    let image = MultiTenantImage::merge(rows, cols, slots).map_err(DriverError::Image)?;

    // Simulate the programs decoded from the merged image — so the
    // image itself is what runs — each partition an isolated machine
    // factor. Completed tenants are verified against their own
    // references; wedged tenants keep their typed error.
    let progs = image.tenant_programs().map_err(DriverError::Image)?;
    let mut tenants = Vec::with_capacity(jobs.len());
    let (mut makespan_cycles, mut total_fires) = (0, 0);
    for (((j, c), prog), slot) in jobs.iter().zip(&compiled).zip(&progs).zip(image.tenants()) {
        let result = sim::run(
            prog,
            &j.arch.tm,
            &j.g.array_inputs(),
            &j.overrides,
            j.max_cycles,
        );
        makespan_cycles = makespan_cycles.max(occupied_cycles(&result));
        let outcome = match result {
            Ok(r) => {
                j.reference
                    .check(j.g, j.arch, &c.prog, &r)
                    .map_err(|m| DriverError::stage(&j.name, PipelineError::Verify(m)))?;
                total_fires += r.stats.fires;
                TenantOutcome::Completed(PresetRun::new(j.name.clone(), &r, &c.report))
            }
            Err(e) => TenantOutcome::Wedged(e),
        };
        tenants.push(TenantRun {
            name: j.name.clone(),
            partition: slot.partition_spec(),
            outcome,
        });
    }
    Ok(TenancyReport {
        rows,
        cols,
        tenants,
        makespan_cycles,
        total_fires,
    })
}

/// Cycles a tenant occupied its partition: the run length when it
/// completed, the wedge cycle on deadlock, the exhausted budget on
/// cycle-limit, zero when the machine never constructed.
fn occupied_cycles(result: &Result<RunResult, SimError>) -> u64 {
    match result {
        Ok(r) => r.stats.cycles,
        Err(SimError::Deadlock { cycle, .. }) => *cycle,
        Err(SimError::CycleLimit { limit }) => *limit,
        Err(_) => 0,
    }
}
