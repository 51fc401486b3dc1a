//! Co-resident tenant execution over a partitioned fabric.
//!
//! [`run_tenants`] simulates every tenant of a validated
//! [`MultiTenantImage`] and composes the results into one
//! [`TenancyRun`] with per-partition cycle/stall/throughput attribution
//! and a fabric-level makespan.
//!
//! ## Why this is exact, not an approximation
//!
//! The merged image proves (by type) that partitions are disjoint
//! rectangles and that no tenant's placements or route paths leave its
//! own partition — there is no shared PE, link, control network or
//! memory port between tenants. The composed transition system of the
//! full fabric therefore **factors into the product of the per-partition
//! machines**: no event in one partition can enable, block or reorder an
//! event in another, so simulating each factor independently and taking
//! the cycle-wise union is bit-identical to stepping one monolithic
//! machine hosting all tenants. Each partition is therefore run on its
//! own freshly built machine, sharing no state with its neighbours —
//! which is what makes each co-resident tenant *bit-identical to a solo
//! run on an equal-sized fabric*, the property the tenancy test suite
//! pins for all presets.
//!
//! Isolation of failure follows from the same factorization: a tenant
//! that wedges (deadlock or cycle-budget exhaustion) reports its own
//! typed [`SimError`] in its [`TenantOutcome`] while its neighbours run
//! to completion unperturbed.

use crate::fault::FaultSet;
use crate::machine::{run_full, EngineKind, RunResult, SimError};
use crate::timing::TimingModel;
use marionette_cdfg::value::Value;
use marionette_isa::image::{ImageError, MultiTenantImage};
use std::fmt;

/// One tenant's workload: array contents, parameter overrides, and a
/// per-tenant cycle budget (wedge detection is per partition).
#[derive(Clone, Debug, Default)]
pub struct TenantWorkload {
    /// Array contents by name (missing arrays zero-fill).
    pub inputs: Vec<(String, Vec<Value>)>,
    /// Scalar parameter overrides by name.
    pub params: Vec<(String, Value)>,
    /// Cycle budget for this tenant alone.
    pub max_cycles: u64,
}

/// Why a tenancy run could not start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TenancyError {
    /// The image failed re-validation (decode or containment).
    Image(ImageError),
    /// The workload count does not match the tenant count.
    WorkloadCount {
        /// Tenants in the image.
        tenants: usize,
        /// Workloads supplied.
        workloads: usize,
    },
    /// The timing-model count does not match the tenant count.
    TimingCount {
        /// Tenants in the image.
        tenants: usize,
        /// Timing models supplied.
        timings: usize,
    },
}

impl fmt::Display for TenancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenancyError::Image(e) => write!(f, "invalid multi-tenant image: {e}"),
            TenancyError::WorkloadCount { tenants, workloads } => write!(
                f,
                "image has {tenants} tenants but {workloads} workloads were supplied"
            ),
            TenancyError::TimingCount { tenants, timings } => write!(
                f,
                "image has {tenants} tenants but {timings} timing models were supplied"
            ),
        }
    }
}

impl std::error::Error for TenancyError {}

impl From<ImageError> for TenancyError {
    fn from(e: ImageError) -> Self {
        TenancyError::Image(e)
    }
}

/// One tenant's result inside a [`TenancyRun`].
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// Tenant label from the image.
    pub name: String,
    /// The tenant's partition in `RxC@r,c` syntax.
    pub partition: String,
    /// Partition dims (rows, cols).
    pub dims: (u8, u8),
    /// Host-fabric origin (row0, col0).
    pub origin: (u8, u8),
    /// The tenant's own run result — a wedged tenant carries its typed
    /// [`SimError`] here without affecting its neighbours' entries.
    pub result: Result<RunResult, SimError>,
}

impl TenantOutcome {
    /// Cycles this tenant occupied its partition: run length when it
    /// completed, the wedge cycle on deadlock, the exhausted budget on
    /// cycle-limit, zero when the machine never constructed.
    pub fn occupied_cycles(&self) -> u64 {
        match &self.result {
            Ok(r) => r.stats.cycles,
            Err(SimError::Deadlock { cycle, .. }) => *cycle,
            Err(SimError::CycleLimit { limit }) => *limit,
            Err(_) => 0,
        }
    }
}

/// The composed result of running all tenants of a partitioned fabric.
#[derive(Clone, Debug)]
pub struct TenancyRun {
    /// Host-fabric rows.
    pub rows: u8,
    /// Host-fabric columns.
    pub cols: u8,
    /// Per-tenant outcomes, in image order.
    pub tenants: Vec<TenantOutcome>,
    /// Fabric makespan: the latest cycle any partition is occupied
    /// (completed tenants contribute run length; wedged tenants their
    /// wedge point / exhausted budget).
    pub makespan_cycles: u64,
    /// Node firings summed over completed tenants.
    pub total_fires: u64,
}

impl TenancyRun {
    /// Aggregate fabric throughput: completed-tenant fires per makespan
    /// cycle (zero for an all-wedged or zero-cycle run).
    pub fn throughput(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.total_fires as f64 / self.makespan_cycles as f64
        }
    }

    /// True when every tenant completed.
    pub fn all_completed(&self) -> bool {
        self.tenants.iter().all(|t| t.result.is_ok())
    }
}

/// Runs every tenant of a merged image and composes the outcome.
///
/// `tms[i]` is tenant *i*'s control-timing model — derived from the
/// **partition's** corner distance, not the host fabric's (see
/// `docs/PARTITIONING.md`). `loads[i]` is tenant *i*'s workload and
/// cycle budget.
///
/// Each partition is simulated as its own machine factor (see the
/// module docs for why that is exact), so a deadlocking or
/// budget-exhausting tenant reports its own [`SimError`] in its
/// [`TenantOutcome`] without poisoning neighbours.
///
/// # Errors
/// Returns [`TenancyError`] only for whole-image problems (failed
/// re-validation, count mismatches); per-tenant failures come back
/// inside [`TenancyRun::tenants`].
pub fn run_tenants(
    image: &MultiTenantImage,
    tms: &[TimingModel],
    loads: &[TenantWorkload],
    engine: EngineKind,
) -> Result<TenancyRun, TenancyError> {
    let progs = image.tenant_programs()?;
    if tms.len() != progs.len() {
        return Err(TenancyError::TimingCount {
            tenants: progs.len(),
            timings: tms.len(),
        });
    }
    if loads.len() != progs.len() {
        return Err(TenancyError::WorkloadCount {
            tenants: progs.len(),
            workloads: loads.len(),
        });
    }
    let mut tenants = Vec::with_capacity(progs.len());
    for ((prog, slot), (tm, load)) in progs
        .iter()
        .zip(image.tenants())
        .zip(tms.iter().zip(loads.iter()))
    {
        let result = run_full(
            prog,
            tm,
            &FaultSet::none(),
            engine,
            &load.inputs,
            &load.params,
            load.max_cycles,
        );
        tenants.push(TenantOutcome {
            name: slot.name.clone(),
            partition: slot.partition_spec(),
            dims: (slot.rows, slot.cols),
            origin: (slot.row0, slot.col0),
            result,
        });
    }
    let makespan_cycles = tenants
        .iter()
        .map(TenantOutcome::occupied_cycles)
        .max()
        .unwrap_or(0);
    let total_fires = tenants
        .iter()
        .filter_map(|t| t.result.as_ref().ok().map(|r| r.stats.fires))
        .sum();
    Ok(TenancyRun {
        rows: image.rows(),
        cols: image.cols(),
        tenants,
        makespan_cycles,
        total_fires,
    })
}
