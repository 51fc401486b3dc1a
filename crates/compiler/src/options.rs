//! Compilation options: how a CDFG is mapped onto a given fabric.
//!
//! Architectures (in `marionette-arch`) are expressed as a pair of
//! [`CompileOptions`] (static mapping policy) and a simulator timing
//! model. The options here capture the *mapping-visible* differences the
//! paper discusses: where control operators live, whether memory
//! operators ride stream engines, whether the scheduler may co-locate
//! concurrently-live loop levels (Agile PE Assignment), and split
//! fabrics (REVEL).

/// Fabric geometry: an R×C mesh of PEs.
///
/// Every layer of the stack that depends on the array's shape — mapping
/// policy, mesh routing, CS-Benes sizing, and the geometry-derived
/// timing parameters of `marionette-arch` (CCU round trips scale with
/// the corner-to-corner distance) — takes its dimensions from here. The
/// paper's evaluation fabric is [`FabricDims::paper`] (4×4); the
/// `fabric_sweep` experiment scales the same presets to 6×6 and 8×8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FabricDims {
    /// Fabric rows.
    pub rows: usize,
    /// Fabric columns.
    pub cols: usize,
}

impl FabricDims {
    /// Creates an R×C fabric geometry.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "fabric dimensions must be positive");
        FabricDims { rows, cols }
    }

    /// The paper's 4×4 evaluation fabric.
    pub fn paper() -> Self {
        FabricDims::new(4, 4)
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// One-way corner-to-corner mesh distance in hops: `(rows − 1) +
    /// (cols − 1)`. This is the distance the paper's centralized-control
    /// cost model is built on (6 hops on the 4×4 fabric).
    pub fn corner_hops(&self) -> u32 {
        (self.rows - 1 + self.cols - 1) as u32
    }
}

impl std::fmt::Display for FabricDims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// Largest fabric side: the bitstream stores rows and columns as bytes.
pub const MAX_FABRIC_SIDE: usize = u8::MAX as usize;

/// Why a fabric or partition spec string was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricSpecError {
    /// Not of the expected shape; the message names it.
    Malformed(String),
    /// A side (or a partition's far edge) exceeds [`MAX_FABRIC_SIDE`].
    TooLarge(String),
}

impl std::fmt::Display for FabricSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricSpecError::Malformed(msg) => f.write_str(msg),
            FabricSpecError::TooLarge(spec) => write!(
                f,
                "`{spec}`: fabric sides are at most {MAX_FABRIC_SIDE} (the bitstream stores them as bytes)"
            ),
        }
    }
}

impl std::error::Error for FabricSpecError {}

impl std::str::FromStr for FabricDims {
    type Err = FabricSpecError;

    /// Parses `"RxC"` (e.g. `6x6`, `4X6`); each side is 1..=255.
    fn from_str(s: &str) -> Result<Self, FabricSpecError> {
        let err =
            || FabricSpecError::Malformed(format!("`{s}` is not a fabric spec RxC (e.g. 6x6)"));
        let (r, c) = s.split_once(['x', 'X', '×']).ok_or_else(err)?;
        let side = |v: &str| {
            let v = v.trim();
            let digits = v.bytes().all(|b| b.is_ascii_digit());
            match v.parse::<usize>() {
                Ok(n) if (1..=MAX_FABRIC_SIDE).contains(&n) => Ok(n),
                // A positive number, but above 255 (or beyond a usize).
                _ if digits && !v.trim_start_matches('0').is_empty() => {
                    Err(FabricSpecError::TooLarge(s.to_string()))
                }
                _ => Err(err()),
            }
        };
        Ok(FabricDims {
            rows: side(r)?,
            cols: side(c)?,
        })
    }
}

/// Where control operators (steer/carry/inv/merge/gate) execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlPlacement {
    /// In the PE's control flow part, issuing in parallel with the FU
    /// (Marionette's decoupled control flow plane).
    CtrlPlane,
    /// On ordinary PE issue slots (von Neumann, dataflow, TIA, REVEL).
    PeSlots,
    /// Inside network switches (RipTide's control-in-NoC).
    NetSwitches,
}

/// Where memory operators execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemPlacement {
    /// On PE issue slots (most architectures).
    PeSlots,
    /// On dedicated stream engines (Softbrain); `count` engines issue one
    /// memory operation per cycle each.
    StreamUnits {
        /// Number of stream engines.
        count: u8,
    },
}

/// REVEL-style split fabric: an inner-loop systolic region plus a small
/// tagged-dataflow region for everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitFabric {
    /// PEs reserved for innermost-loop pipelines (systolic side).
    pub systolic_pes: usize,
    /// PEs for outer-BB work (tagged-dataflow side).
    pub dataflow_pes: usize,
}

/// Iteration budget of the annealing mapping explorer.
///
/// [`SearchBudget::Off`] selects the legacy one-shot pipeline (greedy
/// placement + dimension-ordered routing) and is **bit-compatible** with
/// the seed mappings, so experiments stay reproducible across PRs. Any
/// nonzero budget replaces the one-shot result with the best of
/// `restarts` independent simulated-annealing chains of `moves`
/// perturbations each (see `crate::explore`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchBudget {
    /// Legacy one-shot greedy placement and XY routing.
    Off,
    /// Simulated-annealing search over placements, plus congestion-aware
    /// rip-up-and-reroute of the winning placement.
    Anneal {
        /// Annealing moves per restart chain.
        moves: u32,
        /// Independent restart chains (best-of-N selection; chain `i`
        /// perturbs with RNG seed `base_seed + i`).
        restarts: u32,
        /// Base RNG seed: the whole search is a pure function of
        /// `(program, options)` including this value.
        base_seed: u64,
    },
}

impl SearchBudget {
    /// The base seed of every front end's anneal budget: the default
    /// budget's and the one a run request's `search=` names.
    pub const ANNEAL_SEED: u64 = 0xA11E;

    /// A default budget sized for the 4×4 fabric: two restart chains of
    /// 1500 moves each — enough to close most of the observable mapping
    /// headroom on the evaluation kernels without dominating compile
    /// time (a whole kernel×preset sweep re-compiles in ~1 s).
    pub fn default_on() -> Self {
        SearchBudget::Anneal {
            moves: 1500,
            restarts: 2,
            base_seed: Self::ANNEAL_SEED,
        }
    }

    /// True when any search will run.
    pub fn is_on(&self) -> bool {
        !matches!(self, SearchBudget::Off)
    }

    /// The per-chain seeds this budget fans out over (empty when off).
    pub fn chain_seeds(&self) -> Vec<u64> {
        match *self {
            SearchBudget::Off => Vec::new(),
            SearchBudget::Anneal {
                restarts,
                base_seed,
                ..
            } => (0..u64::from(restarts.max(1)))
                .map(|i| base_seed.wrapping_add(i))
                .collect(),
        }
    }
}

/// Static mapping policy for one architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileOptions {
    /// Fabric rows.
    pub rows: usize,
    /// Fabric columns.
    pub cols: usize,
    /// Control operator placement.
    pub ctrl: CtrlPlacement,
    /// Memory operator placement.
    pub mem: MemPlacement,
    /// Agile PE Assignment: loop levels co-resident on disjoint PE
    /// regions, reshaped to minimize PE waste (Fig 8). When false, every
    /// loop level is mapped across the whole array and levels
    /// time-multiplex (configuration switching).
    pub agile: bool,
    /// Split fabric (REVEL), if any.
    pub split: Option<SplitFabric>,
    /// Instruction buffer depth: maximum resident operators per PE per
    /// configuration.
    pub slots_per_pe: usize,
    /// Mapping-search budget ([`SearchBudget::Off`] = legacy one-shot
    /// pipeline, bit-compatible with the seed mappings).
    pub search: SearchBudget,
}

impl CompileOptions {
    /// An R×C fabric with Marionette defaults. `marionette_rxc(4, 4)` is
    /// bit-identical to the legacy [`CompileOptions::marionette_4x4`]
    /// (which is now a thin alias of this constructor).
    pub fn marionette_rxc(rows: usize, cols: usize) -> Self {
        CompileOptions::for_fabric(FabricDims::new(rows, cols))
    }

    /// Marionette defaults on an explicit [`FabricDims`].
    pub fn for_fabric(dims: FabricDims) -> Self {
        CompileOptions {
            rows: dims.rows,
            cols: dims.cols,
            ctrl: CtrlPlacement::CtrlPlane,
            mem: MemPlacement::PeSlots,
            agile: true,
            split: None,
            slots_per_pe: 16,
            search: SearchBudget::Off,
        }
    }

    /// The paper's 4×4 fabric with Marionette defaults.
    pub fn marionette_4x4() -> Self {
        CompileOptions::marionette_rxc(4, 4)
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// The fabric geometry of this mapping policy.
    pub fn dims(&self) -> FabricDims {
        FabricDims::new(self.rows, self.cols)
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::marionette_4x4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = CompileOptions::default();
        assert_eq!(o.pe_count(), 16);
        assert!(o.agile);
        assert_eq!(o.ctrl, CtrlPlacement::CtrlPlane);
        assert_eq!(o.search, SearchBudget::Off);
    }

    #[test]
    fn fabric_dims() {
        let d = FabricDims::new(4, 4);
        assert_eq!(d, FabricDims::paper());
        assert_eq!(d.pe_count(), 16);
        assert_eq!(d.corner_hops(), 6, "the paper's corner distance");
        assert_eq!(FabricDims::new(6, 6).corner_hops(), 10);
        assert_eq!(FabricDims::new(4, 6).corner_hops(), 8);
        assert_eq!(d.to_string(), "4x4");
        assert_eq!("6x6".parse::<FabricDims>().unwrap(), FabricDims::new(6, 6));
        assert_eq!("4X6".parse::<FabricDims>().unwrap(), FabricDims::new(4, 6));
        assert!("6".parse::<FabricDims>().is_err());
        assert!("0x4".parse::<FabricDims>().is_err());
        assert!("axb".parse::<FabricDims>().is_err());
    }

    #[test]
    fn fabric_sides_above_255_are_rejected() {
        assert_eq!(
            "255x255".parse::<FabricDims>().unwrap(),
            FabricDims::new(255, 255)
        );
        for spec in [
            "256x256",
            "300x4",
            "4x300",
            "999999x999999",
            "99999999999999999999x4",
        ] {
            assert_eq!(
                spec.parse::<FabricDims>(),
                Err(FabricSpecError::TooLarge(spec.to_string())),
                "{spec}"
            );
        }
        let e = "256x256".parse::<FabricDims>().unwrap_err().to_string();
        assert!(e.contains("at most 255"), "{e}");
    }

    #[test]
    fn rxc_4x4_matches_legacy() {
        assert_eq!(
            CompileOptions::marionette_rxc(4, 4),
            CompileOptions::marionette_4x4()
        );
        let o = CompileOptions::marionette_rxc(6, 8);
        assert_eq!(o.pe_count(), 48);
        assert_eq!(o.dims(), FabricDims::new(6, 8));
    }

    #[test]
    fn budget_seeds() {
        assert!(SearchBudget::Off.chain_seeds().is_empty());
        assert!(!SearchBudget::Off.is_on());
        let b = SearchBudget::Anneal {
            moves: 10,
            restarts: 3,
            base_seed: 100,
        };
        assert!(b.is_on());
        assert_eq!(b.chain_seeds(), vec![100, 101, 102]);
        assert!(SearchBudget::default_on().is_on());
    }
}
