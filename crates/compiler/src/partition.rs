//! Spatial partitions: rectangular region masks over a fabric, the unit
//! of multi-kernel tenancy.
//!
//! A [`Partition`] is an R×C rectangle of tiles anchored at an origin
//! inside a (possibly larger) host fabric; a [`PartitionMap`] is a set
//! of partitions validated to be in-bounds and pairwise disjoint. The
//! tenancy stack is built on two views of the same region:
//!
//! - **Local view** — a tenant kernel is compiled *as if on a solo
//!   fabric of the partition's dimensions* ([`Partition::dims`]); its
//!   control timing is derived from the *partition's* corner distance,
//!   not the host fabric's (see `marionette-arch`), and the resulting
//!   bitstream uses partition-local tile indices. This is what makes a
//!   co-resident tenant bit-identical to its solo run on an equal-sized
//!   fabric.
//! - **Fabric view** — [`Partition::local_to_fabric`] embeds local
//!   tiles into host-fabric coordinates for footprint/overlap checks
//!   when per-partition bitstreams are merged into one multi-tenant
//!   image (`marionette_isa::image`), and
//!   [`PartitionMap::exclusion_mask`] renders a region as a
//!   [`FaultSet`] avoid-mask — every tile outside the region dead,
//!   every link crossing the region boundary dead — so the annealing
//!   placer's legality caps and the rip-up router confine a
//!   full-fabric compile to the region with the exact machinery the
//!   fault plane already uses (pass the mask to
//!   [`crate::pipeline::compile_with_timing_and_faults`]).
//!
//! The CLI syntax everywhere is `RxC@r,c` (dimensions at row,col
//! origin), e.g. `8x8@0,8` for an 8×8 region whose top-left tile is
//! row 0, column 8 of the host fabric.

use crate::options::{FabricDims, FabricSpecError, MAX_FABRIC_SIDE};
use marionette_sim::{FaultSet, FaultSpec};
use std::fmt;
use std::str::FromStr;

/// One rectangular fabric region: `rows × cols` tiles anchored at
/// `(row0, col0)` of the host fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Partition {
    /// Region rows.
    pub rows: usize,
    /// Region columns.
    pub cols: usize,
    /// Host-fabric row of the region's top-left tile.
    pub row0: usize,
    /// Host-fabric column of the region's top-left tile.
    pub col0: usize,
}

impl Partition {
    /// An R×C region at origin (r0, c0).
    ///
    /// # Panics
    /// Panics if either dimension is zero (origins may be anything; the
    /// host-fabric bounds check happens in [`PartitionMap::new`]).
    pub fn new(rows: usize, cols: usize, row0: usize, col0: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "partition dimensions must be positive"
        );
        Partition {
            rows,
            cols,
            row0,
            col0,
        }
    }

    /// The region's dimensions as a solo-fabric geometry: what a tenant
    /// kernel is compiled on, and what the per-partition control timing
    /// (CCU round trips etc.) is derived from.
    pub fn dims(&self) -> FabricDims {
        FabricDims::new(self.rows, self.cols)
    }

    /// Number of tiles in the region.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Does the region contain the host-fabric tile (r, c)?
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r >= self.row0 && r < self.row0 + self.rows && c >= self.col0 && c < self.col0 + self.cols
    }

    /// Does the region fit inside `fabric`?
    pub fn fits(&self, fabric: FabricDims) -> bool {
        self.row0 + self.rows <= fabric.rows && self.col0 + self.cols <= fabric.cols
    }

    /// Do two regions share any tile?
    pub fn overlaps(&self, other: &Partition) -> bool {
        self.row0 < other.row0 + other.rows
            && other.row0 < self.row0 + self.rows
            && self.col0 < other.col0 + other.cols
            && other.col0 < self.col0 + self.cols
    }

    /// Embeds a partition-local linear tile index into the host fabric's
    /// linear index space. Returns `None` when the local index is not a
    /// tile of the region — which is exactly how a merged image detects
    /// a route escaping its partition.
    pub fn local_to_fabric(&self, local: usize, fabric: FabricDims) -> Option<usize> {
        let (r, c) = (local / self.cols, local % self.cols);
        if r >= self.rows {
            return None;
        }
        Some((self.row0 + r) * fabric.cols + (self.col0 + c))
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}@{},{}", self.rows, self.cols, self.row0, self.col0)
    }
}

impl FromStr for Partition {
    type Err = FabricSpecError;

    /// Parses the shared CLI syntax `RxC@r,c` (e.g. `8x8@0,8`); the
    /// region must end within a 255x255 fabric.
    fn from_str(s: &str) -> Result<Self, FabricSpecError> {
        let err = || {
            FabricSpecError::Malformed(format!(
                "`{s}` is not a partition spec RxC@r,c (e.g. 8x8@0,8)"
            ))
        };
        let too_large = || FabricSpecError::TooLarge(s.to_string());
        let (dims, origin) = s.split_once('@').ok_or_else(err)?;
        let dims: FabricDims = dims.trim().parse().map_err(|e| match e {
            FabricSpecError::TooLarge(_) => too_large(),
            FabricSpecError::Malformed(_) => err(),
        })?;
        let (r, c) = origin.split_once(',').ok_or_else(err)?;
        let row0: usize = r.trim().parse().map_err(|_| err())?;
        let col0: usize = c.trim().parse().map_err(|_| err())?;
        let fits = |origin: usize, side: usize| {
            origin
                .checked_add(side)
                .is_some_and(|end| end <= MAX_FABRIC_SIDE)
        };
        if !fits(row0, dims.rows) || !fits(col0, dims.cols) {
            return Err(too_large());
        }
        Ok(Partition::new(dims.rows, dims.cols, row0, col0))
    }
}

/// Why a set of partitions is not a valid tenancy layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The map has no partitions.
    Empty,
    /// A partition reaches outside the host fabric.
    OutOfFabric {
        /// The offending partition (display syntax).
        part: String,
        /// The host fabric.
        fabric: FabricDims,
    },
    /// Two partitions share at least one tile.
    Overlap {
        /// First partition (display syntax).
        a: String,
        /// Second partition (display syntax).
        b: String,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Empty => write!(f, "partition map has no partitions"),
            PartitionError::OutOfFabric { part, fabric } => {
                write!(f, "partition {part} does not fit the {fabric} fabric")
            }
            PartitionError::Overlap { a, b } => {
                write!(f, "partitions {a} and {b} overlap")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A validated set of pairwise-disjoint partitions on one host fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionMap {
    fabric: FabricDims,
    parts: Vec<Partition>,
}

impl PartitionMap {
    /// Validates that every partition fits `fabric` and that no two
    /// partitions overlap.
    ///
    /// # Errors
    /// Returns the typed [`PartitionError`] naming the offending
    /// region(s).
    pub fn new(fabric: FabricDims, parts: Vec<Partition>) -> Result<Self, PartitionError> {
        if parts.is_empty() {
            return Err(PartitionError::Empty);
        }
        for p in &parts {
            if !p.fits(fabric) {
                return Err(PartitionError::OutOfFabric {
                    part: p.to_string(),
                    fabric,
                });
            }
        }
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                if parts[i].overlaps(&parts[j]) {
                    return Err(PartitionError::Overlap {
                        a: parts[i].to_string(),
                        b: parts[j].to_string(),
                    });
                }
            }
        }
        Ok(PartitionMap { fabric, parts })
    }

    /// The tightest fabric covering `parts` (used by CLIs that infer the
    /// host fabric from the partition list), validated as a map.
    ///
    /// # Errors
    /// As [`PartitionMap::new`].
    pub fn covering(parts: Vec<Partition>) -> Result<Self, PartitionError> {
        if parts.is_empty() {
            return Err(PartitionError::Empty);
        }
        let rows = parts.iter().map(|p| p.row0 + p.rows).max().unwrap_or(1);
        let cols = parts.iter().map(|p| p.col0 + p.cols).max().unwrap_or(1);
        PartitionMap::new(FabricDims::new(rows, cols), parts)
    }

    /// Splits `fabric` into a grid of equal `tile_rows × tile_cols`
    /// partitions (e.g. `quadrants(16x16, 8, 8)` is the 2×2-of-8×8
    /// sharding). The fabric dimensions must divide evenly.
    ///
    /// # Errors
    /// Returns [`PartitionError::OutOfFabric`] when the tile shape does
    /// not divide the fabric.
    pub fn grid(
        fabric: FabricDims,
        tile_rows: usize,
        tile_cols: usize,
    ) -> Result<Self, PartitionError> {
        if tile_rows == 0
            || tile_cols == 0
            || !fabric.rows.is_multiple_of(tile_rows)
            || !fabric.cols.is_multiple_of(tile_cols)
        {
            return Err(PartitionError::OutOfFabric {
                part: format!("{tile_rows}x{tile_cols}@grid"),
                fabric,
            });
        }
        let mut parts = Vec::new();
        for r in (0..fabric.rows).step_by(tile_rows) {
            for c in (0..fabric.cols).step_by(tile_cols) {
                parts.push(Partition::new(tile_rows, tile_cols, r, c));
            }
        }
        PartitionMap::new(fabric, parts)
    }

    /// The host fabric.
    pub fn fabric(&self) -> FabricDims {
        self.fabric
    }

    /// The partitions, in insertion order.
    pub fn parts(&self) -> &[Partition] {
        &self.parts
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Always false — [`PartitionMap::new`] rejects empty maps.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Renders partition `i` as a [`FaultSet`] avoid-mask on the host
    /// fabric: every tile *outside* the region is a dead PE and every
    /// directed link with an endpoint outside the region is dead. Feeding
    /// this mask to the fault-aware placer/router
    /// ([`crate::place::place`], the annealing explorer's
    /// legality caps, the rip-up router's path screens) confines a
    /// full-fabric compile to the region — region scoping and fault
    /// avoidance are the same mechanism.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn exclusion_mask(&self, i: usize) -> FaultSet {
        let p = &self.parts[i];
        let (rows, cols) = (self.fabric.rows, self.fabric.cols);
        let mut fs = FaultSet::new(rows, cols);
        let mut dead_link = |from: (usize, usize), to: (usize, usize)| {
            // Kill any mesh link not internal to the region, in the
            // direction from -> to; duplicates are ignored by `add`.
            if !(p.contains(from.0, from.1) && p.contains(to.0, to.1)) {
                fs.add(FaultSpec::DeadLink { from, to })
                    .expect("adjacent in-fabric link");
            }
        };
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    dead_link((r, c), (r, c + 1));
                    dead_link((r, c + 1), (r, c));
                }
                if r + 1 < rows {
                    dead_link((r, c), (r + 1, c));
                    dead_link((r + 1, c), (r, c));
                }
            }
        }
        for r in 0..rows {
            for c in 0..cols {
                if !p.contains(r, c) {
                    fs.add(FaultSpec::DeadPe { r, c }).expect("in-fabric tile");
                }
            }
        }
        fs
    }
}

impl fmt::Display for PartitionMap {
    /// `fabric:[p0,p1,...]`, e.g. `16x16:[8x8@0,0,8x8@0,8]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:[", self.fabric)?;
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in ["8x8@0,8", "4x4@0,0", "2x6@10,3"] {
            let p: Partition = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        let p: Partition = "8x8@2,3".parse().unwrap();
        assert_eq!(p.dims(), FabricDims::new(8, 8));
        assert_eq!((p.row0, p.col0), (2, 3));
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in ["8x8", "8x8@", "8x8@1", "@1,2", "0x4@0,0", "8x8@a,b", ""] {
            assert!(s.parse::<Partition>().is_err(), "`{s}` should not parse");
        }
        for s in ["256x8@0,0", "8x8@250,0", "8x8@0,248"] {
            assert!(
                matches!(
                    s.parse::<Partition>(),
                    Err(FabricSpecError::TooLarge { .. })
                ),
                "`{s}` reaches past a 255x255 fabric"
            );
        }
        assert!("8x8@247,247".parse::<Partition>().is_ok());
    }

    #[test]
    fn containment_and_embedding() {
        let p = Partition::new(2, 3, 1, 4);
        let fabric = FabricDims::new(4, 8);
        assert!(p.contains(1, 4) && p.contains(2, 6));
        assert!(!p.contains(0, 4) && !p.contains(1, 7) && !p.contains(3, 4));
        assert!(p.fits(fabric));
        assert!(!p.fits(FabricDims::new(4, 6)));
        // Local tile 0 is the origin; local (1,2) lands at fabric (2,6).
        assert_eq!(p.local_to_fabric(0, fabric), Some(12));
        assert_eq!(p.local_to_fabric(5, fabric), Some(2 * 8 + 6));
        assert_eq!(p.local_to_fabric(6, fabric), None, "past the region");
    }

    #[test]
    fn map_rejects_overlap_and_escape() {
        let f = FabricDims::new(8, 8);
        let a = Partition::new(4, 4, 0, 0);
        let b = Partition::new(4, 4, 0, 4);
        let c = Partition::new(4, 4, 3, 3);
        assert!(PartitionMap::new(f, vec![a, b]).is_ok());
        match PartitionMap::new(f, vec![a, c]).unwrap_err() {
            PartitionError::Overlap { a, b } => {
                assert_eq!((a.as_str(), b.as_str()), ("4x4@0,0", "4x4@3,3"));
            }
            other => panic!("expected Overlap, got {other}"),
        }
        match PartitionMap::new(f, vec![Partition::new(4, 4, 6, 0)]).unwrap_err() {
            PartitionError::OutOfFabric { part, fabric } => {
                assert_eq!(part, "4x4@6,0");
                assert_eq!(fabric, f);
            }
            other => panic!("expected OutOfFabric, got {other}"),
        }
        assert_eq!(
            PartitionMap::new(f, vec![]).unwrap_err(),
            PartitionError::Empty
        );
    }

    #[test]
    fn grid_and_covering() {
        let q = PartitionMap::grid(FabricDims::new(16, 16), 8, 8).unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(q.parts()[1].to_string(), "8x8@0,8");
        assert!(PartitionMap::grid(FabricDims::new(16, 16), 5, 8).is_err());
        let cov = PartitionMap::covering(vec![
            Partition::new(6, 12, 0, 0),
            Partition::new(6, 12, 6, 0),
        ])
        .unwrap();
        assert_eq!(cov.fabric(), FabricDims::new(12, 12));
        assert_eq!(cov.to_string(), "12x12:[6x12@0,0,6x12@6,0]");
    }

    #[test]
    fn exclusion_mask_kills_exactly_the_complement() {
        let map = PartitionMap::new(
            FabricDims::new(4, 4),
            vec![Partition::new(2, 2, 1, 1), Partition::new(1, 4, 0, 0)],
        )
        .unwrap();
        let fs = map.exclusion_mask(0);
        let p = map.parts()[0];
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(
                    fs.pe_dead(r * 4 + c),
                    !p.contains(r, c),
                    "tile ({r},{c}) mask mismatch"
                );
            }
        }
        // An interior link survives, a boundary-crossing one dies.
        // Tile (1,1)=5 east to (1,2): interior. (1,1) north to (0,1): crosses.
        assert!(!fs.link_dead(5 * 4));
        assert!(fs.link_dead(5 * 4 + 3));
        assert_eq!(fs.dead_pe_count(), 12);
    }
}
