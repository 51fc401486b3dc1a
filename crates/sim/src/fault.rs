//! Fault models for the fabric: dead PEs, dead mesh links and flaky
//! (slow) mesh links.
//!
//! A [`FaultSet`] is shared between the simulator and the compiler:
//!
//! - the simulator refuses to execute a bitstream that touches a dead
//!   resource — a typed [`crate::SimError::Fault`] names the resource at
//!   machine construction, before any cycle runs — and stretches
//!   traversal time on flaky links without ever changing values;
//! - the compiler takes the same set as an avoid-mask (dead PEs excluded
//!   from placement legality, dead links from route feasibility, flaky
//!   links cost-penalized), so a fault-wedged mapping can be re-placed
//!   around the faults and bit-verified against the interpreter.
//!
//! Directed links use the simulator's dense encoding, identical to
//! `marionette_net::Mesh`: `id = tile * 4 + dir` with east = 0, west = 1,
//! south = 2, north = 3.

use std::fmt;
use std::str::FromStr;

/// A tile coordinate as (row, col).
type Tile = (usize, usize);

/// One injected hardware fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// The compute tile at (row, col) is dead: nothing may execute on its
    /// data or control plane. The tile's mesh router survives (flits may
    /// still pass through), matching the usual core-vs-NoC fault domains.
    DeadPe {
        /// Tile row.
        r: usize,
        /// Tile column.
        c: usize,
    },
    /// The directed mesh link from the first tile to the (adjacent)
    /// second tile is dead: no flit may traverse it.
    DeadLink {
        /// Source tile as (row, col).
        from: (usize, usize),
        /// Destination tile as (row, col); must be a mesh neighbour.
        to: (usize, usize),
    },
    /// The directed mesh link is flaky: each traversal takes `mult` times
    /// the nominal link latency. Values are never corrupted — a flaky
    /// link only stretches cycles.
    FlakyLink {
        /// Source tile as (row, col).
        from: (usize, usize),
        /// Destination tile as (row, col); must be a mesh neighbour.
        to: (usize, usize),
        /// Latency multiplier (at least 2).
        mult: u32,
    },
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::DeadPe { r, c } => write!(f, "pe:{r},{c}"),
            FaultSpec::DeadLink { from, to } => {
                write!(f, "link:{},{}-{},{}", from.0, from.1, to.0, to.1)
            }
            FaultSpec::FlakyLink { from, to, mult } => {
                write!(f, "flaky:{},{}-{},{}@{}", from.0, from.1, to.0, to.1, mult)
            }
        }
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    /// Parses the shared CLI syntax: `pe:R,C`, `link:R,C-R,C` or
    /// `flaky:R,C-R,C@MULT`.
    fn from_str(s: &str) -> Result<Self, String> {
        let usage =
            || format!("bad fault spec `{s}`: expected pe:R,C, link:R,C-R,C or flaky:R,C-R,C@MULT");
        let (kind, rest) = s.split_once(':').ok_or_else(usage)?;
        let tile = |t: &str| -> Result<(usize, usize), String> {
            let (a, b) = t
                .split_once(',')
                .ok_or_else(|| format!("bad tile `{t}` in fault spec `{s}`: expected R,C"))?;
            let r = a
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("bad row `{a}` in fault spec `{s}`"))?;
            let c = b
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("bad column `{b}` in fault spec `{s}`"))?;
            Ok((r, c))
        };
        let ends = |t: &str| -> Result<(Tile, Tile), String> {
            let (a, b) = t.split_once('-').ok_or_else(usage)?;
            Ok((tile(a)?, tile(b)?))
        };
        match kind {
            "pe" => {
                let (r, c) = tile(rest)?;
                Ok(FaultSpec::DeadPe { r, c })
            }
            "link" => {
                let (from, to) = ends(rest)?;
                Ok(FaultSpec::DeadLink { from, to })
            }
            "flaky" => {
                let (e, m) = rest.split_once('@').ok_or_else(usage)?;
                let mult = m
                    .trim()
                    .parse::<u32>()
                    .map_err(|_| format!("bad multiplier `{m}` in fault spec `{s}`"))?;
                if mult < 2 {
                    return Err(format!("flaky multiplier must be >= 2 in `{s}`"));
                }
                let (from, to) = ends(e)?;
                Ok(FaultSpec::FlakyLink { from, to, mult })
            }
            _ => Err(format!("unknown fault kind `{kind}` in fault spec `{s}`")),
        }
    }
}

/// A validated set of faults on one R×C fabric.
///
/// Lookups are dense (a `Vec<bool>` per resource class), so the
/// simulator's hot loop and the placer's legality checks pay one index
/// each. The empty set — [`FaultSet::none`] or a freshly constructed set
/// with no faults added — answers "healthy" for every resource and is
/// guaranteed bit-identical to the pre-fault-plane code paths.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSet {
    rows: usize,
    cols: usize,
    dead_pe: Vec<bool>,
    dead_link: Vec<bool>,
    link_mult: Vec<u32>,
    specs: Vec<FaultSpec>,
}

impl FaultSet {
    /// The empty fault set (a healthy fabric of unspecified geometry).
    pub const fn none() -> Self {
        FaultSet {
            rows: 0,
            cols: 0,
            dead_pe: Vec::new(),
            dead_link: Vec::new(),
            link_mult: Vec::new(),
            specs: Vec::new(),
        }
    }

    /// An empty fault set for an R×C fabric, ready for [`FaultSet::add`].
    pub fn new(rows: usize, cols: usize) -> Self {
        FaultSet {
            rows,
            cols,
            dead_pe: vec![false; rows * cols],
            dead_link: vec![false; 4 * rows * cols],
            link_mult: vec![1; 4 * rows * cols],
            specs: Vec::new(),
        }
    }

    /// Builds a fault set from the shared CLI surface: explicit `--fault`
    /// spec strings plus `--faults N` seeded-random faults on top.
    ///
    /// # Errors
    /// Returns a usage-style message for malformed or off-fabric specs.
    pub fn from_cli(
        rows: usize,
        cols: usize,
        specs: &[String],
        random_n: usize,
        seed: u64,
    ) -> Result<Self, String> {
        let mut fs = FaultSet::new(rows, cols);
        for s in specs {
            let spec: FaultSpec = s.parse()?;
            fs.add(spec)?;
        }
        fs.add_random(random_n, seed);
        Ok(fs)
    }

    /// `n` seeded-random faults on an R×C fabric (deterministic in
    /// `seed`; a mix of dead PEs, dead links and flaky links).
    pub fn random(rows: usize, cols: usize, n: usize, seed: u64) -> Self {
        let mut fs = FaultSet::new(rows, cols);
        fs.add_random(n, seed);
        fs
    }

    /// Adds `n` distinct seeded-random faults (deterministic in `seed`).
    /// Roughly 40% dead PEs, 40% dead links, 20% flaky links with
    /// multipliers in 2..=5. Gives up (leaving fewer than `n` faults)
    /// only if the fabric runs out of distinct resources.
    pub fn add_random(&mut self, n: usize, seed: u64) {
        let mut state = seed;
        let mut next = move || {
            // splitmix64: the container is offline, so the repo avoids a
            // real `rand` dependency in favour of this tiny generator.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (rows, cols) = (self.rows, self.cols);
        if rows * cols == 0 {
            return;
        }
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < n && attempts < 64 * (n + 1) {
            attempts += 1;
            let r = next() as usize % rows;
            let c = next() as usize % cols;
            let spec = match next() % 5 {
                0 | 1 => FaultSpec::DeadPe { r, c },
                kind => {
                    let mut neigh: Vec<(usize, usize)> = Vec::with_capacity(4);
                    if c + 1 < cols {
                        neigh.push((r, c + 1));
                    }
                    if c > 0 {
                        neigh.push((r, c - 1));
                    }
                    if r + 1 < rows {
                        neigh.push((r + 1, c));
                    }
                    if r > 0 {
                        neigh.push((r - 1, c));
                    }
                    if neigh.is_empty() {
                        continue; // 1x1 fabric has no links
                    }
                    let to = neigh[next() as usize % neigh.len()];
                    if kind <= 3 {
                        FaultSpec::DeadLink { from: (r, c), to }
                    } else {
                        FaultSpec::FlakyLink {
                            from: (r, c),
                            to,
                            mult: 2 + (next() % 4) as u32,
                        }
                    }
                }
            };
            if self.add(spec).unwrap_or(false) {
                added += 1;
            }
        }
    }

    /// Adds one fault, validating it against the fabric geometry.
    /// Returns `Ok(false)` when the fault duplicates one already present
    /// (including a flaky spec on an already-dead link).
    ///
    /// # Errors
    /// Off-fabric tiles and non-adjacent link endpoints are rejected.
    pub fn add(&mut self, spec: FaultSpec) -> Result<bool, String> {
        let tile = |r: usize, c: usize| -> Result<usize, String> {
            if r >= self.rows || c >= self.cols {
                return Err(format!(
                    "fault `{spec}` is off the {}x{} fabric",
                    self.rows, self.cols
                ));
            }
            Ok(r * self.cols + c)
        };
        let link = |from: (usize, usize), to: (usize, usize)| -> Result<usize, String> {
            let ft = tile(from.0, from.1)?;
            tile(to.0, to.1)?;
            let dir = match (to.0 as i64 - from.0 as i64, to.1 as i64 - from.1 as i64) {
                (0, 1) => 0,  // east
                (0, -1) => 1, // west
                (1, 0) => 2,  // south
                (-1, 0) => 3, // north
                _ => {
                    return Err(format!(
                        "fault `{spec}` is not a mesh link (tiles are not adjacent)"
                    ))
                }
            };
            Ok(ft * 4 + dir)
        };
        let added = match spec {
            FaultSpec::DeadPe { r, c } => {
                let t = tile(r, c)?;
                !std::mem::replace(&mut self.dead_pe[t], true)
            }
            FaultSpec::DeadLink { from, to } => {
                let l = link(from, to)?;
                !std::mem::replace(&mut self.dead_link[l], true)
            }
            FaultSpec::FlakyLink { from, to, mult } => {
                if mult < 2 {
                    return Err(format!("flaky multiplier must be >= 2 in `{spec}`"));
                }
                let l = link(from, to)?;
                if self.dead_link[l] || self.link_mult[l] != 1 {
                    false
                } else {
                    self.link_mult[l] = mult;
                    true
                }
            }
        };
        if added {
            self.specs.push(spec);
        }
        Ok(added)
    }

    /// Fabric rows this set was built for (0 for [`FaultSet::none`]).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Fabric columns this set was built for (0 for [`FaultSet::none`]).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when no faults are present.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The faults in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Is the compute tile dead? Tiles outside the set's geometry (and
    /// every tile of the empty set) are healthy.
    pub fn pe_dead(&self, tile: usize) -> bool {
        self.dead_pe.get(tile).copied().unwrap_or(false)
    }

    /// Is the directed link dead? `lid` uses the dense
    /// `tile * 4 + dir` encoding (east 0, west 1, south 2, north 3)
    /// shared with `marionette_net::Mesh` link ids.
    pub fn link_dead(&self, lid: usize) -> bool {
        self.dead_link.get(lid).copied().unwrap_or(false)
    }

    /// Latency multiplier of the directed link (1 = nominal). Same id
    /// encoding as [`FaultSet::link_dead`].
    pub fn link_mult(&self, lid: usize) -> u32 {
        self.link_mult.get(lid).copied().unwrap_or(1)
    }

    /// True when at least one flaky link is present (the simulator uses
    /// this to keep the healthy-path flit loop branch-free).
    pub fn has_flaky(&self) -> bool {
        self.specs
            .iter()
            .any(|s| matches!(s, FaultSpec::FlakyLink { .. }))
    }

    /// Number of dead PEs.
    pub fn dead_pe_count(&self) -> usize {
        self.dead_pe.iter().filter(|d| **d).count()
    }
}

impl fmt::Display for FaultSet {
    /// Comma-joined spec list (empty string for the empty set).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in ["pe:1,2", "link:0,0-0,1", "flaky:2,1-1,1@3"] {
            let spec: FaultSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in [
            "pe",
            "pe:1",
            "pe:1,x",
            "link:0,0",
            "link:0,0-0",
            "flaky:0,0-0,1",
            "flaky:0,0-0,1@1",
            "flaky:0,0-0,1@x",
            "router:0,0",
            "",
        ] {
            assert!(s.parse::<FaultSpec>().is_err(), "`{s}` should not parse");
        }
    }

    #[test]
    fn add_validates_geometry() {
        let mut fs = FaultSet::new(4, 4);
        assert!(fs.add("pe:4,0".parse().unwrap()).is_err(), "row off-grid");
        assert!(fs.add("pe:0,4".parse().unwrap()).is_err(), "col off-grid");
        assert!(
            fs.add("link:0,0-1,1".parse().unwrap()).is_err(),
            "diagonal is not a link"
        );
        assert!(
            fs.add("link:0,0-0,2".parse().unwrap()).is_err(),
            "two-tile jump is not a link"
        );
        assert!(fs.is_empty());
    }

    #[test]
    fn link_encoding_matches_mesh() {
        // east 0 / west 1 / south 2 / north 3 on tile*4, like net::Mesh.
        let mut fs = FaultSet::new(4, 4);
        fs.add("link:1,1-1,2".parse().unwrap()).unwrap(); // tile 5 east
        fs.add("link:1,1-0,1".parse().unwrap()).unwrap(); // tile 5 north
        assert!(fs.link_dead(5 * 4));
        assert!(fs.link_dead(5 * 4 + 3));
        assert!(!fs.link_dead(5 * 4 + 1));
        assert!(!fs.link_dead(5 * 4 + 2));
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut fs = FaultSet::new(4, 4);
        assert!(fs.add("pe:1,1".parse().unwrap()).unwrap());
        assert!(!fs.add("pe:1,1".parse().unwrap()).unwrap());
        assert!(fs.add("link:0,0-0,1".parse().unwrap()).unwrap());
        assert!(!fs.add("flaky:0,0-0,1@3".parse().unwrap()).unwrap());
        assert_eq!(fs.specs().len(), 2);
    }

    #[test]
    fn empty_set_is_healthy_everywhere() {
        let fs = FaultSet::none();
        assert!(fs.is_empty());
        assert!(!fs.has_flaky());
        for i in 0..256 {
            assert!(!fs.pe_dead(i));
            assert!(!fs.link_dead(i));
            assert_eq!(fs.link_mult(i), 1);
        }
    }

    #[test]
    fn random_is_deterministic_and_distinct() {
        let a = FaultSet::random(4, 4, 4, 7);
        let b = FaultSet::random(4, 4, 4, 7);
        assert_eq!(a, b);
        assert_eq!(a.specs().len(), 4);
        let c = FaultSet::random(4, 4, 4, 8);
        assert_ne!(a, c, "different seeds should give different sets");
        // Distinctness: re-adding every spec reports a duplicate.
        let mut d = FaultSet::new(4, 4);
        for &s in a.specs() {
            assert!(d.add(s).unwrap());
        }
        for &s in a.specs() {
            assert!(!d.add(s).unwrap());
        }
    }

    #[test]
    fn from_cli_combines_explicit_and_random() {
        let fs =
            FaultSet::from_cli(4, 4, &["pe:0,1".into(), "flaky:1,0-1,1@4".into()], 2, 42).unwrap();
        assert_eq!(fs.specs().len(), 4);
        assert!(fs.pe_dead(1));
        assert_eq!(fs.link_mult(4 * 4), 4); // tile 4 east
        assert!(FaultSet::from_cli(4, 4, &["pe:9,9".into()], 0, 0).is_err());
    }
}
