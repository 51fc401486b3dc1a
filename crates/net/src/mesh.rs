//! Mesh data network topology: dimension-ordered (XY) routes over a 2-D
//! grid of PE-attached routers.
//!
//! The simulator models contention by accounting one token per directed
//! link per cycle; this module owns the topology — link enumeration, route
//! computation and distance metrics (the paper quotes "6 cycle latency
//! through data network" for a corner-to-corner control transfer on the
//! 4×4 fabric: 6 hops).

/// A directed link of the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Link direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Dir {
    East,
    West,
    South,
    North,
}

impl Dir {
    fn code(self) -> u32 {
        match self {
            Dir::East => 0,
            Dir::West => 1,
            Dir::South => 2,
            Dir::North => 3,
        }
    }
}

/// An R×C mesh topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mesh {
    rows: usize,
    cols: usize,
}

impl Mesh {
    /// Creates an R×C mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        Mesh { rows, cols }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tiles.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Upper bound of the [`LinkId`] space (`4 · tiles`; not all ids are
    /// physical links, border directions are simply never produced).
    pub fn link_id_space(&self) -> usize {
        4 * self.pe_count()
    }

    /// Number of physical directed links.
    pub fn link_count(&self) -> usize {
        // horizontal: rows * (cols-1) in each direction; vertical likewise
        2 * (self.rows * (self.cols - 1) + self.cols * (self.rows - 1))
    }

    /// The directed link leaving `tile` in direction `dir`.
    ///
    /// # Panics
    /// Panics if the link would leave the grid.
    pub fn link(&self, tile: usize, dir: Dir) -> LinkId {
        let (r, c) = (tile / self.cols, tile % self.cols);
        let ok = match dir {
            Dir::East => c + 1 < self.cols,
            Dir::West => c > 0,
            Dir::South => r + 1 < self.rows,
            Dir::North => r > 0,
        };
        assert!(ok, "link {dir:?} from tile {tile} leaves the grid");
        LinkId((tile as u32) * 4 + dir.code())
    }

    /// Manhattan distance between two tiles.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        let (r0, c0) = (src / self.cols, src % self.cols);
        let (r1, c1) = (dst / self.cols, dst % self.cols);
        r0.abs_diff(r1) + c0.abs_diff(c1)
    }

    /// Dimension-ordered route: X first, then Y. Returns the traversed
    /// directed links; empty when `src == dst`.
    pub fn xy_route(&self, src: usize, dst: usize) -> Vec<LinkId> {
        assert!(src < self.pe_count() && dst < self.pe_count());
        let mut links = Vec::with_capacity(self.hops(src, dst));
        let (mut r, mut c) = (src / self.cols, src % self.cols);
        let (r1, c1) = (dst / self.cols, dst % self.cols);
        while c != c1 {
            let dir = if c < c1 { Dir::East } else { Dir::West };
            links.push(self.link(r * self.cols + c, dir));
            if c < c1 {
                c += 1;
            } else {
                c -= 1;
            }
        }
        while r != r1 {
            let dir = if r < r1 { Dir::South } else { Dir::North };
            links.push(self.link(r * self.cols + c, dir));
            if r < r1 {
                r += 1;
            } else {
                r -= 1;
            }
        }
        links
    }

    /// Dimension-ordered route, Y first then X — the alternative
    /// dimension order a congestion-aware router can fall back to when
    /// the XY path crosses a hot link.
    pub fn yx_route(&self, src: usize, dst: usize) -> Vec<LinkId> {
        assert!(src < self.pe_count() && dst < self.pe_count());
        let mut links = Vec::with_capacity(self.hops(src, dst));
        self.for_each_yx_link(src, dst, |l| links.push(l));
        links
    }

    /// Calls `f` for every directed link of the XY route from `src` to
    /// `dst`, without allocating. The mapping explorer's cost model
    /// tabulates these routes once per tile pair, and the router walks
    /// route legs with it.
    pub fn for_each_xy_link(&self, src: usize, dst: usize, mut f: impl FnMut(LinkId)) {
        let (mut r, mut c) = (src / self.cols, src % self.cols);
        let (r1, c1) = (dst / self.cols, dst % self.cols);
        while c != c1 {
            let dir = if c < c1 { Dir::East } else { Dir::West };
            f(self.link(r * self.cols + c, dir));
            if c < c1 {
                c += 1;
            } else {
                c -= 1;
            }
        }
        while r != r1 {
            let dir = if r < r1 { Dir::South } else { Dir::North };
            f(self.link(r * self.cols + c, dir));
            if r < r1 {
                r += 1;
            } else {
                r -= 1;
            }
        }
    }

    /// Calls `f` for every directed link of the YX route (Y first).
    pub fn for_each_yx_link(&self, src: usize, dst: usize, mut f: impl FnMut(LinkId)) {
        let (mut r, mut c) = (src / self.cols, src % self.cols);
        let (r1, c1) = (dst / self.cols, dst % self.cols);
        while r != r1 {
            let dir = if r < r1 { Dir::South } else { Dir::North };
            f(self.link(r * self.cols + c, dir));
            if r < r1 {
                r += 1;
            } else {
                r -= 1;
            }
        }
        while c != c1 {
            let dir = if c < c1 { Dir::East } else { Dir::West };
            f(self.link(r * self.cols + c, dir));
            if c < c1 {
                c += 1;
            } else {
                c -= 1;
            }
        }
    }

    /// Tiles visited by the YX route, inclusive of both endpoints.
    pub fn path_tiles_yx(&self, src: usize, dst: usize) -> Vec<u16> {
        let mut tiles = vec![src as u16];
        let (mut r, mut c) = (src / self.cols, src % self.cols);
        let (r1, c1) = (dst / self.cols, dst % self.cols);
        while r != r1 {
            if r < r1 {
                r += 1;
            } else {
                r -= 1;
            }
            tiles.push((r * self.cols + c) as u16);
        }
        while c != c1 {
            if c < c1 {
                c += 1;
            } else {
                c -= 1;
            }
            tiles.push((r * self.cols + c) as u16);
        }
        tiles
    }

    /// The directed links of an arbitrary tile walk, or `None` when a
    /// step is not between mesh neighbours (route-legality query used by
    /// the compiler's placement tests and the explored-mapping checks).
    pub fn links_of_path(&self, path: &[u16]) -> Option<Vec<LinkId>> {
        let mut links = Vec::with_capacity(path.len().saturating_sub(1));
        for w in path.windows(2) {
            let (from, to) = (w[0] as usize, w[1] as usize);
            if from >= self.pe_count() || to >= self.pe_count() {
                return None;
            }
            let (r0, c0) = (from / self.cols, from % self.cols);
            let (r1, c1) = (to / self.cols, to % self.cols);
            let dir = match (r1 as i64 - r0 as i64, c1 as i64 - c0 as i64) {
                (0, 1) => Dir::East,
                (0, -1) => Dir::West,
                (1, 0) => Dir::South,
                (-1, 0) => Dir::North,
                _ => return None,
            };
            links.push(self.link(from, dir));
        }
        Some(links)
    }

    /// Tiles visited by the XY route, inclusive of both endpoints.
    pub fn path_tiles(&self, src: usize, dst: usize) -> Vec<u16> {
        let mut tiles = vec![src as u16];
        let (mut r, mut c) = (src / self.cols, src % self.cols);
        let (r1, c1) = (dst / self.cols, dst % self.cols);
        while c != c1 {
            if c < c1 {
                c += 1;
            } else {
                c -= 1;
            }
            tiles.push((r * self.cols + c) as u16);
        }
        while r != r1 {
            if r < r1 {
                r += 1;
            } else {
                r -= 1;
            }
            tiles.push((r * self.cols + c) as u16);
        }
        tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counts_4x4() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.pe_count(), 16);
        assert_eq!(m.link_count(), 2 * (4 * 3 + 4 * 3));
        assert_eq!(m.hops(0, 15), 6, "corner-to-corner is the paper's 6 hops");
    }

    #[test]
    fn xy_route_shape() {
        let m = Mesh::new(4, 4);
        let route = m.xy_route(0, 15);
        assert_eq!(route.len(), 6);
        // X-first: three east links then three south links
        assert_eq!(route[0], m.link(0, Dir::East));
        assert_eq!(route[2], m.link(2, Dir::East));
        assert_eq!(route[3], m.link(3, Dir::South));
        assert!(m.xy_route(5, 5).is_empty());
    }

    #[test]
    fn path_tiles_inclusive() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.path_tiles(0, 5), vec![0, 1, 5]);
        assert_eq!(m.path_tiles(5, 5), vec![5]);
        assert_eq!(m.path_tiles(10, 1), vec![10, 9, 5, 1]);
    }

    #[test]
    #[should_panic(expected = "leaves the grid")]
    fn border_link_panics() {
        let m = Mesh::new(2, 2);
        let _ = m.link(1, Dir::East);
    }

    proptest! {
        #[test]
        fn route_length_is_manhattan(src in 0usize..16, dst in 0usize..16) {
            let m = Mesh::new(4, 4);
            prop_assert_eq!(m.xy_route(src, dst).len(), m.hops(src, dst));
            prop_assert_eq!(m.path_tiles(src, dst).len(), m.hops(src, dst) + 1);
        }

        #[test]
        fn links_unique_along_route(src in 0usize..36, dst in 0usize..36) {
            let m = Mesh::new(6, 6);
            let route = m.xy_route(src, dst);
            let set: std::collections::HashSet<_> = route.iter().collect();
            prop_assert_eq!(set.len(), route.len());
        }

        #[test]
        fn yx_matches_xy_length_and_endpoints(src in 0usize..36, dst in 0usize..36) {
            let m = Mesh::new(6, 6);
            prop_assert_eq!(m.yx_route(src, dst).len(), m.hops(src, dst));
            let p = m.path_tiles_yx(src, dst);
            prop_assert_eq!(p.len(), m.hops(src, dst) + 1);
            prop_assert_eq!(p[0] as usize, src);
            prop_assert_eq!(*p.last().unwrap() as usize, dst);
            // Both dimension orders are legal walks.
            prop_assert_eq!(m.links_of_path(&p).unwrap(), m.yx_route(src, dst));
            prop_assert_eq!(
                m.links_of_path(&m.path_tiles(src, dst)).unwrap(),
                m.xy_route(src, dst)
            );
        }

        #[test]
        fn link_walkers_match_routes(src in 0usize..16, dst in 0usize..16) {
            let m = Mesh::new(4, 4);
            let mut xy = Vec::new();
            m.for_each_xy_link(src, dst, |l| xy.push(l));
            prop_assert_eq!(xy, m.xy_route(src, dst));
            let mut yx = Vec::new();
            m.for_each_yx_link(src, dst, |l| yx.push(l));
            prop_assert_eq!(yx, m.yx_route(src, dst));
        }
    }

    #[test]
    fn nonsquare_routes_are_legal_walks_with_correct_endpoints() {
        // Exhaustive all-pairs legality on non-square and larger
        // fabrics: both dimension orders must produce Manhattan-length
        // legal mesh walks whose links match the allocation-free
        // walkers.
        for (rows, cols) in [(4, 6), (6, 4), (8, 8)] {
            let m = Mesh::new(rows, cols);
            assert_eq!(m.link_count(), 2 * (rows * (cols - 1) + cols * (rows - 1)));
            for src in 0..m.pe_count() {
                for dst in 0..m.pe_count() {
                    let what = format!("{rows}x{cols} {src}->{dst}");
                    let xy = m.xy_route(src, dst);
                    let yx = m.yx_route(src, dst);
                    assert_eq!(xy.len(), m.hops(src, dst), "{what}: xy length");
                    assert_eq!(yx.len(), m.hops(src, dst), "{what}: yx length");
                    for (tag, tiles) in [
                        ("xy", m.path_tiles(src, dst)),
                        ("yx", m.path_tiles_yx(src, dst)),
                    ] {
                        assert_eq!(tiles[0] as usize, src, "{what}: {tag} start");
                        assert_eq!(*tiles.last().unwrap() as usize, dst, "{what}: {tag} end");
                        assert!(
                            m.links_of_path(&tiles).is_some(),
                            "{what}: {tag} path is not a legal mesh walk"
                        );
                    }
                    assert_eq!(
                        m.links_of_path(&m.path_tiles(src, dst)).unwrap(),
                        xy,
                        "{what}"
                    );
                    assert_eq!(
                        m.links_of_path(&m.path_tiles_yx(src, dst)).unwrap(),
                        yx,
                        "{what}"
                    );
                    let mut walked = Vec::new();
                    m.for_each_xy_link(src, dst, |l| walked.push(l));
                    assert_eq!(walked, xy, "{what}: xy walker");
                    walked.clear();
                    m.for_each_yx_link(src, dst, |l| walked.push(l));
                    assert_eq!(walked, yx, "{what}: yx walker");
                }
            }
        }
    }

    #[test]
    fn nonsquare_corner_distances() {
        assert_eq!(Mesh::new(4, 6).hops(0, 23), 8);
        assert_eq!(Mesh::new(6, 4).hops(0, 23), 8);
        assert_eq!(Mesh::new(8, 8).hops(0, 63), 14);
    }

    #[test]
    fn illegal_paths_rejected() {
        let m = Mesh::new(4, 4);
        assert!(m.links_of_path(&[0, 5]).is_none(), "diagonal step");
        assert!(m.links_of_path(&[0, 2]).is_none(), "two-tile jump");
        assert!(m.links_of_path(&[0, 99]).is_none(), "off-grid tile");
        assert_eq!(m.links_of_path(&[7]).unwrap(), vec![]);
    }
}
