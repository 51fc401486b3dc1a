//! CDFG analyses backing the paper's characterization tables.
//!
//! - [`ControlFlowProfile`] reproduces Table 1 (control flow forms across
//!   applications): branch forms (nested/innermost/serial) and loop forms
//!   (nested/imperfect/serial).
//! - [`ops_under_branch_ratio`] reproduces the secondary series of Fig 11
//!   (the fraction of operators under a branch, which exposes the PE waste
//!   of static predicated mapping).

use crate::graph::{BlockId, BlockKind, Cdfg, LoopId};
use crate::op::Op;
use std::fmt;

/// Branch-divergence forms found in a kernel (Table 1 vocabulary).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchForms {
    /// A branch nested inside another branch (`deep >= 2`).
    pub nested: bool,
    /// A branch whose innermost enclosing loop is an innermost loop.
    pub innermost: bool,
    /// A branch in a loop that still contains deeper loops ("sub-inner").
    pub sub_inner: bool,
    /// Two or more sibling branch regions in the same block.
    pub serial: bool,
    /// Total number of branch regions (then/else pairs counted once).
    pub count: usize,
}

/// Loop-nest forms found in a kernel (Table 1 vocabulary).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopForms {
    /// Maximum loop nesting depth.
    pub max_depth: u32,
    /// Nested loops present (depth >= 2).
    pub nested: bool,
    /// An outer loop carries its own compute besides subloops.
    pub imperfect: bool,
    /// Two or more sibling loops at the same nesting level.
    pub serial: bool,
    /// A loop whose bounds are computed at run time.
    pub dynamic_bounds: bool,
    /// Total loop count.
    pub count: usize,
}

/// Control-flow characterization of one kernel: one row of Table 1.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlFlowProfile {
    /// Branch forms present.
    pub branches: BranchForms,
    /// Loop forms present.
    pub loops: LoopForms,
    /// Fraction of data-plane operators under a branch region, 0..=1.
    pub ops_under_branch: f64,
    /// Total data-plane (compute + memory + mux) operators.
    pub compute_ops: usize,
    /// Total control-plane operators.
    pub control_ops: usize,
}

impl ControlFlowProfile {
    /// Table-1 style human-readable branch description.
    pub fn branch_text(&self) -> String {
        if self.branches.count == 0 {
            return "N/A".into();
        }
        let mut parts = Vec::new();
        if self.branches.nested {
            parts.push("Nested branches");
        }
        if self.branches.serial {
            parts.push("Serial branches");
        }
        if self.branches.innermost {
            parts.push("Innermost");
        } else if self.branches.sub_inner {
            parts.push("Sub-inner");
        }
        if parts.is_empty() {
            parts.push("Branches");
        }
        parts.join(", ")
    }

    /// Table-1 style human-readable loop description.
    pub fn loop_text(&self) -> String {
        if self.loops.count == 0 {
            return "N/A".into();
        }
        let mut parts = Vec::new();
        if self.loops.imperfect && self.loops.nested {
            parts.push("Imperfect nested");
        } else if self.loops.nested {
            parts.push("Nested");
        }
        if self.loops.serial {
            parts.push("Serial loops");
        }
        if parts.is_empty() {
            parts.push("Single");
        }
        parts.join(", ")
    }
}

impl fmt::Display for ControlFlowProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "branches: {} | loops: {} | ops-under-branch {:.0}%",
            self.branch_text(),
            self.loop_text(),
            self.ops_under_branch * 100.0
        )
    }
}

/// Whether `l` is an innermost loop (has no children).
pub fn is_innermost(g: &Cdfg, l: LoopId) -> bool {
    !g.loops.iter().any(|x| x.parent == Some(l))
}

/// Blocks belonging to branch regions, with their parent block.
fn branch_blocks(g: &Cdfg) -> Vec<(BlockId, &crate::graph::BlockInfo)> {
    g.blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| matches!(b.kind, BlockKind::BranchThen | BlockKind::BranchElse))
        .map(|(i, b)| (BlockId(i as u32), b))
        .collect()
}

/// Computes the fraction of data-plane operators that live under a branch
/// region (Fig 11's secondary axis).
pub fn ops_under_branch_ratio(g: &Cdfg) -> f64 {
    let mut total = 0usize;
    let mut under = 0usize;
    for n in &g.nodes {
        if n.op.is_control() || matches!(n.op, Op::Sink) {
            continue;
        }
        total += 1;
        if g.block(n.bb).branch_depth > 0 {
            under += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        under as f64 / total as f64
    }
}

/// Characterizes a kernel's control flow (one Table 1 row).
pub fn profile(g: &Cdfg) -> ControlFlowProfile {
    let mut branches = BranchForms::default();
    let bb = branch_blocks(g);
    // then/else pairs share a parent; count regions as then-blocks.
    let then_blocks: Vec<_> = bb
        .iter()
        .filter(|(_, b)| b.kind == BlockKind::BranchThen)
        .collect();
    branches.count = then_blocks.len();
    for (_, b) in &then_blocks {
        if b.branch_depth >= 2 {
            branches.nested = true;
        }
        match b.loop_id {
            Some(l) if is_innermost(g, l) => branches.innermost = true,
            Some(_) => branches.sub_inner = true,
            None => {}
        }
    }
    // serial: two then-blocks with the same parent block
    for i in 0..then_blocks.len() {
        for j in (i + 1)..then_blocks.len() {
            if then_blocks[i].1.parent == then_blocks[j].1.parent {
                branches.serial = true;
            }
        }
    }

    let mut loops = LoopForms {
        max_depth: g.max_loop_depth(),
        count: g.loops.len(),
        ..Default::default()
    };
    loops.nested = loops.max_depth >= 2;
    for (i, l) in g.loops.iter().enumerate() {
        let has_children = g.loops.iter().any(|x| x.parent == Some(LoopId(i as u32)));
        if has_children && l.has_own_compute {
            loops.imperfect = true;
        }
        if l.dynamic_bounds {
            loops.dynamic_bounds = true;
        }
    }
    // serial: two loops with the same parent
    for i in 0..g.loops.len() {
        for j in (i + 1)..g.loops.len() {
            if g.loops[i].parent == g.loops[j].parent {
                loops.serial = true;
            }
        }
    }

    ControlFlowProfile {
        branches,
        loops,
        ops_under_branch: ops_under_branch_ratio(g),
        compute_ops: g.compute_node_count(),
        control_ops: g.control_node_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CdfgBuilder;

    fn branchy_imperfect() -> Cdfg {
        let mut b = CdfgBuilder::new("t");
        let a = b.array_i32("a", 64, &[]);
        let zero = b.imm(0);
        let _ = b.for_range(0, 8, &[zero], |b, i, v| {
            let base = b.mul(i, 8.into()); // outer compute -> imperfect
            let inner = b.for_range(0, 8, &[v[0]], |b, j, w| {
                let idx = b.add(base, j);
                let x = b.load(a, idx);
                let c = b.gt(x, 0.into());
                let r = b.if_else(c, |b| vec![b.add(w[0], x)], |_| vec![w[0]]);
                vec![r[0]]
            });
            vec![inner[0]]
        });
        b.finish()
    }

    #[test]
    fn profile_detects_forms() {
        let g = branchy_imperfect();
        let p = profile(&g);
        assert!(p.loops.nested);
        assert!(p.loops.imperfect);
        assert!(!p.loops.serial);
        assert!(p.branches.innermost);
        assert!(!p.branches.nested);
        assert_eq!(p.branches.count, 1);
        assert!(p.ops_under_branch > 0.0 && p.ops_under_branch < 1.0);
        assert_eq!(p.loop_text(), "Imperfect nested");
    }

    #[test]
    fn serial_loops_detected() {
        let mut b = CdfgBuilder::new("t");
        let zero = b.imm(0);
        let o1 = b.for_range(0, 4, &[zero], |b, i, v| vec![b.add(v[0], i)]);
        let o2 = b.for_range(0, 4, &[o1[0]], |b, i, v| vec![b.add(v[0], i)]);
        b.sink("s", o2[0]);
        let g = b.finish();
        let p = profile(&g);
        assert!(p.loops.serial);
        assert!(!p.loops.nested);
        assert_eq!(p.loop_text(), "Serial loops");
    }

    #[test]
    fn non_intensive_single_loop() {
        let mut b = CdfgBuilder::new("t");
        let a = b.array_i32("a", 16, &[]);
        let o = b.array_i32("o", 16, &[]);
        let zero = b.imm(0);
        let _ = b.for_range(0, 16, &[zero], |b, i, v| {
            let x = b.load(a, i);
            let y = b.mul(x, 3.into());
            b.store(o, i, y);
            vec![v[0]]
        });
        let g = b.finish();
        let p = profile(&g);
        assert_eq!(p.branch_text(), "N/A");
        assert_eq!(p.ops_under_branch, 0.0);
    }

    #[test]
    fn nested_branches_detected() {
        let mut b = CdfgBuilder::new("t");
        let x = b.param("x", 5);
        let c1 = b.gt(x, 0.into());
        let r = b.if_else(
            c1,
            |b| {
                let c2 = b.gt(x, 10.into());
                let rr = b.if_else(c2, |b| vec![b.imm(2)], |b| vec![b.imm(1)]);
                vec![rr[0]]
            },
            |b| vec![b.imm(0)],
        );
        b.sink("r", r[0]);
        let g = b.finish();
        let p = profile(&g);
        assert!(p.branches.nested);
        assert!(p.branch_text().contains("Nested"));
    }
}
