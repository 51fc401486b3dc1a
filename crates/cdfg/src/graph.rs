//! The control-data flow graph: flat dataflow nodes tagged with CFG
//! structure (basic blocks and the loop tree).

use crate::op::{ArrayId, Op};
use crate::value::{ElemTy, Value};
use std::fmt;

/// Index of a node in [`Cdfg::nodes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a basic block in [`Cdfg::blocks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of a loop in [`Cdfg::loops`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

/// Index of a runtime scalar parameter in [`Cdfg::params`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

/// Source feeding one input port of a node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PortSrc {
    /// Token stream produced by another node.
    Node(NodeId),
    /// Compile-time immediate: always available, never consumed.
    Imm(Value),
    /// Runtime scalar parameter, resolved to an immediate at load time.
    Param(ParamId),
    /// Unconnected optional port (dependence ports only).
    None,
}

impl PortSrc {
    /// Returns the producing node, if this port is node-sourced.
    pub fn node(self) -> Option<NodeId> {
        match self {
            PortSrc::Node(n) => Some(n),
            _ => None,
        }
    }

    /// True if the port is wired to anything at all.
    pub fn is_connected(self) -> bool {
        !matches!(self, PortSrc::None)
    }
}

/// A dataflow node.
#[derive(Clone, Debug)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Input port sources; length == `op.input_ports()`.
    pub inputs: Vec<PortSrc>,
    /// Basic block this node belongs to.
    pub bb: BlockId,
    /// Sink label (result name) for `Op::Sink` nodes.
    pub label: Option<String>,
}

/// A declared scratchpad array.
#[derive(Clone, Debug)]
pub struct ArrayDecl {
    /// Array name (unique within the program).
    pub name: String,
    /// Number of 32-bit elements.
    pub len: usize,
    /// Element type.
    pub elem: ElemTy,
    /// Initial contents supplied by the workload; zero-filled if shorter.
    pub init: Vec<Value>,
    /// Whether this array is an output to check against the golden model.
    pub is_output: bool,
}

/// A declared runtime scalar parameter.
#[derive(Clone, Debug)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Default value (workloads override at run time).
    pub default: Value,
}

/// Classification of a basic block, mirroring the paper's CFG vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockKind {
    /// Function entry (straight-line prologue).
    Entry,
    /// Loop control cluster: guard, carries, continuation test.
    LoopHeader,
    /// Loop body straight-line region.
    LoopBody,
    /// Taken side of a branch.
    BranchThen,
    /// Untaken side of a branch.
    BranchElse,
}

/// Basic block metadata.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    /// Human-readable name (`"entry"`, `"loop0.body"`, ...).
    pub name: String,
    /// Structural classification.
    pub kind: BlockKind,
    /// Innermost loop containing this block, if any.
    pub loop_id: Option<LoopId>,
    /// Enclosing block in the region tree (`None` for the entry block).
    pub parent: Option<BlockId>,
    /// Nesting depth of *branch* regions containing this block.
    pub branch_depth: u32,
}

/// Loop metadata node in the loop tree.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// Header block holding the loop-control operator cluster.
    pub header: BlockId,
    /// Body block.
    pub body: BlockId,
    /// Parent loop, if nested.
    pub parent: Option<LoopId>,
    /// Nesting depth; outermost loops have depth 1.
    pub depth: u32,
    /// True when the loop's trip count depends on runtime data (for
    /// example SPMV row extents) rather than immediates/parameters, which
    /// forces CCU round-trips on von Neumann machines.
    pub dynamic_bounds: bool,
    /// True when this loop directly contains non-control compute besides
    /// its subloops (makes the enclosing nest an *imperfect loop*).
    pub has_own_compute: bool,
}

/// Edge kinds of the control flow graph over basic blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CfgEdgeKind {
    /// Sequential fallthrough.
    Seq,
    /// Loop entry edge.
    LoopEnter,
    /// Loop back edge.
    LoopBack,
    /// Loop exit edge.
    LoopExit,
    /// Branch taken edge.
    BranchTaken,
    /// Branch untaken edge.
    BranchUntaken,
    /// Join after a branch.
    Join,
}

/// An edge of the CFG (between basic blocks).
#[derive(Clone, Copy, Debug)]
pub struct CfgEdge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// Edge kind.
    pub kind: CfgEdgeKind,
}

/// A complete control-data flow graph program.
///
/// Produced by [`crate::builder::CdfgBuilder`]; consumed by the reference
/// interpreter, the compiler and the simulator.
#[derive(Clone, Debug, Default)]
pub struct Cdfg {
    /// Program name.
    pub name: String,
    /// Flat dataflow nodes.
    pub nodes: Vec<Node>,
    /// Scratchpad arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Runtime scalar parameters.
    pub params: Vec<ParamDecl>,
    /// Basic blocks.
    pub blocks: Vec<BlockInfo>,
    /// Loop tree.
    pub loops: Vec<LoopInfo>,
    /// CFG edges.
    pub cfg_edges: Vec<CfgEdge>,
}

impl Cdfg {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Cdfg {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Node accessor.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Block accessor.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BlockInfo {
        &self.blocks[id.0 as usize]
    }

    /// Loop accessor.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn loop_info(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.0 as usize]
    }

    /// Array accessor.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0 as usize]
    }

    /// Iterates over `(NodeId, &Node)` pairs.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Every array by name with its initial contents: the workload a
    /// simulation of this graph starts from.
    pub fn array_inputs(&self) -> Vec<(String, Vec<Value>)> {
        self.arrays
            .iter()
            .map(|a| (a.name.clone(), a.init.clone()))
            .collect()
    }

    /// Looks up an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    /// Looks up a parameter by name.
    pub fn param_by_name(&self, name: &str) -> Option<ParamId> {
        self.params
            .iter()
            .position(|p| p.name == name)
            .map(|i| ParamId(i as u32))
    }

    /// All sink nodes with their labels, in declaration order.
    pub fn sinks(&self) -> Vec<(NodeId, &str)> {
        self.iter_nodes()
            .filter(|(_, n)| matches!(n.op, Op::Sink))
            .map(|(id, n)| (id, n.label.as_deref().unwrap_or("")))
            .collect()
    }

    /// Builds the consumer adjacency: for every node, the list of
    /// `(consumer, port)` pairs reading its output.
    pub fn consumers(&self) -> Vec<Vec<(NodeId, usize)>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (id, n) in self.iter_nodes() {
            for (port, src) in n.inputs.iter().enumerate() {
                if let PortSrc::Node(p) = src {
                    out[p.0 as usize].push((id, port));
                }
            }
        }
        out
    }

    /// Number of nodes whose operator is a control operator.
    pub fn control_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_control()).count()
    }

    /// Number of nodes carrying data-plane work (compute + memory + mux).
    pub fn compute_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.op.is_control() && !matches!(n.op, Op::Sink))
            .count()
    }

    /// Maximum loop nesting depth of the program.
    pub fn max_loop_depth(&self) -> u32 {
        self.loops.iter().map(|l| l.depth).max().unwrap_or(0)
    }

    /// Structural validation; returns a list of human-readable problems
    /// (empty when the graph is well-formed).
    ///
    /// Checked invariants:
    /// - every node has exactly `op.input_ports()` port sources;
    /// - required ports are connected;
    /// - port sources reference existing nodes/params;
    /// - source nodes have an output (`Sink` feeds nothing);
    /// - array references are in range;
    /// - block/loop references are in range and the loop tree is
    ///   consistent (parents shallower than children);
    /// - exactly one `Start` node exists.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let mut starts = 0usize;
        for (id, n) in self.iter_nodes() {
            if n.inputs.len() != n.op.input_ports() {
                errs.push(format!(
                    "{id}: {} expects {} ports, has {}",
                    n.op,
                    n.op.input_ports(),
                    n.inputs.len()
                ));
            }
            for (port, src) in n.inputs.iter().enumerate() {
                match src {
                    PortSrc::Node(p) => {
                        if p.0 as usize >= self.nodes.len() {
                            errs.push(format!("{id}: port {port} references missing node {p}"));
                        } else if !self.node(*p).op.has_output() {
                            errs.push(format!("{id}: port {port} reads from output-less node {p}"));
                        }
                    }
                    PortSrc::Param(p) => {
                        if p.0 as usize >= self.params.len() {
                            errs.push(format!("{id}: port {port} references missing param"));
                        }
                    }
                    PortSrc::None => {
                        if port < n.op.required_ports() {
                            errs.push(format!(
                                "{id}: required port {port} of {} unconnected",
                                n.op
                            ));
                        }
                    }
                    PortSrc::Imm(_) => {}
                }
            }
            match n.op {
                Op::Load(a) | Op::Store(a) if a.0 as usize >= self.arrays.len() => {
                    errs.push(format!("{id}: references missing array {a}"));
                }
                Op::Start => starts += 1,
                _ => {}
            }
            if n.bb.0 as usize >= self.blocks.len() {
                errs.push(format!("{id}: references missing block {}", n.bb));
            }
        }
        if starts != 1 {
            errs.push(format!(
                "program must have exactly 1 start node, has {starts}"
            ));
        }
        for (i, l) in self.loops.iter().enumerate() {
            if l.header.0 as usize >= self.blocks.len() || l.body.0 as usize >= self.blocks.len() {
                errs.push(format!("loop{i}: header/body out of range"));
            }
            if let Some(p) = l.parent {
                match self.loops.get(p.0 as usize) {
                    Some(par) if par.depth + 1 == l.depth => {}
                    Some(_) => errs.push(format!("loop{i}: depth inconsistent with parent")),
                    None => errs.push(format!("loop{i}: missing parent")),
                }
            } else if l.depth != 1 {
                errs.push(format!("loop{i}: top-level loop must have depth 1"));
            }
        }
        for e in &self.cfg_edges {
            if e.from.0 as usize >= self.blocks.len() || e.to.0 as usize >= self.blocks.len() {
                errs.push("cfg edge endpoint out of range".into());
            }
        }
        errs
    }

    /// Panicking variant of [`Cdfg::validate`] for tests and builders.
    ///
    /// # Panics
    /// Panics with the list of problems if the graph is malformed.
    pub fn assert_valid(&self) {
        let errs = self.validate();
        assert!(
            errs.is_empty(),
            "invalid CDFG {}:\n  {}",
            self.name,
            errs.join("\n  ")
        );
    }
}

impl fmt::Display for Cdfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cdfg {} ({} nodes, {} blocks, {} loops, {} arrays)",
            self.name,
            self.nodes.len(),
            self.blocks.len(),
            self.loops.len(),
            self.arrays.len()
        )?;
        for (id, n) in self.iter_nodes() {
            let ins: Vec<String> = n
                .inputs
                .iter()
                .map(|s| match s {
                    PortSrc::Node(p) => p.to_string(),
                    PortSrc::Imm(v) => format!("#{v}"),
                    PortSrc::Param(p) => format!("${}", self.params[p.0 as usize].name),
                    PortSrc::None => "_".into(),
                })
                .collect();
            writeln!(f, "  {id} [{}] = {} ({})", n.bb, n.op, ins.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BinOp;

    fn tiny() -> Cdfg {
        let mut g = Cdfg::new("tiny");
        g.blocks.push(BlockInfo {
            name: "entry".into(),
            kind: BlockKind::Entry,
            loop_id: None,
            parent: None,
            branch_depth: 0,
        });
        g.nodes.push(Node {
            op: Op::Start,
            inputs: vec![],
            bb: BlockId(0),
            label: None,
        });
        g.nodes.push(Node {
            op: Op::Gate,
            inputs: vec![PortSrc::Node(NodeId(0)), PortSrc::Imm(Value::I32(21))],
            bb: BlockId(0),
            label: None,
        });
        g.nodes.push(Node {
            op: Op::Bin(BinOp::Add),
            inputs: vec![PortSrc::Node(NodeId(1)), PortSrc::Node(NodeId(1))],
            bb: BlockId(0),
            label: None,
        });
        g.nodes.push(Node {
            op: Op::Sink,
            inputs: vec![PortSrc::Node(NodeId(2))],
            bb: BlockId(0),
            label: Some("out".into()),
        });
        g
    }

    #[test]
    fn valid_graph_passes() {
        let g = tiny();
        assert!(g.validate().is_empty(), "{:?}", g.validate());
        g.assert_valid();
    }

    #[test]
    fn consumers_adjacency() {
        let g = tiny();
        let cons = g.consumers();
        assert_eq!(cons[1], vec![(NodeId(2), 0), (NodeId(2), 1)]);
        assert_eq!(cons[2], vec![(NodeId(3), 0)]);
        assert!(cons[3].is_empty());
    }

    #[test]
    fn detects_bad_port_count() {
        let mut g = tiny();
        g.nodes[2].inputs.pop();
        assert!(g.validate().iter().any(|e| e.contains("expects 2 ports")));
    }

    #[test]
    fn detects_missing_node_ref() {
        let mut g = tiny();
        g.nodes[2].inputs[0] = PortSrc::Node(NodeId(99));
        assert!(!g.validate().is_empty());
    }

    #[test]
    fn detects_read_from_sink() {
        let mut g = tiny();
        g.nodes[2].inputs[0] = PortSrc::Node(NodeId(3));
        assert!(g.validate().iter().any(|e| e.contains("output-less")));
    }

    #[test]
    fn detects_multiple_starts() {
        let mut g = tiny();
        g.nodes.push(Node {
            op: Op::Start,
            inputs: vec![],
            bb: BlockId(0),
            label: None,
        });
        assert!(g.validate().iter().any(|e| e.contains("start")));
    }

    #[test]
    fn counts() {
        let g = tiny();
        assert_eq!(g.compute_node_count(), 1); // the add
        assert_eq!(g.control_node_count(), 2); // start + gate
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.max_loop_depth(), 0);
    }
}
