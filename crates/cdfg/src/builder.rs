//! Structured CDFG construction.
//!
//! The builder plays the role of the paper's *annotated C → Clang → LLVM IR →
//! CDFG extraction* front end (§4.4, Fig 9/10): kernels are written against a
//! structured API (`for_range`, `loop_while`, `if_else`) and lowered into the
//! flat dataflow operator set of [`crate::op::Op`], while basic blocks, the
//! loop tree and branch regions are recorded as CFG metadata for the
//! compiler's Agile PE Assignment.
//!
//! # Lowering scheme
//!
//! Loops use the *guarded rotated-loop* form:
//!
//! ```text
//! g = cond(inits)                         (parent region)
//! in_k   = steer[T,loop](g, init_k)       (one activation token per entry)
//! byp_k  = steer[F,loop](g, init_k)       (zero-trip bypass)
//! var_k  = carry(last, in_k, next_k)      (per-iteration value)
//! ...body: next_k = f(var_*)...
//! cont   = cond(next_*) ; last = !cont    (per-iteration)
//! exit_k = steer[T,loop](last, next_k)    (one token on loop exit)
//! out_k  = merge[loop](g, exit_k, byp_k)  (join with the bypass)
//! ```
//!
//! Values defined outside a loop but used inside are automatically wrapped in
//! [`Op::Inv`] (loop-invariant replay); values used inside a branch side are
//! automatically steered by the branch predicate. This *import* machinery
//! keeps token rates consistent across regions — the invariant the
//! interpreter and simulator rely on.
//!
//! Loops may not appear inside `if_else` sides (only loop-free hammocks are
//! predicable; this matches how the paper's von Neumann baseline applies
//! Predication vs. Switch Configuration). The builder panics on violation.

use crate::graph::{
    ArrayDecl, BlockId, BlockInfo, BlockKind, Cdfg, CfgEdge, CfgEdgeKind, LoopId, LoopInfo, Node,
    NodeId, ParamDecl, PortSrc,
};
use crate::op::{ArrayId, BinOp, NlOp, Op, SteerRole, UnOp};
use crate::value::{ElemTy, Value};
use std::collections::HashMap;

/// An SSA-like value handle produced by builder operations.
#[derive(Clone, Copy, Debug)]
pub struct V(pub(crate) PortSrc);

impl From<i32> for V {
    fn from(v: i32) -> Self {
        V(PortSrc::Imm(Value::I32(v)))
    }
}

impl From<f32> for V {
    fn from(v: f32) -> Self {
        V(PortSrc::Imm(Value::F32(v)))
    }
}

impl From<Value> for V {
    fn from(v: Value) -> Self {
        V(PortSrc::Imm(v))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct RegionId(usize);

enum RegionKind {
    Top,
    Loop {
        /// Nodes whose `last` port must be patched when the loop closes.
        pending_last: Vec<(NodeId, usize)>,
        /// Zero-trip guard token: imports are steered by it so that
        /// skipped activations leave no stale tokens behind.
        guard: PortSrc,
    },
    Branch {
        pred: PortSrc,
        sense: bool,
    },
}

struct Region {
    kind: RegionKind,
    parent: Option<RegionId>,
    /// Per-region activation tick used to gate all-immediate computations.
    tick: Option<PortSrc>,
    /// Memoized imports of outer values into this region.
    imports: HashMap<NodeId, PortSrc>,
    bb: BlockId,
}

/// Builder for [`Cdfg`] programs.
///
/// # Examples
///
/// ```
/// use marionette_cdfg::builder::CdfgBuilder;
///
/// let mut b = CdfgBuilder::new("dot");
/// let a = b.array_i32("a", 4, &[1, 2, 3, 4]);
/// let x = b.array_i32("x", 4, &[5, 6, 7, 8]);
/// let n = b.imm(4);
/// let sum = b.for_range(0, n, &[0.into()], |b, i, vars| {
///     let av = b.load(a, i);
///     let xv = b.load(x, i);
///     let p = b.mul(av, xv);
///     vec![b.add(vars[0], p)]
/// });
/// b.sink("dot", sum[0]);
/// let g = b.finish();
/// assert!(g.validate().is_empty());
/// ```
pub struct CdfgBuilder {
    g: Cdfg,
    regions: Vec<Region>,
    cur_region: RegionId,
    cur_bb: BlockId,
    /// Output-rate region of every node.
    node_region: Vec<RegionId>,
    start: NodeId,
    loop_parent_stack: Vec<LoopId>,
}

impl CdfgBuilder {
    /// Creates a builder with an entry block and the program start token.
    pub fn new(name: impl Into<String>) -> Self {
        let mut g = Cdfg::new(name);
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
        let start = NodeId(0);
        let regions = vec![Region {
            kind: RegionKind::Top,
            parent: None,
            tick: Some(PortSrc::Node(start)),
            imports: HashMap::new(),
            bb: BlockId(0),
        }];
        CdfgBuilder {
            g,
            regions,
            cur_region: RegionId(0),
            cur_bb: BlockId(0),
            node_region: vec![RegionId(0)],
            start,
            loop_parent_stack: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    /// Declares an i32 scratchpad array initialized with `init`
    /// (zero-extended to `len`).
    pub fn array_i32(&mut self, name: &str, len: usize, init: &[i32]) -> ArrayId {
        self.array(
            name,
            len,
            ElemTy::I32,
            init.iter().map(|&v| Value::I32(v)).collect(),
        )
    }

    /// Declares an f32 scratchpad array initialized with `init`.
    pub fn array_f32(&mut self, name: &str, len: usize, init: &[f32]) -> ArrayId {
        self.array(
            name,
            len,
            ElemTy::F32,
            init.iter().map(|&v| Value::F32(v)).collect(),
        )
    }

    /// Declares an array with explicit element type and initial values.
    pub fn array(&mut self, name: &str, len: usize, elem: ElemTy, init: Vec<Value>) -> ArrayId {
        assert!(
            self.g.array_by_name(name).is_none(),
            "duplicate array {name}"
        );
        assert!(init.len() <= len, "array {name}: init longer than len");
        let id = ArrayId(self.g.arrays.len() as u32);
        self.g.arrays.push(ArrayDecl {
            name: name.into(),
            len,
            elem,
            init,
            is_output: false,
        });
        id
    }

    /// Marks an array as a program output (checked against golden models).
    pub fn mark_output(&mut self, arr: ArrayId) {
        self.g.arrays[arr.0 as usize].is_output = true;
    }

    /// Declares a runtime scalar parameter with a default value.
    pub fn param(&mut self, name: &str, default: impl Into<Value>) -> V {
        let id = crate::graph::ParamId(self.g.params.len() as u32);
        self.g.params.push(ParamDecl {
            name: name.into(),
            default: default.into(),
        });
        V(PortSrc::Param(id))
    }

    /// An immediate value.
    pub fn imm(&mut self, v: impl Into<Value>) -> V {
        V(PortSrc::Imm(v.into()))
    }

    // ------------------------------------------------------------------
    // Region / node plumbing
    // ------------------------------------------------------------------

    fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0]
    }

    fn is_ancestor(&self, anc: RegionId, mut r: RegionId) -> bool {
        loop {
            if r == anc {
                return true;
            }
            match self.region(r).parent {
                Some(p) => r = p,
                None => return false,
            }
        }
    }

    /// Raw node creation: no import, no gating. Used for lowering wiring
    /// where token rates intentionally differ between ports.
    fn node_raw(&mut self, op: Op, inputs: Vec<PortSrc>, region: RegionId, bb: BlockId) -> NodeId {
        debug_assert_eq!(inputs.len(), op.input_ports(), "{op}: bad arity");
        let id = NodeId(self.g.nodes.len() as u32);
        self.g.nodes.push(Node {
            op,
            inputs,
            bb,
            label: None,
        });
        self.node_region.push(region);
        id
    }

    /// Imports `src` into region `target`, wrapping with `Inv` (loop) or
    /// branch steers as needed. Immediates and params import freely.
    fn import_into(&mut self, src: PortSrc, target: RegionId) -> PortSrc {
        let n = match src {
            PortSrc::Node(n) => n,
            other => return other,
        };
        let nr = self.node_region[n.0 as usize];
        if nr == target {
            return src;
        }
        assert!(
            self.is_ancestor(nr, target),
            "value {n} (region {:?}) used outside its region (target {:?}); \
             values may only flow outward through loop exits / branch merges",
            nr,
            target
        );
        if let Some(hit) = self.region(target).imports.get(&n) {
            return *hit;
        }
        // Import into the parent first, then wrap one level down.
        let parent = self.region(target).parent.expect("non-top region");
        let from_parent = self.import_into(src, parent);
        let bb = self.region(target).bb;
        let imported = match &self.regions[target.0].kind {
            RegionKind::Loop { guard, .. } => {
                // Gate by the zero-trip guard (the token only enters the
                // loop when the loop actually runs), then replay it every
                // iteration with Inv.
                let guard = *guard;
                let gated = self.node_raw(
                    Op::Steer {
                        sense: true,
                        role: SteerRole::LoopCtl,
                    },
                    vec![guard, from_parent],
                    parent,
                    bb,
                );
                let inv = self.node_raw(
                    Op::Inv,
                    vec![PortSrc::Node(gated), PortSrc::None],
                    target,
                    bb,
                );
                if let RegionKind::Loop { pending_last, .. } = &mut self.regions[target.0].kind {
                    pending_last.push((inv, 1));
                }
                PortSrc::Node(inv)
            }
            RegionKind::Branch { pred, sense } => {
                let (pred, sense) = (*pred, *sense);
                let steer = self.node_raw(
                    Op::Steer {
                        sense,
                        role: SteerRole::Branch,
                    },
                    vec![pred, from_parent],
                    target,
                    bb,
                );
                PortSrc::Node(steer)
            }
            RegionKind::Top => unreachable!("top region has no parent"),
        };
        self.regions[target.0].imports.insert(n, imported);
        imported
    }

    /// The activation tick of the given region (created lazily for branch
    /// regions).
    fn tick_of(&mut self, region: RegionId) -> PortSrc {
        if let Some(t) = self.region(region).tick {
            return t;
        }
        // Branch region: steer the parent tick by the predicate.
        let parent = self.region(region).parent.expect("tickless top region");
        let ptick = self.tick_of(parent);
        let t = self.import_into(ptick, region);
        self.regions[region.0].tick = Some(t);
        t
    }

    /// Ensures `v` is a token (consumable) in the current region by gating
    /// immediates/params off the region tick.
    fn tokenize(&mut self, v: PortSrc) -> PortSrc {
        match v {
            PortSrc::Node(_) => self.import_into(v, self.cur_region),
            PortSrc::Imm(_) | PortSrc::Param(_) => {
                let tick = self.tick_of(self.cur_region);
                let g = self.node_raw(Op::Gate, vec![tick, v], self.cur_region, self.cur_bb);
                PortSrc::Node(g)
            }
            PortSrc::None => PortSrc::None,
        }
    }

    /// Standard node creation: imports all operands into the current region
    /// and guarantees at least one token input.
    fn node(&mut self, op: Op, inputs: Vec<PortSrc>) -> V {
        let mut ins: Vec<PortSrc> = inputs
            .into_iter()
            .map(|s| self.import_into(s, self.cur_region))
            .collect();
        if !ins.iter().any(|s| matches!(s, PortSrc::Node(_))) {
            // All-immediate computation: gate the first connected port so
            // the node fires once per region activation.
            let pos = ins
                .iter()
                .position(|s| s.is_connected())
                .expect("node with no connected inputs");
            ins[pos] = self.tokenize(ins[pos]);
        }
        let id = self.node_raw(op, ins, self.cur_region, self.cur_bb);
        V(PortSrc::Node(id))
    }

    // ------------------------------------------------------------------
    // Compute operations
    // ------------------------------------------------------------------

    /// Creates a binary operation node.
    pub fn bin(&mut self, op: BinOp, a: V, b: V) -> V {
        self.node(Op::Bin(op), vec![a.0, b.0])
    }

    /// Creates a unary operation node.
    pub fn un(&mut self, op: UnOp, a: V) -> V {
        self.node(Op::Un(op), vec![a.0])
    }

    /// Creates a nonlinear operation node (requires a nonlinear PE).
    pub fn nl(&mut self, op: NlOp, a: V) -> V {
        self.node(Op::Nl(op), vec![a.0])
    }

    /// Three-input multiplexer: `if pred { t } else { f }` with both sides
    /// computed (cheap hammock predication on the data plane).
    pub fn mux(&mut self, pred: V, t: V, f: V) -> V {
        self.node(Op::Mux, vec![pred.0, t.0, f.0])
    }

    /// Loads `arr[idx]`.
    pub fn load(&mut self, arr: ArrayId, idx: V) -> V {
        self.node(Op::Load(arr), vec![idx.0, PortSrc::None])
    }

    /// Loads `arr[idx]` ordered after the dependence token `dep`.
    pub fn load_dep(&mut self, arr: ArrayId, idx: V, dep: V) -> V {
        self.node(Op::Load(arr), vec![idx.0, dep.0])
    }

    /// Stores `val` to `arr[idx]`; returns the store's dependence token.
    pub fn store(&mut self, arr: ArrayId, idx: V, val: V) -> V {
        self.node(Op::Store(arr), vec![idx.0, val.0, PortSrc::None])
    }

    /// Stores with an explicit dependence token (memory ordering).
    pub fn store_dep(&mut self, arr: ArrayId, idx: V, val: V, dep: V) -> V {
        self.node(Op::Store(arr), vec![idx.0, val.0, dep.0])
    }

    /// Collects `v` under the result label `name`.
    ///
    /// Immediates and parameters are gated off the region's activation
    /// tick (like any all-immediate computation), so `sink("x", b.imm(5))`
    /// collects one value per region activation instead of never firing.
    pub fn sink(&mut self, name: &str, v: V) {
        let v = self.tokenize(v.0);
        let id = self.node_raw(Op::Sink, vec![v], self.cur_region, self.cur_bb);
        self.g.nodes[id.0 as usize].label = Some(name.into());
    }

    // ------------------------------------------------------------------
    // Structured control flow
    // ------------------------------------------------------------------

    /// `for i in lo..hi` with loop-carried variables.
    ///
    /// `body(builder, i, vars)` returns the next value of each variable;
    /// the final values (after the last iteration, or the initial values if
    /// the loop runs zero times) are returned.
    pub fn for_range<F>(
        &mut self,
        lo: impl Into<V>,
        hi: impl Into<V>,
        inits: &[V],
        body: F,
    ) -> Vec<V>
    where
        F: FnOnce(&mut Self, V, &[V]) -> Vec<V>,
    {
        self.for_range_step(lo, hi, 1, inits, body)
    }

    /// `for i in (lo..hi).step_by(step)` with loop-carried variables.
    ///
    /// # Panics
    /// Panics if `step <= 0` or if called inside an `if_else` side.
    pub fn for_range_step<F>(
        &mut self,
        lo: impl Into<V>,
        hi: impl Into<V>,
        step: i32,
        inits: &[V],
        body: F,
    ) -> Vec<V>
    where
        F: FnOnce(&mut Self, V, &[V]) -> Vec<V>,
    {
        assert!(step > 0, "for_range_step requires a positive step");
        let lo = lo.into();
        let hi = hi.into();
        let dynamic = matches!(hi.0, PortSrc::Node(_)) || matches!(lo.0, PortSrc::Node(_));
        let mut all_inits = vec![lo];
        all_inits.extend_from_slice(inits);
        let step_v = V(PortSrc::Imm(Value::I32(step)));
        let outs = self.lower_loop(
            &all_inits,
            dynamic,
            |b, vals| b.bin(BinOp::Lt, vals[0], hi),
            |b, vals| {
                let i = vals[0];
                let user_next = body(b, i, &vals[1..]);
                // The induction increment belongs to the loop operator
                // (header cluster), not the body pipeline.
                let inext = b.in_loop_header(|b| b.bin(BinOp::Add, i, step_v));
                let mut next = vec![inext];
                next.extend(user_next);
                next
            },
        );
        outs[1..].to_vec()
    }

    /// General while loop over carried variables.
    ///
    /// `cond` is evaluated twice: on the initial values (zero-trip guard,
    /// in the enclosing region) and on each iteration's next values
    /// (continuation test). `body` maps current values to next values.
    /// Returns the post-loop values.
    ///
    /// # Panics
    /// Panics if `inits` is empty or if called inside an `if_else` side.
    pub fn loop_while<C, F>(&mut self, inits: &[V], cond: C, body: F) -> Vec<V>
    where
        C: Fn(&mut Self, &[V]) -> V,
        F: FnOnce(&mut Self, &[V]) -> Vec<V>,
    {
        assert!(
            !inits.is_empty(),
            "loop_while requires at least one variable"
        );
        self.lower_loop(inits, true, cond, body)
    }

    /// Builds nodes inside the enclosing loop's header block (the loop
    /// operator cluster): loop-control arithmetic placed here executes on
    /// the loop generator at one iteration per cycle.
    ///
    /// # Panics
    /// Panics when called outside a loop body.
    pub fn in_loop_header<F, R>(&mut self, f: F) -> R
    where
        F: FnOnce(&mut Self) -> R,
    {
        let lid = *self
            .loop_parent_stack
            .last()
            .expect("in_loop_header requires an enclosing loop");
        let header = self.g.loops[lid.0 as usize].header;
        let saved = self.cur_bb;
        self.cur_bb = header;
        let r = f(self);
        self.cur_bb = saved;
        r
    }

    fn assert_not_in_branch(&self) {
        let mut r = self.cur_region;
        loop {
            match &self.region(r).kind {
                RegionKind::Branch { .. } => panic!(
                    "loops inside if_else sides are not supported: only loop-free \
                     hammocks are predicable (restructure the kernel so the loop \
                     surrounds the branch)"
                ),
                RegionKind::Loop { .. } => match self.region(r).parent {
                    Some(p) => r = p,
                    None => return,
                },
                RegionKind::Top => return,
            }
        }
    }

    fn lower_loop<C, F>(&mut self, inits: &[V], dynamic: bool, cond: C, body: F) -> Vec<V>
    where
        C: Fn(&mut Self, &[V]) -> V,
        F: FnOnce(&mut Self, &[V]) -> Vec<V>,
    {
        self.assert_not_in_branch();
        let parent_region = self.cur_region;
        let parent_bb = self.cur_bb;

        // --- guard, in the parent region -------------------------------
        let g_raw = cond(self, inits);
        let g = self.tokenize(g_raw.0);

        // --- blocks & loop metadata ------------------------------------
        let loop_id = LoopId(self.g.loops.len() as u32);
        let depth = self.loop_parent_stack.len() as u32 + 1;
        let parent_loop = self.loop_parent_stack.last().copied();
        let header_bb = BlockId(self.g.blocks.len() as u32);
        self.g.blocks.push(BlockInfo {
            name: format!("loop{}.header", loop_id.0),
            kind: BlockKind::LoopHeader,
            loop_id: Some(loop_id),
            parent: Some(parent_bb),
            branch_depth: self.g.block(parent_bb).branch_depth,
        });
        let body_bb = BlockId(self.g.blocks.len() as u32);
        self.g.blocks.push(BlockInfo {
            name: format!("loop{}.body", loop_id.0),
            kind: BlockKind::LoopBody,
            loop_id: Some(loop_id),
            parent: Some(header_bb),
            branch_depth: self.g.block(parent_bb).branch_depth,
        });
        self.g.loops.push(LoopInfo {
            header: header_bb,
            body: body_bb,
            parent: parent_loop,
            depth,
            dynamic_bounds: dynamic,
            has_own_compute: false, // fixed up in finish()
        });
        self.g.cfg_edges.push(CfgEdge {
            from: parent_bb,
            to: header_bb,
            kind: CfgEdgeKind::LoopEnter,
        });
        self.g.cfg_edges.push(CfgEdge {
            from: header_bb,
            to: body_bb,
            kind: CfgEdgeKind::Seq,
        });
        self.g.cfg_edges.push(CfgEdge {
            from: body_bb,
            to: header_bb,
            kind: CfgEdgeKind::LoopBack,
        });
        self.g.cfg_edges.push(CfgEdge {
            from: header_bb,
            to: parent_bb,
            kind: CfgEdgeKind::LoopExit,
        });

        // --- entry steers (activation rate: parent region) -------------
        let mut loop_in = Vec::with_capacity(inits.len());
        let mut bypass = Vec::with_capacity(inits.len());
        for init in inits {
            let iv = self.import_into(init.0, parent_region);
            let li = self.node_raw(
                Op::Steer {
                    sense: true,
                    role: SteerRole::LoopCtl,
                },
                vec![g, iv],
                parent_region,
                header_bb,
            );
            let by = self.node_raw(
                Op::Steer {
                    sense: false,
                    role: SteerRole::LoopCtl,
                },
                vec![g, iv],
                parent_region,
                parent_bb,
            );
            loop_in.push(PortSrc::Node(li));
            bypass.push(PortSrc::Node(by));
        }

        // --- loop region + carries --------------------------------------
        let loop_region = RegionId(self.regions.len());
        self.regions.push(Region {
            kind: RegionKind::Loop {
                pending_last: Vec::new(),
                guard: g,
            },
            parent: Some(parent_region),
            tick: None, // set to the first carry below
            imports: HashMap::new(),
            bb: header_bb,
        });
        let mut carries = Vec::with_capacity(inits.len());
        for li in &loop_in {
            let c = self.node_raw(
                Op::Carry,
                vec![PortSrc::None, *li, PortSrc::None],
                loop_region,
                header_bb,
            );
            if let RegionKind::Loop { pending_last, .. } = &mut self.regions[loop_region.0].kind {
                pending_last.push((c, 0));
            }
            carries.push(c);
        }
        self.regions[loop_region.0].tick = Some(PortSrc::Node(carries[0]));

        // --- body --------------------------------------------------------
        self.cur_region = loop_region;
        self.cur_bb = body_bb;
        self.loop_parent_stack.push(loop_id);
        let vars: Vec<V> = carries.iter().map(|&c| V(PortSrc::Node(c))).collect();
        let next = body(self, &vars);
        assert_eq!(
            next.len(),
            inits.len(),
            "loop body must return one next value per variable"
        );
        self.loop_parent_stack.pop();

        // --- continuation test, in the header --------------------------
        self.cur_bb = header_bb;
        let next_srcs: Vec<PortSrc> = next
            .iter()
            .map(|v| {
                let s = self.import_into(v.0, loop_region);
                // `next` feeds a carry and an exit steer, which pop per
                // iteration: immediates would never be consumed, so gate
                // them to the iteration rate.
                if matches!(s, PortSrc::Node(_)) {
                    s
                } else {
                    self.tokenize(s)
                }
            })
            .collect();
        let cont = cond(self, &next_srcs.iter().map(|&s| V(s)).collect::<Vec<_>>());
        let cont = self.import_into(cont.0, loop_region);
        let last_id = self.node_raw(Op::Un(UnOp::LNot), vec![cont], loop_region, header_bb);
        let last = PortSrc::Node(last_id);

        // --- patch carries/invariants with `last`, wire `next` ---------
        let pending = match &mut self.regions[loop_region.0].kind {
            RegionKind::Loop { pending_last, .. } => std::mem::take(pending_last),
            _ => unreachable!(),
        };
        for (node, port) in pending {
            self.g.nodes[node.0 as usize].inputs[port] = last;
        }
        for (k, &c) in carries.iter().enumerate() {
            self.g.nodes[c.0 as usize].inputs[2] = next_srcs[k];
        }

        // --- exits + join ----------------------------------------------
        self.cur_region = parent_region;
        self.cur_bb = parent_bb;
        let mut outs = Vec::with_capacity(inits.len());
        for k in 0..inits.len() {
            let ex = self.node_raw(
                Op::Steer {
                    sense: true,
                    role: SteerRole::LoopCtl,
                },
                vec![last, next_srcs[k]],
                parent_region,
                header_bb,
            );
            let m = self.node_raw(
                Op::Merge {
                    role: SteerRole::LoopCtl,
                },
                vec![g, PortSrc::Node(ex), bypass[k]],
                parent_region,
                parent_bb,
            );
            outs.push(V(PortSrc::Node(m)));
        }
        outs
    }

    /// Structured branch: both closures return the same number of values,
    /// which are merged by the predicate. Parent values used inside a side
    /// are automatically steered; loops are not allowed inside sides.
    pub fn if_else<T, E>(&mut self, pred: V, then_f: T, else_f: E) -> Vec<V>
    where
        T: FnOnce(&mut Self) -> Vec<V>,
        E: FnOnce(&mut Self) -> Vec<V>,
    {
        let parent_region = self.cur_region;
        let parent_bb = self.cur_bb;
        let p = self.tokenize(pred.0);
        let bd = self.g.block(parent_bb).branch_depth + 1;
        let loop_id = self.g.block(parent_bb).loop_id;

        type SideBody<'b, B> = Box<dyn FnOnce(&mut B) -> Vec<V> + 'b>;
        let run_side =
            |builder: &mut Self, sense: bool, f: SideBody<'_, Self>| -> (Vec<PortSrc>, BlockId) {
                let bb = BlockId(builder.g.blocks.len() as u32);
                builder.g.blocks.push(BlockInfo {
                    name: format!("{}{}", if sense { "then" } else { "else" }, bb.0),
                    kind: if sense {
                        BlockKind::BranchThen
                    } else {
                        BlockKind::BranchElse
                    },
                    loop_id,
                    parent: Some(parent_bb),
                    branch_depth: bd,
                });
                builder.g.cfg_edges.push(CfgEdge {
                    from: parent_bb,
                    to: bb,
                    kind: if sense {
                        CfgEdgeKind::BranchTaken
                    } else {
                        CfgEdgeKind::BranchUntaken
                    },
                });
                builder.g.cfg_edges.push(CfgEdge {
                    from: bb,
                    to: parent_bb,
                    kind: CfgEdgeKind::Join,
                });
                let region = RegionId(builder.regions.len());
                builder.regions.push(Region {
                    kind: RegionKind::Branch { pred: p, sense },
                    parent: Some(parent_region),
                    tick: None,
                    imports: HashMap::new(),
                    bb,
                });
                builder.cur_region = region;
                builder.cur_bb = bb;
                let vals = f(builder);
                // Import returned values into the side region so the merge sees
                // one token per activation even for untouched parent values.
                let srcs = vals
                    .iter()
                    .map(|v| builder.import_into(v.0, region))
                    .collect();
                builder.cur_region = parent_region;
                builder.cur_bb = parent_bb;
                (srcs, bb)
            };

        let (tvals, _tbb) = run_side(self, true, Box::new(then_f));
        let (evals, _ebb) = run_side(self, false, Box::new(else_f));
        assert_eq!(
            tvals.len(),
            evals.len(),
            "if_else sides must return the same number of values"
        );
        tvals
            .into_iter()
            .zip(evals)
            .map(|(t, e)| {
                V(PortSrc::Node(self.node_raw(
                    Op::Merge {
                        role: SteerRole::Branch,
                    },
                    vec![p, t, e],
                    parent_region,
                    parent_bb,
                )))
            })
            .collect()
    }

    /// Finishes construction: computes loop metadata and validates.
    ///
    /// # Panics
    /// Panics if the constructed graph fails [`Cdfg::validate`].
    pub fn finish(mut self) -> Cdfg {
        // has_own_compute: a loop directly contains data-plane work if any
        // non-control node lives in a block whose innermost loop is this
        // loop (headers excluded: loop control is control-plane work).
        let mut own = vec![false; self.g.loops.len()];
        for n in &self.g.nodes {
            if n.op.is_control() || matches!(n.op, Op::Sink) {
                continue;
            }
            let b = self.g.block(n.bb);
            if let Some(l) = b.loop_id {
                if b.kind != BlockKind::LoopHeader {
                    own[l.0 as usize] = true;
                }
            }
        }
        for (i, l) in self.g.loops.iter_mut().enumerate() {
            l.has_own_compute = own[i];
        }
        self.g.assert_valid();
        self.g
    }

    /// The program start token (one `Unit` token at program begin).
    pub fn start_token(&self) -> V {
        V(PortSrc::Node(self.start))
    }
}

// Convenience wrappers for every operator, so kernels read naturally.
macro_rules! bin_methods {
    ($($name:ident => $op:ident),* $(,)?) => {
        impl CdfgBuilder {
            $(
                #[doc = concat!("Shorthand for [`CdfgBuilder::bin`] with [`BinOp::", stringify!($op), "`].")]
                pub fn $name(&mut self, a: V, b: V) -> V {
                    self.bin(BinOp::$op, a, b)
                }
            )*
        }
    };
}

bin_methods!(
    add => Add, sub => Sub, mul => Mul, div => Div, rem => Rem,
    and_ => And, or_ => Or, xor => Xor, shl => Shl, shr => Shr, ashr => AShr,
    min => Min, max => Max,
    lt => Lt, le => Le, gt => Gt, ge => Ge, eq => Eq, ne => Ne,
    fadd => FAdd, fsub => FSub, fmul => FMul, fdiv => FDiv,
    fmin => FMin, fmax => FMax,
    flt => FLt, fle => FLe, fgt => FGt, fge => FGe,
);

macro_rules! un_methods {
    ($($name:ident => $op:ident),* $(,)?) => {
        impl CdfgBuilder {
            $(
                #[doc = concat!("Shorthand for [`CdfgBuilder::un`] with [`UnOp::", stringify!($op), "`].")]
                pub fn $name(&mut self, a: V) -> V {
                    self.un(UnOp::$op, a)
                }
            )*
        }
    };
}

un_methods!(
    not_ => Not, neg => Neg, abs => Abs, fneg => FNeg, fabs => FAbs,
    i2f => I2F, f2i => F2I, lnot => LNot,
);

macro_rules! nl_methods {
    ($($name:ident => $op:ident),* $(,)?) => {
        impl CdfgBuilder {
            $(
                #[doc = concat!("Shorthand for [`CdfgBuilder::nl`] with [`NlOp::", stringify!($op), "`].")]
                pub fn $name(&mut self, a: V) -> V {
                    self.nl(NlOp::$op, a)
                }
            )*
        }
    };
}

nl_methods!(
    sigmoid => Sigmoid, log_ => Log, exp_ => Exp, sqrt_ => Sqrt,
    recip => Recip, tanh_ => Tanh,
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BlockKind;

    #[test]
    fn straight_line() {
        let mut b = CdfgBuilder::new("t");
        let x = b.imm(2);
        let y = b.imm(3);
        let s = b.add(x, y);
        b.sink("s", s);
        let g = b.finish();
        assert_eq!(g.blocks.len(), 1);
        // start, gate (tokenized imm), add, sink
        assert_eq!(g.nodes.len(), 4);
    }

    #[test]
    fn counted_loop_structure() {
        let mut b = CdfgBuilder::new("t");
        let zero = b.imm(0);
        let outs = b.for_range(0, 10, &[zero], |b, i, vars| vec![b.add(vars[0], i)]);
        b.sink("sum", outs[0]);
        let g = b.finish();
        assert_eq!(g.loops.len(), 1);
        assert_eq!(g.blocks.len(), 3); // entry, header, body
        assert!(!g.loops[0].dynamic_bounds);
        assert_eq!(g.loops[0].depth, 1);
        assert!(g.blocks.iter().any(|b| b.kind == BlockKind::LoopHeader));
    }

    #[test]
    fn nested_loop_depth_and_dynamic_bounds() {
        let mut b = CdfgBuilder::new("t");
        let acc0 = b.imm(0);
        let n = b.param("n", 4);
        let outs = b.for_range(0, n, &[acc0], |b, i, vars| {
            let hi = b.add(i, 3.into());
            let inner = b.for_range(i, hi, &[vars[0]], |b, j, v| vec![b.add(v[0], j)]);
            vec![inner[0]]
        });
        b.sink("acc", outs[0]);
        let g = b.finish();
        assert_eq!(g.loops.len(), 2);
        assert_eq!(g.loops[1].depth, 2);
        assert_eq!(g.loops[1].parent, Some(LoopId(0)));
        assert!(g.loops[1].dynamic_bounds, "bounds come from computation");
        assert!(g.max_loop_depth() == 2);
    }

    #[test]
    fn if_else_structure() {
        let mut b = CdfgBuilder::new("t");
        let x = b.param("x", 5);
        let zero = b.imm(0);
        let p = b.gt(x, zero);
        let outs = b.if_else(
            p,
            |b| vec![b.add(x, 1.into())],
            |b| vec![b.sub(x, 1.into())],
        );
        b.sink("r", outs[0]);
        let g = b.finish();
        assert!(g.blocks.iter().any(|b| b.kind == BlockKind::BranchThen));
        assert!(g.blocks.iter().any(|b| b.kind == BlockKind::BranchElse));
        assert_eq!(g.blocks.iter().map(|b| b.branch_depth).max(), Some(1));
    }

    #[test]
    #[should_panic(expected = "loops inside if_else")]
    fn loop_in_branch_rejected() {
        let mut b = CdfgBuilder::new("t");
        let one = b.imm(1);
        b.if_else(
            one,
            |b| {
                let z = b.imm(0);
                let o = b.for_range(0, 3, &[z], |b, i, v| vec![b.add(v[0], i)]);
                vec![o[0]]
            },
            |b| vec![b.imm(0)],
        );
    }

    #[test]
    #[should_panic(expected = "used outside its region")]
    fn escape_rejected() {
        let mut b = CdfgBuilder::new("t");
        let zero = b.imm(0);
        let mut leaked = None;
        let _ = b.for_range(0, 3, &[zero], |b, i, v| {
            leaked = Some(b.add(i, 1.into()));
            vec![v[0]]
        });
        // Using a loop-interior value outside the loop must panic.
        let l = leaked.unwrap();
        let _ = b.add(l, 1.into());
    }

    #[test]
    fn invariant_import_is_memoized() {
        let mut b = CdfgBuilder::new("t");
        let n = b.param("n", 8);
        let big = b.add(n, 100.into()); // parent-region node value
        let zero = b.imm(0);
        let _ = b.for_range(0, 4, &[zero], |b, _i, v| {
            let a = b.add(v[0], big);
            let c = b.add(a, big); // second use: same Inv node
            vec![c]
        });
        let g = b.finish();
        let invs = g.nodes.iter().filter(|n| matches!(n.op, Op::Inv)).count();
        assert_eq!(invs, 1, "one Inv per imported value per region");
    }

    #[test]
    fn loop_metadata_has_own_compute() {
        let mut b = CdfgBuilder::new("t");
        let a = b.array_i32("a", 8, &[]);
        let zero = b.imm(0);
        let _ = b.for_range(0, 4, &[zero], |b, i, v| {
            // outer body has compute (the mul) and a subloop -> imperfect
            let base = b.mul(i, 2.into());
            let inner = b.for_range(0, 2, &[v[0]], |b, j, w| {
                let idx = b.add(j, base);
                let x = b.load(a, idx);
                vec![b.add(w[0], x)]
            });
            vec![inner[0]]
        });
        let g = b.finish();
        assert!(g.loops[0].has_own_compute, "outer loop has its own mul");
        assert!(g.loops[1].has_own_compute, "inner loop has the load/add");
    }
}
