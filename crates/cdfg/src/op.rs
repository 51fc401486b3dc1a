//! Operator set of the Marionette CDFG.
//!
//! The CDFG is a *flat dynamic-dataflow* graph: structured control flow
//! (loops, branches) is lowered by the [builder](crate::builder) into
//! explicit control operators — [`Op::Steer`], [`Op::Carry`], [`Op::Inv`],
//! [`Op::Merge`] — in the style of WaveScalar/RipTide, while every node
//! stays tagged with the basic block it came from so the compiler and the
//! control flow plane can reason about CFG structure.
//!
//! Operator classification matters architecturally: *control operators* are
//! the ones Marionette hoists into its control flow plane (executed by the
//! PE's control flow part, traveling over the control network), while
//! baseline architectures must spend data-plane resources on them
//! (PE slots for von Neumann/dataflow/TIA, network slots for RipTide).

use crate::value::Value;
use std::fmt;

/// Two-operand arithmetic / logic / comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    // integer arithmetic (wrapping, like the RTL datapath)
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    AShr,
    Min,
    Max,
    // integer comparisons -> I32(0|1)
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    // float arithmetic
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
    // float comparisons -> I32(0|1)
    FLt,
    FLe,
    FGt,
    FGe,
}

impl BinOp {
    /// Evaluates the operator. Poison is absorbing.
    pub fn eval(self, a: Value, b: Value) -> Value {
        if a.is_poison() || b.is_poison() {
            return Value::Poison;
        }
        use BinOp::*;
        match self {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | AShr | Min | Max | Lt
            | Le | Gt | Ge | Eq | Ne => {
                let x = a.to_i32_lossy();
                let y = b.to_i32_lossy();
                let r = match self {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    // Division by zero yields 0 in the datapath rather than
                    // trapping; kernels never rely on it.
                    Div => {
                        if y == 0 {
                            0
                        } else {
                            x.wrapping_div(y)
                        }
                    }
                    Rem => {
                        if y == 0 {
                            0
                        } else {
                            x.wrapping_rem(y)
                        }
                    }
                    And => x & y,
                    Or => x | y,
                    Xor => x ^ y,
                    Shl => x.wrapping_shl(y as u32 & 31),
                    Shr => ((x as u32).wrapping_shr(y as u32 & 31)) as i32,
                    AShr => x.wrapping_shr(y as u32 & 31),
                    Min => x.min(y),
                    Max => x.max(y),
                    Lt => (x < y) as i32,
                    Le => (x <= y) as i32,
                    Gt => (x > y) as i32,
                    Ge => (x >= y) as i32,
                    Eq => (x == y) as i32,
                    Ne => (x != y) as i32,
                    _ => unreachable!(),
                };
                Value::I32(r)
            }
            FAdd | FSub | FMul | FDiv | FMin | FMax => {
                let x = f32_of(a);
                let y = f32_of(b);
                let r = match self {
                    FAdd => x + y,
                    FSub => x - y,
                    FMul => x * y,
                    FDiv => x / y,
                    FMin => x.min(y),
                    FMax => x.max(y),
                    _ => unreachable!(),
                };
                Value::F32(r)
            }
            FLt | FLe | FGt | FGe => {
                let x = f32_of(a);
                let y = f32_of(b);
                let r = match self {
                    FLt => x < y,
                    FLe => x <= y,
                    FGt => x > y,
                    FGe => x >= y,
                    _ => unreachable!(),
                };
                Value::from(r)
            }
        }
    }

    /// Functional-unit latency in cycles used by the timing model.
    ///
    /// The paper treats "executing an instruction takes two cycles" as a
    /// relative cost; we refine per operator class (single-cycle ALU,
    /// two-cycle multiplier, iterative divider).
    pub fn latency(self) -> u32 {
        use BinOp::*;
        match self {
            Mul | FMul => 2,
            Div | Rem | FDiv => 8,
            FAdd | FSub | FMin | FMax => 2,
            _ => 1,
        }
    }

    /// True for comparison operators (producing a 0/1 predicate).
    pub fn is_cmp(self) -> bool {
        use BinOp::*;
        matches!(self, Lt | Le | Gt | Ge | Eq | Ne | FLt | FLe | FGt | FGe)
    }
}

fn f32_of(v: Value) -> f32 {
    match v {
        Value::F32(f) => f,
        Value::I32(i) => i as f32,
        Value::Unit | Value::Poison => 0.0,
    }
}

/// One-operand operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    Neg,
    Abs,
    FNeg,
    FAbs,
    /// i32 -> f32 conversion.
    I2F,
    /// f32 -> i32 conversion (truncating).
    F2I,
    /// Logical boolean negation: 0 -> 1, nonzero -> 0.
    LNot,
}

impl UnOp {
    /// Evaluates the operator. Poison is absorbing.
    pub fn eval(self, a: Value) -> Value {
        if a.is_poison() {
            return Value::Poison;
        }
        match self {
            UnOp::Not => Value::I32(!a.to_i32_lossy()),
            UnOp::Neg => Value::I32(a.to_i32_lossy().wrapping_neg()),
            UnOp::Abs => Value::I32(a.to_i32_lossy().wrapping_abs()),
            UnOp::FNeg => Value::F32(-f32_of(a)),
            UnOp::FAbs => Value::F32(f32_of(a).abs()),
            UnOp::I2F => Value::F32(a.to_i32_lossy() as f32),
            UnOp::F2I => Value::I32(f32_of(a) as i32),
            UnOp::LNot => Value::from(a.as_bool() == Some(false)),
        }
    }

    /// Functional-unit latency in cycles.
    pub fn latency(self) -> u32 {
        1
    }
}

/// Nonlinear operators, supported only by the 4 nonlinear-fitting PEs of the
/// 4×4 Marionette array (Table 4 distinguishes "ordinary" from "nonlinear
/// fitting" PEs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum NlOp {
    Sigmoid,
    Log,
    Exp,
    Sqrt,
    Recip,
    Tanh,
}

impl NlOp {
    /// Evaluates the operator.
    ///
    /// This function is the *single source of truth* for nonlinear math:
    /// golden kernel references call it too, so simulator output is
    /// bit-identical to the reference.
    pub fn eval(self, a: Value) -> Value {
        if a.is_poison() {
            return Value::Poison;
        }
        let x = f32_of(a);
        let r = match self {
            NlOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            NlOp::Log => x.ln(),
            NlOp::Exp => x.exp(),
            NlOp::Sqrt => x.sqrt(),
            NlOp::Recip => 1.0 / x,
            NlOp::Tanh => x.tanh(),
        };
        Value::F32(r)
    }

    /// Functional-unit latency in cycles (piecewise-fitting unit).
    pub fn latency(self) -> u32 {
        4
    }
}

/// Identifies a declared memory array (scratchpad region).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Distinguishes steers/merges that implement *branch divergence* from the
/// ones that implement *loop sequencing*.
///
/// Von Neumann-style architectures predicate branch steers (both sides
/// execute; see `Value::Poison`) but handle loop control with
/// counters/CCU — so only `Branch`-role steers participate in predicated
/// execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SteerRole {
    /// If/else divergence inside a loop-free hammock.
    Branch,
    /// Loop guard / exit / continuation control.
    LoopCtl,
}

/// A CDFG operator.
///
/// Every node has exactly one output port (possibly fanned out to many
/// consumers) and a small fixed number of input ports; see
/// [`Op::input_ports`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Two-operand compute. Ports: `[a, b]`.
    Bin(BinOp),
    /// One-operand compute. Ports: `[a]`.
    Un(UnOp),
    /// Nonlinear compute (only on nonlinear-capable PEs). Ports: `[a]`.
    Nl(NlOp),
    /// Three-input multiplexer; all inputs arrive. Ports: `[pred, t, f]`.
    Mux,
    /// Memory load. Ports: `[index]` or `[index, dep]`.
    Load(ArrayId),
    /// Memory store. Ports: `[index, value]` or `[index, value, dep]`.
    /// Output: unit dependence token.
    Store(ArrayId),
    /// Conditional pass: emits input when predicate matches `sense`, else
    /// drops it (or emits poison under predicated execution for
    /// [`SteerRole::Branch`]). Ports: `[pred, v]`.
    Steer {
        /// Predicate polarity that lets the value through.
        sense: bool,
        /// Branch-divergence or loop-control steer.
        role: SteerRole,
    },
    /// Loop-carried variable. Ports: `[last, init, next]`.
    ///
    /// Fresh state: pops `init`, emits it, enters looping state (does not
    /// consume `last`). Looping state: pops one `last` token; on `false`
    /// pops `next` and emits it; on `true` (or poison) pops-and-drops
    /// `next` and resets to fresh.
    Carry,
    /// Loop-invariant replay. Ports: `[v, last]`.
    ///
    /// Empty: pops `v`, holds and emits. Held: pops `last`; on `false`
    /// emits the held value again; on `true` (or poison) releases without
    /// emitting.
    Inv,
    /// Control-flow join. Ports: `[pred, t, f]`.
    ///
    /// Dropping mode: pops `pred`, then pops only the selected side.
    /// Predicated mode (`Branch` role): pops all three, selects by `pred`.
    Merge {
        /// Same classification as for steers.
        role: SteerRole,
    },
    /// Emits its (usually immediate) value once per trigger token.
    /// Ports: `[trigger, v]`.
    Gate,
    /// Emits a single `Unit` token when the program starts. No inputs.
    Start,
    /// Named result collector. Ports: `[v]`. No output.
    Sink,
}

impl Op {
    /// Number of input ports this operator exposes.
    ///
    /// `Load`/`Store` report their maximum arity; the optional trailing
    /// dependence port may be left unconnected.
    pub fn input_ports(self) -> usize {
        match self {
            Op::Bin(_) => 2,
            Op::Un(_) | Op::Nl(_) | Op::Sink => 1,
            Op::Mux | Op::Merge { .. } => 3,
            Op::Load(_) => 2,
            Op::Store(_) => 3,
            Op::Steer { .. } | Op::Inv | Op::Gate => 2,
            Op::Carry => 3,
            Op::Start => 0,
        }
    }

    /// Number of *required* input ports (optional dependence ports and the
    /// like excluded).
    pub fn required_ports(self) -> usize {
        match self {
            Op::Load(_) => 1,
            Op::Store(_) => 2,
            other => other.input_ports(),
        }
    }

    /// Whether the node produces an output token when it fires.
    pub fn has_output(self) -> bool {
        !matches!(self, Op::Sink)
    }

    /// True for the operators Marionette hoists into the control flow
    /// plane: steering, loop carries, invariant replay, merges and gates.
    ///
    /// Compute, memory and mux operators stay on the data flow plane.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Op::Steer { .. } | Op::Carry | Op::Inv | Op::Merge { .. } | Op::Gate | Op::Start
        )
    }

    /// True for memory operators.
    pub fn is_memory(self) -> bool {
        matches!(self, Op::Load(_) | Op::Store(_))
    }

    /// Functional-unit latency of the operator in cycles.
    pub fn latency(self) -> u32 {
        match self {
            Op::Bin(b) => b.latency(),
            Op::Un(u) => u.latency(),
            Op::Nl(n) => n.latency(),
            Op::Mux => 1,
            Op::Load(_) => 2,
            Op::Store(_) => 1,
            // Control operators resolve in a single cycle in the control
            // flow plane.
            Op::Steer { .. } | Op::Carry | Op::Inv | Op::Merge { .. } | Op::Gate | Op::Start => 1,
            Op::Sink => 0,
        }
    }

    /// Short mnemonic used by the disassembler and Debug dumps.
    pub fn mnemonic(self) -> String {
        match self {
            Op::Bin(b) => format!("{b:?}").to_lowercase(),
            Op::Un(u) => format!("{u:?}").to_lowercase(),
            Op::Nl(n) => format!("{n:?}").to_lowercase(),
            Op::Mux => "mux".into(),
            Op::Load(a) => format!("ld{a}"),
            Op::Store(a) => format!("st{a}"),
            Op::Steer { sense, role } => {
                let r = if role == SteerRole::Branch { "b" } else { "l" };
                format!("steer.{}{}", if sense { "t" } else { "f" }, r)
            }
            Op::Carry => "carry".into(),
            Op::Inv => "inv".into(),
            Op::Merge { role } => {
                if role == SteerRole::Branch {
                    "merge.b".into()
                } else {
                    "merge.l".into()
                }
            }
            Op::Gate => "gate".into(),
            Op::Start => "start".into(),
            Op::Sink => "sink".into(),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arith() {
        assert_eq!(BinOp::Add.eval(Value::I32(2), Value::I32(3)), Value::I32(5));
        assert_eq!(
            BinOp::Sub.eval(Value::I32(2), Value::I32(3)),
            Value::I32(-1)
        );
        assert_eq!(
            BinOp::Mul.eval(Value::I32(i32::MAX), Value::I32(2)),
            Value::I32(i32::MAX.wrapping_mul(2))
        );
        assert_eq!(BinOp::Div.eval(Value::I32(7), Value::I32(2)), Value::I32(3));
        assert_eq!(BinOp::Div.eval(Value::I32(7), Value::I32(0)), Value::I32(0));
        assert_eq!(BinOp::Rem.eval(Value::I32(7), Value::I32(0)), Value::I32(0));
        assert_eq!(
            BinOp::Shr.eval(Value::I32(-1), Value::I32(28)),
            Value::I32(0xF)
        );
        assert_eq!(
            BinOp::AShr.eval(Value::I32(-16), Value::I32(2)),
            Value::I32(-4)
        );
        assert_eq!(
            BinOp::Min.eval(Value::I32(3), Value::I32(-2)),
            Value::I32(-2)
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(BinOp::Lt.eval(Value::I32(1), Value::I32(2)), Value::TRUE);
        assert_eq!(BinOp::Ge.eval(Value::I32(1), Value::I32(2)), Value::FALSE);
        assert_eq!(
            BinOp::FLt.eval(Value::F32(1.0), Value::F32(2.0)),
            Value::TRUE
        );
        assert!(BinOp::Lt.is_cmp());
        assert!(!BinOp::Add.is_cmp());
    }

    #[test]
    fn float_arith() {
        assert_eq!(
            BinOp::FAdd.eval(Value::F32(1.5), Value::F32(2.5)),
            Value::F32(4.0)
        );
        assert_eq!(
            BinOp::FDiv.eval(Value::F32(1.0), Value::F32(4.0)),
            Value::F32(0.25)
        );
    }

    #[test]
    fn poison_absorbs() {
        assert_eq!(BinOp::Add.eval(Value::Poison, Value::I32(1)), Value::Poison);
        assert_eq!(UnOp::Neg.eval(Value::Poison), Value::Poison);
        assert_eq!(NlOp::Sqrt.eval(Value::Poison), Value::Poison);
    }

    #[test]
    fn unops() {
        assert_eq!(UnOp::Not.eval(Value::I32(0)), Value::I32(-1));
        assert_eq!(UnOp::LNot.eval(Value::I32(0)), Value::TRUE);
        assert_eq!(UnOp::LNot.eval(Value::I32(7)), Value::FALSE);
        assert_eq!(UnOp::I2F.eval(Value::I32(3)), Value::F32(3.0));
        assert_eq!(UnOp::F2I.eval(Value::F32(3.9)), Value::I32(3));
        assert_eq!(UnOp::Abs.eval(Value::I32(-5)), Value::I32(5));
    }

    #[test]
    fn nl_matches_reference_formulas() {
        let x = 0.7f32;
        assert_eq!(
            NlOp::Sigmoid.eval(Value::F32(x)),
            Value::F32(1.0 / (1.0 + (-x).exp()))
        );
        assert_eq!(NlOp::Log.eval(Value::F32(x)), Value::F32(x.ln()));
    }

    #[test]
    fn port_counts() {
        assert_eq!(Op::Bin(BinOp::Add).input_ports(), 2);
        assert_eq!(Op::Carry.input_ports(), 3);
        assert_eq!(Op::Start.input_ports(), 0);
        assert_eq!(Op::Load(ArrayId(0)).required_ports(), 1);
        assert_eq!(Op::Store(ArrayId(0)).required_ports(), 2);
        assert!(!Op::Sink.has_output());
        assert!(Op::Carry.is_control());
        assert!(!Op::Mux.is_control());
        assert!(Op::Load(ArrayId(1)).is_memory());
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Op::Bin(BinOp::Add).mnemonic(), "add");
        assert_eq!(
            Op::Steer {
                sense: true,
                role: SteerRole::Branch
            }
            .mnemonic(),
            "steer.tb"
        );
        assert_eq!(Op::Load(ArrayId(2)).mnemonic(), "ld@2");
    }
}
