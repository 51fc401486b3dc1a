//! The spanned `.mar` abstract syntax tree.
//!
//! Operator selection is purely syntactic: `+` *is* [`BinOp::Add`] and
//! `+.` *is* [`BinOp::FAdd`], exactly mirroring the machine's operator
//! set, so the AST reuses the `marionette-cdfg` op enums directly and the
//! semantic checker only has to diagnose *certainly wrong* operand types
//! (see [`crate::sema`]).
//!
//! Structured control flow (`for`, `while`, `if`) appears only as the
//! right-hand side of a `let` or as an expression statement — never nested
//! inside an operator — which keeps evaluation order first-class in the
//! source text.

use crate::diag::Span;
use marionette_cdfg::op::{BinOp, NlOp, UnOp};

/// A name with its source location.
#[derive(Clone, Debug)]
pub struct Ident {
    /// The identifier text.
    pub name: String,
    /// Source location.
    pub span: Span,
}

/// A declared element type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    /// 32-bit signed integer.
    I32,
    /// 32-bit IEEE-754 float.
    F32,
}

impl Ty {
    /// Keyword spelling.
    pub fn kw(self) -> &'static str {
        match self {
            Ty::I32 => "i32",
            Ty::F32 => "f32",
        }
    }
}

/// A literal value in a declaration initializer.
#[derive(Clone, Copy, Debug)]
pub struct Lit {
    /// The value.
    pub kind: LitKind,
    /// Source location.
    pub span: Span,
}

/// Literal payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LitKind {
    /// Integer literal.
    Int(i32),
    /// Float literal.
    Float(f32),
}

/// A `param` declaration: a runtime scalar with a default.
#[derive(Clone, Debug)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: Ident,
    /// Declared type.
    pub ty: Ty,
    /// Default value.
    pub default: Lit,
    /// Whole-declaration span.
    pub span: Span,
}

/// An `input` or `state` array declaration.
#[derive(Clone, Debug)]
pub struct ArrayDecl {
    /// Array name.
    pub name: Ident,
    /// Declared element type (types the initializer; `state` arrays store
    /// raw machine words at runtime).
    pub ty: Ty,
    /// Element count.
    pub len: u64,
    /// Initial contents (zero-filled to `len`).
    pub init: Vec<Lit>,
    /// `true` for `state` (read-write, token-serialized, program output),
    /// `false` for `input` (read-only).
    pub state: bool,
    /// Whole-declaration span.
    pub span: Span,
}

/// A loop-carried variable with its initial value.
#[derive(Clone, Debug)]
pub struct Carry {
    /// Variable name (bound inside the loop body).
    pub name: Ident,
    /// Initial value, evaluated in the enclosing scope.
    pub init: Expr,
}

/// One statement.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// Statement payload.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement payload.
#[derive(Clone, Debug)]
pub enum StmtKind {
    /// `let x = e;` or `let (a, b) = e;` (the printer emits parentheses
    /// exactly when more than one name is bound).
    Let {
        /// Bound names, in result order.
        names: Vec<Ident>,
        /// Right-hand side.
        value: Expr,
    },
    /// `arr[idx] = value;` — a store to a `state` array.
    Store {
        /// Target array.
        arr: Ident,
        /// Index expression.
        idx: Expr,
        /// Stored value.
        value: Expr,
    },
    /// `sink name = e;` — collect a program output stream.
    Sink {
        /// Result label.
        name: Ident,
        /// Collected value.
        value: Expr,
    },
    /// A bare expression statement (results are discarded).
    Expr(Expr),
    /// `yield (a, b);` — the result values of the enclosing loop body or
    /// `if` side; must be the final statement of its block.
    Yield(Vec<Expr>),
}

/// One expression.
#[derive(Clone, Debug)]
pub struct Expr {
    /// Expression payload.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression payload.
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// Integer literal.
    Int(i32),
    /// Float literal.
    Float(f32),
    /// Variable reference.
    Var(Ident),
    /// `arr[idx]` — a load.
    Load {
        /// Source array.
        arr: Ident,
        /// Index expression.
        idx: Box<Expr>,
    },
    /// A binary machine operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Box<Expr>,
        /// Right operand.
        b: Box<Expr>,
    },
    /// A unary machine operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Box<Expr>,
    },
    /// A nonlinear-unit operation.
    Nl {
        /// Operator.
        op: NlOp,
        /// Operand.
        a: Box<Expr>,
    },
    /// `mux(p, t, f)` — both sides computed, one selected.
    Mux {
        /// Predicate.
        p: Box<Expr>,
        /// Value when the predicate is true.
        t: Box<Expr>,
        /// Value when the predicate is false.
        f: Box<Expr>,
    },
    /// `for i in lo..hi step s with (c = e, ...) { ... }`.
    For {
        /// Index variable.
        var: Ident,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (exclusive).
        hi: Box<Expr>,
        /// Step (a positive integer literal).
        step: i32,
        /// Loop-carried variables.
        carries: Vec<Carry>,
        /// Body statements (trailing `yield` gives the next carry values).
        body: Vec<Stmt>,
    },
    /// `while cond with (c = e, ...) { ... }`.
    While {
        /// Continuation condition over the carry names (pure scalar
        /// expression; evaluated as the zero-trip guard and per iteration).
        cond: Box<Expr>,
        /// Loop-carried variables (at least one).
        carries: Vec<Carry>,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `if cond { ... } else { ... }` — a structured hammock whose sides
    /// yield the same number of merged results.
    If {
        /// Branch predicate.
        cond: Box<Expr>,
        /// Taken side.
        then_b: Vec<Stmt>,
        /// Untaken side.
        else_b: Vec<Stmt>,
    },
}

/// A whole `.mar` program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Program name (becomes the CDFG name).
    pub name: Ident,
    /// Scalar parameters.
    pub params: Vec<ParamDecl>,
    /// Array declarations, in order.
    pub arrays: Vec<ArrayDecl>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

/// Reserved words that cannot be used as identifiers.
pub const KEYWORDS: &[&str] = &[
    "program", "param", "input", "state", "let", "sink", "yield", "for", "in", "step", "with",
    "while", "if", "else", "i32", "f32",
];

/// Surface symbol of a binary operator, or `None` for the call-form
/// operators (`min`, `max`, `fmin`, `fmax`).
pub fn bin_symbol(op: BinOp) -> Option<&'static str> {
    Some(match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::AShr => ">>",
        BinOp::Shr => ">>>",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::FAdd => "+.",
        BinOp::FSub => "-.",
        BinOp::FMul => "*.",
        BinOp::FDiv => "/.",
        BinOp::FLt => "<.",
        BinOp::FLe => "<=.",
        BinOp::FGt => ">.",
        BinOp::FGe => ">=.",
        BinOp::Min | BinOp::Max | BinOp::FMin | BinOp::FMax => return None,
    })
}

/// Binary operator for a surface symbol.
pub fn bin_of_symbol(sym: &str) -> Option<BinOp> {
    Some(match sym {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        "%" => BinOp::Rem,
        "&" => BinOp::And,
        "|" => BinOp::Or,
        "^" => BinOp::Xor,
        "<<" => BinOp::Shl,
        ">>" => BinOp::AShr,
        ">>>" => BinOp::Shr,
        "<" => BinOp::Lt,
        "<=" => BinOp::Le,
        ">" => BinOp::Gt,
        ">=" => BinOp::Ge,
        "==" => BinOp::Eq,
        "!=" => BinOp::Ne,
        "+." => BinOp::FAdd,
        "-." => BinOp::FSub,
        "*." => BinOp::FMul,
        "/." => BinOp::FDiv,
        "<." => BinOp::FLt,
        "<=." => BinOp::FLe,
        ">." => BinOp::FGt,
        ">=." => BinOp::FGe,
        _ => return None,
    })
}

/// Binding precedence of a binary operator (higher binds tighter).
/// C-like: mul 9, add 8, shift 7, relational 6, equality 5, `&` 4,
/// `^` 3, `|` 2. All binary operators are left-associative.
pub fn bin_prec(op: BinOp) -> u8 {
    use BinOp::*;
    match op {
        Mul | Div | Rem | FMul | FDiv => 9,
        Add | Sub | FAdd | FSub => 8,
        Shl | Shr | AShr => 7,
        Lt | Le | Gt | Ge | FLt | FLe | FGt | FGe => 6,
        Eq | Ne => 5,
        And => 4,
        Xor => 3,
        Or => 2,
        Min | Max | FMin | FMax => 10, // call syntax, never ambiguous
    }
}

/// The call-form builtins: `name(...)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    /// A unary machine op (`abs`, `fneg`, `fabs`, `i2f`, `f2i`).
    Un(UnOp),
    /// A nonlinear op (`sigmoid`, `log`, `exp`, `sqrt`, `recip`, `tanh`).
    Nl(NlOp),
    /// A two-argument machine op (`min`, `max`, `fmin`, `fmax`).
    Bin(BinOp),
    /// The three-argument selector `mux`.
    Mux,
}

/// Resolves a call-form builtin by name.
pub fn builtin(name: &str) -> Option<Builtin> {
    Some(match name {
        "abs" => Builtin::Un(UnOp::Abs),
        "fneg" => Builtin::Un(UnOp::FNeg),
        "fabs" => Builtin::Un(UnOp::FAbs),
        "i2f" => Builtin::Un(UnOp::I2F),
        "f2i" => Builtin::Un(UnOp::F2I),
        "sigmoid" => Builtin::Nl(NlOp::Sigmoid),
        "log" => Builtin::Nl(NlOp::Log),
        "exp" => Builtin::Nl(NlOp::Exp),
        "sqrt" => Builtin::Nl(NlOp::Sqrt),
        "recip" => Builtin::Nl(NlOp::Recip),
        "tanh" => Builtin::Nl(NlOp::Tanh),
        "min" => Builtin::Bin(BinOp::Min),
        "max" => Builtin::Bin(BinOp::Max),
        "fmin" => Builtin::Bin(BinOp::FMin),
        "fmax" => Builtin::Bin(BinOp::FMax),
        "mux" => Builtin::Mux,
        _ => return None,
    })
}

/// Surface name of a call-form unary op (`None` for the symbol forms
/// `-`, `~`, `!`).
pub fn un_call_name(op: UnOp) -> Option<&'static str> {
    Some(match op {
        UnOp::Abs => "abs",
        UnOp::FNeg => "fneg",
        UnOp::FAbs => "fabs",
        UnOp::I2F => "i2f",
        UnOp::F2I => "f2i",
        UnOp::Not | UnOp::Neg | UnOp::LNot => return None,
    })
}

/// Surface name of a nonlinear op.
pub fn nl_call_name(op: NlOp) -> &'static str {
    match op {
        NlOp::Sigmoid => "sigmoid",
        NlOp::Log => "log",
        NlOp::Exp => "exp",
        NlOp::Sqrt => "sqrt",
        NlOp::Recip => "recip",
        NlOp::Tanh => "tanh",
    }
}

/// Surface name of a call-form binary op.
pub fn bin_call_name(op: BinOp) -> Option<&'static str> {
    Some(match op {
        BinOp::Min => "min",
        BinOp::Max => "max",
        BinOp::FMin => "fmin",
        BinOp::FMax => "fmax",
        _ => return None,
    })
}
