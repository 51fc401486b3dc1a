//! `.mar` source emission: the second differential axis.
//!
//! [`to_mar`] decompiles a fuzz [`Program`] into `marionette-lang` source
//! text that, after the full lexer → parser → sema → lowering front end,
//! computes **bit-identical values** to the direct `cdfg::builder` path
//! of [`crate::emit::emit`]. [`diff_source`] checks exactly that, then drives
//! the source-lowered graph through compile → bitstream → simulate on
//! the presets like any other fuzz program.
//!
//! ## Why the emitter does type inference
//!
//! Fuzz programs are dynamically typed: any value can feed any operator,
//! and the machine coerces (`i32_of`/`f32_of` in `marionette-cdfg::op`).
//! The surface language instead rejects *certainly* mismatched operands.
//! The emitter therefore tracks a static tag per value — `I32`, `F32`,
//! or `Word` (runtime-dependent) — with the same rules and the same
//! loop-carry fixpoint as `marionette-lang`'s checker, and inserts an
//! explicit conversion exactly where the tag is certain and mismatched:
//!
//! - `f2i(x)` before an integer operator on a certain-f32 value computes
//!   the same bits the machine's implicit `as i32` coercion would;
//! - `i2f(x)` (or folding an integer immediate into a float literal)
//!   matches the implicit `as f32` coercion of float operators;
//! - positions that consume values *raw* (mux arms, store values, loop
//!   carries, merges, sinks) are never wrapped — the language types them
//!   as `word`, so no conversion is needed and none would be sound.
//!
//! Every name is freshly generated (`e*` seeds, `v*` values, `t*`/`i*`/
//! `c*`/`o*` loop plumbing), so the emitted program is deterministic and
//! collision-free by construction.

use crate::ast::{Operand, Program, Stmt};
use crate::diff::{check_presets, reference, DiffStats, Divergence, DivergenceKind};
use crate::emit::emit;
use marionette::pipeline::Reference;
use marionette::sim::RunSpec;
use marionette_arch::Architecture;
use marionette_cdfg::op::{ArrayId, BinOp, UnOp};
use marionette_cdfg::value::{compare_sink_maps as compare_sinks, stream_mismatch};
use marionette_lang::ast as lang;
use marionette_lang::diag::Span;

/// Static value tag (mirrors `marionette-lang::sema::STy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    I32,
    F32,
    Word,
}

impl Tag {
    fn join(self, other: Tag) -> Tag {
        if self == other {
            self
        } else {
            Tag::Word
        }
    }
}

/// One visible value: its source name and static tag.
#[derive(Clone)]
struct Slot {
    name: String,
    tag: Tag,
}

struct ArrRef {
    name: String,
    mask: i32,
    state: bool,
}

struct Emitter {
    arrays: Vec<ArrRef>,
    /// Indices (into `arrays`) of the state arrays, for store selectors.
    state: Vec<usize>,
    next: usize,
}

// ---------------------------------------------------------------------
// Tiny lang-AST construction helpers (spans are irrelevant for printing)
// ---------------------------------------------------------------------

fn id(name: &str) -> lang::Ident {
    lang::Ident {
        name: name.to_string(),
        span: Span::default(),
    }
}

fn ex(kind: lang::ExprKind) -> lang::Expr {
    lang::Expr {
        kind,
        span: Span::default(),
    }
}

fn int(v: i32) -> lang::Expr {
    ex(lang::ExprKind::Int(v))
}

fn var(name: &str) -> lang::Expr {
    ex(lang::ExprKind::Var(id(name)))
}

fn bin(op: BinOp, a: lang::Expr, b: lang::Expr) -> lang::Expr {
    ex(lang::ExprKind::Bin {
        op,
        a: Box::new(a),
        b: Box::new(b),
    })
}

fn un(op: UnOp, a: lang::Expr) -> lang::Expr {
    ex(lang::ExprKind::Un { op, a: Box::new(a) })
}

fn stmt(kind: lang::StmtKind) -> lang::Stmt {
    lang::Stmt {
        kind,
        span: Span::default(),
    }
}

fn let_names(names: &[String], value: lang::Expr) -> lang::Stmt {
    stmt(lang::StmtKind::Let {
        names: names.iter().map(|n| id(n)).collect(),
        value,
    })
}

/// Wraps a certainly-f32 value for an integer-operator position. `f2i`
/// computes the same `as i32` truncation the machine's implicit coercion
/// performs, so inserting it preserves every downstream bit.
fn as_int(e: lang::Expr, tag: Tag) -> lang::Expr {
    if tag == Tag::F32 {
        un(UnOp::F2I, e)
    } else {
        e
    }
}

/// Wraps a certainly-i32 value for a float-operator position. Integer
/// immediates fold straight into float literals (`5` → `5.0`), which is
/// the same `as f32` conversion the machine performs at runtime.
fn as_float(e: lang::Expr, tag: Tag) -> lang::Expr {
    if tag != Tag::I32 {
        return e;
    }
    if let lang::ExprKind::Int(v) = e.kind {
        return ex(lang::ExprKind::Float(v as f32));
    }
    un(UnOp::I2F, e)
}

fn is_float_bin(op: BinOp) -> bool {
    use BinOp::*;
    matches!(
        op,
        FAdd | FSub | FMul | FDiv | FMin | FMax | FLt | FLe | FGt | FGe
    )
}

/// Makes `raw` a collision-free `.mar` identifier while keeping it
/// recognizable (fuzz names are already clean; corpus files may not be).
fn sanitize(raw: &str, taken: &mut std::collections::HashSet<String>) -> String {
    let mut s: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.as_bytes()[0].is_ascii_digit() {
        s.insert(0, '_');
    }
    if lang::KEYWORDS.contains(&s.as_str()) {
        s.push('_');
    }
    while !taken.insert(s.clone()) {
        s.push('x');
    }
    s
}

impl Emitter {
    fn fresh(&mut self, prefix: &str) -> String {
        loop {
            let n = self.next;
            self.next += 1;
            let s = format!("{prefix}{n}");
            // `i32`/`f32` are keywords; a counter of 32 can produce them.
            if !lang::KEYWORDS.contains(&s.as_str()) {
                return s;
            }
        }
    }

    fn operand(&self, env: &[Slot], o: &Operand) -> (lang::Expr, Tag) {
        match o {
            Operand::Imm(v) => (int(*v), Tag::I32),
            Operand::Ref(k) => {
                let s = &env[*k as usize % env.len()];
                (var(&s.name), s.tag)
            }
        }
    }

    /// Emits one block: returns the lang statements; pushes one [`Slot`]
    /// per produced value onto `env`, mirroring `emit::emit_block`.
    fn block(&mut self, env: &mut Vec<Slot>, stmts: &[Stmt]) -> Vec<lang::Stmt> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                Stmt::Bin { op, a, b } => {
                    let (ea, ta) = self.operand(env, a);
                    let (eb, tb) = self.operand(env, b);
                    let (ea, eb, tag) = if is_float_bin(*op) {
                        (
                            as_float(ea, ta),
                            as_float(eb, tb),
                            if op.is_cmp() { Tag::I32 } else { Tag::F32 },
                        )
                    } else {
                        (as_int(ea, ta), as_int(eb, tb), Tag::I32)
                    };
                    let name = self.fresh("v");
                    out.push(let_names(std::slice::from_ref(&name), bin(*op, ea, eb)));
                    env.push(Slot { name, tag });
                }
                Stmt::Un { op, a } => {
                    let (ea, ta) = self.operand(env, a);
                    let (ea, tag) = match op {
                        UnOp::Not | UnOp::Neg | UnOp::Abs => (as_int(ea, ta), Tag::I32),
                        UnOp::LNot => (ea, Tag::I32),
                        UnOp::FNeg | UnOp::FAbs => (as_float(ea, ta), Tag::F32),
                        // i2f on a certain f32 (resp. f2i on a certain i32)
                        // is the language's "useless conversion" error; the
                        // pre-conversion reproduces the machine's implicit
                        // double coercion bit for bit.
                        UnOp::I2F => (as_int(ea, ta), Tag::F32),
                        UnOp::F2I => (as_float(ea, ta), Tag::I32),
                    };
                    let name = self.fresh("v");
                    out.push(let_names(std::slice::from_ref(&name), un(*op, ea)));
                    env.push(Slot { name, tag });
                }
                Stmt::Nl { op, a } => {
                    let (ea, ta) = self.operand(env, a);
                    let name = self.fresh("v");
                    out.push(let_names(
                        std::slice::from_ref(&name),
                        ex(lang::ExprKind::Nl {
                            op: *op,
                            a: Box::new(as_float(ea, ta)),
                        }),
                    ));
                    env.push(Slot {
                        name,
                        tag: Tag::F32,
                    });
                }
                Stmt::Mux { p, t, f } => {
                    let (ep, tp) = self.operand(env, p);
                    let pred = bin(BinOp::Ne, as_int(ep, tp), int(0));
                    let (et, tt) = self.operand(env, t);
                    let (ef, tf) = self.operand(env, f);
                    let name = self.fresh("v");
                    out.push(let_names(
                        std::slice::from_ref(&name),
                        ex(lang::ExprKind::Mux {
                            p: Box::new(pred),
                            t: Box::new(et),
                            f: Box::new(ef),
                        }),
                    ));
                    env.push(Slot {
                        name,
                        tag: tt.join(tf),
                    });
                }
                Stmt::Load { arr, idx } => {
                    let a = &self.arrays[*arr as usize % self.arrays.len()];
                    let (ei, ti) = self.operand(env, idx);
                    let masked = bin(BinOp::And, as_int(ei, ti), int(a.mask));
                    let tag = if a.state { Tag::Word } else { Tag::I32 };
                    let load = ex(lang::ExprKind::Load {
                        arr: id(&a.name),
                        idx: Box::new(masked),
                    });
                    let name = self.fresh("v");
                    out.push(let_names(std::slice::from_ref(&name), load));
                    env.push(Slot { name, tag });
                }
                Stmt::Store { arr, idx, val } => {
                    let ai = self.state[*arr as usize % self.state.len()];
                    let (name, mask) = {
                        let a = &self.arrays[ai];
                        (a.name.clone(), a.mask)
                    };
                    let (ei, ti) = self.operand(env, idx);
                    let (ev, _) = self.operand(env, val); // raw word store
                    out.push(stmt(lang::StmtKind::Store {
                        arr: id(&name),
                        idx: bin(BinOp::And, as_int(ei, ti), int(mask)),
                        value: ev,
                    }));
                }
                Stmt::For {
                    lo,
                    span,
                    step,
                    inits,
                    body,
                } => {
                    let (elo, tlo) = self.operand(env, lo);
                    let tname = self.fresh("t");
                    out.push(let_names(
                        std::slice::from_ref(&tname),
                        bin(BinOp::And, as_int(elo, tlo), int(7)),
                    ));
                    let hi = bin(BinOp::Add, var(&tname), int((span % 8) as i32));
                    let iname = self.fresh("i");
                    let carries: Vec<(String, lang::Expr, Tag)> = inits
                        .iter()
                        .map(|o| {
                            let (e, t) = self.operand(env, o);
                            (self.fresh("c"), e, t)
                        })
                        .collect();
                    let ndata = carries.len();
                    let mut tags: Vec<Tag> = carries.iter().map(|c| c.2).collect();
                    // Carry-type fixpoint, identical to the checker's: a
                    // non-final pass is discarded (name counter restored).
                    let body_stmts = loop {
                        let saved = self.next;
                        let mut env2 = env.clone();
                        env2.push(Slot {
                            name: iname.clone(),
                            tag: Tag::I32,
                        });
                        for ((cn, _, _), tg) in carries.iter().zip(&tags) {
                            env2.push(Slot {
                                name: cn.clone(),
                                tag: *tg,
                            });
                        }
                        let base = env2.len();
                        let mut stmts2 = self.block(&mut env2, body);
                        let pushed = &env2[base..];
                        let mut yields = Vec::with_capacity(ndata);
                        let mut ytags = Vec::with_capacity(ndata);
                        for k in 0..ndata {
                            if pushed.is_empty() {
                                // Body produced nothing: advance the carried
                                // value exactly like the builder path.
                                yields.push(bin(BinOp::Add, var(&carries[k].0), int(k as i32 + 1)));
                                ytags.push(Tag::I32);
                            } else {
                                let s = &pushed[k % pushed.len()];
                                yields.push(var(&s.name));
                                ytags.push(s.tag);
                            }
                        }
                        let joined: Vec<Tag> =
                            tags.iter().zip(&ytags).map(|(a, b)| a.join(*b)).collect();
                        if joined == tags {
                            stmts2.push(stmt(lang::StmtKind::Yield(yields)));
                            break stmts2;
                        }
                        tags = joined;
                        self.next = saved;
                    };
                    let for_e = ex(lang::ExprKind::For {
                        var: id(&iname),
                        lo: Box::new(var(&tname)),
                        hi: Box::new(hi),
                        step: (*step).clamp(1, 3) as i32,
                        carries: carries
                            .iter()
                            .map(|(n, e, _)| lang::Carry {
                                name: id(n),
                                init: e.clone(),
                            })
                            .collect(),
                        body: body_stmts,
                    });
                    let outs: Vec<Slot> = tags
                        .iter()
                        .map(|t| Slot {
                            name: self.fresh("o"),
                            tag: *t,
                        })
                        .collect();
                    let names: Vec<String> = outs.iter().map(|s| s.name.clone()).collect();
                    out.push(let_names(&names, for_e));
                    env.extend(outs);
                }
                Stmt::While {
                    start,
                    dec,
                    inits,
                    body,
                } => {
                    let (es, ts) = self.operand(env, start);
                    let cname = self.fresh("c");
                    let c_init = bin(BinOp::And, as_int(es, ts), int(15));
                    let mut carries: Vec<(String, lang::Expr, Tag)> =
                        vec![(cname.clone(), c_init, Tag::I32)];
                    for o in inits {
                        let (e, t) = self.operand(env, o);
                        carries.push((self.fresh("c"), e, t));
                    }
                    let ndata = carries.len(); // counter + data vars
                    let dec_i = (*dec).clamp(1, 3) as i32;
                    let mut tags: Vec<Tag> = carries.iter().map(|c| c.2).collect();
                    let body_stmts = loop {
                        let saved = self.next;
                        let mut env2 = env.clone();
                        for ((cn, _, _), tg) in carries.iter().zip(&tags) {
                            env2.push(Slot {
                                name: cn.clone(),
                                tag: *tg,
                            });
                        }
                        let base = env2.len();
                        let mut stmts2 = self.block(&mut env2, body);
                        let pushed = &env2[base..];
                        // The counter strictly decreases, whatever the body
                        // computes — same structural termination as emit.
                        let mut yields = vec![bin(BinOp::Sub, var(&cname), int(dec_i))];
                        let mut ytags = vec![Tag::I32];
                        for k in 1..ndata {
                            if pushed.is_empty() {
                                yields.push(var(&carries[k].0));
                                ytags.push(tags[k]);
                            } else {
                                let s = &pushed[k % pushed.len()];
                                yields.push(var(&s.name));
                                ytags.push(s.tag);
                            }
                        }
                        let joined: Vec<Tag> =
                            tags.iter().zip(&ytags).map(|(a, b)| a.join(*b)).collect();
                        if joined == tags {
                            stmts2.push(stmt(lang::StmtKind::Yield(yields)));
                            break stmts2;
                        }
                        tags = joined;
                        self.next = saved;
                    };
                    let while_e = ex(lang::ExprKind::While {
                        cond: Box::new(bin(BinOp::Gt, var(&cname), int(0))),
                        carries: carries
                            .iter()
                            .map(|(n, e, _)| lang::Carry {
                                name: id(n),
                                init: e.clone(),
                            })
                            .collect(),
                        body: body_stmts,
                    });
                    let outs: Vec<Slot> = tags
                        .iter()
                        .map(|t| Slot {
                            name: self.fresh("o"),
                            tag: *t,
                        })
                        .collect();
                    let names: Vec<String> = outs.iter().map(|s| s.name.clone()).collect();
                    out.push(let_names(&names, while_e));
                    env.extend(outs);
                }
                Stmt::If {
                    p,
                    results,
                    then_b,
                    else_b,
                } => {
                    let (ep, tp) = self.operand(env, p);
                    let pred = bin(BinOp::Ne, bin(BinOp::And, as_int(ep, tp), int(3)), int(0));
                    let nres = *results as usize;
                    let mut side = |body: &[Stmt]| -> (Vec<lang::Stmt>, Vec<Tag>) {
                        let mut env2 = env.clone();
                        let base = env2.len();
                        let mut stmts2 = self.block(&mut env2, body);
                        let pushed_len = env2.len() - base;
                        let mut yields = Vec::with_capacity(nres);
                        let mut ytags = Vec::with_capacity(nres);
                        for k in 0..nres {
                            let s = if pushed_len == 0 {
                                &env2[k % env2.len()]
                            } else {
                                &env2[base + (k % pushed_len)]
                            };
                            yields.push(var(&s.name));
                            ytags.push(s.tag);
                        }
                        stmts2.push(stmt(lang::StmtKind::Yield(yields)));
                        (stmts2, ytags)
                    };
                    let (then_s, then_t) = side(then_b);
                    let (else_s, else_t) = side(else_b);
                    let if_e = ex(lang::ExprKind::If {
                        cond: Box::new(pred),
                        then_b: then_s,
                        else_b: else_s,
                    });
                    let outs: Vec<Slot> = then_t
                        .iter()
                        .zip(&else_t)
                        .map(|(a, b)| Slot {
                            name: self.fresh("o"),
                            tag: a.join(*b),
                        })
                        .collect();
                    let names: Vec<String> = outs.iter().map(|s| s.name.clone()).collect();
                    out.push(let_names(&names, if_e));
                    env.extend(outs);
                }
            }
        }
        out
    }
}

/// Decompiles a fuzz program into a `marionette-lang` AST.
///
/// # Panics
/// Panics if the program violates [`Program::check`] invariants.
pub fn to_mar_ast(p: &Program) -> lang::Program {
    p.check().expect("well-formed fuzz program");
    let mut taken = std::collections::HashSet::new();
    let name = sanitize(&p.name, &mut taken);
    let mut arrays = Vec::new();
    let mut state = Vec::new();
    let mut decls = Vec::new();
    for (i, a) in p.arrays.iter().enumerate() {
        let sname = sanitize(&a.name, &mut taken);
        decls.push(lang::ArrayDecl {
            name: id(&sname),
            ty: lang::Ty::I32,
            len: a.len as u64,
            init: a
                .init
                .iter()
                .map(|v| lang::Lit {
                    kind: lang::LitKind::Int(*v),
                    span: Span::default(),
                })
                .collect(),
            state: a.state,
            span: Span::default(),
        });
        if a.state {
            state.push(i);
        }
        arrays.push(ArrRef {
            name: sname,
            mask: (a.len as i32) - 1,
            state: a.state,
        });
    }
    let mut em = Emitter {
        arrays,
        state,
        next: 0,
    };
    let mut body = Vec::new();
    // Environment seeds, mirroring emit(): three immediates bound to
    // names so `Ref` operands always resolve.
    let mut env = Vec::new();
    for (i, v) in [5, -3, 12].into_iter().enumerate() {
        let n = format!("e{i}");
        body.push(let_names(std::slice::from_ref(&n), int(v)));
        env.push(Slot {
            name: n,
            tag: Tag::I32,
        });
    }
    let seed_count = env.len();
    body.extend(em.block(&mut env, &p.body));
    // Sinks mirror emit()'s `r{k}` labels over the top-level values (the
    // builder path additionally sinks the state tokens, which have no
    // surface form; the differential compares the `r*` labels).
    for (k, s) in env[seed_count..].iter().enumerate() {
        body.push(stmt(lang::StmtKind::Sink {
            name: id(&format!("r{k}")),
            value: var(&s.name),
        }));
    }
    lang::Program {
        name: id(&name),
        params: Vec::new(),
        arrays: decls,
        body,
    }
}

/// Emits the canonical `.mar` source text of a fuzz program.
pub fn to_mar(p: &Program) -> String {
    marionette_lang::print(&to_mar_ast(p))
}

/// Differentially checks the `.mar` round-trip of `p`:
///
/// 1. the emitted source must be accepted by the full front end;
/// 2. the source-lowered graph must interpret to bit-identical arrays,
///    `r*` sink streams and out-of-bounds counts as the direct builder
///    path (both interpreter modes cross-checked on each graph);
/// 3. the source-lowered graph is then driven through compile →
///    bitstream → simulate on every preset, bit-compared against its
///    own reference, exactly like [`crate::diff::diff_program`].
///
/// Pass an empty preset slice for the interpreter-only value check.
///
/// # Errors
/// Returns the first [`Divergence`]; source-axis failures use
/// [`DivergenceKind::Source`].
pub fn diff_source(
    p: &Program,
    presets: &[Architecture],
    max_cycles: u64,
) -> Result<DiffStats, Divergence> {
    let g1 = emit(p);
    let r1 = reference(&g1)?;
    source_axis(p, &g1, &r1, presets, max_cycles)
}

/// [`crate::diff::diff_program`] and [`diff_source`] in one pass, sharing
/// the builder graph's reference interpretations: checks the direct
/// builder path on every preset, then the full source axis. This is what
/// `fuzz_stack --source` runs per seed.
///
/// # Errors
/// Returns the first [`Divergence`] (builder axis first).
pub fn diff_both(
    p: &Program,
    presets: &[Architecture],
    max_cycles: u64,
) -> Result<DiffStats, Divergence> {
    let g1 = emit(p);
    let r1 = reference(&g1)?;
    let mut stats = DiffStats {
        nodes: g1.nodes.len(),
        ..DiffStats::default()
    };
    check_presets(&g1, &r1, presets, &mut RunSpec::new(max_cycles), &mut stats)?;
    let s2 = source_axis(p, &g1, &r1, presets, max_cycles)?;
    stats.points += s2.points;
    stats.cycles += s2.cycles;
    stats.fires += s2.fires;
    Ok(stats)
}

fn source_axis(
    p: &Program,
    g1: &marionette_cdfg::Cdfg,
    r1: &Reference,
    presets: &[Architecture],
    max_cycles: u64,
) -> Result<DiffStats, Divergence> {
    let src_fail = |detail: String| Divergence {
        preset: String::new(),
        kind: DivergenceKind::Source,
        detail,
    };
    let text = to_mar(p);
    let g2 = marionette_lang::compile_source(&text).map_err(|ds| {
        src_fail(format!(
            "front end rejected the emitted source ({} diagnostics; first: {})",
            ds.len(),
            ds[0].message
        ))
    })?;
    let r2 = reference(&g2)
        .map_err(|d| src_fail(format!("source-lowered graph [{}] {}", d.kind, d.detail)))?;
    // Arrays are compared positionally: sanitization may rename, but the
    // declaration order is preserved.
    if g1.arrays.len() != g2.arrays.len() {
        return Err(src_fail(format!(
            "array count differs: builder {}, source {}",
            g1.arrays.len(),
            g2.arrays.len()
        )));
    }
    for (i, arr) in g1.arrays.iter().enumerate() {
        let id = ArrayId(i as u32);
        if let Some(m) = stream_mismatch(r1.dropping.memory.array(id), r2.dropping.memory.array(id))
        {
            return Err(src_fail(format!(
                "array {} (builder vs source){m}",
                arr.name
            )));
        }
    }
    // Sinks: the source program carries exactly the `r*` labels.
    let expect: std::collections::HashMap<String, Vec<marionette_cdfg::value::Value>> = r1
        .dropping
        .sinks
        .iter()
        .filter(|(k, _)| !k.starts_with("tok"))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    compare_sinks(&expect, &r2.dropping.sinks)
        .map_err(|m| src_fail(format!("builder vs source: {m}")))?;
    if r1.dropping.memory.oob_events() != r2.dropping.memory.oob_events() {
        return Err(src_fail(format!(
            "oob events differ: builder {}, source {}",
            r1.dropping.memory.oob_events(),
            r2.dropping.memory.oob_events()
        )));
    }
    let mut stats = DiffStats {
        nodes: g2.nodes.len(),
        ..DiffStats::default()
    };
    check_presets(&g2, &r2, presets, &mut RunSpec::new(max_cycles), &mut stats)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn emitted_source_parses_and_agrees_on_a_few_seeds() {
        let cfg = GenConfig::default();
        for seed in 0..8 {
            let p = generate(seed, &cfg);
            diff_source(&p, &[], crate::diff::DEFAULT_MAX_CYCLES)
                .unwrap_or_else(|d| panic!("seed {seed}: {d}\n{}", to_mar(&p)));
        }
    }

    #[test]
    fn emitted_source_is_deterministic() {
        let p = generate(42, &GenConfig::default());
        assert_eq!(to_mar(&p), to_mar(&p));
    }

    #[test]
    fn sanitize_avoids_keywords_and_collisions() {
        let mut taken = std::collections::HashSet::new();
        assert_eq!(sanitize("while", &mut taken), "while_");
        assert_eq!(sanitize("a-b", &mut taken), "a_b");
        assert_eq!(sanitize("a_b", &mut taken), "a_bx");
        assert_eq!(sanitize("0x", &mut taken), "_0x");
    }
}
