//! Address-only streaming execution, the fast path of
//! [`crate::stream_addresses`].
//!
//! A nest is compiled once per call: every symbol gets one `i64` slot,
//! bounds, guards and subscripts become slot-indexed expressions, and
//! every array reference is resolved to its [`AddressMap`] declaration.
//! Running the program walks the loops and hands each access's byte
//! address straight to the sink, in exactly the order the reference
//! interpreter (`irlt-interp`) records accesses: a store's right-hand-side
//! reads in evaluation order (a divisor before its dividend), then the
//! target's subscripts and the write; a guard's condition before its
//! statement. No array value is ever stored.
//!
//! That is only sound when no array value decides control flow, an address
//! or an error, so [`Program::compile`] refuses every other nest. A run
//! that meets any failure stops with [`Bail`]; the caller re-runs the
//! reference path, which reports the failure exactly.

use crate::layout::{AddressMap, ArrayDecl};
use irlt_ir::{ArrayRef, Expr, LoopNest, Stmt, Symbol, Target};

/// The iteration cap of a default `irlt_interp::Executor`, which the
/// reference path runs with.
const ITERATION_CAP: usize = 10_000_000;

/// A streaming run met a failure (unbound variable, zero step, division
/// by zero, iteration cap, undeclared array, rank mismatch or
/// out-of-bounds subscript).
#[derive(Debug)]
pub(crate) struct Bail;

/// A read-free integer expression over slots, with the reference
/// evaluator's arithmetic (wrapping `+ - *`, floor division).
enum Scalar {
    Const(i64),
    Slot(usize),
    Arith(fn(i64, i64) -> i64, Box<Scalar>, Box<Scalar>),
    /// Floor/ceiling division or modulo: the divisor is evaluated first
    /// and must be nonzero.
    Div(fn(i64, i64) -> i64, Box<Scalar>, Box<Scalar>),
    Neg(Box<Scalar>),
    Min(Vec<Scalar>),
    Max(Vec<Scalar>),
    Call(fn(i64) -> i64, Box<Scalar>),
}

impl Scalar {
    fn eval(&self, slots: &[Option<i64>]) -> Result<i64, Bail> {
        Ok(match self {
            Scalar::Const(v) => *v,
            Scalar::Slot(s) => slots[*s].ok_or(Bail)?,
            Scalar::Arith(op, a, b) => op(a.eval(slots)?, b.eval(slots)?),
            Scalar::Div(op, a, b) => {
                let d = b.eval(slots)?;
                if d == 0 {
                    return Err(Bail);
                }
                op(a.eval(slots)?, d)
            }
            Scalar::Neg(a) => a.eval(slots)?.wrapping_neg(),
            Scalar::Min(items) => {
                let mut best = i64::MAX;
                for x in items {
                    best = best.min(x.eval(slots)?);
                }
                best
            }
            Scalar::Max(items) => {
                let mut best = i64::MIN;
                for x in items {
                    best = best.max(x.eval(slots)?);
                }
                best
            }
            Scalar::Call(f, a) => f(a.eval(slots)?),
        })
    }
}

/// One array access. `decl` is `None` for an undeclared array, which
/// fails only if the access is reached.
struct Access<'m> {
    decl: Option<&'m ArrayDecl>,
    subscripts: Vec<Scalar>,
}

/// One step of evaluating a store's right-hand side.
enum Effect<'m> {
    /// A read-free operand, evaluated only for its failures.
    Check(Scalar),
    /// The divisor of an operand that reads an array.
    Divisor(Scalar),
    Read(Access<'m>),
}

enum Op<'m> {
    Guard(Scalar, Box<Op<'m>>),
    Let(usize, Scalar),
    Store(Vec<Effect<'m>>, Access<'m>),
}

struct Level {
    slot: usize,
    lower: Scalar,
    upper: Scalar,
    step: Scalar,
}

/// A nest compiled for streaming against one address map.
pub(crate) struct Program<'m> {
    /// The symbol each slot holds, for binding parameters by name.
    names: Vec<Symbol>,
    levels: Vec<Level>,
    /// The innermost statements: inits, then the body.
    body: Vec<Op<'m>>,
}

impl<'m> Program<'m> {
    /// Compiles `nest`, or returns `None` when an array value could decide
    /// control flow, an address or an error: an array read in a bound, a
    /// guard condition, a subscript, a scalar assignment's right-hand side
    /// or a divisor, or a call to anything but the one-argument built-ins
    /// `abs`, `sgn` and `sqrt`.
    pub(crate) fn compile(nest: &LoopNest, map: &'m AddressMap) -> Option<Program<'m>> {
        let mut c = Compiler {
            map,
            names: Vec::new(),
        };
        let mut levels = Vec::with_capacity(nest.depth());
        for l in nest.loops() {
            levels.push(Level {
                slot: c.slot(&l.var),
                lower: c.scalar(&l.lower)?,
                upper: c.scalar(&l.upper)?,
                step: c.scalar(&l.step)?,
            });
        }
        let body = nest
            .inits()
            .iter()
            .chain(nest.body())
            .map(|s| c.stmt(s))
            .collect::<Option<Vec<_>>>()?;
        Some(Program {
            names: c.names,
            levels,
            body,
        })
    }

    /// Runs the program, feeding every access's byte address to `sink`,
    /// and returns the number of innermost iterations.
    pub(crate) fn run(
        &self,
        params: &[(&str, i64)],
        sink: &mut impl FnMut(u64),
    ) -> Result<usize, Bail> {
        let mut slots = vec![None; self.names.len()];
        for &(name, value) in params {
            if let Some(s) = self.names.iter().position(|n| n.as_str() == name) {
                slots[s] = Some(value);
            }
        }
        let mut run = Run {
            slots,
            index: Vec::new(),
            iterations: 0,
            sink,
        };
        run.level(self, 0)?;
        Ok(run.iterations)
    }
}

struct Compiler<'m> {
    map: &'m AddressMap,
    /// The symbol each slot holds.
    names: Vec<Symbol>,
}

impl<'m> Compiler<'m> {
    fn slot(&mut self, name: &Symbol) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| {
                self.names.push(name.clone());
                self.names.len() - 1
            })
    }

    /// A read-free expression, or `None` when it reads an array or calls
    /// a function that is not a built-in.
    fn scalar(&mut self, e: &Expr) -> Option<Scalar> {
        Some(match e {
            Expr::Const(v) => Scalar::Const(*v),
            Expr::Var(s) => Scalar::Slot(self.slot(s)),
            Expr::Add(a, b) => Scalar::Arith(i64::wrapping_add, self.boxed(a)?, self.boxed(b)?),
            Expr::Sub(a, b) => Scalar::Arith(i64::wrapping_sub, self.boxed(a)?, self.boxed(b)?),
            Expr::Mul(a, b) => Scalar::Arith(i64::wrapping_mul, self.boxed(a)?, self.boxed(b)?),
            Expr::FloorDiv(a, b) => {
                Scalar::Div(irlt_ir::floor_div_i64, self.boxed(a)?, self.boxed(b)?)
            }
            Expr::CeilDiv(a, b) => {
                Scalar::Div(irlt_ir::ceil_div_i64, self.boxed(a)?, self.boxed(b)?)
            }
            Expr::Mod(a, b) => Scalar::Div(irlt_ir::mod_floor_i64, self.boxed(a)?, self.boxed(b)?),
            Expr::Neg(a) => Scalar::Neg(self.boxed(a)?),
            Expr::Min(items) => Scalar::Min(self.scalars(items)?),
            Expr::Max(items) => Scalar::Max(self.scalars(items)?),
            Expr::Call(name, args) => {
                let [arg] = &args[..] else { return None };
                Scalar::Call(builtin(name)?, self.boxed(arg)?)
            }
            Expr::ArrayRead(_) => return None,
        })
    }

    fn boxed(&mut self, e: &Expr) -> Option<Box<Scalar>> {
        self.scalar(e).map(Box::new)
    }

    fn scalars(&mut self, items: &[Expr]) -> Option<Vec<Scalar>> {
        items.iter().map(|e| self.scalar(e)).collect()
    }

    fn access(&mut self, r: &ArrayRef) -> Option<Access<'m>> {
        Some(Access {
            decl: self.map.decl(&r.array),
            subscripts: self.scalars(&r.subscripts)?,
        })
    }

    fn stmt(&mut self, s: &Stmt) -> Option<Op<'m>> {
        Some(match s {
            Stmt::Guarded { cond, then } => {
                Op::Guard(self.scalar(cond)?, Box::new(self.stmt(then)?))
            }
            Stmt::Assign {
                target: Target::Scalar(name),
                value,
            } => Op::Let(self.slot(name), self.scalar(value)?),
            Stmt::Assign {
                target: Target::Array(r),
                value,
            } => {
                let mut reads = Vec::new();
                self.effects(value, &mut reads)?;
                Op::Store(reads, self.access(r)?)
            }
        })
    }

    /// Appends the effects of evaluating a store's right-hand side `e`, in
    /// the reference evaluator's order.
    fn effects(&mut self, e: &Expr, out: &mut Vec<Effect<'m>>) -> Option<()> {
        if !e.reads_arrays() {
            match self.scalar(e)? {
                Scalar::Const(_) => {}
                s => out.push(Effect::Check(s)),
            }
            return Some(());
        }
        match e {
            Expr::ArrayRead(r) => out.push(Effect::Read(self.access(r)?)),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                self.effects(a, out)?;
                self.effects(b, out)?;
            }
            Expr::FloorDiv(a, b) | Expr::CeilDiv(a, b) | Expr::Mod(a, b) => {
                out.push(Effect::Divisor(self.scalar(b)?));
                self.effects(a, out)?;
            }
            Expr::Neg(a) => self.effects(a, out)?,
            Expr::Min(items) | Expr::Max(items) => {
                for x in items {
                    self.effects(x, out)?;
                }
            }
            Expr::Call(name, args) => {
                let [arg] = &args[..] else { return None };
                builtin(name)?;
                self.effects(arg, out)?;
            }
            Expr::Const(_) | Expr::Var(_) => unreachable!("leaves read no array"),
        }
        Some(())
    }
}

/// The interpreter's built-in functions (`sqrt` is the integer square
/// root of the absolute value).
fn builtin(name: &Symbol) -> Option<fn(i64) -> i64> {
    match name.as_str() {
        "abs" => Some(i64::abs),
        "sgn" => Some(i64::signum),
        "sqrt" => Some(|x| x.unsigned_abs().isqrt() as i64),
        _ => None,
    }
}

struct Run<'s, F> {
    slots: Vec<Option<i64>>,
    /// Subscript values of the access being addressed.
    index: Vec<i64>,
    iterations: usize,
    sink: &'s mut F,
}

impl<F: FnMut(u64)> Run<'_, F> {
    fn level(&mut self, p: &Program<'_>, k: usize) -> Result<(), Bail> {
        let Some(l) = p.levels.get(k) else {
            self.iterations += 1;
            if self.iterations > ITERATION_CAP {
                return Err(Bail);
            }
            for op in &p.body {
                self.op(op)?;
            }
            return Ok(());
        };
        let lo = l.lower.eval(&self.slots)?;
        let hi = l.upper.eval(&self.slots)?;
        let step = l.step.eval(&self.slots)?;
        if step == 0 {
            return Err(Bail);
        }
        let mut x = lo;
        while (step > 0 && x <= hi) || (step < 0 && x >= hi) {
            self.slots[l.slot] = Some(x);
            self.level(p, k + 1)?;
            x += step;
        }
        self.slots[l.slot] = None;
        Ok(())
    }

    fn op(&mut self, op: &Op<'_>) -> Result<(), Bail> {
        match op {
            Op::Guard(cond, then) => {
                if cond.eval(&self.slots)? != 0 {
                    self.op(then)?;
                }
            }
            Op::Let(slot, value) => self.slots[*slot] = Some(value.eval(&self.slots)?),
            Op::Store(reads, target) => {
                for effect in reads {
                    match effect {
                        Effect::Check(s) => {
                            s.eval(&self.slots)?;
                        }
                        Effect::Divisor(s) => {
                            if s.eval(&self.slots)? == 0 {
                                return Err(Bail);
                            }
                        }
                        Effect::Read(a) => self.access(a)?,
                    }
                }
                self.access(target)?;
            }
        }
        Ok(())
    }

    fn access(&mut self, a: &Access<'_>) -> Result<(), Bail> {
        self.index.clear();
        for s in &a.subscripts {
            self.index.push(s.eval(&self.slots)?);
        }
        let addr = a.decl.and_then(|d| d.locate(&self.index)).ok_or(Bail)?;
        (self.sink)(addr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_interp::Executor;
    use irlt_ir::parse_nest;

    #[test]
    fn iteration_cap_matches_the_reference_executor() {
        let reference = format!("{:?}", Executor::new());
        assert!(
            reference.contains(&format!("max_iterations: {ITERATION_CAP}")),
            "{reference}"
        );
        let map = AddressMap::new(crate::Order::ColMajor, 8);
        let run = |n: i64| {
            let nest = parse_nest("do i = 1, n\n x = i\nenddo").unwrap();
            Program::compile(&nest, &map)
                .expect("streams")
                .run(&[("n", n)], &mut |_| {})
        };
        assert_eq!(run(ITERATION_CAP as i64).unwrap(), ITERATION_CAP);
        run(ITERATION_CAP as i64 + 1).unwrap_err();
    }
}
