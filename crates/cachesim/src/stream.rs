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
//! that meets any failure stops with [`Halt::Bail`]; the caller re-runs the
//! reference path, which reports the failure exactly. The sink may also
//! end a run early ([`Halt::Stop`]), after any access.
//!
//! Subscripts and scalar right-hand sides built from constants, slots and
//! wrapping `+ - ×` by a constant are lowered to the affine form
//! `c + Σ coef·slot`. When the innermost statements are only such scalar
//! assignments and array stores whose operands are constants and affine
//! array reads, each entry to the innermost loop runs as a strength-reduced
//! kernel: every access's address at the first iteration plus a constant
//! per-iteration delta, proven in bounds once, at both ends of the range
//! (see [`Kernel`]). An entry the kernel cannot prove runs through the
//! per-iteration walker, which bails exactly where it always did.

use crate::layout::{AddressMap, ArrayDecl};
use irlt_ir::{ArrayRef, Expr, LoopNest, Stmt, Symbol, Target};
use std::ops::ControlFlow;

/// The iteration cap of a default `irlt_interp::Executor`, which the
/// reference path runs with.
const ITERATION_CAP: usize = 10_000_000;

/// Why a streaming run ended before the nest did.
#[derive(Debug)]
pub(crate) enum Halt {
    /// It met a failure (unbound variable, zero step, division by zero,
    /// iteration cap, undeclared array, rank mismatch or out-of-bounds
    /// subscript).
    Bail,
    /// The sink asked it to stop.
    Stop,
}

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
    /// A subscript or scalar right-hand side in affine form.
    Affine(Affine),
}

impl Scalar {
    fn eval(&self, slots: &[Option<i64>]) -> Result<i64, Halt> {
        Ok(match self {
            Scalar::Const(v) => *v,
            Scalar::Slot(s) => slots[*s].ok_or(Halt::Bail)?,
            Scalar::Arith(op, a, b) => op(a.eval(slots)?, b.eval(slots)?),
            Scalar::Div(op, a, b) => {
                let d = b.eval(slots)?;
                if d == 0 {
                    return Err(Halt::Bail);
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
            Scalar::Affine(a) => a.eval(slots)?,
        })
    }
}

/// `c + Σ coef·slot`, the value of an expression built from constants,
/// slots and wrapping `+ - ×` by a constant. Those operations are the
/// ring Z/2⁶⁴, so regrouping the terms gives exactly the reference
/// evaluator's wrapped value.
#[derive(Clone)]
struct Affine {
    c: i64,
    /// One `(slot, coef)` per slot the expression reads, even when the
    /// coefficients cancel (`i - i`, `0 * i`): evaluating it must still
    /// fail while the slot is unbound.
    terms: Vec<(usize, i64)>,
}

impl Affine {
    fn eval(&self, slots: &[Option<i64>]) -> Result<i64, Halt> {
        let mut v = self.c;
        for &(s, k) in &self.terms {
            v = v.wrapping_add(k.wrapping_mul(slots[s].ok_or(Halt::Bail)?));
        }
        Ok(v)
    }

    /// The exact value, or `None` when a slot is unbound or a step
    /// overflows.
    fn checked_eval(&self, slots: &[Option<i64>]) -> Option<i64> {
        let mut v = self.c;
        for &(s, k) in &self.terms {
            v = v.checked_add(k.checked_mul(slots[s]?)?)?;
        }
        Some(v)
    }

    /// `self + sign·other`, `sign` being 1 or −1.
    fn add(mut self, other: Affine, sign: i64) -> Affine {
        self.c = self.c.wrapping_add(sign.wrapping_mul(other.c));
        for (s, k) in other.terms {
            let k = sign.wrapping_mul(k);
            match self.terms.iter_mut().find(|t| t.0 == s) {
                Some(t) => t.1 = t.1.wrapping_add(k),
                None => self.terms.push((s, k)),
            }
        }
        self
    }

    fn scale(mut self, factor: i64) -> Affine {
        self.c = self.c.wrapping_mul(factor);
        for t in &mut self.terms {
            t.1 = t.1.wrapping_mul(factor);
        }
        self
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

/// The innermost loop compiled to a strength-reduced address kernel.
///
/// It exists when the innermost statements are only array stores and
/// scalar assignments; every store operand is an array read or a
/// constant; every access is to a declared array of matching rank; every
/// subscript and scalar right-hand side is affine; and no statement reads
/// a scalar before the body assigns it (that value would come from the
/// previous iteration). Substituting each assignment
/// into the statements after it then leaves every subscript, within one
/// entry of the innermost loop, as `outer + coef·x` for the index value
/// `x`: monotone in `x`. If both the first and the last iteration's
/// subscripts are computed without overflow and in bounds, every
/// iteration's are, the wrapped values equal the exact ones, and each
/// access's address moves by the same delta per iteration.
struct Kernel<'m> {
    /// The scalar assignments in order, each with the earlier ones
    /// substituted.
    lets: Vec<(usize, Inner)>,
    /// Every access of one iteration, in the interpreter's order.
    accesses: Vec<KernelAccess<'m>>,
}

struct KernelAccess<'m> {
    decl: &'m ArrayDecl,
    /// One subscript per dimension.
    dims: Vec<Inner>,
}

/// An affine form split on the innermost index `x`: `outer + coef·x`.
struct Inner {
    outer: Affine,
    coef: i64,
}

impl Inner {
    fn split(f: Affine, inner: usize) -> Inner {
        let mut coef = 0;
        let mut outer = Affine {
            c: f.c,
            terms: Vec::with_capacity(f.terms.len()),
        };
        for (s, k) in f.terms {
            if s == inner {
                coef = k;
            } else {
                outer.terms.push((s, k));
            }
        }
        Inner { outer, coef }
    }

    /// The exact value at `x`, or `None` when a slot is unbound or a step
    /// overflows.
    fn checked_at(&self, slots: &[Option<i64>], x: i64) -> Option<i64> {
        self.coef
            .checked_mul(x)?
            .checked_add(self.outer.checked_eval(slots)?)
    }
}

impl<'m> Kernel<'m> {
    fn compile(body: &[Op<'m>], inner: usize) -> Option<Kernel<'m>> {
        let assigned: Vec<usize> = body
            .iter()
            .filter_map(|op| match op {
                Op::Let(slot, _) => Some(*slot),
                _ => None,
            })
            .collect();
        // `f` with every scalar assigned so far substituted, or `None` when
        // it is not affine or reads a scalar only assigned later.
        let resolve = |f: &Scalar, lets: &[(usize, Affine)]| {
            let Scalar::Affine(f) = f else { return None };
            let mut out = Affine {
                c: f.c,
                terms: Vec::new(),
            };
            for &(s, k) in &f.terms {
                let term = match lets.iter().rev().find(|(slot, _)| *slot == s) {
                    Some((_, value)) => value.clone().scale(k),
                    None if assigned.contains(&s) => return None,
                    None => Affine {
                        c: 0,
                        terms: vec![(s, k)],
                    },
                };
                out = out.add(term, 1);
            }
            Some(out)
        };
        let mut lets: Vec<(usize, Affine)> = Vec::new();
        let mut accesses = Vec::new();
        let mut access = |a: &Access<'m>, lets: &[(usize, Affine)]| {
            let decl = a.decl?;
            if decl.strides().len() != a.subscripts.len() {
                return None;
            }
            let dims = a
                .subscripts
                .iter()
                .map(|s| Some(Inner::split(resolve(s, lets)?, inner)))
                .collect::<Option<_>>()?;
            accesses.push(KernelAccess { decl, dims });
            Some(())
        };
        for op in body {
            match op {
                Op::Let(slot, value) => {
                    let value = resolve(value, &lets)?;
                    lets.push((*slot, value));
                }
                Op::Store(effects, target) => {
                    for effect in effects {
                        let Effect::Read(a) = effect else { return None };
                        access(a, &lets)?;
                    }
                    access(target, &lets)?;
                }
                _ => return None,
            }
        }
        Some(Kernel {
            lets: lets
                .into_iter()
                .map(|(slot, value)| (slot, Inner::split(value, inner)))
                .collect(),
            accesses,
        })
    }
}

/// A nest compiled for streaming against one address map.
pub(crate) struct Program<'m> {
    /// The symbol each slot holds, for binding parameters by name.
    names: Vec<Symbol>,
    levels: Vec<Level>,
    /// The innermost statements: inits, then the body.
    body: Vec<Op<'m>>,
    kernel: Option<Kernel<'m>>,
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
        let kernel = levels
            .last()
            .and_then(|inner| Kernel::compile(&body, inner.slot));
        Some(Program {
            names: c.names,
            levels,
            body,
            kernel,
        })
    }

    /// Runs the program, feeding every access's byte address to `sink`,
    /// and returns the number of innermost iterations. Ends with
    /// [`Halt::Stop`] right after an access for which `sink` breaks.
    pub(crate) fn run(
        &self,
        params: &[(&str, i64)],
        sink: &mut impl FnMut(u64) -> ControlFlow<()>,
    ) -> Result<usize, Halt> {
        let mut slots = vec![None; self.names.len()];
        for &(name, value) in params {
            if let Some(s) = self.names.iter().position(|n| n.as_str() == name) {
                slots[s] = Some(value);
            }
        }
        let mut run = Run {
            slots,
            index: Vec::new(),
            cursors: Vec::new(),
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

    /// `e` in affine form, or `None` when it is not built from constants,
    /// variables and `+ - ×` by a constant.
    fn affine(&mut self, e: &Expr) -> Option<Affine> {
        Some(match e {
            Expr::Const(v) => Affine {
                c: *v,
                terms: Vec::new(),
            },
            Expr::Var(s) => Affine {
                c: 0,
                terms: vec![(self.slot(s), 1)],
            },
            Expr::Add(a, b) => self.affine(a)?.add(self.affine(b)?, 1),
            Expr::Sub(a, b) => self.affine(a)?.add(self.affine(b)?, -1),
            Expr::Mul(a, b) => {
                let (a, b) = (self.affine(a)?, self.affine(b)?);
                match (a.terms.is_empty(), b.terms.is_empty()) {
                    (true, _) => b.scale(a.c),
                    (_, true) => a.scale(b.c),
                    _ => return None,
                }
            }
            Expr::Neg(a) => self.affine(a)?.scale(-1),
            _ => return None,
        })
    }

    /// `e` in affine form when it has one, else as a general expression.
    fn lowered(&mut self, e: &Expr) -> Option<Scalar> {
        match self.affine(e) {
            Some(f) => Some(Scalar::Affine(f)),
            None => self.scalar(e),
        }
    }

    fn access(&mut self, r: &ArrayRef) -> Option<Access<'m>> {
        let subscripts = r
            .subscripts
            .iter()
            .map(|e| self.lowered(e))
            .collect::<Option<_>>()?;
        Some(Access {
            decl: self.map.decl(&r.array),
            subscripts,
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
            } => Op::Let(self.slot(name), self.lowered(value)?),
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
    /// The kernel's `(address, delta)` per access, refilled on every
    /// entry to the innermost loop.
    cursors: Vec<(u64, u64)>,
    iterations: usize,
    sink: &'s mut F,
}

impl<F: FnMut(u64) -> ControlFlow<()>> Run<'_, F> {
    fn level(&mut self, p: &Program<'_>, k: usize) -> Result<(), Halt> {
        let Some(l) = p.levels.get(k) else {
            self.iterations += 1;
            if self.iterations > ITERATION_CAP {
                return Err(Halt::Bail);
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
            return Err(Halt::Bail);
        }
        if k + 1 == p.levels.len() {
            if let Some(kernel) = &p.kernel {
                if self.kernel(kernel, l.slot, lo, hi, step)? {
                    return Ok(());
                }
            }
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

    /// Runs one entry to the innermost loop through `kernel` and returns
    /// `true`, or returns `false`, having emitted nothing, when the walker
    /// must run it: when the range's span or the index value the walker
    /// steps to after the last one overflows, or when a subscript at the
    /// first or the last iteration reads an unbound slot, overflows or
    /// falls out of bounds. Bails when the entry crosses the iteration cap
    /// or a scalar assignment reads an unbound slot.
    fn kernel(
        &mut self,
        kernel: &Kernel<'_>,
        inner: usize,
        lo: i64,
        hi: i64,
        step: i64,
    ) -> Result<bool, Halt> {
        let span = if step > 0 {
            hi.checked_sub(lo)
        } else {
            lo.checked_sub(hi)
        };
        let Some(span) = span else { return Ok(false) };
        if span >= 0 {
            // `|step| · steps ≤ span`, so `last` lies between `lo` and `hi`.
            let steps = (span as u64 / step.unsigned_abs()) as i64;
            let last = lo + step * steps;
            // If the walker's step past `last` overflows, its loop does not
            // end where the kernel's does.
            if last.checked_add(step).is_none() {
                return Ok(false);
            }
            let trip = steps as usize + 1;
            if trip > ITERATION_CAP - self.iterations {
                return Err(Halt::Bail);
            }
            self.cursors.clear();
            for a in &kernel.accesses {
                let Some(first) = self.endpoint(a, lo) else {
                    return Ok(false);
                };
                if self.endpoint(a, last).is_none() {
                    return Ok(false);
                }
                let mut delta = 0u64;
                for (dim, &stride) in a.dims.iter().zip(a.decl.strides()) {
                    let per_step = dim.coef.wrapping_mul(step) as u64;
                    delta = delta.wrapping_add(per_step.wrapping_mul(stride));
                }
                self.cursors.push((first, delta));
            }
            self.iterations += trip;
            for _ in 0..trip {
                for (addr, delta) in &mut self.cursors {
                    if (self.sink)(*addr).is_break() {
                        return Err(Halt::Stop);
                    }
                    *addr = addr.wrapping_add(*delta);
                }
            }
            // Each assigned scalar keeps its last iteration's value; one that
            // reads an unbound slot fails as the walker's first iteration
            // would.
            for (slot, value) in &kernel.lets {
                let outer = value.outer.eval(&self.slots)?;
                self.slots[*slot] = Some(outer.wrapping_add(value.coef.wrapping_mul(last)));
            }
        }
        self.slots[inner] = None;
        Ok(true)
    }

    /// The address `a` touches when the innermost index is `x`, with the
    /// subscripts computed exactly, or `None` when one reads an unbound
    /// slot, overflows or is out of bounds.
    fn endpoint(&mut self, a: &KernelAccess<'_>, x: i64) -> Option<u64> {
        self.index.clear();
        for dim in &a.dims {
            self.index.push(dim.checked_at(&self.slots, x)?);
        }
        a.decl.locate(&self.index)
    }

    fn op(&mut self, op: &Op<'_>) -> Result<(), Halt> {
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
                                return Err(Halt::Bail);
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

    fn access(&mut self, a: &Access<'_>) -> Result<(), Halt> {
        self.index.clear();
        for s in &a.subscripts {
            self.index.push(s.eval(&self.slots)?);
        }
        let addr = a
            .decl
            .and_then(|d| d.locate(&self.index))
            .ok_or(Halt::Bail)?;
        if (self.sink)(addr).is_break() {
            return Err(Halt::Stop);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irlt_interp::Executor;
    use irlt_ir::parse_nest;

    #[test]
    fn kernel_eligibility() {
        let mut map = AddressMap::new(crate::Order::ColMajor, 8);
        map.declare("a", &[8, 8]).declare("b", &[8, 8]);
        let has_kernel = |body: &str| {
            let src = format!("do i = 1, n\n do j = 1, n\n  {body}\n enddo\nenddo");
            let nest = parse_nest(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            Program::compile(&nest, &map)
                .expect("streams")
                .kernel
                .is_some()
        };
        for body in [
            "b(i, j) = a(i, j)",
            "b(i, 2*j - i) = a(j - 1, i) + a(i, j + 1) * 3",
            "t = j - i\n  b(i, t) = -a(t, 0*j)",
            "b(i, j) = 5",
            "t = i\n  t = t + j\n  b(t, j) = a(i, t)",
        ] {
            assert!(has_kernel(body), "{body}");
        }
        for body in [
            "if (i - j) b(i, j) = a(i, j)",
            "b(i, j) = a(i, j) + n",
            "b(i, j) = a(i, j) / (j + 1)",
            "b(i, j * j) = a(i, j)",
            "b(i, j) = a(i, min(i, j))",
            "b(i, j) = c(i, j)",
            "b(i) = a(i, j)",
            "t = i * j\n  b(i, t) = a(i, j)",
            "b(i, t) = a(i, j)\n  t = j",
            "t = t + 1\n  b(i, t) = a(i, j)",
            "j = j + 1\n  b(i, j) = a(i, j)",
        ] {
            assert!(!has_kernel(body), "{body}");
        }
    }

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
                .run(&[("n", n)], &mut |_| ControlFlow::Continue(()))
        };
        assert_eq!(run(ITERATION_CAP as i64).unwrap(), ITERATION_CAP);
        run(ITERATION_CAP as i64 + 1).unwrap_err();
    }
}
