//! `Coalesce(n, i, j)` code generation (Table 3, citing Polychronopoulos &
//! Kuck's guided self-scheduling).
//!
//! The contiguous loops `i..=j` (whose bounds are invariant within the
//! range, by precondition) collapse into a single normalized loop
//! `x_c = 0 … Π trip_k − 1` with step 1. Initialization statements decode
//! the original indices:
//!
//! ```text
//! x_k = l_k + s_k · ((x_c / Π_{m>k} trip_m) mod trip_k)
//! ```
//!
//! with the `mod` omitted for the outermost coalesced loop and the
//! division omitted for the innermost. The coalesced loop is `pardo` only
//! if *every* loop in the range was `pardo` (Table 3); that rule lives in
//! `Template::output_kinds`, which sets every generated loop's kind.

use super::trip_count;
use irlt_ir::{Expr, Loop, LoopKind, LoopNest, Stmt, Symbol};

/// Applies the transformation. Preconditions are assumed checked.
pub(super) fn apply(i: usize, j: usize, nest: &LoopNest) -> LoopNest {
    let range = &nest.loops()[i..=j];
    let trips: Vec<Expr> = range
        .iter()
        .map(|l| trip_count(&l.lower, &l.upper, &l.step))
        .collect();

    // Name: first letters of the coalesced variables + "c" (the paper's
    // `jic` for coalesced `jj`, `ii`), freshened against the nest.
    let base: String = range
        .iter()
        .map(|l| l.var.as_str().chars().next().expect("nonempty name"))
        .chain(std::iter::once('c'))
        .collect();
    let taken = nest.all_scalar_symbols();
    let cvar = Symbol::new(base).freshen(|s| taken.contains(s));

    let total: Expr = trips
        .iter()
        .cloned()
        .reduce(Expr::mul)
        .expect("nonempty range");
    // Its kind is set from `Template::output_kinds` by the caller.
    let coalesced = Loop {
        var: cvar.clone(),
        lower: Expr::int(0),
        upper: Expr::sub(total, Expr::int(1)).simplify(),
        step: Expr::int(1),
        kind: LoopKind::Do,
    };

    // Decode indices outermost-first.
    let mut new_inits: Vec<Stmt> = Vec::with_capacity(range.len());
    for (k, l) in range.iter().enumerate() {
        // stride = product of inner trip counts.
        let stride: Option<Expr> = trips[k + 1..].iter().cloned().reduce(Expr::mul);
        let mut idx = Expr::var(cvar.clone());
        if let Some(stride) = stride {
            idx = Expr::floor_div(idx, stride);
        }
        if k > 0 {
            idx = Expr::modulo(idx, trips[k].clone());
        }
        let value = Expr::add(l.lower.clone(), Expr::mul(l.step.clone(), idx)).simplify();
        new_inits.push(Stmt::scalar(l.var.clone(), value));
    }
    new_inits.extend(nest.inits().iter().cloned());

    // Inner loops may reference the coalesced variables in their bounds
    // (e.g. Fig. 7's `do j = tmpj, min(n, tmpj + bj − 1)` after coalescing
    // jj and ii). Those variables are no longer loop indices, so their
    // decode expressions are substituted inline — the paper's `tmp`
    // definitions play the same role.
    let decode: Vec<(Symbol, Expr)> = new_inits[..range.len()]
        .iter()
        .map(|s| match (s.target(), s.value()) {
            (Some(irlt_ir::Target::Scalar(v)), Some(value)) => (v.clone(), value.clone()),
            _ => unreachable!("coalesce inits are scalar assignments"),
        })
        .collect();
    let subst = |v: &Symbol| {
        decode
            .iter()
            .find(|(name, _)| name == v)
            .map(|(_, e)| e.clone())
    };

    let mut loops: Vec<Loop> = Vec::with_capacity(nest.depth() - (j - i));
    loops.extend(nest.loops()[..i].iter().cloned());
    loops.push(coalesced);
    for l in &nest.loops()[j + 1..] {
        loops.push(Loop {
            var: l.var.clone(),
            lower: l.lower.substitute(&subst),
            upper: l.upper.substitute(&subst),
            step: l.step.substitute(&subst),
            kind: l.kind,
        });
    }
    LoopNest::with_inits(loops, new_inits, nest.body().to_vec())
}

#[cfg(test)]
mod tests {
    use crate::template::Template;
    use irlt_ir::parse_nest;

    #[test]
    fn rectangular_coalesce() {
        let nest = parse_nest("do i = 1, n\n do j = 1, m\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let t = Template::coalesce(2, 0, 1).unwrap();
        let out = t.apply_to(&nest).unwrap();
        assert_eq!(out.depth(), 1);
        let text = out.to_string();
        // Trip counts: n and m; total n·m.
        assert!(text.contains("do ijc = 0, n*m - 1, 1"), "{text}");
        assert!(text.contains("i = ijc / m + 1"), "{text}");
        assert!(text.contains("j = ijc mod m + 1"), "{text}");
    }

    #[test]
    fn coalesce_decoding_is_exact() {
        // Evaluate the generated init expressions over the whole coalesced
        // range and check they enumerate exactly the original pairs in
        // row-major order.
        let nest =
            parse_nest("do i = 2, 4\n do j = 5, 11, 3\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let t = Template::coalesce(2, 0, 1).unwrap();
        let out = t.apply_to(&nest).unwrap();
        assert_eq!(out.level(0).upper.as_const(), Some(8)); // 3·3 − 1
        let mut pairs = Vec::new();
        for c in 0..=8_i64 {
            let env = |s: &irlt_ir::Symbol| (s.as_str() == "ijc").then_some(c);
            let nf = |_: &irlt_ir::Symbol, _: &[i64]| None;
            let i = out.inits()[0]
                .value()
                .unwrap()
                .eval_scalar(&env, &nf)
                .unwrap();
            let j = out.inits()[1]
                .value()
                .unwrap()
                .eval_scalar(&env, &nf)
                .unwrap();
            pairs.push((i, j));
        }
        let expected: Vec<(i64, i64)> = (2..=4)
            .flat_map(|i| [5, 8, 11].into_iter().map(move |j| (i, j)))
            .collect();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn partial_range_keeps_outer_loops() {
        let nest = parse_nest(
            "do i = 1, n\n do j = 1, m\n  do k = 1, p\n   a(i, j, k) = 0\n  enddo\n enddo\nenddo",
        )
        .unwrap();
        let t = Template::coalesce(3, 1, 2).unwrap();
        let out = t.apply_to(&nest).unwrap();
        assert_eq!(out.depth(), 2);
        let vars: Vec<&str> = out.loops().iter().map(|l| l.var.as_str()).collect();
        assert_eq!(vars, ["i", "jkc"]);
    }

    #[test]
    fn pardo_only_when_all_parallel() {
        let nest =
            parse_nest("pardo i = 1, n\n pardo j = 1, m\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let t = Template::coalesce(2, 0, 1).unwrap();
        assert!(t.apply_to(&nest).unwrap().level(0).kind.is_parallel());

        let nest =
            parse_nest("pardo i = 1, n\n do j = 1, m\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        assert!(!t.apply_to(&nest).unwrap().level(0).kind.is_parallel());
    }

    #[test]
    fn name_collision_freshens() {
        let nest = parse_nest("do i = 1, n\n do j = 1, ijc\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let t = Template::coalesce(2, 0, 1).unwrap();
        let out = t.apply_to(&nest).unwrap();
        assert_eq!(out.level(0).var, "ijc_1");
    }

    #[test]
    fn inherited_inits_follow_new_ones() {
        // Coalesce after a reversal that produced no inits, then check
        // manually-built inits survive in order.
        let nest = parse_nest("do i = 1, n\n do j = 1, m\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let t1 = Template::coalesce(2, 0, 1).unwrap();
        let out = t1.apply_to(&nest).unwrap();
        assert_eq!(out.inits().len(), 2);
        assert!(matches!(out.inits()[0].target(), Some(irlt_ir::Target::Scalar(s)) if s == "i"));
    }

    #[test]
    fn runtime_empty_loop_coalesces_to_zero_iterations() {
        // One empty loop makes the trip product ≤ 0: the coalesced loop
        // runs zero times, like the original. (The framework's documented
        // assumption — each loop executes — is only needed when *two or
        // more* coalesced loops are simultaneously empty.)
        let nest = parse_nest("do i = 1, n\n do j = 1, m\n  a(i, j) = 1\n enddo\nenddo").unwrap();
        let t = Template::coalesce(2, 0, 1).unwrap();
        let out = t.apply_to(&nest).unwrap();
        let mut ex = irlt_interp::Executor::new();
        ex.set_param("n", 5).set_param("m", 0); // inner loop empty
        let r = ex.run(&out, irlt_interp::Memory::new()).unwrap();
        assert_eq!(r.iterations, 0);
        let mut ex = irlt_interp::Executor::new();
        ex.set_param("n", 0).set_param("m", 7); // outer loop empty
        let r = ex.run(&out, irlt_interp::Memory::new()).unwrap();
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn negative_step_coalesce_decodes_descending() {
        // do i = 9, 1, -4 visits 9, 5, 1.
        let nest =
            parse_nest("do i = 9, 1, -4\n do j = 1, 2\n  a(i, j) = 0\n enddo\nenddo").unwrap();
        let t = Template::coalesce(2, 0, 1).unwrap();
        let out = t.apply_to(&nest).unwrap();
        assert_eq!(out.level(0).upper.as_const(), Some(5)); // 3·2 − 1
        let cvar = out.level(0).var.clone();
        let mut seen = Vec::new();
        for c in 0..=5_i64 {
            let env = |s: &irlt_ir::Symbol| (s == &cvar).then_some(c);
            let nf = |_: &irlt_ir::Symbol, _: &[i64]| None;
            let i = out.inits()[0]
                .value()
                .unwrap()
                .eval_scalar(&env, &nf)
                .unwrap();
            let j = out.inits()[1]
                .value()
                .unwrap()
                .eval_scalar(&env, &nf)
                .unwrap();
            seen.push((i, j));
        }
        assert_eq!(seen, vec![(9, 1), (9, 2), (5, 1), (5, 2), (1, 1), (1, 2)]);
        // And it executes equivalently.
        let r = irlt_interp::check_equivalence(&nest, &out, &[], 3).unwrap();
        assert!(r.is_equivalent(), "{r}");
    }

    #[test]
    fn single_loop_coalesce_normalizes() {
        // Coalescing a single loop is the paper's "includes normalization
        // of the lower bound and the step".
        let nest = parse_nest("do i = 4, 20, 5\n a(i) = 0\nenddo").unwrap();
        let t = Template::coalesce(1, 0, 0).unwrap();
        let out = t.apply_to(&nest).unwrap();
        let text = out.to_string();
        assert!(text.contains("do ic = 0, 3, 1"), "{text}");
        assert!(text.contains("i = 5*ic + 4"), "{text}");
    }
}
