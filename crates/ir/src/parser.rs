//! Parser for the DO-loop mini-language used throughout the paper.
//!
//! The concrete syntax is the paper's Fortran-flavoured one:
//!
//! ```text
//! do i = 2, n-1
//!   do j = 2, n-1
//!     a(i, j) = (a(i, j) + a(i-1, j) + a(i, j-1) + a(i+1, j) + a(i, j+1)) / 5
//!   enddo
//! enddo
//! ```
//!
//! * `do` / `pardo` loop headers with an optional step (default 1);
//! * `enddo` terminators; `!` comments to end of line;
//! * expressions with `+ - * /` (floor division), `mod`, unary `-`,
//!   `min(…)`, `max(…)`, parentheses;
//! * `name(args)` parses as an **array reference** unless `name` is a
//!   registered function (defaults: `sqrt`, `abs`, `sgn`) — matching the
//!   paper, where `colstr(j)` in a *bound* is an opaque run-time function
//!   but `a(i, j)` in the body is an array;
//! * assignments `lhs = expr` with scalar or array left-hand sides, and
//!   single-statement guards `if (expr) lhs = expr` (nonzero = taken), as
//!   in Fig. 2(a)'s `if (...) b(j) = …`.
//!
//! The parsed program must form a *perfect* nest: statements only at the
//! innermost level, one loop per level.
//!
//! Parentheses, call and subscript argument lists, unary minus and
//! guards may nest at most 256 levels deep. Deeper input is
//! a [`ParseError`], so hostile source cannot overflow the stack of
//! this recursive-descent parser.

use crate::expr::Expr;
use crate::nest::{Loop, LoopKind, LoopNest};
use crate::stmt::Stmt;
use crate::symbol::Symbol;
use std::collections::BTreeSet;
use std::fmt;

/// A parse failure, with 1-based line and column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation of what went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting of parentheses, argument lists, unary minus and
/// guards the parser accepts.
const MAX_NESTING: usize = 256;

/// Parses a perfect loop nest with the default function set.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, an imperfect nest, or a nest
/// that fails [`LoopNest::validate`].
///
/// # Examples
///
/// ```
/// use irlt_ir::parse_nest;
///
/// let nest = parse_nest(
///     "do i = 1, n\n  do j = 1, i\n    a(i, j) = 0\n  enddo\nenddo",
/// ).unwrap();
/// assert_eq!(nest.depth(), 2);
/// ```
pub fn parse_nest(src: &str) -> Result<LoopNest, ParseError> {
    Parser::new(src).parse_nest()
}

/// Parses a single expression with the default function set.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src);
    let e = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

/// A configurable parser for the mini-language.
pub struct Parser<'s> {
    tokens: Vec<Token>,
    pos: usize,
    functions: BTreeSet<Symbol>,
    src_len_lines: usize,
    lex_error: Option<ParseError>,
    /// Nested constructs currently open (at most `MAX_NESTING`).
    depth: usize,
    _src: std::marker::PhantomData<&'s str>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Newline,
    Eq,
    Comma,
    LParen,
    RParen,
    Plus,
    Minus,
    Star,
    Slash,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Token {
    tok: Tok,
    line: usize,
    col: usize,
}

impl<'s> Parser<'s> {
    /// Creates a parser over `src` with the default function names
    /// (`sqrt`, `abs`, `sgn`).
    pub fn new(src: &'s str) -> Parser<'s> {
        let mut p = Parser {
            tokens: Vec::new(),
            pos: 0,
            functions: ["sqrt", "abs", "sgn"]
                .iter()
                .copied()
                .map(Symbol::new)
                .collect(),
            src_len_lines: src.lines().count().max(1),
            lex_error: None,
            depth: 0,
            _src: std::marker::PhantomData,
        };
        if let Err(e) = p.lex(src) {
            p.lex_error = Some(e);
        }
        p
    }

    /// Registers `name` as an opaque function: `name(args)` will parse as
    /// [`Expr::Call`] rather than an array read.
    #[must_use]
    pub fn with_function(mut self, name: impl Into<Symbol>) -> Parser<'s> {
        self.functions.insert(name.into());
        self
    }

    fn lex(&mut self, src: &str) -> Result<(), ParseError> {
        for (ln, line) in src.lines().enumerate() {
            let line_no = ln + 1;
            let code = match line.find('!') {
                Some(k) => &line[..k],
                None => line,
            };
            let bytes = code.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                let c = bytes[i] as char;
                let col = i + 1;
                match c {
                    ' ' | '\t' | '\r' => {
                        i += 1;
                    }
                    '=' => {
                        self.push(Tok::Eq, line_no, col);
                        i += 1;
                    }
                    ',' => {
                        self.push(Tok::Comma, line_no, col);
                        i += 1;
                    }
                    '(' => {
                        self.push(Tok::LParen, line_no, col);
                        i += 1;
                    }
                    ')' => {
                        self.push(Tok::RParen, line_no, col);
                        i += 1;
                    }
                    '+' => {
                        self.push(Tok::Plus, line_no, col);
                        i += 1;
                    }
                    '-' => {
                        self.push(Tok::Minus, line_no, col);
                        i += 1;
                    }
                    '*' => {
                        self.push(Tok::Star, line_no, col);
                        i += 1;
                    }
                    '/' => {
                        self.push(Tok::Slash, line_no, col);
                        i += 1;
                    }
                    '0'..='9' => {
                        let start = i;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                        let text = &code[start..i];
                        let value = text.parse::<i64>().map_err(|_| ParseError {
                            message: format!("integer literal `{text}` out of range"),
                            line: line_no,
                            col,
                        })?;
                        self.push(Tok::Int(value), line_no, col);
                    }
                    'a'..='z' | 'A'..='Z' | '_' => {
                        let start = i;
                        while i < bytes.len()
                            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                        {
                            i += 1;
                        }
                        self.push(Tok::Ident(code[start..i].to_string()), line_no, col);
                    }
                    other => {
                        return Err(ParseError {
                            message: format!("unexpected character `{other}`"),
                            line: line_no,
                            col,
                        });
                    }
                }
            }
            self.push(Tok::Newline, line_no, code.len() + 1);
        }
        Ok(())
    }

    fn push(&mut self, tok: Tok, line: usize, col: usize) {
        // Collapse runs of newlines (blank lines).
        if tok == Tok::Newline
            && matches!(
                self.tokens.last(),
                Some(Token {
                    tok: Tok::Newline,
                    ..
                }) | None
            )
        {
            return;
        }
        self.tokens.push(Token { tok, line, col });
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next_tok(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> (usize, usize) {
        self.peek()
            .map(|t| (t.line, t.col))
            .unwrap_or((self.src_len_lines, 1))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(
            self.peek(),
            Some(Token {
                tok: Tok::Newline,
                ..
            })
        ) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek().map(|t| &t.tok) == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    /// Runs `parse` one nesting level deeper, or fails once the input
    /// nests past `MAX_NESTING`.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Some(Token {
                tok: Tok::Ident(s), ..
            }) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Parses the whole input as one perfect loop nest.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input, an imperfect nest, or a
    /// nest that fails [`LoopNest::validate`].
    pub fn parse_nest(&mut self) -> Result<LoopNest, ParseError> {
        if let Some(e) = self.lex_error.take() {
            return Err(e);
        }
        self.skip_newlines();
        let mut loops = Vec::new();
        while let Some("do" | "pardo") = self.peek_ident() {
            loops.push(self.loop_header()?);
            self.skip_newlines();
        }
        if loops.is_empty() {
            return Err(self.error("expected `do` or `pardo`"));
        }
        let mut body = Vec::new();
        while let Some(name) = self.peek_ident() {
            if name == "enddo" {
                break;
            }
            if name == "do" || name == "pardo" {
                return Err(self.error("imperfect nest: statements and loops mixed at one level"));
            }
            body.push(self.statement()?);
            self.skip_newlines();
        }
        for _ in 0..loops.len() {
            self.skip_newlines();
            match self.peek_ident() {
                Some("enddo") => {
                    self.pos += 1;
                }
                _ => return Err(self.error("expected `enddo`")),
            }
        }
        self.skip_newlines();
        self.expect_end()?;
        let nest = LoopNest::new(loops, body);
        nest.validate().map_err(|e| ParseError {
            message: format!("invalid nest: {e}"),
            line: 1,
            col: 1,
        })?;
        Ok(nest)
    }

    fn loop_header(&mut self) -> Result<Loop, ParseError> {
        let kind = match self.peek_ident() {
            Some("do") => LoopKind::Do,
            Some("pardo") => LoopKind::ParDo,
            _ => return Err(self.error("expected `do` or `pardo`")),
        };
        self.pos += 1;
        let var = match self.next_tok() {
            Some(Token {
                tok: Tok::Ident(name),
                ..
            }) => Symbol::new(name),
            _ => return Err(self.error("expected loop index variable")),
        };
        self.expect(Tok::Eq, "`=` in loop header")?;
        let lower = self.expr()?;
        self.expect(Tok::Comma, "`,` between loop bounds")?;
        let upper = self.expr()?;
        let step = if self.eat(&Tok::Comma) {
            self.expr()?
        } else {
            Expr::int(1)
        };
        if !matches!(
            self.peek(),
            Some(Token {
                tok: Tok::Newline,
                ..
            }) | None
        ) {
            return Err(self.error("expected end of line after loop header"));
        }
        Ok(Loop {
            var,
            lower,
            upper,
            step,
            kind,
        })
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        if self.peek_ident() == Some("if") {
            self.pos += 1;
            self.expect(Tok::LParen, "`(` after `if`")?;
            let cond = self.expr()?;
            self.expect(Tok::RParen, "`)` after condition")?;
            let then = self.nested(Self::statement)?;
            return Ok(Stmt::guarded(cond, then));
        }
        let name = match self.next_tok() {
            Some(Token {
                tok: Tok::Ident(name),
                ..
            }) => Symbol::new(name),
            _ => return Err(self.error("expected a statement")),
        };
        let stmt = if self.eat(&Tok::LParen) {
            let subscripts = self.expr_list()?;
            self.expect(Tok::RParen, "`)` after subscripts")?;
            self.expect(Tok::Eq, "`=` in assignment")?;
            let value = self.expr()?;
            Stmt::array(name, subscripts, value)
        } else {
            self.expect(Tok::Eq, "`=` in assignment")?;
            let value = self.expr()?;
            Stmt::scalar(name, value)
        };
        if !matches!(
            self.peek(),
            Some(Token {
                tok: Tok::Newline,
                ..
            }) | None
        ) {
            return Err(self.error("expected end of line after statement"));
        }
        Ok(stmt)
    }

    fn expr_list(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut items = vec![self.expr()?];
        while self.eat(&Tok::Comma) {
            items.push(self.expr()?);
        }
        Ok(items)
    }

    /// Parses one expression.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input.
    pub fn expr(&mut self) -> Result<Expr, ParseError> {
        if let Some(e) = self.lex_error.take() {
            return Err(e);
        }
        self.nested(Self::sum)
    }

    fn sum(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.term()?;
        loop {
            if self.eat(&Tok::Plus) {
                acc = Expr::add(acc, self.term()?);
            } else if self.eat(&Tok::Minus) {
                acc = Expr::sub(acc, self.term()?);
            } else {
                return Ok(acc);
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.factor()?;
        loop {
            if self.eat(&Tok::Star) {
                acc = Expr::mul(acc, self.factor()?);
            } else if self.eat(&Tok::Slash) {
                acc = Expr::floor_div(acc, self.factor()?);
            } else if self.peek_ident() == Some("mod") {
                self.pos += 1;
                acc = Expr::modulo(acc, self.factor()?);
            } else {
                return Ok(acc);
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Minus) {
            return Ok(Expr::neg(self.nested(Self::factor)?));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.next_tok() {
            Some(Token {
                tok: Tok::Int(v), ..
            }) => Ok(Expr::int(v)),
            Some(Token {
                tok: Tok::LParen, ..
            }) => {
                let e = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Token {
                tok: Tok::Ident(name),
                ..
            }) => {
                if self.eat(&Tok::LParen) {
                    let args = self.expr_list()?;
                    self.expect(Tok::RParen, "`)` after arguments")?;
                    match name.as_str() {
                        "min" => Ok(Expr::min_of(args)),
                        "max" => Ok(Expr::max_of(args)),
                        _ if self.functions.contains(name.as_str()) => Ok(Expr::call(name, args)),
                        _ => Ok(Expr::read(name, args)),
                    }
                } else {
                    Ok(Expr::var(name))
                }
            }
            _ => Err(self.error("expected an expression")),
        }
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        self.skip_newlines();
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_stencil_figure1a() {
        let nest = parse_nest(
            "do i = 2, n-1\n  do j = 2, n-1\n    a(i, j) = (a(i, j) + a(i-1, j) + a(i, j-1) + a(i+1, j) + a(i, j+1)) / 5\n  enddo\nenddo",
        )
        .unwrap();
        assert_eq!(nest.depth(), 2);
        assert_eq!(nest.level(0).upper.to_string(), "n - 1");
        assert_eq!(nest.body().len(), 1);
        let refs = nest.body()[0].array_refs();
        assert_eq!(refs.len(), 6); // one write + five reads
    }

    #[test]
    fn parse_matmul_figure6() {
        let nest = parse_nest(
            "do i = 1, n\n do j = 1, n\n  do k = 1, n\n   A(i, j) = A(i, j) + B(i, k) * C(k, j)\n  enddo\n enddo\nenddo",
        )
        .unwrap();
        assert_eq!(nest.depth(), 3);
        let arrays: Vec<_> = nest
            .arrays()
            .iter()
            .map(|s| s.as_str().to_string())
            .collect();
        assert_eq!(arrays, ["A", "B", "C"]);
    }

    #[test]
    fn parse_step_and_pardo() {
        let nest = parse_nest("pardo i = 1, n, 2\n  a(i) = 0\nenddo").unwrap();
        assert!(nest.level(0).kind.is_parallel());
        assert_eq!(nest.level(0).step, Expr::int(2));
    }

    #[test]
    fn parse_min_max_bounds() {
        let nest = parse_nest(
            "do i = max(n, 3), 100, 2\n  do j = 1, min(2*i, 512)\n    a(i, j) = 0\n  enddo\nenddo",
        )
        .unwrap();
        assert!(matches!(nest.level(0).lower, Expr::Max(_)));
        assert!(matches!(nest.level(1).upper, Expr::Min(_)));
    }

    #[test]
    fn functions_vs_arrays() {
        // Default: sqrt is a function, colstr is an array.
        let e = parse_expr("sqrt(i) / 2").unwrap();
        assert!(matches!(e, Expr::FloorDiv(ref a, _) if matches!(**a, Expr::Call(..))));
        let e = parse_expr("colstr(j)").unwrap();
        assert!(matches!(e, Expr::ArrayRead(_)));
        // Registered: colstr becomes a function.
        let mut p = Parser::new("colstr(j)").with_function("colstr");
        let e = p.expr().unwrap();
        assert!(matches!(e, Expr::Call(..)));
    }

    #[test]
    fn expression_precedence_and_mod() {
        assert_eq!(parse_expr("1 + 2 * 3").unwrap(), Expr::int(7));
        assert_eq!(parse_expr("(1 + 2) * 3").unwrap(), Expr::int(9));
        assert_eq!(parse_expr("7 / 2").unwrap(), Expr::int(3));
        assert_eq!(parse_expr("7 mod 4").unwrap(), Expr::int(3));
        assert_eq!(parse_expr("-i").unwrap(), Expr::neg(Expr::var("i")));
        assert_eq!(parse_expr("i - -1").unwrap().to_string(), "i + 1");
    }

    #[test]
    fn comments_and_blank_lines() {
        let nest =
            parse_nest("! five-point stencil\n\ndo i = 1, n ! header\n\n  a(i) = 0\n\nenddo\n\n")
                .unwrap();
        assert_eq!(nest.depth(), 1);
    }

    #[test]
    fn error_positions() {
        let err = parse_nest("do i = 1 n\n a(i)=0\nenddo").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("`,`"));
        let err = parse_expr("1 + + 2").unwrap_err();
        assert!(err.message.contains("expected an expression"));
    }

    #[test]
    fn missing_enddo_reported() {
        let err = parse_nest("do i = 1, n\n a(i) = 0\n").unwrap_err();
        assert!(err.message.contains("enddo"));
    }

    #[test]
    fn imperfect_nest_rejected() {
        let err = parse_nest("do i = 1, n\n a(i) = 0\n do j = 1, n\n  b(j) = 0\n enddo\nenddo")
            .unwrap_err();
        assert!(err.message.contains("imperfect"));
    }

    #[test]
    fn invalid_nest_rejected_by_validation() {
        let err = parse_nest("do i = 1, j\n do j = 1, n\n  a(i,j)=0\n enddo\nenddo").unwrap_err();
        assert!(err.message.contains("invalid nest"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_nest("do i = 1, n\n a(i) = 0\nenddo\nx = 3").unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = parse_expr("1 + 2 )").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn guarded_statement_figure2() {
        let nest = parse_nest(
            "do i = 2, n - 1\n do j = 2, n - 1\n  a(i, j) = b(j)\n  if (mask(i)) b(j) = a(i - 1, j + 1)\n enddo\nenddo",
        )
        .unwrap();
        assert_eq!(
            nest.body()[1].to_string(),
            "if (mask(i)) b(j) = a(i - 1, j + 1)"
        );
        // Round-trip.
        let reparsed = parse_nest(&nest.to_string()).unwrap();
        assert_eq!(nest, reparsed);
        // Nested guards work.
        let nest = parse_nest("do i = 1, n\n if (p(i)) if (q(i)) a(i) = 0\nenddo").unwrap();
        assert_eq!(nest.body()[0].to_string(), "if (p(i)) if (q(i)) a(i) = 0");
        // Errors carry position.
        let err = parse_nest("do i = 1, n\n if p(i) a(i) = 0\nenddo").unwrap_err();
        assert!(err.message.contains("`(` after `if`"), "{err}");
    }

    #[test]
    fn scalar_assignment_statement() {
        let nest = parse_nest("do i = 1, n\n t = i * 2\nenddo").unwrap();
        assert_eq!(nest.body()[0].to_string(), "t = 2*i");
    }

    #[test]
    fn unexpected_character_reported_with_position() {
        let err = parse_expr("i @ 2").unwrap_err();
        assert_eq!((err.line, err.col), (1, 3));
        assert!(err.message.contains('@'));
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        let parens = |n: usize| "(".repeat(n) + "i" + &")".repeat(n);
        // `expr` opens one level and each parenthesis one more.
        assert!(parse_expr(&parens(MAX_NESTING - 1)).is_ok());
        assert!(parse_expr(&format!("{}i", "-".repeat(MAX_NESTING - 1))).is_ok());
        // Far past the cap, on a default-sized thread stack: typed
        // errors, never a stack overflow.
        let errs = std::thread::spawn(move || {
            [
                parse_expr(&parens(MAX_NESTING)).unwrap_err(),
                parse_expr(&parens(20_000)).unwrap_err(),
                parse_expr(&format!("{}i", "-".repeat(20_000))).unwrap_err(),
                parse_expr(&format!("{}1{}", "a(".repeat(20_000), ")".repeat(20_000))).unwrap_err(),
                parse_nest(&format!("do i = 1, {}\n a(i) = 0\nenddo", parens(20_000))).unwrap_err(),
                parse_nest(&format!(
                    "do i = 1, n\n {}a(i) = 0\nenddo",
                    "if (i) ".repeat(20_000)
                ))
                .unwrap_err(),
            ]
        })
        .join()
        .unwrap();
        for e in errs {
            assert!(e.message.contains("nesting deeper than 256"), "{e}");
        }
    }

    #[test]
    fn roundtrip_through_display() {
        let src = "do jj = 4, n + n - 2, 1\n  do ii = max(2, jj - n + 1), min(n - 1, jj - 2), 1\n    a(ii, jj) = a(ii - 1, jj) + 1\n  enddo\nenddo\n";
        let nest = parse_nest(src).unwrap();
        let printed = nest.to_string();
        let reparsed = parse_nest(&printed).unwrap();
        assert_eq!(nest, reparsed);
    }
}
