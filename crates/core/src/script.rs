//! A textual script format for transformation sequences.
//!
//! §5 discusses Whitfield & Soffa's GOSpeL — "a specification language …
//! in which an optimization is specified by preconditions and actions" —
//! and positions this framework as its natural loop-transformation
//! extension. This module provides the serialization side: a sequence
//! round-trips through a small line-oriented script, so recipes can be
//! stored, diffed, and replayed by external tools:
//!
//! ```text
//! n = 3
//! reverse_permute rev=[F F F] perm=[2 0 1]
//! block i=0 j=2 bsize=[bj; bk; bi]
//! parallelize flags=[1 0 1 0 0 0]
//! reverse_permute rev=[F F F F F F] perm=[0 2 1 3 4 5]
//! coalesce i=0 j=1
//! ```
//!
//! `#` starts a comment; blank lines are ignored; `unimodular` rows are
//! written `m=[1 1; 1 0]`.

use crate::sequence::{Step, TransformSeq};
use crate::template::Template;
use irlt_ir::{parse_expr, Expr};
use irlt_unimodular::IntMatrix;
use std::fmt;
use std::fmt::Write as _;

/// A script parse/serialization failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line (0 for serialization-side errors).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

fn err(line: usize, message: impl Into<String>) -> ScriptError {
    ScriptError {
        line,
        message: message.into(),
    }
}

impl TransformSeq {
    /// Serializes the sequence to script text.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] if the sequence contains a custom (user
    /// trait object) step, which has no textual form.
    ///
    /// # Examples
    ///
    /// ```
    /// use irlt_core::TransformSeq;
    /// use irlt_ir::Expr;
    ///
    /// let t = TransformSeq::new(2)
    ///     .block(0, 1, vec![Expr::var("b1"), Expr::var("b2")])?
    ///     .parallelize(vec![true, false, false, false])?;
    /// let script = t.to_script().unwrap();
    /// let back = TransformSeq::from_script(&script).unwrap();
    /// assert_eq!(back.to_script().unwrap(), script);
    /// # Ok::<(), irlt_core::SequenceError>(())
    /// ```
    pub fn to_script(&self) -> Result<String, ScriptError> {
        let mut out = String::new();
        let _ = writeln!(out, "n = {}", self.input_size());
        for step in self.steps() {
            match step {
                Step::Builtin(t) => {
                    let _ = writeln!(out, "{}", template_line(t));
                }
                Step::Custom(t) => {
                    return Err(err(
                        0,
                        format!("custom template `{}` has no script form", t.template_name()),
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Parses a script back into a sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] with the offending line on malformed input,
    /// unknown template names, invalid parameters, or size-chaining
    /// violations.
    pub fn from_script(text: &str) -> Result<TransformSeq, ScriptError> {
        let mut seq: Option<TransformSeq> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                Some(k) => &raw[..k],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('n') {
                let rest = rest.trim();
                if let Some(v) = rest.strip_prefix('=') {
                    if seq.is_some() {
                        return Err(err(line_no, "`n = …` must be the first directive"));
                    }
                    let n: usize = v
                        .trim()
                        .parse()
                        .map_err(|_| err(line_no, "invalid nest size"))?;
                    seq = Some(TransformSeq::new(n));
                    continue;
                }
            }
            let Some(current) = seq.take() else {
                return Err(err(line_no, "script must start with `n = <size>`"));
            };
            let (head, rest) = match line.find(char::is_whitespace) {
                Some(k) => (&line[..k], line[k..].trim()),
                None => (line, ""),
            };
            // Range templates need the *running* nest size.
            let template = match parse_range_template(head, rest, current.output_size(), line_no)? {
                Some(t) => t,
                None => parse_template_line(head, rest, line_no)?,
            };
            seq = Some(
                current
                    .push(template)
                    .map_err(|e| err(line_no, e.to_string()))?,
            );
        }
        seq.ok_or_else(|| err(0, "empty script"))
    }
}

fn template_line(t: &Template) -> String {
    match t {
        Template::Unimodular { matrix } => {
            let rows: Vec<String> = (0..matrix.rows())
                .map(|i| {
                    matrix
                        .row(i)
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            format!("unimodular m=[{}]", rows.join("; "))
        }
        Template::ReversePermute { rev, perm } => format!(
            "reverse_permute rev=[{}] perm=[{}]",
            bools(rev, "T", "F"),
            nums(perm.as_slice())
        ),
        Template::Parallelize { parflag } => {
            format!("parallelize flags=[{}]", bools(parflag, "1", "0"))
        }
        Template::Block { i, j, bsize, .. } => {
            format!("block i={i} j={j} bsize=[{}]", exprs(bsize))
        }
        Template::Coalesce { i, j, .. } => format!("coalesce i={i} j={j}"),
        Template::Interleave { i, j, isize_, .. } => {
            format!("interleave i={i} j={j} isize=[{}]", exprs(isize_))
        }
    }
}

fn bools(items: &[bool], yes: &str, no: &str) -> String {
    items
        .iter()
        .map(|&b| if b { yes } else { no })
        .collect::<Vec<_>>()
        .join(" ")
}

fn nums(items: &[usize]) -> String {
    items
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn exprs(items: &[Expr]) -> String {
    // Semicolon-separated: expressions may contain spaces (`n - 1`) and
    // commas (`min(a, b)`), but never semicolons.
    items
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("; ")
}

fn parse_template_line(head: &str, rest: &str, line_no: usize) -> Result<Template, ScriptError> {
    let fields = parse_fields(rest, line_no)?;
    let get = |key: &str| -> Result<&str, ScriptError> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| err(line_no, format!("missing `{key}=`")))
    };
    let result = match head {
        "unimodular" => {
            let body = get("m")?;
            let rows: Result<Vec<Vec<i64>>, ScriptError> = body
                .split(';')
                .map(|row| {
                    row.split_whitespace()
                        .map(|c| {
                            c.parse::<i64>()
                                .map_err(|_| err(line_no, format!("bad matrix entry `{c}`")))
                        })
                        .collect()
                })
                .collect();
            let rows = rows?;
            let slices: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
            if slices.is_empty() || slices.iter().any(|r| r.len() != slices.len()) {
                return Err(err(line_no, "matrix must be square"));
            }
            Template::unimodular(IntMatrix::from_rows(&slices))
                .map_err(|e| err(line_no, e.to_string()))?
        }
        "reverse_permute" => {
            let rev = parse_bools(get("rev")?, line_no)?;
            let perm = parse_usizes(get("perm")?, line_no)?;
            Template::reverse_permute(rev, perm).map_err(|e| err(line_no, e.to_string()))?
        }
        "parallelize" => Template::parallelize(parse_bools(get("flags")?, line_no)?),
        other => return Err(err(line_no, format!("unknown template `{other}`"))),
    };
    Ok(result)
}

fn parse_fields(rest: &str, line_no: usize) -> Result<Vec<(String, String)>, ScriptError> {
    // key=value where value is either a bare token or a [..] group.
    let mut out = Vec::new();
    let bytes = rest.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() {
        while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if pos >= bytes.len() {
            break;
        }
        let key_start = pos;
        while pos < bytes.len() && bytes[pos] != b'=' {
            pos += 1;
        }
        if pos >= bytes.len() {
            return Err(err(line_no, "expected `key=value`"));
        }
        let key = rest[key_start..pos].trim().to_string();
        pos += 1; // '='
        if pos < bytes.len() && bytes[pos] == b'[' {
            let start = pos + 1;
            while pos < bytes.len() && bytes[pos] != b']' {
                pos += 1;
            }
            if pos >= bytes.len() {
                return Err(err(line_no, "unterminated `[`"));
            }
            out.push((key, rest[start..pos].trim().to_string()));
            pos += 1;
        } else {
            let start = pos;
            while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            out.push((key, rest[start..pos].to_string()));
        }
    }
    Ok(out)
}

fn parse_bools(body: &str, line_no: usize) -> Result<Vec<bool>, ScriptError> {
    body.split_whitespace()
        .map(|tok| match tok {
            "T" | "1" | "true" => Ok(true),
            "F" | "0" | "false" => Ok(false),
            other => Err(err(line_no, format!("bad flag `{other}`"))),
        })
        .collect()
}

fn parse_usizes(body: &str, line_no: usize) -> Result<Vec<usize>, ScriptError> {
    body.split_whitespace()
        .map(|tok| {
            tok.parse()
                .map_err(|_| err(line_no, format!("bad index `{tok}`")))
        })
        .collect()
}

fn parse_exprs(body: &str, line_no: usize) -> Result<Vec<Expr>, ScriptError> {
    body.split(';')
        .map(|tok| parse_expr(tok.trim()).map_err(|e| err(line_no, e.to_string())))
        .collect()
}

/// Range templates (block/coalesce/interleave) need the running nest size,
/// which only `from_script` knows; they are parsed through this second
/// entry point.
fn parse_range_template(
    head: &str,
    rest: &str,
    n: usize,
    line_no: usize,
) -> Result<Option<Template>, ScriptError> {
    let fields = parse_fields(rest, line_no)?;
    let get = |key: &str| -> Result<&str, ScriptError> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| err(line_no, format!("missing `{key}=`")))
    };
    let parse_ij = || -> Result<(usize, usize), ScriptError> {
        Ok((
            get("i")?.parse().map_err(|_| err(line_no, "bad i"))?,
            get("j")?.parse().map_err(|_| err(line_no, "bad j"))?,
        ))
    };
    let t = match head {
        "block" => {
            let (i, j) = parse_ij()?;
            let bsize = parse_exprs(get("bsize")?, line_no)?;
            Some(Template::block(n, i, j, bsize).map_err(|e| err(line_no, e.to_string()))?)
        }
        "coalesce" => {
            let (i, j) = parse_ij()?;
            Some(Template::coalesce(n, i, j).map_err(|e| err(line_no, e.to_string()))?)
        }
        "interleave" => {
            let (i, j) = parse_ij()?;
            let isize_ = parse_exprs(get("isize")?, line_no)?;
            Some(Template::interleave(n, i, j, isize_).map_err(|e| err(line_no, e.to_string()))?)
        }
        _ => None,
    };
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TransformSeq {
        let b = |s: &str| Expr::var(s);
        TransformSeq::new(3)
            .reverse_permute(vec![false, true, false], vec![2, 0, 1])
            .unwrap()
            .block(0, 2, vec![b("bj"), b("bk"), b("bi")])
            .unwrap()
            .parallelize(vec![true, false, true, false, false, false])
            .unwrap()
            .coalesce(0, 1)
            .unwrap()
            .interleave(1, 1, vec![Expr::int(4)])
            .unwrap()
            .unimodular(IntMatrix::skew(6, 0, 5, -2))
            .unwrap()
    }

    #[test]
    fn roundtrip_full_kernel_set() {
        let seq = sample();
        let script = seq.to_script().unwrap();
        let back = TransformSeq::from_script(&script).unwrap();
        assert_eq!(back.len(), seq.len());
        assert_eq!(back.input_size(), seq.input_size());
        assert_eq!(back.output_size(), seq.output_size());
        // Step-by-step template equality (Display is a faithful proxy).
        for (a, b) in seq.steps().iter().zip(back.steps()) {
            assert_eq!(a.to_string(), b.to_string());
        }
        // Idempotent serialization.
        assert_eq!(back.to_script().unwrap(), script);
    }

    #[test]
    fn script_text_shape() {
        let script = sample().to_script().unwrap();
        assert!(script.starts_with("n = 3\n"), "{script}");
        assert!(
            script.contains("reverse_permute rev=[F T F] perm=[2 0 1]"),
            "{script}"
        );
        assert!(
            script.contains("block i=0 j=2 bsize=[bj; bk; bi]"),
            "{script}"
        );
        assert!(
            script.contains("parallelize flags=[1 0 1 0 0 0]"),
            "{script}"
        );
        assert!(script.contains("coalesce i=0 j=1"), "{script}");
        assert!(script.contains("interleave i=1 j=1 isize=[4]"), "{script}");
        assert!(script.contains("unimodular m=["), "{script}");
    }

    #[test]
    fn compound_size_expressions_roundtrip() {
        let seq = TransformSeq::new(1)
            .block(
                0,
                0,
                vec![Expr::min2(Expr::var("b"), Expr::var("n") - Expr::int(1))],
            )
            .unwrap();
        let script = seq.to_script().unwrap();
        assert!(script.contains("bsize=[min(b, n - 1)]"), "{script}");
        let back = TransformSeq::from_script(&script).unwrap();
        assert_eq!(back.to_script().unwrap(), script);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let script = "# recipe\nn = 2\n\nparallelize flags=[1 0] # outer\n";
        let seq = TransformSeq::from_script(script).unwrap();
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = TransformSeq::from_script("parallelize flags=[1]").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("n = "), "{e}");

        let e = TransformSeq::from_script("n = 2\nfrobnicate x=1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown template"), "{e}");

        let e = TransformSeq::from_script("n = 2\nparallelize flags=[1 0 0]").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("2"), "{e}");

        let e = TransformSeq::from_script("n = 2\nblock i=1 j=0 bsize=[4]").unwrap_err();
        assert_eq!(e.line, 2);

        let e = TransformSeq::from_script("n = 2\nunimodular m=[2 0; 0 1]").unwrap_err();
        assert!(e.message.contains("unimodular"), "{e}");

        assert!(TransformSeq::from_script("").is_err());
    }

    #[test]
    fn overflowing_determinant_is_a_script_error() {
        // det = MAX² overflows i64; the 3×3's Bareiss products overflow
        // i128. Both are "not unimodular", never a panic.
        for script in [
            "n = 2\nunimodular m=[9223372036854775807 0; 0 9223372036854775807]\n",
            "n = 3\nunimodular m=[9223372036854775807 1 0; 1 9223372036854775807 1; \
             0 1 9223372036854775807]\n",
        ] {
            let e = TransformSeq::from_script(script).unwrap_err();
            assert_eq!(e.line, 2);
            assert!(e.message.contains("unimodular"), "{e}");
        }
    }

    #[test]
    fn range_templates_use_running_size() {
        // block grows 2 → 4; the following coalesce must see n = 4.
        let script = "n = 2\nblock i=0 j=1 bsize=[4; 4]\ncoalesce i=2 j=3\n";
        let seq = TransformSeq::from_script(script).unwrap();
        assert_eq!(seq.output_size(), 3);
    }

    #[test]
    fn custom_steps_are_unserializable() {
        use crate::sequence::KernelTemplate;
        #[derive(Debug)]
        struct Nop;
        impl KernelTemplate for Nop {
            fn template_name(&self) -> String {
                "Nop".into()
            }
            fn input_size(&self) -> usize {
                1
            }
            fn output_size(&self) -> usize {
                1
            }
            fn map_dep_vector(
                &self,
                d: &irlt_dependence::DepVector,
            ) -> Vec<irlt_dependence::DepVector> {
                vec![d.clone()]
            }
            fn check_preconditions(
                &self,
                _: &irlt_ir::LoopNest,
            ) -> Result<(), crate::PrecondError> {
                Ok(())
            }
            fn apply_to(
                &self,
                nest: &irlt_ir::LoopNest,
            ) -> Result<irlt_ir::LoopNest, crate::ApplyError> {
                Ok(nest.clone())
            }
        }
        let seq = TransformSeq::new(1)
            .push_custom(std::sync::Arc::new(Nop))
            .unwrap();
        let e = seq.to_script().unwrap_err();
        assert!(e.message.contains("Nop"), "{e}");
    }
}
