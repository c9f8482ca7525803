//! Persistent snapshots of the shared legality cache (`irlt-cache/v3`).
//!
//! A batch run's [`SharedLegalityCache`] is a memo of pure legality
//! subproblems, so it is valid *across* processes: the same
//! `(shape, mapped, template)` key always replays the same outcome. This module serializes the cache to a
//! versioned, zero-dependency binary artifact and restores it in a later
//! process, turning the first run's misses into the second run's hits
//! ([`SharedLegalityCache::save_snapshot`] /
//! [`SharedLegalityCache::load_snapshot`], `--cache-save` /
//! `--cache-load` on `irlt-batch`).
//!
//! # What is (and is not) persisted
//!
//! The snapshot stores structural **values**: the three interner pools
//! (shapes, dependence sets, templates) in id order, and the resident
//! entries as pool-relative ids. It never stores 128-bit fingerprints or
//! hashes — `irlt_dependence::fingerprint` documents that fingerprints
//! are not a stable serialization format — so loading *re-interns* every
//! value, recomputing fingerprints under the running build and remapping
//! old ids to new ones. That makes a warm start exact by the same
//! argument as a cold one (interned ids are exact), and lets a snapshot
//! load into a cache that already holds entries. The artifact checksum is
//! a separate FNV-1a 64 over the payload bytes, chosen precisely because
//! it is a fixed, build-independent function.
//!
//! # Byte layout (`irlt-cache/v3`)
//!
//! All integers are little-endian and fixed-width; `vec(X)` is a `u32`
//! count followed by that many `X`; `str` is a `u32` byte length followed
//! by UTF-8 bytes.
//!
//! ```text
//! header   := magic[10]=b"irlt-cache"  version:u16=3
//!             payload_len:u64  checksum:u64      (FNV-1a 64 of payload)
//! payload  := shapes:vec(nest)  deps:vec(depset)  templates:vec(template)
//!             entries:vec(entry)
//! nest     := loops:vec(loop)  inits:vec(stmt)  body:vec(stmt)
//! loop     := var:str  lower:expr  upper:expr  step:expr  kind:u8
//! expr     := tag:u8 …    (0 Const i64 · 1 Var str · 2..=7 binary ops ·
//!                          8 Neg · 9/10 Min/Max vec(expr) ·
//!                          11 Call str vec(expr) · 12 ArrayRead aref)
//! aref     := array:str  subscripts:vec(expr)
//! stmt     := tag:u8 …    (0 Assign target expr · 1 Guarded expr stmt)
//! target   := tag:u8 …    (0 Scalar str · 1 Array aref)
//! depset   := vec(depvec)
//! depvec   := vec(depelem)
//! depelem  := tag:u8 …    (0 Dist i64 · 1 Dir u8)
//! template := tag:u8 …    (0 Unimodular matrix · 1 ReversePermute
//!                          vec(u8) perm · 2 Parallelize vec(u8) ·
//!                          3 Block n i j vec(expr) · 4 Coalesce n i j ·
//!                          5 Interleave n i j vec(expr); n/i/j are u32)
//! matrix   := rows:u32  cols:u32  cells:i64 × rows·cols
//! perm     := vec(u32)
//! entry    := shape:u32  mapped:u32  template:u32  outcome
//! outcome  := 0:u8  child_shape:u32  child_mapped:u32    (Legal)
//!           | 1:u8  reason                            (Illegal)
//!           | 2:u8                                    (Admitted)
//! reason   := tag:u8 …    (0 Dependences vec(depvec) · 1 Precondition
//!                          step:u64 precond · 2 CodeGen step:u64 apply)
//! ```
//!
//! (`precond`/`apply` mirror the error enums field-for-field; template
//! names inside them are stored as the tag of the matching Table 1
//! template.) Every decode is bounds-checked and depth-limited:
//! truncated, corrupted, or adversarial input yields a
//! [`SnapshotError`], never a panic, and the cache is untouched unless
//! the **whole** payload decodes — rejection always degrades to a clean
//! cold start.
//!
//! An `Admitted` entry is a legal verdict reached without building the
//! child (`SeqState::admits`); it carries no child key.
//!
//! Version 2 had no `Admitted` outcome, and version 1 also stored a
//! pruning-flag byte before each entry's key and each legal outcome's
//! child key. A file of any other version is rejected with
//! [`SnapshotError::BadVersion`] and the run starts cold.

use crate::codegen::ApplyError;
use crate::precond::PrecondError;
use crate::sequence::IllegalReason;
use crate::shared::{CachedOutcome, ProbeKey, SharedLegalityCache, StateKey};
use crate::template::Template;
use irlt_dependence::{DepElem, DepSet, DepVector, Dir};
use irlt_ir::{
    ArrayRef, BoundSide, Expr, ExprType, Loop, LoopKind, LoopNest, Stmt, Symbol, Target,
};
use irlt_unimodular::{FmError, IntMatrix, UnimodularError};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// `b"irlt-cache"` — the artifact family.
pub const SNAPSHOT_MAGIC: &[u8; 10] = b"irlt-cache";
/// Current format version (`irlt-cache/v3`).
pub const SNAPSHOT_VERSION: u16 = 3;

const HEADER_LEN: usize = 10 + 2 + 8 + 8;
/// Maximum nesting of recursive structures (`Expr`, guarded `Stmt`) a
/// decoder will follow; deeper input is rejected, not recursed into.
const MAX_DEPTH: usize = 256;

/// Why a snapshot could not be produced or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before a complete value.
    Truncated,
    /// The input does not start with `b"irlt-cache"`.
    BadMagic,
    /// The input is a different format version.
    BadVersion {
        /// The version the file claims.
        found: u16,
    },
    /// The payload bytes do not match the recorded checksum.
    BadChecksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the actual payload bytes.
        found: u64,
    },
    /// The payload decoded to something structurally invalid.
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => f.write_str("snapshot truncated"),
            SnapshotError::BadMagic => f.write_str("not an irlt-cache snapshot"),
            SnapshotError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "snapshot checksum mismatch (header {expected:#018x}, payload {found:#018x})"
                )
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What `load_snapshot` restored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotLoadStats {
    /// Entries inserted into the cache (owner = `SNAPSHOT_OWNER`).
    pub entries_loaded: u64,
    /// Entries skipped because their shard was full or the slot was
    /// already occupied (loading never evicts live entries).
    pub entries_skipped: u64,
    /// Shapes re-interned from the snapshot's pool.
    pub shapes: u64,
    /// Dependence sets re-interned.
    pub deps: u64,
    /// Templates re-interned.
    pub templates: u64,
}

/// FNV-1a 64 over `bytes` — fixed, build-independent, and fast enough
/// for a load-time integrity check (this is *not* the structural
/// fingerprint, which may change across builds and is never persisted).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) -> Result<(), SnapshotError> {
        let n = u32::try_from(n).map_err(|_| SnapshotError::Malformed("section too large"))?;
        self.u32(n);
        Ok(())
    }

    fn str(&mut self, s: &str) -> Result<(), SnapshotError> {
        self.len(s.len())?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

fn enc_symbol(w: &mut Writer, s: &Symbol) -> Result<(), SnapshotError> {
    w.str(s.as_str())
}

fn enc_expr_vec(w: &mut Writer, items: &[Expr]) -> Result<(), SnapshotError> {
    w.len(items.len())?;
    for e in items {
        enc_expr(w, e)?;
    }
    Ok(())
}

fn enc_aref(w: &mut Writer, a: &ArrayRef) -> Result<(), SnapshotError> {
    enc_symbol(w, &a.array)?;
    enc_expr_vec(w, &a.subscripts)
}

fn enc_expr(w: &mut Writer, e: &Expr) -> Result<(), SnapshotError> {
    match e {
        Expr::Const(c) => {
            w.u8(0);
            w.i64(*c);
        }
        Expr::Var(s) => {
            w.u8(1);
            enc_symbol(w, s)?;
        }
        Expr::Add(a, b) => {
            w.u8(2);
            enc_expr(w, a)?;
            enc_expr(w, b)?;
        }
        Expr::Sub(a, b) => {
            w.u8(3);
            enc_expr(w, a)?;
            enc_expr(w, b)?;
        }
        Expr::Mul(a, b) => {
            w.u8(4);
            enc_expr(w, a)?;
            enc_expr(w, b)?;
        }
        Expr::FloorDiv(a, b) => {
            w.u8(5);
            enc_expr(w, a)?;
            enc_expr(w, b)?;
        }
        Expr::CeilDiv(a, b) => {
            w.u8(6);
            enc_expr(w, a)?;
            enc_expr(w, b)?;
        }
        Expr::Mod(a, b) => {
            w.u8(7);
            enc_expr(w, a)?;
            enc_expr(w, b)?;
        }
        Expr::Neg(a) => {
            w.u8(8);
            enc_expr(w, a)?;
        }
        Expr::Min(items) => {
            w.u8(9);
            enc_expr_vec(w, items)?;
        }
        Expr::Max(items) => {
            w.u8(10);
            enc_expr_vec(w, items)?;
        }
        Expr::Call(f, args) => {
            w.u8(11);
            enc_symbol(w, f)?;
            enc_expr_vec(w, args)?;
        }
        Expr::ArrayRead(a) => {
            w.u8(12);
            enc_aref(w, a)?;
        }
    }
    Ok(())
}

fn enc_target(w: &mut Writer, t: &Target) -> Result<(), SnapshotError> {
    match t {
        Target::Scalar(s) => {
            w.u8(0);
            enc_symbol(w, s)
        }
        Target::Array(a) => {
            w.u8(1);
            enc_aref(w, a)
        }
    }
}

fn enc_stmt(w: &mut Writer, s: &Stmt) -> Result<(), SnapshotError> {
    match s {
        Stmt::Assign { target, value } => {
            w.u8(0);
            enc_target(w, target)?;
            enc_expr(w, value)
        }
        Stmt::Guarded { cond, then } => {
            w.u8(1);
            enc_expr(w, cond)?;
            enc_stmt(w, then)
        }
    }
}

fn enc_stmt_vec(w: &mut Writer, items: &[Stmt]) -> Result<(), SnapshotError> {
    w.len(items.len())?;
    for s in items {
        enc_stmt(w, s)?;
    }
    Ok(())
}

fn enc_nest(w: &mut Writer, nest: &LoopNest) -> Result<(), SnapshotError> {
    w.len(nest.loops().len())?;
    for l in nest.loops() {
        enc_symbol(w, &l.var)?;
        enc_expr(w, &l.lower)?;
        enc_expr(w, &l.upper)?;
        enc_expr(w, &l.step)?;
        w.u8(match l.kind {
            LoopKind::Do => 0,
            LoopKind::ParDo => 1,
        });
    }
    enc_stmt_vec(w, nest.inits())?;
    enc_stmt_vec(w, nest.body())
}

fn dir_tag(d: Dir) -> u8 {
    match d {
        Dir::Pos => 0,
        Dir::Neg => 1,
        Dir::NonNeg => 2,
        Dir::NonPos => 3,
        Dir::NonZero => 4,
        Dir::Any => 5,
    }
}

fn enc_depvec(w: &mut Writer, v: &DepVector) -> Result<(), SnapshotError> {
    w.len(v.elems().len())?;
    for e in v.elems() {
        match e {
            DepElem::Dist(d) => {
                w.u8(0);
                w.i64(*d);
            }
            DepElem::Dir(d) => {
                w.u8(1);
                w.u8(dir_tag(*d));
            }
        }
    }
    Ok(())
}

fn enc_depset(w: &mut Writer, d: &DepSet) -> Result<(), SnapshotError> {
    w.len(d.len())?;
    for v in d.iter() {
        enc_depvec(w, v)?;
    }
    Ok(())
}

fn enc_matrix(w: &mut Writer, m: &IntMatrix) -> Result<(), SnapshotError> {
    w.len(m.rows())?;
    w.len(m.cols())?;
    for i in 0..m.rows() {
        for &cell in m.row(i) {
            w.i64(cell);
        }
    }
    Ok(())
}

fn enc_bool_vec(w: &mut Writer, v: &[bool]) -> Result<(), SnapshotError> {
    w.len(v.len())?;
    for &b in v {
        w.u8(u8::from(b));
    }
    Ok(())
}

fn enc_template(w: &mut Writer, t: &Template) -> Result<(), SnapshotError> {
    match t {
        Template::Unimodular { matrix } => {
            w.u8(0);
            enc_matrix(w, matrix)
        }
        Template::ReversePermute { rev, perm } => {
            w.u8(1);
            enc_bool_vec(w, rev)?;
            w.len(perm.len())?;
            for &p in perm.as_slice() {
                w.len(p)?;
            }
            Ok(())
        }
        Template::Parallelize { parflag } => {
            w.u8(2);
            enc_bool_vec(w, parflag)
        }
        Template::Block { n, i, j, bsize } => {
            w.u8(3);
            w.len(*n)?;
            w.len(*i)?;
            w.len(*j)?;
            enc_expr_vec(w, bsize)
        }
        Template::Coalesce { n, i, j } => {
            w.u8(4);
            w.len(*n)?;
            w.len(*i)?;
            w.len(*j)?;
            Ok(())
        }
        Template::Interleave { n, i, j, isize_ } => {
            w.u8(5);
            w.len(*n)?;
            w.len(*i)?;
            w.len(*j)?;
            enc_expr_vec(w, isize_)
        }
    }
}

/// Template names inside error payloads are stored as the matching
/// Table 1 tag — the only `&'static str`s that can appear there.
fn template_name_tag(name: &str) -> Result<u8, SnapshotError> {
    Ok(match name {
        "Unimodular" => 0,
        "ReversePermute" => 1,
        "Parallelize" => 2,
        "Block" => 3,
        "Coalesce" => 4,
        "Interleave" => 5,
        _ => return Err(SnapshotError::Malformed("unknown template name")),
    })
}

fn side_tag(s: BoundSide) -> u8 {
    match s {
        BoundSide::Lower => 0,
        BoundSide::Upper => 1,
        BoundSide::Step => 2,
    }
}

fn type_tag(t: ExprType) -> u8 {
    match t {
        ExprType::Const => 0,
        ExprType::Invar => 1,
        ExprType::Linear => 2,
        ExprType::Nonlinear => 3,
    }
}

fn enc_precond(w: &mut Writer, e: &PrecondError) -> Result<(), SnapshotError> {
    match e {
        PrecondError::DepthMismatch { expected, found } => {
            w.u8(0);
            w.len(*expected)?;
            w.len(*found)
        }
        PrecondError::TypeViolation {
            template,
            level,
            side,
            wrt,
            required,
            found,
        } => {
            w.u8(1);
            w.u8(template_name_tag(template)?);
            w.len(*level)?;
            w.u8(side_tag(*side));
            enc_symbol(w, wrt)?;
            w.u8(type_tag(*required));
            w.u8(type_tag(*found));
            Ok(())
        }
        PrecondError::NonConstStep { template, level } => {
            w.u8(2);
            w.u8(template_name_tag(template)?);
            w.len(*level)
        }
        PrecondError::SizeNotInvariant { template, pos, var } => {
            w.u8(3);
            w.u8(template_name_tag(template)?);
            w.len(*pos)?;
            enc_symbol(w, var)
        }
        PrecondError::ParallelLoop { level } => {
            w.u8(4);
            w.len(*level)
        }
    }
}

fn enc_fm(w: &mut Writer, e: &FmError) -> Result<(), SnapshotError> {
    match e {
        FmError::NotAffine { level, side } => {
            w.u8(0);
            w.len(*level)?;
            w.u8(side_tag(*side));
            Ok(())
        }
        FmError::NonConstStep { level } => {
            w.u8(1);
            w.len(*level)
        }
        FmError::CompositeOrigin { level } => {
            w.u8(2);
            w.len(*level)
        }
        FmError::Unbounded { level } => {
            w.u8(3);
            w.len(*level)
        }
    }
}

fn enc_unimodular(w: &mut Writer, e: &UnimodularError) -> Result<(), SnapshotError> {
    match e {
        UnimodularError::NotUnimodular => {
            w.u8(0);
            Ok(())
        }
        UnimodularError::DepthMismatch { expected, found } => {
            w.u8(1);
            w.len(*expected)?;
            w.len(*found)
        }
        UnimodularError::ParallelLoop { level } => {
            w.u8(2);
            w.len(*level)
        }
        UnimodularError::Fm(fm) => {
            w.u8(3);
            enc_fm(w, fm)
        }
    }
}

fn enc_apply(w: &mut Writer, e: &ApplyError) -> Result<(), SnapshotError> {
    match e {
        ApplyError::Precond(p) => {
            w.u8(0);
            enc_precond(w, p)
        }
        ApplyError::Unimodular(u) => {
            w.u8(1);
            enc_unimodular(w, u)
        }
    }
}

fn enc_reason(w: &mut Writer, r: &IllegalReason) -> Result<(), SnapshotError> {
    match r {
        IllegalReason::Dependences { witnesses } => {
            w.u8(0);
            w.len(witnesses.len())?;
            for v in witnesses {
                enc_depvec(w, v)?;
            }
            Ok(())
        }
        IllegalReason::Precondition { step, error } => {
            w.u8(1);
            w.u64(*step as u64);
            enc_precond(w, error)
        }
        IllegalReason::CodeGen { step, error } => {
            w.u8(2);
            w.u64(*step as u64);
            enc_apply(w, error)
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` length prefix, sanity-bounded by the bytes actually left
    /// (every counted element consumes at least one byte), so corrupt
    /// counts cannot trigger huge preallocations.
    fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| SnapshotError::Malformed("invalid UTF-8 in symbol"))
    }

    fn symbol(&mut self) -> Result<Symbol, SnapshotError> {
        Ok(Symbol::new(self.str()?))
    }

    fn bool_vec(&mut self) -> Result<Vec<bool>, SnapshotError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(match self.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Malformed("bad boolean")),
            });
        }
        Ok(out)
    }
}

fn dec_expr_vec(r: &mut Reader<'_>, depth: usize) -> Result<Vec<Expr>, SnapshotError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dec_expr(r, depth)?);
    }
    Ok(out)
}

fn dec_aref(r: &mut Reader<'_>, depth: usize) -> Result<ArrayRef, SnapshotError> {
    let array = r.symbol()?;
    let subscripts = dec_expr_vec(r, depth)?;
    Ok(ArrayRef::new(array, subscripts))
}

fn dec_expr(r: &mut Reader<'_>, depth: usize) -> Result<Expr, SnapshotError> {
    if depth == 0 {
        return Err(SnapshotError::Malformed("expression nested too deeply"));
    }
    let depth = depth - 1;
    let bin = |r: &mut Reader<'_>| -> Result<(Box<Expr>, Box<Expr>), SnapshotError> {
        let a = dec_expr(r, depth)?;
        let b = dec_expr(r, depth)?;
        Ok((Box::new(a), Box::new(b)))
    };
    Ok(match r.u8()? {
        0 => Expr::Const(r.i64()?),
        1 => Expr::Var(r.symbol()?),
        2 => {
            let (a, b) = bin(r)?;
            Expr::Add(a, b)
        }
        3 => {
            let (a, b) = bin(r)?;
            Expr::Sub(a, b)
        }
        4 => {
            let (a, b) = bin(r)?;
            Expr::Mul(a, b)
        }
        5 => {
            let (a, b) = bin(r)?;
            Expr::FloorDiv(a, b)
        }
        6 => {
            let (a, b) = bin(r)?;
            Expr::CeilDiv(a, b)
        }
        7 => {
            let (a, b) = bin(r)?;
            Expr::Mod(a, b)
        }
        8 => Expr::Neg(Box::new(dec_expr(r, depth)?)),
        9 => Expr::Min(dec_expr_vec(r, depth)?),
        10 => Expr::Max(dec_expr_vec(r, depth)?),
        11 => {
            let f = r.symbol()?;
            Expr::Call(f, dec_expr_vec(r, depth)?)
        }
        12 => Expr::ArrayRead(dec_aref(r, depth)?),
        _ => return Err(SnapshotError::Malformed("bad expression tag")),
    })
}

fn dec_target(r: &mut Reader<'_>, depth: usize) -> Result<Target, SnapshotError> {
    Ok(match r.u8()? {
        0 => Target::Scalar(r.symbol()?),
        1 => Target::Array(dec_aref(r, depth)?),
        _ => return Err(SnapshotError::Malformed("bad target tag")),
    })
}

fn dec_stmt(r: &mut Reader<'_>, depth: usize) -> Result<Stmt, SnapshotError> {
    if depth == 0 {
        return Err(SnapshotError::Malformed("statement nested too deeply"));
    }
    let depth = depth - 1;
    Ok(match r.u8()? {
        0 => Stmt::Assign {
            target: dec_target(r, depth)?,
            value: dec_expr(r, depth)?,
        },
        1 => Stmt::Guarded {
            cond: dec_expr(r, depth)?,
            then: Box::new(dec_stmt(r, depth)?),
        },
        _ => return Err(SnapshotError::Malformed("bad statement tag")),
    })
}

fn dec_stmt_vec(r: &mut Reader<'_>) -> Result<Vec<Stmt>, SnapshotError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dec_stmt(r, MAX_DEPTH)?);
    }
    Ok(out)
}

fn dec_nest(r: &mut Reader<'_>) -> Result<LoopNest, SnapshotError> {
    let n = r.len()?;
    if n == 0 {
        return Err(SnapshotError::Malformed("empty loop nest"));
    }
    let mut loops = Vec::with_capacity(n);
    for _ in 0..n {
        let var = r.symbol()?;
        let lower = dec_expr(r, MAX_DEPTH)?;
        let upper = dec_expr(r, MAX_DEPTH)?;
        let step = dec_expr(r, MAX_DEPTH)?;
        let kind = match r.u8()? {
            0 => LoopKind::Do,
            1 => LoopKind::ParDo,
            _ => return Err(SnapshotError::Malformed("bad loop kind")),
        };
        loops.push(Loop {
            var,
            lower,
            upper,
            step,
            kind,
        });
    }
    let inits = dec_stmt_vec(r)?;
    let body = dec_stmt_vec(r)?;
    Ok(LoopNest::with_inits(loops, inits, body))
}

fn dec_dir(r: &mut Reader<'_>) -> Result<Dir, SnapshotError> {
    Ok(match r.u8()? {
        0 => Dir::Pos,
        1 => Dir::Neg,
        2 => Dir::NonNeg,
        3 => Dir::NonPos,
        4 => Dir::NonZero,
        5 => Dir::Any,
        _ => return Err(SnapshotError::Malformed("bad direction tag")),
    })
}

fn dec_depvec(r: &mut Reader<'_>) -> Result<DepVector, SnapshotError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match r.u8()? {
            0 => DepElem::Dist(r.i64()?),
            1 => DepElem::Dir(dec_dir(r)?),
            _ => return Err(SnapshotError::Malformed("bad dependence element tag")),
        });
    }
    Ok(DepVector::new(out))
}

fn dec_depset(r: &mut Reader<'_>) -> Result<DepSet, SnapshotError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dec_depvec(r)?);
    }
    DepSet::from_vectors(out).map_err(|_| SnapshotError::Malformed("mixed-arity dependence set"))
}

fn dec_matrix(r: &mut Reader<'_>) -> Result<IntMatrix, SnapshotError> {
    let rows = r.len()?;
    let cols = r.len()?;
    if rows == 0 || cols == 0 {
        return Err(SnapshotError::Malformed("empty matrix"));
    }
    let mut data = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = Vec::with_capacity(cols);
        for _ in 0..cols {
            row.push(r.i64()?);
        }
        data.push(row);
    }
    let refs: Vec<&[i64]> = data.iter().map(|row| row.as_slice()).collect();
    Ok(IntMatrix::from_rows(&refs))
}

fn dec_template(r: &mut Reader<'_>) -> Result<Template, SnapshotError> {
    let bad = |_| SnapshotError::Malformed("invalid template parameters");
    Ok(match r.u8()? {
        0 => Template::unimodular(dec_matrix(r)?).map_err(bad)?,
        1 => {
            let rev = r.bool_vec()?;
            let n = r.len()?;
            let mut perm = Vec::with_capacity(n);
            for _ in 0..n {
                perm.push(r.u32()? as usize);
            }
            Template::reverse_permute(rev, perm).map_err(bad)?
        }
        2 => Template::parallelize(r.bool_vec()?),
        3 => {
            let (n, i, j) = (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
            Template::block(n, i, j, dec_expr_vec(r, MAX_DEPTH)?).map_err(bad)?
        }
        4 => {
            let (n, i, j) = (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
            Template::coalesce(n, i, j).map_err(bad)?
        }
        5 => {
            let (n, i, j) = (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
            Template::interleave(n, i, j, dec_expr_vec(r, MAX_DEPTH)?).map_err(bad)?
        }
        _ => return Err(SnapshotError::Malformed("bad template tag")),
    })
}

fn dec_template_name(r: &mut Reader<'_>) -> Result<&'static str, SnapshotError> {
    Ok(match r.u8()? {
        0 => "Unimodular",
        1 => "ReversePermute",
        2 => "Parallelize",
        3 => "Block",
        4 => "Coalesce",
        5 => "Interleave",
        _ => return Err(SnapshotError::Malformed("bad template name tag")),
    })
}

fn dec_side(r: &mut Reader<'_>) -> Result<BoundSide, SnapshotError> {
    Ok(match r.u8()? {
        0 => BoundSide::Lower,
        1 => BoundSide::Upper,
        2 => BoundSide::Step,
        _ => return Err(SnapshotError::Malformed("bad bound side tag")),
    })
}

fn dec_type(r: &mut Reader<'_>) -> Result<ExprType, SnapshotError> {
    Ok(match r.u8()? {
        0 => ExprType::Const,
        1 => ExprType::Invar,
        2 => ExprType::Linear,
        3 => ExprType::Nonlinear,
        _ => return Err(SnapshotError::Malformed("bad expression type tag")),
    })
}

fn dec_precond(r: &mut Reader<'_>) -> Result<PrecondError, SnapshotError> {
    Ok(match r.u8()? {
        0 => PrecondError::DepthMismatch {
            expected: r.u32()? as usize,
            found: r.u32()? as usize,
        },
        1 => PrecondError::TypeViolation {
            template: dec_template_name(r)?,
            level: r.u32()? as usize,
            side: dec_side(r)?,
            wrt: r.symbol()?,
            required: dec_type(r)?,
            found: dec_type(r)?,
        },
        2 => PrecondError::NonConstStep {
            template: dec_template_name(r)?,
            level: r.u32()? as usize,
        },
        3 => PrecondError::SizeNotInvariant {
            template: dec_template_name(r)?,
            pos: r.u32()? as usize,
            var: r.symbol()?,
        },
        4 => PrecondError::ParallelLoop {
            level: r.u32()? as usize,
        },
        _ => return Err(SnapshotError::Malformed("bad precondition tag")),
    })
}

fn dec_fm(r: &mut Reader<'_>) -> Result<FmError, SnapshotError> {
    Ok(match r.u8()? {
        0 => FmError::NotAffine {
            level: r.u32()? as usize,
            side: dec_side(r)?,
        },
        1 => FmError::NonConstStep {
            level: r.u32()? as usize,
        },
        2 => FmError::CompositeOrigin {
            level: r.u32()? as usize,
        },
        3 => FmError::Unbounded {
            level: r.u32()? as usize,
        },
        _ => return Err(SnapshotError::Malformed("bad FM error tag")),
    })
}

fn dec_unimodular(r: &mut Reader<'_>) -> Result<UnimodularError, SnapshotError> {
    Ok(match r.u8()? {
        0 => UnimodularError::NotUnimodular,
        1 => UnimodularError::DepthMismatch {
            expected: r.u32()? as usize,
            found: r.u32()? as usize,
        },
        2 => UnimodularError::ParallelLoop {
            level: r.u32()? as usize,
        },
        3 => UnimodularError::Fm(dec_fm(r)?),
        _ => return Err(SnapshotError::Malformed("bad unimodular error tag")),
    })
}

fn dec_apply(r: &mut Reader<'_>) -> Result<ApplyError, SnapshotError> {
    Ok(match r.u8()? {
        0 => ApplyError::Precond(dec_precond(r)?),
        1 => ApplyError::Unimodular(dec_unimodular(r)?),
        _ => return Err(SnapshotError::Malformed("bad apply error tag")),
    })
}

fn dec_reason(r: &mut Reader<'_>) -> Result<IllegalReason, SnapshotError> {
    Ok(match r.u8()? {
        0 => {
            let n = r.len()?;
            let mut witnesses = Vec::with_capacity(n);
            for _ in 0..n {
                witnesses.push(dec_depvec(r)?);
            }
            IllegalReason::Dependences { witnesses }
        }
        1 => IllegalReason::Precondition {
            step: r.u64()? as usize,
            error: dec_precond(r)?,
        },
        2 => IllegalReason::CodeGen {
            step: r.u64()? as usize,
            error: dec_apply(r)?,
        },
        _ => return Err(SnapshotError::Malformed("bad illegal-reason tag")),
    })
}

// ---------------------------------------------------------------------
// Decoded payload (validated before the cache is touched)
// ---------------------------------------------------------------------

struct DecodedEntry {
    shape: u32,
    mapped: u32,
    template: u32,
    outcome: DecodedOutcome,
}

enum DecodedOutcome {
    Legal { shape: u32, mapped: u32 },
    Illegal(IllegalReason),
    Admitted,
}

struct DecodedPayload {
    shapes: Vec<LoopNest>,
    deps: Vec<DepSet>,
    templates: Vec<Template>,
    entries: Vec<DecodedEntry>,
}

fn decode_payload(payload: &[u8]) -> Result<DecodedPayload, SnapshotError> {
    let mut r = Reader::new(payload);
    let n_shapes = r.len()?;
    let mut shapes = Vec::with_capacity(n_shapes);
    for _ in 0..n_shapes {
        shapes.push(dec_nest(&mut r)?);
    }
    let n_deps = r.len()?;
    let mut deps = Vec::with_capacity(n_deps);
    for _ in 0..n_deps {
        deps.push(dec_depset(&mut r)?);
    }
    let n_templates = r.len()?;
    let mut templates = Vec::with_capacity(n_templates);
    for _ in 0..n_templates {
        templates.push(dec_template(&mut r)?);
    }
    let n_entries = r.len()?;
    let mut entries = Vec::with_capacity(n_entries);
    let check_ids = |shape: u32, mapped: u32| -> Result<(), SnapshotError> {
        if shape as usize >= n_shapes || mapped as usize >= n_deps {
            return Err(SnapshotError::Malformed("entry references missing pool id"));
        }
        Ok(())
    };
    for _ in 0..n_entries {
        let (shape, mapped, template) = (r.u32()?, r.u32()?, r.u32()?);
        check_ids(shape, mapped)?;
        if template as usize >= n_templates {
            return Err(SnapshotError::Malformed("entry references missing pool id"));
        }
        let outcome = match r.u8()? {
            0 => {
                let (cs, cm) = (r.u32()?, r.u32()?);
                check_ids(cs, cm)?;
                DecodedOutcome::Legal {
                    shape: cs,
                    mapped: cm,
                }
            }
            1 => DecodedOutcome::Illegal(dec_reason(&mut r)?),
            2 => DecodedOutcome::Admitted,
            _ => return Err(SnapshotError::Malformed("bad outcome tag")),
        };
        entries.push(DecodedEntry {
            shape,
            mapped,
            template,
            outcome,
        });
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::Malformed("trailing bytes after entries"));
    }
    Ok(DecodedPayload {
        shapes,
        deps,
        templates,
        entries,
    })
}

// ---------------------------------------------------------------------
// SharedLegalityCache integration
// ---------------------------------------------------------------------

impl SharedLegalityCache {
    /// Serializes the resident entries and interner pools to an
    /// `irlt-cache/v3` artifact.
    ///
    /// The output is deterministic for a given cache content (pools in id
    /// order, entries sorted by key ids), so saving an unchanged cache
    /// twice yields identical bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when a count or length does not fit
    /// the format's `u32` fields.
    pub fn save_snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        // Collect entries as plain id tuples, then sort for determinism
        // (shard iteration order is unspecified). Entries MUST be
        // collected before the pools are copied: pools are append-only,
        // so every id an already-inserted entry references exists in any
        // later pool copy — whereas copying the pools first would let an
        // insert racing the save deposit an entry whose ids point past
        // the copied pools, producing a snapshot that fails validation
        // on load (the tear `tests/rotation.rs` races for). Pool values
        // interned after the entry sweep ride along unused; the loader
        // re-interns them in id order, so save→load→save stays a byte
        // fixpoint.
        let mut entries: Vec<(u32, u32, u32, DecodedOutcome)> = Vec::new();
        self.for_each_entry(|key, entry| {
            let outcome = match &entry.outcome {
                &CachedOutcome::Legal {
                    key: StateKey { shape, mapped },
                    ..
                } => DecodedOutcome::Legal { shape, mapped },
                CachedOutcome::Illegal(reason) => DecodedOutcome::Illegal(reason.clone()),
                CachedOutcome::Admitted => DecodedOutcome::Admitted,
            };
            entries.push((key.shape, key.mapped, key.template, outcome));
        });
        entries.sort_by_key(|&(shape, mapped, template, _)| (shape, mapped, template));

        // Copy the pools out (cheap Arc bumps) so no lock is held while
        // encoding.
        let (shapes, deps, templates) = {
            let pools = self.lock_pools();
            let shapes: Vec<Arc<LoopNest>> = (0..pools.shapes.len() as u32)
                .map(|i| pools.shapes.get(i).clone())
                .collect();
            let deps: Vec<Arc<DepSet>> = (0..pools.deps.len() as u32)
                .map(|i| pools.deps.get(i).clone())
                .collect();
            let templates: Vec<Arc<Template>> = (0..pools.templates.len() as u32)
                .map(|i| pools.templates.get(i).clone())
                .collect();
            (shapes, deps, templates)
        };

        let mut w = Writer::new();
        w.len(shapes.len())?;
        for s in &shapes {
            enc_nest(&mut w, s)?;
        }
        w.len(deps.len())?;
        for d in &deps {
            enc_depset(&mut w, d)?;
        }
        w.len(templates.len())?;
        for t in &templates {
            enc_template(&mut w, t)?;
        }
        w.len(entries.len())?;
        for (shape, mapped, template, outcome) in &entries {
            w.u32(*shape);
            w.u32(*mapped);
            w.u32(*template);
            match outcome {
                DecodedOutcome::Legal { shape, mapped } => {
                    w.u8(0);
                    w.u32(*shape);
                    w.u32(*mapped);
                }
                DecodedOutcome::Illegal(reason) => {
                    w.u8(1);
                    enc_reason(&mut w, reason)?;
                }
                DecodedOutcome::Admitted => w.u8(2),
            }
        }

        let payload = w.buf;
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Restores a snapshot produced by
    /// [`save_snapshot`](SharedLegalityCache::save_snapshot): re-interns
    /// every pooled value (recomputing fingerprints under this build) and
    /// inserts the entries under [`Self::SNAPSHOT_OWNER`], skipping any
    /// whose shard is full.
    ///
    /// The whole payload is decoded and validated **before** the cache is
    /// touched; on any error the cache is exactly as it was (a clean cold
    /// start). Loading into a non-empty cache is supported — ids are
    /// remapped through the interners, so snapshot values unify with live
    /// ones.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: wrong magic/version, truncation, checksum
    /// mismatch, or structurally invalid payload.
    pub fn load_snapshot(&self, bytes: &[u8]) -> Result<SnapshotLoadStats, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return if bytes.len() >= SNAPSHOT_MAGIC.len()
                && &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC
            {
                Err(SnapshotError::BadMagic)
            } else {
                Err(SnapshotError::Truncated)
            };
        }
        if &bytes[..10] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[10..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let expected = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let body = &bytes[HEADER_LEN..];
        if (body.len() as u64) < payload_len {
            return Err(SnapshotError::Truncated);
        }
        if (body.len() as u64) > payload_len {
            return Err(SnapshotError::Malformed("trailing bytes after payload"));
        }
        let found = fnv1a64(body);
        if found != expected {
            return Err(SnapshotError::BadChecksum { expected, found });
        }
        let decoded = decode_payload(body)?;

        // Everything validated — now touch the cache: re-intern the pools
        // (old id → new id, new canonical Arcs) …
        let (shape_map, shape_arcs, dep_map, dep_arcs, template_map) = {
            let mut pools = self.lock_pools();
            let mut shape_map = Vec::with_capacity(decoded.shapes.len());
            let mut shape_arcs = Vec::with_capacity(decoded.shapes.len());
            for nest in decoded.shapes {
                let interned = pools.shapes.intern(nest);
                shape_map.push(interned.id);
                shape_arcs.push(interned.value);
            }
            let mut dep_map = Vec::with_capacity(decoded.deps.len());
            let mut dep_arcs = Vec::with_capacity(decoded.deps.len());
            for set in decoded.deps {
                let interned = pools.deps.intern(set);
                dep_map.push(interned.id);
                dep_arcs.push(interned.value);
            }
            let mut template_map = Vec::with_capacity(decoded.templates.len());
            for t in decoded.templates {
                template_map.push(pools.templates.intern(t).id);
            }
            (shape_map, shape_arcs, dep_map, dep_arcs, template_map)
        };

        // … then replay the entries under the remapped ids.
        let mut stats = SnapshotLoadStats {
            shapes: shape_map.len() as u64,
            deps: dep_map.len() as u64,
            templates: template_map.len() as u64,
            ..SnapshotLoadStats::default()
        };
        for entry in decoded.entries {
            let probe = ProbeKey {
                shape: shape_map[entry.shape as usize],
                mapped: dep_map[entry.mapped as usize],
                template: template_map[entry.template as usize],
            };
            let outcome = match entry.outcome {
                DecodedOutcome::Legal { shape, mapped } => CachedOutcome::Legal {
                    shape: shape_arcs[shape as usize].clone(),
                    mapped: dep_arcs[mapped as usize].clone(),
                    key: StateKey {
                        shape: shape_map[shape as usize],
                        mapped: dep_map[mapped as usize],
                    },
                },
                DecodedOutcome::Illegal(reason) => CachedOutcome::Illegal(reason),
                DecodedOutcome::Admitted => CachedOutcome::Admitted,
            };
            if self.load_entry(probe, outcome) {
                stats.entries_loaded += 1;
            } else {
                stats.entries_skipped += 1;
            }
        }
        Ok(stats)
    }

    /// Atomically persists the cache to `path`, rotating previous
    /// generations — the snapshot hook long-lived services use between
    /// requests, and the one `irlt-batch --cache-save` uses with no
    /// history.
    ///
    /// The write is **tear-free**: bytes go to a sibling temporary file
    /// (`<path>.new`), are fsynced, and only then renamed over `path`
    /// (`rename(2)` is atomic within a filesystem). A reader — including
    /// a process that crashed mid-save and restarted — therefore only
    /// ever observes either the previous complete snapshot or the new
    /// complete snapshot, never a prefix.
    ///
    /// Before the rename, up to `keep_generations` prior snapshots are
    /// shifted to `<path>.1` (newest) … `<path>.N` (oldest), each by the
    /// same atomic rename; the oldest falls off the end. `0` keeps no
    /// history — `path` is simply replaced. Concurrent savers in one
    /// process should serialize (the serve loop holds a rotation lock);
    /// cross-process savers are last-writer-wins but still never tear.
    pub fn save_snapshot_to(
        &self,
        path: &Path,
        keep_generations: usize,
    ) -> Result<SnapshotWriteStats, SnapshotSaveError> {
        let bytes = self.save_snapshot().map_err(SnapshotSaveError::Encode)?;
        let io = |p: &Path| {
            let p = p.to_path_buf();
            move |e: std::io::Error| SnapshotSaveError::Io(p, e)
        };
        let tmp = generation_path(path, 0).with_extension("new");
        {
            let mut f = std::fs::File::create(&tmp).map_err(io(&tmp))?;
            use std::io::Write as _;
            f.write_all(&bytes).map_err(io(&tmp))?;
            // Flush to stable storage before any rename makes the file
            // visible under its final name.
            f.sync_all().map_err(io(&tmp))?;
        }
        let mut rotated = 0;
        for k in (1..=keep_generations).rev() {
            let from = generation_path(path, k - 1);
            let to = generation_path(path, k);
            match std::fs::rename(&from, &to) {
                Ok(()) => rotated += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(SnapshotSaveError::Io(from, e)),
            }
        }
        std::fs::rename(&tmp, path).map_err(io(&tmp))?;
        Ok(SnapshotWriteStats {
            bytes: bytes.len() as u64,
            entries: self.len() as u64,
            generations_rotated: rotated,
        })
    }
}

/// The on-disk name of generation `k` of a snapshot at `path`:
/// generation `0` is `path` itself, generation `k > 0` is `path.k`.
pub fn generation_path(path: &Path, k: usize) -> std::path::PathBuf {
    if k == 0 {
        path.to_path_buf()
    } else {
        let mut name = path.as_os_str().to_os_string();
        name.push(format!(".{k}"));
        std::path::PathBuf::from(name)
    }
}

/// What [`SharedLegalityCache::save_snapshot_to`] wrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotWriteStats {
    /// Size of the snapshot artifact in bytes.
    pub bytes: u64,
    /// Cache entries resident when the snapshot was encoded.
    pub entries: u64,
    /// Prior generations shifted during rotation.
    pub generations_rotated: usize,
}

/// Why an atomic snapshot save failed. Either way nothing was renamed
/// over a previous snapshot — on-disk generations are intact.
#[derive(Debug)]
pub enum SnapshotSaveError {
    /// The cache could not be encoded (a count overflowed the format).
    Encode(SnapshotError),
    /// A filesystem operation failed at the given path.
    Io(std::path::PathBuf, std::io::Error),
}

impl fmt::Display for SnapshotSaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotSaveError::Encode(e) => write!(f, "encoding snapshot: {e}"),
            SnapshotSaveError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for SnapshotSaveError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::SeqState;
    use irlt_ir::parse_nest;

    fn stencil() -> (LoopNest, DepSet) {
        let nest = parse_nest(
            "do i = 2, n - 1\n do j = 2, n - 1\n  a(i, j) = a(i - 1, j) + a(i, j - 1)\n enddo\nenddo",
        )
        .unwrap();
        (nest, DepSet::from_distances(&[&[1, 0], &[0, 1]]))
    }

    /// Populates a cache with legal and illegal outcomes across two
    /// chains.
    fn warm_cache(cache: &SharedLegalityCache) {
        let (nest, deps) = stencil();
        let s = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);
        let skew = Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap();
        let swap = Template::unimodular(irlt_unimodular::IntMatrix::interchange(2, 0, 1)).unwrap();
        let child = s.extend(&skew).unwrap();
        child.extend(&swap).unwrap();
        // An illegal outcome too: reversal against (1,-1).
        let neg = DepSet::from_distances(&[&[1, -1]]);
        let s2 = SeqState::root(&nest, &neg).with_shared(cache.clone(), 0);
        s2.extend(&Template::reverse_permute(vec![false, false], vec![1, 0]).unwrap())
            .unwrap_err();
        // A legal parallelize, then a transform on the ParDo loop —
        // exercises the precondition/codegen error encodings.
        let inner = DepSet::from_distances(&[&[0, 1]]);
        let s3 = SeqState::root(&nest, &inner)
            .with_shared(cache.clone(), 0)
            .extend(&Template::parallelize(vec![true, false]))
            .unwrap();
        s3.extend(&Template::unimodular(irlt_unimodular::IntMatrix::interchange(2, 0, 1)).unwrap())
            .unwrap_err();
    }

    #[test]
    fn round_trip_restores_entries_and_serves_hits() {
        let cache = SharedLegalityCache::with_shards(1 << 12, 4);
        warm_cache(&cache);
        let entries_before = cache.len();
        assert!(entries_before >= 4);
        let bytes = cache.save_snapshot().unwrap();

        let warm = SharedLegalityCache::with_shards(1 << 12, 16);
        let loaded = warm.load_snapshot(&bytes).unwrap();
        assert_eq!(loaded.entries_loaded as usize, entries_before);
        assert_eq!(loaded.entries_skipped, 0);
        assert_eq!(warm.len(), entries_before);
        assert_eq!(warm.stats().snapshot_entries as usize, entries_before);

        // The warmed cache replays the same outcomes — every probe hits.
        let (nest, deps) = stencil();
        let skew = Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap();
        let swap = Template::unimodular(irlt_unimodular::IntMatrix::interchange(2, 0, 1)).unwrap();
        let fresh_child = SeqState::root(&nest, &deps).extend(&skew).unwrap();
        let warm_child = SeqState::root(&nest, &deps)
            .with_shared(warm.clone(), 7)
            .extend(&skew)
            .unwrap();
        assert_eq!(warm_child.mapped_deps(), fresh_child.mapped_deps());
        assert_eq!(warm_child.shape(), fresh_child.shape());
        let fresh_grand = fresh_child.extend(&swap).unwrap();
        let warm_grand = warm_child.extend(&swap).unwrap();
        assert_eq!(warm_grand.mapped_deps(), fresh_grand.mapped_deps());
        assert_eq!(warm_grand.shape(), fresh_grand.shape());

        // Illegal outcomes replay with identical rendered reasons.
        let neg = DepSet::from_distances(&[&[1, -1]]);
        let rp = Template::reverse_permute(vec![false, false], vec![1, 0]).unwrap();
        let fresh_err = SeqState::root(&nest, &neg).extend(&rp).unwrap_err();
        let warm_err = SeqState::root(&nest, &neg)
            .with_shared(warm.clone(), 7)
            .extend(&rp)
            .unwrap_err();
        assert_eq!(format!("{warm_err}"), format!("{fresh_err}"));

        let stats = warm.stats();
        assert!(stats.snapshot_hits >= 3, "{stats}");
        assert_eq!(stats.misses, 0, "warm start should not miss: {stats}");
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let a = SharedLegalityCache::with_shards(1 << 12, 4);
        let b = SharedLegalityCache::with_shards(1 << 12, 8);
        warm_cache(&a);
        warm_cache(&b);
        let ba = a.save_snapshot().unwrap();
        assert_eq!(ba, a.save_snapshot().unwrap(), "same cache, same bytes");
        assert_eq!(
            ba,
            b.save_snapshot().unwrap(),
            "same content, different shard layout, same bytes"
        );
        // Save → load → save is a fixpoint.
        let c = SharedLegalityCache::with_shards(1 << 12, 2);
        c.load_snapshot(&ba).unwrap();
        assert_eq!(c.save_snapshot().unwrap(), ba);
    }

    #[test]
    fn save_snapshot_to_rotates_generations_atomically() {
        let dir = std::env::temp_dir().join(format!("irlt-snap-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("cache.bin");

        let cache = SharedLegalityCache::with_shards(1 << 12, 4);
        warm_cache(&cache);
        let first = cache.save_snapshot_to(&base, 2).unwrap();
        assert!(first.bytes > 0);
        assert_eq!(first.entries as usize, cache.len());
        assert_eq!(first.generations_rotated, 0, "nothing to rotate yet");
        assert_eq!(generation_path(&base, 0), base);
        assert_eq!(
            generation_path(&base, 1),
            dir.join("cache.bin.1"),
            "generation suffix appends, never replaces the extension"
        );
        let gen0 = std::fs::read(&base).unwrap();
        assert_eq!(gen0, cache.save_snapshot().unwrap());

        // Second save: previous snapshot shifts to .1.
        let second = cache.save_snapshot_to(&base, 2).unwrap();
        assert_eq!(second.generations_rotated, 1);
        assert_eq!(std::fs::read(generation_path(&base, 1)).unwrap(), gen0);

        // Third and fourth: .1 -> .2, and the cap holds (no .3 ever).
        cache.save_snapshot_to(&base, 2).unwrap();
        cache.save_snapshot_to(&base, 2).unwrap();
        assert!(generation_path(&base, 1).is_file());
        assert!(generation_path(&base, 2).is_file());
        assert!(!generation_path(&base, 3).exists(), "cap exceeded");
        // No temporary file survives a completed save.
        assert!(!base.with_extension("new").exists());

        // Every retained generation is a complete, loadable snapshot.
        for k in 0..=2 {
            let bytes = std::fs::read(generation_path(&base, k)).unwrap();
            let fresh = SharedLegalityCache::new();
            let loaded = fresh.load_snapshot(&bytes).unwrap();
            assert!(loaded.entries_loaded > 0, "generation {k} torn");
        }

        // keep_generations = 0 replaces in place without history shift.
        let lone = dir.join("lone.bin");
        cache.save_snapshot_to(&lone, 0).unwrap();
        cache.save_snapshot_to(&lone, 0).unwrap();
        assert!(lone.is_file());
        assert!(!generation_path(&lone, 1).exists());

        // A save whose temporary file cannot be created fails with the
        // typed I/O error and never disturbs the generations on disk.
        let before = std::fs::read(&base).unwrap();
        let blocker = base.with_extension("new");
        std::fs::create_dir(&blocker).unwrap();
        let err = cache.save_snapshot_to(&base, 2).unwrap_err();
        assert!(
            matches!(err, SnapshotSaveError::Io(ref p, _) if *p == blocker),
            "{err}"
        );
        assert_eq!(std::fs::read(&base).unwrap(), before);
        assert!(!generation_path(&base, 3).exists());
        std::fs::remove_dir(&blocker).unwrap();

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_into_a_non_empty_cache() {
        let donor = SharedLegalityCache::with_shards(1 << 12, 4);
        warm_cache(&donor);
        let bytes = donor.save_snapshot().unwrap();

        // The target already computed one of the same subproblems plus a
        // different one.
        let target = SharedLegalityCache::with_shards(1 << 12, 4);
        let (nest, deps) = stencil();
        let skew = Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap();
        SeqState::root(&nest, &deps)
            .with_shared(target.clone(), 3)
            .extend(&skew)
            .unwrap();
        let own = target.len();
        let loaded = target.load_snapshot(&bytes).unwrap();
        // The overlapping entry is skipped (slot occupied), the rest load.
        assert_eq!(loaded.entries_skipped, 1);
        assert_eq!(
            target.len(),
            own + loaded.entries_loaded as usize,
            "loaded entries add to the live ones"
        );
        // Replays still agree with fresh computation after the merge.
        let swap = Template::unimodular(irlt_unimodular::IntMatrix::interchange(2, 0, 1)).unwrap();
        let fresh = SeqState::root(&nest, &deps)
            .extend(&Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap())
            .unwrap()
            .extend(&swap)
            .unwrap();
        let merged = SeqState::root(&nest, &deps)
            .with_shared(target.clone(), 9)
            .extend(&Template::unimodular(irlt_unimodular::IntMatrix::skew(2, 0, 1, 1)).unwrap())
            .unwrap()
            .extend(&swap)
            .unwrap();
        assert_eq!(merged.mapped_deps(), fresh.mapped_deps());
        assert_eq!(merged.shape(), fresh.shape());
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        let cache = SharedLegalityCache::with_shards(1 << 12, 4);
        warm_cache(&cache);
        let bytes = cache.save_snapshot().unwrap();
        for cut in 0..bytes.len() {
            let fresh = SharedLegalityCache::new();
            let err = fresh
                .load_snapshot(&bytes[..cut])
                .expect_err("truncated snapshot must be rejected");
            // Whatever the specific error, the cache stays cold.
            let _ = err.to_string();
            assert!(fresh.is_empty(), "cache touched at cut {cut}");
            assert_eq!(fresh.stats().snapshot_entries, 0);
        }
    }

    #[test]
    fn rejects_corruption_wrong_version_and_garbage() {
        let cache = SharedLegalityCache::with_shards(1 << 12, 4);
        warm_cache(&cache);
        let bytes = cache.save_snapshot().unwrap();

        // Flip one payload byte: checksum must catch it.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        assert!(matches!(
            SharedLegalityCache::new().load_snapshot(&corrupt),
            Err(SnapshotError::BadChecksum { .. })
        ));

        // Flip a checksum byte.
        let mut badsum = bytes.clone();
        badsum[20] ^= 0x01;
        assert!(matches!(
            SharedLegalityCache::new().load_snapshot(&badsum),
            Err(SnapshotError::BadChecksum { .. })
        ));

        // Wrong versions, including v1 (the layout with pruning flags) and
        // v2 (no Admitted outcome): rejected before the payload is read,
        // and the cache stays cold.
        for found in [1u16, 2, 0x63] {
            let mut badver = bytes.clone();
            badver[10..12].copy_from_slice(&found.to_le_bytes());
            let fresh = SharedLegalityCache::new();
            assert_eq!(
                fresh.load_snapshot(&badver),
                Err(SnapshotError::BadVersion { found })
            );
            assert!(fresh.is_empty());
        }

        // Wrong magic.
        let mut badmagic = bytes.clone();
        badmagic[0] = b'X';
        assert!(matches!(
            SharedLegalityCache::new().load_snapshot(&badmagic),
            Err(SnapshotError::BadMagic)
        ));

        // Garbage of various lengths — never a panic, never a load.
        let mut x = 0x2545f4914f6cdd1du64;
        for len in [0usize, 1, 9, 27, 28, 64, 4096] {
            let mut garbage = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                garbage.push(x as u8);
            }
            let fresh = SharedLegalityCache::new();
            assert!(fresh.load_snapshot(&garbage).is_err(), "len {len}");
            assert!(fresh.is_empty());
        }

        // A syntactically valid header whose payload is garbage decodes
        // cleanly past the checksum, then fails structurally.
        let mut forged = Vec::new();
        let payload = vec![0xffu8; 32];
        forged.extend_from_slice(SNAPSHOT_MAGIC);
        forged.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        forged.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        forged.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        forged.extend_from_slice(&payload);
        let fresh = SharedLegalityCache::new();
        assert!(matches!(
            fresh.load_snapshot(&forged),
            Err(SnapshotError::Truncated) | Err(SnapshotError::Malformed(_))
        ));
        assert!(fresh.is_empty());
    }

    /// Recomputes the header checksum over a (mutated) payload, so the
    /// loader gets past the FNV-1a check and actually decodes it.
    fn resign(bytes: &mut [u8]) {
        let sum = fnv1a64(&bytes[HEADER_LEN..]);
        bytes[20..28].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn resigned_matrix_with_overflowing_determinant_is_malformed() {
        let cache = SharedLegalityCache::with_shards(1 << 12, 4);
        warm_cache(&cache);
        let mut bytes = cache.save_snapshot().unwrap();
        // The interchange template's encoding: tag 0, a 2×2 matrix of
        // cells [0 1; 1 0].
        let mut needle = vec![0u8];
        for v in [2u32, 2] {
            needle.extend_from_slice(&v.to_le_bytes());
        }
        for v in [0i64, 1, 1, 0] {
            needle.extend_from_slice(&v.to_le_bytes());
        }
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .expect("warm cache holds the interchange template");
        // Same length, new cells [MAX 0; 0 MAX]: det = MAX² overflows i64.
        for (k, v) in [i64::MAX, 0, 0, i64::MAX].into_iter().enumerate() {
            let cell = at + 9 + 8 * k;
            bytes[cell..cell + 8].copy_from_slice(&v.to_le_bytes());
        }
        resign(&mut bytes);
        let fresh = SharedLegalityCache::new();
        assert_eq!(
            fresh.load_snapshot(&bytes),
            Err(SnapshotError::Malformed("invalid template parameters"))
        );
        assert!(fresh.is_empty());
    }

    /// Bit flips in every payload byte of a warm snapshot, re-signed so
    /// each one reaches the decoder (a truncation or checksum sweep stops
    /// at the header). Each mutation either loads or is rejected with a
    /// typed error that leaves the cache empty; none may panic.
    #[test]
    fn resigned_bit_flips_in_every_payload_byte_never_panic() {
        let cache = SharedLegalityCache::with_shards(1 << 12, 4);
        warm_cache(&cache);
        // Blocked, coalesced and interleaved children put min/max,
        // division and call expressions into the shape pool too.
        let (nest, deps) = stencil();
        let root = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);
        for t in [
            Template::block(2, 0, 1, vec![Expr::int(4), Expr::var("b")]).unwrap(),
            Template::coalesce(2, 0, 1).unwrap(),
            Template::interleave(2, 0, 1, vec![Expr::int(2), Expr::int(3)]).unwrap(),
        ] {
            let _ = root.extend(&t);
        }
        // And an entry decided without building its child.
        root.admits(&Template::parallelize(vec![false, false]))
            .unwrap();
        assert_eq!(admitted_entries(&cache), 1);
        let bytes = cache.save_snapshot().unwrap();
        let (mut loaded, mut rejected) = (0, 0);
        for at in HEADER_LEN..bytes.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut mutated = bytes.clone();
                mutated[at] ^= mask;
                resign(&mut mutated);
                let fresh = SharedLegalityCache::with_shards(1 << 12, 1);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fresh.load_snapshot(&mutated)
                }));
                match outcome {
                    Ok(Ok(_)) => loaded += 1,
                    Ok(Err(e)) => {
                        assert!(!e.to_string().is_empty());
                        assert!(
                            fresh.is_empty(),
                            "byte {at} mask {mask:#04x}: {e}, yet the cache was touched"
                        );
                        rejected += 1;
                    }
                    Err(_) => panic!("byte {at} mask {mask:#04x}: the loader panicked"),
                }
            }
        }
        // Both outcomes occur: the sweep reaches past the first field.
        assert!(
            loaded > 0 && rejected > 0,
            "{loaded} loaded, {rejected} rejected"
        );
    }

    /// Resident entries deposited by `SeqState::admits`.
    fn admitted_entries(cache: &SharedLegalityCache) -> usize {
        let mut n = 0;
        cache.for_each_entry(|_, e| n += usize::from(matches!(e.outcome, CachedOutcome::Admitted)));
        n
    }

    /// Legal verdicts reached without a child are saved, loaded and
    /// saved again to the same bytes. Loaded, they answer `admits` but
    /// not `extend`, which replaces them with a full `Legal` entry.
    #[test]
    fn admitted_entries_survive_save_load_save() {
        let cache = SharedLegalityCache::with_shards(1 << 12, 4);
        warm_cache(&cache);
        let (nest, deps) = stencil();
        let root = SeqState::root(&nest, &deps).with_shared(cache.clone(), 0);
        let legal = [
            Template::parallelize(vec![false, false]),
            Template::block(2, 0, 1, vec![Expr::int(4), Expr::int(4)]).unwrap(),
        ];
        for t in &legal {
            root.admits(t).unwrap();
        }
        // An illegal verdict deposits the ordinary rejection.
        root.admits(&Template::parallelize(vec![true, false]))
            .unwrap_err();
        assert_eq!(admitted_entries(&cache), 2);
        let bytes = cache.save_snapshot().unwrap();

        let warm = SharedLegalityCache::with_shards(1 << 12, 2);
        let loaded = warm.load_snapshot(&bytes).unwrap();
        assert_eq!(loaded.entries_loaded as usize, cache.len());
        assert_eq!(admitted_entries(&warm), 2);
        assert_eq!(warm.save_snapshot().unwrap(), bytes, "save→load→save");

        let replay = SeqState::root(&nest, &deps).with_shared(warm.clone(), 1);
        let before = warm.stats();
        replay.admits(&legal[0]).unwrap();
        let after = warm.stats();
        assert_eq!(
            (after.hits, after.snapshot_hits),
            (before.hits + 1, before.snapshot_hits + 1)
        );
        let child = replay.extend(&legal[0]).unwrap();
        assert_eq!(
            warm.stats().misses,
            after.misses + 1,
            "Admitted cannot answer extend"
        );
        assert_eq!(admitted_entries(&warm), 1);
        assert_eq!(
            child.shape(),
            SeqState::root(&nest, &deps)
                .extend(&legal[0])
                .unwrap()
                .shape()
        );
        // The upgraded entry now replays the child.
        assert_eq!(replay.shared_probe(&legal[0]), Some(true));
        let upgraded = warm.save_snapshot().unwrap();
        let again = SharedLegalityCache::with_shards(1 << 12, 8);
        again.load_snapshot(&upgraded).unwrap();
        assert_eq!(admitted_entries(&again), 1);
        assert_eq!(again.save_snapshot().unwrap(), upgraded);
    }

    #[test]
    fn capacity_full_shards_skip_rather_than_evict() {
        let donor = SharedLegalityCache::with_shards(1 << 12, 1);
        warm_cache(&donor);
        let bytes = donor.save_snapshot().unwrap();
        // A single shard of capacity 2: at most 2 entries load, the rest
        // are skipped, and nothing already resident is evicted.
        let tiny = SharedLegalityCache::with_shards(2, 1);
        let loaded = tiny.load_snapshot(&bytes).unwrap();
        assert_eq!(loaded.entries_loaded, 2);
        assert!(loaded.entries_skipped >= 2);
        assert_eq!(tiny.stats().evictions, 0);
    }

    #[test]
    fn errors_render() {
        for e in [
            SnapshotError::Truncated,
            SnapshotError::BadMagic,
            SnapshotError::BadVersion { found: 9 },
            SnapshotError::BadChecksum {
                expected: 1,
                found: 2,
            },
            SnapshotError::Malformed("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
