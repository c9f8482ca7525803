//! # irlt-core — the general framework for iteration-reordering loop
//! transformations
//!
//! A reproduction of the contribution of **Sarkar & Thekkath, PLDI 1992**:
//!
//! * [`Template`] — the kernel set of transformation templates (Table 1):
//!   `Unimodular`, `ReversePermute`, `Parallelize`, `Block`, `Coalesce`,
//!   `Interleave`;
//! * [`Template::map_dep_vector`] — the dependence-vector mapping rules
//!   (Table 2), including the `2^k`-way `Block`/`Interleave` expansion;
//! * [`Template::check_preconditions`] — the loop-bounds preconditions
//!   over the `const ⊑ invar ⊑ linear ⊑ nonlinear` lattice (Tables 3–4);
//! * [`Template::apply_to`] — code generation: bounds mapping plus
//!   initialization statements (Fig. 3, Tables 3–4);
//! * [`TransformSeq`] — the sequence representation: composition by
//!   concatenation, peephole fusion, the uniform legality test
//!   ([`TransformSeq::is_legal`]) and uniform code generation
//!   ([`TransformSeq::apply`]);
//! * [`SeqState`] — the incremental legality engine: prefix-cached
//!   dependence mapping and shape extension, so search-style candidate
//!   extension costs O(one template) instead of a full sequence replay;
//! * [`SharedLegalityCache`] — a cross-nest memo table for extensions:
//!   structurally identical subproblems discovered in *different* nests
//!   (a batch driver's workload) pay the mapping cost once, with
//!   bit-identical replay;
//! * [`KernelTemplate`] — the extension trait: user templates participate
//!   in sequences, legality, and code generation;
//! * [`catalog`] — classical transformations (interchange, reversal,
//!   skewing, strip-mining, tiling, wavefront) as instantiations.
//!
//! # Examples
//!
//! ```
//! use irlt_core::TransformSeq;
//! use irlt_dependence::analyze_dependences;
//! use irlt_ir::parse_nest;
//! use irlt_unimodular::IntMatrix;
//!
//! // Fig. 1: skew the j loop by i, then interchange.
//! let nest = parse_nest(
//!     "do i = 2, n - 1\n  do j = 2, n - 1\n    a(i, j) = (a(i, j) + a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + a(i, j + 1)) / 5\n  enddo\nenddo",
//! )?;
//! let deps = analyze_dependences(&nest);
//! let t = TransformSeq::new(2)
//!     .unimodular(IntMatrix::skew(2, 0, 1, 1))?
//!     .unimodular(IntMatrix::interchange(2, 0, 1))?;
//! assert!(t.is_legal(&nest, &deps).is_legal());
//! let out = t.fuse().apply(&nest)?;
//! println!("{out}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
pub mod catalog;
mod codegen;
mod depmap;
mod explain;
mod incremental;
pub mod oracle;
mod precond;
mod script;
mod sequence;
mod shared;
mod snapshot;
mod template;

pub use bounds::{BoundsMatrices, MatrixEntry};
pub use codegen::ApplyError;
pub use depmap::{blockmap, imap, mergedirs, parmap};
pub use incremental::{ExtendError, Move, SeqState};
pub use oracle::{
    compare_domain, cross_check, record_outcome, CompareDomain, CrossCheckOutcome, OracleVerdict,
};
pub use precond::PrecondError;
pub use script::ScriptError;
pub use sequence::{
    init_prefix, IllegalReason, KernelTemplate, LegalityReport, SeqApplyError, SequenceError, Step,
    TransformSeq,
};
pub use shared::{KeyMode, KeyedMove, MoveKey, ShardStats, SharedCacheStats, SharedLegalityCache};
pub use snapshot::{
    generation_path, SnapshotError, SnapshotLoadStats, SnapshotSaveError, SnapshotWriteStats,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use template::{Permutation, Template, TemplateError};
