//! # irlt — A General Framework for Iteration-Reordering Loop Transformations
//!
//! A production-quality Rust reproduction of **Vivek Sarkar & Radhika
//! Thekkath, PLDI 1992**: iteration-reordering transformations as
//! *sequences of template instantiations* from a small but extensible
//! kernel set, with uniform legality testing and uniform code generation.
//!
//! The workspace layers (each re-exported here):
//!
//! | module | contents |
//! |---|---|
//! | [`ir`] | loop-nest IR, expression language, parser, pretty-printer, the §4.1 type lattice |
//! | [`dependence`] | dependence vectors (`S(d_k)` semantics), `Tuples(D)` legality, ZIV/SIV/GCD/Banerjee analysis |
//! | [`unimodular`] | exact integer matrices, Fourier–Motzkin scanning, the unimodular baseline framework |
//! | [`core`] | the paper's contribution: Table 1 templates, Table 2 dependence rules, Tables 3–4 preconditions & codegen, sequences, fusion, [`core::catalog`] |
//! | [`affine`] | the second legality engine: composed affine schedules, per-dependence violation polytopes, Fourier–Motzkin rational emptiness, the cross-engine `Unknown` envelope |
//! | [`interp`] | loop-nest interpreter, differential equivalence checking, empirical dependences |
//! | [`cachesim`] | set-associative LRU cache + array layouts for locality studies |
//! | [`opt`] | goal-directed transformation search and empirical rule validation (the paper's "automatic transformation system" future work) |
//! | [`driver`] | batched multi-nest optimization: work-stealing pool, per-job deadlines with cooperative cancellation, cross-nest shared legality caching, the `irlt-batch` CLI |
//! | [`serve`] | the long-lived optimization service: `irlt-serve/v1` NDJSON protocol over Unix sockets, bounded admission with backpressure, per-request SLOs, snapshot rotation, graceful drain |
//! | [`obs`] | zero-dependency structured telemetry: counters, histograms, spans, JSON artifacts (`IRLT_TELEMETRY=path.json`) |
//!
//! # Quickstart
//!
//! ```
//! use irlt::prelude::*;
//!
//! // Parse the paper's Fig. 1(a) stencil.
//! let nest = parse_nest(
//!     "do i = 2, n - 1\n  do j = 2, n - 1\n    a(i, j) = (a(i, j) + a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + a(i, j + 1)) / 5\n  enddo\nenddo",
//! )?;
//! // Analyze dependences from scratch.
//! let deps = analyze_dependences(&nest);
//! // Skew + interchange as a transformation sequence; test legality; emit.
//! let t = TransformSeq::new(2)
//!     .unimodular(IntMatrix::skew(2, 0, 1, 1))?
//!     .unimodular(IntMatrix::interchange(2, 0, 1))?;
//! assert!(t.is_legal(&nest, &deps).is_legal());
//! let out = t.fuse().apply(&nest)?;
//!
//! // Verify by execution: same final arrays.
//! let report = check_equivalence(&nest, &out, &[("n", 12)], 42)?;
//! assert!(report.is_equivalent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use irlt_affine as affine;
pub use irlt_cachesim as cachesim;
pub use irlt_core as core;
pub use irlt_dependence as dependence;
pub use irlt_driver as driver;
pub use irlt_fuzz as fuzz;
pub use irlt_interp as interp;
pub use irlt_ir as ir;
pub use irlt_obs as obs;
pub use irlt_opt as opt;
pub use irlt_serve as serve;
pub use irlt_unimodular as unimodular;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use irlt_affine::{check_sequence, AffineOptions, AffineReport};
    pub use irlt_cachesim::{
        simulate_nest, simulate_nest_observed, stream_addresses, AddressMap, Cache, CacheConfig,
        Order,
    };
    pub use irlt_core::{
        catalog, compare_domain, cross_check, BoundsMatrices, CompareDomain, CrossCheckOutcome,
        ExtendError, KernelTemplate, KeyMode, LegalityReport, OracleVerdict, Permutation, SeqState,
        SharedLegalityCache, Template, TransformSeq,
    };
    pub use irlt_dependence::{
        analyze_dependences, analyze_dependences_detailed, DepElem, DepSet, DepVector, Dir,
    };
    pub use irlt_driver::{run_batch, BatchConfig, BatchResult, Job, JobResult, JobStatus};
    pub use irlt_fuzz::{run_campaign, CampaignConfig, CampaignReport, CoverageMap};
    pub use irlt_interp::{
        check_equivalence, empirical_dependences, Executor, Memory, PardoOrder, TraceLevel,
    };
    pub use irlt_ir::{
        classify, classify_bound, parse_expr, parse_nest, BoundSide, Expr, ExprType, Loop,
        LoopKind, LoopNest, Parser, Stmt, Symbol,
    };
    pub use irlt_obs::{Report, Telemetry};
    pub use irlt_opt::{
        default_test_nests, search, validate_template, Goal, LocalityGoal, MoveCatalog,
        SearchConfig,
    };
    pub use irlt_serve::{ServeConfig, ServeSummary, Server, ServerHandle, SnapshotPolicy};
    pub use irlt_unimodular::{IntMatrix, UnimodularTransform};
}
