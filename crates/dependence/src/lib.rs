//! # irlt-dependence — dependence vectors and data-dependence analysis
//!
//! The dependence layer of **irlt** (Sarkar & Thekkath, PLDI 1992):
//!
//! * [`DepElem`] / [`Dir`] — distance and direction entries with the
//!   paper's `S(d_k)` value-set semantics (§3.1);
//! * [`DepVector`] / [`DepSet`] — dependence vectors and sets, with the
//!   `Tuples(D)` lexicographic legality test (§3.2) and summary-direction
//!   expansion;
//! * [`analyze_dependences`] — a from-scratch implementation of the
//!   "standard data dependence analysis techniques" the paper assumes
//!   (ZIV / strong SIV / GCD / Banerjee under direction-vector hierarchy).
//!
//! # Examples
//!
//! ```
//! use irlt_ir::parse_nest;
//! use irlt_dependence::{analyze_dependences, DepVector};
//!
//! let nest = parse_nest(
//!     "do i = 1, n\n  do j = 1, n\n    a(i, j) = a(i - 1, j) + 1\n  enddo\nenddo",
//! )?;
//! let deps = analyze_dependences(&nest);
//! assert_eq!(deps.vectors(), [DepVector::distances(&[1, 0])]);
//! assert!(deps.is_legal());
//! # Ok::<(), irlt_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod fingerprint;
pub mod intern;
mod set;
mod vector;

pub use analysis::{analyze_dependences, analyze_dependences_detailed, DepKind, Dependence};
pub use fingerprint::{fp128, Fingerprint128, Fp128Hasher};
pub use intern::{Interned, Interner, InternerStats};
pub use set::{ArityMismatch, DepSet};
pub use vector::{DepElem, DepParseError, DepVector, Dir};
