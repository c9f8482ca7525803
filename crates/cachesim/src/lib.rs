//! # irlt-cachesim — cache simulation for locality studies
//!
//! The measuring instrument for the *motivation* of iteration-reordering
//! transformations: "optimizing … data locality" (§1). The paper itself
//! reports no hardware numbers; this crate substitutes a transparent
//! model so the benchmark suite can show *who wins and by how much* when
//! a nest is interchanged, blocked, or interleaved:
//!
//! * [`Cache`] — set-associative LRU with hit/miss counters;
//! * [`AddressMap`] — array declarations with row-/column-major
//!   linearization and page-disjoint bases;
//! * [`stream_addresses`] — the byte address of every access a nest
//!   makes, in the order `irlt-interp` would record them, computed by an
//!   address-only streaming executor (no array values, no trace buffer);
//!   nests whose addresses or control flow depend on array values run
//!   through the interpreter's access trace instead;
//! * [`simulate_nest`] — feed that stream through a cache and report
//!   counters; [`simulate_nest_bounded`] stops once the misses reach a
//!   limit, and [`lines_touched`] counts the compulsory misses;
//! * [`Hierarchy`] — a two-level (L1/L2) inclusive hierarchy with a
//!   weighted cost model.
//!
//! # Examples
//!
//! ```
//! use irlt_cachesim::{simulate_nest, AddressMap, CacheConfig, Order};
//! use irlt_ir::parse_nest;
//!
//! let nest = parse_nest("do i = 1, n\n  s(1) = s(1) + a(i)\nenddo")?;
//! let mut map = AddressMap::new(Order::ColMajor, 8);
//! map.declare("a", &[128]).declare("s", &[1]);
//! let r = simulate_nest(&nest, &[("n", 128)], &map, CacheConfig::l1())?;
//! assert!(r.stats.miss_ratio() < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod layout;
mod sim;
mod stream;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{Hierarchy, Latencies};
pub use layout::{AddressError, AddressMap, Order};
pub use sim::{
    lines_touched, simulate_nest, simulate_nest_bounded, simulate_nest_observed, stream_addresses,
    SimError, SimResult,
};
