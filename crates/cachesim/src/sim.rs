//! Nest simulation: stream a nest's access addresses into a cache.
//!
//! The streaming executor ([`crate::stream`]) serves every nest whose
//! addresses and control flow do not depend on array values; the reference
//! path — execute with the interpreter, record the access trace, translate
//! it to addresses — serves the rest and names every error.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::layout::{AddressError, AddressMap};
use crate::stream::{Bail, Program};
use irlt_interp::{ExecError, Executor, Memory, TraceLevel};
use irlt_ir::LoopNest;
use std::fmt;

/// A failure while simulating a nest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The nest failed to execute.
    Exec(ExecError),
    /// An access fell outside the declared arrays.
    Address(AddressError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "{e}"),
            SimError::Address(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

impl From<AddressError> for SimError {
    fn from(e: AddressError) -> Self {
        SimError::Address(e)
    }
}

/// Result of [`simulate_nest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Cache counters after replaying the whole trace.
    pub stats: CacheStats,
    /// Innermost iterations executed.
    pub iterations: usize,
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} over {} iterations", self.stats, self.iterations)
    }
}

/// Simulates `nest` with the given parameters against a fresh cache of
/// the given geometry: every array access's byte address (see
/// [`stream_addresses`]) goes through the cache in execution order.
///
/// # Errors
///
/// Returns [`SimError`] on execution or addressing failures.
///
/// # Examples
///
/// ```
/// use irlt_cachesim::{simulate_nest, AddressMap, CacheConfig, Order};
/// use irlt_ir::parse_nest;
///
/// let nest = parse_nest("do i = 1, n\n  s(1) = s(1) + a(i)\nenddo")?;
/// let mut map = AddressMap::new(Order::ColMajor, 8);
/// map.declare("a", &[64]).declare("s", &[1]);
/// let r = simulate_nest(&nest, &[("n", 64)], &map, CacheConfig::l1())?;
/// // Streaming 64 contiguous 8-byte elements with 64-byte lines: 8 misses
/// // for `a` plus 1 for `s`.
/// assert_eq!(r.stats.misses, 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_nest(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
) -> Result<SimResult, SimError> {
    simulate(nest, params, map, config).0
}

/// [`simulate_nest`], also telling whether the reference path ran.
fn simulate(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
) -> (Result<SimResult, SimError>, bool) {
    let mut cache = Cache::new(config);
    let (run, fell_back) = stream(nest, params, map, &mut |addr| {
        cache.access(addr);
    });
    let result = run.map(|iterations| SimResult {
        stats: cache.stats(),
        iterations,
    });
    (result, fell_back)
}

/// Feeds the byte address of every array access `nest` makes, in
/// execution order, to `sink`, and returns the number of innermost
/// iterations executed.
///
/// The order is the one `irlt-interp` records: a statement's right-hand
/// side reads in evaluation order (a divisor before its dividend), then
/// the written element; a guard's condition before its statement. When
/// no array value can decide control flow, an address or an error, the
/// addresses are computed without executing values, trace buffers or
/// per-access allocation. Every other nest — one with an array read in a
/// bound, guard, subscript, scalar assignment or divisor, or a call to a
/// function other than `abs`, `sgn` or `sqrt` — runs through the
/// interpreter's access trace instead, with the same result.
///
/// # Errors
///
/// Returns [`SimError`] on execution or addressing failures, exactly as
/// the interpreter reports them; `sink` may by then have received part
/// of the stream.
///
/// # Examples
///
/// ```
/// use irlt_cachesim::{stream_addresses, AddressMap, Order};
/// use irlt_ir::parse_nest;
///
/// let nest = parse_nest("do i = 1, 2\n  b(i) = a(i)\nenddo")?;
/// let mut map = AddressMap::new(Order::ColMajor, 8);
/// map.declare("a", &[2]).declare("b", &[2]);
/// let mut addrs = Vec::new();
/// let iterations = stream_addresses(&nest, &[], &map, |addr| addrs.push(addr))?;
/// assert_eq!(iterations, 2);
/// // Read a(1), write b(1), read a(2), write b(2); `b` sits past a
/// // one-page gap after `a`'s page.
/// assert_eq!(addrs, [0, 8192, 8, 8200]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn stream_addresses(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    mut sink: impl FnMut(u64),
) -> Result<usize, SimError> {
    stream(nest, params, map, &mut sink).0
}

/// [`stream_addresses`], also telling whether the reference path ran.
fn stream(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    sink: &mut impl FnMut(u64),
) -> (Result<usize, SimError>, bool) {
    let Some(program) = Program::compile(nest, map) else {
        return (reference(nest, params, map, sink), true);
    };
    match program.run(params, sink) {
        Ok(iterations) => (Ok(iterations), false),
        // The interpreter reaches the same failure, or an execution error
        // first (it executes the whole nest before addressing any access),
        // so only the reference path can name the error.
        Err(Bail) => {
            let err = reference(nest, params, map, &mut |_| {})
                .expect_err("the reference path fails wherever streaming does");
            (Err(err), true)
        }
    }
}

/// The reference path: execute `nest` with the interpreter, recording its
/// access trace, then translate the trace to addresses.
fn reference(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    sink: &mut impl FnMut(u64),
) -> Result<usize, SimError> {
    let mut ex = Executor::new();
    for &(k, v) in params {
        ex.set_param(k, v);
    }
    ex.trace(TraceLevel::Accesses);
    let run = ex.run(nest, Memory::new())?;
    map.drive(&run.trace, sink)?;
    Ok(run.iterations)
}

/// [`simulate_nest`] fed by the observability layer: on success the cache
/// counters are exported through `tel` under `cachesim/*` (`simulations`,
/// `accesses`, `hits`, `misses`, `iterations`, and the per-trial
/// `miss_ratio` stream); failed trials count under
/// `cachesim/trial_failures`, and trials that took the interpreter's
/// reference path (see [`stream_addresses`]) under `cachesim/fallbacks`.
/// With a disabled handle this is exactly [`simulate_nest`].
///
/// # Errors
///
/// As for [`simulate_nest`].
pub fn simulate_nest_observed(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
    tel: &irlt_obs::Telemetry,
) -> Result<SimResult, SimError> {
    let (result, fell_back) = simulate(nest, params, map, config);
    if tel.is_enabled() {
        if fell_back {
            tel.incr("cachesim/fallbacks");
        }
        match &result {
            Ok(r) => {
                tel.incr("cachesim/simulations");
                tel.count("cachesim/accesses", r.stats.accesses);
                tel.count("cachesim/hits", r.stats.hits);
                tel.count("cachesim/misses", r.stats.misses);
                tel.count("cachesim/iterations", r.iterations as u64);
                tel.observe("cachesim/miss_ratio", r.stats.miss_ratio());
            }
            Err(_) => tel.incr("cachesim/trial_failures"),
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Order;
    use irlt_ir::parse_nest;

    #[test]
    fn streaming_miss_count() {
        // 512 elements × 8 B = 4096 B = 64 lines.
        let nest = parse_nest("do i = 1, n\n s(1) = s(1) + a(i)\nenddo").unwrap();
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("a", &[512]).declare("s", &[1]);
        let r = simulate_nest(&nest, &[("n", 512)], &map, CacheConfig::l1()).unwrap();
        assert_eq!(r.stats.misses, 64 + 1);
        assert_eq!(r.iterations, 512);
    }

    #[test]
    fn column_vs_row_traversal_of_colmajor_array() {
        // Fortran layout: walking the first subscript is unit-stride.
        let by_col =
            parse_nest("do j = 1, n\n do i = 1, n\n  s(1) = s(1) + a(i, j)\n enddo\nenddo")
                .unwrap();
        let by_row =
            parse_nest("do i = 1, n\n do j = 1, n\n  s(1) = s(1) + a(i, j)\n enddo\nenddo")
                .unwrap();
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("a", &[128, 128]).declare("s", &[1]);
        // Cache much smaller than the 128 KiB array.
        let cfg = CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 64,
            associativity: 4,
        };
        let good = simulate_nest(&by_col, &[("n", 128)], &map, cfg).unwrap();
        let bad = simulate_nest(&by_row, &[("n", 128)], &map, cfg).unwrap();
        assert!(
            bad.stats.misses > 4 * good.stats.misses,
            "row-major walk of a col-major array should thrash: {} vs {}",
            bad.stats,
            good.stats
        );
    }

    #[test]
    fn observed_simulation_exports_counters() {
        let nest = parse_nest("do i = 1, n\n s(1) = s(1) + a(i)\nenddo").unwrap();
        let mut map = AddressMap::new(Order::ColMajor, 8);
        map.declare("a", &[512]).declare("s", &[1]);
        let tel = irlt_obs::Telemetry::enabled();
        let r =
            simulate_nest_observed(&nest, &[("n", 512)], &map, CacheConfig::l1(), &tel).unwrap();
        let report = tel.report();
        assert_eq!(report.counter("cachesim/simulations"), 1);
        assert_eq!(report.counter("cachesim/misses"), r.stats.misses);
        assert_eq!(report.counter("cachesim/hits"), r.stats.hits);
        assert_eq!(report.counter("cachesim/accesses"), r.stats.accesses);
        assert_eq!(report.stats["cachesim/miss_ratio"].count, 1);
        assert_eq!(report.counter("cachesim/fallbacks"), 0);
        // A failed trial (unbound `n`) counts separately, and its error
        // comes from the reference path.
        simulate_nest_observed(&nest, &[], &map, CacheConfig::l1(), &tel).unwrap_err();
        assert_eq!(tel.report().counter("cachesim/trial_failures"), 1);
        assert_eq!(tel.report().counter("cachesim/fallbacks"), 1);
    }

    #[test]
    fn undeclared_array_reported() {
        let nest = parse_nest("do i = 1, 4\n q(i) = 0\nenddo").unwrap();
        let map = AddressMap::new(Order::RowMajor, 8);
        let err = simulate_nest(&nest, &[], &map, CacheConfig::l1()).unwrap_err();
        assert!(matches!(err, SimError::Address(_)));
        assert!(err.to_string().contains('q'));
    }

    #[test]
    fn exec_error_propagates() {
        let nest = parse_nest("do i = 1, n\n a(i) = 0\nenddo").unwrap();
        let map = AddressMap::new(Order::RowMajor, 8);
        let err = simulate_nest(&nest, &[], &map, CacheConfig::l1()).unwrap_err();
        assert!(matches!(err, SimError::Exec(_)));
    }
}
