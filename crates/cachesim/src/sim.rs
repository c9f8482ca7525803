//! Nest simulation: stream a nest's access addresses into a cache.
//!
//! The streaming executor ([`crate::stream`]) serves every nest whose
//! addresses and control flow do not depend on array values; the reference
//! path — execute with the interpreter, record the access trace, translate
//! it to addresses — serves the rest and names every error.
//!
//! Every simulation is one bounded run ([`simulate_nest_bounded`]): its
//! sink stops the stream as soon as the misses reach the limit, and
//! [`simulate_nest`] is that run with no limit.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::layout::{AddressError, AddressMap};
use crate::stream::{Halt, Program};
use irlt_interp::{ExecError, Executor, Memory, TraceLevel};
use irlt_ir::LoopNest;
use irlt_obs::Telemetry;
use std::fmt;
use std::ops::ControlFlow;

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
    simulate_nest_observed(nest, params, map, config, &Telemetry::disabled())
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
    let mut sink = |addr| {
        sink(addr);
        ControlFlow::Continue(())
    };
    let (run, _) = stream(nest, params, map, &mut sink);
    run.map(|iterations| iterations.expect("a sink that never breaks never stops the run"))
}

/// [`stream_addresses`] with a sink that may stop the run after any
/// access: `Ok(None)` when it did. Also tells whether the reference path
/// ran.
fn stream(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    sink: &mut impl FnMut(u64) -> ControlFlow<()>,
) -> (Result<Option<usize>, SimError>, bool) {
    let Some(program) = Program::compile(nest, map) else {
        return (reference(nest, params, map, sink), true);
    };
    match program.run(params, sink) {
        Ok(iterations) => (Ok(Some(iterations)), false),
        Err(Halt::Stop) => (Ok(None), false),
        // The interpreter reaches the same failure, or an execution error
        // first (it executes the whole nest before addressing any access),
        // so only the reference path can name the error.
        Err(Halt::Bail) => {
            let err = reference(nest, params, map, &mut |_| ControlFlow::Continue(()))
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
    sink: &mut impl FnMut(u64) -> ControlFlow<()>,
) -> Result<Option<usize>, SimError> {
    let mut ex = Executor::new();
    for &(k, v) in params {
        ex.set_param(k, v);
    }
    ex.trace(TraceLevel::Accesses);
    let run = ex.run(nest, Memory::new())?;
    for e in &run.trace {
        if sink(map.address(&e.array, &e.indices)?).is_break() {
            return Ok(None);
        }
    }
    Ok(Some(run.iterations))
}

/// The number of distinct `line_bytes`-byte lines `nest`'s accesses
/// touch: its compulsory misses, since from a cold cache of any geometry
/// with that line size each of those lines misses at least once. The
/// lines are marked in one bitmap over the map's whole address range.
///
/// # Errors
///
/// As for [`simulate_nest`].
///
/// # Examples
///
/// ```
/// use irlt_cachesim::{lines_touched, AddressMap, Order};
/// use irlt_ir::parse_nest;
///
/// let nest = parse_nest("do r = 1, 3\n do i = 1, n\n  s(1) = s(1) + a(i)\n enddo\nenddo")?;
/// let mut map = AddressMap::new(Order::ColMajor, 8);
/// map.declare("a", &[64]).declare("s", &[1]);
/// // 64 elements × 8 B on 64-byte lines, however often they are swept,
/// // plus one line for `s`.
/// assert_eq!(lines_touched(&nest, &[("n", 64)], &map, 64)?, 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lines_touched(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    line_bytes: usize,
) -> Result<u64, SimError> {
    let line_bytes = line_bytes as u64;
    let mut seen = vec![0u64; map.extent().div_ceil(line_bytes).div_ceil(64) as usize];
    let mut lines = 0;
    let (run, _) = stream(nest, params, map, &mut |addr| {
        let line = addr / line_bytes;
        let (word, bit) = (&mut seen[(line / 64) as usize], 1 << (line % 64));
        if *word & bit == 0 {
            *word |= bit;
            lines += 1;
        }
        ControlFlow::Continue(())
    });
    run?;
    Ok(lines)
}

/// [`simulate_nest`] fed by the observability layer: see
/// [`simulate_nest_bounded`], which this is with no miss limit. With a
/// disabled handle this is exactly [`simulate_nest`].
///
/// # Errors
///
/// As for [`simulate_nest`].
pub fn simulate_nest_observed(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
    tel: &Telemetry,
) -> Result<SimResult, SimError> {
    simulate_nest_bounded(nest, params, map, config, None, tel)
        .map(|r| r.expect("a simulation without a miss limit runs to the end"))
}

/// [`simulate_nest`] that stops as soon as the misses reach `miss_limit`
/// (before the first access when it is 0) and then returns `Ok(None)`.
/// Misses only grow, so it stops exactly when the whole run would miss at
/// least `miss_limit` times, unless the run fails first; otherwise it
/// returns `Ok(Some(_))` or the error, as [`simulate_nest`] does. With
/// `None` for `miss_limit` it is [`simulate_nest`].
///
/// The cache counters are exported through `tel` under `cachesim/*`: a
/// finished run adds `simulations`, `accesses`, `hits`, `misses`,
/// `iterations` and one sample of the per-trial `miss_ratio` stream, a
/// stopped run counts under `cachesim/bounded`, a failed one under
/// `cachesim/trial_failures`, and a run that took the interpreter's
/// reference path (see [`stream_addresses`]) under `cachesim/fallbacks`.
///
/// # Errors
///
/// As for [`simulate_nest`].
///
/// # Examples
///
/// ```
/// use irlt_cachesim::{simulate_nest_bounded, AddressMap, CacheConfig, Order};
/// use irlt_ir::parse_nest;
/// use irlt_obs::Telemetry;
///
/// let nest = parse_nest("do i = 1, n\n  s(1) = s(1) + a(i)\nenddo")?;
/// let mut map = AddressMap::new(Order::ColMajor, 8);
/// map.declare("a", &[64]).declare("s", &[1]);
/// let run = |limit| {
///     simulate_nest_bounded(&nest, &[("n", 64)], &map, CacheConfig::l1(), limit, &Telemetry::disabled())
/// };
/// // The whole run misses 9 times.
/// assert_eq!(run(None)?.map(|r| r.stats.misses), Some(9));
/// assert_eq!(run(Some(10))?.map(|r| r.stats.misses), Some(9));
/// assert_eq!(run(Some(9))?, None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_nest_bounded(
    nest: &LoopNest,
    params: &[(&str, i64)],
    map: &AddressMap,
    config: CacheConfig,
    miss_limit: Option<u64>,
    tel: &Telemetry,
) -> Result<Option<SimResult>, SimError> {
    let mut cache = Cache::new(config);
    let (run, fell_back) = match miss_limit {
        // A sink that never breaks: the stream's stop checks compile away.
        None => stream(nest, params, map, &mut |addr| {
            cache.access(addr);
            ControlFlow::Continue(())
        }),
        Some(0) => (Ok(None), false),
        Some(limit) => stream(nest, params, map, &mut |addr| {
            if cache.access(addr) || cache.stats().misses < limit {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        }),
    };
    let result = run.map(|iterations| {
        iterations.map(|iterations| SimResult {
            stats: cache.stats(),
            iterations,
        })
    });
    if tel.is_enabled() {
        if fell_back {
            tel.incr("cachesim/fallbacks");
        }
        match &result {
            Ok(Some(r)) => {
                tel.incr("cachesim/simulations");
                tel.count("cachesim/accesses", r.stats.accesses);
                tel.count("cachesim/hits", r.stats.hits);
                tel.count("cachesim/misses", r.stats.misses);
                tel.count("cachesim/iterations", r.iterations as u64);
                tel.observe("cachesim/miss_ratio", r.stats.miss_ratio());
            }
            Ok(None) => tel.incr("cachesim/bounded"),
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
        // A run stopped at its miss limit counts only as bounded.
        let limit = Some(r.stats.misses);
        let stopped =
            simulate_nest_bounded(&nest, &[("n", 512)], &map, CacheConfig::l1(), limit, &tel);
        assert_eq!(stopped, Ok(None));
        let report = tel.report();
        assert_eq!(report.counter("cachesim/bounded"), 1);
        assert_eq!(report.counter("cachesim/simulations"), 1);
        assert_eq!(report.counter("cachesim/misses"), r.stats.misses);
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
