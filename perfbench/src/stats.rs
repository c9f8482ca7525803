//! Order statistics, process memory, and the host record.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// closest ranks. `xs` need not be sorted. Returns NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The fastest of `xs`, which is how `setup_s` reports its samples.
/// Set-up is a few milliseconds of file reads and parsing, and on a
/// shared host it reads up to 1.8× slower for seconds at a time, often
/// for most of a run's samples, so the median (or a low quantile) lands
/// in either speed from run to run. Other tenants never make it faster,
/// so the fastest of samples spread over the run is the estimate they
/// move least.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// First and third quartiles the way Python's
/// `statistics.quantiles(xs, n=4)` (method "exclusive") computes them,
/// so the steadiness check reads the same spread an outside script would.
pub fn quartiles_exclusive(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n as f64 + 1.0;
    let at = |k: f64| {
        let pos = k * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1.0), at(3.0))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `nproc` and the CPU model, so recorded numbers carry their host.
pub fn host_record() -> irlt_obs::Json {
    use irlt_obs::Json;
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|m| m.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Object(vec![
        ("nproc".into(), Json::Int(nproc as i64)),
        ("cpu_model".into(), Json::Str(model)),
        ("os".into(), Json::Str(std::env::consts::OS.into())),
        ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 1.0), 3.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
    }
}
