//! Order statistics, the regression-bound rule, and `VmHWM` parsing.

/// Median, minimum, maximum and sample count of a set of readings.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// Smallest reading.
    pub min: f64,
    /// Largest reading.
    pub max: f64,
    /// Number of readings.
    pub n: usize,
}

/// Summarises `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN reading: both are benchmark bugs.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no readings to summarise");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("readings are never NaN"));
    let n = v.len();
    let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    Summary { median, min: v[0], max: v[n - 1], n }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The `q`-quantile (nearest rank) of `values`; `0.0` for no readings.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("readings are never NaN"));
    quantile_sorted(&v, q)
}

/// [`quantile`] of readings already in ascending order.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller readings are better (times, memory).
    Lower,
    /// Larger readings are better (rates, hit ratios).
    Higher,
}

/// By what share of `base` the reading `new` is worse (negative when it
/// is better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// True when `new` is no worse than `base` by more than `bound` (a share
/// of `base`).
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) <= bound
}

/// Extracts `VmHWM` (peak resident set) in MB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb / 1024.0)
}

/// This process's peak resident set so far, MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// FNV-1a over `text`, as 16 hex digits: the printed form of a workload's
/// simulated-statistics fingerprint.
pub fn fnv64_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s, Summary { median: 2.0, min: 1.0, max: 3.0, n: 3 });
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, Summary { median: 2.5, min: 1.0, max: 4.0, n: 4 });
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[9.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn bound_arithmetic_follows_the_metric_direction() {
        // Lower is better: 10 → 10.9 is 9% worse, 10 → 11.1 is 11% worse.
        assert!(within_bound(10.0, 10.9, Better::Lower, 0.10));
        assert!(!within_bound(10.0, 11.1, Better::Lower, 0.10));
        assert!(within_bound(10.0, 5.0, Better::Lower, 0.10));
        // Higher is better: a drop is the worsening.
        assert!(within_bound(100.0, 96.0, Better::Higher, 0.05));
        assert!(!within_bound(100.0, 94.0, Better::Higher, 0.05));
        assert!((worsening(100.0, 94.0, Better::Higher) - 0.06).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, Better::Lower) < 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\tverme-perf\nVmPeak:\t  400000 kB\nVmHWM:\t  315392 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(308.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 pages\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0), "linux exposes VmHWM");
    }

    #[test]
    fn fingerprint_hash_is_stable_and_input_sensitive() {
        assert_eq!(fnv64_hex(""), "cbf29ce484222325");
        assert_ne!(fnv64_hex("a|1"), fnv64_hex("a|2"));
    }
}
