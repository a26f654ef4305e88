//! A King-style pairwise latency matrix.
//!
//! The paper's §7.1 experiments use the 1740×1740 King matrix distributed
//! with p2psim (inter-DNS-server RTTs measured with the King technique),
//! whose average RTT is 198 ms. That measured matrix is not bundled here;
//! instead [`KingMatrix::synthetic`] samples a symmetric matrix from a
//! log-normal distribution calibrated to the same mean. Log-normal RTTs are
//! the standard stand-in for measured Internet delay distributions: they
//! reproduce the long right tail that dominates multi-hop lookup latency.

use rand::Rng;

use verme_sim::{HostId, LatencyModel, SeedSource, SimDuration};

/// Default average round-trip time of the King data set, in milliseconds.
pub const KING_MEAN_RTT_MS: f64 = 198.0;

/// A symmetric pairwise-RTT latency model.
///
/// One-way message delay between two distinct hosts is half the stored RTT.
/// Delay from a host to itself is a fixed 0.1 ms (loopback). The `bytes`
/// argument of [`LatencyModel::delay`] is ignored: the King experiments
/// measure control-message latency, not bulk transfer.
///
/// # Example
///
/// ```
/// use verme_net::KingMatrix;
/// use verme_sim::{HostId, LatencyModel};
///
/// let mut m = KingMatrix::synthetic(16, 198.0, 42);
/// let d = m.delay(HostId(0), HostId(1), 100);
/// assert!(d.as_millis_f64() > 0.0);
/// // Symmetric:
/// assert_eq!(d, m.delay(HostId(1), HostId(0), 100));
/// ```
#[derive(Clone, Debug)]
pub struct KingMatrix {
    n: usize,
    /// Upper-triangular RTTs in milliseconds, row-major: entry for (i, j)
    /// with i < j lives at `tri_index(i, j)`.
    rtt_ms: Vec<f32>,
}

impl KingMatrix {
    /// Synthesizes an `n`-host matrix whose RTTs are log-normal with the
    /// given mean (milliseconds).
    ///
    /// The log-normal shape parameter is fixed at σ = 0.6, which yields a
    /// median/mean ratio (~0.84) and a p90/mean ratio (~1.8) consistent
    /// with published King-measurement statistics.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `mean_rtt_ms` is not positive and finite.
    pub fn synthetic(n: usize, mean_rtt_ms: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one host");
        assert!(mean_rtt_ms.is_finite() && mean_rtt_ms > 0.0, "mean RTT must be positive");
        const SIGMA: f64 = 0.6;
        // For LogNormal(mu, sigma), mean = exp(mu + sigma^2/2).
        let mu = mean_rtt_ms.ln() - SIGMA * SIGMA / 2.0;
        let mut rng = SeedSource::new(seed).stream("king-matrix");
        let len = n * (n - 1) / 2;
        let mut rtt_ms = Vec::with_capacity(len);
        for _ in 0..len {
            // Box-Muller standard normal.
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let rtt = (mu + SIGMA * z).exp();
            // Clamp to a sane range: 1 ms .. 2 s.
            rtt_ms.push(rtt.clamp(1.0, 2000.0) as f32);
        }
        KingMatrix { n, rtt_ms }
    }

    /// Builds a matrix from measured RTTs (milliseconds).
    ///
    /// `rtts` must be square; only the upper triangle is used, so an
    /// asymmetric measured matrix is symmetrized by taking the `(i, j)`
    /// entry with `i < j`.
    ///
    /// # Panics
    ///
    /// Panics if `rtts` is empty, not square, or contains a non-positive or
    /// non-finite entry in its upper triangle.
    #[allow(clippy::needless_range_loop)] // (i, j) pairs read clearest as indices
    pub fn from_rtt_millis(rtts: &[Vec<f64>]) -> Self {
        let n = rtts.len();
        assert!(n > 0, "empty matrix");
        assert!(rtts.iter().all(|row| row.len() == n), "matrix must be square");
        let mut rtt_ms = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let v = rtts[i][j];
                assert!(v.is_finite() && v > 0.0, "invalid RTT at ({i},{j}): {v}");
                rtt_ms.push(v as f32);
            }
        }
        KingMatrix { n, rtt_ms }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix has no hosts (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The RTT between two hosts in milliseconds (0.2 ms for `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either host is out of range.
    pub fn rtt_ms(&self, a: HostId, b: HostId) -> f64 {
        assert!(a.0 < self.n && b.0 < self.n, "host out of range");
        if a == b {
            return 0.2;
        }
        let (i, j) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.rtt_ms[self.tri_index(i, j)] as f64
    }

    /// Mean RTT over all distinct pairs, in milliseconds.
    pub fn mean_rtt_ms(&self) -> f64 {
        if self.rtt_ms.is_empty() {
            return 0.0;
        }
        self.rtt_ms.iter().map(|&v| v as f64).sum::<f64>() / self.rtt_ms.len() as f64
    }

    /// Parses a pairwise-latency file in the p2psim style: one
    /// whitespace-separated `i j rtt_ms` triple per line (0-based host
    /// indices), `#`-prefixed comments and blank lines ignored. Missing
    /// pairs are filled with the mean of the provided ones, so a sparse
    /// measurement file still yields a usable matrix.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line, an
    /// out-of-range index, or an empty input.
    #[allow(clippy::needless_range_loop)] // (i, j) pairs read clearest as indices
    pub fn parse_pairs(text: &str, hosts: usize) -> Result<Self, String> {
        if hosts == 0 {
            return Err("need at least one host".into());
        }
        let mut rtts = vec![vec![f64::NAN; hosts]; hosts];
        let mut sum = 0.0;
        let mut count = 0usize;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let parse = |p: Option<&str>, what: &str| -> Result<f64, String> {
                p.ok_or_else(|| format!("line {}: missing {what}", lineno + 1))?
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 1))
            };
            let i = parse(parts.next(), "source index")? as usize;
            let j = parse(parts.next(), "destination index")? as usize;
            let rtt = parse(parts.next(), "rtt")?;
            if i >= hosts || j >= hosts {
                return Err(format!("line {}: index out of range ({i}, {j})", lineno + 1));
            }
            if !(rtt.is_finite() && rtt > 0.0) {
                return Err(format!("line {}: invalid rtt {rtt}", lineno + 1));
            }
            rtts[i][j] = rtt;
            rtts[j][i] = rtt;
            sum += rtt;
            count += 1;
        }
        if count == 0 {
            return Err("no latency pairs in input".into());
        }
        let mean = sum / count as f64;
        for i in 0..hosts {
            for j in 0..hosts {
                if rtts[i][j].is_nan() {
                    rtts[i][j] = mean;
                }
            }
        }
        Ok(KingMatrix::from_rtt_millis(&rtts))
    }

    fn tri_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Offset of row i in the packed upper triangle.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }
}

impl LatencyModel for KingMatrix {
    fn delay(&mut self, from: HostId, to: HostId, _bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(self.rtt_ms(from, to) / 2.0 / 1e3)
    }

    fn num_hosts(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_mean_matches_target() {
        let m = KingMatrix::synthetic(200, 198.0, 7);
        let mean = m.mean_rtt_ms();
        assert!((mean - 198.0).abs() < 15.0, "synthetic mean RTT {mean} too far from 198");
    }

    #[test]
    fn symmetric_and_self_loopback() {
        let mut m = KingMatrix::synthetic(10, 100.0, 1);
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(m.rtt_ms(HostId(i), HostId(j)), m.rtt_ms(HostId(j), HostId(i)));
            }
        }
        assert!(m.rtt_ms(HostId(3), HostId(3)) < 1.0);
        let d = m.delay(HostId(2), HostId(5), 0);
        assert!((d.as_millis_f64() - m.rtt_ms(HostId(2), HostId(5)) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_by_seed() {
        let a = KingMatrix::synthetic(50, 198.0, 9);
        let b = KingMatrix::synthetic(50, 198.0, 9);
        let c = KingMatrix::synthetic(50, 198.0, 10);
        assert_eq!(a.rtt_ms, b.rtt_ms);
        assert_ne!(a.rtt_ms, c.rtt_ms);
    }

    #[test]
    fn from_measured_matrix() {
        let rtts = vec![vec![0.0, 10.0, 20.0], vec![10.0, 0.0, 30.0], vec![20.0, 30.0, 0.0]];
        let m = KingMatrix::from_rtt_millis(&rtts);
        assert_eq!(m.len(), 3);
        assert_eq!(m.rtt_ms(HostId(0), HostId(1)), 10.0);
        assert_eq!(m.rtt_ms(HostId(0), HostId(2)), 20.0);
        assert_eq!(m.rtt_ms(HostId(1), HostId(2)), 30.0);
    }

    #[test]
    fn rtts_have_a_long_tail() {
        let m = KingMatrix::synthetic(300, 198.0, 3);
        let mut rtts: Vec<f64> = m.rtt_ms.iter().map(|&v| v as f64).collect();
        rtts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rtts[rtts.len() / 2];
        let p95 = rtts[rtts.len() * 95 / 100];
        assert!(median < m.mean_rtt_ms(), "log-normal median below mean");
        assert!(p95 > 1.5 * median, "tail should be heavy");
    }

    #[test]
    fn parse_pairs_round_trips() {
        let text = "# comment\n0 1 10.5\n0 2 20.0\n1 2 30.25\n\n";
        let m = KingMatrix::parse_pairs(text, 3).unwrap();
        assert_eq!(m.rtt_ms(HostId(0), HostId(1)), 10.5);
        assert_eq!(m.rtt_ms(HostId(2), HostId(1)), 30.25);
    }

    #[test]
    fn parse_pairs_fills_missing_with_mean() {
        let text = "0 1 10\n0 2 30\n";
        let m = KingMatrix::parse_pairs(text, 4).unwrap();
        // Pair (1,2) and all pairs touching host 3 were missing: mean=20.
        assert_eq!(m.rtt_ms(HostId(1), HostId(2)), 20.0);
        assert_eq!(m.rtt_ms(HostId(3), HostId(0)), 20.0);
    }

    #[test]
    fn parse_pairs_rejects_garbage() {
        assert!(KingMatrix::parse_pairs("0 1 ten", 2).unwrap_err().contains("bad rtt"));
        assert!(KingMatrix::parse_pairs("0 9 1.0", 2).unwrap_err().contains("out of range"));
        assert!(KingMatrix::parse_pairs("0 1 -3", 2).unwrap_err().contains("invalid rtt"));
        assert!(KingMatrix::parse_pairs("", 2).unwrap_err().contains("no latency pairs"));
        assert!(KingMatrix::parse_pairs("0 1 1", 0).unwrap_err().contains("at least one host"));
    }

    #[test]
    #[should_panic(expected = "matrix must be square")]
    fn rejects_ragged_matrix() {
        let _ = KingMatrix::from_rtt_millis(&[vec![0.0, 1.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "host out of range")]
    fn rejects_out_of_range_host() {
        let m = KingMatrix::synthetic(4, 100.0, 0);
        let _ = m.rtt_ms(HostId(4), HostId(0));
    }
}
